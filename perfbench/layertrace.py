"""Outside-in layer tracing: wrappers installed from the benchmark's files.

Each traced function is re-bound at every place the package imports it by
name, methods are patched on their class, and the callables that the
expression compiler returns are wrapped as they are made.  Spans are
aggregated in memory per name: calls, total time, and self time (span time
minus the time of its direct child spans), plus who called whom.
:meth:`Tracer.uninstall` puts every original object back.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from inclusafe import barrier, checker, cli, convexset, expressions, flow, modulus, numerics, scenarios, svmap

CHECKS = ("check_nominal", "check_robust_strict", "check_clarke",
          "check_uniform_unweighted", "check_uniform_weighted")

# (metric name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("flow.integrate.calls", "count", "lower"),
    ("flow.integrate.steps", "count", "lower"),
    ("flow.integrate.self_frac", "fraction", "lower"),
    ("flow.integrate.box_exits", "count", "lower"),
    ("flow.integrate.truncated", "count", "lower"),
    ("flow.falsify.found_per_tried", "ratio", "higher"),
    ("svmap.SetValuedMap.image.calls", "count", "lower"),
    ("svmap.SetValuedMap.image.self_frac", "fraction", "lower"),
    ("svmap.PerturbedSystem.image.calls", "count", "lower"),
    ("svmap.PerturbedSystem.image.self_frac", "fraction", "lower"),
    ("convexset.ConvexCompactSet.init.calls", "count", "lower"),
    ("convexset.ConvexCompactSet.init.self_frac", "fraction", "lower"),
    ("convexset.hull_union_many.calls", "count", "lower"),
    ("convexset.hull_union_many.self_frac", "fraction", "lower"),
    ("convexset.hull_union_many.points_kept_ratio", "ratio", "lower"),
    ("convexset.contains.calls", "count", "lower"),
    ("convexset.contains.self_frac", "fraction", "lower"),
    ("convexset.qhull.calls", "count", "lower"),
    ("convexset.hausdorff.calls", "count", "lower"),
    ("convexset.hausdorff.self_frac", "fraction", "lower"),
    ("modulus.build_modulus.self_frac", "fraction", "lower"),
    ("modulus.build_modulus.total_frac", "fraction", "lower"),
    ("modulus.verify_modulus.self_frac", "fraction", "lower"),
    ("modulus.verify_modulus.total_frac", "fraction", "lower"),
    ("expressions.eval.calls", "count", "lower"),
    ("expressions.eval.self_frac", "fraction", "lower"),
    ("barrier.boundary_extract.calls", "count", "lower"),
    ("barrier.boundary_extract.self_frac", "fraction", "lower"),
    ("barrier.value_at.calls", "count", "lower"),
    ("barrier.gradient_at.calls", "count", "lower"),
    *[(f"checker.{name}.self_frac", "fraction", "lower") for name in CHECKS],
    ("checker.synthesize_margin.total_frac", "fraction", "lower"),
    ("numerics.largest_feasible.calls", "count", "lower"),
    ("numerics.largest_feasible.probes", "count", "lower"),
    ("cli.load_config.self_frac", "fraction", "lower"),
    ("cli.run.self_frac", "fraction", "lower"),
    ("scenarios.bundle_from_config.total_frac", "fraction", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


class Tracer:
    """Span aggregates for one traced stretch of work."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.callers = defaultdict(int)  # (parent span, span) -> calls
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.wrapper_codes = set()

    # ------------------------------------------------------------------ #
    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(result)`` sees each result."""
        agg = self.spans[name]
        stack, callers, clock = self._stack, self.callers, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            callers[(stack[-1][1] if stack else None, name)] += 1
            stack.append((frame, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if stack:
                    stack[-1][0][0] += dur
            if after is not None:
                after(result)
            return result

        self.wrapper_codes.add(wrapper.__code__)
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, module, attr, wrapper):
        """Replace ``module.attr`` wherever a package module holds it."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "inclusafe":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def wrap_function(self, module, attr, after=None):
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        self.rebind(module, attr, self.span(name, getattr(module, attr), after))

    def wrap_method(self, cls, attr, name):
        self._set(cls, attr, self.span(name, vars(cls)[attr]))

    # ------------------------------------------------------------------ #
    def install(self):
        """Wrap every traced layer boundary of the package."""
        counts = self.counts

        def integrated(traj):
            counts["flow.integrate.steps"] += len(traj) - 1
            counts["flow.integrate.box_exits"] += bool(traj.exited_box)
            counts["flow.integrate.truncated"] += bool(traj.truncated)

        def falsified(res):
            counts["falsify.found"] += bool(res.found)
            counts["falsify.tried"] += res.tried

        self.wrap_function(flow, "integrate", after=integrated)
        self.wrap_function(flow, "falsify", after=falsified)

        self.wrap_method(svmap.SetValuedMap, "image", "svmap.SetValuedMap.image")
        self.wrap_method(svmap.PerturbedSystem, "image", "svmap.PerturbedSystem.image")
        self.wrap_method(convexset.ConvexCompactSet, "__init__", "convexset.ConvexCompactSet.init")
        self.wrap_method(barrier.BarrierCandidate, "value_at", "barrier.value_at")
        self.wrap_method(barrier.BarrierCandidate, "gradient_at", "barrier.gradient_at")

        hull_union_many = convexset.hull_union_many

        def merge(sets, **kwargs):
            sets = list(sets)
            out = hull_union_many(sets, **kwargs)
            counts["hull.points_in"] += sum(s.points.shape[0] for s in sets)
            counts["hull.points_out"] += out.points.shape[0]
            return out

        self.rebind(convexset, "hull_union_many", self.span("convexset.hull_union_many", merge))
        self.wrap_function(convexset, "contains")
        self.wrap_function(convexset, "hausdorff")
        hull_class = convexset.ConvexHull

        def qhull(*args, **kwargs):
            return hull_class(*args, **kwargs)

        self._set(convexset, "ConvexHull", self.span("convexset.qhull", qhull))

        for attr in ("scalar_fn", "predicate_fn", "vector_fn"):
            self.rebind(expressions, attr, self._compiling(getattr(expressions, attr)))

        self.wrap_function(modulus, "build_modulus")
        self.wrap_function(modulus, "verify_modulus")
        self.wrap_function(barrier, "boundary_extract")
        for attr in CHECKS + ("synthesize_margin",):
            self.wrap_function(checker, attr)

        largest_feasible = numerics.largest_feasible

        def bisect(violation, *args, **kwargs):
            def probe(value):
                counts["numerics.largest_feasible.probes"] += 1
                return violation(value)

            return largest_feasible(probe, *args, **kwargs)

        self.rebind(numerics, "largest_feasible", self.span("numerics.largest_feasible", bisect))
        self.wrap_function(cli, "load_config")
        self.wrap_function(cli, "run")
        self.wrap_function(scenarios, "bundle_from_config")

    def _compiling(self, factory):
        """A compiler whose returned callables are wrapped in eval spans."""

        @functools.wraps(factory)
        def compile_traced(*args, **kwargs):
            return self.span("expressions.eval", factory(*args, **kwargs))

        self.wrapper_codes.add(compile_traced.__code__)
        return compile_traced

    def uninstall(self):
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Package attributes that still hold one of this tracer's wrappers."""
        out = []
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "inclusafe":
                continue
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for owner in owners:
                for key, value in vars(owner).items():
                    if getattr(value, "__code__", None) in self.wrapper_codes:
                        out.append(f"{getattr(owner, '__name__', owner)}.{key}")
        return out

    # ------------------------------------------------------------------ #
    def metrics(self, pass_s: float, plain_s: float) -> dict:
        """Per-layer values of one traced pass lasting ``pass_s`` seconds."""
        c = self.counts
        out = {}
        for metric, _, _ in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            calls, total, own = self.spans.get(span, (0, 0.0, 0.0))
            if kind == "calls":
                out[metric] = calls
            elif kind == "self_frac":
                out[metric] = own / pass_s
            elif kind == "total_frac":
                out[metric] = total / pass_s
            else:  # counted by a hook, or derived below
                out[metric] = c.get(metric, 0)
        tried = c["falsify.tried"]
        out["flow.falsify.found_per_tried"] = c["falsify.found"] / tried if tried else 0.0
        pin = c["hull.points_in"]
        out["convexset.hull_union_many.points_kept_ratio"] = c["hull.points_out"] / pin if pin else 0.0
        out["trace.pass_s"] = pass_s
        out["trace.overhead_frac"] = pass_s / plain_s - 1.0
        return out
