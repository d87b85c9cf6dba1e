"""Time one Euler step of the falsifier's lockstep loop and count the Python
calls it makes.

    python3 tools/step_profile.py

Five cases, each at N = 1 and N = 4 trials: ``linear-stable`` strong at
eps = 0.1, ``noisy-loop`` with its own perturbation, ``example1`` image at
eps = 1, ``example1`` strong at eps = 0.5 with its hint, and ``example2``
strong at eps = 0.04 with its hint.  A hinted case runs N copies of the
hint's start and policy; the others run N starts of the initial set with
b-ascent and random-extreme in turn.  The ``linear-stable`` case and the
``example1`` hint case run again at N = 4 (the ``custom`` rows) with every
policy wrapped as ``custom_policy(p.select, name=p.name,
verify=p.verify)``, and the ``example2`` hint case once more at N = 4 with
its argument ball sampled at density 13 (the ``density=13`` row): each
strong image then concatenates the images of 113 lattice points per row.
Then ``two-radii`` strong at eps = 0.01 at N = 4: linear-stable's config
with the unsafe set x1 > 1.02 and two pieces that hold everywhere, {-0.1}
and {-1} + 0.5 B, so every lattice row mixes two radii, and a per-call
sort of the rows' piece patterns would show in its time per step.
Then the three ``exhaust`` commands of the
benchmark's falsify-search workload (``perfbench/workloads.py``), each
with the trials ``falsify`` makes from the command's config at seed 0: its
hints and sampled starts, so N is the command's trial count.  Each run is
``flow._lockstep`` as ``falsify`` calls it (the domain box, infeasible
velocities truncated and a watch on the unsafe set), for 200 steps at
``falsify``'s step size, with an exit threshold no trial reaches, so no
trial retires on a hit.  Last, the five ``find`` commands of that
workload, each the lockstep run that ``falsify`` makes for it through
``cli.run``, caught on its way in and run again as it is: the whole
horizon and the real exit threshold, so the winner's hit retires the
trials after it and its tail runs alone.  The loop advances the live
trials in blocks of steps, all together, whenever each of their policies
is an extreme-point one (b-ascent, random-extreme), state feedback
(example2's hint) or a fixed velocity (example1's hint), in any mix, and
in blocks of one step otherwise: the non-hinted case rows and the exhaust
rows time blocks of extreme-point trials, the hinted case rows blocks of
hints alone at 1 and 4 trials, the custom rows blocks of one step, the
example1 find rows a hint beside extreme-point trials until its hit
retires them, and the example2 find rows a lone hint.  A step is one
Euler step of the live trials, however many there are, and a block counts
as the steps it took.

One line per case and N: microseconds per step (the median of 11 timed
runs after one warm-up run), Python calls per step, the ``call`` events
that ``sys.setprofile`` sees in one run, steps per block: the steps over
the loop's passes that advanced the trials, one pass per block, so 1.0
means blocks of one step only, and a silent fall-back to them shows as
such, not only as a slower step; and full rows per step: the rows of the
feasibility checks that the nearest-point certificate of
``convexset.contains_rows`` leaves to the 256-direction product, so a
certificate that stops settling rows shows as a number too.  The last two
come from runs of their own.  The call count repeats exactly from run to
run; the script checks that it does on a second profiled run.  It
compares two versions of the program, not their speed.  The program is
imported from ``src/`` of the checkout that holds this file.
"""
from __future__ import annotations

import math
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

from inclusafe import cli, convexset, expressions, flow, scenarios  # noqa: E402
from inclusafe.flow import (  # noqa: E402
    FalsifyBudget, _lockstep, _trials, _Watch, b_ascent, custom_policy, random_extreme,
)
from inclusafe.svmap import PerturbedSystem, unperturbed  # noqa: E402
import workloads  # noqa: E402

STEPS = 200
RUNS = 11

#: (label, scenario, eps, mode, hinted, custom, density); eps None
#: integrates the scenario's own dynamics; a custom case wraps every policy
#: as a custom policy, and it, a case at another lattice density than the
#: default 9 and a case on a config that is not a builtin run at N = 4 only
CASES = [
    ("linear-stable strong eps=0.1", "linear-stable", 0.1, "strong", False, False, 9),
    ("noisy-loop native", "noisy-loop", None, None, False, False, 9),
    ("example1 image eps=1", "example1", 1.0, "image", False, False, 9),
    ("example1 strong eps=0.5 hint", "example1", 0.5, "strong", True, False, 9),
    ("example2 strong eps=0.04 hint", "example2", 0.04, "strong", True, False, 9),
    ("linear-stable strong eps=0.1 custom", "linear-stable", 0.1, "strong", False, True, 9),
    ("example1 strong eps=0.5 hint custom", "example1", 0.5, "strong", True, True, 9),
    ("example2 strong eps=0.04 hint density=13", "example2", 0.04, "strong", True, False, 13),
    ("two-radii strong eps=0.01", "two-radii", 0.01, "strong", False, False, 9),
]


def _two_radii():
    """linear-stable's config with the unsafe set x1 > 1.02 and two pieces
    that hold everywhere, {-0.1} and {-1} + 0.5 B."""
    return dict(scenarios.builtin_config("linear-stable"), name="two-radii", unsafe="x1 > 1.02",
                depth="x1 - 1.02", dynamics={"pieces": [
                    {"when": "True", "image": {"kind": "constant", "points": [[-0.1]]}},
                    {"when": "True", "image": {"kind": "constant", "points": [[-1.0]], "radius": 0.5}},
                ]})


#: the exhaust and find commands of the falsify-search workload
EXHAUST = [cmd for cmd in workloads.WORKLOADS["falsify-search"] if cmd.role == "exhaust"]
FIND = [cmd for cmd in workloads.WORKLOADS["falsify-search"] if cmd.role == "find"]


def _setup(bundle, eps, mode, starts, trials, density=9):
    """The arguments of one lockstep run (see :func:`_run`): N = ``trials``
    copies of the hint (``starts`` True) or starts of the initial set
    (False), or the trials ``falsify`` makes on the budget ``starts``; a
    strong image samples its argument ball at ``density``."""
    scenario = bundle.scenario
    system = scenario.dynamics
    if eps is not None:
        sense = system.sense_margin if isinstance(system, PerturbedSystem) else None
        system = PerturbedSystem(unperturbed(system), margin=eps, mode=mode, density=density, sense_margin=sense)
    margin = system.margin if isinstance(system, PerturbedSystem) else 0.0
    step = 1e-3 if callable(margin) or not margin > 0.0 else min(1e-3, margin / 50.0)
    if isinstance(starts, FalsifyBudget):
        made = _trials(scenario, starts, bundle.hints(margin), scenario.grid())
        X0 = np.array([x0 for x0, _, _ in made])
        policies = [policy for _, policy, _ in made]
    elif starts:
        hint = bundle.hints(eps)[0]
        X0 = np.repeat(hint.x0.reshape(1, -1), trials, axis=0)
        policies = [hint.policy] * trials
    else:
        pool = scenario.initial_samples()
        X0 = pool[np.linspace(0, pool.shape[0] - 1, trials).astype(int)]
        pair = [b_ascent(scenario.barrier), random_extreme()]
        policies = [pair[i % 2] for i in range(trials)]
    unsafe = expressions.rows_of(scenario.unsafe, bool)
    depth = scenario.barrier.value_rows if scenario.depth is None else expressions.rows_of(scenario.depth)
    settings = {"nsteps": STEPS, "step": step, "box": scenario.box, "on_infeasible": "truncate",
                "watch": (unsafe, depth, math.inf)}
    return system, X0, policies, np.random.SeedSequence(0).spawn(X0.shape[0]), settings


def _caught(cmd):
    """The arguments of the lockstep run that ``falsify`` makes for ``cmd``
    in ``cli.run``, at seed 0."""
    caught = []

    def catch(system, X0, policies, rngs, **settings):
        watch = settings["watch"]
        caught.append((system, X0, policies, [rng.bit_generator.seed_seq for rng in rngs],
                       dict(settings, watch=(watch.unsafe, watch.depth_fn, watch.threshold))))
        return _lockstep(system, X0, policies, rngs, **settings)

    flow._lockstep = catch
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = workloads.write_configs([cmd], 0, tmp)[0]
            cli.run(path, cmd.command, seed=0, out=os.path.join(tmp, "out"), **cmd.flags)
    finally:
        flow._lockstep = _lockstep
    return caught[0]


class _Passes(_Watch):
    """A watch that counts the loop's passes that advanced the trials: the
    loop records each block once."""

    passes = 0

    def observe_block(self, k, trials, seen, ends):
        self.passes += k > 0  # step 0 is the starts
        return super().observe_block(k, trials, seen, ends)


def _run(args) -> int:
    """One lockstep run on fresh generators and a fresh watch; returns the
    number of steps it took."""
    system, X0, policies, seeds, settings = args
    unsafe, depth, threshold = settings["watch"]
    run = _lockstep(system, X0, policies, [np.random.default_rng(s) for s in seeds],
                    **dict(settings, watch=_Watch(unsafe, depth, threshold, X0.shape[0])))
    return len(run.history)


def _steps_per_pass(args) -> float:
    """Steps over the loop's passes that advanced the trials, in one run."""
    system, X0, policies, seeds, settings = args
    watch = _Passes(*settings["watch"], X0.shape[0])
    run = _lockstep(system, X0, policies, [np.random.default_rng(s) for s in seeds],
                    **dict(settings, watch=watch))
    return len(run.history) / watch.passes


def _full_rows(args) -> float:
    """Rows that reach the 256-direction containment product, per step, in
    one run."""
    rows = 0
    sampled = convexset._sampled

    def counted(stack, *rest):
        nonlocal rows
        rows += stack[0].shape[0]
        return sampled(stack, *rest)

    convexset._sampled = counted
    try:
        steps = _run(args)
    finally:
        convexset._sampled = sampled
    return rows / steps


def _calls(args) -> tuple[int, int]:
    """Python call events of one run, and its steps."""
    count = 0

    def tally(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(tally)
    try:
        steps = _run(args)
    finally:
        sys.setprofile(None)
    return count, steps


def _label(role, cmd):
    eps = cmd.flags.get("eps")
    return f"{role} {cmd.scenario} " + ("native" if eps is None else f"{cmd.flags['mode']} eps={eps:g}")


def _cases():
    """(label, arguments of one lockstep run) of every case."""
    for label, name, eps, mode, hinted, custom, density in CASES:
        builtin = name in scenarios.BUILTIN
        for trials in (4,) if custom or density != 9 or not builtin else (1, 4):
            bundle = scenarios.build(name) if builtin else scenarios.bundle_from_config(_two_radii())
            args = _setup(bundle, eps, mode, hinted, trials, density)
            if custom:
                wrapped = {}  # one custom policy per policy, so the trials keep their groups
                policies = [wrapped.setdefault(id(p), custom_policy(p.select, name=p.name, verify=p.verify))
                            for p in args[2]]
                args = args[:2] + (policies,) + args[3:]
            yield label, args
    for cmd in EXHAUST:
        cfg = workloads.make_config(cmd, 0)
        yield _label("exhaust", cmd), _setup(scenarios.bundle_from_config(cfg), cmd.flags.get("eps"),
                                             cmd.flags.get("mode"), FalsifyBudget(**cfg["falsify"]), None)
    for cmd in FIND:
        yield _label("find", cmd), _caught(cmd)


def main() -> int:
    print(f"{'case':40} {'N':>2} {'steps':>5} {'us/step':>8} {'calls/step':>10} {'steps/block':>11}"
          f" {'full rows/step':>14}")
    for label, args in _cases():
        trials = args[1].shape[0]
        _run(args)  # fills the caches a run uses
        times = []
        for _ in range(RUNS):
            start = time.perf_counter()
            steps = _run(args)
            times.append((time.perf_counter() - start) / steps)
        count, steps = _calls(args)
        if _calls(args) != (count, steps):
            raise SystemExit(f"{label} N={trials}: the call count did not repeat")
        print(f"{label:40} {trials:>2} {steps:>5} {1e6 * statistics.median(times):8.1f} {count / steps:10.1f}"
              f" {_steps_per_pass(args):11.1f} {_full_rows(args):14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
