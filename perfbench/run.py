"""inclusafe benchmark: fixed ``cli.run`` command lists, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is one process and one client in a closed loop: the commands of a
workload run back to back as one pass, and passes repeat until ``--seconds``
of measurement are spent (at least two, so bundle digests can be compared).
BLAS and OpenMP are pinned to one thread.  Command times are reported in
reference seconds: each is scaled by a fixed reference kernel timed around
it, so that they follow the program and not the shared machine's speed of
the moment.  With ``--trace 0`` the last line
of output reports the end-to-end metrics; with ``--trace 1`` one plain pass
is followed by traced passes and the last line reports the per-layer
metrics.  Every command's outcome is checked against its documented truth.
The program is imported from ``src/`` of the checkout that holds this file.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: set-ups measured per run; setup_s is their median
SETUP_REPEATS = 5

#: seconds the reference kernel takes on the machine times are scaled to
REFERENCE_S = 0.005

END_TO_END = [  # (name, unit)
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("key_s", "s"),
    ("work_per_s", "1/s"),
]

# Per workload: the command role that key_s times, the role whose work rate
# is work_per_s, and what key_s and work_per_s stand for there.
KEY_METRICS = {
    "falsify-search": ("find", "exhaust", "falsify_found_s", "falsify_exhaust_traj_per_s"),
    "certify-grid": ("verify", "margin", "verify_s", "margin_cells_per_s"),
    "modulus-tables": ("modulus", "modulus", "modulus_s", "modulus_grid_cells_per_s"),
}


def _import_program():
    """Import inclusafe from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "inclusafe", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import inclusafe

    if not os.path.abspath(inclusafe.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported inclusafe from {inclusafe.__file__}, not {SRC}")


def _timed_import() -> float:
    """Seconds a fresh interpreter spends importing the program."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import inclusafe.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


def _work(bundle: dict, role: str, out_dir: str) -> float:
    """Units of work a command did, for work_per_s."""
    if role == "exhaust":
        return bundle["falsification"]["tried"]
    if role == "margin":
        return len(bundle["margin"]["cell_margins"])
    # modulus: (ring radius, step radius) cells of the log-grid
    with open(os.path.join(out_dir, bundle["artifacts"]["modulus_tables"]), encoding="utf-8") as fh:
        radii = len(json.load(fh)["direct"]["xs"]) - 1
    return radii * radii


class _Cell:
    """A small object for the reference kernel to allocate."""

    __slots__ = ("key", "items")

    def __init__(self, key, items):
        self.key = key
        self.items = items


_REF_MATRIX = numpy.array([[-1.0, 0.5], [-0.5, -1.0]])


def _reference_kernel() -> None:
    """Fixed work of the kind the program is made of: an integer loop that
    allocates small objects, then Euler steps on 2-vectors through small
    numpy calls."""
    total, cells = 0, []
    for i in range(4000):
        total += i * i % 7
        cells.append(_Cell(i, [i, total]))
    index = {c.key: c for c in cells}
    x, path = numpy.array([0.3, -0.2]), []
    for _ in range(300):
        v = _REF_MATRIX @ x
        x = x + 1e-3 * (numpy.minimum(v, 0.0) + numpy.maximum(v, 0.0))
        path.append((float(x[0]), float(x[1])))
    if len(index) != 4000 or not abs(path[-1][0]) < 1.0:
        raise AssertionError("reference kernel")


def _reference_s() -> float:
    """Seconds the reference kernel takes now, the median of three timings.

    The kernel never changes with the program, so a time divided by it
    measures the program and not how fast the shared machine runs at that
    moment.  The garbage collector is off while it runs, so the program's
    heap does not add to it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def _midmean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean): as
    robust to a few slow or fast outliers as the median, but steadier."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def _scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference seconds: scaled by REFERENCE_S over the mean
    of the reference times measured just before and just after."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


class Bench:
    """One workload's commands, configs and measured passes."""

    def __init__(self, workload: str, seed: int, directory: str):
        from inclusafe import cli, scenarios
        import workloads

        self.cli, self.scenarios, self.workloads = cli, scenarios, workloads
        self.commands = workloads.WORKLOADS[workload]
        self.key_role, self.rate_role = KEY_METRICS[workload][:2]
        self.seed = seed
        self.directory = directory
        self.paths: list[str] = []
        self.digests: dict[int, str] = {}  # command index -> first digest
        self.failures: list[dict] = []
        self.attempted = 0
        self.setup_wall: list[float] = []  # plain seconds of each set-up, for the info line

    def setup(self) -> float:
        """Import, write, schema-check and build every config; the time taken
        in reference seconds, scaled by the reference times just before and
        after.  The fresh interpreter that imports runs on the same CPU, since
        it inherits the benchmark's pinning."""
        before = _reference_s()
        imported = _timed_import()
        t0 = time.perf_counter()
        self.paths = self.workloads.write_configs(self.commands, self.seed, self.directory)
        for path in self.paths:
            self.scenarios.bundle_from_config(self.cli.load_config(path))
        seconds = imported + time.perf_counter() - t0
        self.setup_wall.append(seconds)
        return _scaled(seconds, before, _reference_s())

    def run_pass(self) -> dict:
        """Run every command once; returns the pass's timings and work.

        The reference kernel runs before the first command and after each
        one, so every command time has a reference time on either side.
        """
        times, work, refs = [], [], [_reference_s()]
        start = time.perf_counter()
        for i, (cmd, path) in enumerate(zip(self.commands, self.paths)):
            if i:
                refs.append(_reference_s())
            out_dir = os.path.join(self.directory, f"out-{i:02d}")
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                bundle, code = self.cli.run(path, cmd.command, seed=self.seed, out=out_dir, **cmd.flags)
            except Exception as exc:  # a command that raises is a failed operation
                times.append(time.perf_counter() - t0)
                work.append(0.0)
                self._fail(i, f"raised {type(exc).__name__}: {exc}", known=False)
                continue
            times.append(time.perf_counter() - t0)
            work.append(_work(bundle, cmd.role, out_dir) if cmd.role == self.rate_role else 0.0)
            bad = self.workloads.check(cmd, bundle, code)
            known = cmd.known_defect is not None
            d = self.workloads.digest(bundle)
            if d != self.digests.setdefault(i, d):
                bad.append("bundle digest differs from the first pass")
                known = False
            if bad:
                self._fail(i, "; ".join(bad), known)
        refs.append(_reference_s())
        scaled = [_scaled(t, refs[i], refs[i + 1]) for i, t in enumerate(times)]
        return {"seconds": time.perf_counter() - start, "busy": sum(times), "times": times,
                "scaled": scaled, "work": work, "refs": refs}

    def _fail(self, index: int, reason: str, known: bool):
        self.failures.append({"command": self.commands[index].label, "reason": reason,
                              "known_defect": known})

    def end_to_end(self, passes: list[dict], field: str = "scaled") -> dict:
        # On a shared machine the same command runs up to twice as slow for
        # seconds or minutes at a time.  Each command time is scaled by the
        # reference kernel timed around it, and the interquartile mean over
        # passes taken.
        med = [_midmean([p[field][i] for p in passes]) for i in range(len(self.commands))]
        key = [i for i, c in enumerate(self.commands) if c.role == self.key_role]
        rate = [i for i, c in enumerate(self.commands) if c.role == self.rate_role]
        return {
            "wall_s": sum(med),
            "key_s": sum(med[i] for i in key),
            "work_per_s": sum(passes[0]["work"][i] for i in rate) / sum(med[i] for i in rate),
            "ok_frac": (self.attempted - len(self.failures)) / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _until(seconds: float, done: list, step) -> None:
    """Call ``step`` until another pass would overrun ``seconds``; at least twice."""
    t0 = time.perf_counter()
    while len(done) < 2 or (
        time.perf_counter() - t0 + statistics.median(p["seconds"] for p in done) <= seconds
    ):
        done.append(step())


def _traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """One plain pass, then traced passes; returns (per-layer metrics, notes)."""
    import layertrace

    start = time.perf_counter()
    plain = bench.run_pass()
    runs = []  # (tracer, pass)

    def traced_pass():
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            p = bench.run_pass()
        finally:
            tracer.uninstall()
        runs.append((tracer, p))
        return p

    _until(seconds - (time.perf_counter() - start), [], traced_pass)
    per_pass = [t.metrics(p["busy"], plain["busy"]) for t, p in runs]
    metrics = dict(per_pass[0])
    for name, unit, _ in layertrace.LAYER_METRICS:
        if unit != "count":
            metrics[name] = statistics.median(m[name] for m in per_pass)
    counts = [name for name, unit, _ in layertrace.LAYER_METRICS if unit == "count"]
    callers = {f"{a}>{b}": n for (a, b), n in sorted(runs[0][0].callers.items(), key=str)}
    return metrics, {
        "traced_passes": len(runs),
        "plain_pass_s": plain["busy"],
        "counts_repeat": all(m[c] == per_pass[0][c] for m in per_pass for c in counts),
        "wrappers_left": sorted({x for t, _ in runs for x in t.leftovers()}),
        "callers": callers,
    }


def _machine(args) -> dict:
    import scipy

    with open("/proc/loadavg", encoding="ascii") as fh:
        load = [float(v) for v in fh.read().split()[:3]]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": load,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(KEY_METRICS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    info = _machine(args)
    # One CPU for the benchmark and the interpreters it starts, so that the
    # reference kernel runs where the timed work runs.
    os.sched_setaffinity(0, {info["cpu"]})
    directory = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        bench = Bench(args.workload, args.seed, directory)
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        if args.trace:
            from layertrace import LAYER_METRICS

            metrics, notes = _traced(bench, args.seconds)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            passes: list[dict] = []
            _until(args.seconds, passes, bench.run_pass)
            metrics = bench.end_to_end(passes)
            metrics["setup_s"] = statistics.median(setups)
            units = dict(END_TO_END)
            unscaled = bench.end_to_end(passes, "times")
            notes = {"passes": len(passes), "pass_s": [p["busy"] for p in passes],
                     "pass_detail": [{k: p[k] for k in ("times", "refs")} for p in passes],
                     "unscaled_s": {k: unscaled[k] for k in ("wall_s", "key_s")},
                     "unscaled_setup_s": statistics.median(bench.setup_wall),
                     "reference_s": statistics.median(r for p in passes for r in p["refs"]),
                     "command_s": {c.label: statistics.median(p["times"][i] for p in passes)
                                   for i, c in enumerate(bench.commands)}}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    info.update(notes, setup_s_each=setups, failures=bench.failures,
                fail_frac=len(bench.failures) / bench.attempted, attempted=bench.attempted)
    if not args.trace:
        key_name, rate_name = KEY_METRICS[args.workload][2:]
        info[key_name] = metrics["key_s"]
        info[rate_name] = metrics["work_per_s"]
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]!r:>24} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    correct = (not any(not f["known_defect"] for f in bench.failures)
               and notes.get("counts_repeat", True) and not notes.get("wrappers_left"))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
