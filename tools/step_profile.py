"""Time one Euler step of the falsifier's lockstep loop and count the Python
calls it makes.

    python3 tools/step_profile.py

Five cases, each at N = 1 and N = 4 trials: ``linear-stable`` strong at
eps = 0.1, ``noisy-loop`` with its own perturbation, ``example1`` image at
eps = 1, ``example1`` strong at eps = 0.5 with its hint, and ``example2``
strong at eps = 0.04 with its hint.  A hinted case runs N copies of the
hint's start and policy; the others run N starts of the initial set with
b-ascent and random-extreme in turn.  Each run is ``flow._lockstep`` as
``falsify`` calls it (the domain box, infeasible velocities truncated and a
watch on the unsafe set), for 200 steps at ``falsify``'s step size, with
an exit threshold no trial reaches, so no trial retires on a hit.

One line per case and N: microseconds per step (the median of 11 timed runs
after one warm-up run) and Python calls per step, the ``call`` events that
``sys.setprofile`` sees in one run.  The call count repeats exactly from run
to run; the script checks that it does on a second profiled run.  It
compares two versions of the program, not their speed.  The program is
imported from ``src/`` of the checkout that holds this file.
"""
from __future__ import annotations

import math
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from inclusafe import expressions, scenarios  # noqa: E402
from inclusafe.flow import _lockstep, _Watch, b_ascent, random_extreme  # noqa: E402
from inclusafe.svmap import PerturbedSystem, unperturbed  # noqa: E402

STEPS = 200
RUNS = 11

#: (label, scenario, eps, mode, hinted); eps None integrates the scenario's
#: own dynamics
CASES = [
    ("linear-stable strong eps=0.1", "linear-stable", 0.1, "strong", False),
    ("noisy-loop native", "noisy-loop", None, None, False),
    ("example1 image eps=1", "example1", 1.0, "image", False),
    ("example1 strong eps=0.5 hint", "example1", 0.5, "strong", True),
    ("example2 strong eps=0.04 hint", "example2", 0.04, "strong", True),
]


def _setup(name: str, eps, mode, hinted: bool, trials: int):
    """The arguments of one lockstep run but its generators and watch."""
    bundle = scenarios.build(name)
    scenario = bundle.scenario
    system = scenario.dynamics
    if eps is not None:
        sense = system.sense_margin if isinstance(system, PerturbedSystem) else None
        system = PerturbedSystem(unperturbed(system), margin=eps, mode=mode, sense_margin=sense)
    margin = system.margin if isinstance(system, PerturbedSystem) else 0.0
    step = 1e-3 if callable(margin) or not margin > 0.0 else min(1e-3, margin / 50.0)
    if hinted:
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
    return system, X0, policies, step, scenario.box, unsafe, depth


def _run(args) -> int:
    """One lockstep run; returns the number of steps it took."""
    system, X0, policies, step, box, unsafe, depth = args
    trials = X0.shape[0]
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(0).spawn(trials)]
    run = _lockstep(system, X0, policies, rngs, nsteps=STEPS, step=step, box=box,
                    on_infeasible="truncate", watch=_Watch(unsafe, depth, math.inf, trials))
    return len(run.history)


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


def main() -> int:
    print(f"{'case':32} {'N':>2} {'steps':>5} {'us/step':>8} {'calls/step':>10}")
    for label, name, eps, mode, hinted in CASES:
        for trials in (1, 4):
            args = _setup(name, eps, mode, hinted, trials)
            _run(args)  # fills the caches a run uses
            times = []
            for _ in range(RUNS):
                start = time.perf_counter()
                steps = _run(args)
                times.append((time.perf_counter() - start) / steps)
            count, steps = _calls(args)
            if _calls(args) != (count, steps):
                raise SystemExit(f"{label} N={trials}: the call count did not repeat")
            print(f"{label:32} {trials:>2} {steps:>5} {1e6 * statistics.median(times):8.1f} {count / steps:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
