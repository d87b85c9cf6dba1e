"""Sampled solutions of differential inclusions and escape search.

Solutions are produced by explicit Euler steps ``x <- x + h * v`` with the
velocity ``v`` chosen from the current image by a selection policy.  The
update is the exact float expression above, so tests can reproduce states
bit for bit.  On top of the integrator sit a monotonicity test for barrier
values along trajectories, a falsifier that searches for solutions entering
the unsafe region, and a one-dimensional reach-interval recursion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .barrier import SingularPointError
from .convexset import contains
from .svmap import PerturbedSystem
from . import expressions

__all__ = [
    "Trajectory",
    "SelectionPolicy",
    "InfeasibleSelectionError",
    "b_ascent",
    "random_extreme",
    "constant_policy",
    "expression_policy",
    "custom_policy",
    "integrate",
    "MonotonicityReport",
    "monotonicity_test",
    "Hint",
    "FalsifyBudget",
    "FalsificationResult",
    "falsify",
    "reach_interval_1d",
]


class InfeasibleSelectionError(RuntimeError):
    """A selection policy returned a velocity outside the current image."""


@dataclass(frozen=True)
class SelectionPolicy:
    """Named velocity selector ``(x, image, rng) -> velocity``.

    ``verify`` asks the integrator to confirm the returned velocity lies in
    the image (extreme-point selectors are feasible by construction and skip
    the check).
    """

    name: str
    select: Callable
    verify: bool = False

    def __call__(self, x, image, rng):
        return self.select(x, image, rng)


def b_ascent(barrier) -> SelectionPolicy:
    """Extreme point of the image in the barrier gradient direction."""

    def select(x, image, rng):
        try:
            g = barrier.gradient_at(x)
        except SingularPointError:
            g = None
        if g is None or float(np.linalg.norm(g)) < 1e-12:
            g = rng.standard_normal(image.dimension)
        return image.extreme_point(g)

    return SelectionPolicy("b-ascent", select)


def random_extreme() -> SelectionPolicy:
    """Extreme point of the image in a random direction each step."""

    def select(x, image, rng):
        d = rng.standard_normal(image.dimension)
        n = float(np.linalg.norm(d))
        if n < 1e-12:
            d = np.zeros(image.dimension)
            d[0] = 1.0
        else:
            d = d / n
        return image.extreme_point(d)

    return SelectionPolicy("random-extreme", select)


def constant_policy(v) -> SelectionPolicy:
    """Constant velocity; checked against the image every step."""
    vv = np.asarray(v, dtype=float).reshape(-1)

    def select(x, image, rng):
        return vv

    return SelectionPolicy(f"constant({', '.join(f'{c:g}' for c in vv)})", select, verify=True)


def expression_policy(components: Sequence[str], dimension: int, name: str = "expression") -> SelectionPolicy:
    """State-dependent velocity from expression strings; checked each step."""
    fn = expressions.vector_fn(list(components), dimension)

    def select(x, image, rng):
        return fn(x)

    return SelectionPolicy(name, select, verify=True)


def custom_policy(fn, name: str = "custom", verify: bool = False) -> SelectionPolicy:
    return SelectionPolicy(name, fn, verify=verify)


@dataclass
class Trajectory:
    """Euler-sampled solution: states, times, optional barrier values."""

    times: np.ndarray
    states: np.ndarray
    values: Optional[np.ndarray] = None
    exited_box: bool = False
    truncated: bool = False
    policy: str = ""

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def max_over(self, fn) -> float:
        return float(max(fn(x) for x in self.states))


def integrate(
    system,
    x0,
    *,
    horizon: float,
    step: float,
    policy: SelectionPolicy,
    barrier=None,
    box=None,
    backward: bool = False,
    on_infeasible: str = "raise",
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
    feasibility_tol: float = 1e-9,
) -> Trajectory:
    """Explicit Euler sampling of one solution.

    ``backward`` integrates the time-reversed inclusion (image negated).
    ``on_infeasible`` is "raise" or "truncate" and only matters for policies
    with ``verify`` set.  Leaving ``box`` stops the run with the offending
    state recorded and ``exited_box`` set.
    """
    if step <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and step must be positive")
    if on_infeasible not in ("raise", "truncate"):
        raise ValueError("on_infeasible must be 'raise' or 'truncate'")
    if rng is None:
        rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).reshape(-1)
    nsteps = int(round(horizon / step))
    states = [x.copy()]
    values = [barrier.value_at(x)] if barrier is not None else None
    exited = truncated = False
    b = None
    if box is not None:
        b = np.asarray(box, dtype=float)
    for k in range(nsteps):
        image = system.image(x)
        if backward:
            image = image.scale(-1.0)
        v = np.asarray(policy(x, image, rng), dtype=float).reshape(-1)
        if policy.verify and not contains(image, v, feasibility_tol):
            if on_infeasible == "raise":
                raise InfeasibleSelectionError(
                    f"policy {policy.name!r} chose velocity {v} outside the image at x={x}"
                )
            truncated = True
            break
        x = x + step * v
        states.append(x.copy())
        if values is not None:
            values.append(barrier.value_at(x))
        if b is not None and (np.any(x < b[:, 0]) or np.any(x > b[:, 1])):
            exited = True
            break
    count = len(states)
    times = step * np.arange(count)
    return Trajectory(
        times=times,
        states=np.array(states),
        values=None if values is None else np.array(values),
        exited_box=exited,
        truncated=truncated,
        policy=policy.name,
    )


@dataclass
class MonotonicityReport:
    """Result of the windowed no-rise test on barrier values."""

    passed: bool
    max_rise: float
    rise_tol: float
    violations: list
    windows: int

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_rise": self.max_rise,
            "rise_tol": self.rise_tol,
            "violations": self.violations[:16],
            "windows": self.windows,
        }


def monotonicity_test(
    values,
    step: float,
    *,
    mask=None,
    rise_tol: Optional[float] = None,
) -> MonotonicityReport:
    """Check that barrier values never climb above a running minimum.

    Within each maximal masked window the value may rise at most
    ``rise_tol`` above the minimum seen so far in that window.  The default
    tolerance is the largest observed single-step change (one Euler step of
    slack), so isolated discretization wiggles pass and sustained climbs
    fail.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if mask is None:
        m = np.ones(vals.shape[0], dtype=bool)
    else:
        m = np.asarray(mask, dtype=bool).reshape(-1)
        if m.shape[0] != vals.shape[0]:
            raise ValueError("mask length must match values length")
    if rise_tol is None:
        diffs = np.abs(np.diff(vals))
        rise_tol = float(diffs.max()) + 1e-12 if diffs.size else 1e-12
    violations = []
    max_rise = 0.0
    windows = 0
    run_min = None
    prev_in = False
    for i, (v, inside) in enumerate(zip(vals, m)):
        if not inside:
            prev_in = False
            continue
        if not prev_in:
            windows += 1
            run_min = v
            prev_in = True
        run_min = min(run_min, v)
        rise = v - run_min
        if rise > max_rise:
            max_rise = rise
        if rise > rise_tol:
            violations.append({"index": int(i), "rise": float(rise)})
    return MonotonicityReport(
        passed=not violations,
        max_rise=float(max_rise),
        rise_tol=float(rise_tol),
        violations=violations,
        windows=windows,
    )


@dataclass(frozen=True)
class Hint:
    """Suggested falsification start, optionally with its own policy."""

    x0: np.ndarray
    policy: Optional[SelectionPolicy] = None
    label: str = ""


@dataclass
class FalsifyBudget:
    starts: int = 200
    horizon: float = 5.0
    step: Optional[float] = None  # None: resolved per perturbation size
    seed: int = 0


@dataclass
class FalsificationResult:
    found: bool
    eps: Optional[float]
    depth: float
    threshold: float
    hit_time: Optional[float] = None
    start: Optional[np.ndarray] = None
    policy: str = ""
    trajectory: Optional[Trajectory] = field(default=None, repr=False)
    tried: int = 0
    notes: str = ""

    def to_dict(self) -> dict:
        d = {
            "found": self.found,
            "eps": self.eps,
            "depth": self.depth,
            "threshold": self.threshold,
            "hit_time": self.hit_time,
            "start": None if self.start is None else [float(v) for v in self.start],
            "policy": self.policy,
            "tried": self.tried,
            "notes": self.notes,
        }
        if self.trajectory is not None:
            d["trajectory"] = {
                "steps": len(self.trajectory) - 1,
                "final": [float(v) for v in self.trajectory.final],
                "exited_box": self.trajectory.exited_box,
                "truncated": self.trajectory.truncated,
            }
        return d


def _velocity_bound(system, points) -> float:
    """Coarse bound on image magnitudes over sample points."""
    best = 0.0
    for x in points:
        img = system.image(np.asarray(x, dtype=float).reshape(-1))
        if img.dimension == 1:
            lo, hi = img.interval_bounds()
            best = max(best, abs(lo), abs(hi))
        else:
            norms = np.linalg.norm(img.points, axis=1)
            best = max(best, float(norms.max()) + img.radius)
    return best


def _trajectory_outcome(traj: Trajectory, unsafe, depth_fn, threshold: float):
    """(deepest unsafe excursion, first crossing time of the threshold)."""
    depth = -math.inf
    hit_time = None
    for t, x in zip(traj.times, traj.states):
        if not unsafe(x):
            continue
        d = float(depth_fn(x))
        if d > depth:
            depth = d
        if hit_time is None and d >= threshold:
            hit_time = float(t)
    return depth, hit_time


def falsify(
    scenario,
    eps: Optional[float] = None,
    budget: Optional[FalsifyBudget] = None,
    *,
    hints: Sequence[Hint] = (),
    mode: str = "strong",
    density: int = 9,
    policies: Optional[Sequence[SelectionPolicy]] = None,
) -> FalsificationResult:
    """Search for a sampled solution that enters the unsafe region.

    With ``eps`` given, the scenario's base dynamics are wrapped in a
    perturbation of that size (``mode`` picks plain image inflation or the
    strong form).  With ``eps`` omitted, the scenario's own dynamics are
    integrated as-is (including any perturbation they already carry).

    Hints are tried first, in order; remaining starts are drawn from the
    initial set (or from the zero sublevel set when the initial set has no
    grid samples), biased toward small |B|.  The first trajectory whose
    unsafe excursion depth reaches the exit threshold wins; the threshold is
    ten Euler steps of the observed velocity bound, which filters grazing
    chatter, capped at the deepest unsafe node of the domain grid.
    Everything is seeded, so results are reproducible.
    """
    if budget is None:
        budget = FalsifyBudget()
    dynamics = scenario.dynamics
    base = dynamics.base if isinstance(dynamics, PerturbedSystem) else dynamics
    if eps is None:
        system = dynamics
    else:
        if eps <= 0.0:
            raise ValueError("perturbation size eps must be positive")
        system = PerturbedSystem(base, margin=float(eps), mode=mode, density=density)

    step = budget.step
    if step is None:
        step = min(1e-3, eps / 50.0) if eps is not None else 1e-3

    rng = np.random.default_rng(budget.seed)
    bar = scenario.barrier
    depth_fn = scenario.depth if scenario.depth is not None else bar.value_at

    grid = scenario.grid()
    probe_idx = np.linspace(0, grid.shape[0] - 1, min(64, grid.shape[0])).astype(int)
    vbound = _velocity_bound(system, grid[probe_idx])
    threshold = 10.0 * step * max(vbound, 1e-12)
    # a threshold deeper than the box has room for could only be met by
    # leaving the box, so cap it at the deepest unsafe grid node
    room = max((float(depth_fn(x)) for x in grid if scenario.unsafe(x)), default=0.0)
    if room > 0.0:
        threshold = min(threshold, room)

    pool = scenario.initial_samples()
    if pool.shape[0] == 0:
        bvals = np.fromiter((bar.value_at(x) for x in grid), dtype=float, count=grid.shape[0])
        pool = grid[bvals <= scenario.tolerances.tol]
    if pool.shape[0] == 0:
        raise ValueError("no admissible start points inside the domain box")
    weights = 1.0 / (0.1 + np.abs(np.fromiter((bar.value_at(x) for x in pool), dtype=float, count=pool.shape[0])))
    weights = weights / weights.sum()

    if policies is None:
        policies = [b_ascent(bar), random_extreme()]

    starts: list[tuple[np.ndarray, Optional[SelectionPolicy], str]] = []
    for hint in hints:
        starts.append((np.asarray(hint.x0, dtype=float).reshape(-1), hint.policy, hint.label or "hint"))
    n_random = max(0, budget.starts - len(starts))
    if n_random and pool.shape[0]:
        picks = rng.choice(pool.shape[0], size=n_random, p=weights)
        for i in picks:
            starts.append((pool[i].copy(), None, "sampled"))

    best = FalsificationResult(
        found=False, eps=eps, depth=-math.inf, threshold=threshold,
        tried=0, notes="no unsafe excursion beyond threshold",
    )
    tried = 0
    for x0, pinned, label in starts:
        trial_policies = [pinned] if pinned is not None else list(policies)
        for pol in trial_policies:
            tried += 1
            traj = integrate(
                system, x0,
                horizon=budget.horizon, step=step, policy=pol,
                barrier=bar, box=scenario.box,
                on_infeasible="truncate", rng=rng,
            )
            depth, hit_time = _trajectory_outcome(traj, scenario.unsafe, depth_fn, threshold)
            if depth > best.depth:
                best = FalsificationResult(
                    found=hit_time is not None,
                    eps=eps, depth=depth, threshold=threshold,
                    hit_time=hit_time, start=x0, policy=pol.name,
                    trajectory=traj, tried=tried,
                    notes=label,
                )
            if hit_time is not None:
                best.tried = tried
                return best
    best.tried = tried
    return best


def reach_interval_1d(system, interval, *, horizon: float, step: float, samples: int = 65) -> np.ndarray:
    """Over-approximate reach tube of a one-dimensional inclusion.

    Each step maps every sampled point x of the current interval through
    ``x + h * [min F(x), max F(x)]`` and unions the results with the current
    interval (the tube is nondecreasing).  Endpoints are always sampled.
    Returns an array of shape (steps + 1, 2) of interval bounds per time.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi < lo:
        raise ValueError("interval must satisfy lo <= hi")
    if samples < 2:
        raise ValueError("need at least the two endpoint samples")
    out = [(lo, hi)]
    nsteps = int(round(horizon / step))
    for _ in range(nsteps):
        xs = np.linspace(lo, hi, samples)
        new_lo, new_hi = lo, hi
        for x in xs:
            flo, fhi = system.image(np.array([x])).interval_bounds()
            new_lo = min(new_lo, x + step * flo)
            new_hi = max(new_hi, x + step * fhi)
        lo, hi = new_lo, new_hi
        out.append((lo, hi))
    return np.array(out)
