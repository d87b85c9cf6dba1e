"""Sampled solutions of differential inclusions and escape search.

Solutions are produced by explicit Euler steps ``x <- x + h * v`` with the
velocity ``v`` chosen from the current image by a selection policy.  The
update is the exact float expression above, so tests can reproduce states
bit for bit.  One loop advances any number of trials in lockstep as an
(N, n) state array: images come from one batched evaluation per step, the
built-in policies select every row's velocity at once, and each trial draws
from its own random stream, so a trial's states do not depend on the trials
beside it.  :func:`integrate` is that loop with one trial.  On top of it
sit a falsifier that searches for solutions entering the unsafe region and
a one-dimensional reach-interval recursion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .convexset import contains_rows, extreme_rows, interval_rows, row_norms, row_set
from .svmap import PerturbedSystem, unperturbed
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
    the check).  The built-in policies also select for many trials at once,
    equal row for row to ``select``: an extreme-point policy gives
    ``directions(X, rngs)``, the (m, n) directions for the states X with
    one generator per row, and the velocity is the image's extreme point in
    that direction; a state-feedback policy gives ``rows(X)``, the (m, n)
    velocities.  Other policies are called per row on the materialised
    image.  An extreme-point policy whose direction is a function of one
    ``rng.standard_normal(n)`` draw per step, and of nothing else, also
    gives ``normals(Z)``, the directions for the (m, n) draws Z; the
    integrator then draws each trial's normals in blocks.
    """

    name: str
    select: Callable
    verify: bool = False
    directions: Optional[Callable] = None
    rows: Optional[Callable] = None
    normals: Optional[Callable] = None

    def __call__(self, x, image, rng):
        return self.select(x, image, rng)


def _extreme_policy(name: str, directions: Callable, normals: Optional[Callable] = None) -> SelectionPolicy:
    def select(x, image, rng):
        return image.extreme_point(directions(np.asarray(x, dtype=float).reshape(1, -1), [rng])[0])

    return SelectionPolicy(name, select, directions=directions, normals=normals)


def b_ascent(barrier) -> SelectionPolicy:
    """Extreme point of the image in the barrier gradient direction.

    On the candidate's singular set, or where the gradient vanishes, the
    direction is a standard normal draw instead.
    """

    gradient = None if barrier.gradient is None else expressions.rows_of(barrier.gradient)
    on_singular = None if barrier.singular is None else expressions.rows_of(barrier.singular, bool)

    def directions(X, rngs):
        m, n = X.shape
        if gradient is None:
            barrier.gradient_at(X[0])  # raises the per-point error
        if on_singular is None:
            G = gradient(X).reshape(m, n)
            draw = row_norms(G) < 1e-12
        else:
            singular = on_singular(X)
            G = np.zeros((m, n))
            if np.count_nonzero(singular) < m:
                G[~singular] = gradient(X[~singular]).reshape(-1, n)
            draw = singular | (row_norms(G) < 1e-12)
        if np.count_nonzero(draw):
            for i in np.flatnonzero(draw).tolist():
                G[i] = rngs[i].standard_normal(n)
        return G

    return _extreme_policy("b-ascent", directions)


def random_extreme() -> SelectionPolicy:
    """Extreme point of the image in a random direction each step: the
    standard normal draw, normalised."""

    def normals(D):
        norm = row_norms(D)
        small = norm < 1e-12
        if not np.count_nonzero(small):
            return D / norm[:, None]
        D[~small] = D[~small] / norm[~small, None]
        D[small] = 0.0
        D[small, 0] = 1.0
        return D

    def directions(X, rngs):
        return normals(np.array([rng.standard_normal(X.shape[1]) for rng in rngs]))

    return _extreme_policy("random-extreme", directions, normals)


def constant_policy(v) -> SelectionPolicy:
    """Constant velocity; checked against the image every step."""
    vv = np.asarray(v, dtype=float).reshape(-1)

    def select(x, image, rng):
        return vv

    def rows(X):
        return vv[None].repeat(X.shape[0], axis=0)

    return SelectionPolicy(f"constant({', '.join(f'{c:g}' for c in vv)})", select, verify=True, rows=rows)


def expression_policy(components: Sequence[str], dimension: int, name: str = "expression") -> SelectionPolicy:
    """State-dependent velocity from expression strings; checked each step."""
    fn = expressions.vector_fn(list(components), dimension)

    def select(x, image, rng):
        return fn(x)

    return SelectionPolicy(name, select, verify=True, rows=fn.rows)


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


class _Watch:
    """Unsafe-excursion bookkeeping of a falsification run over ``trials``
    trials.

    A trial hits when it reaches an unsafe state at least ``threshold``
    deep.  The lowest-index hitter wins: from its hit on, every trial with
    a higher index retires, while it and the lower-index trials run on to
    their own end, so the outcome is the one a one-by-one search that stops
    at the first hitter would report.
    """

    def __init__(self, unsafe: Callable, depth_fn: Callable, threshold: float, trials: int):
        self.unsafe = unsafe
        self.depth_fn = depth_fn
        self.threshold = threshold
        self.depth = np.full(trials, -math.inf)  # deepest unsafe excursion per trial
        self.hit = np.full(trials, -1)  # step of each trial's first crossing (-1: none)
        self.winner = trials  # index of the lowest hitter so far (trials: none)

    def observe(self, k: int, trials: np.ndarray, S: np.ndarray) -> None:
        """Record the states ``S`` that ``trials`` reached at step k."""
        unsafe = self.unsafe(S)
        held = np.count_nonzero(unsafe)
        if not held:
            return
        if held < unsafe.size:
            trials, S = trials[unsafe], S[unsafe]
        d = self.depth_fn(S)
        deeper = d > self.depth[trials]
        self.depth[trials[deeper]] = d[deeper]
        new = (d >= self.threshold) & (self.hit[trials] < 0)
        if np.count_nonzero(new):
            self.hit[trials[new]] = k
            self.winner = min(self.winner, int(trials[new].min()))


@dataclass
class _Run:
    """What the lockstep loop leaves: each trial's step count and exit
    flags, and per step the trials that advanced with their new states."""

    x0: np.ndarray
    history: list  # (trial indices, (m, n) states) per step
    lengths: np.ndarray
    exited: np.ndarray
    truncated: np.ndarray

    def trajectory(self, i: int, step: float, policy: str, barrier=None) -> Trajectory:
        rows, pos, states = None, 0, [self.x0[i]]
        for trials, S in self.history[:self.lengths[i] - 1]:
            if trials is not rows:
                rows, pos = trials, int(np.flatnonzero(trials == i)[0])
            states.append(S[pos])
        states = np.array(states)
        return Trajectory(
            times=step * np.arange(states.shape[0]),
            states=states,
            values=None if barrier is None else barrier.value_rows(states),
            exited_box=bool(self.exited[i]),
            truncated=bool(self.truncated[i]),
            policy=policy,
        )


#: how far outside the image a verified velocity may lie
_FEASIBILITY_TOL = 1e-9

#: steps of standard normal draws that a trial of a ``normals`` policy
#: takes from its generator at a time
_BLOCK = 64


def _lockstep(system, X0, policies, rngs, *, nsteps: int, step: float, box=None,
              backward: bool = False, on_infeasible: str = "raise",
              watch: Optional[_Watch] = None) -> _Run:
    """Explicit Euler steps of every trial i from ``X0[i]``, with velocities
    from ``policies[i]`` drawing on ``rngs[i]``, all advanced together.

    A trial stops at ``nsteps``, after the step that leaves ``box`` (that
    state is kept), before a step whose verified velocity lies outside the
    image (with ``on_infeasible="truncate"``), or when ``watch`` retires it.
    A trial of a ``normals`` policy draws ``standard_normal((b, n))`` with
    b = min(64, steps left) every 64 steps, the same numbers as one
    ``standard_normal(n)`` per step; a trial that stops early may so leave
    up to 63 draws unused.
    """
    X0 = np.asarray(X0, dtype=float)
    N, n = X0.shape
    slots = {}
    group = np.array([slots.setdefault(id(p), len(slots)) for p in policies])
    order = list({id(p): p for p in policies}.values())
    streams = np.empty(N, dtype=object)  # indexable by arrays of trials
    streams[:] = rngs
    # row of each normals-policy trial in the block of draws
    blocked = np.array([p.normals is not None for p in policies], dtype=bool)
    block_row = np.cumsum(blocked) - 1
    normals = np.empty((int(np.count_nonzero(blocked)), min(_BLOCK, nsteps), n))
    if box is not None:
        lo, hi = box[:, 0].copy(), box[:, 1].copy()
    lengths = np.full(N, nsteps + 1)
    exited = np.zeros(N, dtype=bool)
    truncated = np.zeros(N, dtype=bool)
    history = []
    # the running trials, kept sorted by policy so that each policy's rows
    # form one slice, and their states
    live = np.argsort(group, kind="stable")
    S = X0[live]
    # per policy: (policy, slice of rows, what it draws on: the rows of its
    # trials in the block for a normals policy, else their generators)
    parts = None
    cut = N  # the winner whose higher-index trials have retired (N: none)
    if watch is not None:
        watch.observe(0, live, S)
    for k in range(1, nsteps + 1):
        if watch is not None and watch.winner < cut:
            cut = watch.winner
            keep = live <= cut
            if not keep.all():
                lengths[live[~keep]] = k
                live, S, parts = live[keep], S[keep], None
        if not live.size:
            break
        if parts is None:
            ends = np.cumsum(np.bincount(group[live], minlength=len(order))).tolist()
            parts = [(p, slice(a, b), block_row[live[a:b]] if p.normals is not None
                      else None if p.rows is not None else streams[live[a:b]])
                     for p, a, b in zip(order, [0] + ends, ends) if b > a]
            steered = all(p.directions is not None for p, _, _ in parts)
        j = (k - 1) % _BLOCK
        if j == 0:
            size = min(_BLOCK, nsteps - k + 1)
            for p, sel, source in parts:
                if p.normals is not None:
                    normals[source, :size] = [rng.standard_normal((size, n)) for rng in streams[live[sel]]]
        points, counts, radii = system.images(S)
        if backward:
            points, radii = points * -1.0, radii * 1.0  # ConvexCompactSet.scale(-1.0)
        if steered:
            D = np.empty(S.shape)
        else:
            V = np.empty(S.shape)
        feasible = None
        for policy, sel, source in parts:
            if policy.directions is not None:
                d = policy.normals(normals[source, j]) if policy.normals is not None \
                    else policy.directions(S[sel], source)
                if steered:
                    D[sel] = d
                else:
                    V[sel] = extreme_rows(points[sel], radii[sel], d)
                continue
            if policy.rows is not None:
                V[sel] = policy.rows(S[sel])
            else:
                for i in range(sel.start, sel.stop):
                    image = row_set((points, counts, radii), i)
                    V[i] = np.asarray(policy(S[i].copy(), image, source[i - sel.start]), dtype=float).reshape(-1)
            if policy.verify:
                ok = contains_rows(points[sel], counts[sel], radii[sel], V[sel], _FEASIBILITY_TOL)
                if np.count_nonzero(ok) < ok.size:
                    if feasible is None:
                        feasible = np.ones(live.size, dtype=bool)
                    feasible[sel] = ok
        if steered:
            V = extreme_rows(points, radii, D)
        if feasible is not None:
            if on_infeasible == "raise":
                i = int(np.argmin(feasible))
                raise InfeasibleSelectionError(
                    f"policy {policies[live[i]].name!r} chose velocity {V[i]} outside the image at x={S[i]}"
                )
            truncated[live[~feasible]] = True
            lengths[live[~feasible]] = k
            live, S, V, parts = live[feasible], S[feasible], V[feasible], None
        S = S + step * V
        history.append((live, S))
        if watch is not None:
            watch.observe(k, live, S)
        if box is not None:
            out = (S < lo) | (S > hi)
            if np.count_nonzero(out):
                out = out.any(axis=1)
                exited[live[out]] = True
                lengths[live[out]] = k + 1
                live, S, parts = live[~out], S[~out], None
    return _Run(X0, history, lengths, exited, truncated)


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
) -> Trajectory:
    """Explicit Euler sampling of one solution.

    ``backward`` integrates the time-reversed inclusion (image negated).
    ``on_infeasible`` is "raise" or "truncate" and only matters for policies
    with ``verify`` set.  Leaving ``box`` stops the run with the offending
    state recorded and ``exited_box`` set.  A policy with ``normals`` (such
    as :func:`random_extreme`) draws from ``rng`` in blocks of up to 64
    steps: a run that reaches ``horizon`` leaves ``rng`` as one draw per
    step would, but one that stops early may have drawn up to 63 more
    normals from it.
    """
    if step <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and step must be positive")
    if on_infeasible not in ("raise", "truncate"):
        raise ValueError("on_infeasible must be 'raise' or 'truncate'")
    if rng is None:
        rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).reshape(1, -1)
    run = _lockstep(
        system, x, [policy], [rng],
        nsteps=int(round(horizon / step)), step=step,
        box=None if box is None else np.asarray(box, dtype=float), backward=backward,
        on_infeasible=on_infeasible,
    )
    return run.trajectory(0, step, policy.name, barrier)


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
    P, _, R = system.images(points)
    if P.shape[2] == 1:
        vals = np.abs(np.concatenate(interval_rows(P, R)))
    else:
        vals = np.linalg.norm(P, axis=2).max(axis=1) + R
    return float(np.fmax.reduce(vals, initial=0.0))


def falsify(
    scenario,
    eps: Optional[float] = None,
    budget: Optional[FalsifyBudget] = None,
    *,
    hints: Sequence[Hint] = (),
    mode: str = "strong",
    density: int = 9,
) -> FalsificationResult:
    """Search for a sampled solution that enters the unsafe region.

    With ``eps`` given (0 < eps < inf, else ValueError), the scenario's
    base dynamics are wrapped in a perturbation of that size (``mode``
    picks none, plain image inflation or the strong form; with ``"none"``
    the base map is integrated as it is), which keeps the sensing margin of
    the scenario's own perturbation, if it sets one.  With ``eps`` omitted,
    the scenario's own dynamics are integrated as-is (including any
    perturbation they already carry).  Unless the budget sets it, the
    Euler step is min(1e-3, eps / 50) for the constant margin eps of the
    perturbation integrated, else 1e-3.

    Trials are (start, policy) pairs: hints come first, in order, each with
    its own policy if it pins one; the remaining starts are drawn from the
    initial set (or from the zero sublevel set when the initial set has no
    grid samples), biased toward small |B|, and run b-ascent, then
    random-extreme.  A start outside the domain box is not integrated but
    still counts as tried.  All trials run in one lockstep loop, each
    drawing from its own child of ``SeedSequence(budget.seed)``.  A trial
    hits when its unsafe excursion depth reaches the exit threshold, ten
    Euler steps of the observed velocity bound (which filters grazing
    chatter) capped at the deepest unsafe node of the domain grid.  The
    lowest-index hitter is the result, with ``tried`` counting the trials up
    to it, exactly as if the trials ran one by one and the search stopped at
    the first hit; with no hit, the deepest trial is reported.  Everything
    is seeded, so results are reproducible, and a trial's outcome does not
    depend on the trials that run beside it.
    """
    if budget is None:
        budget = FalsifyBudget()
    if eps is None:
        system = scenario.dynamics
    else:
        if not 0.0 < eps < math.inf:
            raise ValueError("perturbation size eps must be positive and finite")
        dynamics = scenario.dynamics
        sense = dynamics.sense_margin if isinstance(dynamics, PerturbedSystem) else None
        system = PerturbedSystem(unperturbed(dynamics), margin=float(eps), mode=mode,
                                 density=density, sense_margin=sense)

    step = budget.step
    if step is None:
        # a constant margin sets the step, whether eps or the config gave it
        margin = system.margin if isinstance(system, PerturbedSystem) else 0.0
        step = 1e-3 if callable(margin) or not margin > 0.0 else min(1e-3, margin / 50.0)

    rng = np.random.default_rng(budget.seed)
    bar = scenario.barrier
    unsafe = expressions.rows_of(scenario.unsafe, bool)
    depth_fn = bar.value_rows if scenario.depth is None else expressions.rows_of(scenario.depth)

    grid = scenario.grid()
    probe_idx = np.linspace(0, grid.shape[0] - 1, min(64, grid.shape[0])).astype(int)
    vbound = _velocity_bound(system, grid[probe_idx])
    threshold = 10.0 * step * max(vbound, 1e-12)
    # a threshold deeper than the box has room for could only be met by
    # leaving the box, so cap it at the deepest unsafe grid node
    depths = depth_fn(grid[unsafe(grid)])
    room = float(max(depths.tolist(), default=0.0))
    if room > 0.0:
        threshold = min(threshold, room)

    pool = scenario.initial_samples()
    if pool.shape[0] == 0:
        pool = grid[bar.value_rows(grid) <= scenario.tolerances.tol]
    if pool.shape[0] == 0:
        raise ValueError("no admissible start points inside the domain box")
    weights = 1.0 / (0.1 + np.abs(bar.value_rows(pool)))
    weights = weights / weights.sum()

    policies = [b_ascent(bar), random_extreme()]

    starts: list[tuple[np.ndarray, Optional[SelectionPolicy], str]] = []
    for hint in hints:
        starts.append((np.asarray(hint.x0, dtype=float).reshape(-1), hint.policy, hint.label or "hint"))
    n_random = max(0, budget.starts - len(starts))
    if n_random and pool.shape[0]:
        picks = rng.choice(pool.shape[0], size=n_random, p=weights)
        for i in picks:
            starts.append((pool[i].copy(), None, "sampled"))
    trials = [(x0, pol, label) for x0, pinned, label in starts
              for pol in ([pinned] if pinned is not None else policies)]

    box = scenario.box
    in_box = [not (np.any(x0 < box[:, 0]) or np.any(x0 > box[:, 1])) for x0, _, _ in trials]
    inside = [i for i, ok in enumerate(in_box) if ok]
    streams = np.random.SeedSequence(budget.seed).spawn(len(trials))
    watch = _Watch(unsafe, depth_fn, threshold, len(inside))
    run = _lockstep(
        system, np.array([trials[i][0] for i in inside]).reshape(len(inside), -1),
        [trials[i][1] for i in inside], [np.random.default_rng(streams[i]) for i in inside],
        nsteps=int(round(budget.horizon / step)), step=step, box=box,
        on_infeasible="truncate", watch=watch,
    ) if inside else None

    def outcome(j: int, found: bool, tried: int) -> FalsificationResult:
        x0, pol, label = trials[inside[j]]
        return FalsificationResult(
            found=found, eps=eps, depth=float(watch.depth[j]), threshold=threshold,
            hit_time=float(step * watch.hit[j]) if found else None, start=x0,
            policy=pol.name, trajectory=run.trajectory(j, step, pol.name, bar),
            tried=tried, notes=label,
        )

    if watch.winner < len(inside):
        return outcome(watch.winner, True, inside[watch.winner] + 1)
    if inside and watch.depth.max() > -math.inf:
        best = outcome(int(np.argmax(watch.depth)), False, len(trials))
    else:
        best = FalsificationResult(
            found=False, eps=eps, depth=-math.inf, threshold=threshold,
            tried=len(trials), notes="no unsafe excursion beyond threshold",
        )
    if not all(in_box):
        skipped = ", ".join(f"{label!r} at {x0.tolist()}" for (x0, _, label), ok in zip(trials, in_box) if not ok)
        best.notes += f"; not integrated, start outside the domain box: {skipped}"
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
        P, _, R = system.images(xs[:, None])
        low, high = interval_rows(P, R)
        lo = min([lo, *(xs + step * low).tolist()])
        hi = max([hi, *(xs + step * high).tolist()])
        out.append((lo, hi))
    return np.array(out)
