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
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .convexset import (
    contains_rows, extreme_rows, interval_rows, norm_bounds, row_norms, row_set, scale_rows, take_rows,
)
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
    integrator then draws each trial's normals in blocks.  A policy whose
    velocity is the same at every state gives it as ``velocity``, a
    read-only (n,) array: :func:`constant_policy` and
    :func:`expression_policy` with components that read no state set it;
    other policies leave it None.  The integrator advances the live trials
    in blocks of steps whenever each of their policies has ``directions``,
    ``rows`` or ``velocity``, and in blocks of one step otherwise, which
    call a policy only at the states its trial reaches.  A longer block may
    call ``rows`` and ``directions`` at states past a trial's stop, so
    ``rows`` must depend on the state alone and have no side effects, and
    ``directions`` on the states and the generators alone; it may draw from
    a trial's generator past its stop.
    """

    name: str
    select: Callable
    verify: bool = False
    directions: Optional[Callable] = None
    rows: Optional[Callable] = None
    normals: Optional[Callable] = None
    velocity: Optional[np.ndarray] = None

    def __call__(self, x, image, rng):
        return self.select(x, image, rng)


def _extreme_policy(name: str, directions: Callable, normals: Optional[Callable] = None) -> SelectionPolicy:
    def select(x, image, rng):
        return image.extreme_point(directions(np.asarray(x, dtype=float).reshape(1, -1), [rng])[0])

    return SelectionPolicy(name, select, directions=directions, normals=normals)


def b_ascent(barrier) -> SelectionPolicy:
    """Extreme point of the image in the barrier gradient direction.

    On the candidate's singular set, or where the gradient vanishes, the
    direction is a standard normal draw instead.  Where the gradient oracle
    raises, :meth:`BarrierCandidate.gradient_rows` raises its error for the
    first such row.  A gradient that reads no state, is at least 1e-12 long
    and has no singular set beside it gives the same direction rows on
    every step; they are made once per row count.
    """

    rows = None if barrier.gradient is None else expressions.rows_of(barrier.gradient)
    on_singular = None if barrier.singular is None else expressions.rows_of(barrier.singular, bool)
    constant = getattr(barrier.gradient, "constant", None) if on_singular is None else None
    if constant is not None and not row_norms(constant[None])[0] >= 1e-12:
        constant = None
    fixed = {}  # the direction rows of a constant gradient, by row count

    def gradient(X):
        try:
            return rows(X)
        except (ArithmeticError, ValueError, TypeError):
            barrier.gradient_rows(X)  # raises GradientOracleError at the first row that does
            raise

    def directions(X, rngs):
        m, n = X.shape
        if constant is not None and constant.size == n:
            G = fixed.get(m)
            if G is None:
                G = fixed[m] = constant[None].repeat(m, axis=0)
                G.setflags(write=False)
            return G
        if rows is None:
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
    vv = np.array(v, dtype=float).reshape(-1)
    vv.setflags(write=False)

    def select(x, image, rng):
        return vv

    def rows(X):
        return vv[None].repeat(X.shape[0], axis=0)

    return SelectionPolicy(f"constant({', '.join(f'{c:g}' for c in vv)})", select, verify=True, rows=rows,
                           velocity=vv)


def expression_policy(components: Sequence[str], dimension: int, name: str = "expression") -> SelectionPolicy:
    """State-dependent velocity from expression strings; checked each step.
    Components that read no state give a constant ``velocity``."""
    fn = expressions.vector_fn(list(components), dimension)

    def select(x, image, rng):
        return fn(x)

    return SelectionPolicy(name, select, verify=True, rows=fn.rows, velocity=fn.constant)


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

    def crosses(self, S: np.ndarray) -> bool:
        """Whether some state of the (m, n) array S is unsafe at least
        ``threshold`` deep."""
        unsafe = self.unsafe(S)
        return bool(np.count_nonzero(unsafe)) and bool((self.depth_fn(S[unsafe]) >= self.threshold).any())

    def scan(self, T: np.ndarray, ends: np.ndarray) -> tuple:
        """The unsafe states of a block of steps: the states ``T[i, c]``
        with i < ``ends[c]`` of a (b, m, n) block, as ``(steps, columns,
        depths)`` arrays in step order."""
        b, m, n = T.shape
        flat, rows = T.reshape(b * m, n), None
        if ends.min() < b:
            rows = (np.arange(b)[:, None] < ends).ravel().nonzero()[0]
            if not rows.size:
                return rows, rows, rows
            flat = flat[rows]
        unsafe = np.flatnonzero(self.unsafe(flat))
        if not unsafe.size:
            return unsafe, unsafe, unsafe
        d = self.depth_fn(flat[unsafe])
        steps, columns = np.divmod(unsafe if rows is None else rows[unsafe], m)
        return steps, columns, d

    def observe_block(self, k: int, trials: np.ndarray, seen: tuple, ends: np.ndarray) -> np.ndarray:
        """Record a block of steps from its :meth:`scan` ``seen``: trial
        ``trials[c]`` reached its block state i at step k + i for every i <
        ``ends[c]``.  The result is that of recording one step at a time
        with the loop's retirement between steps: a trial's first hit at
        step k + i retires every trial of higher index still running after
        that step, so its end shortens to i + 1 (a trial whose own stop
        falls on that step keeps it).  Depths fold in step order with the
        same strict ``>``, so the first of equal values stays and a NaN is
        never stored.  Returns the ends after retirement.  The loop records
        the starts as a block of one step, then every block it makes."""
        steps, columns, d = seen
        if not steps.size:
            return ends
        fresh = self.hit[trials] < 0  # per column: no hit before the block
        if fresh.any():
            crossed = ((d >= self.threshold) & fresh[columns]).nonzero()[0]
            if crossed.size:
                first = {}  # each crossing trial's first crossing, by column
                for i, c in zip(steps[crossed].tolist(), columns[crossed].tolist()):
                    first.setdefault(c, i)
                ends = ends.copy()
                # a hitter may only be retired by hitters of lower index
                for c in sorted(first, key=trials.__getitem__):
                    i, trial = first[c], int(trials[c])
                    if i < ends[c]:
                        self.hit[trial] = k + i
                        self.winner = min(self.winner, trial)
                        ends[(trials > trial) & (ends > i + 1)] = i + 1
                kept = steps < ends[columns]
                steps, columns, d = steps[kept], columns[kept], d[kept]
        # a value not above the trial's depth so far never moves the fold,
        # which ends at the first of the trial's deepest values
        deeper = d > self.depth[trials][columns]
        if deeper.any():
            columns, d = columns[deeper], d[deeper]
            for c in set(columns.tolist()):
                v = d[columns == c]
                self.depth[trials[c]] = v[v.argmax()]
        return ends


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
#: takes from its generator at a time, and most steps of a block
_BLOCK = 64


def _lockstep(system, X0, policies, rngs, *, nsteps: int, step: float, box=None,
              backward: bool = False, on_infeasible: str = "raise",
              watch: Optional[_Watch] = None) -> _Run:
    """Explicit Euler steps of every trial i from ``X0[i]``, with velocities
    from ``policies[i]`` drawing on ``rngs[i]``, all advanced together.
    Images come from ``system.images`` calls on the states, negated when
    ``backward`` is set; what those images resolve once per map, not per
    step, is in :mod:`svmap`.

    A trial stops at ``nsteps``, after the step that leaves ``box`` (that
    state is kept), before a step whose verified velocity lies outside the
    image (with ``on_infeasible="truncate"``), or when ``watch`` retires it.
    A trial of a ``normals`` policy draws ``standard_normal((b, n))`` with
    b = min(64, steps left) every 64 steps, the same numbers as one
    ``standard_normal(n)`` per step.

    Every pass of the loop makes one block of steps of the live trials
    (:func:`_block`), then takes per trial the steps that one step at a
    time takes: its first box exit or infeasible velocity, and the
    retirement that a hit of a lower-index trial inside the block brings
    (:meth:`_Watch.observe_block`; a hit on the step before an infeasible
    velocity retires the trial, as the loop checks retirement first), so a
    trial that stops drops only its own tail and the others keep the states
    they made.  When every live trial's policy has ``directions`` (extreme
    point), ``rows`` (state feedback) or a fixed ``velocity``, the block is
    a guarded one, to the end of the current 64-step window of normals or
    less; otherwise (a custom policy, whose ``select`` may have side
    effects) it is a block of one step.  History entries, watch values,
    stops and lengths are those of blocks of one step, bit for bit, and a
    trial that goes on has drawn from its generator exactly what they draw;
    a trial that stops early may have drawn past its stop (up to 63
    normals, and any draw its policy makes at the block's states past the
    stop).  A guarded block may compute states, directions, velocities and
    images that one step at a time never reaches (past a trial's stop), so
    it runs, with the watch's look at its states, under
    ``np.errstate(all="raise")``: if anything in it raises or meets a float
    event, the generators are put back as they were before the block and
    the loop takes blocks of one step, outside the guard, to the end of the
    current 64-step window, then tries guarded blocks again.  So an error
    or warning surfaces where one step at a time raises it, a state past a
    stop never raises or warns, and a failure past a trial's stop costs
    guarded blocks for one window only.
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
    images = system.images
    if backward:
        def images(S, forward=system.images):
            return scale_rows(forward(S), -1.0)
    if watch is not None:
        one = np.ones(N, dtype=int)  # the starts, recorded as a block of one step
        watch.observe_block(0, live, watch.scan(S[None], one), one)
    bounds = None if box is None else (box[:, 0].copy(), box[:, 1].copy())
    retry = 1  # the first step that may start a block
    k = 1
    while k <= nsteps:
        if watch is not None and watch.winner < cut:
            cut = watch.winner
            keep = live <= cut
            if not keep.all():
                lengths[live[~keep]] = k
                live, S, parts = live[keep], S[keep], None
        if not live.size:
            break
        if parts is None:
            edges = np.cumsum(np.bincount(group[live], minlength=len(order))).tolist()
            parts = [(p, slice(a, b), block_row[live[a:b]] if p.normals is not None
                      else None if p.rows is not None else streams[live[a:b]])
                     for p, a, b in zip(order, [0] + edges, edges) if b > a]
            blocks = all(p.directions is not None or p.rows is not None
                         or p.velocity is not None and p.velocity.shape == (n,) for p, _, _ in parts)
            # the trials whose first hit would retire another
            fresh = None if watch is None else (watch.hit[live] < 0) & (live < live.max())
            hunt = None if fresh is None or not fresh.any() else \
                lambda made, fresh=fresh: watch.crosses(made[:, fresh].reshape(-1, n))
        j = (k - 1) % _BLOCK
        if j == 0:
            size = min(_BLOCK, nsteps - k + 1)
            for p, sel, source in parts:
                if p.normals is not None:
                    normals[source, :size] = [rng.standard_normal((size, n)) for rng in streams[live[sel]]]
        guarded = k >= retry and blocks
        if guarded:
            # the generators that directions may draw on inside the block
            saved = [(rng, rng.bit_generator.state) for p, _, source in parts
                     if p.directions is not None and p.normals is None for rng in source]
            try:
                with np.errstate(all="raise"):
                    T, ends, left, bad, V = _block(images, S, parts, normals[:, j:], min(_BLOCK - j, nsteps - k + 1),
                                                   step, bounds, hunt)
                    seen = None if watch is None else watch.scan(T[1:], ends)
            except Exception:  # noqa: BLE001 - a block of one step raises it, or not, where it should
                for rng, state in saved:
                    rng.bit_generator.state = state
                retry = k - j + _BLOCK  # the next window
                guarded = False
        if not guarded:  # a custom policy, or the window after a failed block
            T, ends, left, bad, V = _block(images, S, parts, normals[:, j:], 1, step, bounds)
            seen = None if watch is None else watch.scan(T[1:], ends)
        b = T.shape[0] - 1
        # a trial retires before its velocity is checked, so a hit on the
        # step before an infeasible velocity retires it
        reach = ends + bad
        kept = reach if seen is None else watch.observe_block(k, live, seen, reach)
        stop = (kept < b) | left | bad
        if not stop.any():
            # one (m, n) view of the block per step
            history.extend(zip(repeat(live, b), T[1:]))
            k, S = k + b, T[b]
            continue
        retired = kept < reach
        kept = np.minimum(kept, ends)
        left &= ~retired
        bad &= ~retired
        if on_infeasible == "raise" and bad.any():
            c = int(np.flatnonzero(bad)[np.argmin(ends[bad])])  # the first to meet one
            raise _infeasible(policies[live[c]], V[ends[c], c], T[ends[c], c])
        # per step, the states of the trials still running then
        start = 0
        for end in sorted(set(kept.tolist())):
            if end > start:
                on = kept >= end
                history.extend(zip(repeat(live[on], end - start), T[start + 1:end + 1, on]))
                start = end
        lengths[live[stop]] = k + kept[stop]
        exited[live[left]] = True
        truncated[live[bad]] = True
        live, S, parts = live[~stop], T[b, ~stop], None
        k += b
    return _Run(X0, history, lengths, exited, truncated)


def _infeasible(policy, v, x) -> InfeasibleSelectionError:
    return InfeasibleSelectionError(
        f"policy {policy.name!r} chose velocity {v.tolist()} outside the image at x={x.tolist()}"
    )


def _exits(T, bounds):
    """Per column of the (b + 1, m, n) block T: the steps to its first
    state ``T[i]`` (i >= 1) outside ``bounds`` (lo, hi), that state
    included, else b; and whether it left."""
    b, m = T.shape[0] - 1, T.shape[1]
    if bounds is None:
        return np.array([b] * m), np.zeros(m, dtype=bool)
    out = np.logical_or.reduce((T[1:] < bounds[0]) | (T[1:] > bounds[1]), axis=2)
    left = np.logical_or.reduce(out)
    return np.where(left, out.argmax(axis=0) + 1, b), left


def _block(images, S, parts, normals, size, step, bounds, hunt=None):
    """Up to ``size`` Euler steps of every live trial from its state in the
    (m, n) array ``S``.  Per step: one ``images`` and one ``extreme_rows``
    call on the rows of the extreme-point policies, whose directions come
    from the window ``normals`` (one ``normals`` call per block) or from
    ``directions`` at the states; one ``rows`` call per state-feedback
    policy; ``+ step * v`` for a fixed velocity v; and for a custom
    policy, with none of these, one ``images`` call on its rows, a call of
    the policy per row, on a copy of the state, the row's image and the
    trial's generator, and with ``verify`` one :func:`contains_rows` call
    on the velocities and those images.  When every velocity is fixed, the
    states fold in one ``np.add.accumulate`` (the left fold of repeated
    ``+ step * v``).  No trial stops inside, but a block that holds a
    trial without ``directions`` looks at its last 8 states after every
    8th step and ends there when every trial has left ``bounds`` (lo, hi)
    among them, or ``hunt`` finds among them a hit that retires a trial.
    Then one ``images`` call takes the images of the states that the steps
    of the state-feedback and fixed-velocity trials start from, up to each
    one's first box exit, so a missing piece raises there, and one
    :func:`contains_rows` call checks the velocities of those policies
    with ``verify`` against them.

    Returns ``(T, ends, left, bad, V)``: the (b + 1, m, n) block T holds S
    then the states of each step, of which trial c takes the first
    ``ends[c]``; ``left[c]`` is set when the last one taken leaves
    ``bounds``, and ``bad[c]`` when ``V[ends[c], c]`` lies outside the
    image at ``T[ends[c], c]``.  V holds the (b, m, n) velocities, or is
    None when every trial steers."""
    m, n = S.shape
    T = np.empty((size + 1, m, n))
    T[0] = S
    steering, feedback, unchecked, at = [], [], [], 0
    V = None  # the velocities, when some trial does not steer
    custom, outside = [], None  # the rows of the custom policies; their velocities outside their images
    for p, sel, source in parts:
        if p.directions is not None:
            W = None if p.normals is None else \
                p.normals(normals[source, :size].swapaxes(0, 1).reshape(-1, n)).reshape(size, -1, n)
            steering.append((slice(at, at + sel.stop - sel.start), W, p.directions, source))
            at += sel.stop - sel.start
            continue
        if V is None:
            V = np.empty((size, m, n))
        if not p.verify:
            unchecked.append(sel)
        if p.velocity is not None and p.velocity.shape == (n,):
            V[:, sel] = p.velocity
            continue
        if p.rows is None:
            custom.append(sel)
            outside = np.zeros((size, m), dtype=bool) if outside is None and p.verify else outside
        feedback.append((T[:, sel], V[:, sel], outside[:, sel] if p.rows is None and p.verify else None, p, source))
    steer = None  # the rows of the steering trials, when not all rows
    if steering and V is not None:
        steer = np.concatenate([np.arange(sel.start, sel.stop) for p, sel, _ in parts if p.directions is not None])
        if steer[-1] - steer[0] + 1 == steer.size:
            steer = slice(steer[0], steer[-1] + 1)
    if V is not None and not (steering or feedback):
        T[1:] = step * V
        T = np.add.accumulate(T)
    else:
        D = np.empty((at, n))
        for i in range(size):
            X = T[i]
            if steering:
                Y = X if steer is None else X[steer]
                stack = images(Y)
                for pos, W, directions, source in steering:
                    D[pos] = W[i] if W is not None else directions(Y[pos], source)
                if V is None:
                    T[i + 1] = X + step * extreme_rows(stack, D)
                    continue
                V[i, steer] = extreme_rows(stack, D)
            for Xs, Vs, Os, p, source in feedback:
                if p.rows is not None:
                    Vs[i] = p.rows(Xs[i])
                    continue
                stack = images(Xs[i])
                for r, rng in enumerate(source):
                    Vs[i, r] = np.asarray(p(Xs[i, r].copy(), row_set(stack, r), rng), dtype=float).reshape(-1)
                if Os is not None:
                    Os[i] = ~contains_rows(stack, Vs[i], _FEASIBILITY_TOL)
            T[i + 1] = X + step * V[i]
            if i % 8 == 7:
                made = T[i - 6:i + 2]
                gone = bounds is not None and np.logical_and.reduce(  # every trial has left the box
                    np.logical_or.reduce((made < bounds[0]) | (made > bounds[1]), axis=(0, 2)))
                if gone or hunt is not None and hunt(made):
                    T, V = T[:i + 2], V[:i + 1]
                    break
    ends, left = _exits(T, bounds)
    bad = np.zeros(m, dtype=bool)
    if V is None:
        return T, ends, left, bad, V
    taken = np.arange(T.shape[0] - 1)[:, None] < ends  # the steps each trial takes
    wrong = None if outside is None else outside[:T.shape[0] - 1] & taken  # velocities outside their images
    if steering:
        taken[:, steer] = False
    for sel in custom:
        taken[:, sel] = False
    if not custom or np.count_nonzero(taken):
        stack = images(T[:-1][taken])
        checked = taken
        if unchecked:
            checked = taken.copy()
            for sel in unchecked:
                checked[:, sel] = False
            stack = take_rows(stack, checked[taken])
        ok = contains_rows(stack, V[checked], _FEASIBILITY_TOL)
        if np.count_nonzero(ok) < ok.size:
            wrong = np.zeros(taken.shape, dtype=bool) if wrong is None else wrong
            wrong[checked] = ~ok
    if wrong is not None:
        steps, cols = np.nonzero(wrong)
        np.minimum.at(ends, cols, steps)  # each trial's first
        bad[cols], left[cols] = True, False
    return T, ends, left, bad, V


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
    state recorded and ``exited_box`` set.  The trial advances in blocks
    of up to 64 steps where its policy allows (see :func:`_lockstep`), and
    a policy with ``normals`` (such as :func:`random_extreme`) draws from
    ``rng`` in blocks of up to 64 steps: a run that reaches ``horizon``
    leaves ``rng`` as one step at a time would, but one that stops early may
    have drawn past its stop: up to 63 more normals, or the draws that
    :func:`b_ascent` makes where the gradient vanishes at the states of its
    block past the stop.
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
    return float(np.fmax.reduce(norm_bounds(system.images(points)), initial=0.0))


def _trials(scenario, budget: FalsifyBudget, hints: Sequence[Hint], grid: np.ndarray) -> list:
    """The (start, policy, label) trials of a falsification, in order: the
    hints, each with its own policy if it pins one, then the starts that
    ``budget.starts`` leaves beside them, drawn from the initial set (or
    from the zero sublevel set of the ``grid`` nodes when the initial set
    has no grid samples) biased toward small |B|, each run with b-ascent,
    then with random-extreme."""
    bar = scenario.barrier
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
        picks = np.random.default_rng(budget.seed).choice(pool.shape[0], size=n_random, p=weights)
        for i in picks:
            starts.append((pool[i].copy(), None, "sampled"))
    return [(x0, pol, label) for x0, pinned, label in starts
            for pol in ([pinned] if pinned is not None else policies)]


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

    trials = _trials(scenario, budget, hints, grid)
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
    """Sampled reach tube of a one-dimensional inclusion.

    Each step maps ``samples`` (65 by default) evenly spaced points x of
    the current interval, endpoints included, through ``x + h * [min F(x),
    max F(x)]`` and unions the results with the current interval (the tube
    is nondecreasing).  It is a sampled tube, not an enclosure: an image
    that reaches farther between two samples is missed.  Returns an array
    of shape (steps + 1, 2) of interval bounds per time.
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
        low, high = interval_rows(system.images(xs[:, None]))
        lo = min([lo, *(xs + step * low).tolist()])
        hi = max([hi, *(xs + step * high).tolist()])
        out.append((lo, hi))
    return np.array(out)
