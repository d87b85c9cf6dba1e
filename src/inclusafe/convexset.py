"""Geometry kernel: convex compact sets as hulls of unions of balls.

A set is ``co ∪ₖ (pₖ + rₖ B)``, B the closed Euclidean unit ball: points
with a radius each, stored as the largest radius R and, only when the radii
differ, each point's shortfall sₖ = R − rₖ.  Its support
maxₖ (pₖ·d − sₖ‖d‖) + R‖d‖ is exact, since the support of the hull of a
union is the max of the supports (Rockafellar, *Convex Analysis*, §13).
Minkowski sums add radii pairwise and hulls of unions concatenate points,
each keeping its radius, so both are exact; inflating adds to R alone.
Hausdorff distance and membership are exact in one dimension and
direction-sampled in higher dimensions.

Many sets travel as one padded stack ``(points, counts, radii)`` of shapes
(m, K, n), (m,) and (m,), and a fourth field, the (m, K) shortfalls, only
when some row mixes radii: row i is ``points[i, :counts[i]]`` with largest
radius ``radii[i]``, and the rest of the row repeats points of that row,
with their shortfalls.  A stack without shortfalls runs the arithmetic of
one radius per row.  This module is the only one that builds and reads
that layout: :func:`stack_of` builds a stack from parts, padding each row
with its last point and shortfall, and :func:`merge_runs` merges runs of
its rows; the others take rows (:func:`take_rows`), inflate
(:func:`inflate_rows`) and scale (:func:`scale_rows`) stacks through it.
Its row kernels equal, bit for bit, the per-set methods that the tests
keep as their oracles: :func:`row_set` builds a row's set, and
:func:`support_rows` is
``support_many``, :func:`support_pairs` ``support``, :func:`extreme_rows`
``extreme_point``, :func:`interval_rows` ``interval_bounds``,
:func:`contains_rows` :func:`contains`, :func:`hausdorff_rows`
:func:`hausdorff`, and :func:`row_norms` ``np.linalg.norm`` of each vector.
Support values are point-major in both forms: a set's product is ``points
@ D.T``, less the shortfalls times the norms, and its support is the max
over its rows, a tied zero as +0.0.  A stack takes one product per point
count with the point index outermost: one gemm per point over all the rows
of that count, reduced over that outer axis.  It is exact: each value is a
dot product over K = n that gemm rounds alike for any number of rows M,
which changes only its blocking, so every value is the per-set one.  A
group of one row, or of one point, keeps the per-row product, since numpy
takes a (1, n) left operand down a vector–matrix path that rounds apart
from gemm rows.  The support and distance kernels raise ValueError, as
building the sets would, if a row is not finite.

In n >= 2, :func:`contains_rows` first tries a nearest-point certificate on
each row: v passes at once if some point p of radius r has ‖v − p‖ <= r +
tol − δ, where δ covers the rounding of the certificate and of the sampled
check.  For every sampled direction d, d·v <= d·p + ‖d‖ ‖v − p‖, so a
certified row passes the sampled check too; only the rows it leaves go to
the 256-direction product.  The proof is in :func:`contains_rows`.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

import numpy as np

__all__ = [
    "ConvexCompactSet",
    "DimensionMismatchError",
    "unit_directions",
    "minkowski_sum",
    "hull_union",
    "hull_union_many",
    "hausdorff",
    "row_set",
    "stack_of",
    "merge_runs",
    "take_rows",
    "inflate_rows",
    "scale_rows",
    "row_norms",
    "support_rows",
    "support_pairs",
    "extreme_rows",
    "interval_rows",
    "norm_bounds",
    "contains_rows",
    "hausdorff_rows",
    "contains",
    "DEFAULT_DIRECTIONS",
]

#: default number of sampled support directions for n >= 2
DEFAULT_DIRECTIONS = 256


class DimensionMismatchError(ValueError):
    """Operands of a set operation live in different dimensions."""


@lru_cache(maxsize=64)
def _directions_cached(dimension: int, count: int) -> np.ndarray:
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if dimension == 1:
        dirs = np.array([[-1.0], [1.0]])
    elif dimension == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    elif dimension == 3:
        # Fibonacci sphere
        k = np.arange(count, dtype=float)
        z = 1.0 - 2.0 * (k + 0.5) / count
        phi = k * (np.pi * (3.0 - np.sqrt(5.0)))
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        dirs = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    else:
        # deterministic low-discrepancy fallback: fixed-seed Gaussian directions
        rng = np.random.default_rng(20240817)
        raw = rng.standard_normal((count, dimension))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        dirs = raw / norms
    dirs.setflags(write=False)
    return dirs


@lru_cache(maxsize=64)
def _unit_norms(dimension: int, count: int = DEFAULT_DIRECTIONS) -> np.ndarray:
    """``np.linalg.norm`` of each of the ``unit_directions(dimension, count)``."""
    norms = np.linalg.norm(unit_directions(dimension, count), axis=1)
    norms.setflags(write=False)
    return norms


def unit_directions(dimension: int, count: int = DEFAULT_DIRECTIONS) -> np.ndarray:
    """Deterministic unit direction samples.

    One dimension returns exactly {-1, +1}; two dimensions a uniform circle;
    three a Fibonacci sphere; higher dimensions a fixed-seed normalized
    Gaussian cloud.  The array is cached and read-only.
    """
    return _directions_cached(int(dimension), int(count))


class ConvexCompactSet:
    """Nonempty convex compact set ``co ∪ₖ (pointsₖ + rₖ * unit ball)``:
    ``radius`` is the largest rₖ, ``shortfalls`` each ``radius − rₖ`` or None."""

    __slots__ = ("points", "radius", "shortfalls")

    def __init__(self, points, radius: float = 0.0, shortfalls=None):
        pts = np.array(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError(f"points must be a nonempty (k, n) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        radius = float(radius)
        if not math.isfinite(radius) or radius < 0.0:
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        if shortfalls is not None:
            shortfalls = np.array(shortfalls, dtype=float).reshape(-1)
            if shortfalls.shape != pts.shape[:1] or not (np.isfinite(shortfalls) & (shortfalls >= 0.0)).all():
                raise ValueError("shortfalls must be finite and >= 0, one per point")
            shortfalls.setflags(write=False)
        pts.setflags(write=False)
        self.points = pts
        self.radius = radius
        self.shortfalls = shortfalls if shortfalls is not None and shortfalls.any() else None

    # ------------------------------------------------------------------ #
    @classmethod
    def singleton(cls, point) -> "ConvexCompactSet":
        return cls(np.asarray(point, dtype=float).reshape(1, -1), 0.0)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "ConvexCompactSet":
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return cls(np.array([[float(lo)], [float(hi)]]), 0.0)

    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def support(self, direction) -> float:
        """Exact support value ``max_k (<p_k, d> - s_k |d|) + radius * |d|``."""
        d = np.asarray(direction, dtype=float).reshape(-1)
        if d.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"direction has dimension {d.shape[0]}, set has {self.dimension}"
            )
        norm = np.linalg.norm(d)
        return float(self._terms(d, norm).max() + self.radius * norm)

    def support_many(self, directions: np.ndarray) -> np.ndarray:
        """Support values for each row of ``directions``."""
        D = np.asarray(directions, dtype=float)
        if D.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"directions have dimension {D.shape[1]}, set has {self.dimension}"
            )
        norms = np.linalg.norm(D, axis=1)
        vals = self._terms(D.T, norms).max(axis=0) + 0.0  # a tied zero as +0.0
        return vals + self.radius * norms if self.radius > 0.0 else vals

    def extreme_point(self, direction) -> np.ndarray:
        """A maximizer of ``<., d>`` over the set: a point plus its ball's offset."""
        d = np.asarray(direction, dtype=float).reshape(-1)
        norm = np.linalg.norm(d)
        dots = self.points @ d  # not _terms: custom policies call this once per row and step
        idx = int(np.argmax(dots if self.shortfalls is None else dots - self.shortfalls * norm))
        p = self.points[idx].copy()
        r = self.radius if self.shortfalls is None else self.radius - self.shortfalls[idx]
        if r > 0.0 and norm > 1e-300:
            p = p + r * d / norm
        return p

    def _terms(self, D, norms):
        """``points @ D`` less each point's shortfall times ``norms``."""
        dots = self.points @ D
        return dots if self.shortfalls is None else dots - np.multiply.outer(self.shortfalls, norms)

    def inflate(self, margin: float) -> "ConvexCompactSet":
        if margin == 0.0:
            return self
        return ConvexCompactSet(self.points, self.radius + float(margin), self.shortfalls)

    def scale(self, factor: float) -> "ConvexCompactSet":
        f = float(factor)
        return ConvexCompactSet(self.points * f, self.radius * abs(f), _shortfalls(self) * abs(f))

    def interval_bounds(self) -> tuple[float, float]:
        """(lo, hi) = ``min(p - r), max(p + r)``; exact, only in one dimension."""
        if self.dimension != 1:
            raise DimensionMismatchError("interval_bounds is only defined for 1-D sets")
        col, r = self.points[:, 0], self.radius - _shortfalls(self)
        return float((col - r).min()), float((col + r).max())

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ConvexCompactSet({self.points.shape[0]} pts, n={self.dimension}, r={self.radius:g})"


# ---------------------------------------------------------------------- #
def ConvexHull(points: np.ndarray):
    """``scipy.spatial.ConvexHull(points)``, with scipy imported on the first
    call rather than with this module."""
    # only the benchmark's tracer reads this name; no function of the package calls it
    from scipy.spatial import ConvexHull as qhull

    return qhull(points)


def _check_same_dimension(sets: Sequence[ConvexCompactSet]):
    dims = {s.dimension for s in sets}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed dimensions {sorted(dims)}")


def minkowski_sum(a: ConvexCompactSet, b: ConvexCompactSet) -> ConvexCompactSet:
    """Exact Minkowski sum: pairwise point sums, radii added."""
    _check_same_dimension((a, b))
    pts = (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, a.dimension)
    return ConvexCompactSet(pts, a.radius + b.radius, (_shortfalls(a)[:, None] + _shortfalls(b)).reshape(-1))


def _shortfalls(s: ConvexCompactSet) -> np.ndarray:
    """The shortfall of each point of s, zeros when it has none."""
    return np.zeros(len(s.points)) if s.shortfalls is None else s.shortfalls


def hull_union_many(sets: Sequence[ConvexCompactSet]) -> ConvexCompactSet:
    """Exact ``co(union of sets)``: the operands' points in order, each
    keeping its radius r = R_i − s (its operand's radius less its shortfall)
    as the shortfall ``R − r`` from R, the first largest R_i; none when
    every operand has radius R and no shortfalls."""
    sets = list(sets)
    if not sets:
        raise ValueError("hull_union_many needs at least one set")
    if len(sets) == 1:
        return sets[0]
    _check_same_dimension(sets)
    rmax = max(s.radius for s in sets)
    points = np.concatenate([s.points for s in sets])
    if all(s.radius == rmax and s.shortfalls is None for s in sets):
        return ConvexCompactSet(points, rmax)
    return ConvexCompactSet(points, rmax, np.concatenate([rmax - (s.radius - _shortfalls(s)) for s in sets]))


def hull_union(a: ConvexCompactSet, b: ConvexCompactSet) -> ConvexCompactSet:
    """Exact ``co(A u B)``; see :func:`hull_union_many`."""
    return hull_union_many([a, b])


def hausdorff(a: ConvexCompactSet, b: ConvexCompactSet, *, directions: int = DEFAULT_DIRECTIONS) -> float:
    """Hausdorff distance.

    Exact in one dimension (interval endpoint arithmetic); otherwise the max
    absolute support difference over sampled directions, which for convex
    compact operands underestimates by at most the direction sampling error.
    """
    _check_same_dimension((a, b))
    if a.dimension == 1:
        alo, ahi = a.interval_bounds()
        blo, bhi = b.interval_bounds()
        return max(abs(alo - blo), abs(ahi - bhi))
    dirs = unit_directions(a.dimension, directions)
    return float(np.abs(a.support_many(dirs) - b.support_many(dirs)).max())


def _check_rows(stack: tuple) -> None:
    """Raise as :class:`ConvexCompactSet` would for any row of a padded
    stack (the padding repeats points of its row, so reading it is safe)."""
    points, radii = stack[0], stack[2]
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    bad = ~(np.isfinite(radii) & (radii >= 0.0))
    if bad.any():
        raise ValueError(f"radius must be finite and >= 0, got {float(radii[bad][0])}")


def row_set(stack: tuple, i: int) -> ConvexCompactSet:
    """The set of row i of a padded stack."""
    points, counts, radii, shortfalls = stack if len(stack) == 4 else (*stack, None)
    c = counts[i]
    return ConvexCompactSet(points[i, :c], radii[i], None if shortfalls is None else shortfalls[i, :c])


def stack_of(parts: Sequence[tuple], m: int) -> tuple:
    """The padded stack of m rows made of parts ``(rows, points, counts,
    radii[, shortfalls])``, such as ``(rows, *stack)``: ``points[j]`` of
    shape (c, n), and ``shortfalls[j]`` when given and not None, go to row
    ``rows[j]``, repeating their last entry up to the widest part, and the
    counts and radii (one each, or one per row) beside them.  The stack
    carries shortfalls when some part does, zeros on the rows of the
    others."""
    parts = [part if len(part) == 5 else (*part, None) for part in parts]
    width = max(part[1].shape[1] for part in parts)
    points = np.empty((m, width, parts[0][1].shape[2]))
    counts = np.empty(m, dtype=int)
    radii = np.empty(m)
    short = None if all(part[4] is None for part in parts) else np.zeros((m, width))
    for rows, pts, c, r, s in parts:
        k = pts.shape[1]
        points[rows, :k] = pts
        counts[rows], radii[rows] = c, r
        if s is not None:
            short[rows, :k] = s
        if k < width:
            points[rows, k:] = pts[:, -1:]
            if s is not None:
                short[rows, k:] = s[:, -1:]
    return (points, counts, radii) if short is None else (points, counts, radii, short)


def merge_runs(stack: tuple, group: int) -> tuple:
    """The hulls of the runs of ``group`` consecutive rows of a padded stack,
    each as :func:`hull_union_many` of its rows' sets in order: their
    points in order, then the run's last point (and shortfall) again up to
    the largest run, and the first largest radius.  The hulls carry
    shortfalls when the stack does or some run's radii differ."""
    points, counts, radius, shortfalls = stack if len(stack) == 4 else (*stack, None)
    m, width, n = points.shape
    G = m // group
    radii = radius.reshape(G, group)
    # the first largest radius of each run, as Python's max takes it in
    # hull_union_many: numpy's max may return either zero of a tie of 0.0 and -0.0
    rmax = radii[np.arange(G), radii.argmax(axis=1)]
    sizes = counts.reshape(G, group).sum(axis=1)
    points = points.reshape(G, group * width, n)
    short = None
    if shortfalls is not None or (radii != rmax[:, None]).any():
        # each point's radius, and its shortfall from its run's largest
        own = radius[:, None] if shortfalls is None else radius[:, None] - shortfalls
        short = np.broadcast_to(rmax.repeat(group)[:, None] - own, (m, width)).reshape(G, group * width)
    if np.count_nonzero(counts != width):
        # each run's points in order, then its last point (and shortfall)
        # again up to the widest run: the rows' points in order are the
        # runs' points in order, run g's from the sum of the sizes before it
        filled = (np.arange(width) < counts[:, None]).reshape(-1)
        at = (sizes.cumsum() - sizes)[:, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
        points = points.reshape(-1, n)[filled][at]
        if short is not None:
            short = short.reshape(-1)[filled][at]
    return (points, sizes, rmax) if short is None else (points, sizes, rmax, short)


def take_rows(stack: tuple, rows) -> tuple:
    """The stack of the given rows (an index array, mask or slice)."""
    return tuple(map(itemgetter(rows), stack))


def inflate_rows(stack: tuple, margins) -> tuple:
    """:meth:`ConvexCompactSet.inflate` of row i by ``margins[i]`` (or of all by one)."""
    return (stack[0], stack[1], stack[2] + margins, *stack[3:])


def scale_rows(stack: tuple, factor: float) -> tuple:
    """:meth:`ConvexCompactSet.scale` of every row."""
    f = float(factor)
    scaled = (stack[0] * f, stack[1], stack[2] * abs(f))
    return scaled if len(stack) == 3 else (*scaled, stack[3] * abs(f))


def _dots(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """``A[i] @ D[i]`` for a stack of (k, n) matrices A, rounded as the
    per-row matrix-vector product (a plain elementwise sum of products
    rounds differently for n >= 2)."""
    if D.shape[1] == 1:
        return A[:, :, 0] * D
    return np.matmul(A, D[:, :, None])[:, :, 0]


def row_norms(D: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of D, rounded as the per-vector call."""
    return np.sqrt(_dots(D[:, None, :], D)[:, 0])


def _supports(stack: tuple, D: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """:func:`support_rows` without the finiteness check, given the norms of
    the directions.

    The rows of one point count c share one product, point-outer: point k
    of all of them times ``D.T`` is one gemm, the (c, rows, d) values less
    the shortfalls times the norms are reduced over the outer axis, so the
    max runs over whole (rows, d) planes, not one short max per row and
    point.  Each value is a dot product over K = n, which gemm rounds alike
    for any number of rows M (M changes only the blocking), so it equals its
    own in ``support_many``'s ``points @ D.T`` (M = c), and the max is
    exact.  Two kinds of group keep the per-row product, one (c, n) matrix
    per row: a group of one row, whose point-outer products would be
    (1, n) @ (n, d), and a group of one point, whose per-row products are
    that shape in ``support_many`` too; numpy takes such a product down a
    vector–matrix path that rounds apart from gemm rows.  A one-point group
    takes its values without a max.  Only the first c points of a row enter
    its product, since BLAS may round a padding copy apart from its
    original.  With one point count, and with a ball on every row or on
    none, no row mask is built."""
    points, counts, radii, shortfalls = stack if len(stack) == 4 else (*stack, None)
    sizes = set(counts.tolist())
    if len(sizes) == 1:
        c = sizes.pop()
        out = _max_terms(points[:, :c], None if shortfalls is None else shortfalls[:, :c], D, norms)
    else:
        out = np.empty((len(counts), D.shape[0]))
        for c in sizes:
            rows = counts == c
            out[rows] = _max_terms(points[rows, :c], None if shortfalls is None else shortfalls[rows, :c], D, norms)
    out += 0.0  # a tied zero as +0.0, as in support_many
    ball = radii > 0.0
    if ball.all():
        out += radii[:, None] * norms
    elif ball.any():
        out[ball] += radii[ball, None] * norms
    return out


def _max_terms(block: np.ndarray, shortfalls, D: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The max over the points of each row of a (rows, c, n) block of
    ``points @ D.T`` less the (rows, c) shortfalls times the norms:
    point-outer, or per row for one row or one point (see
    :func:`_supports`)."""
    c = block.shape[1]
    if c > 1 and len(block) > 1:
        dots = np.matmul(block.transpose(1, 0, 2), D.T)
    else:
        dots = np.matmul(block, D.T).transpose(1, 0, 2)
    if shortfalls is not None:
        dots -= shortfalls.T[:, :, None] * norms
    return dots[0] if c == 1 else np.maximum.reduce(dots, axis=0)


def support_rows(stack: tuple, directions: np.ndarray) -> np.ndarray:
    """``support_many`` of every set of a padded stack, as an (m, d) array."""
    _check_rows(stack)
    D = np.asarray(directions, dtype=float)
    d, n = D.shape
    # the cached norms when D is the cached unit_directions array itself
    return _supports(stack, D, _unit_norms(n, d) if D is unit_directions(n, d) else np.linalg.norm(D, axis=1))


def support_pairs(stack: tuple, rows: np.ndarray, directions: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Support value of set ``rows[j]`` of a padded stack in direction
    ``directions[j]``, for every j.

    Equal bit for bit to :meth:`ConvexCompactSet.support` of that set when
    ``norms[j]`` is ``np.linalg.norm(directions[j])``: the pairs of one
    count share one stacked product in which each pair is the per-set
    matrix-vector product (a batched ``einsum`` or a row-wise norm rounds
    differently).
    """
    _check_rows(stack)
    points, counts, radii, shortfalls = stack if len(stack) == 4 else (*stack, None)
    out = np.empty(len(rows))
    sizes = counts[rows]
    for c in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == c)
        dots = np.matmul(points[rows[sel], :c], directions[sel, :, None])[:, :, 0]
        if shortfalls is not None:
            dots -= shortfalls[rows[sel], :c] * norms[sel, None]
        out[sel] = dots.max(axis=1)
    return out + radii[rows] * norms


def extreme_rows(stack: tuple, D: np.ndarray) -> np.ndarray:
    """:meth:`ConvexCompactSet.extreme_point` of every row of a padded stack
    in the direction ``D[i]``, as an (m, n) array."""
    points, _, radii, shortfalls = stack if len(stack) == 4 else (*stack, None)
    norm, dots, rows = row_norms(D), _dots(points, D), np.arange(D.shape[0])
    if shortfalls is not None:
        dots -= shortfalls * norm[:, None]
    idx = dots.argmax(axis=1)
    V = points[rows, idx]
    if shortfalls is not None:
        radii = radii - shortfalls[rows, idx]
    grow = (radii > 0.0) & (norm > 1e-300)
    c = np.count_nonzero(grow)
    if c == grow.size:
        return V + radii[:, None] * D / norm[:, None]
    if c:
        V[grow] = V[grow] + radii[grow, None] * D[grow] / norm[grow, None]
    return V


def interval_rows(stack: tuple) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`ConvexCompactSet.interval_bounds` of every row of a 1-D
    padded stack, as arrays (lo, hi)."""
    points, _, radii, shortfalls = stack if len(stack) == 4 else (*stack, None)
    col = points[:, :, 0]
    if shortfalls is None:
        return np.minimum.reduce(col, axis=1) - radii, np.maximum.reduce(col, axis=1) + radii
    r = radii[:, None] - shortfalls
    return np.minimum.reduce(col - r, axis=1), np.maximum.reduce(col + r, axis=1)


def norm_bounds(stack: tuple) -> np.ndarray:
    """A bound on ``‖v‖`` over the set of every row: the largest ``|v|`` in
    one dimension, else the largest point norm plus the largest radius."""
    if stack[0].shape[2] == 1:
        lo, hi = interval_rows(stack)
        return np.fmax(np.abs(lo), np.abs(hi))
    return np.linalg.norm(stack[0], axis=2).max(axis=1) + stack[2]


def hausdorff_rows(a: tuple, b: tuple, *, directions: int = DEFAULT_DIRECTIONS) -> np.ndarray:
    """:func:`hausdorff` between the rows of two padded stacks: interval
    endpoints in one dimension, sampled support values
    (:func:`support_rows`) otherwise.  The first stack's m rows fall in
    runs of equal length, one run per row of the second (which holds m
    rows, or one row, or any count that divides m), and the distance of
    row i is the one against the row of its run.  The second stack's bounds
    or support values are computed once per row and broadcast over its
    run, so each distance is the one against ``take_rows`` of that row
    repeated, bit for bit."""
    _check_rows(a)
    _check_rows(b)
    runs, n = len(b[1]), a[0].shape[2]
    if n == 1:
        (alo, ahi), (blo, bhi) = interval_rows(a), interval_rows(b)
        gaps = np.maximum(np.abs(alo.reshape(runs, -1) - blo[:, None]), np.abs(ahi.reshape(runs, -1) - bhi[:, None]))
    else:
        dirs, norms = unit_directions(n, directions), _unit_norms(n, directions)
        sa, sb = _supports(a, dirs, norms), _supports(b, dirs, norms)
        gaps = np.abs(sa.reshape(runs, -1, len(dirs)) - sb[:, None]).max(axis=2)
    return gaps.reshape(-1)


def contains(s: ConvexCompactSet, x, tol: float = 0.0) -> bool:
    """Membership test ``x in S`` up to ``tol``.

    Exact in one dimension.  In higher dimensions the test checks the
    sampled support inequalities, so it can only err on the inclusive side
    (an outer test).
    """
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != s.dimension:
        raise DimensionMismatchError(f"point has dimension {v.shape[0]}, set has {s.dimension}")
    if s.dimension == 1:
        lo, hi = s.interval_bounds()
        return bool(lo - tol <= v[0] <= hi + tol)
    dirs = unit_directions(s.dimension)
    return bool(np.all(dirs @ v <= s.support_many(dirs) + tol))


#: elements of the (rows, width, directions) support product that one
#: slice of :func:`_sampled` builds at most
_CONTAINS_ELEMENTS = 1 << 16

#: the absolute floor in the scale of the nearest-point certificate, which
#: covers gradual underflow (see :func:`contains_rows`)
_FLOOR = 2.0 ** -450


def contains_rows(stack: tuple, V: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """:func:`contains` of ``V[i]`` in row i of a padded stack, for every
    row.  It does not check that the rows are finite.

    In one dimension it compares interval endpoints.  In n >= 2 a
    nearest-point certificate settles every row it can, and only the rest
    go to :func:`_sampled`, the 256-direction product of :func:`contains`.
    Row i, with velocity v, largest radius R and points p_k of shortfalls
    s_k (zero in a stack without them), passes at once if some p_k has

        ‖v − p_k‖ + s_k <= R + tol − δ,
        δ = 64 (n + 4) u (2‖v‖ + max_k ‖v − p_k‖ + R + tol + 2⁻⁴⁵⁰),

    u = 2⁻⁵³, each term as float64 computes it (:func:`_certified`); the
    scale bounds ‖v‖ + max_k ‖p_k‖ + R + tol.  A certified row passes the
    product too, and an uncertified one is decided by it, so the verdict is
    :func:`contains`'s on every row.  A row with a NaN or infinite
    velocity, point, radius or ``tol``, or a square that overflows, makes
    the certificate NaN or its threshold −inf and is never certified.

    Proof, for R, tol >= 0 and 0 <= s <= R, with γ_k = ku / (1 − ku) and
    the dot-product bound |fl(x·y) − x·y| <= γ_n Σ|x_j y_j| <= γ_n ‖x‖ ‖y‖
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    §3.1).  Take a sampled direction d and a certifying point p of shortfall
    s and radius r = R − s, ρ = ‖v − p‖.  The product tests ĉ <= t̂ with
    ĉ = fl(d·v) and t̂ = fl(fl(m + fl(R ν̂)) + tol), m the max over the
    row's points of the computed fl(d·p_k − s_k ν̂) (d·p_k alone without
    shortfalls) and ν̂ = fl(‖d‖); the ball term is left out when R = 0.

    1. The directions have |‖d‖ − 1| <= η = 4 (n + 4) u (a test checks
       |ν̂ − 1| <= 2 (n + 4) u, and |ν̂ − ‖d‖| <= γ_(n+1)).
    2. ĉ <= d·v + γ_n ‖d‖ ‖v‖, and d·v <= d·p + ‖d‖ ρ.
    3. fl(d·p) >= d·p − γ_n ‖d‖ ‖p‖ and fl(R ν̂) >= R ‖d‖ (1 − γ_(n+2)),
       fl(s ν̂) <= s ‖d‖ (1 + γ_(n+2)).  Rounding is monotone, so the
       three additions lose at most 4u ‖d‖ (‖p‖ + 2R) + u tol more:
       t̂ >= d·p + r ‖d‖ + tol − γ_(n+6) ‖d‖ (‖p‖ + 2R) − u tol.
    4. By 1–3, ĉ <= t̂ whenever ‖d‖ ρ <= r ‖d‖ + tol − γ_(n+6) (1 + η)
       (‖v‖ + ‖p‖ + 2R) − u tol.  ρ <= r + tol − δ' implies it, with
       δ' = 6 (n + 4) u S' and S' = ‖v‖ + ‖p‖ + R + tol, as
       ‖d‖ tol <= tol + η tol and (1 − η) δ' >= (η + u) tol
       + 2 (1 + η) γ_(n+6) (‖v‖ + ‖p‖ + R).
    5. The certificate's own rounding: the computed distance ρ̂ has
       ρ <= ρ̂ / (1 − γ_(n+3)), the computed scale is at least
       (1 − γ_(n+6)) times the exact one, which is at least S', and
       fl(R + tol) <= (R + tol)(1 + u).  So fl(ρ̂ + s) <= fl(fl(R + tol)
       − fl(δ)) gives ρ <= r + tol − (64 (n + 4) u (1 − γ_(n+8))
       − γ_(n+8)) S', and that margin exceeds δ' more than ninefold.
    6. Gradual underflow adds absolute errors below √n 2⁻⁵³⁶ to a computed
       distance or norm and below n 2⁻¹⁰⁷⁴ to a dot product; the floor
       2⁻⁴⁵⁰ puts more than 2⁻⁴⁹⁵ into δ, which covers them.  A certified
       row has ‖v‖² and every ‖v − p_k‖² finite, so of the product only t̂
       can overflow, and t̂ = +inf passes.
    """
    if V.shape[1] == 1:
        lo, hi = interval_rows(stack)
        return (lo - tol <= V[:, 0]) & (V[:, 0] <= hi + tol)
    ok = _certified(stack, V, tol)
    if np.logical_and.reduce(ok):
        return ok
    rest = ~ok
    ok[rest] = _sampled(take_rows(stack, rest), V[rest], tol)
    return ok


def _certified(stack: tuple, V: np.ndarray, tol: float) -> np.ndarray:
    """The rows of a padded stack that the nearest-point certificate of
    :func:`contains_rows` settles: some point of row i lies within its own
    radius plus ``tol − δ`` of ``V[i]``.  It raises and warns on no float
    event: a row it refuses warns, or not, in the sampled check."""
    points, _, radii, shortfalls = stack if len(stack) == 4 else (*stack, None)
    with np.errstate(all="ignore"):
        gap = points - V[:, None, :]
        gap *= gap
        squares = np.add.reduce(gap, axis=2)  # ‖v − p_k‖², (m, K)
        scale = np.sqrt(np.add.reduce(V * V, axis=1))
        scale += scale
        scale += np.sqrt(np.maximum.reduce(squares, axis=1))
        reach = radii + tol
        scale += reach
        scale += _FLOOR
        scale *= 64 * (V.shape[1] + 4) * 2.0 ** -53
        reach -= scale
        if shortfalls is None:
            return np.sqrt(np.minimum.reduce(squares, axis=1)) <= reach
        return np.minimum.reduce(np.sqrt(squares) + shortfalls, axis=1) <= reach


def _sampled(stack: tuple, V: np.ndarray, tol: float) -> np.ndarray:
    """:func:`contains` of ``V[i]`` in row i, n >= 2, by its 256 sampled
    support inequalities.  The rows go in slices whose support product
    holds at most ``_CONTAINS_ELEMENTS`` elements; each row's products are
    its own, so slicing changes no bit."""
    dirs = unit_directions(V.shape[1])
    norms = _unit_norms(V.shape[1])
    size = max(1, _CONTAINS_ELEMENTS // (stack[0].shape[1] * dirs.shape[0]))
    ok = np.empty(V.shape[0], dtype=bool)
    for a in range(0, V.shape[0], size):
        rows = slice(a, a + size)
        support = _supports(take_rows(stack, rows), dirs, norms)
        ok[rows] = (np.matmul(dirs, V[rows, :, None])[:, :, 0] <= support + tol).all(axis=1)
    return ok
