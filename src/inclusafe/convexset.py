"""Geometry kernel: convex compact sets as point hulls inflated by a ball.

A set is represented as ``co{points} + radius * B`` with ``B`` the closed
Euclidean unit ball.  This representation is closed under Minkowski sums and
under outer hulls of unions, which is all the set arithmetic the rest of the
package needs.  Support values are exact for the stored representation;
Hausdorff distance and membership are exact in one dimension and
direction-sampled in higher dimensions.

Many sets travel as one padded stack ``(points, counts, radii)`` of shapes
(m, K, n), (m,) and (m,): row i is ``co{points[i, :counts[i]]} + radii[i] *
B``, and the rest of the row repeats points of that row.  This module is the
only one that reads that layout.  Its row kernels equal, bit for bit, the
per-set methods that the tests keep as their oracles: :func:`row_set` builds
a row's set, and :func:`support_rows` is ``support_many``,
:func:`support_pairs` ``support``, :func:`extreme_rows` ``extreme_point``,
:func:`interval_rows` ``interval_bounds``, :func:`contains_rows`
:func:`contains`, :func:`hausdorff_rows` :func:`hausdorff`, and
:func:`row_norms` ``np.linalg.norm`` of each vector.  Support values are
point-major in both forms: a set's product is ``points @ D.T``, one row per
point, and its support is the max over those rows, a tied zero as +0.0; a
stack takes one such product per point count, each row in the shape of
its own set.  The support and distance kernels raise ValueError, as
building the sets would, if a row is not finite.

scipy is imported only on the first call that needs Qhull: the hull of more
than :data:`PRUNE_THRESHOLD` points in two or more dimensions.  Qhull is
reached through the module-level name :func:`ConvexHull`, which tracers
patch to count hull calls, so :func:`_prune` looks it up at call time.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ConvexCompactSet",
    "DimensionMismatchError",
    "unit_directions",
    "minkowski_sum",
    "hull_union",
    "hull_union_many",
    "merge_parts",
    "pruned",
    "hausdorff",
    "row_set",
    "row_norms",
    "support_rows",
    "support_pairs",
    "extreme_rows",
    "interval_rows",
    "contains_rows",
    "hausdorff_rows",
    "contains",
    "DEFAULT_DIRECTIONS",
    "HULL_MERGE_ANGLE",
    "PRUNE_THRESHOLD",
]

#: default number of sampled support directions for n >= 2
DEFAULT_DIRECTIONS = 256

#: angular resolution used when merging hulls of unequal ball radii (2-D)
HULL_MERGE_ANGLE = math.pi / 32

#: point count above which intermediate hulls are pruned to their vertices
PRUNE_THRESHOLD = 96


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


@lru_cache(maxsize=None)
def _unit_norms(dimension: int) -> np.ndarray:
    """``np.linalg.norm`` of each of the default ``unit_directions``."""
    return np.linalg.norm(unit_directions(dimension), axis=1)


def unit_directions(dimension: int, count: int = DEFAULT_DIRECTIONS) -> np.ndarray:
    """Deterministic unit direction samples.

    One dimension returns exactly {-1, +1}; two dimensions a uniform circle;
    three a Fibonacci sphere; higher dimensions a fixed-seed normalized
    Gaussian cloud.  The array is cached and read-only.
    """
    return _directions_cached(int(dimension), int(count))


class ConvexCompactSet:
    """Nonempty convex compact set ``co{points} + radius * unit ball``."""

    __slots__ = ("points", "radius")

    def __init__(self, points, radius: float = 0.0):
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
        pts.setflags(write=False)
        self.points = pts
        self.radius = radius

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
        """Exact support value ``max_p <p, d> + radius * |d|``."""
        d = np.asarray(direction, dtype=float).reshape(-1)
        if d.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"direction has dimension {d.shape[0]}, set has {self.dimension}"
            )
        return float((self.points @ d).max() + self.radius * np.linalg.norm(d))

    def support_many(self, directions: np.ndarray) -> np.ndarray:
        """Support values for each row of ``directions``."""
        D = np.asarray(directions, dtype=float)
        if D.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"directions have dimension {D.shape[1]}, set has {self.dimension}"
            )
        vals = (self.points @ D.T).max(axis=0) + 0.0  # a tied zero as +0.0
        if self.radius > 0.0:
            vals = vals + self.radius * np.linalg.norm(D, axis=1)
        return vals

    def extreme_point(self, direction) -> np.ndarray:
        """A maximizer of ``<., d>`` over the set (hull vertex plus ball offset)."""
        d = np.asarray(direction, dtype=float).reshape(-1)
        idx = int(np.argmax(self.points @ d))
        p = self.points[idx].copy()
        norm = np.linalg.norm(d)
        if self.radius > 0.0 and norm > 1e-300:
            p = p + self.radius * d / norm
        return p

    def inflate(self, margin: float) -> "ConvexCompactSet":
        if margin == 0.0:
            return self
        return ConvexCompactSet(self.points, self.radius + float(margin))

    def scale(self, factor: float) -> "ConvexCompactSet":
        f = float(factor)
        return ConvexCompactSet(self.points * f, self.radius * abs(f))

    def interval_bounds(self) -> tuple[float, float]:
        """(lo, hi) endpoints; exact, only defined in one dimension."""
        if self.dimension != 1:
            raise DimensionMismatchError("interval_bounds is only defined for 1-D sets")
        col = self.points[:, 0]
        return float(col.min() - self.radius), float(col.max() + self.radius)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ConvexCompactSet({self.points.shape[0]} pts, n={self.dimension}, r={self.radius:g})"


# ---------------------------------------------------------------------- #
def ConvexHull(points: np.ndarray):
    """``scipy.spatial.ConvexHull(points)``, with scipy imported on the first
    call rather than with this module."""
    from scipy.spatial import ConvexHull as qhull

    return qhull(points)


def _prune(points: np.ndarray) -> np.ndarray:
    """Drop points interior to the hull.  Exact: support values are unchanged."""
    points = np.unique(points, axis=0)
    n = points.shape[1]
    if n == 1:
        return np.array([[points[:, 0].min()], [points[:, 0].max()]])
    if points.shape[0] <= n + 1:
        return points
    from scipy.spatial import QhullError

    try:
        hull = ConvexHull(points)
    except QhullError:
        # degenerate (e.g. collinear) input: keep everything rather than risk
        # dropping a true extreme point under joggling
        return points
    return points[np.sort(hull.vertices)]


def _check_same_dimension(sets: Sequence[ConvexCompactSet]):
    dims = {s.dimension for s in sets}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed dimensions {sorted(dims)}")


def minkowski_sum(a: ConvexCompactSet, b: ConvexCompactSet) -> ConvexCompactSet:
    """Exact Minkowski sum: pairwise point sums, radii added."""
    _check_same_dimension((a, b))
    pts = (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, a.dimension)
    return ConvexCompactSet(pruned(pts), a.radius + b.radius)


#: boundary points of a 2-D ring in a merge, HULL_MERGE_ANGLE apart
_MERGE_RING = int(math.ceil(2.0 * math.pi / HULL_MERGE_ANGLE))


def hull_union_many(sets: Sequence[ConvexCompactSet]) -> ConvexCompactSet:
    """Outer approximation of ``co(union of sets)``.

    With equal radii the result is exact (point lists concatenate).  With
    unequal radii, each smaller-radius operand is replaced by points on its
    boundary (in 2-D at the angular resolution :data:`HULL_MERGE_ANGLE`)
    and the result carries the largest radius; this keeps the result a
    superset of every operand since the radius step exceeds the sampled-ring
    deficit r*(1 - cos(HULL_MERGE_ANGLE/2)).
    """
    sets = list(sets)
    if not sets:
        raise ValueError("hull_union_many needs at least one set")
    if len(sets) == 1:
        return sets[0]
    _check_same_dimension(sets)
    return ConvexCompactSet(*merge_parts([(s.points, s.radius) for s in sets]))


def merge_parts(parts: Sequence[tuple[np.ndarray, float]]) -> tuple[np.ndarray, float]:
    """The :func:`hull_union_many` rule on raw ``(points, radius)`` pairs of
    one dimension: returns the merged ``(points, radius)`` without building
    a set per operand.  A single pair is returned unchanged."""
    if len(parts) == 1:
        return parts[0]
    rmax = max(r for _, r in parts)
    dimension = parts[0][0].shape[1]
    merged = []
    for pts, r in parts:
        if r == rmax or r == 0.0:
            merged.append(pts)
        else:
            ring = unit_directions(dimension, _MERGE_RING if dimension == 2 else DEFAULT_DIRECTIONS)
            merged.append((pts[:, None, :] + r * ring[None, :, :]).reshape(-1, dimension))
    return pruned(np.concatenate(merged)), rmax


def pruned(points: np.ndarray) -> np.ndarray:
    """The points a merge keeps of its concatenated operands: all of them,
    or the hull vertices above :data:`PRUNE_THRESHOLD` points."""
    return _prune(points) if points.shape[0] > PRUNE_THRESHOLD else points


def hull_union(a: ConvexCompactSet, b: ConvexCompactSet) -> ConvexCompactSet:
    """Outer approximation of ``co(A u B)``; see :func:`hull_union_many`."""
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


def _check_rows(points: np.ndarray, radii: np.ndarray) -> None:
    """Raise as :class:`ConvexCompactSet` would for any row of a padded
    stack (the padding repeats points of its row, so reading it is safe)."""
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    bad = ~(np.isfinite(radii) & (radii >= 0.0))
    if bad.any():
        raise ValueError(f"radius must be finite and >= 0, got {float(radii[bad][0])}")


def row_set(stack: tuple, i: int) -> ConvexCompactSet:
    """The set of row i of a padded ``(points, counts, radii)`` stack."""
    points, counts, radii = stack
    return ConvexCompactSet(points[i, :counts[i]], radii[i])


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


def _supports(points: np.ndarray, counts: np.ndarray, radii: np.ndarray, D: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """:func:`support_rows` without the finiteness check, given the norms of
    the directions.  Each row's product is point-major, ``points @ D.T`` of
    its own K points as in ``support_many``, and its max over those points;
    rows of one point count share one stacked product.  A product over the
    padded width rounds differently: BLAS may round a padding copy apart
    from its original.  With one point count, and with a ball on every row
    or on none, no row mask is built."""
    sizes = set(counts.tolist())
    if len(sizes) == 1:
        out = np.matmul(points[:, :sizes.pop()], D.T).max(axis=1)
    else:
        out = np.empty((len(counts), D.shape[0]))
        for c in sizes:
            rows = counts == c
            out[rows] = np.matmul(points[rows, :c], D.T).max(axis=1)
    out += 0.0  # a tied zero as +0.0, as in support_many
    ball = radii > 0.0
    if ball.all():
        out += radii[:, None] * norms
    elif ball.any():
        out[ball] += radii[ball, None] * norms
    return out


def support_rows(points: np.ndarray, counts: np.ndarray, radii: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """``support_many`` of every set of a padded stack, as an (m, d) array."""
    _check_rows(points, radii)
    D = np.asarray(directions, dtype=float)
    return _supports(points, counts, radii, D, np.linalg.norm(D, axis=1))


def support_pairs(points: np.ndarray, counts: np.ndarray, radii: np.ndarray, rows: np.ndarray,
                  directions: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Support value of set ``rows[j]`` of a padded stack in direction
    ``directions[j]``, for every j.

    Equal bit for bit to :meth:`ConvexCompactSet.support` of that set when
    ``norms[j]`` is ``np.linalg.norm(directions[j])``: the pairs of one
    count share one stacked product in which each pair is the per-set
    matrix-vector product (a batched ``einsum`` or a row-wise norm rounds
    differently).
    """
    _check_rows(points, radii)
    out = np.empty(len(rows))
    sizes = counts[rows]
    for c in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == c)
        out[sel] = np.matmul(points[rows[sel], :c], directions[sel, :, None])[:, :, 0].max(axis=1)
    return out + radii[rows] * norms


def extreme_rows(points: np.ndarray, radii: np.ndarray, D: np.ndarray) -> np.ndarray:
    """:meth:`ConvexCompactSet.extreme_point` of every row of a padded stack
    in the direction ``D[i]``, as an (m, n) array."""
    idx = _dots(points, D).argmax(axis=1)
    V = points[np.arange(D.shape[0]), idx]
    norm = row_norms(D)
    grow = (radii > 0.0) & (norm > 1e-300)
    c = np.count_nonzero(grow)
    if c == grow.size:
        return V + radii[:, None] * D / norm[:, None]
    if c:
        V[grow] = V[grow] + radii[grow, None] * D[grow] / norm[grow, None]
    return V


def interval_rows(points: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`ConvexCompactSet.interval_bounds` of every row of a 1-D
    padded stack, as arrays (lo, hi)."""
    col = points[:, :, 0]
    return np.minimum.reduce(col, axis=1) - radii, np.maximum.reduce(col, axis=1) + radii


def hausdorff_rows(a: tuple, b: tuple, *, directions: int = DEFAULT_DIRECTIONS) -> np.ndarray:
    """:func:`hausdorff` between row i of two padded stacks with the same
    number of rows, for every row: interval endpoints in one dimension,
    sampled support values (:func:`support_rows`) otherwise."""
    (pa, ca, ra), (pb, cb, rb) = a, b
    if pa.shape[2] == 1:
        _check_rows(pa, ra)
        _check_rows(pb, rb)
        (alo, ahi), (blo, bhi) = interval_rows(pa, ra), interval_rows(pb, rb)
        return np.maximum(np.abs(alo - blo), np.abs(ahi - bhi))
    dirs = unit_directions(pa.shape[2], directions)
    return np.abs(support_rows(pa, ca, ra, dirs) - support_rows(pb, cb, rb, dirs)).max(axis=1)


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


def contains_rows(points: np.ndarray, counts: np.ndarray, radii: np.ndarray, V: np.ndarray,
                  tol: float = 0.0) -> np.ndarray:
    """:func:`contains` of ``V[i]`` in row i of a padded stack, for every
    row.  It does not check that the rows are finite."""
    if V.shape[1] == 1:
        lo, hi = interval_rows(points, radii)
        return (lo - tol <= V[:, 0]) & (V[:, 0] <= hi + tol)
    dirs = unit_directions(V.shape[1])
    support = _supports(points, counts, radii, dirs, _unit_norms(V.shape[1]))
    return (np.matmul(dirs, V[:, :, None])[:, :, 0] <= support + tol).all(axis=1)
