"""Piecewise set-valued maps and their perturbed variants.

A map is a list of (predicate, image) pieces; at points where several
predicates hold the image is the hull of all matching piece images, which
makes the evaluated map closed at piece interfaces.  Perturbed variants add
a state-dependent margin either to the image alone or to both the argument
(via an inscribed ball lattice) and the image.

Images at many points are evaluated in one pass by :meth:`SetValuedMap.images`
and :meth:`PerturbedSystem.images`: predicates and pieces run on the whole
(N, n) array and every row's image comes back as a padded (N, K, n) point
stack with (N,) radii.  Hulls over an argument ball (strong images, modulus
ball hulls) are the same pass over every row's ball
lattice, merged per row; :meth:`SetValuedMap.ball_hull` and
:meth:`PerturbedSystem.image` are the one-row case.  The per-point
:meth:`SetValuedMap.image` is the oracle they must match bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .convexset import (
    PRUNE_THRESHOLD,
    ConvexCompactSet,
    hull_union_many,
    merge_parts,
    pruned,
    row_set,
)
from . import expressions

__all__ = [
    "Piece",
    "SetValuedMap",
    "PerturbedSystem",
    "NoMatchingPieceError",
    "unit_ball_lattice",
    "unperturbed",
]


class NoMatchingPieceError(ValueError):
    """No piece predicate holds at the queried point."""


@dataclass(frozen=True)
class Piece:
    """One branch of a piecewise set-valued map.

    ``rows``, when given, evaluates the image at a stack of points: it maps
    an (m, n) array to ``(points, radius)`` with points of shape (m, k, n),
    row i holding the points of ``image(X[i])``.  Pieces without it are
    evaluated point by point through ``image``.
    """

    predicate: Callable[[np.ndarray], bool]
    image: Callable[[np.ndarray], ConvexCompactSet]
    label: str = ""
    rows: Optional[Callable[[np.ndarray], tuple[np.ndarray, float]]] = None


def constant_piece(predicate, points, radius=0.0, label="") -> Piece:
    fixed = ConvexCompactSet(points, radius)
    stacked = fixed.points[None]

    def rows(X):
        return stacked.repeat(X.shape[0], axis=0), fixed.radius

    return Piece(predicate, lambda x, _s=fixed: _s, label, rows)


def affine_piece(predicate, matrix, offset, radius=0.0, label="") -> Piece:
    A = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float).reshape(-1)
    r = float(radius)

    def image(x):
        return ConvexCompactSet((A @ np.asarray(x, dtype=float) + b).reshape(1, -1), r)

    if A.shape == (1, 1):
        a, c = A[0, 0], b[0]

        def rows(X):
            # the same rounding as the 1x1 product A @ x, which accumulates
            # onto +0.0 (so a -0.0 product turns into +0.0)
            return (X * a + 0.0 + c)[:, None, :], r
    else:
        # a batched matmul rounds differently from the per-point product
        def rows(X):
            return np.array([A @ x + b for x in X])[:, None, :], r

    return Piece(predicate, image, label, rows)


def polynomial_piece(predicate, components: Sequence[str], dimension: int, radius=0.0, label="") -> Piece:
    fn = expressions.vector_fn(components, dimension)
    r = float(radius)

    def image(x):
        return ConvexCompactSet(fn(x).reshape(1, -1), r)

    def rows(X):
        return fn.rows(X)[:, None, :], r

    return Piece(predicate, image, label, rows)


def _concatenated(pts: np.ndarray, radius: float, group: int):
    """The run hulls when every row i holds the points ``pts[i]`` with one
    radius: each run concatenates its rows' points, unless that leaves more
    than :data:`PRUNE_THRESHOLD` points to prune (then :func:`_merge_runs`
    prunes them)."""
    m, c, _ = pts.shape
    G, size = m // group, c * group
    if group > 1 and size > PRUNE_THRESHOLD:
        return _merge_runs(pts, np.full(m, c), np.full(m, float(radius)), group)
    counts, radii = np.empty(G, dtype=int), np.empty(G)
    counts.fill(size)
    radii.fill(radius)
    return pts.reshape(G, size, pts.shape[2]), counts, radii


def _overlap(pieces: Sequence[Piece], X: np.ndarray):
    """The :func:`merge_parts` hulls of the pieces' images at every row of
    X as ``(points, radius)``, in one pass when that rule just concatenates
    the pieces' points in order: each radius is the largest or zero, and
    there are at most :data:`PRUNE_THRESHOLD` points.  Otherwise (or when a
    piece has no batched form) None."""
    if any(piece.rows is None for piece in pieces):
        return None
    parts = [piece.rows(X) for piece in pieces]
    radii = [float(r) for _, r in parts]
    rmax = max(radii)
    if any(r != rmax and r != 0.0 for r in radii) or sum(pts.shape[1] for pts, _ in parts) > PRUNE_THRESHOLD:
        return None
    return np.concatenate([pts for pts, _ in parts], axis=1), rmax


def _merge_runs(A: np.ndarray, counts: np.ndarray, radius: np.ndarray, group: int):
    """The hulls of runs of ``group`` consecutive rows of the padded row
    hulls ``(A, counts, radius)`` under the :func:`merge_parts` rule, in
    the layout of :meth:`SetValuedMap._hulls`."""
    m, width, n = A.shape
    G = m // group
    radii = radius.reshape(G, group)
    # the first largest radius of each run, as Python's max takes it in
    # merge_parts: numpy's max may return either zero of a tie of 0.0 and -0.0
    rmax = radii[np.arange(G), radii.argmax(axis=1)]
    plain = ((radii == rmax[:, None]) | (radii == 0.0)).all(axis=1)
    sizes = counts.reshape(G, group).sum(axis=1)
    points = A.reshape(G, group * width, n)
    if np.count_nonzero(counts != width):
        # move each run's points to its front, in order; the rows' padding
        # follows and repeats points of the run
        filled = (np.arange(width) < counts[:, None]).reshape(G, -1)
        order = np.argsort(~filled, axis=1, kind="stable")
        points = np.take_along_axis(points, order[:, :, None], axis=1)[:, :sizes.max()]
    special = {g: (pruned(points[g, :sizes[g]]), rmax[g])
               for g in (plain & (sizes > PRUNE_THRESHOLD)).nonzero()[0].tolist()}
    for g in (~plain).nonzero()[0].tolist():
        rows = range(g * group, (g + 1) * group)
        special[g] = merge_parts([(A[i, :counts[i]], radius[i]) for i in rows])
    if not special:
        return points, sizes, rmax
    size = max(len(pts) for pts, _ in special.values())
    if size > points.shape[1]:
        points = np.concatenate([points, np.repeat(points[:, -1:], size - points.shape[1], axis=1)], axis=1)
    else:
        points = points.copy()  # it may still view A, the caller's rows
    for g, (pts, r) in special.items():
        points[g, :len(pts)] = pts
        points[g, len(pts):] = pts[-1]
        sizes[g] = len(pts)
        rmax[g] = r
    return points, sizes, rmax


class SetValuedMap:
    """Piecewise set-valued map on R^n."""

    def __init__(self, dimension: int, pieces: Sequence[Piece]):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        pieces = list(pieces)
        if not pieces:
            raise ValueError("a set-valued map needs at least one piece")
        self.dimension = int(dimension)
        self.pieces = pieces
        # per piece: its predicate's value when it reads no state, else None,
        # and its batched form
        self._predicates = [(getattr(p.predicate, "constant", None), expressions.rows_of(p.predicate, bool))
                            for p in pieces]
        # the one piece, when it has a batched form and holds everywhere
        sole = pieces[0]
        always = len(pieces) == 1 and self._predicates[0][0] is True
        self._sole = sole if always and sole.rows is not None else None

    def _probes(self, X: np.ndarray, slack: float) -> np.ndarray:
        """Predicate probe points of each row of X as an (m, 1 + 2n, n)
        array: the row itself, then the axis probes ``x -+ slack * e_i``."""
        P = np.repeat(X[:, None, :], 1 + 2 * self.dimension, axis=1)
        for i in range(self.dimension):
            for j, sgn in enumerate((-1.0, 1.0)):
                P[:, 1 + 2 * i + j, i] += sgn * slack
        return P

    def matching(self, x, slack: float = 0.0) -> list[int]:
        """Indices of pieces active at x.

        With ``slack > 0`` a piece also counts as active when its predicate
        holds at one of the axis probes ``x +- slack * e_i``; this makes image
        evaluation robust to the placement error of numerically extracted
        boundary points sitting on a piece interface.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        probes = self._probes(x[None], slack)[0] if slack > 0.0 else [x]
        out = []
        for k, piece in enumerate(self.pieces):
            for p in probes:
                if piece.predicate(p):
                    out.append(k)
                    break
        return out

    def image(self, x, slack: float = 0.0) -> ConvexCompactSet:
        """Hull of all matching piece images at x."""
        x = np.asarray(x, dtype=float).reshape(-1)
        idx = self.matching(x, slack)
        if not idx:
            raise NoMatchingPieceError(f"no piece matches at x={x.tolist()}")
        sets = [self.pieces[k].image(x) for k in idx]
        if len(sets) == 1:
            return sets[0]
        return hull_union_many(sets)

    def _active(self, X: np.ndarray, slack: float) -> np.ndarray:
        """(pieces, m) mask of the pieces whose predicate holds at each row
        of X (or at one of its axis probes when ``slack > 0``)."""
        m = X.shape[0]
        active = np.empty((len(self.pieces), m), dtype=bool)
        probes = None
        for k, (constant, rows) in enumerate(self._predicates):
            if constant is not None:
                active[k] = constant
                continue
            if probes is None:
                probes = X if slack <= 0.0 else self._probes(X, slack).reshape(-1, self.dimension)
            hit = rows(probes)
            active[k] = hit if slack <= 0.0 else hit.reshape(m, -1).any(axis=1)
        return active

    def _hulls(self, X: np.ndarray, slack: float, group: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hull of the images over each run of ``group`` consecutive rows of
        X, merged as ``hull_union_many([self.image(x, slack) for x in run])``:
        rows where several pieces hold are merged first, then the rows of
        a run in order.  Returns the G hulls as a padded stack (see
        :mod:`convexset`).

        A row where one piece with a batched form holds takes that piece's
        row.  Rows where several pieces hold are taken by their pattern of
        active pieces: a pattern whose merge just concatenates batched
        points (see :func:`_overlap`) is one pass, and the other rows are
        merged through the per-point rule.  When every row then holds one
        point count and one radius, the rows go to :func:`_concatenated` as
        one array.  Otherwise runs whose rows all share the largest radius
        or have radius 0 (the rule then just concatenates points) are
        assembled as arrays; the others go through the per-point rule too.
        """
        m, n = X.shape
        piece = self._sole
        if piece is None:
            active = self._active(X, slack)
            held = active.sum(axis=1).tolist()  # rows on which each piece holds
            if sum(held) == m and m in held and self.pieces[held.index(m)].rows is not None:
                # one piece holds on every row and no other piece anywhere
                piece = self.pieces[held.index(m)]
        if piece is not None:
            return _concatenated(*piece.rows(X), group)
        hits = active.sum(axis=0)
        if np.count_nonzero(hits) < m:
            x = X[np.argmin(hits)]
            raise NoMatchingPieceError(f"no piece matches at x={x.tolist()}")
        own = active & (hits == 1)  # the rows where each piece holds alone
        fills = []  # (rows, points, radius) of pieces evaluated in one pass
        filled = 0
        for piece, mask in zip(self.pieces, own):
            if piece.rows is None:
                continue
            rows = mask.nonzero()[0]
            if rows.size:
                pts, r = piece.rows(X[rows])
                fills.append((rows, pts, float(r)))
                filled += rows.size
        # what is left: rows where several pieces hold or a piece has no
        # batched form, taken by their pattern of active pieces
        merged = {}
        if filled < m:
            left = np.ones(m, dtype=bool)
            for rows, _, _ in fills:
                left[rows] = False
            rest = np.flatnonzero(left)
            patterns, which = np.unique(active[:, rest], axis=1, return_inverse=True)
            which = which.reshape(-1)
            for p, pattern in enumerate(patterns.T):
                rows = rest[which == p]
                pieces = [self.pieces[k] for k in np.flatnonzero(pattern)]
                overlap = _overlap(pieces, X[rows])
                if overlap is not None:
                    fills.append((rows, *overlap))
                    continue
                for i in rows.tolist():
                    merged[i] = merge_parts([(s.points, s.radius) for s in (piece.image(X[i]) for piece in pieces)])
        if not merged and len({(pts.shape[1], r, math.copysign(1.0, r)) for _, pts, r in fills}) == 1:
            # one point count and one radius, to its sign, on every row
            A = np.empty((m, *fills[0][1].shape[1:]))
            for rows, pts, _ in fills:
                A[rows] = pts
            return _concatenated(A, fills[0][2], group)
        width = max([pts.shape[1] for _, pts, _ in fills] + [len(p) for p, _ in merged.values()])
        A = np.empty((m, width, n))
        counts = np.empty(m, dtype=int)
        radius = np.empty(m)
        for rows, pts, r in fills:
            c = pts.shape[1]
            A[rows, :c] = pts
            if c < width:
                A[rows, c:] = pts[:, -1:]
            counts[rows] = c
            radius[rows] = r
        for i, (pts, r) in merged.items():
            A[i, :len(pts)] = pts
            A[i, len(pts):] = pts[-1]
            counts[i] = len(pts)
            radius[i] = r
        if group == 1:
            return A, counts, radius
        return _merge_runs(A, counts, radius, group)

    def images(self, X, slack: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The image at every row of an (m, n) array X in one pass.

        Returns a padded ``(points, counts, radii)`` stack (see
        :mod:`convexset`) whose row i equals ``self.image(X[i], slack)``
        bit for bit.
        """
        X = np.asarray(X, dtype=float).reshape(-1, self.dimension)
        return self._hulls(X, slack, 1)

    def ball_hulls(self, centers, radii, density: int, slack: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`ball_hull` at every row of an (m, n) array of centers, with
        radius ``radii[i]`` for row i (or one radius for all), in one pass;
        returned as by :meth:`images`."""
        n = self.dimension
        centers = np.asarray(centers, dtype=float).reshape(-1, 1, n)
        radii = np.asarray(radii, dtype=float)
        if radii.ndim == 0 and radii != 0.0:  # the cache would not keep a zero's sign
            offsets = _ball_offsets(n, density, float(radii))
        else:
            offsets = _ball_offsets(n, density, 1.0) * radii.reshape(-1, 1, 1)
        X = centers + offsets
        return self._hulls(X.reshape(-1, n), slack, offsets.shape[-2])

    def ball_hull(self, center, radius: float, density: int, slack: float = 0.0) -> ConvexCompactSet:
        """Hull of the images over the lattice ``center + radius * L`` of the
        ball, ``L = unit_ball_lattice(n, density)``.

        Equal bit for bit to ``hull_union_many([self.image(center + u, slack)
        for u in radius * L])``: rows where several pieces hold are merged
        first, exactly as :meth:`image` merges them, then all rows are merged
        in lattice order under the same rule.
        """
        return row_set(self.ball_hulls(center, radius, density, slack), 0)

    @classmethod
    def from_config(cls, dimension: int, pieces_cfg: Sequence[dict]) -> "SetValuedMap":
        """Build from config dicts: {"when": predicate, "image": {...}}.

        Image kinds: constant {points, radius}, affine {matrix, offset,
        radius}, polynomial {components, radius}.
        """
        pieces = []
        for k, cfg in enumerate(pieces_cfg):
            pred = expressions.predicate_fn(cfg["when"], dimension)
            img = cfg["image"]
            kind = img["kind"]
            label = cfg.get("label", f"piece{k}")
            radius = float(img.get("radius", 0.0))
            if kind == "constant":
                pieces.append(constant_piece(pred, img["points"], radius, label))
            elif kind == "affine":
                pieces.append(affine_piece(pred, img["matrix"], img["offset"], radius, label))
            elif kind == "polynomial":
                pieces.append(polynomial_piece(pred, img["components"], dimension, radius, label))
            else:
                raise ValueError(f"unknown image kind {kind!r}")
        return cls(dimension, pieces)


@lru_cache(maxsize=32)
def _unit_lattice(dimension: int, density: int) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, density)
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    pts = np.column_stack([m.reshape(-1) for m in mesh])
    keep = np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12
    out = pts[keep]
    out.setflags(write=False)
    return out


def unit_ball_lattice(dimension: int, density: int = 9) -> np.ndarray:
    """Centered lattice of points inside the closed unit ball.

    ``density`` points per axis (odd values include 0 and the axis
    extremes); rescale by a radius to sample an argument ball.
    """
    if density < 1:
        raise ValueError("density must be >= 1")
    return _unit_lattice(int(dimension), int(density))


@lru_cache(maxsize=32)
def _ball_offsets(dimension: int, density: int, radius: float) -> np.ndarray:
    """:func:`unit_ball_lattice` times one radius, refused when it holds no
    point; :meth:`SetValuedMap.ball_hulls` takes it on every call of a run
    with a constant argument margin."""
    L = unit_ball_lattice(dimension, density)
    if L.shape[0] == 0:
        raise ValueError(f"the {dimension}-D ball lattice of density {density} is empty")
    out = L * radius
    out.setflags(write=False)
    return out


MarginFn = Union[float, Callable[[np.ndarray], float]]


def _margin_value(margin: MarginFn, x) -> float:
    if callable(margin):
        v = float(margin(np.asarray(x, dtype=float).reshape(-1)))
    else:
        v = float(margin)
    return v


class PerturbedSystem:
    """A set-valued map with a state-dependent perturbation margin.

    mode "none":   x' in F(x)
    mode "image":  x' in F(x) + eps(x) * B
    mode "strong": x' in co{F(x + eps_arg(x) * B)} + eps(x) * B, with the
                   argument ball sampled on an inscribed lattice (an inner
                   approximation, which is the sound side for falsification).

    ``sense_margin`` optionally decouples the argument-ball radius from the
    image inflation (used for feedback loops with separate sensing and
    actuation noise); it defaults to the image margin.
    """

    MODES = ("none", "image", "strong")

    def __init__(
        self,
        base: SetValuedMap,
        margin: MarginFn = 0.0,
        mode: str = "none",
        density: int = 9,
        sense_margin: Optional[MarginFn] = None,
    ):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if density < 1:
            raise ValueError("density must be >= 1")
        self.base = base
        self.margin = margin
        self.mode = mode
        self.density = int(density)
        self.sense_margin = sense_margin
        self._constant = {}  # checked constant margins, by "sensing or not"

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def margin_at(self, x) -> float:
        v = _margin_value(self.margin, x)
        if self.mode != "none" and v <= 0.0:
            raise ValueError(f"perturbation margin must be positive, got {v} at x={x}")
        return v

    def sense_margin_at(self, x) -> float:
        if self.sense_margin is None:
            return self.margin_at(x)
        v = _margin_value(self.sense_margin, x)
        if v <= 0.0:
            raise ValueError(f"sensing margin must be positive, got {v} at x={x}")
        return v

    def _margins(self, X: np.ndarray, sensing: bool):
        """:meth:`margin_at` (or :meth:`sense_margin_at`) at every row of X;
        one float when the margin is constant, checked on first use and
        then reused."""
        at = self.sense_margin_at if sensing else self.margin_at
        margin = self.sense_margin if sensing else self.margin
        if callable(margin):
            return np.array([at(x) for x in X])
        value = self._constant.get(sensing)
        if value is None:
            value = self._constant[sensing] = at(X[0])
        return value

    def images(self, X, slack: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The perturbed image at every row of an (m, n) array X in one pass,
        returned as by :meth:`SetValuedMap.images`."""
        X = np.asarray(X, dtype=float).reshape(-1, self.dimension)
        if self.mode == "none":
            return self.base.images(X, slack)
        eps_img = self._margins(X, False)
        if self.mode == "image":
            points, counts, radii = self.base.images(X, slack)
        else:
            # strong: hull over each row's argument-ball lattice, whose radii
            # are the image margins unless a sensing margin is set
            eps_arg = eps_img if self.sense_margin is None else self._margins(X, True)
            points, counts, radii = self.base.ball_hulls(X, eps_arg, self.density, slack)
        return points, counts, radii + eps_img

    def image(self, x, slack: float = 0.0) -> ConvexCompactSet:
        """The perturbed image at x: the one-row case of :meth:`images`."""
        return row_set(self.images(x, slack), 0)


def unperturbed(dynamics):
    """The base map of a :class:`PerturbedSystem`; any other map as it is."""
    return dynamics.base if isinstance(dynamics, PerturbedSystem) else dynamics
