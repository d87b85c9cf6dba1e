"""Piecewise set-valued maps and their perturbed variants.

A map is a list of (predicate, image) pieces; at points where several
predicates hold the image is the hull of all matching piece images, which
makes the evaluated map closed at piece interfaces.  Perturbed variants add
a state-dependent margin either to the image alone or to both the argument
(via an inscribed ball lattice) and the image.

Hulls over an argument ball (strong images, modulus ball hulls, continuity
margins) are evaluated by :meth:`SetValuedMap.ball_hull` in one pass over
the whole lattice: pieces return raw point arrays for all lattice rows at
once and a single set is built at the end.  The per-point
:meth:`SetValuedMap.image` is the oracle it must match bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .convexset import (
    ConvexCompactSet,
    contains,
    hull_union_many,
    merge_parts,
    merge_stack,
    unit_directions,
)
from .numerics import box_array, box_grid, largest_feasible
from . import expressions

__all__ = [
    "Piece",
    "SetValuedMap",
    "PerturbedSystem",
    "NoMatchingPieceError",
    "MarginResult",
    "graph_inflation_margin",
    "continuity_margin",
    "unit_ball_lattice",
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
        return np.repeat(stacked, X.shape[0], axis=0), fixed.radius

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
        return np.array([fn(x) for x in X])[:, None, :], r

    return Piece(predicate, image, label, rows)


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

    def _probes(self, X: np.ndarray, slack: float) -> list[list[np.ndarray]]:
        """Predicate probe points of each row of X, as :meth:`matching` makes
        them: the row itself, then with ``slack > 0`` the axis probes
        ``x -+ slack * e_i``."""
        if slack <= 0.0:
            return [[x] for x in X]
        P = np.repeat(X[:, None, :], 1 + 2 * self.dimension, axis=1)
        for i in range(self.dimension):
            for j, sgn in enumerate((-1.0, 1.0)):
                P[:, 1 + 2 * i + j, i] += sgn * slack
        return [list(row) for row in P]

    def matching(self, x, slack: float = 0.0) -> list[int]:
        """Indices of pieces active at x.

        With ``slack > 0`` a piece also counts as active when its predicate
        holds at one of the axis probes ``x +- slack * e_i``; this makes image
        evaluation robust to the placement error of numerically extracted
        boundary points sitting on a piece interface.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        probes = [x]
        if slack > 0.0:
            for i in range(self.dimension):
                for sgn in (-1.0, 1.0):
                    p = x.copy()
                    p[i] += sgn * slack
                    probes.append(p)
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

    def ball_hull(self, center, radius: float, density: int, slack: float = 0.0) -> ConvexCompactSet:
        """Hull of the images over the lattice ``center + radius * L`` of the
        ball, ``L = unit_ball_lattice(n, density)``.

        Equal bit for bit to ``hull_union_many([self.image(center + u, slack)
        for u in radius * L])``: rows where several pieces hold are merged
        first, exactly as :meth:`image` merges them, then all rows are merged
        in lattice order under the same rule.
        """
        center = np.asarray(center, dtype=float).reshape(-1)
        X = center + unit_ball_lattice(self.dimension, density) * radius
        m = X.shape[0]
        if m == 0:
            raise ValueError(f"the {self.dimension}-D ball lattice of density {density} is empty")
        active = np.empty((len(self.pieces), m), dtype=bool)
        probes = None
        for k, piece in enumerate(self.pieces):
            constant = getattr(piece.predicate, "constant", None)
            if constant is not None:
                active[k] = constant
                continue
            if probes is None:
                probes = self._probes(X, slack)
            active[k] = [any(map(piece.predicate, row)) for row in probes]
        counts = active.sum(axis=0)
        if not counts.all():
            x = X[np.argmin(counts)]
            raise NoMatchingPieceError(f"no piece matches at x={x.tolist()}")
        hits = active.sum(axis=1)
        owner = self.pieces[int(hits.argmax())]
        if hits.max() == counts.sum() == m and owner.rows is not None:
            # one piece holds on every row and no other piece anywhere
            return ConvexCompactSet(*merge_stack(*owner.rows(X)))
        row_parts = [[] for _ in range(m)]
        for piece, mask in zip(self.pieces, active):
            rows = mask.nonzero()[0]
            if not rows.size:
                continue
            if piece.rows is not None:
                pts, r = piece.rows(X[rows])
                parts = zip(pts, [r] * rows.size)
            else:
                parts = ((s.points, s.radius) for s in map(piece.image, X[rows]))
            for i, part in zip(rows.tolist(), parts):
                row_parts[i].append(part)
        return ConvexCompactSet(*merge_parts([merge_parts(parts) for parts in row_parts]))

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

    def image(self, x, slack: float = 0.0) -> ConvexCompactSet:
        x = np.asarray(x, dtype=float).reshape(-1)
        if self.mode == "none":
            return self.base.image(x, slack)
        if self.mode == "image":
            return self.base.image(x, slack).inflate(self.margin_at(x))
        # strong: hull over an argument-ball lattice, then inflate
        eps_img = self.margin_at(x)
        eps_arg = self.sense_margin_at(x)
        return self.base.ball_hull(x, eps_arg, self.density, slack).inflate(eps_img)


@dataclass(frozen=True)
class MarginResult:
    """Outcome of a bisection for a largest feasible perturbation radius."""

    delta: float
    witness: Optional[tuple] = None

    def __float__(self):
        return self.delta


def _strong_at(f_map: SetValuedMap, margin: float, density: int):
    return PerturbedSystem(f_map, margin, "strong", density)


def graph_inflation_margin(
    f_map: SetValuedMap,
    eps: MarginFn,
    box,
    bracket: float,
    *,
    arg_grid: int = 15,
    density: int = 9,
    directions: int = 32,
    tol: float = 1e-9,
    rel_tol: float = 1e-3,
) -> MarginResult:
    """Largest delta such that inflating the graph of F by delta stays inside
    the strongly perturbed map with margin eps.

    For sampled graph points (x, y) and ball perturbations (u, v) with
    |(u, v)| <= delta, checks y + v in co{F(x + u + eps*B)} + eps*B.  Sampled
    in x (box grid), in y (image hull points plus boundary ring), and in
    (u, v) (sphere directions in R^{2n}).  Returns 0 with a witness when even
    the probe radius fails.
    """
    b = box_array(box)
    n = b.shape[0]
    xs = box_grid(b, arg_grid)
    if xs.shape[0] == 0:
        raise ValueError("empty graph sample")
    ring = unit_directions(n, 16 if n > 1 else 2)
    graph = []
    for x in xs:
        s = f_map.image(x)
        ys = [s.points]
        if s.radius > 0.0:
            ys.append((s.points[:, None, :] + s.radius * ring[None, :, :]).reshape(-1, n))
        graph.append((x, np.vstack(ys)))

    pert_dirs = unit_directions(2 * n, directions)

    def violation(delta):
        strong = []
        for x, ys in graph:
            for d in pert_dirs:
                u, v = delta * d[:n], delta * d[n:]
                margin_here = _margin_value(eps, x + u)
                sys_here = _strong_at(f_map, margin_here, density)
                img = sys_here.image(x + u)
                for y in ys:
                    if not contains(img, y + v, tol):
                        return (tuple(x), tuple(y), tuple(u), tuple(v))
        return None

    delta, witness = largest_feasible(violation, float(bracket), rel_tol=rel_tol)
    return MarginResult(delta, witness)


def continuity_margin(
    f_map: SetValuedMap,
    eps: MarginFn,
    x,
    bracket: float,
    *,
    density: int = 9,
    directions: int = 0,
    tol: float = 1e-9,
    rel_tol: float = 1e-3,
) -> float:
    """Largest delta with F(x + delta*B) inside F(x) + eps(x)*B (sampled).

    The argument ball is sampled on the inscribed lattice; containment is
    checked through support inequalities over sampled directions.  Returns
    the bracket cap when even the cap is feasible.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.shape[0]
    target = _margin_value(eps, x)
    base_img = f_map.image(x)
    dirs = unit_directions(n, directions) if directions else unit_directions(n)
    base_support = base_img.support_many(dirs)

    def violation(delta):
        big = f_map.ball_hull(x, delta, density)
        excess = big.support_many(dirs) - (base_support + target)
        if np.any(excess > tol):
            return float(excess.max())
        return None

    delta, _ = largest_feasible(violation, float(bracket), rel_tol=rel_tol)
    return delta
