"""Piecewise set-valued maps and their perturbed variants.

A map is a list of (predicate, image) pieces; at points where several
predicates hold the image is the hull of all matching piece images, which
makes the evaluated map closed at piece interfaces; the hull keeps each
piece's radius, so it is exact.  Perturbed variants add a state-dependent
margin either to the image alone or to both the argument (via an inscribed
ball lattice) and the image.

Images at many points are evaluated in one pass by :meth:`SetValuedMap.images`
and :meth:`PerturbedSystem.images`: predicates and pieces run on the whole
(N, n) array and every row's image comes back as a padded stack (see
:mod:`convexset`).  Hulls over an argument ball (strong images, modulus
ball hulls) are the same pass over every row's ball lattice, merged per
row; :meth:`SetValuedMap.ball_hull` and :meth:`PerturbedSystem.image` are
the one-row case.  The per-point
:meth:`SetValuedMap.image` is the oracle they must match bit for bit.

What no call can change is resolved once per map, not per call:

- a map that is one batched piece holding everywhere takes the piece's
  rows, with read-only ``(counts, radii)`` kept per row shape;
- a map of at most 12 pieces whose images are fixed (:attr:`Piece.fixed`)
  keeps a table of the image of each pattern of active pieces met, and of
  the hull over each sequence of patterns met as a run of rows (when the
  run's codes pack into one int64), which hold at any slack, since such
  an image does not depend on the point, and hands a call with the
  active pieces, run length and image margin of the last call of its run
  length that call's stack; only a map with a piece whose image moves,
  or of more pieces, or a run of longer codes, takes the general
  assembly;
- a perturbed system keeps its checked constant margins and its lattice
  offsets, and its image margin goes into those cached radii and into the
  table's.

Cached arrays are read-only, and every caller gets them as they are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .convexset import (
    ConvexCompactSet, hull_union_many, inflate_rows, merge_runs, row_set, stack_of, take_rows,
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
    evaluated point by point through ``image``.  ``fixed`` says that the
    image is one set, whatever the point (as :func:`constant_piece` makes
    it).
    """

    predicate: Callable[[np.ndarray], bool]
    image: Callable[[np.ndarray], ConvexCompactSet]
    label: str = ""
    rows: Optional[Callable[[np.ndarray], tuple[np.ndarray, float]]] = None
    fixed: bool = False


def constant_piece(predicate, points, radius=0.0, label="") -> Piece:
    fixed = ConvexCompactSet(points, radius)
    stacked = fixed.points[None]

    def rows(X):
        return stacked.repeat(X.shape[0], axis=0), fixed.radius

    return Piece(predicate, lambda x, _s=fixed: _s, label, rows, fixed=True)


def affine_piece(predicate, matrix, offset, radius=0.0, label="") -> Piece:
    A = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float).reshape(-1)
    r = float(radius)

    # A's columns and b, as numpy scalars when the image has one component:
    # the same products and sums, without broadcasting a (1,) array per call
    cols = list(A.T) if len(b) > 1 else list(A[0])
    shift = b if len(b) > 1 else b[0]

    def values(X):
        # A x + b at every row of X as one sum of column products, in
        # column order from +0.0 (so a -0.0 first product turns into +0.0),
        # then b: one row rounds as many do, which no batched matmul
        # promises, and in one dimension this is the 1x1 product A @ x
        acc = X[:, :1] * cols[0] + 0.0
        for j in range(1, len(cols)):
            acc += X[:, j:j + 1] * cols[j]
        return acc + shift

    def image(x):
        return ConvexCompactSet(values(np.asarray(x, dtype=float).reshape(1, -1)), r)

    def rows(X):
        return values(X)[:, None, :], r

    return Piece(predicate, image, label, rows)


def polynomial_piece(predicate, components: Sequence[str], dimension: int, radius=0.0, label="") -> Piece:
    fn = expressions.vector_fn(components, dimension)
    r = float(radius)

    def image(x):
        return ConvexCompactSet(fn(x).reshape(1, -1), r)

    def rows(X):
        return fn.rows(X)[:, None, :], r

    return Piece(predicate, image, label, rows)


def _overlap(pieces: Sequence[Piece], X: np.ndarray):
    """The :func:`hull_union_many` hulls of the pieces' images at every row
    of X, in one pass: ``(points, count, radius, shortfalls)``, the pieces'
    points in order, their count, the first largest radius, and the (m, K)
    shortfalls, or None when the radii are equal.  None when a piece has no
    batched form."""
    if any(piece.rows is None for piece in pieces):
        return None
    parts = [piece.rows(X) for piece in pieces]
    radii = [float(r) for _, r in parts]
    rmax = max(radii)
    points = np.concatenate([pts for pts, _ in parts], axis=1)
    if all(r == rmax for r in radii):
        return points, points.shape[1], rmax, None
    short = np.concatenate([np.full(pts.shape[1], rmax - r) for (pts, _), r in zip(parts, radii)])
    return points, points.shape[1], rmax, np.tile(short, (X.shape[0], 1))


#: the most pieces whose patterns of active pieces a map tables (it keeps
#: one slot for each of the 2 ** pieces patterns)
_PATTERN_PIECES = 12

#: the most bits a run key packs into one int64, pieces times rows per run:
#: one fewer than the int64 holds, so that _NO_KEY is above every key; the
#: runs of longer keys take the general assembly
_KEY_BITS = 62

#: a key above every packed run key
_NO_KEY = (1 << 63) - 1

#: the point count of a stack's row 0, which stands for a set not met yet:
#: above every count, so that the widest row of a gather shows a miss
_UNMET = np.iinfo(int).max


class _Stack:
    """Sets kept as one padded stack with shortfalls (see :mod:`convexset`)
    that grows by appending, and the rows that mix radii.  Row 0 stands
    for a set not met yet."""

    def __init__(self, dimension: int):
        self.stack = (np.zeros((1, 1, dimension)), np.array([_UNMET]), np.zeros(1), np.zeros((1, 1)))
        self.mixes = np.zeros(1, dtype=bool)
        self.cuts = {}  # the fields cut to each width asked for, contiguous
        self.shifted = (None, None)  # the last image margin asked for and the radii plus it

    def extend(self, stacks: list, mixes) -> int:
        """Append the rows of padded stacks (a count and a radius may stand
        for those of every row), and which of them mix radii; returns the
        first one's row."""
        first = size = len(self.mixes)
        parts = [(slice(0, first), *self.stack)]
        for stack in stacks:
            parts.append((slice(size, size + len(stack[0])), *stack))
            size += len(stack[0])
        self.stack = stack_of(parts, size)
        self.mixes = np.append(self.mixes, mixes)
        self.cuts, self.shifted = {}, (None, None)
        return first


class _Runs:
    """The hulls over the runs of one length met so far, by the key of
    their sequence of pattern codes packed into one int64."""

    def __init__(self, pieces: int, group: int, dimension: int):
        self.group = group
        self.packing = 1 << pieces * np.arange(group)
        self.known = {}  # the row of each key met
        self.stack = _Stack(dimension)
        self.sorted = None  # the keys met in order and their rows, then a key no run has; None when stale

    def find(self, runs: np.ndarray) -> tuple:
        """The key of each run of codes, and its row, 0 where not met, by a
        binary search of the keys met."""
        keys = runs @ self.packing
        if self.sorted is None:
            met = sorted(self.known)
            self.sorted = (np.array(met + [_NO_KEY]), np.array([self.known[key] for key in met] + [0]))
        met, rows = self.sorted
        at = np.searchsorted(met, keys)
        index = rows[at]
        index[met[at] != keys] = 0
        return keys, index

    def add(self, table: "_PatternTable", runs: np.ndarray, keys: np.ndarray, index: np.ndarray) -> None:
        """Table the hulls of the runs of codes whose row is 0, each key once:
        the rows' images merged in order by :func:`convexset.merge_runs`,
        with the shortfalls of a call where some row mixes radii."""
        missing = np.flatnonzero(index == 0)
        new = dict(zip(keys[missing].tolist(), missing.tolist()))  # a run of each key
        slots = table.slot[runs[list(new.values())]]
        rows = table.rows
        kinds = rows.stack[2][slots]
        mixes = rows.mixes[slots].any(axis=1) | (kinds != kinds[:, :1]).any(axis=1)
        start = self.stack.extend([merge_runs(take_rows(rows.stack, slots.reshape(-1)), self.group)], mixes)
        self.known.update(zip(new, range(start, start + len(new))))
        self.sorted = None


class _PatternTable:
    """The images of a map whose every piece has a fixed image
    (:attr:`Piece.fixed`): a row's image depends only on its pattern of
    active pieces, and the hull over a run of rows only on the sequence of
    their patterns, whatever the rows and the slack.

    Each pattern, when first met, gets the hull of its pieces' images, and
    each sequence of patterns, when first met as a run of ``group`` rows,
    the hull of its rows' images in order (:func:`convexset.merge_runs`): the
    :func:`hull_union_many` rule of :meth:`SetValuedMap.image` and
    :meth:`SetValuedMap.ball_hull`.  A call is the active pieces, one
    pattern code per row, one key per run (see :class:`_Runs`), their
    lookup and a few gathers."""

    def __init__(self, pieces: int, dimension: int):
        self.pieces = pieces
        self.weights = 1 << np.arange(pieces)
        self.slot = np.zeros(1 << pieces, dtype=int)  # the row of each pattern code in rows; 0 not met
        self.rows = _Stack(dimension)
        self.runs = {}  # the _Runs of each run length met
        self.last = {}  # per run length, the last call's image margin, active pieces and stack

    def stack(self, f: "SetValuedMap", X: np.ndarray, slack: float, group: int, eps: Optional[float]) -> tuple:
        """:meth:`SetValuedMap._hulls` of X, for runs of at most
        :data:`_KEY_BITS` bits: the tabled rows, or runs of ``group`` rows,
        cut to the widest of them, ``eps`` (or nothing when None) added to
        every radius, and with shortfalls when one of them mixes radii.  A
        call with the run length, image margin and active pieces of the
        last call of its run length gets that call's read-only stack as it
        is; a call that meets a pattern or run first tables it and looks its
        rows up again."""
        active = f._active(X, slack)
        key = (eps, active.tobytes())
        last = self.last.get(group)
        if last is not None and last[0] == key:
            return last[1]
        codes = self.weights @ active
        runs = None
        if group > 1:
            runs = self.runs.get(group)
            if runs is None:
                runs = self.runs[group] = _Runs(self.pieces, group, X.shape[1])
        table = self.rows if runs is None else runs.stack
        while True:
            if runs is None:
                index = self.slot[codes]
            else:
                keys, index = runs.find(codes.reshape(-1, group))
            counts = table.stack[1].take(index)
            width = int(np.maximum.reduce(counts, initial=0))
            if width != _UNMET:
                break
            self._meet(f, X, codes)
            if runs is not None:
                runs.add(self, codes.reshape(-1, group), keys, index)
        cut = table.cuts.get(width)
        if cut is None:  # the points, and the shortfalls when some row mixes radii
            fields = (0, 3) if table.mixes.any() else (0,)
            cut = table.cuts[width] = tuple(np.ascontiguousarray(table.stack[k][:, :width]) for k in fields)
        radii = table.stack[2]
        if eps is not None:
            if table.shifted[0] != eps:
                table.shifted = (eps, radii + eps)
            radii = table.shifted[1]
        made = cut[0].take(index, axis=0), counts, radii.take(index)
        if len(cut) == 2 and np.logical_or.reduce(table.mixes.take(index)):
            made += (cut[1].take(index, axis=0),)
        for a in made:
            a.setflags(write=False)
        self.last[group] = (key, made)
        return made

    def _meet(self, f: "SetValuedMap", X: np.ndarray, codes: np.ndarray) -> None:
        """Add the image of each pattern of the rows of X not met yet, from
        a row of it.  Code 0 comes first: the first row where no piece holds
        raises, as :meth:`SetValuedMap._assemble` raises on all of X."""
        met = sorted(set(codes[self.slot[codes] == 0].tolist()))
        if not met:
            return
        hulls = []
        for code in met:
            x = X[int(np.argmax(codes == code))]
            if code == 0:
                raise NoMatchingPieceError(f"no piece matches at x={x.tolist()}")
            hulls.append(hull_union_many([piece.image(x) for k, piece in enumerate(f.pieces) if code >> k & 1]))
        stacks = [(s.points[None], len(s.points), s.radius, None if s.shortfalls is None else s.shortfalls[None])
                  for s in hulls]
        self.slot[met] = self.rows.extend(stacks, [s.shortfalls is not None for s in hulls]) + np.arange(len(hulls))


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
        tabled = self._sole is None and len(pieces) <= _PATTERN_PIECES and all(p.fixed for p in pieces)
        self._table = _PatternTable(len(pieces), self.dimension) if tabled else None
        # per (runs, points per run): the last (radius, image margin, counts,
        # radii) that _concatenated made
        self._arrays = {}

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

    def _hulls(self, X: np.ndarray, slack: float, group: int, eps: Optional[float] = None) -> tuple:
        """Hull of the images over each run of ``group`` consecutive rows of
        X, merged as ``hull_union_many([self.image(x, slack) for x in run])``:
        rows where several pieces hold are merged first, then the rows of
        a run in order.  Returns the G hulls as a padded stack (see
        :mod:`convexset`), with the image margin ``eps`` (a checked constant
        margin, or None for none) added to every radius.

        A map that is one batched piece holding everywhere takes the piece's
        rows (:meth:`_concatenated`), and the rows of a map of at most 12
        pieces with fixed images, and its runs when pieces times ``group``
        is at most 62, come from its pattern table (:class:`_PatternTable`);
        anything else is :meth:`_assemble`.
        """
        if self._sole is not None:
            return self._concatenated(*self._sole.rows(X), group, eps)
        if self._table is not None and self._table.pieces * group <= _KEY_BITS:
            return self._table.stack(self, X, slack, group, eps)
        return self._assemble(X, slack, group, eps)

    def _concatenated(self, pts: np.ndarray, radius: float, group: int, eps: Optional[float]):
        """The :meth:`_hulls` of runs whose every row i holds the points
        ``pts[i]`` with one radius: each run concatenates its rows' points.
        The read-only counts and radii (``eps`` added) are made once per
        shape, and again only when the radius object or ``eps`` changes."""
        m, c, n = pts.shape
        G, size = m // group, c * group
        made = self._arrays.get((G, size))
        if made is None or made[0] is not radius or made[1] != eps:
            counts, radii = np.full(G, size), np.full(G, radius, dtype=float)
            if eps is not None:
                radii = radii + eps
            counts.setflags(write=False)
            radii.setflags(write=False)
            if len(self._arrays) >= 64:
                self._arrays.clear()
            made = self._arrays[G, size] = (radius, eps, counts, radii)
        return pts.reshape(G, size, n), made[2], made[3]

    def _assemble(self, X: np.ndarray, slack: float, group: int, eps: Optional[float] = None):
        """:meth:`_hulls` of any map.

        A row where one piece with a batched form holds takes that piece's
        row.  Rows where several pieces hold are taken by their pattern of
        active pieces, sorted out only when they have more than one: a
        pattern of pieces with batched forms is one pass (see
        :func:`_overlap`), and the other rows are merged through the
        per-point rule.  When every row then holds one point count and one
        radius, the rows go to :meth:`_concatenated` as one array.
        Otherwise the rows go to :func:`convexset.stack_of` as parts, and
        runs of them to :func:`convexset.merge_runs`.
        """
        m = X.shape[0]
        active = self._active(X, slack)
        held = active.sum(axis=1).tolist()  # rows on which each piece holds
        if sum(held) == m and m in held and self.pieces[held.index(m)].rows is not None:
            # one piece holds on every row and no other piece anywhere
            return self._concatenated(*self.pieces[held.index(m)].rows(X), group, eps)
        hits = active.sum(axis=0)
        if np.count_nonzero(hits) < m:
            x = X[np.argmin(hits)]
            raise NoMatchingPieceError(f"no piece matches at x={x.tolist()}")
        own = active & (hits == 1)  # the rows where each piece holds alone
        fills = []  # (rows, points, count, radius, shortfalls or None) of the rows, a pass or a merge each
        filled = 0
        for piece, mask in zip(self.pieces, own):
            if piece.rows is None:
                continue
            rows = mask.nonzero()[0]
            if rows.size:
                pts, r = piece.rows(X[rows])
                fills.append((rows, pts, pts.shape[1], float(r), None))
                filled += rows.size
        # what is left: rows where several pieces hold or a piece has no
        # batched form, taken by their pattern of active pieces
        merged = False  # some row took the per-point rule
        if filled < m:
            left = np.ones(m, dtype=bool)
            for rows, *_ in fills:
                left[rows] = False
            rest = np.flatnonzero(left)
            kinds = active[:, rest]
            if (kinds == kinds[:, :1]).all():  # one pattern on every row
                patterns = [(kinds[:, 0], rest)]
            else:
                distinct, which = np.unique(kinds, axis=1, return_inverse=True)
                patterns = [(pattern, rest[which.reshape(-1) == p]) for p, pattern in enumerate(distinct.T)]
            for pattern, rows in patterns:
                pieces = [self.pieces[k] for k in np.flatnonzero(pattern)]
                overlap = _overlap(pieces, X[rows])
                if overlap is not None:
                    fills.append((rows, *overlap))
                    continue
                merged = True
                for i in rows.tolist():
                    h = hull_union_many([piece.image(X[i]) for piece in pieces])
                    fills.append(([i], h.points[None], len(h.points), h.radius,
                                  None if h.shortfalls is None else h.shortfalls[None]))
        if (not merged and all(short is None for *_, short in fills)
                and len({(c, r, math.copysign(1.0, r)) for _, _, c, r, _ in fills}) == 1):
            # one point count and one radius, to its sign, on every row
            A = np.empty((m, *fills[0][1].shape[1:]))
            for rows, pts, *_ in fills:
                A[rows] = pts
            return self._concatenated(A, fills[0][3], group, eps)
        stack = stack_of(fills, m)
        if group > 1:
            stack = merge_runs(stack, group)
        return stack if eps is None else inflate_rows(stack, eps)

    def images(self, X, slack: float = 0.0) -> tuple:
        """The image at every row of an (m, n) array X in one pass.

        Returns a padded stack (see :mod:`convexset`) whose row i equals
        ``self.image(X[i], slack)`` bit for bit.
        """
        X = np.asarray(X, dtype=float).reshape(-1, self.dimension)
        return self._hulls(X, slack, 1)

    def ball_hulls(self, centers, radii, density: int, slack: float = 0.0) -> tuple:
        """:meth:`ball_hull` at every row of an (m, n) array of centers, with
        radius ``radii[i]`` for row i (or one radius for all), in one pass;
        returned as by :meth:`images`."""
        n = self.dimension
        offsets = _offsets(n, density, radii)
        X = np.asarray(centers, dtype=float).reshape(-1, 1, n) + offsets
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
    point."""
    L = unit_ball_lattice(dimension, density)
    if L.shape[0] == 0:
        raise ValueError(f"the {dimension}-D ball lattice of density {density} is empty")
    out = L * radius
    out.setflags(write=False)
    return out


def _offsets(dimension: int, density: int, radii) -> np.ndarray:
    """The argument-ball lattice offsets of radius ``radii``: one (L, n)
    array for one nonzero radius, else (m, L, n) with radius ``radii[i]``
    for row i."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim == 0 and radii != 0.0:  # the cache would not keep a zero's sign
        return _ball_offsets(dimension, density, float(radii))
    return _ball_offsets(dimension, density, 1.0) * radii.reshape(-1, 1, 1)


MarginFn = Union[float, Callable[[np.ndarray], float]]


def _margin_value(margin: MarginFn, x, what: Optional[str]) -> float:
    """The margin at x, refused unless it is positive and finite when
    ``what`` names it."""
    v = float(margin(np.asarray(x, dtype=float).reshape(-1))) if callable(margin) else float(margin)
    if what is not None and not 0.0 < v < math.inf:
        raise ValueError(f"{what} margin must be {'positive' if v <= 0.0 else 'finite'}, got {v} at x={x}")
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
        # (image margin, argument-ball offsets or None) when the margins are
        # constant: checked on first use, then reused
        self._resolved = None

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def margin_at(self, x) -> float:
        return _margin_value(self.margin, x, None if self.mode == "none" else "perturbation")

    def sense_margin_at(self, x) -> float:
        if self.sense_margin is None:
            return self.margin_at(x)
        return _margin_value(self.sense_margin, x, "sensing")

    def _margins(self, X: np.ndarray, sensing: bool):
        """:meth:`margin_at` (or :meth:`sense_margin_at`) at every row of X;
        one float, checked at the first row, when the margin is constant."""
        at = self.sense_margin_at if sensing else self.margin_at
        margin = self.sense_margin if sensing else self.margin
        return np.array([at(x) for x in X]) if callable(margin) else at(X[0])

    def _resolve(self, X: np.ndarray):
        """The image margins at the rows of X and, in mode strong, the
        argument-ball offsets (see :func:`_offsets`), whose radii are the
        image margins unless a sensing margin is set; kept for every later
        call when neither depends on the state."""
        eps, offsets = self._margins(X, False), None
        if self.mode == "strong":
            offsets = _offsets(self.base.dimension, self.density,
                               eps if self.sense_margin is None else self._margins(X, True))
        if not (callable(self.margin) or offsets is not None and callable(self.sense_margin)):
            self._resolved = (eps, offsets)
        return eps, offsets

    def images(self, X, slack: float = 0.0) -> tuple:
        """The perturbed image at every row of an (m, n) array X in one pass,
        returned as by :meth:`SetValuedMap.images`.  A constant image margin
        goes into the base map's cached radii and pattern table."""
        base = self.base
        X = np.asarray(X, dtype=float).reshape(-1, base.dimension)
        if self.mode == "none":
            return base.images(X, slack)
        eps, offsets = self._resolved or self._resolve(X)
        group = 1
        if offsets is not None:
            # strong: hull over each row's argument-ball lattice
            group = offsets.shape[-2]
            X = (X[:, None, :] + offsets).reshape(-1, base.dimension)
        if isinstance(eps, float):
            return base._hulls(X, slack, group, eps)
        return inflate_rows(base._hulls(X, slack, group), eps)

    def image(self, x, slack: float = 0.0) -> ConvexCompactSet:
        """The perturbed image at x: the one-row case of :meth:`images`."""
        return row_set(self.images(x, slack), 0)


def unperturbed(dynamics):
    """The base map of a :class:`PerturbedSystem`; any other map as it is."""
    return dynamics.base if isinstance(dynamics, PerturbedSystem) else dynamics
