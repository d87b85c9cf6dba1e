"""Barrier candidates, safety scenarios, and boundary extraction.

A barrier candidate is a scalar function B with a gradient oracle and a
declared smoothness tag.  The zero sublevel set K = {B <= 0} separates the
initial set from the unsafe set when the candidate sign check passes; the
numeric boundary of K is extracted as a grid of cells with refined
representative points.  Generalized (Clarke) gradients are computed by
sampling gradients near the point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .convexset import ConvexCompactSet, unit_directions
from .numerics import box_array, box_grid, grid_axes, scale_box
from .reports import FAIL, PASS, CheckReport
from . import expressions

__all__ = [
    "Tolerances",
    "BarrierCandidate",
    "SafetyScenario",
    "BoundaryCell",
    "BoundaryGrid",
    "candidate_check",
    "boundary_extract",
    "clarke_gradient",
    "collar_width",
    "UnsupportedSmoothnessError",
    "SingularPointError",
    "EmptySampleError",
    "EmptyBoundaryError",
    "SMOOTHNESS_TAGS",
]

SMOOTHNESS_TAGS = ("C2", "C1", "lipschitz", "lsc", "usc")


class UnsupportedSmoothnessError(ValueError):
    """Operation undefined for the candidate's declared smoothness tag."""


class SingularPointError(ValueError):
    """Gradient queried on the declared singular set."""


class EmptySampleError(ValueError):
    """A required sample set is empty inside the domain box."""


class EmptyBoundaryError(ValueError):
    """No sign change of B found on the grid."""


@dataclass
class Tolerances:
    """Numeric tolerances shared by the checks.

    tol            slack for non-strict inequality checks
    tol_strict     margin a strict inequality must clear to count as satisfied
    tol_boundary   |B| threshold for refined boundary representatives
    interface_slack  axis probe distance when evaluating images at piece
                     interfaces (covers boundary placement error)
    collar_cells   collar width in units of boundary cell diameters
    collar_width   explicit collar width override (None = use collar_cells)
    clarke_radius_scale  sampling radius factor: rho = scale * (1 + |x|)
    clarke_samples       gradient samples per Clarke evaluation
    """

    tol: float = 1e-9
    tol_strict: float = 1e-6
    tol_boundary: float = 1e-8
    interface_slack: float = 1e-6
    collar_cells: float = 2.0
    collar_width: Optional[float] = None
    clarke_radius_scale: float = 1e-3
    clarke_samples: int = 64

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "tol_strict": self.tol_strict,
            "tol_boundary": self.tol_boundary,
            "interface_slack": self.interface_slack,
            "collar_cells": self.collar_cells,
            "collar_width": self.collar_width,
            "clarke_radius_scale": self.clarke_radius_scale,
            "clarke_samples": self.clarke_samples,
        }


class BarrierCandidate:
    """Scalar candidate B with gradient oracle and smoothness tag."""

    def __init__(
        self,
        value: Callable[[np.ndarray], float],
        gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        smoothness: str = "C2",
        singular: Optional[Callable[[np.ndarray], bool]] = None,
        name: str = "",
    ):
        if smoothness not in SMOOTHNESS_TAGS:
            raise ValueError(f"smoothness must be one of {SMOOTHNESS_TAGS}, got {smoothness!r}")
        if smoothness in ("C1", "C2") and singular is not None:
            raise ValueError("C1/C2 candidates cannot declare a singular set")
        self.value = value
        self.gradient = gradient
        self.smoothness = smoothness
        self.singular = singular
        self.name = name

    @property
    def is_c1(self) -> bool:
        return self.smoothness in ("C1", "C2")

    def value_at(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float).reshape(-1)))

    def value_rows(self, X) -> np.ndarray:
        """:meth:`value_at` at every row of an (m, n) array, in one batched
        call when the value was compiled from an expression."""
        return expressions.rows_of(self.value)(np.asarray(X, dtype=float))

    def is_singular(self, x) -> bool:
        return self.singular is not None and bool(self.singular(np.asarray(x, dtype=float).reshape(-1)))

    def gradient_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if self.gradient is None:
            raise UnsupportedSmoothnessError(f"candidate {self.name!r} has no gradient oracle")
        if self.is_singular(x):
            raise SingularPointError(f"gradient queried on the singular set at x={x.tolist()}")
        return np.asarray(self.gradient(x), dtype=float).reshape(-1)

    def finite_difference_rows(self, X, h: float) -> np.ndarray:
        """Central-difference gradient at every row of an (m, n) array, from
        one :meth:`value_rows` call over the probes x + h*e_i and x - h*e_i
        (full offset vectors, so a -0.0 coordinate probes as +0.0)."""
        X = np.asarray(X, dtype=float)
        m, n = X.shape
        E = h * np.eye(n)
        probes = np.concatenate([X[:, None, :] + E, X[:, None, :] - E], axis=1)
        v = self.value_rows(probes.reshape(-1, n)).reshape(m, 2, n)
        return (v[:, 0] - v[:, 1]) / (2.0 * h)

    @classmethod
    def from_config(cls, cfg: dict, dimension: int) -> "BarrierCandidate":
        value = expressions.scalar_fn(cfg["value"], dimension)
        gradient = None
        if "gradient" in cfg and cfg["gradient"] is not None:
            gradient = expressions.vector_fn(cfg["gradient"], dimension)
        singular = None
        if cfg.get("singular"):
            singular = expressions.predicate_fn(cfg["singular"], dimension)
        return cls(
            value,
            gradient,
            cfg.get("smoothness", "C2"),
            singular,
            cfg.get("name", ""),
        )


class SafetyScenario:
    """A verification problem: dynamics, candidate, sets, domain box, grid."""

    def __init__(
        self,
        name: str,
        dynamics,
        barrier: BarrierCandidate,
        initial: Callable[[np.ndarray], bool],
        unsafe: Callable[[np.ndarray], bool],
        box,
        resolution,
        tolerances: Optional[Tolerances] = None,
        depth: Optional[Callable[[np.ndarray], float]] = None,
        boundary_points: Optional[np.ndarray] = None,
    ):
        self.name = name
        self.dynamics = dynamics
        self.barrier = barrier
        self.initial = initial
        self.unsafe = unsafe
        self.box = box_array(box)
        res = np.broadcast_to(np.asarray(resolution, dtype=int), (self.box.shape[0],))
        self.resolution = tuple(int(r) for r in res)
        self.tolerances = tolerances if tolerances is not None else Tolerances()
        self.depth = depth
        self.boundary_points = boundary_points
        self._grid = None

    @property
    def dimension(self) -> int:
        return self.box.shape[0]

    def axes(self) -> list[np.ndarray]:
        return grid_axes(self.box, self.resolution)

    def grid(self) -> np.ndarray:
        if self._grid is None:
            self._grid = box_grid(self.box, self.resolution)
        return self._grid

    def initial_samples(self) -> np.ndarray:
        g = self.grid()
        return g[expressions.rows_of(self.initial, bool)(g)]

    def unsafe_samples(self) -> np.ndarray:
        g = self.grid()
        return g[expressions.rows_of(self.unsafe, bool)(g)]

    def scaled(self, factor: float) -> "SafetyScenario":
        """Copy of the scenario on a box shrunk/grown about its center."""
        out = SafetyScenario(
            self.name,
            self.dynamics,
            self.barrier,
            self.initial,
            self.unsafe,
            scale_box(self.box, factor),
            self.resolution,
            self.tolerances,
            self.depth,
            self.boundary_points,
        )
        return out

    def validate(self):
        """Raise when sampled initial and unsafe sets overlap, or when B is
        undefined at a grid node: its evaluation raises or is not finite."""
        g = self.grid()
        both = expressions.rows_of(self.initial, bool)(g) & expressions.rows_of(self.unsafe, bool)(g)
        if both.any():
            raise ValueError(
                f"initial and unsafe sets overlap at sampled point {g[both.argmax()].tolist()}"
            )
        bar = self.barrier
        expression = getattr(bar.value, "expression", None)
        label = f"barrier {bar.name or 'B'}" + (f" = {expression}" if expression else "")
        try:
            with np.errstate(all="ignore"):
                values = bar.value_rows(g)
        except (ArithmeticError, ValueError, TypeError) as e:
            raise ValueError(f"{label} is undefined on the grid: {e}") from e
        bad = ~np.isfinite(values)
        if bad.any():
            raise ValueError(f"{label} is not finite at grid node {g[bad.argmax()].tolist()}")


@dataclass(frozen=True)
class BoundaryCell:
    """Axis-aligned box around one sign-change edge of the grid."""

    lower: np.ndarray
    upper: np.ndarray
    representatives: np.ndarray  # (k, n) refined points with |B| <= tol_boundary
    diameter: float

    def contains_point(self, x, slack: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(x >= self.lower - slack) and np.all(x <= self.upper + slack))


@dataclass
class BoundaryGrid:
    """All sign-change cells of B over the scenario grid."""

    cells: list
    spacing: np.ndarray
    diameter: float

    @property
    def representatives(self) -> np.ndarray:
        return np.vstack([c.representatives for c in self.cells])


# ---------------------------------------------------------------------- #
def candidate_check(scenario: SafetyScenario) -> CheckReport:
    """Sign check: B <= 0 on sampled initial points, B > 0 on sampled unsafe
    points.  Fails with the worst violating sample."""
    tol = scenario.tolerances
    initial = scenario.initial_samples()
    unsafe = scenario.unsafe_samples()
    if initial.shape[0] == 0:
        raise EmptySampleError("no sampled points of the initial set inside the domain box")
    if unsafe.shape[0] == 0:
        raise EmptySampleError("no sampled points of the unsafe set inside the domain box")

    b_init = scenario.barrier.value_rows(initial)
    b_unsafe = scenario.barrier.value_rows(unsafe)

    worst_init = float(b_init.max())
    worst_unsafe = float(b_unsafe.min())
    margin = min(-worst_init, worst_unsafe)
    ok = worst_init <= tol.tol and worst_unsafe > tol.tol_strict
    if ok:
        witness = None
    elif worst_init > tol.tol:
        witness = tuple(initial[int(np.argmax(b_init))])
    else:
        witness = tuple(unsafe[int(np.argmin(b_unsafe))])
    return CheckReport(
        check_id="candidate-signs",
        verdict=PASS if ok else FAIL,
        margin=margin,
        witness=witness,
        samples=int(initial.shape[0] + unsafe.shape[0]),
        tolerances={"tol": tol.tol, "tol_strict": tol.tol_strict},
        flags={"initial_samples": int(initial.shape[0]), "unsafe_samples": int(unsafe.shape[0])},
    )


#: bisection steps after which :func:`_refine_edges` gives up on a segment
_REFINE_STEPS = 200


def _refine_edges(value_rows, a, b, va, vb, tol_b) -> np.ndarray:
    """Bisect every segment a[i] -> b[i] for a point with |B| <= tol_b, all
    segments in lockstep, each with the arithmetic of bisecting it alone.

    Orientation: B(a[i]) <= 0 < B(b[i]).  An end within tol_b is the point
    itself; a segment that finds none in :data:`_REFINE_STEPS` steps keeps
    its last midpoint.
    """
    near_a, near_b = np.abs(va) <= tol_b, np.abs(vb) <= tol_b
    out = np.where((~near_a & near_b)[:, None], b, a)
    live = np.flatnonzero(~near_a & ~near_b)
    lo, hi = a[live], b[live]
    for _ in range(_REFINE_STEPS):
        if not live.size:
            break
        mid = 0.5 * (lo + hi)
        out[live] = mid
        vm = value_rows(mid)
        left = vm <= 0.0
        lo[left] = mid[left]
        hi[~left] = mid[~left]
        going = ~(np.abs(vm) <= tol_b)
        live, lo, hi = live[going], lo[going], hi[going]
    return out


def boundary_extract(scenario: SafetyScenario) -> BoundaryGrid:
    """Locate the numeric boundary of K = {B <= 0} on the scenario grid.

    Scans every grid edge for a sign change of B and refines a representative
    root on each such edge to |B| <= tol_boundary.  Requires a continuous
    candidate (tag C2/C1/lipschitz); semicontinuous-only candidates must ship
    explicit boundary points with the scenario.
    """
    tol = scenario.tolerances
    bar = scenario.barrier
    if bar.smoothness in ("lsc", "usc"):
        if scenario.boundary_points is None:
            raise UnsupportedSmoothnessError(
                "boundary extraction needs a continuous candidate; supply explicit "
                "boundary_points for semicontinuous tags"
            )
        pts = np.atleast_2d(np.asarray(scenario.boundary_points, dtype=float))
        spacing = (scenario.box[:, 1] - scenario.box[:, 0]) / (np.array(scenario.resolution) - 1)
        diam = float(np.linalg.norm(spacing))
        cells = [
            BoundaryCell(p - spacing / 2.0, p + spacing / 2.0, p.reshape(1, -1), diam)
            for p in pts
        ]
        return BoundaryGrid(cells, spacing, diam)

    axes = scenario.axes()
    shape = tuple(len(a) for a in axes)
    values = bar.value_rows(scenario.grid()).reshape(shape)
    inside = values <= 0.0

    spacing = np.array([a[1] - a[0] for a in axes])
    n = len(axes)
    half = spacing / 2.0
    # every sign-change edge (u, v = u + one step along an axis), by axis
    # and then in C order
    iu, iv, step = [], [], []
    for axis in range(n):
        sl_lo = [slice(None)] * n
        sl_hi = [slice(None)] * n
        sl_lo[axis] = slice(0, shape[axis] - 1)
        sl_hi[axis] = slice(1, shape[axis])
        idx = np.argwhere(inside[tuple(sl_lo)] != inside[tuple(sl_hi)])
        iu.append(idx)
        iv.append(idx + np.eye(n, dtype=int)[axis])
        step += [axis] * len(idx)
    iu, iv = np.vstack(iu), np.vstack(iv)
    u = np.column_stack([axes[k][iu[:, k]] for k in range(n)])
    v = np.column_stack([axes[k][iv[:, k]] for k in range(n)])
    vu, vv = values[tuple(iu.T)], values[tuple(iv.T)]
    flip = ~(vu <= 0.0)
    reps = _refine_edges(bar.value_rows, np.where(flip[:, None], v, u), np.where(flip[:, None], u, v),
                         np.where(flip, vv, vu), np.where(flip, vu, vv), tol.tol_boundary)
    # a cell spans its edge along the edge's axis, and half a spacing to
    # either side along the others
    along = np.arange(n) == np.array(step, dtype=int)[:, None]
    lower = np.where(along, np.minimum(u, v), np.minimum(u, v) - half)
    upper = np.where(along, np.maximum(u, v), np.maximum(u, v) + half)
    cells = [
        BoundaryCell(lower[i], upper[i], reps[i:i + 1], float(np.linalg.norm(upper[i] - lower[i])))
        for i in range(len(step))
    ]
    if not cells:
        raise EmptyBoundaryError("no sign change of B on the grid; boundary not found")
    diam = max(c.diameter for c in cells)
    return BoundaryGrid(cells, spacing, diam)


# ---------------------------------------------------------------------- #
def clarke_gradient(
    bar: BarrierCandidate,
    x,
    radius: Optional[float] = None,
    samples: Optional[int] = None,
) -> ConvexCompactSet:
    """Sampled generalized gradient: hull of gradients near x.

    For C1/C2 candidates this is the exact singleton {grad B(x)}.  Otherwise
    gradients are collected at deterministic points of the ball x + radius*B
    (directions times radial fractions), skipping the declared singular set.
    Candidates without a gradient oracle use central differences with a step
    below the innermost sample offset, so kinks between samples are never
    straddled.  Default radius is 1e-3 * (1 + |x|).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if bar.is_c1:
        return ConvexCompactSet.singleton(bar.gradient_at(x))
    if bar.smoothness != "lipschitz":
        raise UnsupportedSmoothnessError(
            f"generalized gradient sampling needs a (locally) Lipschitz tag, got {bar.smoothness!r}"
        )
    if radius is None:
        radius = 1e-3 * (1.0 + float(np.linalg.norm(x)))
    if samples is None:
        samples = 64
    n = x.shape[0]
    dirs = unit_directions(n, min(samples, 64))
    per_dir = max(1, int(math.ceil(samples / dirs.shape[0])))
    ball = [x + radius * (k / per_dir) * d for d in dirs for k in range(1, per_dir + 1)]
    pts = [p for p in ball + [x] if not bar.is_singular(p)]
    if not pts:
        raise SingularPointError(
            f"all gradient samples near x={x.tolist()} hit the singular set"
        )
    if bar.gradient is not None:
        return ConvexCompactSet(np.vstack([bar.gradient_at(p) for p in pts]), 0.0)
    # central differences at every sample from one batched evaluation of B
    fd_step = min(1e-6, 0.25 * radius / per_dir)
    return ConvexCompactSet(bar.finite_difference_rows(np.vstack(pts), fd_step), 0.0)


def collar_width(scenario: SafetyScenario, grid: BoundaryGrid) -> float:
    """Neighborhood width around the boundary used by the collar checks."""
    tol = scenario.tolerances
    if tol.collar_width is not None:
        return float(tol.collar_width)
    return float(tol.collar_cells) * grid.diameter
