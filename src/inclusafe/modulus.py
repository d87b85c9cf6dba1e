"""Factored continuity moduli for set-valued maps.

A modulus pair splits a bound on how far the image of a map can spread when
its argument is inflated by a ball into a step factor (a nondecreasing
function of the inflation radius, zero at zero) and a state factor (a
function of the evaluation point, at least one everywhere):

    F(x + delta*B)  inside  F(x) + step_gain(delta) * state_gain(x) * B.

The construction tabulates the extra image spread beyond the spread at the
origin on a logarithmic grid, splits its log into two one-variable
envelopes, and exponentiates.  All sampling is deterministic; the result is
intentionally conservative (validity is checked by ``verify_modulus``, not
tightness).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .convexset import ConvexCompactSet, hausdorff, hausdorff_rows, row_norms, support_rows, unit_directions
from .expressions import rows_of
from .numerics import box_array
from .svmap import unit_ball_lattice

__all__ = [
    "ModulusPair",
    "ModulusReport",
    "TabulatedFn",
    "local_gap",
    "build_modulus",
    "log_grid_steps",
    "verify_modulus",
]

#: log-value standing in for log(0) on the tabulated grid
LOG_FLOOR = -1e6

#: half-width of the log-grid of :func:`build_modulus` (radii e^-20 .. e^20)
LOG_RANGE = 20.0

#: argument-ball lattice rows per batched pass of :func:`build_modulus` and
#: :func:`verify_modulus` (64 samples of the 49-point 2-D verify lattice);
#: bounds their memory
_ROWS = 64 * 49

#: support directions sampled in n >= 2 by the spreads and the containment check
_DIRECTIONS = 64

#: argument-ball lattice density of :func:`local_gap` and :func:`verify_modulus`
_DENSITY = 9


@dataclass(frozen=True)
class TabulatedFn:
    """Piecewise-linear function given by sample arrays (clamped beyond)."""

    xs: np.ndarray
    ys: np.ndarray

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ys))

    def to_dict(self) -> dict:
        return {"xs": [float(v) for v in self.xs], "ys": [float(v) for v in self.ys]}

    @classmethod
    def from_dict(cls, d: dict) -> "TabulatedFn":
        return cls(np.asarray(d["xs"], dtype=float), np.asarray(d["ys"], dtype=float))


def local_gap(
    f_map,
    y,
    s: float,
    *,
    density: int = _DENSITY,
    directions: int = _DIRECTIONS,
    _origin_term: Optional[float] = None,
    _image: Optional[ConvexCompactSet] = None,
) -> float:
    """Extra image spread at y beyond the spread at the origin.

    ``|F(y + s*B) - F(y)|_H - |F(s*B) - F(0)|_H`` with both Hausdorff
    distances computed on argument-ball lattice hulls.  Zero for s = 0.
    Callers sweeping many radii pass the origin term and F(y) once.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    s = float(s)
    if s < 0.0:
        raise ValueError("ball radius s must be >= 0")
    if s == 0.0:
        return 0.0
    image = f_map.image(y) if _image is None else _image
    spread = hausdorff(f_map.ball_hull(y, s, density), image, directions=directions)
    if _origin_term is None:
        origin = np.zeros_like(y)
        _origin_term = hausdorff(f_map.ball_hull(origin, s, density), f_map.image(origin),
                                 directions=directions)
    return spread - _origin_term


class ModulusPair:
    """Factored spread bound ``step_gain(delta) * state_gain(x)``.

    Both factors are row functions: ``step_rows`` maps an array of radii
    and ``state_rows`` an (m, n) array of points to one value per entry
    (see :meth:`from_callables` for per-point callables).
    """

    def __init__(
        self,
        step_rows: Callable[[np.ndarray], np.ndarray],
        state_rows: Callable[[np.ndarray], np.ndarray],
        *,
        tables: Optional[dict] = None,
    ):
        self._step_rows = step_rows
        self.state_rows = state_rows
        self.tables = tables or {}
        self.degenerate = self.tables.get("kind") == "degenerate"
        self.flags = dict(self.tables.get("flags", {}))

    def step_gain(self, delta: float) -> float:
        d = float(delta)
        if d < 0.0:
            raise ValueError("inflation radius must be >= 0")
        if d == 0.0:
            return 0.0
        return float(self._step_rows(np.array([d]))[0])

    def state_gain(self, x) -> float:
        return float(self.state_rows(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def _bounds(self, xs: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """``step_gain(delta) * state_gain(x)`` at each row of xs and entry of
        deltas (all >= 0)."""
        return np.where(deltas > 0.0, self._step_rows(deltas), 0.0) * self.state_rows(xs)

    @classmethod
    def from_callables(cls, step_fn, state_fn, **kw) -> "ModulusPair":
        return cls(lambda ds: np.array([step_fn(d) if d > 0.0 else 0.0 for d in ds.tolist()], dtype=float),
                   rows_of(state_fn), **kw)

    # ------------------------------------------------------------------ #
    def to_tables(self) -> dict:
        if not self.tables:
            raise ValueError("this modulus pair carries no serialized tables")
        return self.tables

    @classmethod
    def from_tables(cls, tables: dict) -> "ModulusPair":
        """Rebuild a pair from serialized tables; its direct spread term is
        the linear interpolation of the ``direct`` table."""
        kind = tables.get("kind")
        if kind not in ("built", "degenerate"):
            raise ValueError(f"cannot rebuild modulus of kind {kind!r}")
        direct = TabulatedFn.from_dict(tables["direct"])
        return _pair(tables, lambda ds: np.interp(ds, direct.xs, direct.ys))


def _pair(tables: dict, direct_rows: Callable[[np.ndarray], np.ndarray]) -> ModulusPair:
    """The pair of these tables, given the direct spread term at an array
    of radii (a built pair evaluates it against the map, which is exact at
    the tabulated radii; a reloaded one interpolates its table).

    A degenerate pair's step factor is the direct term and its state factor
    is one.  Otherwise the growth is the exponentiated envelope (zero at
    radii up to e^-log_range), the step factor the larger of the growth and
    the direct term, and the state factor one plus the growth at |x|.
    """
    if tables["kind"] == "degenerate":
        return ModulusPair(direct_rows, lambda X: np.ones(len(X)), tables=tables)
    env = TabulatedFn.from_dict(tables["envelope"])
    cutoff = math.exp(-float(tables["log_range"]))

    def growth_rows(s: np.ndarray) -> np.ndarray:
        # math.log and math.exp per entry, as in build_modulus; a NaN
        # radius stays NaN
        out = np.zeros(len(s))
        live = ~(s <= cutoff)
        logs = np.interp([math.log(v) for v in s[live].tolist()], env.xs, env.ys)
        out[live] = [math.exp(v) for v in logs.tolist()]
        return out

    def step_rows(ds: np.ndarray) -> np.ndarray:
        g, v = growth_rows(ds), direct_rows(ds)
        return np.where(v > g, v, g)  # max(g, v), which keeps g unless v > g

    def state_rows(X: np.ndarray) -> np.ndarray:
        return growth_rows(row_norms(X)) + 1.0

    return ModulusPair(step_rows, state_rows, tables=tables)


def _bilinear(grid: np.ndarray, values: np.ndarray):
    """Clamped bilinear interpolation on a square log-grid."""
    lo, hi = float(grid[0]), float(grid[-1])
    step = float(grid[1] - grid[0])
    m = len(grid)

    def interp(a: float, b: float) -> float:
        a = min(max(a, lo), hi)
        b = min(max(b, lo), hi)
        ia = min(int((a - lo) / step), m - 2)
        ib = min(int((b - lo) / step), m - 2)
        ta = (a - (lo + ia * step)) / step
        tb = (b - (lo + ib * step)) / step
        v00 = values[ia, ib]
        v10 = values[ia + 1, ib]
        v01 = values[ia, ib + 1]
        v11 = values[ia + 1, ib + 1]
        return float(
            (1 - ta) * (1 - tb) * v00
            + ta * (1 - tb) * v10
            + (1 - ta) * tb * v01
            + ta * tb * v11
        )

    return interp


def log_grid_steps(log_step: float) -> int:
    """Steps of ``log_step`` from log radius 0 to :data:`LOG_RANGE`.

    Raises ValueError unless the step divides the range.
    """
    steps = LOG_RANGE / log_step
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError("LOG_RANGE must be an integer multiple of log_step")
    return int(round(steps))


#: ring points per ring radius of :func:`build_modulus` in n >= 2
_RING_POINTS = 8

#: width to which :func:`build_modulus` bisects its log-radius roots
_ROOT_TOL = 1e-6


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisect [lo, hi] down to :data:`_ROOT_TOL`, moving ``lo`` to each
    midpoint where ``f <= 0``, and return the last ``lo``."""
    while hi - lo > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def build_modulus(
    f_map,
    *,
    log_step: Optional[float] = None,
    density: Optional[int] = None,
) -> ModulusPair:
    """Construct a factored spread bound for the map by grid tabulation.

    Pipeline: tabulate the extra spread (cumulative max over nested rings,
    so the grid is monotone in both arguments by construction), rescale so
    the unit-cell value has positive log when possible, locate the radius
    where the unit-step spread crosses one, split the log-spread into two
    one-variable envelopes, and exponentiate.  Maps whose extra spread
    vanishes on the whole grid take a degenerate path: the step factor is
    the origin spread itself and the state factor is one.

    The spreads are the :func:`local_gap` values, taken in batched passes
    over every (ring radius, ring point, step radius) triple: each pass
    takes as many whole ring radii as fit :data:`_ROWS` argument-ball
    lattice rows, and at least one.
    """
    n = f_map.dimension
    if log_step is None:
        log_step = 0.5 if n == 1 else 1.0
    if density is None:
        density = 9 if n == 1 else 5

    count = 2 * log_grid_steps(log_step) + 1
    grid = np.linspace(-LOG_RANGE, LOG_RANGE, count)
    # math.exp and math.log per entry: numpy's exp and log round some
    # entries differently at its AVX-512 level
    radii = np.array([math.exp(g) for g in grid.tolist()])
    flags: dict = {}

    ring = unit_directions(n, _RING_POINTS)
    f0 = f_map.images(np.zeros(n))

    def direct_rows(ds: np.ndarray) -> np.ndarray:
        """The direct spread term |F(s*B) - F(0)|_H at each radius s > 0."""
        return hausdorff_rows(f_map.ball_hulls(np.zeros((len(ds), n)), ds, density), f0,
                              directions=_DIRECTIONS)

    direct_vals = direct_rows(radii)

    # raw extra spread at ring radius i, step radius j: row
    # (i' * len(ring) + k) * count + j of a pass is its i'-th ring radius,
    # ring point k and step radius j (ball_hulls refuses an empty lattice)
    per_pass = max(1, _ROWS // (len(ring) * count * max(1, len(unit_ball_lattice(n, density)))))
    raw = np.zeros((count, count))
    for lo in range(0, count, per_pass):
        rs = radii[lo:lo + per_pass]
        ys = (rs[:, None, None] * ring).reshape(-1, n)
        spread = hausdorff_rows(f_map.ball_hulls(ys.repeat(count, axis=0), np.tile(radii, len(ys)), density),
                                f_map.images(ys), directions=_DIRECTIONS)
        gaps = spread.reshape(len(rs), len(ring), count) - direct_vals
        raw[lo:lo + len(rs)] = np.maximum(raw[lo:lo + len(rs)], gaps.max(axis=1))

    # nested-ring cumulative max: monotone in both arguments, >= 0 since the
    # origin ring contributes zero
    M = np.maximum.accumulate(np.maximum.accumulate(np.maximum(raw, 0.0), axis=0), axis=1)

    direct_scale = 1.0 + float(direct_vals.max())
    direct_tab = TabulatedFn(
        np.concatenate([[0.0], radii]), np.concatenate([[0.0], direct_vals])
    )

    if M.max() <= 1e-10 * direct_scale:
        tables = {
            "kind": "degenerate",
            "log_range": LOG_RANGE,
            "direct": direct_tab.to_dict(),
            "flags": {"degenerate": True},
        }
        return _pair(tables, direct_rows)

    # rescale so the unit-cell log value is positive when possible
    i0 = count // 2  # grid index of log radius 0
    scale = 1.0
    beta_unit = M[i0, i0]
    if beta_unit <= 1.0 and beta_unit > 0.0:
        scale = 2.0 / beta_unit
        M = M * scale
        flags["rescaled"] = scale

    C = np.array([[math.log(m) if m > 0.0 else LOG_FLOOR for m in row] for row in M.tolist()])
    c_at = _bilinear(grid, C)
    A = LOG_RANGE

    # onset: largest log radius where the unit-step log spread is still <= 0
    f_lo, f_hi = c_at(-A, 0.0), c_at(A, 0.0)
    if f_lo > 0.0:
        onset = -A
        flags["onset_clamped_low"] = True
    elif f_hi <= 0.0:
        onset = A
        flags["onset_clamped_high"] = True
    else:
        onset = _bisect(lambda a: c_at(a, 0.0), -A, A)

    # root table: for a <= onset, the radius where c(a, b) = -b
    def onset_root(a: float) -> float:
        def q(b):
            return c_at(a, b) + b

        hi_b = 2.0 * A
        if q(hi_b) < 0.0:
            flags["root_clamped"] = True
            return hi_b
        if q(-A) > 0.0:
            return 0.0
        return max(_bisect(q, -A, hi_b), 0.0)

    mask = grid <= onset + 1e-12
    root_xs = grid[mask]
    root_ys = np.array([onset_root(a) for a in root_xs])
    for i in range(1, len(root_ys)):  # enforce the nonincreasing shape
        root_ys[i] = min(root_ys[i], root_ys[i - 1])
    root_tab = TabulatedFn(root_xs, root_ys) if len(root_xs) else TabulatedFn(
        np.array([-A]), np.array([0.0])
    )

    # split the log spread into envelopes attributed to the evaluation radius
    # (arg_exp) and to the step radius (step_exp)
    c_diag_onset = c_at(onset, onset)
    arg_exp = np.empty(count)
    for i, a in enumerate(grid):
        if a <= onset:
            arg_exp[i] = -0.5 * root_tab(a)
        else:
            arg_exp[i] = c_at(a, a) - c_diag_onset + (a - onset)

    step_exp = np.empty(count)
    endpoint_warn = False
    for j in range(count):
        cand = C[:, j] - arg_exp
        step_exp[j] = float(cand.max())
        if step_exp[j] - max(cand[0], cand[-1]) < 10.0 and step_exp[j] > LOG_FLOOR / 2:
            endpoint_warn = True
    if endpoint_warn:
        flags["sup_endpoint_warning"] = True

    tables = {
        "kind": "built",
        "log_range": LOG_RANGE,
        "grid": [float(v) for v in grid],
        "log_gap": [[float(v) for v in row] for row in C],
        "onset": float(onset),
        "scale": float(scale),
        "onset_root": root_tab.to_dict(),
        "arg_exponent": TabulatedFn(grid, arg_exp).to_dict(),
        "step_exponent": TabulatedFn(grid, step_exp).to_dict(),
        "envelope": TabulatedFn(grid, np.maximum(arg_exp, step_exp)).to_dict(),
        "direct": direct_tab.to_dict(),
        "flags": dict(flags),
    }
    return _pair(tables, direct_rows)


@dataclass
class ModulusReport:
    """Outcome of a sampled containment verification."""

    passed: bool
    min_slack: float
    worst: Optional[dict] = None
    samples: int = 0

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_slack": self.min_slack,
            "worst": self.worst,
            "samples": self.samples,
        }


#: slack below zero that :func:`verify_modulus` still passes
_PASS_TOL = 1e-9


def verify_modulus(
    f_map,
    pair: ModulusPair,
    box,
    *,
    samples: int = 1000,
    delta_max: float = 1.0,
    seed: int = 0,
) -> ModulusReport:
    """Sampled containment check F(x + delta*B) in F(x) + bound * B.

    Draws (x, delta) pairs from the box and (0, delta_max], compares sampled
    support values of the inflated-argument hull against the base image plus
    the modulus bound, and records the worst slack.  The hulls, images and
    bounds of each block of samples come from one batched pass; a block
    holds as many samples as fit :data:`_ROWS` argument-ball lattice rows
    (64 in 2-D, 348 in 1-D), and at least one.
    """
    b = box_array(box)
    n = b.shape[0]
    rng = np.random.default_rng(seed)
    dirs = unit_directions(n, _DIRECTIONS)
    # row k is sample k's x, then its delta: the stream order of one
    # uniform(box) and one uniform(0, delta_max) call per sample
    draws = rng.uniform(np.append(b[:, 0], 0.0), np.append(b[:, 1], delta_max), (samples, n + 1))
    xs, deltas = draws[:, :n], draws[:, n]
    block = max(1, _ROWS // len(unit_ball_lattice(n, _DENSITY)))
    min_slack = math.inf
    worst = None
    for lo in range(0, samples, block):
        x, delta = xs[lo:lo + block], deltas[lo:lo + block]
        base = support_rows(f_map.images(x), dirs)
        big = support_rows(f_map.ball_hulls(x, delta, _DENSITY), dirs)
        flat = delta <= 0.0  # a zero-radius ball: the hull is F(x) itself
        big[flat] = base[flat]
        slacks = (base + pair._bounds(x, delta)[:, None] - big).min(axis=1)
        # the first least slack, as a sequential strict < would pick it; a
        # NaN slack is never taken
        k = int(np.argmin(np.where(np.isnan(slacks), np.inf, slacks)))
        if slacks[k] < min_slack:
            min_slack = float(slacks[k])
            worst = {"x": [float(v) for v in x[k]], "delta": float(delta[k]), "slack": min_slack}
    return ModulusReport(
        passed=bool(min_slack >= -_PASS_TOL),
        min_slack=float(min_slack),
        worst=worst,
        samples=samples,
    )
