"""Sampled barrier-condition checks and perturbation-margin synthesis.

Every check is one inequality: -support(F(x), zeta) > 0 for each gradient
object zeta of B at each x of a region derived from the numeric boundary of
K = {B <= 0}: the boundary representatives themselves, an outer collar
(outside K only), or a two-sided collar.  One table, ``CHECKS``, describes
each check and one sampling kernel evaluates every row; it and margin
synthesis read the same (sample, zeta) pairs through one support kernel,
``convexset.support_pairs``.  Verdicts are "pass-numeric" (sampled
condition held at tolerance; no formal claim), "fail" (violating sample
found; witness recorded), or "inconclusive" (positive margin that shrinks
markedly on nested domain boxes).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .barrier import (
    SMOOTHNESS_TAGS,
    BarrierCandidate,
    BoundaryGrid,
    GradientOracleError,
    SafetyScenario,
    SingularPointError,
    UnsupportedSmoothnessError,
    boundary_extract,
    clarke_gradient,
    collar_width,
)
from .convexset import inflate_rows, row_norms, row_set, support_pairs
from .numerics import largest_feasible_rows
from .reports import FAIL, INCONCLUSIVE, PASS, CheckReport
from .svmap import unperturbed

__all__ = [
    "CANNOT_RUN",
    "CHECKS",
    "MARGIN_SMOOTHNESS",
    "CheckReport",
    "CheckSpec",
    "MarginSynthesis",
    "PreconditionError",
    "DegenerateGradientError",
    "check_nominal",
    "check_robust_strict",
    "check_clarke",
    "check_uniform_unweighted",
    "check_uniform_weighted",
    "synthesize_margin",
]


class PreconditionError(ValueError):
    """A check's structural precondition fails on the sampled grid."""


class DegenerateGradientError(ValueError):
    """Gradient norm vanishes where a normalized quotient is required."""


# what a check raises when it cannot run on the scenario as configured
CANNOT_RUN = (PreconditionError, DegenerateGradientError, UnsupportedSmoothnessError,
              SingularPointError, GradientOracleError)


@dataclass(frozen=True)
class CheckSpec:
    """One row of the check table.

    check_id    report id, also the name ``verify --check`` takes
    function    the public function of this module that runs the check
    region      "boundary", "outer-collar" or "two-sided-collar"
    zeta        what F(x) is paired with: "gradient" or "clarke-vertices"
    normalized  divide -support(F(x), zeta) by |zeta|
    flags       report flags besides the region
    commands    CLI commands that run the check without ``--check``
    smoothness  candidate tags the check is meant for (a "gradient" row also
                needs an oracle): the CLI runs it unasked only on these, and
                the weighted variants refuse any other
    """

    check_id: str
    function: str
    region: str
    zeta: str
    normalized: bool = False
    flags: dict = field(default_factory=dict)
    commands: tuple = ()
    smoothness: tuple = ()

    @property
    def variant(self) -> Optional[str]:
        return self.flags.get("variant")

    def suits(self, bar: BarrierCandidate) -> bool:
        return bar.smoothness in self.smoothness and (
            self.zeta != "gradient" or bar.gradient is not None
        )


_UNASKED = ("verify", "all")

CHECKS = {spec.check_id: spec for spec in (
    CheckSpec("nominal-nonincrease", "check_nominal", "outer-collar", "gradient",
              commands=_UNASKED, smoothness=SMOOTHNESS_TAGS),
    CheckSpec("robust-strict", "check_robust_strict", "boundary", "gradient",
              commands=_UNASKED, smoothness=SMOOTHNESS_TAGS),
    CheckSpec("clarke-strict", "check_clarke", "boundary", "clarke-vertices",
              flags={"gradient": "clarke-vertices"}, commands=_UNASKED,
              smoothness=("lipschitz",)),
    CheckSpec("uniform-plain", "check_uniform_unweighted", "boundary", "gradient", True,
              flags={"normalized": True}, commands=_UNASKED,
              smoothness=("C2", "C1", "lipschitz")),
    CheckSpec("uniform-weighted-c1", "check_uniform_weighted", "boundary", "gradient", True,
              flags={"variant": "C1"}, commands=("all",), smoothness=("C2", "C1")),
    CheckSpec("uniform-weighted-c2", "check_uniform_weighted", "boundary", "clarke-vertices",
              True, flags={"variant": "C2"}, smoothness=("C2", "C1", "lipschitz")),
    # the proximal subgradient of a C2 candidate is the gradient singleton
    # (semicontinuous tags use the oracle); C4's <-zeta, F> for zeta in the
    # proximal subgradient of -B is C3's number, on a separated unsafe set
    CheckSpec("uniform-weighted-c3", "check_uniform_weighted", "two-sided-collar", "gradient",
              True, flags={"variant": "C3"}, smoothness=("C2", "lsc", "usc")),
    CheckSpec("uniform-weighted-c4", "check_uniform_weighted", "two-sided-collar", "gradient",
              True, flags={"variant": "C4"}, smoothness=("C2", "lsc", "usc")),
)}

_WEIGHTED = {spec.variant: spec for spec in CHECKS.values() if spec.variant}

_COLLAR_FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.1, 0.01, 1e-3)

# box scales of the nested infima a weighted check compares its margin with
_NESTED_SCALES = (0.25, 0.5)


def _slack(scenario: SafetyScenario) -> float:
    return scenario.tolerances.interface_slack


def _collar_points(scenario: SafetyScenario, grid: BoundaryGrid, region: str) -> np.ndarray:
    """Points near the boundary: offsets along the outward normal, as rows.

    region="outer-collar" keeps only points with B > 0 (outside K);
    "two-sided-collar" keeps both signs and includes the representatives
    themselves.  A representative where the gradient oracle raises, or
    where |grad B| < 1e-12, has no normal and contributes no point.
    """
    outer = region == "outer-collar"
    width = collar_width(scenario, grid)
    floor = max(10.0 * _slack(scenario), 1e-12)
    offsets = [width * f for f in _COLLAR_FRACTIONS if width * f >= floor]
    if not offsets:
        offsets = [max(width, floor)]
    bar = scenario.barrier
    reps = grid.representatives
    try:
        G = bar.gradient_rows(reps)
    except Exception:
        # one representative at a time; a zero row marks one that raises
        G = np.zeros_like(reps)
        for i, x in enumerate(reps):
            try:
                G[i] = bar.gradient_rows(x[None])[0]
            except Exception:
                pass
    norms = row_norms(G)
    keep = ~(norms < 1e-12)
    reps, nu = reps[keep], G[keep] / norms[keep, None]
    # per representative: itself (two-sided), then rep + (sgn * t) * nu for
    # each sign and then each offset
    steps = np.array([sgn * t for sgn in ((1.0,) if outer else (1.0, -1.0)) for t in offsets])
    pts = reps[:, None, :] + steps[:, None] * nu[:, None, :]
    if not outer:
        pts = np.concatenate([reps[:, None, :], pts], axis=1)
    pts = pts.reshape(-1, reps.shape[1])
    return pts[~(bar.value_rows(pts) <= 0.0)] if outer else pts


def _clarke_vertices(scenario: SafetyScenario, x) -> np.ndarray:
    tol = scenario.tolerances
    radius = tol.clarke_radius_scale * (1.0 + float(np.linalg.norm(x)))
    return clarke_gradient(scenario.barrier, x, radius, tol.clarke_samples).points


def _pairs(scenario: SafetyScenario, region, zeta: str):
    """Every (sample, zeta) pair of a region, sample by sample: each pair's
    sample index, its zeta, and |zeta| (:func:`row_norms`).

    Where zeta is the gradient, including the Clarke singleton of a C1/C2
    candidate, the whole column comes from one ``gradient_rows`` call; only
    the sampled Clarke vertices of other tags are taken point by point."""
    bar = scenario.barrier
    if zeta == "gradient" or bar.is_c1:
        zetas = bar.gradient_rows(region)
        if zeta != "gradient" and not np.isfinite(zetas).all():
            raise ValueError("points must be finite")  # as the singleton set would
        return np.arange(len(zetas)), zetas, row_norms(zetas)
    sets = [_clarke_vertices(scenario, x) for x in region]
    zetas = np.vstack(sets)
    return np.repeat(np.arange(len(sets)), [len(z) for z in sets]), zetas, row_norms(zetas)


class _Minimum(NamedTuple):
    """A sampled check's least pair: its value, sample and velocity, and the
    number of pairs sampled."""

    value: float
    point: Optional[tuple]
    velocity: Optional[tuple]
    count: int


def _sample(spec: CheckSpec, scenario: SafetyScenario, grid: BoundaryGrid, system=None,
            gain=None) -> _Minimum:
    """Least -support(F(x), zeta) over the row's (sample, zeta) pairs.

    Normalized rows divide by |zeta|; a ``gain`` (a row function, such as
    :meth:`ModulusPair.state_rows`) divides each sample's rows by
    1 + gain(x).
    The least value wins, ties go to the lexicographically least sample and
    then to the first pair, and a NaN or +inf value never wins.  The images
    of the whole region come from one batched evaluation.
    """
    provider = scenario.dynamics if system is None else system
    region = grid.representatives if spec.region == "boundary" else _collar_points(scenario, grid, spec.region)
    if not len(region):
        return _Minimum(math.inf, None, None, 0)
    rep, zetas, norms = _pairs(scenario, region, spec.zeta)
    stack = provider.images(region, _slack(scenario))
    value = -support_pairs(stack, rep, zetas, norms)
    if spec.normalized:
        if (norms < 1e-12).any():
            raise DegenerateGradientError("gradient norm below 1e-12 in normalized check")
        value /= norms
    if gain is not None:
        value /= (1.0 + gain(region))[rep]
    best = np.lexsort((*region[rep].T[::-1], value))[0]
    if not value[best] < math.inf:
        return _Minimum(math.inf, None, None, len(rep))
    i, z = rep[best], zetas[best]
    velocity = row_set(stack, i).extreme_point(z)
    return _Minimum(float(value[best]), tuple(region[i].tolist()), tuple(velocity.tolist()), len(rep))


def _report(spec: CheckSpec, least: _Minimum, verdict: str, tolerances: dict, **extra) -> CheckReport:
    failed = verdict != PASS
    return CheckReport(
        check_id=spec.check_id,
        verdict=verdict,
        margin=least.value,
        witness=least.point if failed else None,
        witness_velocity=least.velocity if failed else None,
        samples=least.count,
        tolerances=tolerances,
        flags={"region": spec.region, **spec.flags},
        **extra,
    )


def _strict(check_id: str, scenario: SafetyScenario, grid: BoundaryGrid, system) -> CheckReport:
    spec = CHECKS[check_id]
    tol = scenario.tolerances.tol_strict
    least = _sample(spec, scenario, grid, system)
    return _report(spec, least, PASS if least.value > tol else FAIL, {"tol_strict": tol})


# ---------------------------------------------------------------------- #
def check_nominal(scenario: SafetyScenario, grid: BoundaryGrid, *, system=None) -> CheckReport:
    """Non-strict decrease outside K: max <grad B(x), F(x)> <= 0 on an outer
    collar around the boundary.  Margin is min over samples of
    -support(F(x), grad B(x))."""
    spec = CHECKS["nominal-nonincrease"]
    tol = scenario.tolerances.tol
    least = _sample(spec, scenario, grid, system)
    if not least.count:
        raise PreconditionError("empty outer collar; no usable boundary normals")
    return _report(spec, least, PASS if least.value >= -tol else FAIL,
                   {"tol": tol, "collar_width": collar_width(scenario, grid)})


def check_robust_strict(scenario: SafetyScenario, grid: BoundaryGrid, *, system=None) -> CheckReport:
    """Strict decrease on the boundary: max <grad B(x), F(x)> < 0 for every
    boundary representative."""
    return _strict("robust-strict", scenario, grid, system)


def check_clarke(scenario: SafetyScenario, grid: BoundaryGrid, *, system=None) -> CheckReport:
    """Strict decrease against every sampled generalized-gradient vertex on
    the boundary: <zeta, eta> < 0 for zeta in the sampled Clarke hull and
    eta in F(x).  The sampling radius and count are the scenario's
    ``clarke_radius_scale`` and ``clarke_samples`` tolerances."""
    return _strict("clarke-strict", scenario, grid, system)


def check_uniform_unweighted(scenario: SafetyScenario, grid: BoundaryGrid, *, system=None) -> CheckReport:
    """Normalized strict decrease on the boundary:
    min over boundary of (-max <grad B, F>) / |grad B| must be positive.
    A positive value witnesses a uniform decrease rate on the sampled set."""
    return _strict("uniform-plain", scenario, grid, system)


def check_uniform_weighted(
    scenario: SafetyScenario,
    grid: BoundaryGrid,
    modulus,
    variant: str = "C1",
    *,
    system=None,
) -> CheckReport:
    """Normalized strict decrease weighted by the state growth factor.

    The unweighted quotient at each sample is divided by (1 + state_gain(x))
    where state_gain comes from a factored continuity modulus of F.  Variants
    select the sample region and gradient object: C1 gradient on the
    boundary, C2 Clarke vertices on the boundary, C3 proximal singleton on a
    two-sided collar, C4 proximal singleton of -B with reversed velocity sign
    on a two-sided collar (requires sampled separation of cl(K) from the
    unsafe set).

    Because the true region may be unbounded, the infimum is also evaluated
    on nested shrunken boxes (``_NESTED_SCALES``); a margin that keeps
    shrinking as the box grows is reported as inconclusive rather than pass.
    """
    if variant not in _WEIGHTED:
        raise ValueError(f"variant must be one of {tuple(_WEIGHTED)}, got {variant!r}")
    spec = _WEIGHTED[variant]
    tol = scenario.tolerances
    if not spec.suits(scenario.barrier):
        oracle = " with a gradient oracle" if spec.zeta == "gradient" else ""
        raise UnsupportedSmoothnessError(f"variant {variant} needs a {'/'.join(spec.smoothness)} "
                                         f"candidate{oracle}, got {scenario.barrier.smoothness!r}")

    if variant == "C4":
        _check_separation(scenario, grid)

    full = _sample(spec, scenario, grid, system, modulus.state_rows)
    trend = []
    for s in _NESTED_SCALES:
        try:
            scn_s = scenario.scaled(s)
            grid_s = boundary_extract(scn_s)
        except Exception:
            continue
        t = _sample(spec, scn_s, grid_s, system, modulus.state_rows)
        if t.count:
            trend.append([float(s), float(t.value)])
    trend.append([1.0, float(full.value)])

    if full.value <= tol.tol_strict:
        verdict = FAIL
    elif any(v > 0 and full.value < 0.5 * v for _, v in trend[:-1]):
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return _report(
        spec, full, verdict, {"tol_strict": tol.tol_strict},
        trend=trend,
        notes=(["margin shrinks under box growth; infimum over the unbounded "
                "region is not numerically bounded away from zero"]
               if verdict == INCONCLUSIVE else []),
    )


def _check_separation(scenario: SafetyScenario, grid: BoundaryGrid):
    """Sampled proxy for cl(K) and the unsafe set being separated: no unsafe
    grid sample may lie in K or within one boundary-cell diameter of it."""
    reps = grid.representatives
    unsafe = scenario.unsafe_samples()
    for x, b in zip(unsafe, scenario.barrier.value_rows(unsafe)):
        if b <= 0.0:
            raise PreconditionError(
                f"unsafe sample {x.tolist()} lies in K = {{B <= 0}}"
            )
        d = float(np.min(np.linalg.norm(reps - x.reshape(1, -1), axis=1)))
        if d <= grid.diameter:
            raise PreconditionError(
                "sampled unsafe set touches cl(K): unsafe sample "
                f"{x.tolist()} is within one boundary-cell diameter ({grid.diameter:g}) "
                "of the boundary"
            )


# ---------------------------------------------------------------------- #
@dataclass
class MarginSynthesis:
    """Per-cell perturbation radii and their minimum over the boundary."""

    cell_margins: list
    eps_star: float
    verdict: str
    witness: Optional[tuple] = None
    witness_cell: Optional[int] = None
    flags: dict = field(default_factory=dict)
    grid: Optional[BoundaryGrid] = field(default=None, repr=False)

    def eps_at(self, x) -> float:
        """Pointwise margin: min of the cell radii over cells containing x."""
        hits = [] if self.grid is None else self.grid.containing(x, 1e-12)
        if not len(hits):
            raise ValueError(f"point {np.asarray(x).tolist()} lies in no boundary cell")
        return min(self.cell_margins[i] for i in hits)

    def to_dict(self) -> dict:
        return {
            "cell_margins": [float(v) for v in self.cell_margins],
            "eps_star": float(self.eps_star),
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_cell": self.witness_cell,
            "flags": dict(self.flags),
        }


#: candidate tags margin synthesis is meant for: it needs the gradient or
#: the sampled Clarke gradient at each representative
MARGIN_SMOOTHNESS = ("C2", "C1", "lipschitz")


def synthesize_margin(
    scenario: SafetyScenario,
    grid: BoundaryGrid,
    bracket: float = 1.0,
    *,
    density: int = 9,
    rel_tol: float = 1e-3,
) -> MarginSynthesis:
    """Largest constant perturbation radius per boundary cell.

    For each cell, bisects the largest delta such that its representative x
    and every sampled gradient vertex zeta at x satisfy
    max <zeta, co{F(x + delta*B)} + delta*B> < 0.  The overall margin is the
    minimum over cells; a cell that fails even the probe radius yields 0 and
    an overall fail verdict with that cell's representative as witness.

    The cells bisect in lockstep (:func:`largest_feasible_rows`): each round
    takes the strong images at the representatives of every open cell, each
    at its own delta, from one ``ball_hulls`` call.
    """
    tol = scenario.tolerances
    base = unperturbed(scenario.dynamics)
    # each cell's representative, and its gradient vertices with their
    # norms, paired row by row
    X = grid.representatives
    rep_of, zetas, norms = _pairs(scenario, X, "clarke-vertices")

    def violation(cells, deltas):
        """For each cell, None when every vertex zeta at its representative x
        satisfies -support(co{F(x + delta*B)} + delta*B, zeta) > tol_strict,
        else x."""
        row = np.full(len(X), -1)
        row[cells] = np.arange(len(cells))
        at = row[rep_of]  # each pair's stack row, -1 where its cell is closed
        pairs = np.flatnonzero(at >= 0)
        stack = inflate_rows(base.ball_hulls(X[cells], deltas, density, _slack(scenario)), deltas)
        support = support_pairs(stack, at[pairs], zetas[pairs], norms[pairs])
        bad = np.zeros(len(cells), dtype=bool)
        bad[at[pairs][-support <= tol.tol_strict]] = True
        return [tuple(X[c]) if b else None for c, b in zip(cells.tolist(), bad)]

    values, witnesses = largest_feasible_rows(violation, np.full(len(X), float(bracket)), rel_tol=rel_tol)
    margins = values.tolist()
    witness_cell = next((ci for ci, w in enumerate(witnesses) if w is not None), None)
    witness = None if witness_cell is None else witnesses[witness_cell]

    eps_star = min(margins) if margins else 0.0
    box = scenario.box
    # cells at the first/last grid column overhang the box by half a spacing;
    # reaching the box edge means the boundary may continue outside the domain
    touches = (grid.lower <= box[:, 0] + 1e-12).any() or (grid.upper >= box[:, 1] - 1e-12).any()
    return MarginSynthesis(
        cell_margins=margins,
        eps_star=float(eps_star),
        verdict=PASS if eps_star > 0.0 else FAIL,
        witness=witness,
        witness_cell=witness_cell,
        flags={
            "bracket": float(bracket),
            "density": density,
            "boundary_touches_box": bool(touches),
        },
        grid=grid,
    )
