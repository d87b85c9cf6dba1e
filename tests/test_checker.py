from __future__ import annotations

import math

import numpy as np
import pytest

from inclusafe import checker, scenarios
from inclusafe.barrier import BoundaryGrid, collar_width
from inclusafe.checker import CHECKS
from inclusafe.expressions import rows_of
from inclusafe.numerics import largest_feasible
from inclusafe import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    BarrierCandidate,
    DegenerateGradientError,
    PerturbedSystem,
    PreconditionError,
    SafetyScenario,
    SetValuedMap,
    UnsupportedSmoothnessError,
    affine_piece,
    boundary_extract,
    check_clarke,
    check_nominal,
    check_robust_strict,
    check_uniform_unweighted,
    check_uniform_weighted,
    constant_piece,
    hull_union_many,
    synthesize_margin,
    unit_ball_lattice,
)


def _scenario(value, gradient, pieces, *, box=(-2.0, 2.0), resolution=81,
              smoothness="C2", singular=None, initial=None, unsafe=None, **kw):
    f = SetValuedMap(1, pieces)
    bar = BarrierCandidate.from_config(
        {"value": value, "gradient": gradient, "smoothness": smoothness,
         "singular": singular}, 1)
    return SafetyScenario(
        "adhoc", f, bar,
        initial=initial or (lambda x: x[0] <= -1.5),
        unsafe=unsafe or (lambda x: x[0] >= 1.8),
        box=[list(box)], resolution=resolution, **kw,
    )


def _abs_scenario():
    # |x| - 1 with the stabilizing field -x: both kink gradients point the
    # right way on their own side of the boundary
    return _scenario("abs(x1) - 1", None, [affine_piece(lambda x: True, [[-1.0]], [0.0])],
                     smoothness="lipschitz", singular="x1 == 0")


# ----------------------------------------------------------------------- #
# nominal / robust on the worked examples
def test_nominal_example1_margin(example1, example1_grid):
    rep = check_nominal(example1.scenario, example1_grid)
    assert rep.passed
    assert 2.0 <= rep.margin <= 2.2
    assert rep.flags["region"] == "outer-collar"
    assert rep.witness is None


def test_robust_strict_example1_interface_failure(example1, example1_grid):
    rep = check_robust_strict(example1.scenario, example1_grid)
    assert rep.verdict == FAIL
    assert rep.witness == (0.0,)
    # hull of the two branch velocities at the interface against grad B = 2
    assert rep.margin == -4.0
    assert rep.witness_velocity == (2.0,)


def test_nominal_example2_collar_margin(example2, example2_grid):
    rep = check_nominal(example2.scenario, example2_grid)
    assert rep.passed
    # worst collar sample sits at x1 = +-10, x2 = collar width 0.005
    assert rep.margin == pytest.approx(0.5, abs=1e-9)
    assert rep.tolerances["collar_width"] == 0.005


def test_robust_and_uniform_example2_boundary_margin(example2, example2_grid):
    rob = check_robust_strict(example2.scenario, example2_grid)
    uni = check_uniform_unweighted(example2.scenario, example2_grid)
    assert rob.passed and uni.passed
    assert rob.margin == pytest.approx(1.0, abs=1e-9)
    assert uni.margin == pytest.approx(1.0, abs=1e-6)
    assert uni.flags["normalized"] is True


def test_checks_accept_perturbed_dynamics(linear_stable, linear_grid):
    base = linear_stable.scenario.dynamics
    sys_img = PerturbedSystem(base, 0.3, "image")
    rep = check_robust_strict(linear_stable.scenario, linear_grid, system=sys_img)
    assert rep.passed
    assert rep.margin == pytest.approx(0.7, abs=1e-12)


class _MinTracker:
    """Running minimum with lexicographic witness tie-breaking."""

    def __init__(self):
        self.value = math.inf
        self.point = None
        self.velocity = None
        self.count = 0

    def update(self, value, point, velocity=None):
        self.count += 1
        pt = tuple(float(v) for v in np.asarray(point).reshape(-1))
        vel = tuple(float(v) for v in np.asarray(velocity).reshape(-1)) if velocity is not None else None
        if value < self.value or (value == self.value and self.point is not None and pt < self.point):
            self.value = value
            self.point = pt
            self.velocity = vel


def _per_point_collar(scenario, grid, region):
    """Reference for ``checker._collar_points``: one representative and one
    offset at a time, each normal from ``gradient_at`` and each outer-collar
    point kept by its own ``value_at``."""
    outer = region == "outer-collar"
    width = collar_width(scenario, grid)
    floor = max(10.0 * scenario.tolerances.interface_slack, 1e-12)
    offsets = [width * f for f in checker._COLLAR_FRACTIONS if width * f >= floor]
    if not offsets:
        offsets = [max(width, floor)]
    bar = scenario.barrier
    pts = []
    for rep in grid.representatives:
        try:
            g = bar.gradient_at(rep)
        except Exception:
            continue
        norm = float(np.linalg.norm(g))
        if norm < 1e-12:
            continue
        nu = g / norm
        if not outer:
            pts.append(np.asarray(rep, dtype=float))
        for sgn in ((1.0,) if outer else (1.0, -1.0)):
            for t in offsets:
                x = rep + sgn * t * nu
                if outer and bar.value_at(x) <= 0.0:
                    continue
                pts.append(x)
    return pts


def _per_point_sample(spec, scenario, grid, base, mode, eps, gain=None):
    """Reference for ``checker._sample`` on ``PerturbedSystem(base, eps,
    mode)``: the perturbed image built point by point from
    ``SetValuedMap.image``, each value divided by 1 + gain(x) when a
    ``gain`` is given."""
    region = (grid.representatives if spec.region == "boundary"
              else _per_point_collar(scenario, grid, spec.region))
    slack = scenario.tolerances.interface_slack
    lattice = eps * unit_ball_lattice(base.dimension, 9)
    track = _MinTracker()
    for x in region:
        zetas = ([scenario.barrier.gradient_at(x)] if spec.zeta == "gradient"
                 else checker._clarke_vertices(scenario, x))
        if mode == "strong":
            img = hull_union_many([base.image(x + u, slack) for u in lattice])
        else:
            img = base.image(x, slack)
        if mode != "none":
            img = img.inflate(eps)
        weight = 1.0 if gain is None else 1.0 + float(gain(x))
        for z in zetas:
            norm = float(np.linalg.norm(z)) if spec.normalized else 1.0
            track.update(-img.support(z) / norm / weight, x, img.extreme_point(z))
    return track


def _interface_scenario():
    # the boundary point x = 1 sits on the interface of two pieces, so the
    # interface slack merges both images there
    return _scenario("x1 * x1 - 1", ["2 * x1"], [
        affine_piece(lambda x: x[0] < 1.0, [[-1.0]], [0.5]),
        affine_piece(lambda x: x[0] >= 1.0, [[-2.0]], [0.0]),
    ])


@pytest.mark.parametrize("name", ["example1", "example2", "linear-stable", "noisy-loop", "interface"])
@pytest.mark.parametrize("mode", ["none", "image", "strong"])
def test_sampled_checks_match_per_point_images(name, mode):
    sc = _interface_scenario() if name == "interface" else scenarios.build(name).scenario
    grid = boundary_extract(sc)
    base = sc.dynamics.base if isinstance(sc.dynamics, PerturbedSystem) else sc.dynamics
    system = PerturbedSystem(base, 0.05, mode)
    for check_id in ("nominal-nonincrease", "robust-strict", "clarke-strict", "uniform-plain"):
        spec = CHECKS[check_id]
        got = checker._sample(spec, sc, grid, system)
        want = _per_point_sample(spec, sc, grid, base, mode, 0.05)
        assert got.count == want.count > 0
        assert (got.value, got.point, got.velocity) == (want.value, want.point, want.velocity)
        assert np.signbit(got.value) == np.signbit(want.value)


@pytest.mark.parametrize("case", [*scenarios.BUILTIN, "partial_oracle", "lipschitz_2d"])
@pytest.mark.parametrize("region", ["outer-collar", "two-sided-collar"])
def test_collar_matches_per_point_reference(request, case, region):
    bundle = scenarios.build(case) if case in scenarios.BUILTIN else request.getfixturevalue(case)
    sc = bundle.scenario
    grid = boundary_extract(sc)
    got = checker._collar_points(sc, grid, region)
    want = _per_point_collar(sc, grid, region)
    assert got.dtype == np.float64 and got.shape == (len(want), sc.dimension)
    assert [x.tobytes() for x in got] == [np.asarray(x, dtype=float).tobytes() for x in want]
    assert bool(len(want)) == (case != "lipschitz_2d")  # no gradient oracle, no normals
    if case == "partial_oracle":
        outcomes = {_oracle_outcome(sc.barrier, rep) for rep in grid.representatives}
        assert outcomes == {"raises", "vanishes", "normal"}


def _oracle_outcome(bar, x) -> str:
    try:
        return "vanishes" if np.linalg.norm(bar.gradient_at(x)) < 1e-12 else "normal"
    except ValueError:
        return "raises"


def _hand_grid(reps):
    """One boundary cell per given representative, in that order."""
    reps = np.array(reps, dtype=float)
    return BoundaryGrid(reps - 1.0, reps + 1.0, reps, np.ones(reps.shape[1]), 1.0)


def _still_scenario(dimension):
    """B = x_n under a field that makes -support(F(x), grad B) the same at
    every point: {0} in one dimension, {(0, -1), (1, -1)} in two."""
    grad = ["0"] * (dimension - 1) + ["1"]
    points = [[0.0]] if dimension == 1 else [[0.0, -1.0], [1.0, -1.0]]
    f = SetValuedMap(dimension, [constant_piece(lambda x: True, points)])
    bar = BarrierCandidate.from_config(
        {"value": f"x{dimension}", "gradient": grad, "smoothness": "C2"}, dimension)
    return SafetyScenario("still", f, bar, lambda x: x[-1] <= -1.0, lambda x: x[-1] >= 1.0,
                          [[-2.0, 2.0]] * dimension, 5)


# label: scenario (fixture name or hand-built), check id, gain (modulus
# fixture name, a callable, or None), hand-built grid representatives
_REFERENCE_CASES = {
    "example2-weighted-c1": ("example2", "uniform-weighted-c1", "example2_modulus", None),
    "linear-stable-weighted-c1": ("linear_stable", "uniform-weighted-c1", "linear_modulus", None),
    "lipschitz-2d-clarke": ("lipschitz_2d", "clarke-strict", None, None),
    "lipschitz-2d-weighted-c2": ("lipschitz_2d", "uniform-weighted-c2", "lipschitz_2d_modulus", None),
    "partial-oracle-nominal": ("partial_oracle", "nominal-nonincrease", None, None),
    # equal values, samples in reverse lexicographic order
    "equal-values-reverse-order": (2, "robust-strict", None,
                                   [[1.0, 0.5], [1.0, 0.0], [0.0, 0.5], [0.0, -0.5], [-1.0, 0.0]]),
    # -0.0 and +0.0 samples tie, either listed first
    "signed-zero-samples": (1, "robust-strict", None, [[0.0], [-0.0], [0.0]]),
    "signed-zero-samples-reversed": (1, "robust-strict", None, [[-0.0], [0.0]]),
    # a negative weight turns the zero value -0.0 into +0.0 at x > 0, so
    # -0.0 and +0.0 values tie; the least sample's own zero is reported
    "signed-zero-values": (1, "uniform-weighted-c1", lambda x: -2.0 if x[0] > 0 else 0.0,
                           [[1.0], [-1.0], [2.0]]),
    "signed-zero-values-positive-least": (1, "uniform-weighted-c1",
                                          lambda x: -2.0 if x[0] < 0 else 0.0,
                                          [[1.0], [-1.0], [2.0]]),
    # a NaN value never wins, and with nothing else there is no witness
    "nan-values-skipped": (2, "uniform-weighted-c1", lambda x: math.nan if x[0] < 0 else 0.0,
                           [[1.0, 0.5], [-1.0, 0.0], [0.0, 0.5]]),
    "nan-values-only": (2, "uniform-weighted-c1", lambda x: math.nan, [[1.0, 0.5], [-1.0, 0.0]]),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
@pytest.mark.parametrize("mode", ["none", "strong"])
def test_sampled_rows_match_per_point_reference(request, case, mode):
    source, check_id, gain, reps = _REFERENCE_CASES[case]
    sc = _still_scenario(source) if reps is not None else request.getfixturevalue(source).scenario
    grid = _hand_grid(reps) if reps is not None else boundary_extract(sc)
    # checker._sample takes the gain as a row function, the reference per point
    if isinstance(gain, str):
        modulus = request.getfixturevalue(gain)
        gain, gain_rows = modulus.state_gain, modulus.state_rows
    else:
        gain_rows = None if gain is None else rows_of(gain)
    base = sc.dynamics
    system = PerturbedSystem(base, 0.05, mode)
    spec = CHECKS[check_id]
    got = checker._sample(spec, sc, grid, system, gain_rows)
    want = _per_point_sample(spec, sc, grid, base, mode, 0.05, gain)
    assert got.count == want.count > 0
    assert (got.value, got.point, got.velocity) == (want.value, want.point, want.velocity)
    assert np.signbit(got.value) == np.signbit(want.value)
    assert np.signbit(got.point or ()).tolist() == np.signbit(want.point or ()).tolist()
    if case.startswith("lipschitz-2d"):
        assert want.count > len(grid.representatives)  # several zetas at some samples


def test_pair_norms_are_taken_vector_by_vector(lipschitz_2d):
    # support_pairs equals the per-set support only with per-vector norms,
    # and a row-wise norm rounds differently on some of these vertices
    sc = lipschitz_2d.scenario
    rep, zetas, norms = checker._pairs(sc, boundary_extract(sc).representatives, "clarke-vertices")
    assert norms.tolist() == [np.linalg.norm(z) for z in zetas]
    assert not np.array_equal(np.linalg.norm(zetas, axis=1), norms)
    assert np.all(np.diff(rep) >= 0)


def test_noisy_loop_checks_through_builtin_perturbation(noisy_loop):
    grid = boundary_extract(noisy_loop.scenario)
    rep = check_robust_strict(noisy_loop.scenario, grid)
    assert rep.passed
    # sense ball 0.05 spreads the affine image, actuation ball 0.1 inflates it
    assert rep.margin == pytest.approx(0.85, abs=1e-12)


def test_nominal_needs_usable_normals():
    f = SetValuedMap(1, [constant_piece(lambda x: True, [[0.0]])])
    bar = BarrierCandidate(lambda x: 0.0 if x[0] <= 0 else 1.0, smoothness="lsc")
    sc = SafetyScenario("semi", f, bar, lambda x: x[0] <= -1, lambda x: x[0] >= 1,
                        [[-2, 2]], 41, boundary_points=np.array([[0.0]]))
    grid = boundary_extract(sc)
    with pytest.raises(PreconditionError):
        check_nominal(sc, grid)


# ----------------------------------------------------------------------- #
# generalized-gradient check
def test_clarke_fails_constant_downhill_field():
    sc = _scenario("abs(x1) - 1", None, [constant_piece(lambda x: True, [[-1.0]])],
                   smoothness="lipschitz", singular="x1 == 0")
    grid = boundary_extract(sc)
    rep = check_clarke(sc, grid)
    assert rep.verdict == FAIL
    assert rep.witness is not None and rep.witness[0] == pytest.approx(-1.0, abs=1e-7)
    assert rep.margin == pytest.approx(-1.0, abs=1e-6)


def test_clarke_passes_stabilizing_field():
    sc = _abs_scenario()
    grid = boundary_extract(sc)
    rep = check_clarke(sc, grid)
    assert rep.passed
    assert rep.margin == pytest.approx(1.0, abs=1e-6)
    assert rep.flags["gradient"] == "clarke-vertices"


def test_clarke_on_smooth_candidate_equals_robust(linear_stable, linear_grid):
    a = check_clarke(linear_stable.scenario, linear_grid)
    b = check_robust_strict(linear_stable.scenario, linear_grid)
    assert a.margin == b.margin == 1.0


# ----------------------------------------------------------------------- #
# uniform checks
def test_uniform_linear_margin_exact(linear_stable, linear_grid):
    rep = check_uniform_unweighted(linear_stable.scenario, linear_grid)
    assert rep.passed
    assert rep.margin == 1.0


def test_uniform_invariant_under_barrier_rescaling(example2):
    sc = example2.scenario
    scaled = SafetyScenario(
        "scaled", sc.dynamics,
        BarrierCandidate.from_config(
            {"value": "10*x2", "gradient": ["0", "10"], "smoothness": "C2"}, 2),
        sc.initial, sc.unsafe, sc.box, sc.resolution, sc.tolerances,
    )
    grid = boundary_extract(scaled)
    rep = check_uniform_unweighted(scaled, grid)
    assert rep.margin == pytest.approx(1.0, abs=1e-6)


def test_robust_margin_scales_with_gradient_norm():
    # same boundary and field, doubled gradient: robust margin doubles while
    # the normalized margin stays put
    sc = _scenario("2*x1 - 2", ["2"], [affine_piece(lambda x: True, [[-1.0]], [0.0])])
    grid = boundary_extract(sc)
    rob = check_robust_strict(sc, grid)
    uni = check_uniform_unweighted(sc, grid)
    assert rob.margin == pytest.approx(2.0, abs=1e-9)
    assert uni.margin == pytest.approx(1.0, abs=1e-9)


def test_uniform_degenerate_gradient_raises():
    sc = _scenario("x1**3", ["3*x1**2"], [constant_piece(lambda x: True, [[-1.0]])],
                   box=(-1.0, 1.0), resolution=41,
                   initial=lambda x: x[0] <= -0.9, unsafe=lambda x: x[0] >= 0.9)
    grid = boundary_extract(sc)
    with pytest.raises(DegenerateGradientError):
        check_uniform_unweighted(sc, grid)


def test_robust_witness_stable_under_refinement(example1):
    from inclusafe import scenarios
    fine = scenarios.build("example1", resolution=401)
    for bundle in (example1, fine):
        grid = boundary_extract(bundle.scenario)
        rep = check_robust_strict(bundle.scenario, grid)
        assert rep.witness == (0.0,)
        assert rep.margin == -4.0


# ----------------------------------------------------------------------- #
# weighted uniform variants
def test_weighted_c1_linear_degenerate_weight(linear_stable, linear_grid, linear_modulus):
    rep = check_uniform_weighted(linear_stable.scenario, linear_grid, linear_modulus, "C1")
    assert rep.passed
    # degenerate modulus: state factor is identically 1, weight 1 + 1 = 2
    assert rep.margin == 0.5
    assert rep.trend[-1] == [1.0, 0.5]


def test_weighted_c1_example2_inconclusive(example2, example2_grid, example2_modulus):
    rep = check_uniform_weighted(example2.scenario, example2_grid, example2_modulus, "C1")
    assert rep.verdict == INCONCLUSIVE
    assert 0.0 < rep.margin < 0.01
    scales = [s for s, _ in rep.trend]
    values = [v for _, v in rep.trend]
    assert scales == [0.25, 0.5, 1.0]
    assert values[0] > values[1] > values[2] > 0.0
    assert rep.notes  # explains the shrinking infimum
    assert rep.flags["variant"] == "C1"


def test_weighted_c2_lipschitz_candidate(linear_modulus):
    sc = _abs_scenario()
    grid = boundary_extract(sc)
    rep = check_uniform_weighted(sc, grid, linear_modulus, "C2")
    assert rep.passed
    assert rep.margin == pytest.approx(0.5, abs=1e-6)
    assert rep.flags["region"] == "boundary"


def test_weighted_c3_collar_region(linear_stable, linear_grid, linear_modulus):
    rep = check_uniform_weighted(linear_stable.scenario, linear_grid, linear_modulus, "C3")
    assert rep.passed
    assert rep.flags["region"] == "two-sided-collar"
    # worst collar point sits one collar width inside the boundary
    assert rep.margin == pytest.approx(0.45, abs=1e-9)


def test_weighted_c4_requires_separation(example2, example2_grid, example2_modulus):
    with pytest.raises(PreconditionError):
        check_uniform_weighted(example2.scenario, example2_grid, example2_modulus, "C4")


def test_weighted_c4_rejects_touching_unsafe_set(linear_stable, linear_grid, linear_modulus):
    # the builtin's unsafe set starts right past the boundary, so cl(K) and
    # the unsafe set touch and the separation precondition must fire
    with pytest.raises(PreconditionError):
        check_uniform_weighted(linear_stable.scenario, linear_grid, linear_modulus, "C4")


def test_weighted_c4_passes_when_separated(linear_modulus):
    sc = _scenario("x1 - 1", ["1"], [affine_piece(lambda x: True, [[-1.0]], [0.0])],
                   unsafe=lambda x: x[0] >= 1.5)
    grid = boundary_extract(sc)
    rep = check_uniform_weighted(sc, grid, linear_modulus, "C4")
    assert rep.passed
    assert rep.margin == pytest.approx(0.45, abs=1e-9)
    assert rep.check_id == "uniform-weighted-c4"


def test_weighted_variant_validation(linear_stable, linear_grid, linear_modulus):
    with pytest.raises(ValueError):
        check_uniform_weighted(linear_stable.scenario, linear_grid, linear_modulus, "C5")
    sc = _abs_scenario()
    grid = boundary_extract(sc)
    with pytest.raises(UnsupportedSmoothnessError):
        check_uniform_weighted(sc, grid, linear_modulus, "C1")  # kinked candidate
    with pytest.raises(UnsupportedSmoothnessError):
        check_uniform_weighted(sc, grid, linear_modulus, "C3")  # proximal needs C2


def test_check_table_rows_run_through_their_functions(linear_modulus):
    # unit gradient and a separated unsafe set: every row applies and passes
    sc = _scenario("x1 - 1", ["1"], [affine_piece(lambda x: True, [[-1.0]], [0.0])],
                   unsafe=lambda x: x[0] >= 1.5)
    grid = boundary_extract(sc)
    margins = {}
    for spec in CHECKS.values():
        run = getattr(checker, spec.function)
        rep = run(sc, grid) if spec.variant is None else run(sc, grid, linear_modulus, spec.variant)
        assert rep.check_id == spec.check_id
        assert rep.flags["region"] == spec.region
        assert rep.passed
        margins[spec.check_id] = rep.margin
    # the same inequality on the same boundary: C2 candidate, |grad B| = 1,
    # degenerate modulus weight 2, and C4 samples what C3 samples
    assert margins["robust-strict"] == margins["clarke-strict"] == margins["uniform-plain"]
    assert margins["uniform-weighted-c1"] == margins["uniform-weighted-c2"] \
        == margins["uniform-plain"] / 2.0
    assert margins["uniform-weighted-c3"] == margins["uniform-weighted-c4"]


# ----------------------------------------------------------------------- #
# margin synthesis
def test_margin_synthesis_constant_inward_field():
    sc = _scenario("x1", ["1"], [constant_piece(lambda x: True, [[-1.0]])],
                   initial=lambda x: x[0] <= -1.5, unsafe=lambda x: x[0] >= 1.5)
    grid = boundary_extract(sc)
    synth = synthesize_margin(sc, grid, bracket=2.0)
    # constant map: the argument ball is free, only the actuation ball bites,
    # so the decrease survives until delta = 1
    assert synth.verdict == PASS
    assert synth.eps_star == pytest.approx(1.0, abs=0.01)


def test_margin_synthesis_linear(linear_stable, linear_grid):
    synth = synthesize_margin(linear_stable.scenario, linear_grid)
    assert synth.verdict == PASS
    assert synth.eps_star == pytest.approx(0.5, abs=0.01)
    assert synth.flags["bracket"] == 1.0
    assert synth.flags["boundary_touches_box"] is False
    d = synth.to_dict()
    assert d["eps_star"] == synth.eps_star and d["witness"] is None


def test_margin_synthesis_example1_interface_cell(example1, example1_grid):
    synth = synthesize_margin(example1.scenario, example1_grid)
    assert synth.verdict == FAIL
    assert synth.eps_star == 0.0
    assert synth.witness == (0.0,)
    assert synth.eps_at([0.0]) == 0.0
    # the left root is robust: any bracketed radius keeps the field outward
    assert synth.eps_at([-2.0]) == 1.0
    with pytest.raises(ValueError):
        synth.eps_at([0.5])


def test_margin_synthesis_boundary_touching_box(example2, example2_grid):
    synth = synthesize_margin(example2.scenario, example2_grid, bracket=0.25, density=5)
    assert synth.flags["boundary_touches_box"] is True


def test_synthesized_margin_recheck(linear_stable, linear_grid):
    synth = synthesize_margin(linear_stable.scenario, linear_grid)
    half = PerturbedSystem(linear_stable.scenario.dynamics, synth.eps_star / 2.0, "strong")
    rep = check_robust_strict(linear_stable.scenario, linear_grid, system=half)
    assert rep.passed
    assert rep.margin == pytest.approx(1.0 - synth.eps_star, abs=1e-6)


def test_margin_synthesis_unwraps_perturbed_dynamics(noisy_loop):
    grid = boundary_extract(noisy_loop.scenario)
    synth = synthesize_margin(noisy_loop.scenario, grid)
    # synthesis bisects on the bare field, not the pre-perturbed system
    assert synth.eps_star == pytest.approx(0.5, abs=0.01)


# ----------------------------------------------------------------------- #
# lockstep margin synthesis against a per-cell bisection
def _per_cell_margin(scenario, grid, bracket=1.0, *, density=9, rel_tol=1e-3) -> dict:
    """``synthesize_margin(...).to_dict()`` one cell at a time: each probe
    builds the strong system and stops at the cell's first violating
    (representative, vertex) pair."""
    tol = scenario.tolerances
    base = scenario.dynamics
    if isinstance(base, PerturbedSystem):
        base = base.base
    margins, witness, witness_cell = [], None, None
    for ci, r in enumerate(grid.representatives):
        zetas = checker._clarke_vertices(scenario, r)

        def violation(delta):
            img = PerturbedSystem(base, delta, "strong", density).image(r, tol.interface_slack)
            for z in zetas:
                if -img.support(z) <= tol.tol_strict:
                    return tuple(r)
            return None

        delta, w = largest_feasible(violation, float(bracket), rel_tol=rel_tol)
        margins.append(delta)
        if delta == 0.0 and witness is None:
            witness, witness_cell = w, ci
    box = scenario.box
    touches = any(np.any(lower <= box[:, 0] + 1e-12) or np.any(upper >= box[:, 1] - 1e-12)
                  for lower, upper in zip(grid.lower, grid.upper))
    return {
        "cell_margins": [float(v) for v in margins],
        "eps_star": float(min(margins)),
        "verdict": PASS if min(margins) > 0.0 else FAIL,
        "witness": list(witness) if witness is not None else None,
        "witness_cell": witness_cell,
        "flags": {"bracket": float(bracket), "density": density, "boundary_touches_box": touches},
    }


# scenario fixture, resolution override, synthesis keywords
_MARGIN_CASES = {
    "example1": ("example1", None, {}),
    "example2": ("example2", None, {}),
    "linear-stable": ("linear_stable", None, {}),
    "noisy-loop": ("noisy_loop", None, {}),
    "example2-61x21": ("example2", (61, 21), {}),
    "example2-81x41": ("example2", (81, 41), {}),
    "example2-coarse": ("example2", None, {"bracket": 0.25, "density": 5}),
    # cells with |x1| below about 4.3 are feasible at the bracket end
    "example2-capped": ("example2", None, {"bracket": 0.05}),
    "lipschitz-2d": ("lipschitz_2d", None, {}),
}


def test_lockstep_margin_witness_is_first_violating_representative(example1, example1_grid):
    # three cells in the box of example1's first: the robust root -2, then
    # two points whose argument ball straddles the switching interface
    g = example1_grid
    lower, upper = np.repeat(g.lower[:1], 3, axis=0), np.repeat(g.upper[:1], 3, axis=0)
    grid = BoundaryGrid(np.vstack([lower, g.lower]), np.vstack([upper, g.upper]),
                        np.vstack([[[-2.0], [0.0], [1e-9]], g.representatives]), g.spacing, g.diameter)
    expected = _per_cell_margin(example1.scenario, grid)
    assert expected["witness"] == [0.0] and expected["witness_cell"] == 1
    assert synthesize_margin(example1.scenario, grid).to_dict() == expected


@pytest.mark.parametrize("case", list(_MARGIN_CASES))
def test_lockstep_margin_equals_per_cell_bisection(request, case):
    fixture, resolution, kw = _MARGIN_CASES[case]
    scenario = request.getfixturevalue(fixture).scenario
    if resolution is not None:
        scenario = scenarios.build(scenario.name, resolution=resolution).scenario
    grid = boundary_extract(scenario)
    expected = _per_cell_margin(scenario, grid, **kw)
    assert synthesize_margin(scenario, grid, **kw).to_dict() == expected
    if case == "example1":
        assert expected["witness"] == [0.0] and expected["eps_star"] == 0.0
    if case == "example2-capped":
        assert 0 < expected["cell_margins"].count(0.05) < len(grid.representatives)
    if case == "lipschitz-2d":
        assert any(len(checker._clarke_vertices(scenario, r)) > 1
                   for r in grid.representatives)
