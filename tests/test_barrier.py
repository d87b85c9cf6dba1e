from __future__ import annotations

import numpy as np
import pytest

from inclusafe import (
    BarrierCandidate,
    ConvexCompactSet,
    EmptyBoundaryError,
    GradientOracleError,
    SafetyScenario,
    SetValuedMap,
    SingularPointError,
    Tolerances,
    UnsupportedSmoothnessError,
    boundary_extract,
    candidate_check,
    clarke_gradient,
    constant_piece,
    hausdorff,
)
from inclusafe import scenarios
from inclusafe.barrier import SMOOTHNESS_TAGS, EmptySampleError, collar_width


def _abs_candidate(with_gradient=True):
    grad = (lambda x: np.sign(x)) if with_gradient else None
    return BarrierCandidate(
        lambda x: abs(float(x[0])),
        grad,
        smoothness="lipschitz",
        singular=lambda x: x[0] == 0.0,
        name="absx",
    )


def _scenario_1d(value, gradient, box=(-3.0, 1.0), resolution=201, **kw):
    f = SetValuedMap(1, [constant_piece(lambda x: True, [[0.0]])])
    bar = BarrierCandidate(value, gradient, name="test")
    return SafetyScenario(
        "tiny", f, bar,
        initial=lambda x: x[0] <= -2.5,
        unsafe=lambda x: x[0] >= 0.5,
        box=[list(box)], resolution=resolution, **kw,
    )


# ----------------------------------------------------------------------- #
# candidate construction
def test_candidate_rejects_unknown_tag():
    assert SMOOTHNESS_TAGS == ("C2", "C1", "lipschitz", "lsc", "usc")
    with pytest.raises(ValueError):
        BarrierCandidate(lambda x: x[0], smoothness="smoothish")


def test_smooth_candidate_cannot_declare_singular_set():
    with pytest.raises(ValueError):
        BarrierCandidate(lambda x: x[0] ** 2, lambda x: 2 * x, smoothness="C1",
                         singular=lambda x: x[0] == 0)


def test_gradient_oracle_and_errors():
    bar = _abs_candidate()
    assert bar.gradient_at([2.0]) == np.array([1.0])
    with pytest.raises(SingularPointError):
        bar.gradient_at([0.0])
    none = BarrierCandidate(lambda x: x[0], smoothness="lipschitz")
    with pytest.raises(UnsupportedSmoothnessError):
        none.gradient_at([1.0])


def _first_error(fn, X):
    """The class and message of the first row of X at which fn raises."""
    for x in X:
        try:
            fn(x)
        except Exception as e:  # noqa: BLE001 - the error is the result
            return type(e), str(e)
    return None


_ONE_D = np.linspace(-2.0, 2.0, 81).reshape(-1, 1)

# candidates with a gradient oracle, each on an (m, n) array of rows
_ORACLE_CASES = {
    # the oracle barriers of tools/bundle_digests.py's variants
    "abs-lipschitz-oracle": ({"value": "abs(x1) - 1", "gradient": ["1 if x1 > 0 else -1"],
                              "smoothness": "lipschitz", "singular": "x1 == 0"}, _ONE_D),
    "linear-lsc": ({"value": "x1 - 1", "gradient": ["1"], "smoothness": "lsc"}, _ONE_D),
    # rows before the first singular one raise their own error first
    "raises-before-singular": ({"value": "x1", "gradient": ["log(x1 + 1)"],
                                "smoothness": "lipschitz", "singular": "x1 == 0"}, _ONE_D),
    "raises-after-a-while": ({"value": "x1", "gradient": ["sqrt(1.5 - x1)"], "smoothness": "C1"},
                             _ONE_D),
    "no-oracle": ({"value": "abs(x1)", "smoothness": "lipschitz"}, _ONE_D),
}


def _gradient_cases():
    for name in scenarios.BUILTIN:
        sc = scenarios.build(name).scenario
        yield name, sc.barrier, sc.grid()
    for name, (cfg, X) in _ORACLE_CASES.items():
        yield name, BarrierCandidate.from_config(cfg, X.shape[1]), X
    yield "python-callable", _abs_candidate(), _ONE_D


_FIRST_ERRORS = {
    "abs-lipschitz-oracle": SingularPointError,
    "raises-before-singular": GradientOracleError,
    "raises-after-a-while": GradientOracleError,
    "no-oracle": UnsupportedSmoothnessError,
    "python-callable": SingularPointError,
}


@pytest.mark.parametrize("name, bar, X", list(_gradient_cases()))
def test_gradient_rows_equal_gradient_at_row_by_row(name, bar, X):
    error = _first_error(bar.gradient_at, X)
    assert (error and error[0]) == _FIRST_ERRORS.get(name)
    stop = len(X)
    if error is not None:
        with pytest.raises(error[0]) as excinfo:
            bar.gradient_rows(X)
        assert str(excinfo.value) == error[1]
        stop = next(i for i, x in enumerate(X) if _first_error(bar.gradient_at, [x]))
    if bar.gradient is None:
        return
    # the rows before the first error, and every row off the singular set
    regular = X if bar.singular is None else X[[not bar.is_singular(x) for x in X]]
    for rows in (X[:stop], regular):
        if _first_error(bar.gradient_at, rows) is None:
            got = bar.gradient_rows(rows)
            assert got.dtype == np.float64 and got.shape == rows.shape
            assert [g.tobytes() for g in got] == [bar.gradient_at(x).tobytes() for x in rows]


def test_from_config_builds_value_gradient_singular():
    bar = BarrierCandidate.from_config(
        {"value": "x1*(x1 + 2)", "gradient": ["2*x1 + 2"], "smoothness": "C2", "name": "p"}, 1)
    assert bar.value_at([1.0]) == 3.0
    assert bar.gradient_at([1.0]) == np.array([4.0])
    assert bar.name == "p"
    lips = BarrierCandidate.from_config(
        {"value": "abs(x1)", "smoothness": "lipschitz", "singular": "x1 == 0"}, 1)
    assert lips.is_singular([0.0]) and not lips.is_singular([0.5])


# ----------------------------------------------------------------------- #
# sign check
def test_candidate_check_passes_on_builtins(example1, example2, linear_stable, noisy_loop):
    for bundle in (example1, example2, linear_stable, noisy_loop):
        rep = candidate_check(bundle.scenario)
        assert rep.passed, bundle.name
        assert rep.check_id == "candidate-signs"
        assert rep.witness is None
        assert rep.samples == rep.flags["initial_samples"] + rep.flags["unsafe_samples"]


def test_candidate_check_fail_has_witness():
    sc = _scenario_1d(lambda x: -x[0] * (x[0] + 2), lambda x: np.array([-2 * x[0] - 2]))
    rep = candidate_check(sc)
    assert rep.verdict == "fail"
    assert rep.witness is not None
    # the flipped parabola is fine on the initial set but nonpositive on the
    # unsafe side; the witness is the deepest unsafe sample
    assert rep.witness == (1.0,)
    assert rep.margin == -3.0
    assert sc.unsafe(np.array(rep.witness))


@pytest.mark.parametrize("zero, first", [("0.0", -0.0), ("-0.0", 0.0)])
def test_candidate_check_margin_keeps_the_sign_of_the_first_zero(zero, first):
    # B is 0.0 on one side of the initial set and -0.0 on the other; which
    # zero a SIMD max returns depends on the CPU, the first sample's does not
    cfg = scenarios.builtin_config("linear-stable")
    cfg["barrier"] = {"value": f"x1 * {zero} if x1 <= 0.5 else x1 - 1", "smoothness": "lsc"}
    sc = scenarios.scenario_from_config(cfg)
    values = sc.barrier.value_rows(sc.initial_samples())
    assert set(np.signbit(values)) == {True, False} and np.all(values == 0.0)
    assert np.signbit(values[0]) == np.signbit(first)
    rep = candidate_check(sc)
    assert rep.passed and rep.margin == 0.0
    assert np.signbit(rep.margin) == np.signbit(-first)


def test_candidate_check_empty_sets_raise():
    sc = _scenario_1d(lambda x: x[0], lambda x: np.array([1.0]))
    sc.initial = lambda x: x[0] < -100
    with pytest.raises(EmptySampleError):
        candidate_check(sc)
    sc.initial = lambda x: x[0] <= -2.5
    sc.unsafe = lambda x: x[0] > 100
    with pytest.raises(EmptySampleError):
        candidate_check(sc)


def test_validate_rejects_overlapping_sets():
    sc = _scenario_1d(lambda x: x[0], lambda x: np.array([1.0]))
    sc.unsafe = lambda x: x[0] <= -2.5
    with pytest.raises(ValueError):
        sc.validate()


# ----------------------------------------------------------------------- #
# boundary extraction
def test_boundary_cells_example1(example1_grid):
    reps = sorted(float(r[0]) for r in example1_grid.representatives)
    # roots of x(x+2) land on grid nodes at resolution 201, so the refined
    # representatives are exact
    assert reps == [-2.0, 0.0]
    assert len(example1_grid.representatives) == 2
    assert example1_grid.spacing[0] == pytest.approx(0.02)


def test_boundary_refinement_off_grid():
    sc = _scenario_1d(lambda x: x[0] * (x[0] + 2), lambda x: np.array([2 * x[0] + 2]),
                      resolution=11)
    grid = boundary_extract(sc)
    reps = sorted(float(r[0]) for r in grid.representatives)
    assert len(reps) == 2
    assert reps[0] == pytest.approx(-2.0, abs=1e-7)
    assert reps[1] == pytest.approx(0.0, abs=1e-7)
    for r in grid.representatives:
        assert abs(sc.barrier.value_at(r)) <= sc.tolerances.tol_boundary


def test_boundary_cells_example2(example2_grid):
    reps = example2_grid.representatives
    assert np.all(reps[:, 1] == 0.0)
    # one sign-change cell per x1 column
    assert len(example2_grid.representatives) == 41


def test_boundary_requires_sign_change():
    sc = _scenario_1d(lambda x: x[0] ** 2 + 1.0, lambda x: np.array([2 * x[0]]))
    with pytest.raises(EmptyBoundaryError):
        boundary_extract(sc)


def test_boundary_semicontinuous_needs_explicit_points():
    f = SetValuedMap(1, [constant_piece(lambda x: True, [[0.0]])])
    bar = BarrierCandidate(lambda x: 0.0 if x[0] <= 0 else 1.0, smoothness="lsc")
    sc = SafetyScenario("semi", f, bar, lambda x: x[0] <= -1, lambda x: x[0] >= 1,
                        [[-2, 2]], 41)
    with pytest.raises(UnsupportedSmoothnessError):
        boundary_extract(sc)
    sc.boundary_points = np.array([[0.0]])
    grid = boundary_extract(sc)
    assert len(grid.representatives) == 1
    assert np.allclose(grid.representatives, [[0.0]])


def test_cells_containing_and_slack(example1_grid):
    hits = example1_grid.containing(np.array([0.0]), 1e-12)
    assert len(hits) == 1
    i = int(hits[0])
    assert example1_grid.containing(np.array([0.0])).tolist() == [i]
    outside = example1_grid.upper[i] + 0.05
    assert example1_grid.containing(outside).tolist() == []
    assert example1_grid.containing(outside, slack=0.06).tolist() == [i]


@pytest.mark.parametrize("dimension", [1, 2, "points"])
def test_boundary_extract_returns_one_representative_per_row(request, dimension):
    if dimension == "points":
        f = SetValuedMap(1, [constant_piece(lambda x: True, [[0.0]])])
        bar = BarrierCandidate(lambda x: 0.0 if x[0] <= 0 else 1.0, smoothness="lsc")
        sc = SafetyScenario("semi", f, bar, lambda x: x[0] <= -1, lambda x: x[0] >= 1,
                            [[-2, 2]], 41, boundary_points=np.array([[0.0], [0.5], [-1.0]]))
    else:
        sc = request.getfixturevalue("example1" if dimension == 1 else "example2").scenario
    grid = boundary_extract(sc)
    k, n = len(grid.representatives), sc.dimension
    assert k > 0
    for a in (grid.lower, grid.upper, grid.representatives):
        assert isinstance(a, np.ndarray) and a.shape == (k, n)
    # row i's box holds row i's representative
    assert np.all(grid.lower <= grid.representatives) and np.all(grid.representatives <= grid.upper)
    for i, x in enumerate(grid.representatives):
        assert i in grid.containing(x).tolist()


def test_collar_width_default_and_override(example1_grid):
    sc = _scenario_1d(lambda x: x[0] * (x[0] + 2), lambda x: np.array([2 * x[0] + 2]))
    assert collar_width(sc, example1_grid) == pytest.approx(2.0 * example1_grid.diameter)
    sc2 = _scenario_1d(lambda x: x[0] * (x[0] + 2), lambda x: np.array([2 * x[0] + 2]),
                       tolerances=Tolerances(collar_width=0.005))
    assert collar_width(sc2, example1_grid) == 0.005


def test_scenario_scaled_box():
    sc = _scenario_1d(lambda x: x[0], lambda x: np.array([1.0]), box=(-3.0, 1.0))
    half = sc.scaled(0.5)
    assert np.allclose(half.box, [[-2.0, 0.0]])  # shrunk about center -1
    assert half.resolution == sc.resolution


# ----------------------------------------------------------------------- #
# generalized gradients
def test_clarke_gradient_smooth_is_exact_singleton():
    bar = BarrierCandidate(lambda x: x[0] ** 2 + 3 * x[1],
                           lambda x: np.array([2 * x[0], 3.0]))
    g = clarke_gradient(bar, [1.5, -2.0])
    assert g.radius == 0.0
    assert np.array_equal(g.points, [[3.0, 3.0]])


def test_clarke_gradient_abs_with_oracle():
    got = clarke_gradient(_abs_candidate(), [0.0], 1e-3, 64)
    ref = ConvexCompactSet([[-1.0], [1.0]])
    assert hausdorff(got, ref) <= 0.05


def test_clarke_gradient_abs_finite_difference_fallback():
    got = clarke_gradient(_abs_candidate(with_gradient=False), [0.0], 1e-3, 64)
    ref = ConvexCompactSet([[-1.0], [1.0]])
    assert hausdorff(got, ref) <= 0.05


def test_clarke_gradient_max_on_diagonal():
    bar = BarrierCandidate(
        lambda x: max(float(x[0]), float(x[1])),
        smoothness="lipschitz",
        singular=lambda x: x[0] == x[1],
    )
    got = clarke_gradient(bar, [0.5, 0.5], 1e-3, 64)
    ref = ConvexCompactSet([[1.0, 0.0], [0.0, 1.0]])
    assert hausdorff(got, ref) <= 0.05


def test_clarke_gradient_away_from_kink_is_tight():
    got = clarke_gradient(_abs_candidate(), [2.0], 1e-3, 64)
    assert hausdorff(got, ConvexCompactSet.singleton([1.0])) <= 1e-9


def test_clarke_gradient_all_singular_raises():
    bar = BarrierCandidate(lambda x: abs(float(x[0])), smoothness="lipschitz",
                           singular=lambda x: True)
    with pytest.raises(SingularPointError):
        clarke_gradient(bar, [0.0])


def test_clarke_gradient_rejects_semicontinuous():
    bar = BarrierCandidate(lambda x: float(x[0] > 0), smoothness="lsc")
    with pytest.raises(UnsupportedSmoothnessError):
        clarke_gradient(bar, [0.0])


def test_tolerances_to_dict_round():
    d = Tolerances().to_dict()
    assert d["tol"] == 1e-9
    assert d["tol_strict"] == 1e-6
    assert d["tol_boundary"] == 1e-8
    assert d["collar_cells"] == 2.0
    assert d["collar_width"] is None


# ----------------------------------------------------------------------- #
# the batched boundary scan against a per-node, per-edge reference
def _refine_one(value_at, a, b, va, vb, tol_b):
    """Bisect a -> b (B(a) <= 0 < B(b)) alone; returns the point and the
    number of midpoints tried."""
    if abs(va) <= tol_b:
        return np.array(a, dtype=float), 0
    if abs(vb) <= tol_b:
        return np.array(b, dtype=float), 0
    lo, hi = np.array(a, dtype=float), np.array(b, dtype=float)
    for k in range(200):
        mid = 0.5 * (lo + hi)
        vm = value_at(mid)
        if abs(vm) <= tol_b:
            return mid, k + 1
        if vm <= 0.0:
            lo = mid
        else:
            hi = mid
    return mid, 200


def _per_edge_boundary(scenario):
    """(lower, upper, representative, diameter) of every cell, and the
    midpoints each edge tried, evaluating B one point at a time."""
    bar = scenario.barrier
    axes = scenario.axes()
    shape = tuple(len(a) for a in axes)
    values = np.array([bar.value_at(x) for x in scenario.grid()]).reshape(shape)
    inside = values <= 0.0
    half = np.array([a[1] - a[0] for a in axes]) / 2.0
    n = len(axes)
    cells, tries = [], []
    for axis in range(n):
        lo = tuple(slice(0, shape[k] - 1) if k == axis else slice(None) for k in range(n))
        hi = tuple(slice(1, shape[k]) if k == axis else slice(None) for k in range(n))
        for iu in np.argwhere(inside[lo] != inside[hi]):
            iv = iu.copy()
            iv[axis] += 1
            u = np.array([axes[k][iu[k]] for k in range(n)])
            v = np.array([axes[k][iv[k]] for k in range(n)])
            vu, vv = values[tuple(iu)], values[tuple(iv)]
            edge = (u, v, vu, vv) if vu <= 0.0 else (v, u, vv, vu)
            rep, k = _refine_one(bar.value_at, *edge, scenario.tolerances.tol_boundary)
            lower = np.minimum(u, v) - half
            upper = np.maximum(u, v) + half
            lower[axis] = min(u[axis], v[axis])
            upper[axis] = max(u[axis], v[axis])
            cells.append((lower, upper, rep, float(np.linalg.norm(upper - lower))))
            tries.append(k)
    return cells, tries


def _steep():
    # |B| <= tol_boundary only within 1e-308 of the root x1 = 1e-300: 200
    # midpoints come nowhere near it, so every edge stops at the cap
    cfg = scenarios.builtin_config("example2")
    cfg.update(initial="x1 <= -1", unsafe="x1 >= 1", depth="x1")
    cfg["barrier"] = {"value": "1e300*(x1 - 1e-300)", "gradient": ["1e300", "0"]}
    return scenarios.bundle_from_config(cfg)


_BOUNDARY_CASES = {
    "example1": lambda request: request.getfixturevalue("example1"),
    "example2": lambda request: request.getfixturevalue("example2"),
    "linear-stable": lambda request: request.getfixturevalue("linear_stable"),
    "example2-61x21": lambda request: scenarios.build("example2", resolution=(61, 21)),
    "example2-81x41": lambda request: scenarios.build("example2", resolution=(81, 41)),
    "lipschitz-2d": lambda request: request.getfixturevalue("lipschitz_2d"),
    "steep": lambda request: _steep(),
}


@pytest.mark.parametrize("case", list(_BOUNDARY_CASES))
def test_batched_boundary_scan_equals_per_edge_reference(request, case):
    scenario = _BOUNDARY_CASES[case](request).scenario
    expected, tries = _per_edge_boundary(scenario)
    grid = boundary_extract(scenario)
    assert grid.representatives.shape == (len(expected), scenario.dimension)
    for i, (lower, upper, rep, _) in enumerate(expected):
        # bytes, so that a -0.0 in place of 0.0 shows
        assert grid.lower[i].tobytes() == lower.tobytes()
        assert grid.upper[i].tobytes() == upper.tobytes()
        assert grid.representatives[i].tobytes() == rep.tobytes()
    assert grid.diameter == max(d for *_, d in expected)
    if case == "steep":
        assert tries and tries == [200] * len(tries)
