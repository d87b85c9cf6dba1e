from __future__ import annotations

import json
import math

import numpy as np
import pytest

from inclusafe import (
    ModulusPair,
    SetValuedMap,
    affine_piece,
    build_modulus,
    constant_piece,
    hausdorff,
    local_gap,
    polynomial_piece,
    scenarios,
    unit_directions,
    verify_modulus,
)
from inclusafe.modulus import TabulatedFn


def _corpus():
    return {
        "identity": SetValuedMap(1, [affine_piece(lambda x: True, [[1.0]], [0.0])]),
        "constant": SetValuedMap(1, [constant_piece(lambda x: True, [[3.0]])]),
        "affine2x": SetValuedMap(1, [affine_piece(lambda x: True, [[2.0]], [0.0])]),
        "quadratic": SetValuedMap(1, [polynomial_piece(lambda x: True, ["x1**2"], 1)]),
        "example1": scenarios.build("example1").scenario.dynamics,
    }


@pytest.fixture(scope="module")
def corpus_pairs():
    maps = _corpus()
    return {name: (m, build_modulus(m)) for name, m in maps.items()}


# ----------------------------------------------------------------------- #
# construction and verification
def test_corpus_maps_verify(corpus_pairs):
    for name, (m, pair) in corpus_pairs.items():
        rep = verify_modulus(m, pair, [[-3.0, 3.0]], samples=300)
        assert rep.passed, (name, rep.worst)
        assert rep.min_slack >= -1e-9
        assert rep.samples == 300


def test_degenerate_split_matches_map_structure(corpus_pairs):
    # maps whose spread does not grow with the evaluation point collapse to
    # the direct term; the two genuinely state-dependent maps do not
    for name in ("identity", "constant", "affine2x"):
        assert corpus_pairs[name][1].degenerate, name
    for name in ("quadratic", "example1"):
        assert not corpus_pairs[name][1].degenerate, name


def test_step_gain_zero_and_validation(corpus_pairs):
    for name, (_, pair) in corpus_pairs.items():
        assert pair.step_gain(0.0) == 0.0, name
        with pytest.raises(ValueError):
            pair.step_gain(-0.1)
    # the zero shortcut never consults the wrapped callable
    spiky = ModulusPair.from_callables(lambda d: 5.0, lambda x: 1.0)
    assert spiky.step_gain(0.0) == 0.0


def test_state_gain_at_least_one(corpus_pairs, rng):
    for name, (_, pair) in corpus_pairs.items():
        for _ in range(50):
            x = rng.uniform(-3, 3, size=1)
            assert pair.state_gain(x) >= 1.0, name


def test_identity_step_gain_is_exact():
    m = _corpus()["identity"]
    pair = build_modulus(m)
    # degenerate path evaluates the direct spread on demand: exact at any d
    assert pair.step_gain(0.3) == 0.3
    assert pair.step_gain(1.7) == 1.7
    assert pair.state_gain([2.0]) == 1.0


def test_constant_map_bound_is_zero():
    m = _corpus()["constant"]
    pair = build_modulus(m)
    assert pair.step_gain(0.5) == 0.0
    assert pair.step_gain(0.5) * pair.state_gain([1.0]) == 0.0
    rep = verify_modulus(m, pair, [[-3, 3]], samples=100)
    assert rep.passed and rep.min_slack == 0.0


def test_log_gap_grid_monotone_both_axes(corpus_pairs):
    for name in ("quadratic", "example1"):
        tables = corpus_pairs[name][1].to_tables()
        C = np.asarray(tables["log_gap"])
        assert np.all(np.diff(C, axis=0) >= 0.0), name
        assert np.all(np.diff(C, axis=1) >= 0.0), name


def test_example1_build_flags(corpus_pairs):
    flags = corpus_pairs["example1"][1].flags
    # the branch jump is visible at every radius, so the unit-spread onset
    # clamps at the low end and the splitting sup sits on the grid edge
    assert flags.get("onset_clamped_low") is True
    assert flags.get("sup_endpoint_warning") is True


def test_factored_bound_dominates_gap_on_grid(corpus_pairs):
    m, pair = corpus_pairs["quadratic"]
    for r in (0.5, 1.0, 2.0):
        for d in (0.25, 0.5, 1.0):
            direct = m.image(np.zeros(1))
            gap = local_gap(m, [r], d)
            assert pair.step_gain(d) * pair.state_gain([r]) >= gap - 1e-9


def test_build_rejects_misaligned_log_grid():
    with pytest.raises(ValueError):
        build_modulus(_corpus()["identity"], log_range=1.0, log_step=0.3)


# ----------------------------------------------------------------------- #
# local gap and two-argument spread
def test_local_gap_zero_radius_and_validation():
    m = _corpus()["quadratic"]
    assert local_gap(m, [1.0], 0.0) == 0.0
    with pytest.raises(ValueError):
        local_gap(m, [1.0], -0.1)


def test_local_gap_quadratic_closed_form():
    # F(y + sB) = [(y-s)^2, (y+s)^2] hull vs {y^2}: one-sided spread
    # 2ys + s^2; the origin term s^2 cancels, leaving exactly 2ys
    m = _corpus()["quadratic"]
    assert local_gap(m, [1.0], 0.5) == pytest.approx(1.0, abs=1e-12)
    assert local_gap(m, [2.0], 0.25) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------- #
# serialization
def test_tables_round_trip_through_json(corpus_pairs):
    for name in ("quadratic", "example1", "identity"):
        _, pair = corpus_pairs[name]
        blob = json.dumps(pair.to_tables())
        clone = ModulusPair.from_tables(json.loads(blob))
        assert clone.degenerate == pair.degenerate
        # agreement at the tabulated radii (the clone interpolates between)
        if pair.degenerate:
            nodes = pair.tables["direct"]["xs"]
        else:
            nodes = [float(np.exp(g)) for g in pair.tables["grid"]]
        for d in nodes[:: max(1, len(nodes) // 12)]:
            if d <= 0:
                continue
            assert clone.step_gain(d) == pytest.approx(pair.step_gain(d), rel=1e-9)
        for r in (0.5, 1.0, 2.5):
            assert clone.state_gain([r]) == pytest.approx(pair.state_gain([r]), rel=1e-9)


def test_tables_reject_unknown_kind():
    with pytest.raises(ValueError):
        ModulusPair.from_tables({"kind": "mystery", "direct": {"xs": [0, 1], "ys": [0, 1]}})
    bare = ModulusPair.from_callables(lambda d: d, lambda x: 1.0)
    with pytest.raises(ValueError):
        bare.to_tables()


def test_tabulated_fn_interp_and_clamp():
    f = TabulatedFn(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 2.0]))
    assert f(0.5) == 1.0
    assert f(-5.0) == 0.0  # clamped left
    assert f(9.0) == 2.0   # clamped right
    g = TabulatedFn.from_dict(f.to_dict())
    assert g(0.25) == f(0.25)


# ----------------------------------------------------------------------- #
# verification catches bad pairs
def test_verify_rejects_understated_bound():
    ident = _corpus()["identity"]
    bogus = ModulusPair.from_callables(lambda d: d, lambda x: 0.0)
    rep = verify_modulus(ident, bogus, [[-3, 3]], samples=200)
    assert not rep.passed
    assert rep.min_slack < -1e-6
    assert set(rep.worst) == {"x", "delta", "slack"}
    d = rep.to_dict()
    assert d["passed"] is False and d["samples"] == 200


def test_verify_deterministic_per_seed(corpus_pairs):
    m, pair = corpus_pairs["quadratic"]
    a = verify_modulus(m, pair, [[-3, 3]], samples=100, seed=11)
    b = verify_modulus(m, pair, [[-3, 3]], samples=100, seed=11)
    c = verify_modulus(m, pair, [[-3, 3]], samples=100, seed=12)
    assert a.min_slack == b.min_slack
    assert a.worst == b.worst
    assert c.worst != a.worst


def test_example2_modulus_state_gain_tracks_growth(example2_modulus):
    # the planar field spreads like x1^2 around the working band, so the
    # state factor must dominate the square there
    assert example2_modulus.state_gain([10.0, 0.0]) >= 100.0
    assert example2_modulus.state_gain([0.0, 0.0]) >= 1.0
    assert not example2_modulus.degenerate


# ----------------------------------------------------------------------- #
# the batched pipeline against a per-point reference
def _reference_spreads(f, log_step, density, ring_count, directions=64):
    """build_modulus's direct terms, kind and log-gap grid, one local_gap
    call per (ring point, step radius) as the per-point pipeline made them."""
    grid = np.linspace(-20.0, 20.0, 2 * int(round(20.0 / log_step)) + 1)
    radii = np.array([math.exp(g) for g in grid.tolist()])
    n = f.dimension
    origin = np.zeros(n)
    f0 = f.image(origin)
    direct = np.array([hausdorff(f.ball_hull(origin, s, density), f0, directions=directions) for s in radii])
    raw = np.zeros((len(radii), len(radii)))
    for i, r in enumerate(radii):
        for d in unit_directions(n, 2 if n == 1 else ring_count):
            fy = f.image(r * d)
            for j, s in enumerate(radii):
                g = local_gap(f, r * d, s, density=density, directions=directions,
                              _origin_term=direct[j], _image=fy)
                if g > raw[i, j]:
                    raw[i, j] = g
    M = np.maximum.accumulate(np.maximum.accumulate(raw, axis=0), axis=1)
    kind = "degenerate" if M.max() <= 1e-10 * (1.0 + direct.max()) else "built"
    unit = M[len(grid) // 2, len(grid) // 2]
    if 0.0 < unit <= 1.0:
        M = M * (2.0 / unit)
    log_gap = np.array([[math.log(m) if m > 0.0 else -1e6 for m in row] for row in M.tolist()])
    return direct, kind, log_gap


def _reference_growth(tables, s):
    if tables["kind"] == "degenerate" or s <= math.exp(-tables["log_range"]):
        return 0.0
    env = tables["envelope"]
    return math.exp(float(np.interp(math.log(s), np.asarray(env["xs"]), np.asarray(env["ys"]))))


def _reference_step(f, tables, delta, density):
    """A built pair's step factor, its direct term a per-point distance."""
    if delta == 0.0:
        return 0.0
    origin = np.zeros(f.dimension)
    direct = hausdorff(f.ball_hull(origin, delta, density), f.image(origin), directions=64)
    return max(_reference_growth(tables, delta), direct)


def _reference_report(f, pair, box, samples, seed, built_density=None, delta_max=1.0):
    """verify_modulus as a per-sample loop over per-point sets; the bound is
    step_gain(delta) * state_gain(x), or for a built pair (``built_density``
    given) its factors recomputed per point."""
    b = np.asarray(box, dtype=float)
    n = b.shape[0]
    rng = np.random.default_rng(seed)
    dirs = unit_directions(n, 64 if n > 1 else 2)
    min_slack, worst = math.inf, None
    for _ in range(samples):
        x = rng.uniform(b[:, 0], b[:, 1])
        delta = float(rng.uniform(0.0, delta_max))
        big = f.ball_hull(x, delta, 9) if delta > 0.0 else f.image(x)
        if built_density is None:
            bound = pair.step_gain(delta) * pair.state_gain(x)
        else:
            state = _reference_growth(pair.tables, float(np.linalg.norm(x))) + 1.0
            bound = _reference_step(f, pair.tables, delta, built_density) * state
        slack = float((f.image(x).support_many(dirs) + bound - big.support_many(dirs)).min())
        if slack < min_slack:
            min_slack = slack
            worst = {"x": [float(v) for v in x], "delta": delta, "slack": slack}
    return {"passed": bool(min_slack >= -1e-9), "min_slack": float(min_slack), "worst": worst,
            "samples": samples}


def _modulus_cases():
    cases = []
    for name in scenarios.BUILTIN:
        scenario = scenarios.build(name).scenario
        f = getattr(scenario.dynamics, "base", scenario.dynamics)
        bench_step = 1.0 if f.dimension == 1 else 2.0
        for log_step in (None, bench_step):
            cases.append(pytest.param(f, scenario.box, log_step, id=f"{name}-{log_step}"))
    for name, f in _corpus().items():
        if name != "example1":
            cases.append(pytest.param(f, [[-3.0, 3.0]], None, id=f"{name}-None"))
    # a planar map whose zero-radius lattice hull rounds unlike F(x) itself
    planar = SetValuedMap(2, [polynomial_piece(lambda x: True, ["x1**2 - x2", "x1*x2 + 0.3"], 2)])
    cases.append(pytest.param(planar, [[-2.0, 2.0], [-1.0, 1.0]], 2.0, id="planar-2.0"))
    return cases


@pytest.mark.parametrize("f, box, log_step", _modulus_cases())
def test_batched_modulus_equals_per_point_reference(f, box, log_step):
    n = f.dimension
    density, ring_count = (9, 2) if n == 1 else (5, 8)
    pair = build_modulus(f, log_step=log_step)
    direct, kind, log_gap = _reference_spreads(f, log_step or (0.5 if n == 1 else 1.0), density, ring_count)
    tables = pair.tables
    assert json.dumps(tables["direct"]["ys"][1:]) == json.dumps(direct.tolist())
    assert tables["kind"] == kind
    if kind == "built":
        assert json.dumps(tables["log_gap"]) == json.dumps(log_gap.tolist())
    cutoff = math.exp(-tables["log_range"])
    for d in (cutoff, 1e-6, 0.3, 1.0, 7.5):
        assert pair.step_gain(d) == _reference_step(f, tables, d, density)
    # the batched factors at a NaN radius, at the cutoff radius e^-log_range
    # and at delta 0
    X = np.zeros((4, n))
    X[1:, 0] = (math.nan, cutoff, 1.5)
    deltas = np.array([0.0, cutoff, 0.3, 0.0])
    states = [_reference_growth(tables, float(np.linalg.norm(x))) + 1.0 for x in X]
    assert json.dumps(pair.state_rows(X).tolist()) == json.dumps(states)
    bounds = [_reference_step(f, tables, d, density) * g for d, g in zip(deltas, states)]
    assert json.dumps(pair._bounds(X, deltas).tolist()) == json.dumps(bounds)
    clone = ModulusPair.from_tables(json.loads(json.dumps(tables)))
    bare = ModulusPair.from_callables(lambda d: 2.0 * d, lambda x: 1.0 + float(np.abs(x).sum()))
    for samples in (1, 63, 64, 65, 1000):
        got = verify_modulus(f, pair, box, samples=samples, seed=7).to_dict()
        assert json.dumps(got) == json.dumps(_reference_report(f, pair, box, samples, 7, density))
        for other in ((clone, bare) if samples < 1000 else ()):
            got = verify_modulus(f, other, box, samples=samples, seed=7).to_dict()
            assert json.dumps(got) == json.dumps(_reference_report(f, other, box, samples, 7))
    # every delta 0: the hull is F(x) and the bound 0
    got = verify_modulus(f, pair, box, samples=65, seed=7, delta_max=0.0).to_dict()
    assert json.dumps(got) == json.dumps(_reference_report(f, pair, box, 65, 7, density, 0.0))


@pytest.mark.parametrize("f, box", [
    (SetValuedMap(1, [polynomial_piece(lambda x: True, ["2*x1"], 1)]), [[-1.0, 1.0]]),
    (SetValuedMap(2, [polynomial_piece(lambda x: True, ["x1**2 - x2", "x1*x2"], 2)]), [[-1.0, 1.0], [-1.0, 1.0]]),
])
def test_nan_bounds_skip_only_their_own_samples(f, box):
    # a NaN slack is passed over; a violation in the same block still counts
    pair = ModulusPair.from_callables(lambda d: math.nan if d > 0.5 else 0.1 * d, lambda x: 1.0)
    for samples in (1, 63, 64, 65, 200):
        got = verify_modulus(f, pair, box, samples=samples, seed=3).to_dict()
        assert json.dumps(got) == json.dumps(_reference_report(f, pair, box, samples, 3))
    assert not verify_modulus(f, pair, box, samples=200, seed=3).passed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("component", ["1/x1", "x1**0.5"])
def test_non_finite_images_raise(component):
    f = SetValuedMap(1, [polynomial_piece(lambda x: True, [component], 1)])
    with pytest.raises(ValueError, match="points must be finite"):
        build_modulus(f)
    # x1**0.5 is NaN on the negative half of the box
    if component == "x1**0.5":
        pair = ModulusPair.from_callables(lambda d: d, lambda x: 1.0)
        with pytest.raises(ValueError, match="points must be finite"):
            verify_modulus(f, pair, [[-1.0, 1.0]], samples=100)
