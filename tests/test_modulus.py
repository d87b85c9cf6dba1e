from __future__ import annotations

import json

import numpy as np
import pytest

from inclusafe import (
    ModulusPair,
    SetValuedMap,
    affine_piece,
    beta,
    build_modulus,
    constant_piece,
    local_gap,
    polynomial_piece,
    scenarios,
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
    assert pair.bound([1.0], 0.5) == 0.0
    rep = verify_modulus(m, pair, [[-3, 3]], samples=100)
    assert rep.passed and rep.min_slack == 0.0


def test_bound_factorizes(corpus_pairs, rng):
    _, pair = corpus_pairs["quadratic"]
    for _ in range(20):
        x = rng.uniform(-3, 3, size=1)
        d = float(rng.uniform(0.01, 1.0))
        assert pair.bound(x, d) == pair.step_gain(d) * pair.state_gain(x)


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
            assert pair.bound([r], d) >= gap - 1e-9


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


def test_beta_zero_edges_and_validation():
    m = _corpus()["quadratic"]
    assert beta(m, 0.0, 1.0) == 0.0
    assert beta(m, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        beta(m, -1.0, 0.5)


def test_beta_monotone_in_both_arguments():
    m = _corpus()["quadratic"]
    vals = [beta(m, r, d) for r, d in ((1.0, 0.5), (2.0, 0.5), (2.0, 1.0))]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[1] == pytest.approx(2.0, abs=1e-12)
    assert vals[2] == pytest.approx(4.0, abs=1e-12)
    assert vals[0] < vals[1] < vals[2]


def test_beta_evaluates_each_image_once(monkeypatch):
    f = scenarios.build("example2").scenario.dynamics
    # the value as the per-radius loop computed it, F(y) evaluated per call
    ring = np.array([[np.cos(a), np.sin(a)] for a in 2 * np.pi * np.arange(16) / 16])
    want = 0.0
    for s in np.linspace(0.0, 1.0, 9)[1:]:
        for m in np.linspace(0.0, 1.0, 9)[1:]:
            for d in ring:
                want = max(want, local_gap(f, m * d, s, directions=64))
    calls = []
    image = SetValuedMap.image
    monkeypatch.setattr(SetValuedMap, "image", lambda self, *a, **k: calls.append(1) or image(self, *a, **k))
    got = beta(f, 1.0, 1.0)
    assert len(calls) == 1 + 8 * 16  # F(0), then once per ring point
    assert got == want


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
