from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracles
from inclusafe import (
    ConvexCompactSet,
    NoMatchingPieceError,
    PerturbedSystem,
    Piece,
    SetValuedMap,
    affine_piece,
    constant_piece,
    hull_union_many,
    polynomial_piece,
    scenarios,
    unit_ball_lattice,
    unit_directions,
)
from inclusafe.convexset import PRUNE_THRESHOLD


def _example1_map():
    return SetValuedMap(1, [
        constant_piece(lambda x: x[0] <= 0.0, [[2.0]], label="left"),
        constant_piece(lambda x: x[0] == 0.0, [[-1.0], [2.0]], label="interface"),
        constant_piece(lambda x: x[0] >= 0.0, [[-1.0]], label="right"),
    ])


# ----------------------------------------------------------------------- #
# piece dispatch
def test_piecewise_dispatch_matches_oracle():
    f = _example1_map()
    for x in (-3.0, -0.5, 0.0, 0.25, 1.0):
        lo, hi = f.image(np.array([x])).interval_bounds()
        assert (lo, hi) == oracles.example1_image(x)


def test_matching_indices_and_slack():
    f = _example1_map()
    assert f.matching(np.array([-1.0])) == [0]
    assert f.matching(np.array([0.0])) == [0, 1, 2]
    assert f.matching(np.array([1.0])) == [2]
    # a point just off the interface picks up the left piece with slack; the
    # measure-zero equality piece needs an exact hit, but the hull is the same
    assert f.matching(np.array([1e-8])) == [2]
    assert f.matching(np.array([1e-8]), slack=1e-6) == [0, 2]
    lo, hi = f.image(np.array([1e-8]), slack=1e-6).interval_bounds()
    assert (lo, hi) == (-1.0, 2.0)


def test_no_matching_piece_raises():
    f = SetValuedMap(1, [constant_piece(lambda x: x[0] > 1.0, [[0.0]])])
    with pytest.raises(NoMatchingPieceError):
        f.image(np.array([0.0]))


def test_map_needs_pieces_and_dimension():
    with pytest.raises(ValueError):
        SetValuedMap(1, [])
    with pytest.raises(ValueError):
        SetValuedMap(0, [constant_piece(lambda x: True, [[0.0]])])


def test_affine_and_polynomial_pieces():
    aff = SetValuedMap(2, [affine_piece(lambda x: True, [[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0], radius=0.5)])
    img = aff.image(np.array([2.0, 3.0]))
    assert np.allclose(img.points, [[4.0, -2.0]])
    assert img.radius == 0.5

    poly = SetValuedMap(2, [polynomial_piece(lambda x: True, ["x1*x2", "x1 - x2"], 2)])
    img = poly.image(np.array([3.0, -2.0]))
    assert np.allclose(img.points, [[-6.0, 5.0]])


def test_from_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SetValuedMap.from_config(1, [{"when": "True", "image": {"kind": "spline"}}])


def test_from_config_roundtrip_matches_direct():
    cfg = [
        {"when": "x1 <= 0", "image": {"kind": "constant", "points": [[2.0]]}},
        {"when": "x1 == 0", "image": {"kind": "constant", "points": [[-1.0], [2.0]]}},
        {"when": "x1 >= 0", "image": {"kind": "constant", "points": [[-1.0]]}},
    ]
    f = SetValuedMap.from_config(1, cfg)
    g = _example1_map()
    for x in np.linspace(-3, 1, 23):
        assert f.image(np.array([x])).interval_bounds() == g.image(np.array([x])).interval_bounds()


# ----------------------------------------------------------------------- #
# unit ball lattice
def test_unit_ball_lattice_includes_exact_axis_extremes():
    for n in (1, 2):
        lat = unit_ball_lattice(n, 9)
        assert np.all(np.linalg.norm(lat, axis=1) <= 1.0 + 1e-12)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            assert any(np.array_equal(p, e) for p in lat)
            assert any(np.array_equal(p, -e) for p in lat)
        assert any(np.array_equal(p, np.zeros(n)) for p in lat)


def test_unit_ball_lattice_nesting():
    # density 17 halves the axis step of density 9, so the coarse lattice
    # scaled by 1/2 sits inside the fine lattice scaled by 1 (exactly)
    for n in (1, 2):
        coarse = unit_ball_lattice(n, 9)
        fine = {tuple(p) for p in unit_ball_lattice(n, 17)}
        for p in coarse:
            assert tuple(p / 2.0) in fine


def test_unit_ball_lattice_validation():
    with pytest.raises(ValueError):
        unit_ball_lattice(1, 0)


# ----------------------------------------------------------------------- #
# perturbed systems
def test_perturbed_mode_validation():
    f = _example1_map()
    with pytest.raises(ValueError):
        PerturbedSystem(f, 0.1, "fuzzy")
    with pytest.raises(ValueError):
        PerturbedSystem(f, 0.1, "strong", density=0)
    sys_bad = PerturbedSystem(f, 0.0, "image")
    with pytest.raises(ValueError):
        sys_bad.image(np.array([0.0]))


def test_image_mode_matches_oracle():
    f = _example1_map()
    sys1 = PerturbedSystem(f, 1.0, "image")
    for x in (-3.0, 1.0, 0.0, -0.5, 0.25):
        got = sys1.image(np.array([x])).interval_bounds()
        assert got == oracles.example1_image_inflated(x, 1.0)


def test_strong_mode_matches_oracle():
    f = _example1_map()
    sys_half = PerturbedSystem(f, 0.5, "strong", density=9)
    for x in (-1.0, 0.0, 1.0, -0.5, 0.5, 0.2, -0.2, 0.75):
        got = sys_half.image(np.array([x])).interval_bounds()
        assert got == oracles.example1_image_strong(x, 0.5)


def test_state_dependent_margin():
    f = SetValuedMap(1, [constant_piece(lambda x: True, [[0.0]])])
    sys_var = PerturbedSystem(f, lambda x: 0.1 + abs(float(x[0])), "image")
    lo, hi = sys_var.image(np.array([2.0])).interval_bounds()
    assert (lo, hi) == (-2.1, 2.1)


def test_constant_margins_are_checked_on_first_use_and_callable_margins_every_call(monkeypatch):
    f = SetValuedMap(1, [affine_piece(lambda x: True, [[-1.0]], [0.0])])
    X = np.array([[0.5], [-0.25], [1.0]])
    # a zero margin is refused on every call, at the first row of each
    zero = PerturbedSystem(f, 0.0, "image")
    for x in (0.5, -0.25):
        with pytest.raises(ValueError, match=rf"perturbation margin must be positive, got 0.0 at x=\[{x}\]"):
            zero.images(np.array([[x], [1.0]]))
    blind = PerturbedSystem(f, 0.1, "strong", sense_margin=0.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="sensing margin must be positive, got 0.0"):
            blind.images(X)
    # a constant margin is resolved once and then reused
    checked = []
    margin_at = PerturbedSystem.margin_at
    monkeypatch.setattr(PerturbedSystem, "margin_at", lambda self, x: checked.append(x) or margin_at(self, x))
    once = PerturbedSystem(f, 0.1, "strong")
    first = once.images(X)
    again = once.images(X)
    assert len(checked) == 1  # the image margin, which is also the argument margin
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    # a callable margin is evaluated at every row on every call
    seen = []

    def margin(x):
        seen.append(x.tolist())
        return 0.1 + abs(float(x[0]))

    varying = PerturbedSystem(f, margin, "strong")
    for _ in range(2):
        _, _, radii = varying.images(X)
        assert radii.tolist() == [0.1 + abs(x) for x in X[:, 0]]
    assert seen == X.tolist() * 2  # the image margins, reused as argument margins, twice


def test_sense_margin_decouples_argument_ball():
    ident = SetValuedMap(1, [affine_piece(lambda x: True, [[1.0]], [0.0])])
    sys_sa = PerturbedSystem(ident, margin=0.25, mode="strong", density=9, sense_margin=0.5)
    lo, hi = sys_sa.image(np.array([1.0])).interval_bounds()
    # co{F(x + 0.5B)} = [x-0.5, x+0.5], then +0.25 actuation ball
    assert (lo, hi) == (0.25, 1.75)
    assert sys_sa.sense_margin_at(np.array([1.0])) == 0.5
    assert sys_sa.margin_at(np.array([1.0])) == 0.25


def test_nesting_chain_plain_image_strong():
    # F(x) <= image-mode <= strong-mode in the support-function order
    f = _example1_map()
    eps = 0.3
    img = PerturbedSystem(f, eps, "image")
    strong = PerturbedSystem(f, eps, "strong", density=9)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = np.array([float(rng.uniform(-3, 1))])
        s0 = f.image(x)
        s1 = img.image(x)
        s2 = strong.image(x)
        for d in (np.array([1.0]), np.array([-1.0])):
            assert s0.support(d) <= s1.support(d) + 1e-12
            assert s1.support(d) <= s2.support(d) + 1e-12


def test_strong_mode_monotone_in_eps_with_nested_lattices():
    # eps2 = 2*eps1 with density 17 refines the density-9 eps1 lattice, so
    # the images must nest exactly
    f = _example1_map()
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = np.array([float(rng.uniform(-2, 2))])
        eps1 = float(rng.uniform(0.05, 0.4))
        s1 = PerturbedSystem(f, eps1, "strong", density=9).image(x)
        s2 = PerturbedSystem(f, 2.0 * eps1, "strong", density=17).image(x)
        for d in (np.array([1.0]), np.array([-1.0])):
            assert s1.support(d) <= s2.support(d) + 1e-12


def test_mode_none_passthrough():
    f = _example1_map()
    sysn = PerturbedSystem(f)
    x = np.array([0.5])
    assert sysn.image(x).interval_bounds() == f.image(x).interval_bounds()
    assert sysn.dimension == 1


def test_strong_image_support_against_dense_reference():
    # 2-D sanity: inscribed-lattice hull support is within the analytic bound
    # for the planar drift field used by the corpus
    f = SetValuedMap(2, [polynomial_piece(lambda x: True, ["0", "-1 + x1**2*x2"], 2)])
    eps = 0.04
    strong = PerturbedSystem(f, eps, "strong", density=9)
    x = np.array([5.0, 0.0])
    img = strong.image(x)
    dirs = unit_directions(2, 64)
    # analytic outer bound: v1 = 0, v2 in [-1 + min(x1+u)^2*(x2+w), ...] + eps
    lo2 = -1.0 + min((5.0 + u) ** 2 * w for u in (-eps, 0, eps) for w in (-eps, 0, eps))
    hi2 = -1.0 + max((5.0 + u) ** 2 * w for u in (-eps, 0, eps) for w in (-eps, 0, eps))
    for d in dirs:
        outer = ConvexCompactSet([[0.0, lo2], [0.0, hi2]], eps + 1e-9)
        assert img.support(d) <= outer.support(d) + 1e-9
    # the hinted selection vector (0, eps) is feasible in the sampled image
    from inclusafe import contains
    assert contains(img, [0.0, eps], 1e-9)


# ----------------------------------------------------------------------- #
# argument-ball lattice kernel
def _per_point_hull(f, center, radius, density, slack):
    lattice = unit_ball_lattice(f.dimension, density) * radius
    return hull_union_many([f.image(center + u, slack) for u in lattice])


def _assert_ball_hull_is_per_point(f, center, radius, density, slack):
    center = np.asarray(center, dtype=float)
    if unit_ball_lattice(f.dimension, density).shape[0] == 0:
        with pytest.raises(ValueError):
            _per_point_hull(f, center, radius, density, slack)
        with pytest.raises(ValueError):
            f.ball_hull(center, radius, density, slack)
        return
    want = _per_point_hull(f, center, radius, density, slack)
    got = f.ball_hull(center, radius, density, slack)
    assert got.points.shape == want.points.shape
    assert got.points.tobytes() == want.points.tobytes()
    assert got.radius == want.radius


def _kernel_maps():
    maps = {}
    for name in scenarios.BUILTIN:
        dyn = scenarios.build(name).scenario.dynamics
        maps[name] = dyn.base if isinstance(dyn, PerturbedSystem) else dyn
    maps["affine-2d"] = SetValuedMap(2, [affine_piece(
        lambda x: True, [[0.3, 1.0], [-1.0, 0.7]], [1.0, -0.0], radius=0.5)])
    maps["polynomial-2d"] = SetValuedMap(2, [polynomial_piece(
        lambda x: True, ["x1*x2", "x1 - x2**2"], 2)])
    # an affine and a polynomial piece that both hold on the line x1 = 0,
    # with equal radii and with one radius zero
    for label, radius in (("equal", 0.2), ("zero", 0.0)):
        maps[f"overlap-2d-{label}"] = SetValuedMap(2, [
            affine_piece(lambda x: x[0] <= 0.0, [[0.3, 1.0], [-1.0, 0.7]], [1.0, -0.0], radius=0.2),
            polynomial_piece(lambda x: x[0] >= 0.0, ["x1*x2 - 1", "x1 - x2**2"], 2, radius=radius),
        ])
    return maps


@pytest.mark.parametrize("name", list(_kernel_maps()))
def test_ball_hull_equals_per_point_hull_bit_for_bit(name):
    f = _kernel_maps()[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for radius in (1e-3, 0.1, 1.0):
        # random centers, plus centers that put lattice rows exactly on the
        # x1 = 0 interface of example1
        centers = [rng.uniform(-2.0, 2.0, f.dimension) for _ in range(4)]
        centers += [np.zeros(f.dimension), np.full(f.dimension, 0.25 * radius)]
        for center in centers:
            for density in (1, 3, 9):
                for slack in (0.0, 1e-6):
                    _assert_ball_hull_is_per_point(f, center, radius, density, slack)


def test_ball_hull_unequal_piece_radii_keeps_two_level_merge():
    # where pieces overlap with unequal radii a single flat merge would
    # ring-expand some points twice; the kernel merges each row first
    f = SetValuedMap(2, [
        constant_piece(lambda x: x[0] <= 0.0, [[1.0, 0.0], [0.0, 1.0]], radius=0.1),
        affine_piece(lambda x: x[0] >= 0.0, [[1.0, 0.5], [0.0, -1.0]], [0.0, 0.2], radius=0.3),
        polynomial_piece(lambda x: x[1] >= 0.0, ["x1*x2", "x2 - 1"], 2, radius=0.2),
        Piece(lambda x: abs(x[0]) <= 0.1,
              lambda x: ConvexCompactSet([[x[1], x[0]]], 0.05 + abs(float(x[0])))),
    ])
    rng = np.random.default_rng(11)
    for _ in range(10):
        center = rng.uniform(-0.5, 0.5, 2)
        for radius in (0.1, 1.0):
            _assert_ball_hull_is_per_point(f, center, radius, 9, 0.0)
            _assert_ball_hull_is_per_point(f, center, radius, 5, 1e-3)


def test_ball_hull_of_one_piece_too_large_to_concatenate_leaves_its_rows_alone():
    # three points at each of the 49 lattice rows exceed the pruning
    # threshold, so the run is pruned; the piece's rows are read-only here
    piece = constant_piece(lambda x: True, [[1.0, 0.0], [0.0, 1.0], [-1.0, -0.5]], radius=0.1)

    def rows(X):
        pts, r = piece.rows(X)
        pts.setflags(write=False)
        return pts, r

    f = SetValuedMap(2, [Piece(piece.predicate, piece.image, rows=rows)])
    _assert_ball_hull_is_per_point(f, [0.3, -0.2], 0.5, 9, 0.0)


def test_multi_piece_ball_hulls_equal_per_point_hulls_bit_for_bit(monkeypatch):
    """Lattice rows of several pieces: where every row holds one point count
    and one radius (to its sign) each run just concatenates its rows, and
    rows of other counts, radii or zero signs still reach ``_merge_runs``.
    Every hull, the sign of a zero radius included, is the per-point one."""
    import inclusafe.svmap as svmap

    calls = []
    merge_runs = svmap._merge_runs
    monkeypatch.setattr(svmap, "_merge_runs", lambda *args: calls.append(1) or merge_runs(*args))

    def halves(left, right):
        return SetValuedMap(1, [
            constant_piece(lambda x: x[0] <= 0.0, *left),
            constant_piece(lambda x: x[0] > 0.0, *right),
        ])

    # centers whose lattice of radius 0.5 straddles x1 = 0 without a row
    # on it, lies on one side, or (0.25) has a row exactly on it
    straddle, on_zero = [[-0.3], [0.1], [0.3], [-1.0], [1.0]], [[0.25], [-0.3]]
    cases = [
        (_example1_map(), straddle, False),
        (_example1_map(), on_zero, True),  # the interface row holds 4 points
        (halves(([[2.0]], 0.0), ([[-1.0], [1.5]], 0.0)), straddle, True),
        (halves(([[2.0]], 0.1), ([[-1.0]], 0.3)), straddle, True),
        (halves(([[2.0]], -0.0), ([[-1.0]], -0.0)), straddle, False),
        (halves(([[2.0]], 0.0), ([[-1.0]], -0.0)), straddle, True),
        (halves(([[2.0]], -0.0), ([[-1.0]], 0.0)), straddle, True),
    ]
    for f, centers, merged in cases:
        for slack in (0.0, 1e-6):
            calls.clear()
            points, counts, radii = f.ball_hulls(centers, 0.5, 9, slack)
            assert bool(calls) == merged
            for i, center in enumerate(centers):
                want = _per_point_hull(f, np.array(center), 0.5, 9, slack)
                assert points[i, :counts[i]].tobytes() == want.points.tobytes()
                assert radii[i:i + 1].tobytes() == np.float64(want.radius).tobytes()


def test_ball_hull_raises_when_no_piece_covers_a_lattice_point():
    f = SetValuedMap(1, [
        constant_piece(lambda x: x[0] <= 0.0, [[1.0]]),
        constant_piece(lambda x: x[0] >= 0.5, [[-1.0]]),
    ])
    with pytest.raises(NoMatchingPieceError):
        f.ball_hull(np.array([0.25]), 0.5, 9)
    with pytest.raises(NoMatchingPieceError):
        _per_point_hull(f, np.array([0.25]), 0.5, 9, 0.0)
    # a ball inside the covered part is fine
    assert f.ball_hull(np.array([-1.0]), 0.5, 9).interval_bounds() == (1.0, 1.0)


# ----------------------------------------------------------------------- #
# batched images
def _per_point_perturbed(system, x, slack):
    """The perturbed image at x built from per-point images only."""
    if system.mode == "none":
        return system.base.image(x, slack)
    if system.mode == "image":
        return system.base.image(x, slack).inflate(system.margin_at(x))
    eps_arg = system.sense_margin_at(x)
    return _per_point_hull(system.base, x, eps_arg, system.density, slack).inflate(system.margin_at(x))


def _assert_rows_are_per_point(got, want_sets):
    points, counts, radii = got
    assert points.shape[0] == counts.shape[0] == radii.shape[0] == len(want_sets)
    for i, want in enumerate(want_sets):
        c = counts[i]
        assert points[i, :c].tobytes() == want.points.tobytes()
        assert radii[i] == want.radius
        # the padding repeats points of the row, so it moves no support value
        assert all((want.points == p).all(axis=1).any() for p in points[i, c:])


def _batch_points(f, rng):
    X = rng.uniform(-2.0, 2.0, (24, f.dimension))
    X[:4] = 0.0  # example1's x1 = 0 interface: several pieces hold
    X[4:8, 0] = rng.choice([-0.05, 0.0, 0.05], 4)
    return X


@pytest.mark.parametrize("name", list(_kernel_maps()))
@pytest.mark.parametrize("mode", PerturbedSystem.MODES)
def test_batched_images_equal_per_point_images_bit_for_bit(name, mode):
    f = _kernel_maps()[name]
    rng = np.random.default_rng(sum(map(ord, name + mode)))
    X = _batch_points(f, rng)
    for eps in (1e-3, 0.1):
        system = PerturbedSystem(f, 0.0 if mode == "none" else eps, mode, density=9)
        for slack in (0.0, 1e-6):
            want = [_per_point_perturbed(system, x, slack) for x in X]
            _assert_rows_are_per_point(system.images(X, slack), want)
            # the one-row case is the per-point image
            for x, w in zip(X[:6], want):
                one = system.image(x, slack)
                assert one.points.tobytes() == w.points.tobytes() and one.radius == w.radius
    if mode == "none":
        _assert_rows_are_per_point(f.images(X), [f.image(x) for x in X])
    if name.startswith("overlap-2d"):
        # the rows on the line take one pass: no per-point image is made
        rowwise = SetValuedMap(2, [dataclasses.replace(p, image=None) for p in f.pieces])
        _assert_rows_are_per_point(rowwise.images(X), [f.image(x) for x in X])


def test_batched_ball_hulls_with_unequal_radii_and_rowless_pieces():
    # rows where pieces of unequal radii overlap, a piece without a batched
    # form, and overlaps of more than PRUNE_THRESHOLD points go through the
    # per-point merge rule
    unequal = SetValuedMap(2, [
        constant_piece(lambda x: x[0] <= 0.0, [[1.0, 0.0], [0.0, 1.0]], radius=0.1),
        affine_piece(lambda x: x[0] >= 0.0, [[1.0, 0.5], [0.0, -1.0]], [0.0, 0.2], radius=0.3),
        polynomial_piece(lambda x: x[1] >= 0.0, ["x1*x2", "x2 - 1"], 2, radius=0.2),
        Piece(lambda x: abs(x[0]) <= 0.1,
              lambda x: ConvexCompactSet([[x[1], x[0]]], 0.05 + abs(float(x[0])))),
    ])
    ring = unit_directions(2, 60)
    crowded = SetValuedMap(2, [
        constant_piece(lambda x: x[0] <= 0.0, ring),
        constant_piece(lambda x: x[0] >= 0.0, 0.5 * ring + 0.25),
    ])
    assert 2 * len(ring) > PRUNE_THRESHOLD
    rng = np.random.default_rng(5)
    centers = rng.uniform(-0.5, 0.5, (12, 2))
    radii = rng.uniform(0.05, 1.0, 15)
    # centers on the line x1 = 0, where both pieces of crowded hold
    centers = np.vstack([centers, [[0.0, 0.1], [0.0, -0.3], [0.0, 0.0]]])
    for f in (unequal, crowded):
        for density in (5, 9):
            want = [_per_point_hull(f, c, r, density, 0.0) for c, r in zip(centers, radii)]
            _assert_rows_are_per_point(f.ball_hulls(centers, radii, density), want)
        _assert_rows_are_per_point(f.images(centers), [f.image(c) for c in centers])


def test_batched_images_raise_when_no_piece_covers_a_row():
    f = SetValuedMap(1, [constant_piece(lambda x: x[0] <= 0.0, [[1.0]])])
    with pytest.raises(NoMatchingPieceError, match="x=\\[0.5\\]"):
        f.images(np.array([[-1.0], [0.5]]))
