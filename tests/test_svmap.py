from __future__ import annotations

import dataclasses
import math

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
    expressions,
    hull_union_many,
    polynomial_piece,
    scenarios,
    unit_ball_lattice,
    unit_directions,
)
from inclusafe.convexset import interval_rows, row_set, support_rows, take_rows
from inclusafe.svmap import unperturbed


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
    # three points at each of the 49 lattice rows, concatenated per run;
    # the piece's rows are read-only here, so no merge may write into them
    piece = constant_piece(lambda x: True, [[1.0, 0.0], [0.0, 1.0], [-1.0, -0.5]], radius=0.1)

    def rows(X):
        pts, r = piece.rows(X)
        pts.setflags(write=False)
        return pts, r

    f = SetValuedMap(2, [Piece(piece.predicate, piece.image, rows=rows)])
    _assert_ball_hull_is_per_point(f, [0.3, -0.2], 0.5, 9, 0.0)


def test_multi_piece_ball_hulls_equal_per_point_hulls_bit_for_bit(monkeypatch):
    """Lattice rows of several pieces: in the general assembly, where every
    row holds one point count and one radius (to its sign) each run just
    concatenates its rows, and rows of other counts, radii or zero signs
    still reach ``merge_runs``; the pattern table of these constant pieces
    merges only the runs it has not met.  Every hull on both paths, the
    sign of a zero radius included, is the per-point one."""
    import inclusafe.svmap as svmap

    calls = []
    merge_runs = svmap.merge_runs
    monkeypatch.setattr(svmap, "merge_runs", lambda *args: calls.append(1) or merge_runs(*args))

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
        for g, reaches in ((f, False), (_general(f), merged)):
            for slack in (0.0, 1e-6):
                g.ball_hulls(centers, 0.5, 9, slack)
                calls.clear()
                stack = g.ball_hulls(centers, 0.5, 9, slack)
                points, counts, radii = stack[:3]
                assert bool(calls) == reaches
                for i, center in enumerate(centers):
                    want = _per_point_hull(f, np.array(center), 0.5, 9, slack)
                    assert points[i, :counts[i]].tobytes() == want.points.tobytes()
                    assert radii[i:i + 1].tobytes() == np.float64(want.radius).tobytes()
                    _assert_same_shortfalls(row_set(stack, i), want)


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


def _assert_same_shortfalls(got, want):
    """The two sets have the same shortfalls, or both none."""
    if want.shortfalls is None:
        assert got.shortfalls is None
    else:
        assert got.shortfalls is not None and got.shortfalls.tobytes() == want.shortfalls.tobytes()


def _assert_rows_are_per_point(got, want_sets):
    points, counts, radii = got[:3]
    assert len(got) in (3, 4)
    assert points.shape[0] == counts.shape[0] == radii.shape[0] == len(want_sets)
    shortfalls = got[3] if len(got) == 4 else np.zeros(points.shape[:2])
    for i, want in enumerate(want_sets):
        c = counts[i]
        assert points[i, :c].tobytes() == want.points.tobytes()
        assert radii[i] == want.radius
        _assert_same_shortfalls(row_set(got, i), want)
        # the padding repeats points of the row with their shortfalls, so it
        # moves no support value
        own = np.column_stack([want.points, np.zeros(c) if want.shortfalls is None else want.shortfalls])
        for p, short in zip(points[i, c:], shortfalls[i, c:]):
            assert (own == np.append(p, short)).all(axis=1).any()


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
    # form, and overlaps of many points follow the per-point merge rule
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


def test_images_of_pieces_of_unequal_radii_are_exact(two_radii):
    f = unperturbed(scenarios.bundle_from_config(two_radii).scenario.dynamics)
    X = np.array([[1.0], [-0.3], [0.0], [1.7], [-2.0]])
    for x in X:
        assert f.image(x).interval_bounds() == (-1.5, -0.1)
    lo, hi = interval_rows(f.images(X))
    assert lo.tolist() == [-1.5] * 5 and hi.tolist() == [-0.1] * 5
    _assert_rows_are_per_point(f.images(X), [f.image(x) for x in X])
    strong = PerturbedSystem(f, 0.05, "strong")
    lo, hi = interval_rows(strong.images(X))
    assert lo.tolist() == [-1.55] * 5 and np.allclose(hi, -0.05, rtol=0.0, atol=1e-15)


def test_overlapping_pieces_of_radii_0_01_03_have_the_max_support():
    centres = [[0.0, 0.0], [0.4, -0.2], [-0.3, 0.5]]
    pieces = [constant_piece(lambda x, k=k: x[0] + 0.1 * k >= 0.0, [c], radius=r, label=f"p{k}")
              for k, (c, r) in enumerate(zip(centres, (0.0, 0.1, 0.3)))]
    f = SetValuedMap(2, pieces)
    dirs = unit_directions(2, 512)
    X = np.array([[0.5, 0.0], [2.0, -1.0], [-0.05, 0.3], [-0.15, 1.0]])  # three, three, two and one pieces
    stack = f.images(X)
    for i, x in enumerate(X):
        held = [p.image(x) for p in pieces if p.predicate(x)]
        want = np.max([s.support_many(dirs) for s in held], axis=0)
        got = f.image(x).support_many(dirs)
        assert np.abs(got - want).max() <= 1e-12
        assert got.tobytes() == support_rows(take_rows(stack, [i]), dirs)[0].tobytes()
    assert [len(f.matching(x)) for x in X] == [3, 3, 2, 1]


def test_strong_image_of_one_point_piece_keeps_every_lattice_point():
    # 113 lattice points at density 13: the hull of each row's ball is the
    # images of all of them, in lattice order
    f = SetValuedMap(2, [polynomial_piece(expressions.predicate_fn("True", 2), ["x1*x2", "x1 - x2**2"], 2)])
    lattice = unit_ball_lattice(2, 13)
    assert lattice.shape[0] == 113
    system = PerturbedSystem(f, 0.04, "strong", density=13)
    S = np.random.default_rng(13).uniform(-1.0, 1.0, (3, 2))
    points, counts, radii = system.images(S)
    assert counts.tolist() == [113] * 3 and radii.tolist() == [0.04] * 3
    for i, x in enumerate(S):
        want = np.array([f.image(x + u).points[0] for u in 0.04 * lattice])
        assert points[i].tobytes() == want.tobytes()


def test_batched_images_raise_when_no_piece_covers_a_row():
    f = SetValuedMap(1, [constant_piece(lambda x: x[0] <= 0.0, [[1.0]])])
    with pytest.raises(NoMatchingPieceError, match="x=\\[0.5\\]"):
        f.images(np.array([[-1.0], [0.5]]))


# ----------------------------------------------------------------------- #
# what images resolve once per map: the rows of a sole batched piece with
# cached counts and radii, and the pattern table of fixed pieces
def _assert_same_stack(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert a.tobytes() == b.tobytes()


def _general(f):
    """f with the same pieces, none of which holds by a constant predicate
    or has a fixed image, so that its images take the general assembly."""
    return SetValuedMap(f.dimension, [dataclasses.replace(p, predicate=lambda x, _p=p.predicate: _p(x), fixed=False)
                                      for p in f.pieces])


def _general_system(system):
    """The general assembly of ``system``'s images: its base map made
    :func:`_general`, with callable margins of the same values."""
    if isinstance(system, SetValuedMap):
        return _general(system)
    def varying(margin):
        return margin if callable(margin) else lambda x: margin

    sense = system.sense_margin
    return PerturbedSystem(_general(system.base), varying(system.margin), system.mode, system.density,
                           None if sense is None else varying(sense))


def _assert_images_resolved(system, S, slack=0.0):
    """``system.images(S, slack)`` equals the per-point images row by row
    and the general assembly's padded stack byte for byte."""
    got = system.images(S, slack)
    if isinstance(system, SetValuedMap):
        want = [system.image(x, slack) for x in S]
    else:
        want = [_per_point_perturbed(system, x, slack) for x in S]
    _assert_rows_are_per_point(got, want)
    _assert_same_stack(got, _general_system(system).images(S, slack))
    return got


@pytest.fixture()
def assembled(monkeypatch):
    """The row counts of every general assembly made."""
    import inclusafe.svmap as svmap

    rows = []
    assemble = svmap.SetValuedMap._assemble
    monkeypatch.setattr(svmap.SetValuedMap, "_assemble",
                        lambda self, X, *args: rows.append(X.shape[0]) or assemble(self, X, *args))
    return rows


def _systems_of(name):
    """The systems a run of builtin ``name`` can take its images from: its
    base map bare and in each mode, and its own dynamics."""
    dyn = scenarios.build(name).scenario.dynamics
    base = dyn.base if isinstance(dyn, PerturbedSystem) else dyn
    systems = {"bare": base, "own": dyn}
    for mode in PerturbedSystem.MODES:
        systems[mode] = PerturbedSystem(base, 0.0 if mode == "none" else 0.1, mode)
    systems["sensing"] = PerturbedSystem(base, 0.1, "strong", sense_margin=0.05)
    return systems


@pytest.mark.parametrize("name", scenarios.BUILTIN)
def test_images_of_each_builtin_equal_per_point_and_general_images(name, assembled):
    sc = scenarios.build(name).scenario
    rng = np.random.default_rng(sum(map(ord, name)))
    for label, system in _systems_of(name).items():
        # a run whose row count shrinks, then grows: random states of the
        # box, and states on example1's piece interface and beside it
        for m in (6, 6, 4, 1, 3, 5):
            S = rng.uniform(sc.box[:, 0], sc.box[:, 1], (m, sc.dimension))
            if m > 3:
                S[:3, 0] = [0.0, -0.0, rng.choice([-1e-12, 1e-12])]
            assembled.clear()
            system.images(S)
            assert assembled == [], label  # every builtin resolves its images
            _assert_images_resolved(system, S)


def test_pattern_table_meets_a_pattern_after_step_64(assembled):
    system = PerturbedSystem(_example1_map(), 1.0, "image")
    S = np.array([[-1.0], [-0.5], [-0.25]])
    for k in range(70):  # the left piece alone
        _assert_images_resolved(system, S - 1e-3 * k)
    # the interface row widens every row's padding, and then right rows
    for S in ([[-1.0], [0.0], [0.5]], [[0.5], [0.25]], [[-1.0], [0.75]], [[0.0]], [[-0.5], [-0.25]]):
        S = np.array(S)
        for _ in range(2):
            assembled.clear()
            system.images(S)
            assert assembled == []  # a pattern met first takes the hull of its pieces' images
        _assert_images_resolved(system, S)


def _six_fixed_pieces():
    """A planar map of six overlapping fixed pieces of four radii, two of
    them 60-point rings."""
    ring = unit_directions(2, 60)
    return SetValuedMap(2, [
        constant_piece(lambda x: x[0] <= 0.0, [[1.0, 0.0], [0.0, 1.0]], radius=0.1),
        constant_piece(lambda x: x[0] >= 0.0, [[1.0, 0.5], [0.0, -1.0], [0.5, 0.5]], radius=0.3),
        constant_piece(lambda x: x[1] >= 0.0, [[0.2, 0.2]], radius=0.3),
        constant_piece(lambda x: x[1] <= -0.5, ring),
        constant_piece(lambda x: x[1] <= -0.5 and x[0] >= 0.0, 0.5 * ring + 0.25),
        constant_piece(lambda x: x[1] >= 0.5, [[-0.0, 0.0]], radius=-0.0),
    ])


def test_pattern_table_of_overlapping_fixed_pieces():
    f = _six_fixed_pieces()
    assert f._table is not None
    rng = np.random.default_rng(9)
    for system in (f, PerturbedSystem(f, 0.0, "none"), PerturbedSystem(f, 0.2, "image")):
        for m in (8, 8, 5, 2, 7):
            S = rng.uniform(-1.0, 1.0, (m, 2))
            S[: m // 2, rng.integers(2)] = 0.0
            _assert_images_resolved(system, S)


def test_pattern_table_raises_where_no_piece_holds():
    f = SetValuedMap(1, [constant_piece(lambda x: x[0] <= 0.0, [[1.0]]),
                         constant_piece(lambda x: x[0] >= 1.0, [[2.0]])])
    for g in (f, _general(f)):
        with pytest.raises(NoMatchingPieceError, match=r"no piece matches at x=\[0\.5\]"):
            g.images(np.array([[-1.0], [0.5], [0.75]]))
    _assert_images_resolved(f, np.array([[-1.0], [2.0]]))
    with pytest.raises(NoMatchingPieceError, match=r"no piece matches at x=\[0\.25\]"):
        f.images(np.array([[-1.0], [0.25]]))


def test_pattern_table_at_slack_on_example1_interface_rows(assembled):
    # beside x1 = 0 the slack probes reach the other side: the table is
    # keyed by the pattern of active pieces, whatever slack found it
    f = _example1_map()
    S = np.array([[1e-8], [-1e-8], [0.0], [-0.0], [5e-7], [2e-6], [-0.5]])
    for system in (f, PerturbedSystem(f, 0.5, "image")):
        for slack in (0.0, 1e-6, 0.0, 1e-6):
            got = _assert_images_resolved(system, S, slack)
            assert got[1][:5].tolist() == ([2, 2, 4, 4, 2] if slack else [1, 1, 4, 4, 1])
    assembled.clear()
    f.images(S, 1e-6)
    assert assembled == []


@pytest.mark.parametrize("slack", [0.0, 1e-6])
def test_strong_images_of_fixed_pieces_come_from_the_run_table(two_radii, slack, assembled):
    # example1's interface and two pieces that hold everywhere with unequal
    # radii, at a constant image margin (a float into the table) and a
    # callable one (None into the table, then per-row balls), in calls of
    # one to twenty runs
    maps = {"example1": _example1_map(),
            "two-radii": unperturbed(scenarios.bundle_from_config(two_radii).scenario.dynamics)}
    rng = np.random.default_rng(33)
    for name, f in maps.items():
        assert f._table is not None
        for system in (PerturbedSystem(f, 0.1, "strong"), PerturbedSystem(f, lambda x: 0.1, "strong"),
                       PerturbedSystem(f, 0.5, "strong", density=5, sense_margin=0.25)):
            for m in (6, 6, 4, 1, 20, 20, 3):
                S = rng.uniform(-1.0, 1.0, (m, 1))
                if m > 3:
                    S[:3, 0] = [0.0, -0.0625, 0.1]  # a lattice row on x1 = 0, and balls across it
                assembled.clear()
                system.images(S, slack)
                assert assembled == [], name
                _assert_images_resolved(system, S, slack)


def test_ball_hulls_of_fixed_pieces_with_per_row_radii():
    f = _example1_map()
    centers = np.array([[-0.3], [0.1], [0.25], [-1.0], [0.0], [0.6], [-0.0]])
    radii = np.array([0.5, 0.05, 0.25, 2.0, 1e-9, 0.6, 0.0])
    rng = np.random.default_rng(7)
    many = rng.uniform(-1.0, 1.0, (40, 1))
    for C, R in ((centers, radii), (many, rng.uniform(0.0, 1.0, 40))):
        for density in (3, 9):
            for slack in (0.0, 1e-6):
                got = f.ball_hulls(C, R, density, slack)
                _assert_rows_are_per_point(got, [_per_point_hull(f, c, r, density, slack) for c, r in zip(C, R)])
                _assert_same_stack(got, _general(f).ball_hulls(C, R, density, slack))


def test_runs_of_six_fixed_pieces_too_long_to_pack_take_the_general_assembly(assembled):
    # six pieces: the codes of a 13-point lattice run overflow one int64,
    # those of a 5-point one do not
    f = _six_fixed_pieces()
    rng = np.random.default_rng(10)
    for density, packed in ((5, False), (3, True)):
        system = PerturbedSystem(f, 0.3, "strong", density=density)
        for m in (4, 4, 17):
            S = rng.uniform(-1.0, 1.0, (m, 2))
            S[: m // 2, rng.integers(2)] = 0.0
            assembled.clear()
            system.images(S)
            assert bool(assembled) != packed
            _assert_images_resolved(system, S)


def test_pattern_table_carries_shortfalls_only_when_a_row_mixes_radii():
    # a row of pieces of radii 0.1 and 0.3, one of a single piece, then
    # both: after the first, the table holds shortfalls, yet a call of
    # rows that mix no radii gets none, as from the general assembly
    f = _six_fixed_pieces()
    for X, fields in (([[-0.5, 0.2]], 4), ([[-0.5, -0.2]], 3), ([[-0.5, -0.2], [-0.5, 0.2]], 4)):
        got, want = f.images(X), _general(f).images(X)
        assert len(got) == len(want) == fields
        _assert_same_stack(got, want)


def test_run_table_gives_a_run_that_mixes_no_radii_the_general_shortfalls():
    # a ball across x1 = 0 holds rows of radius -0.0, then +0.0: beside a
    # run of two radii its shortfalls are -0.0 - (0.0 - 0.0) = -0.0 on the
    # right, as merge_runs makes them, though the table met the run alone
    f = SetValuedMap(1, [constant_piece(lambda x: x[0] <= 0.0, [[2.0]], radius=-0.0),
                         constant_piece(lambda x: 0.0 < x[0] < 5.0, [[-1.0]]),
                         constant_piece(lambda x: x[0] >= 5.0, [[0.5]], radius=0.3),
                         constant_piece(lambda x: x[0] >= 5.0, [[1.5]], radius=0.1)])
    for centers, fields in (([[-0.1]], 3), ([[-0.1], [7.0]], 4), ([[7.0]], 4), ([[-0.1]], 3)):
        got, want = f.ball_hulls(centers, 0.5, 9), _general(f).ball_hulls(centers, 0.5, 9)
        assert len(got) == len(want) == fields
        _assert_same_stack(got, want)
        if len(centers) == 2:
            assert np.signbit(got[3][0]).any()


def test_run_table_meets_a_run_after_many_hits(assembled):
    f = _example1_map()
    system = PerturbedSystem(f, 0.25, "strong")
    sides = np.array([[-1.0], [1.0]])
    rng = np.random.default_rng(5)
    for _ in range(30):  # left and right balls in any order and number
        S = sides[rng.integers(0, 2, rng.integers(1, 30))] * rng.uniform(0.5, 1.0)
        _assert_images_resolved(system, S)
    runs = f._table.runs[9]
    assert len(runs.known) == 2
    # a ball across x1 = 0 with three left rows and six right ones, then
    # one with six and three: the same pieces in another sequence, met in
    # a call of three runs and in one of twenty
    for S, known in (([[-1.0], [0.1], [1.0]], 3), ([[-0.1], [1.0], [0.1], [-1.0]] * 5, 4)):
        S = np.array(S)
        assembled.clear()
        system.images(S)
        assert assembled == [] and len(runs.known) == known
        _assert_images_resolved(system, S)


def test_run_table_keys_runs_by_the_order_of_their_patterns():
    # the lattice rows of a ball about 1 lie outside, inside, outside the
    # interval (0, 2), those of a ball about -0.5 outside, outside, inside:
    # the same patterns in another order, so another hull, its points in
    # lattice order
    f = SetValuedMap(1, [constant_piece(lambda x: x[0] <= 0.0 or x[0] >= 2.0, [[1.0]]),
                         constant_piece(lambda x: 0.0 < x[0] < 2.0, [[2.0]])])
    for center, radius, points in (([1.0], 1.5, [1.0, 2.0, 1.0]), ([-0.5], 1.0, [1.0, 1.0, 2.0])):
        got = f.ball_hulls([center], radius, 3)
        assert got[0][0, :got[1][0], 0].tolist() == points
        _assert_same_stack(got, _general(f).ball_hulls([center], radius, 3))


def test_pattern_table_hands_a_call_like_its_last_the_same_read_only_stack():
    # other states with the same active pieces at every lattice row, then
    # the rows in another order
    f = _example1_map()
    system = PerturbedSystem(f, 0.25, "strong")
    S = np.array([[-0.5], [0.1]])
    first = system.images(S)
    again = system.images(S + 1e-3)
    assert all(a is b for a, b in zip(first, again))
    assert not any(a.flags.writeable for a in again)
    other = system.images(S[::-1])
    assert other[0] is not first[0] and other[1].tolist() == first[1].tolist()[::-1]
    _assert_images_resolved(system, S + 1e-3)


def test_pattern_table_keeps_rows_and_runs_of_the_same_pieces_apart():
    # nine rows left of x1 = 0, then one ball whose nine lattice rows are
    # left of it too: the same active pieces, as nine rows and as one run
    f = _example1_map()
    X = np.linspace(-1.0, -0.5, 9)[:, None]
    for _ in range(2):
        assert _assert_images_resolved(f, X)[1].tolist() == [1] * 9
        assert f.ball_hulls([[-0.75]], 0.25, 9)[1].tolist() == [9]
        _assert_ball_hull_is_per_point(f, [-0.75], 0.25, 9, 0.0)


def test_run_table_raises_at_the_first_row_where_no_piece_holds():
    f = SetValuedMap(1, [constant_piece(lambda x: x[0] <= 0.0, [[1.0]]),
                         constant_piece(lambda x: x[0] >= 1.0, [[2.0]])])
    f.ball_hulls([[-1.0], [2.0]], 0.25, 9)  # runs met before
    for centers in ([[-1.0], [0.5], [0.75], [2.0]], [[-1.0], [2.0]] * 10 + [[0.5], [0.75]]):
        for g in (f, _general(f)):
            with pytest.raises(NoMatchingPieceError, match=r"no piece matches at x=\[0\.25\]"):
                g.ball_hulls(centers, 0.25, 9)
    _assert_same_stack(f.ball_hulls([[2.0], [-1.0]], 0.25, 9), _general(f).ball_hulls([[2.0], [-1.0]], 0.25, 9))


def test_general_assembly_takes_one_pattern_without_sorting(monkeypatch):
    always = expressions.predicate_fn("True", 1)
    two = SetValuedMap(1, [affine_piece(always, [[-1.0]], [0.5], radius=0.1),
                           affine_piece(always, [[0.5]], [-1.0], radius=0.3)])
    three = SetValuedMap(1, [*two.pieces[:1], affine_piece(lambda x: x[0] <= 0.0, [[2.0]], [0.0]),
                             affine_piece(lambda x: x[0] >= 0.0, [[-2.0]], [1.0], radius=0.2)])
    assert two._table is None and three._table is None
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kw: calls.append(1) or unique(*args, **kw))
    S = np.random.default_rng(2).uniform(-1.0, 1.0, (6, 1))
    for f, sorts in ((two, False), (three, True)):
        for system in (f, PerturbedSystem(f, 0.1, "image"), PerturbedSystem(f, 0.1, "strong")):
            calls.clear()
            got = system.images(S)
            assert bool(calls) == sorts
            _assert_rows_are_per_point(got, [_per_point_perturbed(system, x, 0.0) if system is not f else f.image(x)
                                             for x in S])


def test_one_base_map_shared_by_two_margins():
    # each system's margin goes into its own radii: a cache of the base map
    # that did not key its radii by the margin would hand one system's
    # radii to the other
    always = expressions.predicate_fn("True", 1)
    S = np.array([[-0.5], [0.0], [0.25]])
    for base in (_example1_map(), SetValuedMap(1, [affine_piece(always, [[-1.0]], [0.0])])):
        modes = ("image", "strong") if base._sole is not None else ("image",)
        for mode in modes:
            small, large = PerturbedSystem(base, 0.1, mode), PerturbedSystem(base, 0.3, mode)
            for _ in range(3):
                for system in (small, large, base):
                    _assert_images_resolved(system, S)


def test_constant_margins_are_refused_on_every_call():
    f = SetValuedMap(1, [affine_piece(expressions.predicate_fn("True", 1), [[-1.0]], [0.0])])
    fixed = _example1_map()
    X = np.array([[0.5], [-0.25]])
    for system, message in (
        (PerturbedSystem(f, 0.0, "image"), r"perturbation margin must be positive, got 0.0 at x=\[0.5\]"),
        (PerturbedSystem(f, 0.0, "strong"), r"perturbation margin must be positive, got 0.0 at x=\[0.5\]"),
        (PerturbedSystem(f, 0.1, "strong", sense_margin=0.0), "sensing margin must be positive, got 0.0"),
        (PerturbedSystem(fixed, 0.0, "image"), r"perturbation margin must be positive, got 0.0 at x=\[0.5\]"),
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                system.images(X)
    # callable margins are evaluated on every call; a map with a piece whose
    # image moves with the point has no table
    moving = SetValuedMap(1, [*fixed.pieces[:2], affine_piece(lambda x: x[0] >= 0.0, [[-1.0]], [0.0])])
    assert moving._table is None
    for system in (PerturbedSystem(f, lambda x: 0.1, "strong"),
                   PerturbedSystem(f, 0.1, "strong", sense_margin=lambda x: 0.05),
                   PerturbedSystem(fixed, lambda x: 0.1, "image"),
                   PerturbedSystem(moving, 0.1, "image")):
        for _ in range(2):
            _assert_images_resolved(system, X)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_margins_are_refused(bad):
    f = SetValuedMap(1, [affine_piece(expressions.predicate_fn("True", 1), [[-1.0]], [0.0])])
    X = np.array([[0.5], [-0.25]])
    word = "positive" if bad < 0.0 else "finite"
    for system, message in (
        (PerturbedSystem(f, bad, "image"), f"perturbation margin must be {word}, got {bad} at x="),
        (PerturbedSystem(f, bad, "strong"), f"perturbation margin must be {word}, got {bad} at x="),
        (PerturbedSystem(_example1_map(), bad, "image"), f"perturbation margin must be {word}, got {bad} at x="),
        (PerturbedSystem(f, lambda x: bad, "image"), f"perturbation margin must be {word}, got {bad} at x="),
        (PerturbedSystem(f, 0.1, "strong", sense_margin=bad), f"sensing margin must be {word}, got {bad} at x="),
        (PerturbedSystem(f, 0.1, "strong", sense_margin=lambda x: bad),
         f"sensing margin must be {word}, got {bad} at x="),
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                system.images(X)
    with pytest.raises(ValueError, match="perturbation margin must be"):
        PerturbedSystem(f, bad, "image").margin_at(X[0])
    with pytest.raises(ValueError, match="sensing margin must be"):
        PerturbedSystem(f, 0.1, "image", sense_margin=bad).sense_margin_at(X[0])


def test_images_of_one_piece_holding_everywhere(assembled):
    always = expressions.predicate_fn("True", 2)
    maps = {
        # three points on each of 49 lattice rows, concatenated per run
        "crowded": SetValuedMap(2, [constant_piece(always, [[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]], 0.25)]),
        "polynomial": SetValuedMap(2, [polynomial_piece(always, ["x1*x2", "x1 - x2**2"], 2, radius=-0.0)]),
        "affine": SetValuedMap(2, [affine_piece(always, [[0.3, 1.0], [-1.0, 0.7]], [1.0, -0.0], radius=0.5)]),
        # a batched form whose radius moves from call to call
        "moving-radius": SetValuedMap(2, [Piece(always, lambda x: ConvexCompactSet([x], float(x[0] > 0.0)),
                                                rows=lambda X: (X[:, None, :], float(X[0, 0] > 0.0)))]),
    }
    rng = np.random.default_rng(12)
    for name, f in maps.items():
        for system in (f, PerturbedSystem(f, 0.1, "image"), PerturbedSystem(f, 0.1, "strong"),
                       PerturbedSystem(f, 0.1, "strong", density=5, sense_margin=0.3)):
            for k, m in enumerate((4, 4, 2, 2, 3)):
                S = rng.uniform(-1.0, 1.0, (m, 2))
                # the moving radius follows the side of x1 = 0, which flips
                # from call to call, each ball on one side
                S[:, 0] = np.abs(S[:, 0]) + 0.5 if k % 2 else -np.abs(S[:, 0]) - 0.5
                assembled.clear()
                system.images(S)
                assert assembled == [], name
                _assert_images_resolved(system, S)
    # the radius keeps its sign: the polynomial piece's is -0.0
    assert np.signbit(maps["polynomial"].images(np.zeros((2, 2)))[2]).all()
