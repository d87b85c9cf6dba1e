from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from inclusafe import (
    ConvexCompactSet,
    DimensionMismatchError,
    contains,
    hausdorff,
    hull_union,
    hull_union_many,
    minkowski_sum,
    unit_directions,
)

import oracles


# ----------------------------------------------------------------------- #
# constructors and basic accessors
def test_singleton_and_radius():
    s = ConvexCompactSet.singleton([1.0, 2.0])
    assert s.dimension == 2
    assert s.radius == 0.0
    assert s.support([1.0, 0.0]) == 1.0

    b = ConvexCompactSet([[0.0]], 2.0)
    assert b.interval_bounds() == (-2.0, 2.0)


def test_interval_constructor_rejects_empty():
    with pytest.raises(ValueError):
        ConvexCompactSet.interval(1.0, 0.0)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        ConvexCompactSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ConvexCompactSet([[np.nan]])
    with pytest.raises(ValueError):
        ConvexCompactSet([[0.0]], radius=-0.1)
    with pytest.raises(ValueError):
        ConvexCompactSet([[0.0]], radius=np.inf)


def test_support_of_inflated_hull():
    # co{(1,0),(0,1)} + 0.5*B in direction (1,1): max dot is 1, plus 0.5*sqrt(2)
    s = ConvexCompactSet([[1.0, 0.0], [0.0, 1.0]], 0.5)
    assert s.support([1.0, 1.0]) == pytest.approx(1.0 + 0.5 * math.sqrt(2.0), abs=1e-12)


def test_support_dimension_mismatch():
    s = ConvexCompactSet([[1.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        s.support([1.0])
    with pytest.raises(DimensionMismatchError):
        s.support_many(np.eye(3))


def test_extreme_point_is_support_attainer():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pts = rng.normal(size=(4, 2))
        r = float(rng.uniform(0, 1))
        s = ConvexCompactSet(pts, r)
        d = rng.normal(size=2)
        p = s.extreme_point(d)
        assert float(p @ d) == pytest.approx(s.support(d), abs=1e-12)


def test_scale_inflate():
    s = ConvexCompactSet.interval(-1.0, 2.0)
    assert s.scale(-2.0).interval_bounds() == (-4.0, 2.0)
    assert s.inflate(0.5).interval_bounds() == (-1.5, 2.5)
    # inflate(0) returns the set unchanged
    assert s.inflate(0.0) is s


# ----------------------------------------------------------------------- #
# interval arithmetic oracle, exact agreement in one dimension
def test_interval_ops_match_oracle_exactly():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a_lo, b_lo = rng.uniform(-10, 10, size=2)
        a = (a_lo, a_lo + float(rng.uniform(0, 5)))
        b = (b_lo, b_lo + float(rng.uniform(0, 5)))
        sa = ConvexCompactSet.interval(*a)
        sb = ConvexCompactSet.interval(*b)

        assert hausdorff(sa, sb) == oracles.interval_hausdorff(a, b)

        x = float(rng.uniform(-12, 12))
        tol = float(rng.choice([0.0, 1e-9, 1e-3]))
        assert contains(sa, [x], tol) == oracles.interval_contains(a[0], a[1], x, tol)

        lo, hi = minkowski_sum(sa, sb).interval_bounds()
        olo, ohi = oracles.interval_minkowski(a, b)
        assert (lo, hi) == (olo, ohi)


def test_contains_examples():
    s = ConvexCompactSet.interval(-1.0, 2.0)
    assert contains(s, [2.0], 0.0)
    assert not contains(s, [2.0001], 1e-6)
    assert contains(s, [2.0001], 1e-3)


def test_hausdorff_examples():
    assert hausdorff(ConvexCompactSet.interval(2, 5), ConvexCompactSet.interval(0, 1)) == 4.0
    s = ConvexCompactSet([[0.0, 0.0]], 1.0)
    assert hausdorff(s, s) == 0.0


def test_hausdorff_symmetry_and_translation():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = ConvexCompactSet(rng.normal(size=(3, 2)), float(rng.uniform(0, 1)))
        b = ConvexCompactSet(rng.normal(size=(5, 2)), float(rng.uniform(0, 1)))
        d = hausdorff(a, b)
        assert d == hausdorff(b, a)
        shift = rng.normal(size=2)
        shifted = [ConvexCompactSet(s.points + shift, s.radius) for s in (a, b)]
        assert hausdorff(*shifted) == pytest.approx(d, abs=1e-9)


# ----------------------------------------------------------------------- #
# Minkowski sums: support additivity is exact for the representation
def test_minkowski_support_additivity():
    rng = np.random.default_rng(13)
    dirs2 = unit_directions(2, 256)
    dirs3 = unit_directions(3, 256)
    for trial in range(1000):
        n = 2 if trial % 2 == 0 else 3
        dirs = dirs2 if n == 2 else dirs3
        a = ConvexCompactSet(rng.normal(size=(rng.integers(1, 6), n)), float(rng.uniform(0, 2)))
        b = ConvexCompactSet(rng.normal(size=(rng.integers(1, 6), n)), float(rng.uniform(0, 2)))
        c = minkowski_sum(a, b)
        lhs = c.support_many(dirs)
        rhs = a.support_many(dirs) + b.support_many(dirs)
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-9)


def test_minkowski_against_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        pa = rng.normal(size=(3, 2))
        pb = rng.normal(size=(2, 2))
        ra, rb = rng.uniform(0, 1, size=2)
        c = minkowski_sum(ConvexCompactSet(pa, ra), ConvexCompactSet(pb, rb))
        for d in unit_directions(2, 16):
            want = max(
                oracles.cloud_support(p + q, ra + rb, d) for p in pa for q in pb
            )
            assert c.support(d) == pytest.approx(want, abs=1e-12)


def test_minkowski_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        minkowski_sum(ConvexCompactSet.interval(0, 1), ConvexCompactSet([[0.0, 0.0]]))


# ----------------------------------------------------------------------- #
# hulls of unions
def test_hull_union_equal_radii_is_exact_max_support():
    rng = np.random.default_rng(19)
    dirs = unit_directions(2, 64)
    for _ in range(300):
        r = float(rng.uniform(0, 1))
        a = ConvexCompactSet(rng.normal(size=(3, 2)), r)
        b = ConvexCompactSet(rng.normal(size=(4, 2)), r)
        u = hull_union(a, b)
        got = u.support_many(dirs)
        want = np.maximum(a.support_many(dirs), b.support_many(dirs))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_hull_union_unequal_radii_is_outer():
    # smaller-radius operand gets ring-sampled; result must still cover both
    a = ConvexCompactSet([[0.0, 0.0]], 1.0)
    b = ConvexCompactSet([[3.0, 0.0]], 0.25)
    u = hull_union(a, b)
    dirs = unit_directions(2, 512)
    assert np.all(u.support_many(dirs) >= a.support_many(dirs) - 1e-12)
    assert np.all(u.support_many(dirs) >= b.support_many(dirs) - 1e-12)
    # and it should not blow up: within one radius step of the true union hull
    true_sup = np.maximum(a.support_many(dirs), b.support_many(dirs))
    assert np.all(u.support_many(dirs) <= true_sup + 1.0 + 1e-12)


def test_hull_union_many_single_and_empty():
    s = ConvexCompactSet.interval(0, 1)
    assert hull_union_many([s]) is s
    with pytest.raises(ValueError):
        hull_union_many([])


def test_hull_union_1d_intervals_exact():
    rng = np.random.default_rng(23)
    for _ in range(500):
        lo1, lo2 = rng.uniform(-5, 5, size=2)
        a = (lo1, lo1 + float(rng.uniform(0, 3)))
        b = (lo2, lo2 + float(rng.uniform(0, 3)))
        u = hull_union(ConvexCompactSet.interval(*a), ConvexCompactSet.interval(*b))
        assert u.interval_bounds() == (min(a[0], b[0]), max(a[1], b[1]))


# ----------------------------------------------------------------------- #
# direction sampling
def test_unit_directions_shapes_and_norms():
    d1 = unit_directions(1)
    assert d1.tolist() == [[-1.0], [1.0]]
    for n, count in ((2, 64), (3, 128), (4, 32)):
        d = unit_directions(n, count)
        assert d.shape == (count, n)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    # cached arrays are read-only
    with pytest.raises(ValueError):
        unit_directions(2, 64)[0, 0] = 5.0


def test_contains_outer_in_higher_dimension():
    # sampled membership can only err inclusively: interior points always pass
    s = ConvexCompactSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 0.1)
    rng = np.random.default_rng(29)
    for _ in range(100):
        w = rng.dirichlet(np.ones(3))
        p = w[1] * np.array([1.0, 0.0]) + w[2] * np.array([0.0, 1.0])
        assert contains(s, p, 0.0)
    assert not contains(s, [2.0, 2.0], 1e-6)


# ----------------------------------------------------------------------- #
# row forms on padded stacks
def _padded_stack(rng, m, n, most=6):
    """m random sets of at most ``most`` points as a padded (points, counts,
    radii) stack: about a third one-point rows, half of the rows with
    radius 0, and the padding of each row repeating random points of that
    row."""
    counts = np.where(rng.random(m) < 0.35, 1, rng.integers(1, most + 1, m))
    width = int(counts.max()) + int(rng.integers(0, 3))
    points = np.empty((m, width, n))
    for i, c in enumerate(counts):
        points[i, :c] = rng.standard_normal((c, n)) * 10.0 ** rng.uniform(-3, 3)
        points[i, c:] = points[i, rng.integers(0, c, width - c)]
    radii = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.0, 2.0, m))
    return points, counts, radii


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_forms_equal_per_set_values_bit_for_bit(n):
    from inclusafe.convexset import hausdorff_rows, support_rows

    rng = np.random.default_rng(100 + n)
    for directions in (64, 256):
        a = _padded_stack(rng, 200, n)
        b = _padded_stack(rng, 200, n)
        dirs = unit_directions(n, directions)
        sets_a = [ConvexCompactSet(p[:c], r) for p, c, r in zip(*a)]
        sets_b = [ConvexCompactSet(p[:c], r) for p, c, r in zip(*b)]
        want = np.array([s.support_many(dirs) for s in sets_a])
        assert support_rows(*a, dirs).tobytes() == want.tobytes()
        want = np.array([hausdorff(sa, sb, directions=directions) for sa, sb in zip(sets_a, sets_b)])
        assert hausdorff_rows(a, b, directions=directions).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_pairs_equal_per_set_support_bit_for_bit(n):
    from inclusafe.convexset import support_pairs

    rng = np.random.default_rng(200 + n)
    stack = _padded_stack(rng, 300, n)
    # sets paired with general directions, several per set and out of order
    rows = rng.integers(0, 300, 2000)
    directions = rng.standard_normal((2000, n)) * 10.0 ** rng.uniform(-2, 2, (2000, 1))
    norms = np.array([np.linalg.norm(d) for d in directions])
    sets = [ConvexCompactSet(p[:c], r) for p, c, r in zip(*stack)]
    want = np.array([sets[i].support(d) for i, d in zip(rows, directions)])
    assert support_pairs(*stack, rows, directions, norms).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_row_forms_reject_non_finite_rows(n):
    from inclusafe.convexset import hausdorff_rows, support_pairs, support_rows

    rng = np.random.default_rng(7)
    good = _padded_stack(rng, 5, n)
    dirs = unit_directions(n, 16)
    for value in (np.inf, np.nan):
        points = good[0].copy()
        points[3, 0, 0] = value
        bad = (points, good[1], good[2])
        with pytest.raises(ValueError, match="points must be finite"):
            support_rows(*bad, dirs)
        with pytest.raises(ValueError, match="points must be finite"):
            support_pairs(*bad, np.array([0]), dirs[:1], np.ones(1))
        with pytest.raises(ValueError, match="points must be finite"):
            hausdorff_rows(good, bad, directions=16)
        radii = good[2].copy()
        radii[1] = value
        with pytest.raises(ValueError, match="radius must be finite"):
            hausdorff_rows((good[0], good[1], radii), good, directions=16)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_extreme_points_and_containment_match_the_set_methods(n):
    from inclusafe.convexset import contains_rows, extreme_rows

    rng = np.random.default_rng(n)
    points, counts, radii = _padded_stack(rng, 300, n)
    sets = [ConvexCompactSet(p[:c], r) for p, c, r in zip(points, counts, radii)]
    D = rng.normal(size=(len(sets), n))
    D[:10] = 0.0  # a zero direction keeps the hull vertex
    got = extreme_rows(points, radii, D)
    want = np.array([s.extreme_point(d) for s, d in zip(sets, D)])
    assert got.tobytes() == want.tobytes()
    # points on the boundary (the extreme points), inside and outside
    V = np.vstack([want[:100], want[100:200] * 0.5, want[200:] * 2.0 + 0.1])
    for tol in (0.0, 1e-9):
        got = contains_rows(points, counts, radii, V, tol)
        assert got.tolist() == [contains(s, v, tol) for s, v in zip(sets, V)]


@pytest.mark.parametrize("n", [2, 3])
def test_row_kernels_are_exact_on_wide_stacks(n):
    """Rows padded far beyond their own points: a product over the padded
    width would round some padding copies differently from their
    originals."""
    from inclusafe.convexset import contains_rows, extreme_rows, hausdorff_rows, support_pairs, support_rows

    rng = np.random.default_rng(300 + n)
    a = _padded_stack(rng, 60, n, most=300)
    b = _padded_stack(rng, 60, n, most=300)
    sets_a = [ConvexCompactSet(p[:c], r) for p, c, r in zip(*a)]
    sets_b = [ConvexCompactSet(p[:c], r) for p, c, r in zip(*b)]
    dirs = unit_directions(n, 256)
    want = np.array([s.support_many(dirs) for s in sets_a])
    assert support_rows(*a, dirs).tobytes() == want.tobytes()
    want = np.array([hausdorff(sa, sb) for sa, sb in zip(sets_a, sets_b)])
    assert hausdorff_rows(a, b).tobytes() == want.tobytes()
    rows = rng.integers(0, 60, 600)
    D = rng.standard_normal((600, n))
    norms = np.array([np.linalg.norm(d) for d in D])
    want = np.array([sets_a[i].support(d) for i, d in zip(rows, D)])
    assert support_pairs(*a, rows, D, norms).tobytes() == want.tobytes()
    D = D[:60]
    want = np.array([s.extreme_point(d) for s, d in zip(sets_a, D)])
    assert extreme_rows(a[0], a[2], D).tobytes() == want.tobytes()
    # every row's own support points are on its sampled boundary
    V = np.array([s.extreme_point(d) for s, d in zip(sets_a, np.tile(dirs[:1], (60, 1)))])
    for tol in (0.0, 1e-9):
        assert contains_rows(*a, V, tol).tolist() == [contains(s, v, tol) for s, v in zip(sets_a, V)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_supports_equal_per_set_values_bit_for_bit(n):
    """One point count (one stacked product, no row mask) and mixed counts,
    with a ball on every row, on some rows or on none, from 1 to 300
    points; the bytes are ``support_many``'s."""
    from inclusafe.convexset import _supports

    rng = np.random.default_rng(410 + n)
    dirs = unit_directions(n)
    norms = np.linalg.norm(dirs, axis=1)
    for K in (1, 2, 13, 49, 97, 181, 300):
        for m in (1, 5):
            points = rng.standard_normal((m, K, n)) * 10.0 ** rng.uniform(-3, 3, (m, 1, 1))
            mixed = rng.integers(1, K + 1, m)
            mixed[0] = K
            for counts in (np.full(m, K), mixed):
                for radii in (np.zeros(m), rng.uniform(0.1, 2.0, m), np.where(np.arange(m) % 2, 0.5, 0.0)):
                    got = _supports(points, counts, radii, dirs, norms)
                    want = np.array([ConvexCompactSet(p[:c], r).support_many(dirs)
                                     for p, c, r in zip(points, counts, radii)])
                    assert got.tobytes() == want.tobytes(), (K, m, counts.tolist(), radii.tolist())


@pytest.mark.parametrize("n", [2, 3, 5])
def test_supports_make_a_tied_zero_positive(n):
    """Points of signed zeros and products that underflow: a max of tied
    zeros returns either zero, by its order, and BLAS itself returns -0.0
    for some shapes (one direction in five dimensions with OpenBLAS).  The
    kernel and ``support_many`` both give +0.0 for every zero."""
    from inclusafe.convexset import _supports

    rng = np.random.default_rng(401)
    for K in range(1, 33):
        points = rng.choice([0.0, -0.0, -1e-200], (4, K, n))
        for d in (1, 2, 16):
            dirs = np.where(rng.random((d, n)) < 0.5, 1e-200, -0.0)
            norms = np.linalg.norm(dirs, axis=1)
            for counts in (np.full(4, K), rng.integers(1, K + 1, 4)):
                got = _supports(points, counts, np.zeros(4), dirs, norms)
                want = np.array([ConvexCompactSet(p[:c]).support_many(dirs) for p, c in zip(points, counts)])
                assert got.tobytes() == want.tobytes(), (K, d)
                assert not np.signbit(got[got == 0.0]).any(), (K, d)


def test_interval_rows_equal_interval_bounds():
    from inclusafe.convexset import interval_rows

    points, counts, radii = _padded_stack(np.random.default_rng(11), 200, 1)
    lo, hi = interval_rows(points, radii)
    want = np.array([ConvexCompactSet(p[:c], r).interval_bounds() for p, c, r in zip(points, counts, radii)])
    assert np.column_stack([lo, hi]).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_norms_equal_per_vector_norms(n):
    from inclusafe.convexset import row_norms

    rng = np.random.default_rng(400 + n)
    D = rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-100, 100, (500, 1))
    D[:5] = 0.0
    D[5:10] = 1e-170  # squares underflow
    want = np.array([np.linalg.norm(d) for d in D])
    assert row_norms(D).tobytes() == want.tobytes()


def test_row_set_builds_the_rows_set():
    from inclusafe.convexset import row_set

    stack = _padded_stack(np.random.default_rng(12), 50, 2)
    for i, (p, c, r) in enumerate(zip(*stack)):
        got, want = row_set(stack, i), ConvexCompactSet(p[:c], r)
        assert got.points.tobytes() == want.points.tobytes() and got.radius == want.radius


# ----------------------------------------------------------------------- #
# pruning through Qhull
def _brute_force_extreme(points):
    """Mask of the points that lie on a line (n = 2) or plane (n = 3)
    through n of the points with every other point strictly on one side.
    For a cloud in general position these are exactly the hull's vertices."""
    m, n = points.shape
    keep = np.zeros(m, dtype=bool)
    combos = np.array(list(itertools.combinations(range(m), n)))
    for block in np.array_split(combos, max(1, len(combos) // 4096)):
        base = points[block]  # (k, n, n)
        if n == 2:
            d = base[:, 1] - base[:, 0]
            normal = np.column_stack([-d[:, 1], d[:, 0]])
        else:
            normal = np.cross(base[:, 1] - base[:, 0], base[:, 2] - base[:, 0])
        side = ((points[None, :, :] - base[:, :1, :]) * normal[:, None, :]).sum(axis=2)
        side[np.arange(len(block))[:, None], block] = 0.0
        facet = (side >= 0.0).all(axis=1) | (side <= 0.0).all(axis=1)
        keep[block[facet].ravel()] = True
    return keep


def _supports(points, directions):
    return (points[:, None, :] * directions[None, :, :]).sum(axis=2).max(axis=0)


@pytest.mark.parametrize("n, m", [(2, 150), (3, 110)])
def test_pruned_keeps_exactly_the_extreme_points(n, m):
    from inclusafe.convexset import PRUNE_THRESHOLD, pruned

    rng = np.random.default_rng(500 + n)
    cloud = rng.standard_normal((m, n))
    cloud = np.concatenate([cloud, cloud[rng.integers(0, m, 20)]])  # duplicates
    assert cloud.shape[0] > PRUNE_THRESHOLD
    unique = np.unique(cloud, axis=0)
    want = unique[_brute_force_extreme(unique)]
    assert 2 * n < want.shape[0] < m
    got = pruned(cloud)
    # np.unique's row order, which the pruned points keep
    assert got.tobytes() == want.tobytes()
    directions = np.concatenate([unit_directions(n), rng.standard_normal((100, n))])
    assert _supports(got, directions).tobytes() == _supports(cloud, directions).tobytes()


def test_pruned_keeps_every_point_of_collinear_input():
    # Qhull refuses a flat input; the prune then keeps all unique points
    # rather than risk dropping a true extreme point under joggling
    from inclusafe.convexset import PRUNE_THRESHOLD, pruned

    t = np.random.default_rng(7).integers(-50, 50, PRUNE_THRESHOLD + 20).astype(float)
    line = np.column_stack([t, 2.0 * t - 3.0])
    got = pruned(line)
    assert got.tobytes() == np.unique(line, axis=0).tobytes()
    assert got.shape[0] > 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_leaves_small_inputs_unchanged(n):
    from inclusafe.convexset import PRUNE_THRESHOLD, pruned

    rng = np.random.default_rng(600 + n)
    for m in (1, n + 1, PRUNE_THRESHOLD):
        points = rng.standard_normal((m, n))
        points[m // 2:] = points[0]  # duplicates and interior points stay
        assert pruned(points) is points


def test_prune_calls_qhull_through_the_module_level_name(monkeypatch):
    # the benchmark's tracer counts hull calls by patching this name
    from inclusafe import convexset

    calls = []
    qhull = convexset.ConvexHull

    def counted(points):
        calls.append(points.shape)
        return qhull(points)

    monkeypatch.setattr(convexset, "ConvexHull", counted)
    cloud = np.random.default_rng(8).standard_normal((200, 2))
    convexset.pruned(cloud[: convexset.PRUNE_THRESHOLD])
    assert calls == []
    kept = convexset.pruned(cloud)
    assert calls == [(200, 2)]
    assert kept.shape[0] < 200
