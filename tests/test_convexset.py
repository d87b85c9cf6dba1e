from __future__ import annotations

import itertools
import math
import warnings

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


def test_hull_union_unequal_radii_is_exact():
    # each operand keeps its radius: the hull's support is the max of the
    # operands' supports, and no ring points are made
    a = ConvexCompactSet([[0.0, 0.0]], 1.0)
    b = ConvexCompactSet([[3.0, 0.0]], 0.25)
    u = hull_union(a, b)
    assert u.points.tolist() == [[0.0, 0.0], [3.0, 0.0]]
    assert u.radius == 1.0 and u.shortfalls.tolist() == [0.0, 0.75]
    dirs = unit_directions(2, 512)
    true_sup = np.maximum(a.support_many(dirs), b.support_many(dirs))
    assert np.abs(u.support_many(dirs) - true_sup).max() <= 1e-12
    # the extreme point lies on the operand that attains the support
    for d in dirs[::16]:
        assert np.dot(u.extreme_point(d), d) == pytest.approx(max(a.support(d), b.support(d)), abs=1e-12)


def test_hull_union_of_unequal_intervals_is_exact():
    # the 1-D recipe: {-0.1} and {-1} + 0.5 B, whose hull is [-1.5, -0.1]
    u = hull_union(ConvexCompactSet([[-0.1]]), ConvexCompactSet([[-1.0]], 0.5))
    assert u.interval_bounds() == (-1.5, -0.1)
    # the support subtracts a shortfall and adds the radius: one rounding each
    assert (u.support([1.0]), u.support([-1.0])) == (pytest.approx(-0.1, abs=1e-15), 1.5)
    assert contains(u, [-0.1]) and not contains(u, [-0.05])
    # inflation adds to the largest radius and keeps the shortfalls
    assert u.inflate(0.25).interval_bounds() == (-1.75, 0.15)
    assert u.scale(-2.0).interval_bounds() == (0.2, 3.0)


def test_shortfalls_are_checked_and_zeros_dropped():
    assert ConvexCompactSet([[0.0], [1.0]], 0.5, [0.0, 0.0]).shortfalls is None
    with pytest.raises(ValueError, match="shortfalls"):
        ConvexCompactSet([[0.0], [1.0]], 0.5, [0.1])
    with pytest.raises(ValueError, match="shortfalls"):
        ConvexCompactSet([[0.0], [1.0]], 0.5, [0.1, -0.1])
    with pytest.raises(ValueError, match="shortfalls"):
        ConvexCompactSet([[0.0], [1.0]], 0.5, [0.1, np.nan])


def test_minkowski_sum_of_unequal_radii_is_exact():
    rng = np.random.default_rng(31)
    dirs = unit_directions(2, 128)
    for _ in range(50):
        a = hull_union(ConvexCompactSet(rng.normal(size=(2, 2)), 0.3), ConvexCompactSet(rng.normal(size=(3, 2))))
        b = hull_union(ConvexCompactSet(rng.normal(size=(2, 2)), 0.1), ConvexCompactSet(rng.normal(size=(1, 2)), 0.4))
        for x, y in ((a, b), (a, ConvexCompactSet(rng.normal(size=(2, 2)), 0.2))):
            got = minkowski_sum(x, y).support_many(dirs)
            assert np.abs(got - x.support_many(dirs) - y.support_many(dirs)).max() <= 1e-12


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
        assert support_rows(a, dirs).tobytes() == want.tobytes()
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
    assert support_pairs(stack, rows, directions, norms).tobytes() == want.tobytes()


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
            support_rows(bad, dirs)
        with pytest.raises(ValueError, match="points must be finite"):
            support_pairs(bad, np.array([0]), dirs[:1], np.ones(1))
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
    got = extreme_rows((points, counts, radii), D)
    want = np.array([s.extreme_point(d) for s, d in zip(sets, D)])
    assert got.tobytes() == want.tobytes()
    # points on the boundary (the extreme points), inside and outside
    V = np.vstack([want[:100], want[100:200] * 0.5, want[200:] * 2.0 + 0.1])
    for tol in (0.0, 1e-9):
        got = contains_rows((points, counts, radii), V, tol)
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
    assert support_rows(a, dirs).tobytes() == want.tobytes()
    want = np.array([hausdorff(sa, sb) for sa, sb in zip(sets_a, sets_b)])
    assert hausdorff_rows(a, b).tobytes() == want.tobytes()
    rows = rng.integers(0, 60, 600)
    D = rng.standard_normal((600, n))
    norms = np.array([np.linalg.norm(d) for d in D])
    want = np.array([sets_a[i].support(d) for i, d in zip(rows, D)])
    assert support_pairs(a, rows, D, norms).tobytes() == want.tobytes()
    D = D[:60]
    want = np.array([s.extreme_point(d) for s, d in zip(sets_a, D)])
    assert extreme_rows(a, D).tobytes() == want.tobytes()
    # every row's own support points are on its sampled boundary
    V = np.array([s.extreme_point(d) for s, d in zip(sets_a, np.tile(dirs[:1], (60, 1)))])
    for tol in (0.0, 1e-9):
        assert contains_rows(a, V, tol).tolist() == [contains(s, v, tol) for s, v in zip(sets_a, V)]


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
                    got = _supports((points, counts, radii), dirs, norms)
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
                got = _supports((points, counts, np.zeros(4)), dirs, norms)
                want = np.array([ConvexCompactSet(p[:c]).support_many(dirs) for p, c in zip(points, counts)])
                assert got.tobytes() == want.tobytes(), (K, d)
                assert not np.signbit(got[got == 0.0]).any(), (K, d)


def test_interval_rows_equal_interval_bounds():
    from inclusafe.convexset import interval_rows

    points, counts, radii = _padded_stack(np.random.default_rng(11), 200, 1)
    lo, hi = interval_rows((points, counts, radii))
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


def _mixed_stack(rng, m, n, most=6):
    """m random sets of at most ``most`` points as a padded stack with
    shortfalls: rows of mixed radii (shortfalls up to the row's radius,
    some zero), every third row of one radius, about a quarter of the rows
    of radius 0, some signed-zero coordinates, and the padding of each row
    repeating random points of that row with their shortfalls."""
    counts = rng.integers(1, most + 1, m)
    width = int(counts.max()) + 2
    points = np.empty((m, width, n))
    shortfalls = np.zeros((m, width))
    radii = np.where(rng.random(m) < 0.25, 0.0, rng.uniform(0.1, 2.0, m))
    for i, c in enumerate(counts):
        own = rng.standard_normal((c, n)) * 10.0 ** rng.uniform(-2, 2)
        own[rng.random((c, n)) < 0.1] = -0.0
        short = np.where(rng.random(c) < 0.7, rng.uniform(0.0, 1.0, c) * radii[i], 0.0) if i % 3 else np.zeros(c)
        pick = np.concatenate([np.arange(c), rng.integers(0, c, width - c)])
        points[i], shortfalls[i] = own[pick], short[pick]
    return points, counts, radii, shortfalls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_kernels_with_shortfalls_equal_the_set_methods(n):
    """Every row kernel on a stack that mixes radii, bit for bit against the
    methods of each row's set; a row whose shortfalls are all zero is a set
    of one radius."""
    from inclusafe import convexset
    from inclusafe.convexset import (
        contains_rows, extreme_rows, hausdorff_rows, interval_rows, row_set, support_pairs, support_rows,
    )

    rng = np.random.default_rng(700 + n)
    a, b = _mixed_stack(rng, 300, n), _mixed_stack(rng, 300, n)
    sets_a = [ConvexCompactSet(p[:c], r, s[:c]) for p, c, r, s in zip(*a)]
    sets_b = [ConvexCompactSet(p[:c], r, s[:c]) for p, c, r, s in zip(*b)]
    assert any(s.shortfalls is None for s in sets_a) and any(s.shortfalls is not None for s in sets_a)
    for i, want in enumerate(sets_a):
        got = row_set(a, i)
        assert got.points.tobytes() == want.points.tobytes() and got.radius == want.radius
        assert (got.shortfalls is None) == (want.shortfalls is None)
    dirs = unit_directions(n, 64)
    want = np.array([s.support_many(dirs) for s in sets_a])
    assert support_rows(a, dirs).tobytes() == want.tobytes()
    want = np.array([hausdorff(sa, sb, directions=64) for sa, sb in zip(sets_a, sets_b)])
    assert hausdorff_rows(a, b, directions=64).tobytes() == want.tobytes()
    rows = rng.integers(0, 300, 1000)
    D = rng.standard_normal((1000, n)) * 10.0 ** rng.uniform(-2, 2, (1000, 1))
    norms = np.array([np.linalg.norm(d) for d in D])
    want = np.array([sets_a[i].support(d) for i, d in zip(rows, D)])
    assert support_pairs(a, rows, D, norms).tobytes() == want.tobytes()
    D = D[:300]
    D[:10] = 0.0  # a zero direction keeps the first largest point
    edge = extreme_rows(a, D)
    assert edge.tobytes() == np.array([s.extreme_point(d) for s, d in zip(sets_a, D)]).tobytes()
    if n == 1:
        lo, hi = interval_rows(a)
        want = np.array([s.interval_bounds() for s in sets_a])
        assert np.column_stack([lo, hi]).tobytes() == want.tobytes()
    # points on the boundary (the extreme points), inside and outside
    V = np.vstack([edge[:100], edge[100:200] * 0.5, edge[200:] * 2.0 + 0.1])
    for tol in (0.0, 1e-9):
        want = [contains(s, v, tol) for s, v in zip(sets_a, V)]
        assert contains_rows(a, V, tol).tolist() == want
        if n > 1:
            certified = convexset._certified(a, V, tol)
            assert certified.any() and not (certified & ~np.array(want)).any()


@pytest.mark.parametrize("n", [2, 3])
def test_sliced_containment_equals_the_unsliced_call_and_the_set_method(n, monkeypatch):
    """Row counts below, at and above one slice, under the default budget
    and under one that cuts slices of three rows; mixed point counts and
    radii of zero and above."""
    from inclusafe import convexset
    from inclusafe.convexset import contains_rows, extreme_rows

    rng = np.random.default_rng(520 + n)
    points, counts, radii = _padded_stack(rng, 400, n, most=9)
    assert len(set(counts.tolist())) > 1 and (radii == 0.0).any() and (radii > 0.0).any()
    sets = [ConvexCompactSet(p[:c], r) for p, c, r in zip(points, counts, radii)]
    edge = extreme_rows((points, counts, radii), rng.standard_normal((400, n)))
    V = np.vstack([edge[:150], edge[150:300] * 0.5, edge[300:] * 2.0 + 0.1])
    want = {tol: [contains(s, v, tol) for s, v in zip(sets, V)] for tol in (0.0, 1e-9)}
    assert 0 < sum(want[0.0]) < sum(want[1e-9]) < 400
    width = points.shape[1] * unit_directions(n).shape[0]
    size = convexset._CONTAINS_ELEMENTS // width
    assert 1 < size < 400
    reached = []  # the rows of each call of the sampled check

    def sampled(stack, V, tol, sampled=convexset._sampled):
        reached.append(V.shape[0])
        return sampled(stack, V, tol)

    monkeypatch.setattr(convexset, "_sampled", sampled)
    for budget, rows in ((convexset._CONTAINS_ELEMENTS, size), (3 * width, 3)):
        monkeypatch.setattr(convexset, "_CONTAINS_ELEMENTS", budget)
        reached.clear()
        for m in (1, rows - 1, rows, rows + 1, 2 * rows + 1, 400):
            for tol in (0.0, 1e-9):
                got = contains_rows((points[:m], counts[:m], radii[:m]), V[:m], tol)
                assert got.tolist() == want[tol][:m]
        # the rows the certificate leaves still fill several slices
        assert max(reached) > 2 * rows
    monkeypatch.setattr(convexset, "_CONTAINS_ELEMENTS", 1 << 62)  # one slice
    for tol in (0.0, 1e-9):
        assert contains_rows((points, counts, radii), V, tol).tolist() == want[tol]


# ----------------------------------------------------------------------- #
# building and merging padded stacks
def _row_parts(rng, m, n, most, mixed):
    """The parts ``(rows, points, count, radii, shortfalls or None)`` of m
    random rows, one part per point count of 1 to ``most``: radii 0.0, -0.0,
    0.3 or 1.0 per row, and with ``mixed`` shortfalls up to the radius on
    the parts of odd count."""
    counts = rng.integers(1, most + 1, m)
    radii = rng.choice([0.0, -0.0, 0.3, 1.0], m)
    parts = []
    for c in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == c)
        points = rng.standard_normal((len(rows), c, n))
        short = rng.uniform(0.0, 1.0, (len(rows), c)) * np.abs(radii[rows, None]) if mixed and c % 2 else None
        parts.append((rows, points, c, radii[rows], short))
    return parts


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mixed", [False, True])
def test_stack_of_pads_every_row_with_its_last_point_and_shortfall(n, mixed):
    from inclusafe.convexset import stack_of

    rng = np.random.default_rng(40 + n + 2 * mixed)
    parts = _row_parts(rng, 30, n, 4, mixed)
    # a part of one row with one radius, wider than the others
    parts.append(([30], rng.standard_normal((1, 6, n)), 6, -0.0, None))
    stack = stack_of(parts, 31)
    assert len(stack) == 3 + mixed
    assert stack[0].shape == (31, 6, n) and stack[1].dtype == int
    for rows, points, c, radii, short in parts:
        for j, i in enumerate(rows):
            assert stack[0][i].tobytes() == np.concatenate([points[j]] + [points[j, -1:]] * (6 - c)).tobytes()
            assert stack[1][i] == c
            r = radii if np.ndim(radii) == 0 else radii[j]
            assert stack[2][i:i + 1].tobytes() == np.float64(r).tobytes()
            if mixed:
                own = np.zeros(c) if short is None else short[j]
                assert stack[3][i].tobytes() == np.concatenate([own, own[-1:].repeat(6 - c)]).tobytes()
    # a stack is a part of itself, rows moved by a slice
    again = stack_of([(slice(1, 32), *stack), ([0], stack[0][:1, :2], 2, 0.5)], 32)
    for a, b in zip(again, stack):
        assert a[1:].tobytes() == b.tobytes()
    assert again[0][0].tobytes() == np.concatenate([stack[0][0, :2]] + [stack[0][0, 1:2]] * 4).tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("group", [2, 3, 9])
@pytest.mark.parametrize("most, mixed", [(1, False), (4, False), (1, True), (4, True)])
def test_merged_runs_equal_hull_union_many_of_their_rows_bit_for_bit(n, group, most, mixed):
    """Every run of ``group`` rows against ``hull_union_many`` of its rows'
    sets: points, the radius to its zero's sign and the shortfalls, which,
    where the stack carries them, are the raw ``R − (r − s)`` of every
    point, a -0.0 included; rows of one count or of several, and runs of
    -0.0 beside +0.0 radii."""
    from inclusafe.convexset import merge_runs, row_set, stack_of

    rng = np.random.default_rng(60 + n + 7 * group + 3 * most + mixed)
    G = 12
    parts = _row_parts(rng, G * group, n, most, mixed)
    stack = stack_of(parts, G * group)
    # runs 0 and 1 of zero radii of both signs, the first a -0.0, then a +0.0
    odd = np.arange(group) % 2 == 1
    stack[2][:2 * group] = np.where(np.concatenate([~odd, odd]), -0.0, 0.0)
    if len(stack) == 4:
        stack[3][:2 * group] = 0.0
    merged = merge_runs(stack, group)
    radii = stack[2].reshape(G, group)
    assert len(merged) == 4 if len(stack) == 4 or (radii != radii[:, :1]).any() else 3
    width = merged[0].shape[1]
    assert merged[1].max() == width
    for g in range(G):
        run = range(g * group, (g + 1) * group)
        want = hull_union_many([row_set(stack, i) for i in run])
        got, c = row_set(merged, g), merged[1][g]
        assert got.points.tobytes() == want.points.tobytes()
        assert merged[2][g:g + 1].tobytes() == np.float64(want.radius).tobytes()
        assert (got.shortfalls is None) == (want.shortfalls is None)
        if want.shortfalls is not None:
            assert got.shortfalls.tobytes() == want.shortfalls.tobytes()
        assert (merged[0][g, c:] == merged[0][g, c - 1]).all()
        if len(merged) == 4:
            own = [stack[2][i] - (stack[3][i, :stack[1][i]] if len(stack) == 4 else np.zeros(stack[1][i]))
                   for i in run]
            assert merged[3][g, :c].tobytes() == (want.radius - np.concatenate(own)).tobytes()
            assert (merged[3][g, c:] == merged[3][g, c - 1]).all()
    assert np.signbit(merged[2][0]) and not np.signbit(merged[2][1])
    if len(merged) == 4:
        assert np.signbit(merged[3][0, stack[1][0]])  # row 1's first point: -0.0 - (0.0 - 0.0)


# ----------------------------------------------------------------------- #
# the nearest-point certificate of contains_rows
_U = 2.0 ** -53


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_unit_direction_norms_are_within_the_certificates_bound(n):
    # step 1 of the proof in contains_rows' docstring rests on this
    from inclusafe.convexset import _unit_norms

    assert np.abs(_unit_norms(n) - 1.0).max() <= 2 * (n + 4) * _U


def _near_the_reach(rng, n, tol, centre):
    """A padded stack around ``centre`` with a velocity per row placed from
    one of its points p along a unit vector w (a sampled direction, where
    the sampled check is tight, or a random one), in four kinds by row:
    p + r w (the shape of example2's hint velocities), a distance of r +
    tol give or take a few ulps of the scale, a distance within a factor
    of two of the certificate's threshold r + tol − δ, and a random
    distance up to 1.5 (r + tol)."""
    m = 240
    points, counts, radii = _padded_stack(rng, m, n, most=9)
    points += centre
    dirs = unit_directions(n)
    V = np.empty((m, n))
    for i in range(m):
        p = points[i, rng.integers(counts[i])]
        w = dirs[rng.integers(dirs.shape[0])] if i % 8 < 4 else rng.standard_normal(n)
        w = w / np.linalg.norm(w)
        reach = radii[i] + tol
        scale = 2.0 * np.linalg.norm(p) + reach
        distance = (radii[i],
                    reach + int(rng.integers(-6, 7)) * _U * scale,
                    reach - 64 * (n + 4) * _U * scale * rng.uniform(0.5, 2.0),
                    reach * rng.uniform(0.0, 1.5))[i % 4]
        V[i] = p + distance * w
    return points, counts, radii, V


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_certified_containment_equals_the_set_method(n, tol):
    from inclusafe import convexset
    from inclusafe.convexset import contains_rows

    rng = np.random.default_rng(940 + 10 * n + (tol > 0.0))
    for centre in (0.0, 1e6):
        points, counts, radii, V = _near_the_reach(rng, n, tol, centre)
        sets = [ConvexCompactSet(p[:c], r) for p, c, r in zip(points, counts, radii)]
        want = [contains(s, v, tol) for s, v in zip(sets, V)]
        assert contains_rows((points, counts, radii), V, tol).tolist() == want
        certified = convexset._certified((points, counts, radii), V, tol)
        # rows settled at once, rows left to the sampled check in and out
        assert certified.any() and (~certified & want).any() and not all(want)
        assert not (certified & ~np.array(want)).any()


@pytest.mark.parametrize("n", [2, 3])
def test_non_finite_rows_are_never_certified(n):
    from inclusafe import convexset
    from inclusafe.convexset import contains_rows

    rng = np.random.default_rng(960 + n)
    points, counts, radii = _padded_stack(rng, 40, n)
    V = points[:, 0].copy()  # a point of each row
    bad = np.zeros(40, dtype=bool)
    for i, value in zip(range(0, 36, 4), itertools.cycle((np.nan, np.inf, -np.inf))):
        V[i, i % n] = value
        points[i + 1, 0, i % n] = value
        points[i + 2, counts[i + 2] - 1, 0] = value
        radii[i + 3] = abs(value)
        bad[i:i + 4] = True
    for tol in (0.0, 1e-9, np.nan):
        certified = convexset._certified((points, counts, radii), V, tol)
        # a finite row is certified where its radius plus tol is positive
        assert certified.tolist() == (~bad & ((radii > 0.0) | (tol > 0.0)) & (tol == tol)).tolist()
        seen = []  # verdicts and the warnings met on the way
        for check in (contains_rows, convexset._sampled):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                seen.append((check((points, counts, radii), V, tol).tolist(), {str(w.message) for w in caught}))
        assert seen[0] == seen[1]
        got = seen[0][0]
        if tol == tol:
            finite = [i for i in range(40) if np.isfinite(points[i]).all() and np.isfinite(radii[i])]
            with np.errstate(all="ignore"):  # the sampled check's warnings, seen above
                want = [contains(ConvexCompactSet(points[i, :counts[i]], radii[i]), V[i], tol) for i in finite]
            assert [got[i] for i in finite] == want
