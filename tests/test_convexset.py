from __future__ import annotations

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
def test_singleton_and_ball():
    s = ConvexCompactSet.singleton([1.0, 2.0])
    assert s.dimension == 2
    assert s.radius == 0.0
    assert s.support([1.0, 0.0]) == 1.0

    b = ConvexCompactSet.ball([0.0], 2.0)
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


def test_translate_scale_inflate():
    s = ConvexCompactSet.interval(-1.0, 2.0)
    assert s.translate([1.0]).interval_bounds() == (0.0, 3.0)
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
        assert hausdorff(a.translate(shift), b.translate(shift)) == pytest.approx(d, abs=1e-9)


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
