"""Exact linear algebra: hand examples, canonical forms, subspace identities.

The property tests compare against an independent naive fraction
implementation (``reference.naive_rref``: plain (num, den) tuples, textbook
elimination) on random small matrices, so the package's one sparse integer
elimination is cross-checked end to end.
"""

import math
import random
from fractions import Fraction

import pytest

from nilspec.linalg import (
    LinearMap,
    _eliminate,
    Subspace,
    contains,
    image,
    null_space,
    preimage,
    rank,
    span,
    subspace_sum,
)
from nilspec.lie import rat
from reference import apply, dense, naive_rref, textbook_preimage, two_step_kernel


def random_matrix(rng, rows, cols, bound=4):
    return [[Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]


def integer_rows(grid):
    """Each rational row times the lcm of its denominators: the same span."""
    return [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in grid]


def random_subspace(rng, ambient, nvecs):
    return span(integer_rows(random_matrix(rng, nvecs, ambient)), ambient)


def as_map(grid, cols):
    """The integer map of a rational grid (rows x cols), scaled by the lcm of
    its denominators; the scale changes no image, preimage, kernel or rank."""
    scale = math.lcm(*(Fraction(x).denominator for row in grid for x in row))
    return LinearMap(len(grid), cols, {j: [(i, int(row[j] * scale)) for i, row in enumerate(grid)]
                                       for j in range(cols)})


def identity_map(n):
    return LinearMap(n, n, {j: [(j, 1)] for j in range(n)})


def snapshot(*spaces):
    """What a subspace shows of itself: ambient dimension, dense rows, pivots."""
    return [(s.ambient_dim, dense(s), s.pivots) for s in spaces]


def primitive(row):
    """A rational row scaled to a primitive integer vector with a positive
    leading entry."""
    scale = math.lcm(*(x.denominator for x in row))
    ints = [int(x * scale) for x in row]
    g = math.gcd(*ints)
    sign = 1 if next(x for x in ints if x) > 0 else -1
    return tuple(sign * x // g for x in ints)


# ---------------------------------------------------------------------------
# canonical rows (RREF scaled to primitive integers) and span
# ---------------------------------------------------------------------------

def test_rref_identity():
    rows = [[int(i == j) for j in range(3)] for i in range(3)]
    s = span(rows, 3)
    assert dense(s) == tuple(map(tuple, rows))
    assert s.dim == 3 and s == Subspace.full(3)


def test_rref_zero():
    s = span([[0] * 4, [0] * 4], 4)
    assert dense(s) == ()
    assert s.dim == 0 and s == Subspace.zero(4)


def test_rref_dependent_rows():
    s = span([[1, 2], [2, 4]], 2)
    assert dense(s) == ((1, 2),)
    assert s.dim == 1


def test_rref_matches_naive_on_random_matrices():
    """span's canonical rows, and the forward-only rank count that the
    per-level coordinate read-off of ``lie`` runs on sparse rows with tuple
    keys (here in a shuffled column order), against the naive elimination;
    the second batch of inputs is sparse with many +-1 pivots."""
    rng = random.Random(20240917)
    grids = [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(60)]
    grids += [[[Fraction(rng.choice((-1, 0, 0, 1, 2))) for _ in range(cols)] for _ in range(rows)]
              for rows, cols in [(rng.randint(1, 8), rng.randint(1, 9)) for _ in range(200)]]
    keys = [(a, b) for a in range(3) for b in range(3)]
    for grid in grids:
        cols = len(grid[0])
        ours = span(integer_rows(grid), cols)
        naive, naive_rank = naive_rref([[(x.numerator, x.denominator) for x in row] for row in grid])
        assert ours.dim == naive_rank
        assert dense(ours) == tuple(primitive([Fraction(num, den) for num, den in row])
                                   for row in naive[:naive_rank])
        shuffled = rng.sample(keys, cols)
        sparse = [{key: x for key, x in zip(shuffled, row) if x} for row in integer_rows(grid)]
        assert len(_eliminate(sparse, reduced=False)) == naive_rank


def test_rref_idempotent_and_span_preserving():
    """span of its own basis, or of its rows shuffled, gives an equal subspace
    with an equal hash, and reading a subspace changes none of its rows."""
    rng = random.Random(7)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        grid = random_matrix(rng, rows, cols)
        once = span(integer_rows(grid), cols)
        before = snapshot(once)
        twice = span(dense(once), cols)
        shuffled = span(rng.sample(integer_rows(grid), rows), cols)
        assert once.rows == twice.rows and once.dim == twice.dim
        assert once == twice == shuffled and hash(once) == hash(twice) == hash(shuffled)
        assert all(contains(once, span([row], cols)) for row in integer_rows(grid))
        assert once.dim == rank(as_map(grid, cols))
        assert snapshot(once) == before


def test_span_empty_is_zero_subspace():
    s = span([], 5)
    assert s.dim == 0 and s.ambient_dim == 5
    assert s == Subspace.zero(5)


def test_span_overlapping_vectors():
    s = span([[1, 0, 0], [1, 1, 0]], 3)
    assert s.dim == 2
    assert s == span([[1, 0, 0], [0, 1, 0]], 3)


def test_span_dependent_pair_is_a_line():
    assert span([[1, 2], [2, 4]], 2).dim == 1


# ---------------------------------------------------------------------------
# sum / containment
# ---------------------------------------------------------------------------

def test_sum_with_zero_is_identity():
    rng = random.Random(1)
    a = random_subspace(rng, 4, 2)
    assert subspace_sum(a, Subspace.zero(4)) == a
    assert subspace_sum(Subspace.zero(4), a) == a


def test_sum_of_axes_is_full_plane():
    a = span([[1, 0]], 2)
    b = span([[0, 1]], 2)
    assert subspace_sum(a, b) == Subspace.full(2)


def test_contains_basics():
    assert contains(Subspace.full(3), span([[1, 2, 3]], 3))
    assert not contains(span([[1, 0]], 2), span([[0, 1]], 2))
    assert contains(span([[1, 0]], 2), Subspace.zero(2))


# ---------------------------------------------------------------------------
# image / preimage / kernel
# ---------------------------------------------------------------------------

def test_image_of_zero_map():
    m = LinearMap(3, 2, {})
    assert image(m, Subspace.full(2)) == Subspace.zero(3)


def test_image_of_identity_restricted_to_domain():
    rng = random.Random(3)
    d = random_subspace(rng, 4, 2)
    assert image(identity_map(4), d) == d


def test_preimage_of_full_target_is_domain():
    rng = random.Random(4)
    m = as_map(random_matrix(rng, 3, 4), 4)
    d = random_subspace(rng, 4, 3)
    assert preimage(m, Subspace.full(3), d) == d


def test_preimage_of_zero_under_injective_map():
    m = as_map([[1, 0], [0, 1], [1, 1]], 2)
    assert preimage(m, Subspace.zero(3), Subspace.full(2)) == Subspace.zero(2)


def test_preimage_is_largest_subspace_mapping_into_target():
    rng = random.Random(5)
    for _ in range(30):
        n, m_dim = rng.randint(1, 5), rng.randint(1, 5)
        mat = as_map(random_matrix(rng, m_dim, n), n)
        domain = random_subspace(rng, n, rng.randint(0, n))
        target = random_subspace(rng, m_dim, rng.randint(0, m_dim))
        before = snapshot(domain, target)
        pre = preimage(mat, target, domain)
        after_pre = snapshot(pre)
        assert contains(domain, pre)
        assert contains(target, image(mat, pre))
        # maximality: every domain basis vector outside pre must leave target,
        # and pre is the kernel of domain -> Q^m_dim / target (rank-nullity)
        for row in dense(domain):
            if not contains(pre, span([row], n)):
                assert not contains(target, span([apply(mat, row)], m_dim))
        assert pre.dim == domain.dim - (subspace_sum(target, image(mat, domain)).dim - target.dim)
        # every operation reads its operands and leaves their rows as they were
        total = subspace_sum(pre, domain)
        assert total == domain and contains(total, pre) and contains(span(dense(pre), n), pre)
        assert subspace_sum(target, image(mat, domain)) == subspace_sum(image(mat, domain), target)
        assert snapshot(domain, target) == before and snapshot(pre) == after_pre


def test_preimage_equals_textbook_preimage():
    """preimage gives the same canonical basis and pivots as the textbook
    preimage of tests/reference.py (the two-step kernel of [M B | -T], then B
    times its c-part), on seeded cases with zero-dimensional domains, zero
    maps, zero and full targets, and rank-deficient maps."""
    rng = random.Random(0x9E1A)
    kinds = {"empty domain": 0, "zero map": 0, "zero target": 0, "full target": 0, "rank-deficient": 0}
    for case in range(600):
        n, m_dim = rng.randint(0, 6), rng.randint(0, 6)
        if case % 5 == 0:
            mat = LinearMap(m_dim, n, {})
        elif case % 5 == 1 and min(n, m_dim) > 1:  # a product through a smaller inner dimension
            inner = rng.randint(1, min(n, m_dim) - 1)
            left, right = random_matrix(rng, m_dim, inner), random_matrix(rng, inner, n)
            mat = as_map([[sum(left[i][t] * right[t][j] for t in range(inner)) for j in range(n)]
                          for i in range(m_dim)], n)
        else:
            mat = as_map(random_matrix(rng, m_dim, n, bound=rng.choice((1, 4))), n)
        domain = random_subspace(rng, n, 0 if case % 10 == 3 else rng.randint(1, n) if n else 0)
        target = random_subspace(rng, m_dim, rng.choice((0, rng.randint(0, m_dim), m_dim)))
        got, want = preimage(mat, target, domain), textbook_preimage(mat, target, domain)
        assert (got.ambient_dim, got.rows, got.pivots) == (want.ambient_dim, want.rows, want.pivots)
        kinds["empty domain"] += domain.dim == 0
        kinds["zero map"] += not mat.columns and domain.dim > 0
        kinds["zero target"] += target.dim == 0 and domain.dim > 0
        kinds["full target"] += 0 < target.dim == m_dim and domain.dim > 0
        kinds["rank-deficient"] += 0 < rank(mat) < min(n, m_dim) and domain.dim > 0
    assert min(kinds.values()) > 50, kinds


def test_linear_map_sums_a_row_repeated_in_one_column():
    """Entries given for one row of a column add up, so the product, image,
    rank and null space of the columns all see the same matrix and
    rank-nullity holds."""
    mat = LinearMap(2, 2, {0: [(0, 1), (0, -1)], 1: [(1, 1)]})
    assert mat.columns == {1: {1: 1}} and apply(mat, [1, 0]) == [0, 0]
    assert rank(mat) == 1 and image(mat, Subspace.full(2)).dim == 1
    assert null_space(mat.columns, mat.rows, mat.cols).dim == 1


def test_kernel_matches_preimage_of_zero():
    rng = random.Random(6)
    for _ in range(20):
        n, m_dim = rng.randint(1, 5), rng.randint(1, 5)
        mat = as_map(random_matrix(rng, m_dim, n), n)
        by_kernel = null_space(mat.columns, mat.rows, mat.cols)
        by_preimage = preimage(mat, Subspace.zero(m_dim), Subspace.full(n))
        assert by_kernel == by_preimage and hash(by_kernel) == hash(by_preimage)
        assert by_kernel.dim == n - rank(mat)


def test_one_elimination_kernel_equals_two_step_kernel():
    """null_space of a map's columns, read off marker rows, gives the same canonical
    basis and pivots as span of the textbook null vectors, on seeded random
    integer matrices, with empty, all-zero, full-rank and zero-row cases."""
    rng = random.Random(0x4B3E)
    maps = [LinearMap(0, 0, {}), LinearMap(3, 0, {}), LinearMap(0, 4, {}), LinearMap(3, 5, {}),
            identity_map(4), LinearMap(2, 2, {0: [(0, 2), (1, 4)], 1: [(0, 3), (1, 6)]})]
    while len(maps) < 2500:
        rows, cols = rng.randint(0, 7), rng.randint(0, 8)
        density = rng.random()
        pool = rng.choice([[1, -1], [-3, -2, -1, 1, 2, 5, 7], list(range(-12, 13))])
        maps.append(LinearMap(rows, cols, {j: [(i, rng.choice(pool)) for i in range(rows) if rng.random() < density]
                                           for j in range(cols)}))
    full_rank = 0
    for mat in maps:
        got, want = null_space(mat.columns, mat.rows, mat.cols), two_step_kernel(mat)
        assert (got.ambient_dim, got.rows, got.pivots) == (want.ambient_dim, want.rows, want.pivots)
        full_rank += mat.cols > 0 and got.dim == max(0, mat.cols - mat.rows)
    assert full_rank > 100


def test_null_space_equals_two_step_kernel():
    """null_space, which reads the null vectors off the marker rows of the
    columns, equals the two-step kernel of tests/reference.py, two textbook
    eliminations, on seeded random integer grids given by their columns:
    zero matrices (every null vector a unit vector), matrices where no null
    vector is, and mixtures."""
    rng = random.Random(0x0A11)
    grids = [([[0] * cols for _ in range(rows)], cols) for rows in range(4) for cols in range(1, 7)]
    grids += [([[1] * cols], cols) for cols in range(1, 7)]
    while len(grids) < 2000:
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        density = rng.random()
        grids.append(([[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(cols)]
                       for _ in range(rows)], cols))
    kinds = {"untouched": 0, "touched": 0, "mixed": 0}
    for grid, cols in grids:
        got = null_space({j: {i: row[j] for i, row in enumerate(grid) if row[j]} for j in range(cols)},
                         len(grid), cols)
        want = two_step_kernel(LinearMap(len(grid), cols, {j: [(i, row[j]) for i, row in enumerate(grid)]
                                                           for j in range(cols)}))
        assert (got.ambient_dim, got.rows, got.pivots) == (want.ambient_dim, want.rows, want.pivots)
        units = sum(row == Subspace.coordinate([p], cols).rows[0] for row, p in zip(got.rows, got.pivots))
        if got.dim:
            kinds["untouched" if units == got.dim else "touched" if not units else "mixed"] += 1
    assert min(kinds.values()) > 100, kinds


def test_coordinate_subspace_of_every_position_is_the_identity():
    assert dense(Subspace.coordinate(range(0), 0)) == dense(Subspace.full(0)) == ()
    for n in range(1, 8):
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert dense(Subspace.coordinate(range(n), n)) == dense(Subspace.full(n)) == identity
        assert dense(Subspace.coordinate([n - 1, 0, n - 1], n)) == tuple(identity[p] for p in sorted({0, n - 1}))


def test_rat_parses_signed_fractions():
    assert rat("-3/2") == Fraction(-3, 2)
    assert rat("−3/2") == Fraction(-3, 2)
    assert rat(7) == Fraction(7)
    for bad in ("0.5", "1e3", "1/2.0", True):
        with pytest.raises((ValueError, TypeError)):
            rat(bad)
