"""Complex construction: wedge minors, differentials, filtration pieces."""

import itertools
import random
from math import comb

import pytest

from conftest import index_positions, reversed_twin, sheared
from nilspec import lie, spectral
from nilspec.exterior import (
    InternalConsistencyError,
    build_complex,
    clear_denominators,
    compose_is_zero,
    differential_columns,
    divisibility_subspace,
    _position,
    form_columns,
    transform_constants,
)
from nilspec.linalg import LinearMap, Subspace, contains, image, span
from nilspec.spectral import LIMIT, full_table
from reference import (apply, betti_numbers, dense, dense_transform_constants, lambda_subspace, map_key,
                       mask_walk_columns, page_grid, pointwise_differential, positional_d, wedge_minors)


def _complex(text):
    a = lie.parse_salamon(text)
    return build_complex(a, lie.descending_series(a))


def _unit(m, idx):
    """The basis cochain e^idx of Lambda^len(idx) as an integer coordinate row."""
    pos = index_positions(m, len(idx))
    vec = [0] * len(pos)
    vec[pos[tuple(idx)]] = 1
    return vec


def _binom(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def _kernel_test_complexes(random_algebras_dim7, twins_dim7, catalog_tables):
    """Fixtures and their twins (which take the basis change), the catalog, m0(3..8)."""
    algebras = [b for pair in zip(random_algebras_dim7, twins_dim7) for b in pair]
    algebras += [lie.m0(m) for m in range(3, 9)]
    return ([spectral.complex_for(a) for a in algebras]
            + [comp for _, _, comp, _ in catalog_tables.values()])


# ---------------------------------------------------------------------------
# wedge minors
# ---------------------------------------------------------------------------

def test_wedge_basis_cases():
    e1, e2 = _unit(3, (1,)), _unit(3, (2,))
    assert wedge_minors(e1, e2, 3) == _unit(3, (1, 2))
    assert wedge_minors(e2, e1, 3) == [-x for x in _unit(3, (1, 2))]
    assert not any(wedge_minors(e1, e1, 3))


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def test_heisenberg_differentials():
    c = _complex("(0,0,12)")
    assert apply(positional_d(c, 1), _unit(3, (3,))) == _unit(3, (1, 2))
    assert not any(apply(positional_d(c, 1), _unit(3, (1,))))
    assert not any(apply(positional_d(c, 1), _unit(3, (2,))))
    assert not positional_d(c, 2).columns


def test_abelian_differentials_vanish():
    c = _complex("(0,0,0,0)")
    assert not any(positional_d(c, q).columns for q in range(5))


def test_derivation_rule_on_filiform_4():
    c = _complex("(0,0,12,13)")
    # d(e3 ^ e4) = de3 ^ e4 - e3 ^ de4 = e1^e2^e4 (the e1^e3^e3 term dies)
    assert apply(positional_d(c, 2), _unit(4, (3, 4))) == _unit(4, (1, 2, 4))


def test_d_squared_zero_everywhere(random_algebras_dim7):
    for a in random_algebras_dim7[:10]:
        c = spectral.complex_for(a)
        for q in range(a.m):
            assert compose_is_zero(c.columns[q + 1], c.columns[q])


def test_filtration_invariance(random_algebras_dim7):
    for a in random_algebras_dim7[:8]:
        c = spectral.complex_for(a)
        for q in range(a.m):
            for i in range(c.k + 1):
                img = image(positional_d(c, q), lambda_subspace(c, q, i))
                assert contains(lambda_subspace(c, q + 1, i), img)


def test_pointwise_oracle_matches_derivation_rule(random_algebras_dim5, random_algebras_dim7,
                                                  twins_dim7, catalog_tables):
    complexes = [spectral.complex_for(a) for a in random_algebras_dim5[:8]]
    complexes += _kernel_test_complexes(random_algebras_dim7, twins_dim7, catalog_tables)
    signs = set()
    for c in complexes:
        for q in range(c.m + 1):
            built = differential_columns(c.m, c.adapted_constants, q)
            signs.update(v > 0 for col in built.values() for v in col.values())
            as_map = LinearMap(comb(c.m, q + 1), comb(c.m, q), {j: col.items() for j, col in built.items()})
            oracle = pointwise_differential(c.m, c.adapted_constants, q)
            assert map_key(as_map) == map_key(positional_d(c, q)) == map_key(oracle)
    assert signs == {True, False}


def test_term_driven_columns_match_mask_walk(random_algebras_dim7, twins_dim7, catalog_tables, rng_factory):
    """form_columns equals the mask walk of tests/reference.py on every degree,
    with and without levels, and transform_constants on sparse rows equals
    the dense construction of tests/reference.py: the catalog, m0(3..12), the
    dimension <= 7 fixtures (rational constants) and their twins, and sheared
    algebras (fixtures, catalog copies and m0(3..12)), whose complexes take
    transform_constants."""
    rng = rng_factory(0x7E2A)
    algebras = [b for pair in zip(random_algebras_dim7, twins_dim7) for b in pair]
    algebras += [lie.m0(m) for m in range(3, 13)] + [a for _, a, _, _ in catalog_tables.values()]
    algebras += [sheared(a, rng) for a in random_algebras_dim7[:20]]
    algebras += [sheared(a, rng) for a in [*(a for _, a, _, _ in catalog_tables.values()),
                                           *(lie.m0(m) for m in range(3, 13))]]
    transformed = rational = 0
    for a in algebras:
        c = spectral.complex_for(a)
        change = c.adapted_basis_change
        transformed += change != Subspace.full(a.m).rows
        rational += any(v.denominator > 1 for v in a.c.values())
        integral = clear_denominators(a.c)
        assert transform_constants(integral, change) == dense_transform_constants(integral, dense(change, a.m))
        for constants, levels in ((integral, ()), (c.adapted_constants, c.levels), (c.adapted_constants, ())):
            columns = form_columns(a.m, constants, levels)
            assert len(columns) == a.m + 1
            for q in range(a.m + 1):
                assert columns[q] == mask_walk_columns(a.m, constants, q, levels)
    assert len(catalog_tables) == 44 and transformed >= 60 and rational > 0


def test_columns_of_a_term_in_e_j_of_de_j_match_mask_walk():
    """A term c e^a ^ e^b of de^j with j = a or j = b, which raw constants
    can have, walks the subsets of the indices other than a and b:
    form_columns equals the mask walk of tests/reference.py on every
    degree, with and without levels, on fixed cases and 300 seeded random
    constant sets of dimension 3-7, most of them with such a term."""
    rng = random.Random(0x7A1B)
    cases = [(3, {(1, 2, 1): 1}), (3, {(1, 2, 2): -2}),
             (5, {(1, 2, 1): 1, (2, 4, 4): -2, (1, 3, 5): 3, (3, 4, 5): 1, (1, 2, 3): 2}),
             (4, {(1, 2, 2): 0, (1, 2, 3): 1, (1, 3, 4): 1})]  # a zero constant adds no entry
    for _ in range(300):
        m = rng.randint(3, 7)
        constants = {}
        for _ in range(rng.randint(1, m)):
            a, b = sorted(rng.sample(range(1, m + 1), 2))
            constants[a, b, rng.choice([a, b, rng.randint(1, m)])] = rng.choice([-2, -1, 1, 2])
        cases.append((m, constants))
    own = 0
    for m, constants in cases:
        own += any(j in (a, b) for a, b, j in constants)
        for levels in ((), sorted(rng.randint(1, m) for _ in range(m))):
            columns = form_columns(m, constants, levels)
            assert len(columns) == m + 1
            for q in range(m + 1):
                assert columns[q] == mask_walk_columns(m, constants, q, levels), (m, constants, levels, q)
    assert own > 250, own


def test_singular_basis_change_raises():
    constants = clear_denominators(lie.m0(4).c)
    for change in ([{0: 1}, {0: 2}, {2: 1}, {3: 1}], [{0: 1, 1: 1}, {1: 1, 2: -1}, {0: 1, 2: 1}, {3: 1}]):
        for transform, rows in ((transform_constants, change), (dense_transform_constants, dense(change, 4))):
            with pytest.raises(InternalConsistencyError, match="^adapted basis change is singular$"):
                transform(constants, rows)


def test_build_complex_leaves_the_filtration_unchanged(catalog_tables, rng_factory):
    rng = rng_factory(0xA11A5)
    for _, algebra, _, _ in catalog_tables.values():
        a = sheared(algebra, rng)
        before = [(s.ambient_dim, dense(s), s.pivots) for s in a.filtration.spaces]
        c = build_complex(a, a.filtration)
        assert [(s.ambient_dim, dense(s), s.pivots) for s in a.filtration.spaces] == before
        assert c.adapted_basis_change == build_complex(a, a.filtration).adapted_basis_change


def test_mask_positions_match_index_positions():
    for m in range(9):
        full = (1 << m) - 1
        for q in range(m + 1):
            indices = index_positions(m, q)
            assert len(indices) == comb(m, q)
            # the key of a level-0 form is full ^ R, R its reversed mask
            keys = {idx: full ^ sum(1 << (m - i) for i in idx) for idx in indices}
            for idx, pos in indices.items():
                assert _position(keys[idx], full) == pos
            assert sorted(indices, key=keys.get) == list(indices)


def test_index_level_is_max_index_level(random_algebras_dim7, twins_dim7, catalog_tables):
    for c in _kernel_test_complexes(random_algebras_dim7, twins_dim7, catalog_tables):
        assert list(c.levels) == sorted(c.levels)
        assert not c.columns[0] and not c.columns[c.m]
        full = (1 << c.m) - 1
        indices = [list(itertools.combinations(range(1, c.m + 1), q)) for q in range(c.m + 1)]
        for q in range(c.m):
            for src, col in c.columns[q].items():
                for key, degree in ((src, q), *((key, q + 1) for key in col)):
                    idx = indices[degree][_position(key, full)]
                    assert key >> c.m == max(c.levels[j - 1] for j in idx)


def test_levels_and_lambda_dims():
    c = _complex("(0,0,12,13,14)")
    assert c.v_dims == (0, 2, 3, 4, 5)
    assert c.levels == (1, 1, 2, 3, 4)
    for q in range(6):
        for i in range(5):
            expected = _binom(c.v_dims[i], q) if q else (1 if i >= 1 else 0)
            assert lambda_subspace(c, q, i).dim == expected


def test_lambda_subspace_clamps():
    c = _complex("(0,0,12)")
    assert lambda_subspace(c, 2, -3).dim == 0
    assert lambda_subspace(c, 2, 99) == Subspace.full(3)
    assert lambda_subspace(c, 2, 1).dim == 1  # span{e1^e2}


def test_lambda_subspace_heisenberg_level1():
    c = _complex("(0,0,12)")
    s = lambda_subspace(c, 2, 1)
    assert s == Subspace.coordinate([0], 3)  # (1,2) is the first 2-index


# ---------------------------------------------------------------------------
# adaptation of non-coordinate inputs
# ---------------------------------------------------------------------------

def test_non_adapted_basis_gives_same_tables():
    # the Heisenberg algebra in the primal basis f1=e1+e2, f2=e2, f3=e1+e3:
    # [f1,f2] = -f1+f2+f3, [f1,f3] = [f2,f3] = f1-f2-f3
    skew = lie.LieAlgebra(3, {
        (1, 2, 1): -1, (1, 2, 2): 1, (1, 2, 3): 1,
        (1, 3, 1): 1, (1, 3, 2): -1, (1, 3, 3): -1,
        (2, 3, 1): 1, (2, 3, 2): -1, (2, 3, 3): -1,
    })
    t = spectral.table_for(skew)
    reference = spectral.table_for(lie.parse_salamon("(0,0,12)"))
    assert t.pages[0] == reference.pages[0]
    assert t.limit == reference.limit
    assert t.r0 == reference.r0
    c = spectral.complex_for(skew)
    assert c.adapted_basis_change != Subspace.full(3).rows


def test_permuted_catalog_entry_gives_same_tables(random_algebras_dim7):
    # (0,0,0,23) is R (+) h3 with the abelian direction first
    t = spectral.table_for(lie.parse_salamon("(0,0,0,23)"))
    ref = spectral.table_for(lie.parse_salamon("(0,0,0,12)"))
    assert t.limit == ref.limit and t.pages == ref.pages
    # the same algebras with their indices reversed, i -> m+1-i
    changed = 0
    for a in random_algebras_dim7:
        m = a.m
        twin = reversed_twin(a)
        t, ref = spectral.table_for(twin), spectral.table_for(a)
        assert (t.pages, t.limit, t.r0, t.betti) == (ref.pages, ref.limit, ref.r0, ref.betti)
        changed += spectral.complex_for(twin).adapted_basis_change != Subspace.full(m).rows
    assert changed >= 40


def _greedy_adapted_rows(f, m):
    """The canonical rows of V_1, V_2, ... in order, each kept unless it lies
    in the span of the rows kept before it, as dense rows."""
    rows = []
    for space in f.spaces[1:]:
        for row in dense(space):
            if not contains(span(rows, m), span([row], m)):
                rows.append(row)
    return tuple(rows)


def test_adapted_rows_are_canonical_rows_at_new_pivots(catalog_tables, random_algebras_dim7,
                                                       random_algebras_dim10, twins_dim7, twins_dim10):
    rng = random.Random(0xAD4B)
    algebras = [algebra for _, algebra, _, _ in catalog_tables.values()]
    algebras += [lie.m0(m) for m in range(3, 15)]
    algebras += [b for pair in zip(random_algebras_dim7 + random_algebras_dim10, twins_dim7 + twins_dim10)
                 for b in pair]
    algebras += [sheared(algebra, rng) for _, algebra, _, _ in catalog_tables.values()]
    differ = 0
    for a in algebras:
        f = lie.descending_series(a)
        c = spectral.complex_for(a)
        for prev, space in zip(f.spaces, f.spaces[1:]):
            new = [row for row, p in zip(space.rows, space.pivots) if p not in prev.pivots]
            assert list(c.adapted_basis_change[prev.dim:space.dim]) == new
            assert span(dense(c.adapted_basis_change[:space.dim], a.m), a.m) == space
        if a.m > 8 or dense(c.adapted_basis_change, a.m) == _greedy_adapted_rows(f, a.m):
            continue  # tables above dim 8 take too long here
        # another adapted basis than the greedy rule's: the pairing must still
        # give the A-space quotient's pages, the rank-nullity Betti numbers
        # and the tables of the index-reversed twin
        differ += 1
        t = full_table(c)
        for r in range(t.r0 + 1):
            assert t.pages[r] == page_grid(c, r), (lie.to_salamon(a), r)
        assert t.limit == page_grid(c, LIMIT)
        assert t.betti == betti_numbers(c)
        twin = spectral.table_for(reversed_twin(a))
        assert (t.pages, t.limit, t.r0, t.betti) == (twin.pages, twin.limit, twin.r0, twin.betti)
    assert differ >= 80


def test_rational_coefficients_supported():
    t = spectral.table_for(lie.parse_salamon("(0,0,1/2*12)"))
    ref = spectral.table_for(lie.parse_salamon("(0,0,12)"))
    assert t.limit == ref.limit


# ---------------------------------------------------------------------------
# top-degree divisibility
# ---------------------------------------------------------------------------

def test_divisibility_abelian_r3():
    c = _complex("(0,0,0)")
    # n0 = 3: no 2-form contains all three generators
    for idx in itertools.combinations(range(1, 4), 2):
        assert not contains(divisibility_subspace(c), span([_unit(3, idx)], 3))
    assert divisibility_subspace(c).dim == 0


def test_divisibility_heisenberg():
    c = _complex("(0,0,12)")
    assert contains(divisibility_subspace(c), span([_unit(3, (1, 2))], 3))
    assert not contains(divisibility_subspace(c), span([_unit(3, (1, 3))], 3))
    # e1^e2 is exact (= de3); e1^e3 is closed but not exact
    assert image(positional_d(c, 1), Subspace.full(3)) == divisibility_subspace(c)


def test_top_degree_parts_on_catalog(catalog_tables):
    for e, algebra, comp, table in catalog_tables.values():
        assert not positional_d(comp, comp.m - 1).columns
        exact = image(positional_d(comp, comp.m - 2), Subspace.full(comb(comp.m, comp.m - 2)))
        assert exact == divisibility_subspace(comp)
