"""Complex construction: wedge minors, differentials, filtration pieces."""

from math import comb

from nilspec import lie, spectral
from nilspec.exterior import (
    build_complex,
    compose_is_zero,
    differential_columns,
    divisibility_subspace,
    index_positions,
    lambda_subspace,
    mask_positions,
    multi_indices,
    pointwise_differential,
    wedge_minors,
)
from nilspec.linalg import LinearMap, Subspace, contains, image


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


def _twin(a):
    """The same algebra with its indices reversed, i -> m+1-i."""
    m = a.m
    return lie.LieAlgebra(m, {(m + 1 - i, m + 1 - j, m + 1 - k): v for (i, j, k), v in a.c.items()})


def _kernel_test_complexes(random_algebras_dim7, catalog_tables):
    """Fixtures and their twins (which take the basis change), the catalog, m0(3..8)."""
    algebras = [b for a in random_algebras_dim7 for b in (a, _twin(a))]
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
    assert c.d[1].apply(_unit(3, (3,))) == _unit(3, (1, 2))
    assert not any(c.d[1].apply(_unit(3, (1,))))
    assert not any(c.d[1].apply(_unit(3, (2,))))
    assert c.d[2].is_zero()


def test_abelian_differentials_vanish():
    c = _complex("(0,0,0,0)")
    assert all(c.d[q].is_zero() for q in range(5))


def test_derivation_rule_on_filiform_4():
    c = _complex("(0,0,12,13)")
    # d(e3 ^ e4) = de3 ^ e4 - e3 ^ de4 = e1^e2^e4 (the e1^e3^e3 term dies)
    assert c.d[2].apply(_unit(4, (3, 4))) == _unit(4, (1, 2, 4))


def test_d_squared_zero_everywhere(random_algebras_dim7):
    for a in random_algebras_dim7[:10]:
        c = spectral.complex_for(a)
        for q in range(a.m):
            assert compose_is_zero(c.d[q + 1].columns, c.d[q].columns)


def test_filtration_invariance(random_algebras_dim7):
    for a in random_algebras_dim7[:8]:
        c = spectral.complex_for(a)
        for q in range(a.m):
            for i in range(c.k + 1):
                img = image(c.d[q], lambda_subspace(c, q, i))
                assert contains(lambda_subspace(c, q + 1, i), img)


def test_pointwise_oracle_matches_derivation_rule(random_algebras_dim5, random_algebras_dim7,
                                                  catalog_tables):
    complexes = [spectral.complex_for(a) for a in random_algebras_dim5[:8]]
    complexes += _kernel_test_complexes(random_algebras_dim7, catalog_tables)
    signs = set()
    for c in complexes:
        for q in range(c.m + 1):
            built = differential_columns(c.m, c.adapted_constants, q)
            signs.update(v > 0 for entries in built.values() for _, v in entries)
            as_map = LinearMap(comb(c.m, q + 1), comb(c.m, q), built)
            assert as_map == c.d[q] == pointwise_differential(c.m, c.adapted_constants, q)
    assert signs == {True, False}


def test_mask_positions_match_index_positions():
    for m in range(9):
        for q in range(m + 1):
            masks, indices = mask_positions(m, q), index_positions(m, q)
            assert len(masks) == len(indices) == comb(m, q)
            for idx, pos in indices.items():
                assert masks[sum(1 << i for i in idx)] == pos


def test_index_level_is_max_index_level(random_algebras_dim7, catalog_tables):
    for c in _kernel_test_complexes(random_algebras_dim7, catalog_tables):
        assert list(c.levels) == sorted(c.levels)
        assert c._index_levels[0] == (1,)
        for q in range(1, c.m + 1):
            assert c._index_levels[q] == tuple(max(c.levels[j - 1] for j in idx)
                                               for idx in multi_indices(c.m, q))


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
    assert c.adapted_basis_change != Subspace.full(3).basis


def test_permuted_catalog_entry_gives_same_tables(random_algebras_dim7):
    # (0,0,0,23) is R (+) h3 with the abelian direction first
    t = spectral.table_for(lie.parse_salamon("(0,0,0,23)"))
    ref = spectral.table_for(lie.parse_salamon("(0,0,0,12)"))
    assert t.limit == ref.limit and t.pages == ref.pages
    # the same algebras with their indices reversed, i -> m+1-i
    changed = 0
    for a in random_algebras_dim7:
        m = a.m
        twin = _twin(a)
        t, ref = spectral.table_for(twin), spectral.table_for(a)
        assert (t.pages, t.limit, t.r0, t.betti) == (ref.pages, ref.limit, ref.r0, ref.betti)
        changed += spectral.complex_for(twin).adapted_basis_change != Subspace.full(m).basis
    assert changed >= 40


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
    for idx in multi_indices(3, 2):
        assert not divisibility_subspace(c).contains_vector(_unit(3, idx))
    assert divisibility_subspace(c).dim == 0


def test_divisibility_heisenberg():
    c = _complex("(0,0,12)")
    assert divisibility_subspace(c).contains_vector(_unit(3, (1, 2)))
    assert not divisibility_subspace(c).contains_vector(_unit(3, (1, 3)))
    # e1^e2 is exact (= de3); e1^e3 is closed but not exact
    assert image(c.d[1], Subspace.full(3)) == divisibility_subspace(c)


def test_top_degree_parts_on_catalog(catalog_tables):
    for e, algebra, comp, table in catalog_tables.values():
        assert comp.d[comp.m - 1].is_zero()
        exact = image(comp.d[comp.m - 2], Subspace.full(comp.dim_lambda(comp.m - 2)))
        assert exact == divisibility_subspace(comp)
