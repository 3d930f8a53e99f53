"""Complex construction: wedge algebra, differentials, filtration pieces."""

import random
from fractions import Fraction

import pytest

from nilspec import lie, spectral
from nilspec.exterior import (
    Form,
    build_complex,
    compose_is_zero,
    divisibility_subspace,
    is_divisible_by_v1_top,
    lambda_subspace,
    multi_indices,
    pointwise_differential,
    wedge,
)
from nilspec.linalg import Subspace, contains, image


def _complex(text):
    a = lie.parse_salamon(text)
    return build_complex(a, lie.descending_series(a))


def _binom(n, k):
    from math import comb
    return comb(n, k) if 0 <= k <= n else 0


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_basis_cases():
    e1, e2 = Form.basis([1]), Form.basis([2])
    assert wedge(e1, e2) == Form(2, {(1, 2): 1})
    assert wedge(e2, e1) == Form(2, {(1, 2): -1})
    assert wedge(e1, e1).is_zero()


def test_wedge_graded_commutativity():
    rng = random.Random(11)
    for _ in range(25):
        m = 6
        dx = rng.randint(1, 3)
        dy = rng.randint(1, 3)
        def rand_form(d):
            idxs = multi_indices(m, d)
            return Form(d, {idxs[rng.randrange(len(idxs))]: rng.randint(-3, 3) or 1
                            for _ in range(2)})
        x, y = rand_form(dx), rand_form(dy)
        lhs = wedge(x, y)
        rhs = wedge(y, x).scale((-1) ** (dx * dy))
        assert lhs == rhs


def test_wedge_associativity():
    x = Form(1, {(1,): 2})
    y = Form(2, {(2, 3): 1, (2, 4): -1})
    z = Form(1, {(5,): Fraction(1, 2)})
    assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def test_heisenberg_differentials():
    c = _complex("(0,0,12)")
    assert c.apply_d(Form.basis([3])) == Form(2, {(1, 2): 1})
    assert c.apply_d(Form.basis([1])).is_zero()
    assert c.apply_d(Form.basis([2])).is_zero()
    assert c.d[2].is_zero()


def test_abelian_differentials_vanish():
    c = _complex("(0,0,0,0)")
    assert all(c.d[q].is_zero() for q in range(5))


def test_derivation_rule_on_filiform_4():
    c = _complex("(0,0,12,13)")
    # d(e3 ^ e4) = de3 ^ e4 - e3 ^ de4 = e1^e2^e4 (the e1^e3^e3 term dies)
    assert c.apply_d(Form.basis([3, 4])) == Form(3, {(1, 2, 4): 1})


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


def test_pointwise_oracle_matches_derivation_rule(random_algebras_dim5):
    for a in random_algebras_dim5[:8]:
        c = spectral.complex_for(a)
        for q in range(a.m + 1):
            assert pointwise_differential(a.m, c.adapted_constants, q) == c.d[q]


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


def test_permuted_catalog_entry_gives_same_tables():
    # (0,0,0,23) is R (+) h3 with the abelian direction first
    t = spectral.table_for(lie.parse_salamon("(0,0,0,23)"))
    ref = spectral.table_for(lie.parse_salamon("(0,0,0,12)"))
    assert t.limit == ref.limit and t.pages == ref.pages


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
        assert not is_divisible_by_v1_top(c, Form.basis(list(idx)))
    assert divisibility_subspace(c).dim == 0


def test_divisibility_heisenberg():
    c = _complex("(0,0,12)")
    assert is_divisible_by_v1_top(c, Form.basis([1, 2]))
    assert not is_divisible_by_v1_top(c, Form.basis([1, 3]))
    # e1^e2 is exact (= de3); e1^e3 is closed but not exact
    assert image(c.d[1], Subspace.full(3)) == divisibility_subspace(c)
    with pytest.raises(ValueError):
        is_divisible_by_v1_top(c, Form.basis([1]))


def test_top_degree_parts_on_catalog(catalog_tables):
    for e, algebra, comp, table in catalog_tables.values():
        assert comp.d[comp.m - 1].is_zero()
        exact = image(comp.d[comp.m - 2], Subspace.full(comp.dim_lambda(comp.m - 2)))
        assert exact == divisibility_subspace(comp)
