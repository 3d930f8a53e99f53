"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they pass.  All comparisons are exact integer equality; there are no
tolerances anywhere.
"""

from math import comb

from conftest import index_positions
from nilspec import catalog, lie, spectral
from nilspec.linalg import Subspace, contains, image, span
from nilspec.spectral import (
    LIMIT,
    check_top_degree_forms,
    check_limit_edges,
    check_abelian_extension,
)
from reference import (apply, betti_numbers, limit_class_nonzero, map_key, page0_closed_form, page_entry, page_grid,
                       pointwise_differential, positional_d, sort_indices)


def _verdict(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS - {detail}")


def test_criterion_1_golden_tables(catalog_tables):
    """Every printed page grid and limit grid of all 44 entries, bit-exact,
    modulo the individually-logged paper-suspect cells."""
    suspects = 0
    for e, algebra, comp, table in catalog_tables.values():
        report, notes = catalog.golden_check(e, table)
        assert report.ok, (e.id, report.violations)
        suspects += len(notes)
    assert len(catalog_tables) == 44
    _verdict(1, f"44/44 entries cell-exact; {suspects} logged paper-suspect cells")


def test_criterion_2_convergence_identity(catalog_tables):
    """Column sums of the limit grid equal rank-nullity Betti numbers."""
    cells = 0
    for e, algebra, comp, table in catalog_tables.values():
        betti = betti_numbers(comp)
        for i in range(table.m + 1):
            assert sum(row[i] for row in table.limit) == betti[i], (e.id, i)
            cells += 1
    _verdict(2, f"{cells} column sums match independent Betti numbers")


def test_criterion_3_limit_edge_identities(catalog_tables, random_algebras_dim7):
    """Limit terms of degree 0, 1, m-1, m for catalog + filiform + randoms."""
    count = 0
    for e, algebra, comp, table in catalog_tables.values():
        rep = check_limit_edges(table, comp)
        assert rep.ok, (e.id, rep.violations)
        count += 1
    for m in range(3, 10):
        algebra = lie.m0(m)
        comp = spectral.complex_for(algebra)
        rep = check_limit_edges(spectral.full_table(comp), comp)
        assert rep.ok, (f"m0({m})", rep.violations)
        count += 1
    for algebra in random_algebras_dim7:
        comp = spectral.complex_for(algebra)
        rep = check_limit_edges(spectral.full_table(comp), comp)
        assert rep.ok, (lie.to_salamon(algebra), rep.violations)
        count += 1
    assert count == 44 + 7 + 50
    _verdict(3, f"{count} algebras pass all four edge identities")


def test_criterion_4_direct_sum_identities():
    """Five dimension identities for R^s (+) h at r in {0,1,2,limit}, the
    degeneration-page equality, and the rank-one Heisenberg extension's
    published limit table value by value."""
    bases = ["(0,0,12)"] + [catalog.get_entry(i).salamon
                            for i in ("dim5-1", "dim5-2", "dim5-3", "dim5-6", "dim5-8")]
    checks = 0
    for text in bases:
        h = lie.parse_salamon(text)
        for s in (1, 2):
            for rep in check_abelian_extension(h, (0, 1, 2, LIMIT), s=s):
                assert rep.ok, (text, s, rep.name, rep.violations)
                checks += rep.checks
    # the limit table of R (+) h3, value by value
    t = spectral.table_for(lie.direct_sum(lie.abelian(1), lie.parse_salamon("(0,0,12)")))
    expected = {(0, 0): 0, (1, -1): 1, (1, 0): 3, (0, 1): 0, (0, 2): 2,
                (1, 1): 2, (0, 3): 3, (1, 2): 0, (0, 4): 1}
    for (p, q), want in expected.items():
        assert t.entry(LIMIT, p, q) == want, (p, q)
    _verdict(4, f"6 bases x s in {{1,2}} x 4 pages, {checks} identities; R (+) h3 limit exact")


def test_criterion_5_top_degree_forms(catalog_tables, random_algebras_dim7):
    """d vanishes on (m-1)-forms; exact (m-1)-forms = divisible ones."""
    count = 0
    for e, algebra, comp, table in catalog_tables.values():
        rep = check_top_degree_forms(comp)
        assert rep.ok, (e.id, rep.violations)
        count += 1
    for algebra in random_algebras_dim7:
        rep = check_top_degree_forms(spectral.complex_for(algebra))
        assert rep.ok, (lie.to_salamon(algebra), rep.violations)
        count += 1
    _verdict(5, f"{count} algebras pass both top-degree statements")


def _omega(s, m):
    """Twice the witness sum_{i=2}^{2s-1} (-1)^i/2 e^i ^ e^(2s+1-i), as an
    integer coordinate row of Lambda^2."""
    total = [0] * comb(m, 2)
    for i in range(2, 2 * s):
        sign, idx = sort_indices((i, 2 * s + 1 - i))
        total[index_positions(m, 2)[idx]] += sign * (-1) ** i
    return total


def test_criterion_6_filiform_family():
    """Degree-2 limit row of the filiform family, the survivor witnesses,
    and the even-dimension non-degeneration example.

    Each witness survives at exactly one filtration position,
    p = m - 2s + 1, matching the parity pattern of the degree-2 row.
    """
    for m in range(4, 11):
        algebra = lie.m0(m)
        c = spectral.complex_for(algebra)
        k = c.k
        # the closed-form degree-2 row
        assert page_entry(c, 0, 2, LIMIT).dim == (1 if m % 2 == 0 else 2), m
        for p in range(1, m - 1):
            want = 0 if (p - m) % 2 == 0 else 1
            assert page_entry(c, p, 2 - p, LIMIT).dim == want, (m, p)
        # witnesses: closed, non-exact, surviving at exactly one p
        exact_two_forms = image(positional_d(c, 1), Subspace.full(c.m))
        for s in range(2, (m + 1) // 2 + 1):
            w = _omega(s, m)
            assert not any(apply(positional_d(c, 2), w)), (m, s)
            assert not contains(exact_two_forms, span([w], comb(m, 2))), (m, s)
            landing = [p for p in range(k) if limit_class_nonzero(c, p, 2, w)]
            assert landing == [m - 2 * s + 1], (m, s, landing)
    for half in range(2, 6):
        m = 2 * half
        c = spectral.complex_for(lie.m0(m))
        early = page_entry(c, 0, 2, half - 1)
        assert early.dim >= 2, m
        assert page_entry(c, 0, 2, LIMIT).dim == 1, m
    _verdict(6, "m = 4..10 degree-2 rows, witness landings, and the even-m "
                "non-degeneration gap (page m/2 - 1 vs limit) all exact")


def test_criterion_7_census():
    assert catalog.distinct_table_census(5) == (8, 6)
    assert catalog.distinct_table_census(6) == (33, 15)
    # the published pair with equal Betti numbers but different limit tables
    a, b = catalog.get_entry("dim6-16"), catalog.get_entry("dim6-17")
    assert a.golden_betti == b.golden_betti and a.golden_limit != b.golden_limit
    _verdict(7, "census (8,6) and (33,15); Betti/table witness pair dim6-16/17")


def test_criterion_8_oracle_equivalence(catalog_tables, random_algebras_dim5):
    """Derivation-rule differentials equal the pointwise multilinear form;
    page-0 machinery equals the binomial closed form."""
    algebras = [algebra for e, algebra, comp, table in catalog_tables.values()
                if e.dim <= 5]
    assert len(algebras) == 11
    algebras += random_algebras_dim5
    matrices = 0
    for algebra in algebras:
        comp = spectral.complex_for(algebra)
        for q in range(algebra.m + 1):
            oracle = pointwise_differential(algebra.m, comp.adapted_constants, q)
            assert map_key(oracle) == map_key(positional_d(comp, q))
            matrices += 1
        for p in range(comp.k):
            for deg in range(comp.m + 1):
                assert page_entry(comp, p, deg - p, 0).dim == page0_closed_form(comp, p, deg)
    _verdict(8, f"{matrices} differential matrices match the pointwise oracle; "
                f"page-0 closed form exact on {len(algebras)} algebras")


def test_criterion_9_degeneration_bound(catalog_tables, random_algebras_dim7):
    """Grids at r = k, k+1, k+2 all equal the limit grid."""
    algebras = [(e.id, comp, table.limit)
                for e, algebra, comp, table in catalog_tables.values()]
    for m in range(3, 8):
        comp = spectral.complex_for(lie.m0(m))
        algebras.append((f"m0({m})", comp, page_grid(comp, LIMIT)))
    for algebra in random_algebras_dim7:
        comp = spectral.complex_for(algebra)
        algebras.append((lie.to_salamon(algebra), comp, page_grid(comp, LIMIT)))
    for name, comp, limit in algebras:
        for r in (comp.k, comp.k + 1, comp.k + 2):
            assert page_grid(comp, r) == limit, (name, r)
    _verdict(9, f"{len(algebras)} algebras degenerate by page k (checked at k, k+1, k+2)")
