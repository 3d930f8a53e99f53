"""Page entries, limit terms, tables and the structural checkers."""

import copy
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, zip_longest
from math import comb, gcd

import pytest

from conftest import sheared
from nilspec import catalog, exterior, lie, linalg, spectral
from nilspec.linalg import Subspace
from nilspec.spectral import (
    LIMIT,
    InternalConsistencyError,
    check_top_degree_forms,
    check_limit_edges,
    check_abelian_extension,
    full_table,
    require_poincare_duality,
    table_for,
)
from reference import (a_space, betti_numbers, ends_cube_table, entry_check_abelian_extension, entry_check_limit_edges,
                       lambda_subspace, page0_closed_form, page_entry, page_grid, positional_d,
                       span_check_top_degree_forms)


def _c(text):
    return spectral.complex_for(lie.parse_salamon(text))


# ---------------------------------------------------------------------------
# A-spaces
# ---------------------------------------------------------------------------

def test_a_space_with_deep_target_is_whole_domain():
    c = _c("(0,0,12,13)")
    # r <= 0 pushes the target level above the domain level: no constraint
    for p in range(c.k):
        for q in range(0, 3):
            assert a_space(c, p, q, 0).dim == lambda_subspace(c, p + q, c.k - p).dim


def test_a_space_abelian_everything_closed():
    c = _c("(0,0,0,0)")
    for q in range(5):
        for r in range(4):
            assert a_space(c, 0, q, r) == lambda_subspace(c, q, 1)


def test_a_space_heisenberg_two_forms():
    # every 2-form on the 3-dimensional Heisenberg algebra is closed
    c = _c("(0,0,12)")
    assert a_space(c, 0, 2, 1).dim == 3


def test_a_space_out_of_band_degrees():
    c = _c("(0,0,12)")
    assert a_space(c, 0, -2, 1).dim == 0
    assert a_space(c, 2, 5, 1).dim == 0


# ---------------------------------------------------------------------------
# page entries against the published Heisenberg values
# ---------------------------------------------------------------------------

def test_heisenberg_second_page_entries():
    c = _c("(0,0,12)")
    expected = {(1, -1): 1, (1, 0): 2, (0, 2): 2, (0, 3): 1}
    for p in range(-1, 3):
        for deg in range(-1, 5):
            q = deg - p
            want = expected.get((p, q), 0)
            assert page_entry(c, p, q, 2).dim == want, (p, q)


def test_abelian_every_page_binomial():
    c = _c("(0,0,0,0,0)")
    for r in range(4):
        for q in range(6):
            assert page_entry(c, 0, q, r).dim == comb(5, q)


def test_filiform4_second_page_rows():
    c = _c("(0,0,12,13)")
    rows = {2: [1, 2, 0, 0, 0], 1: [0, 0, 1, 0, 0], 0: [0, 0, 1, 2, 1]}
    for p, row in rows.items():
        for deg, want in enumerate(row):
            assert page_entry(c, p, deg - p, 2).dim == want


def test_entries_vanish_outside_band(random_algebras_dim7):
    for a in random_algebras_dim7[:6]:
        c = spectral.complex_for(a)
        probes = [(-1, 2), (c.k, 1 - c.k), (c.k + 2, 0), (0, -1), (0, c.m + 1)]
        for (p, q) in probes:
            for r in (0, 1, c.k, c.k + 3):
                assert page_entry(c, p, q, r).dim == 0
            assert page_entry(c, p, q, LIMIT).dim == 0


def test_audit_trail_dimensions():
    c = _c("(0,0,12)")
    e = page_entry(c, 0, 2, 2)
    assert e.dim == e.numerator_dim - e.denominator_dim
    assert e.dim == 2 and e.numerator_dim == 3


# ---------------------------------------------------------------------------
# limit entries
# ---------------------------------------------------------------------------

def test_limit_edge_values(random_algebras_dim7):
    for a in random_algebras_dim7[:8]:
        c = spectral.complex_for(a)
        assert page_entry(c, c.k - 1, 1 - c.k, LIMIT).dim == 1
        assert page_entry(c, 0, c.m, LIMIT).dim == 1
        assert page_entry(c, c.k - 1, 2 - c.k, LIMIT).dim == c.v_dims[1]


def test_limit_equals_page_at_k(random_algebras_dim7):
    for a in random_algebras_dim7[:6]:
        c = spectral.complex_for(a)
        for p in range(c.k):
            for deg in range(c.m + 1):
                lim = page_entry(c, p, deg - p, LIMIT)
                for r in (c.k, c.k + 1, c.k + 2):
                    assert page_entry(c, p, deg - p, r).dim == lim.dim


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_full_table_heisenberg():
    t = table_for(lie.parse_salamon("(0,0,12)"))
    assert t.pages[0] == ((1, 2, 1, 0), (0, 1, 2, 1))
    assert t.pages[1] == t.pages[0]
    assert t.limit == ((1, 2, 0, 0), (0, 0, 2, 1))
    assert t.r0 == 2
    assert t.betti == (1, 2, 2, 1)


def test_full_table_dim6_entry_one():
    t = table_for(lie.parse_salamon("(0,0,12,13,14+23,34+52)"))
    assert t.r0 == 3
    assert t.betti == (1, 2, 2, 2, 2, 2, 1)
    assert t.limit == (
        (1, 2, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 1, 0, 0, 0),
        (0, 0, 0, 1, 2, 2, 1),
    )


def test_abelian_table_r0_zero():
    t = table_for(lie.abelian(4))
    assert t.r0 == 0
    assert t.limit == ((1, 4, 6, 4, 1),)


def test_complex_for_keeps_only_the_latest_complex():
    # a library loop over many algebras holds one complex at a time
    table_for(lie.m0(5))
    table_for(lie.m0(6))
    info = spectral.complex_for.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)


def test_pages_past_r0_read_as_limit():
    t = table_for(lie.parse_salamon("(0,0,12)"))
    assert set(t.pages) == {0, 1, 2}
    assert t.grid(3) == t.grid(4) == t.limit


def test_pages_monotone_nonincreasing(random_algebras_dim7):
    for a in random_algebras_dim7[:8]:
        t = table_for(a)
        rs = sorted(t.pages)
        for r1, r2 in zip(rs, rs[1:]):
            for row1, row2 in zip(t.pages[r1], t.pages[r2]):
                assert all(x >= y for x, y in zip(row1, row2))


def test_convergence_and_poincare(random_algebras_dim7):
    for a in random_algebras_dim7[:10]:
        t = table_for(a)
        for i in range(t.m + 1):
            assert sum(row[i] for row in t.limit) == t.betti[i]
            assert t.betti[i] == t.betti[t.m - i]


def test_page0_closed_form(random_algebras_dim7):
    for a in random_algebras_dim7[:8]:
        c = spectral.complex_for(a)
        for p in range(c.k):
            for deg in range(c.m + 1):
                assert page_entry(c, p, deg - p, 0).dim == page0_closed_form(c, p, deg)


def test_r0_bounded_by_nilpotency_index(random_algebras_dim7):
    for a in random_algebras_dim7:
        t = table_for(a)
        assert 0 <= t.r0 <= t.k


# r0 = 5 > ceil(8/2): a seeded random draw of dimension 8 with integer constants
BEYOND_HALF = "(0,0,12,-23,12+24,0,-16-23-25+26,-24+26+27+36)"
# r0 = 6 > ceil(9/2): draw 46 (0-based) of conftest.random_nilpotent(random.Random(11), 9),
# shrunk greedily (terms dropped, coefficients set to +-1 and basis forms rescaled
# while the Jacobi identity, nilpotency and r0 > ceil(m/2) held) to integer constants
BEYOND_HALF_9 = ("(0,0,-2*12,-4*12-4*23,-4*12-2*24,-2*25,-4*13-2*24-2*26,14+15+2*27+34,"
                 "-3*15+2*17-3*27-2*28-4*34+35+2*36-45)")


def _pages_match_the_reference(text):
    """The table of ``text``, after checking that its pages equal the
    A-space quotient on every page 0..r0+1 and on the limit."""
    a = lie.parse_salamon(text)
    t = table_for(a)
    assert t.r0 > (t.m + 1) // 2
    c = _fresh_complex(a)
    for r in range(t.r0 + 2):
        assert t.grid(r) == page_grid(c, r), r
    assert t.limit == page_grid(c, LIMIT)
    return t


def test_degeneration_page_beyond_half_the_dimension():
    """An algebra whose sequence degenerates after page ceil(m/2): the
    engine's pages equal the A-space quotient on every page 0..r0+1 and on
    the limit."""
    t = _pages_match_the_reference(BEYOND_HALF)
    assert (t.m, t.k, t.r0, list(t.betti)) == (8, 6, 5, [1, 3, 5, 8, 10, 8, 5, 3, 1])


def test_degeneration_page_beyond_half_the_dimension_nine():
    t = _pages_match_the_reference(BEYOND_HALF_9)
    assert (t.m, t.k, t.r0, list(t.betti)) == (9, 8, 6, [1, 2, 3, 6, 8, 8, 6, 3, 2, 1])


# ---------------------------------------------------------------------------
# the persistence pairing against the closed form and independent invariants
# ---------------------------------------------------------------------------

def _fresh_complex(a):
    """The complex of ``a``, built outside the ``complex_for`` cache."""
    return spectral.build_complex(a)


def _heisenberg(n):
    """The Heisenberg algebra h_(2n+1)."""
    m = 2 * n + 1
    return lie.LieAlgebra(m, {(2 * i - 1, 2 * i, m): 1 for i in range(1, n + 1)}, label=f"h{m}")


def _pairing_algebras(catalog_tables, random_algebras_dim7, twins_dim7):
    algebras = [(e.id, algebra) for e, algebra, _, _ in catalog_tables.values()]
    algebras += [(f"m0({m})", lie.m0(m)) for m in range(3, 12)]
    for a, twin in zip(random_algebras_dim7, twins_dim7):
        name = lie.to_salamon(a)
        algebras += [(name, a), (f"{name} reversed", twin)]
    return algebras


def test_pairing_equals_quotient_cell_by_cell(catalog_tables, random_algebras_dim7, twins_dim7):
    algebras = _pairing_algebras(catalog_tables, random_algebras_dim7, twins_dim7)
    transformed = 0
    for name, a in algebras:
        c = _fresh_complex(a)
        t = full_table(c)
        for r in range(t.r0 + 1):
            assert t.pages[r] == page_grid(c, r), (name, r)
        assert t.limit == page_grid(c, LIMIT), name
        transformed += c.adapted_basis_change != Subspace.full(c.m).rows
    assert len(algebras) == 44 + 9 + 2 * 50
    assert transformed >= 40  # the adapted basis change is exercised


def _reference_bars(c, n):
    """The pairing on positional maps: the columns of d_n reduced in
    (level, position) order with row key level * size + position, and the
    content divided out after every addition."""
    src, dst = ([max((c.levels[j - 1] for j in idx), default=1) for idx in combinations(range(1, c.m + 1), q)]
                for q in (n, n + 1))
    size = len(dst)
    columns = positional_d(c, n).columns
    pivots = {}
    bars = []
    for j in sorted(columns, key=lambda j: (src[j], j)):
        col = {dst[i] * size + i: v for i, v in columns[j].items()}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                bars.append((src[j], low // size))
                break
            g = gcd(col[low], other[low])
            a, b = other[low] // g, col[low] // g
            if a != 1:
                col = {i: a * v for i, v in col.items()}
            for i, v in other.items():
                w = col.get(i, 0) - b * v
                if w:
                    col[i] = w
                else:
                    del col[i]
            g = gcd(*col.values())
            if g > 1:
                col = {i: v // g for i, v in col.items()}
    return bars


def test_pairing_equals_positional_reference(catalog_tables, random_algebras_dim7, twins_dim7):
    algebras = [algebra for _, algebra, _, _ in catalog_tables.values()]
    algebras += [lie.m0(m) for m in range(3, 13)]
    algebras += [b for pair in zip(random_algebras_dim7, twins_dim7) for b in pair]
    assert len(algebras) == 44 + 10 + 2 * 50
    rational = transformed = 0
    for a in algebras:
        c = _fresh_complex(a)
        for n in range(c.m):
            assert spectral._bars(c, n) == _reference_bars(c, n), (lie.to_salamon(a), n)
        if any(abs(v) != 1 for col in c.columns for entries in col.values() for v in entries.values()):
            # only non-unit coefficients tell lazy content from dividing after
            # every addition; the catalog's complexes have none
            rational += any(x.denominator != 1 for x in a.c.values())
            transformed += c.adapted_basis_change != Subspace.full(c.m).rows
    assert rational >= 40 and transformed >= 40, (rational, transformed)


def test_pairing_invariants(catalog_tables, random_algebras_dim7, twins_dim7):
    """Euler characteristic 0 on every page, the limit-edge identities and
    r0 <= k, none of them through the A-spaces (full_table itself raises on
    a Betti tuple that violates Poincare duality)."""
    for name, a in _pairing_algebras(catalog_tables, random_algebras_dim7, twins_dim7):
        c = spectral.complex_for(a)
        t = full_table(c)
        for r, grid in [*t.pages.items(), (LIMIT, t.limit)]:
            chi = sum((-1) ** deg * x for row in grid for deg, x in enumerate(row))
            assert chi == 0, (name, r)
        assert check_limit_edges(t, c).ok, name
        assert 0 <= t.r0 <= t.k, name


def _pivots_as_read(c, n):
    """The columns of d_n, as read, whose low is no earlier column's low after
    reduction: the ones ``_bars`` makes pivots without adding another column
    to them.  The reduction runs over Q, apart from ``_bars``."""
    pivots, kept = {}, []
    for src in sorted(c.columns[n]):
        read = c.columns[n][src]
        if max(read) not in pivots:
            kept.append(read)
        col = {i: Fraction(v) for i, v in read.items()}
        while col and (low := max(col)) in pivots:
            f = col[low]
            for i, v in pivots[low].items():
                col[i] = col.get(i, 0) - f * v
            col = {i: v for i, v in col.items() if v}
        if col:
            low = max(col)
            pivots[low] = {i: v / col[low] for i, v in col.items()}
    return kept


def test_full_table_writes_no_column(catalog_tables, random_algebras_dim7, twins_dim7, rng_factory):
    """``_bars`` keeps pivots that are the dicts of ``c.columns`` themselves,
    so ``full_table(c)`` must write into none of them: afterwards
    ``c.columns`` equals a deep copy taken before and
    ``check_top_degree_forms(c)`` gives the same report.  The catalog,
    m0(3..12), the dimension <= 7 fixtures and their twins, and sheared
    catalog entries and m0(3..9), whose pivots include lows other than +-1:
    columns stored as read and columns divided by their content both occur."""
    rng = rng_factory(0xC0117)
    catalog_algebras = [a for _, a, _, _ in catalog_tables.values()]
    algebras = catalog_algebras + [lie.m0(m) for m in range(3, 13)]
    algebras += [b for pair in zip(random_algebras_dim7, twins_dim7) for b in pair]
    algebras += [sheared(a, rng) for a in [*catalog_algebras, *(lie.m0(m) for m in range(3, 10))]]
    as_read = divided = 0
    for a in algebras:
        c = _fresh_complex(a)
        before, report = copy.deepcopy(c.columns), check_top_degree_forms(c)
        full_table(c)
        assert c.columns == before, lie.to_salamon(a)
        assert check_top_degree_forms(c) == report, lie.to_salamon(a)
        for n in range(c.m):
            for col in _pivots_as_read(c, n):
                if col[max(col)] in (1, -1) or gcd(*col.values()) == 1:
                    as_read += 1
                else:
                    divided += 1
    assert as_read > 1000 and divided > 100, (as_read, divided)


def test_pairing_betti_equals_rank_nullity_on_large_filiform():
    for m in (12, 13):
        c = _fresh_complex(lie.m0(m))
        assert full_table(c).betti == betti_numbers(c), m


@cache
def _gaussian_binomial(n, j):
    """Coefficients of the Gaussian binomial [n choose j]_q, constant term
    first, by the q-Pascal rule [n, j] = [n-1, j-1] + q^j [n-1, j]."""
    if j < 0 or j > n:
        return (0,)
    if j in (0, n):
        return (1,)
    lower, shifted = _gaussian_binomial(n - 1, j - 1), (0,) * j + _gaussian_binomial(n - 1, j)
    return tuple(x + y for x, y in zip_longest(lower, shifted, fillvalue=0))


def test_filiform_betti_numbers_match_gaussian_binomials():
    # Armstrong-Cairns-Jessup (Proc. AMS 125, 1997): b_n(m0(m)) = c(n) + c(n-1),
    # c(n) the middle coefficient, of q^floor(n(m-1-n)/2), of [m-1 choose n]_q
    # E_1: the row at level 1 is (1, 2, 1, 0, ...), and the row at level L >= 2
    # has b_(n-1)(m0(L)) in column n, m0(2) read as R^2, since gr_L is
    # e^(L+1) ^ Lambda V_(L-1) and d_0 there is the differential of m0(L)
    betti = {2: (1, 2, 1)}
    for m in range(3, 17):
        c = [_gaussian_binomial(m - 1, n)[n * (m - 1 - n) // 2] for n in range(m)] + [0]
        betti[m] = tuple(c[n] + c[n - 1] for n in range(m + 1))  # the 0 appended is c(m) and, as c[-1], c(-1)
        table = full_table(_fresh_complex(lie.m0(m)))
        assert table.betti == betti[m], m
        e1 = [(1, 2, 1) + (0,) * (m - 2)] + [(0,) + betti[level] + (0,) * (m - level - 1) for level in range(2, m)]
        assert table.grid(1) == tuple(e1), m


def test_heisenberg_betti_numbers_match_santharoubane():
    # Santharoubane (1983): b_i(h_(2n+1)) = C(2n, i) - C(2n, i-2) for i <= n,
    # and b_(2n+1-i) = b_i
    for n in range(1, 8):
        m = 2 * n + 1
        low = [comb(2 * n, i) - (comb(2 * n, i - 2) if i >= 2 else 0) for i in range(n + 1)]
        table = full_table(_fresh_complex(_heisenberg(n)))
        assert table.betti == tuple(low + low[::-1]), m
        assert table.r0 == 2 and table.grid(0) == table.grid(1), m  # every bar has gap 1


def test_table_builds_no_positional_map():
    # in a fresh interpreter: the table path and catalog --check, top-degree
    # check included, read the key columns only and relabel nothing
    script = ("import contextlib, io\n"
              "from nilspec import catalog, cli, exterior, lie, spectral\n"
              "relabelled = []\n"
              "def counting(m, columns):\n"
              "    relabelled.append(m)\n"
              "    return positional(m, columns)\n"
              "positional = exterior.positional_columns\n"
              "exterior.positional_columns = counting\n"
              "spectral.table_for(lie.m0(12))\n"
              "c = spectral.complex_for(lie.m0(12))\n"
              "print(int(hasattr(c, 'd')), len(relabelled))\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(['catalog', '--check'])\n"
              "entries = catalog.list_entries()\n"
              "print(code, sum(hasattr(spectral.complex_for(e.algebra()), 'd') for e in entries),\n"
              "      len(relabelled))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "0", "0", "0", "0"]
    assert not hasattr(spectral, "positional_columns")
    assert not hasattr(exterior, "mask_positions") and not hasattr(exterior, "multi_indices")
    # nor do the helpers that only tests called come back to the package
    assert not hasattr(linalg, "kernel") and not hasattr(Subspace, "contains_vector")
    assert not hasattr(linalg.LinearMap, "apply") and not hasattr(linalg.LinearMap, "is_zero")
    # nor do the shape and entry-type checks of the subspace calculus, whose callers build every map from a complex
    checks = ("_integer_row", "_check_same_ambient", "_check_domain", "DimensionMismatchError")
    assert [name for name in checks if hasattr(linalg, name)] == []
    assert not hasattr(catalog, "betti_vs_table_witness")
    # nor do the dense views of rows and constants
    assert not hasattr(Subspace, "basis") and not hasattr(lie.LieAlgebra, "brackets")


def test_delta_assembly_equals_ends_cube(catalog_tables, random_algebras_dim7, twins_dim7):
    algebras = [algebra for _, algebra, _, _ in catalog_tables.values()]
    algebras += [lie.direct_sum(lie.abelian(1), algebra) for e, algebra, _, _ in catalog_tables.values()
                 if e.dim <= 5]
    algebras += [lie.m0(m) for m in range(3, 15)]
    algebras += [b for pair in zip(random_algebras_dim7, twins_dim7) for b in pair]
    algebras += [_heisenberg(n) for n in range(1, 5)]
    assert len(algebras) == 44 + 11 + 12 + 2 * 50 + 4
    for a in algebras:
        c = spectral.complex_for(a)
        assert full_table(c) == ends_cube_table(c), lie.to_salamon(a)


def test_bar_outside_the_gap_range_is_an_engine_bug(monkeypatch):
    c = _fresh_complex(lie.parse_salamon("(0,0,12,13)"))
    bars = spectral._bars
    # a bar that raises the level, and one of gap k
    for bad in [(1, 2), (c.k + 1, 1)]:
        monkeypatch.setattr(spectral, "_bars", lambda c, n, bad=bad: bars(c, n) + [bad] * (n == 1))
        with pytest.raises(InternalConsistencyError, match="bar of d_1"):
            full_table(c)


def test_duality_check_rejects_non_palindromic_betti(monkeypatch):
    require_poincare_duality((1, 2, 2, 1))
    with pytest.raises(InternalConsistencyError, match="Poincare duality"):
        require_poincare_duality((1, 2, 3, 1))
    # a pairing that loses a bar of d_1 breaks duality, and full_table says so
    bars = spectral._bars
    monkeypatch.setattr(spectral, "_bars", lambda c, n: bars(c, n)[n == 1:])
    with pytest.raises(InternalConsistencyError, match="Poincare duality"):
        full_table(_fresh_complex(lie.parse_salamon("(0,0,12,13)")))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def test_checkers_pass_on_catalog(catalog_tables):
    for e, algebra, comp, table in catalog_tables.values():
        assert check_limit_edges(table, comp).ok
        assert check_top_degree_forms(comp).ok


def test_check_limit_edges_counts_checks():
    t = table_for(lie.parse_salamon("(0,0,12)"))
    rep = check_limit_edges(t, spectral.complex_for(lie.parse_salamon("(0,0,12)")))
    assert rep.ok and rep.checks == 4 * t.k


def test_direct_sum_identities_h3():
    h3 = lie.parse_salamon("(0,0,12)")
    for s in (1, 2):
        reports = check_abelian_extension(h3, (0, 1, 2, LIMIT), s=s)
        assert [rep.name for rep in reports] == [f"abelian-extension s={s} r={r}"
                                                 for r in (0, 1, 2, "limit")]
        for rep in reports:
            assert rep.ok, rep.violations


def test_direct_sum_identities_abelian_base():
    [rep] = check_abelian_extension(lie.abelian(3), [LIMIT], s=1)
    assert rep.ok, rep.violations


def _tampered(t, cells, r0=None):
    """``t`` with each cell (page, row, column) raised by its delta, page
    LIMIT meaning the limit grid, and optionally another r0."""
    grids = {r: [list(row) for row in grid] for r, grid in [*t.pages.items(), (LIMIT, t.limit)]}
    for (r, row, col), delta in cells.items():
        grids[r][row][col] += delta
    frozen = {r: tuple(map(tuple, grid)) for r, grid in grids.items()}
    limit = frozen.pop(LIMIT)
    return t._replace(pages=frozen, limit=limit, r0=t.r0 if r0 is None else r0)


def test_check_limit_edges_reports_each_wrong_cell():
    h3 = lie.parse_salamon("(0,0,12)")
    c = spectral.complex_for(h3)
    t = table_for(h3)  # limit ((1, 2, 0, 0), (0, 0, 2, 1)), k = 2
    bad = _tampered(t, {(LIMIT, 1, 0): 1, (LIMIT, 0, 1): -1, (LIMIT, 0, 2): 1, (LIMIT, 1, 3): 1})
    rep = check_limit_edges(bad._replace(betti=(1, 2, 3, 1)), c)
    assert rep.checks == 8
    assert rep.violations == (
        "degree 0: e(0,0) = 1, expected 0",
        "degree m-1: e(0,2) = 2, expected 3",
        "degree m: e(0,3) = 2, expected 1",
        "degree 1: e(1,0) = 1, expected 2",
        "degree m-1: e(1,1) = 1, expected 0",
    )
    # a complex whose V_1 is one dimension too large: only degree 1 at p = k-1 notices
    c5 = _fresh_complex(lie.m0(5))
    c5.v_dims = (0, 3, 3, 4, 5)
    rep = check_limit_edges(table_for(lie.m0(5)), c5)
    assert rep.checks == 16
    assert rep.violations == ("degree 1: e(3,-2) = 2, expected 3",)


@pytest.mark.parametrize("s", [1, 2])
def test_check_abelian_extension_reports_each_wrong_cell(s, monkeypatch):
    h3 = lie.parse_salamon("(0,0,12)")
    real = spectral.table_for

    def table(a):
        t = real(a)
        if a.m == 3 + s:  # R^s (+) h3: one cell wrong on each page and the limit, r0 one too large
            return _tampered(t, {(0, 0, 0): 1, (1, 1, 3): 1, (2, 1, 4): -1, (LIMIT, 0, 1): -1}, r0=t.r0 + 1)
        if a.m == 2 + s:  # the base R^(s-1) (+) h3: one wrong cell of degree 1 on page 1
            return _tampered(t, {(1, 0, 1): 1})
        return t

    monkeypatch.setattr(spectral, "table_for", table)
    reports = check_abelian_extension(h3, (0, 1, 2, LIMIT), s=s)
    m = 3 + s
    assert [rep.checks for rep in reports] == [(m + 2) * 2 + 4] * 4
    # page 1: the base's extra degree-1 class shifts into degrees 1 and 2 of the expectation
    page1 = {1: ("degree 1 at p=1: got 3, expected 4", "degree 2 at p=1: got 3, expected 4",
                 "degree 3 at p=0: got 4, expected 3"),
             2: ("degree 1 at p=1: got 4, expected 5", "degree 2 at p=1: got 6, expected 7",
                 "degree 3 at p=0: got 7, expected 6")}
    degeneration = "degeneration page: got 3, expected 2"
    assert [rep.violations for rep in reports] == [
        ("degree 0 at p=1: got 2, expected 1", degeneration),
        (*page1[s], degeneration),
        (f"degree 4 at p=0: got {(s - 1) * 3}, expected {(s - 1) * 3 + 1}", degeneration),
        (f"degree 1 at p=1: got {s + 1}, expected {s + 2}", degeneration),
    ]


def _moved_cells(rng, t, count=1, r0=False):
    """``t`` with ``count`` seeded cells of a seeded page, or of the limit,
    each moved by +-1 (a cell drawn twice may move back), and r0 moved if asked."""
    r = rng.choice([*t.pages, LIMIT])
    cells = {(r, rng.randrange(t.k), rng.randrange(t.m + 1)): rng.choice([-1, 1]) for _ in range(count)}
    return _tampered(t, cells, r0=t.r0 + 1 if r0 else None)


def _one_row_more_or_less(t, more):
    """``t`` with a zero row above its top row, or without its top row: k one more or one less."""
    def grid(g):
        return ((0,) * (t.m + 1), *g) if more else g[1:]
    return t._replace(k=t.k + (1 if more else -1), pages={r: grid(g) for r, g in t.pages.items()},
                      limit=grid(t.limit))


def test_grid_checkers_equal_the_entry_checkers(catalog_tables, monkeypatch):
    """check_limit_edges and check_abelian_extension read the grids and format
    only the messages of failed checks; their reports (names, check counts
    and violations in order) equal those of the ``entry`` reference on the
    catalog and m0(3..9) for s = 1, 2, 3 at pages 0, 1 and the limit, and
    again on tables with one or three cells moved, r0 moved, or a base table
    with one row more or one row less than the extension's."""
    monkeypatch.setattr(spectral, "table_for", cache(spectral.table_for))  # both sides share the tables
    pages, rng = (0, 1, LIMIT), random.Random(0xC4EC)
    algebras = [a for _, a, _, _ in catalog_tables.values()] + [lie.m0(m) for m in range(3, 10)]
    failed = 0
    for h in algebras:
        c, t = spectral.complex_for(h), spectral.table_for(h)
        for table in (t, _moved_cells(rng, t), _moved_cells(rng, t, 3)._replace(betti=(*t.betti[:-2], 0, 1))):
            report = check_limit_edges(table, c)
            assert report == entry_check_limit_edges(table, c), lie.to_salamon(h)
            failed += not report.ok
        for s in (1, 2, 3):
            reports = check_abelian_extension(h, pages, s)
            assert reports == entry_check_abelian_extension(h, pages, s), (lie.to_salamon(h), s)
            assert all(report.ok for report in reports)
    real = spectral.table_for
    for h in algebras:
        if h.m > 6:
            continue
        for s in (1, 2, 3):
            kind = rng.randrange(4)

            def table(a):
                t = real(a)
                if a.m == h.m + s:  # the extension
                    return _moved_cells(rng, t, 1 + 2 * (kind == 0), r0=kind == 1) if kind < 2 else t
                if a.m == h.m + s - 1 and kind >= 2:  # the base
                    return _one_row_more_or_less(t, more=kind == 2)
                return t

            monkeypatch.setattr(spectral, "table_for", table)
            state = rng.getstate()
            reports = check_abelian_extension(h, pages, s)
            rng.setstate(state)  # the reference sees the same tampered tables
            assert reports == entry_check_abelian_extension(h, pages, s), (lie.to_salamon(h), s, kind)
            failed += sum(not report.ok for report in reports)
    assert failed > 100, failed


def test_check_top_degree_forms_reports_a_changed_column():
    c = _fresh_complex(lie.parse_salamon("(0,0,12)"))
    c.columns[1] = {22: {18: 1}}  # d e^3 = e^1 ^ e^3 (level 2, key 18) instead of e^1 ^ e^2 (key 9)
    rep = check_top_degree_forms(c)
    assert (rep.checks, rep.violations) == (2, ("exact (m-1)-forms have dim 1, divisible subspace dim 1",))
    c = _fresh_complex(lie.m0(5))
    first, *_, last = sorted(c.columns[3])
    c.columns[3][last] = dict(c.columns[3][first])  # two equal columns: the exact forms lose a dimension
    c.columns[4] = {next(iter(c.columns[3][first])): {4 << 5: 1}}  # d of a 4-form onto the 5-form (level 4)
    rep = check_top_degree_forms(c)
    assert (rep.checks, rep.violations) == (2, ("d is nonzero on (m-1)-forms",
                                                "exact (m-1)-forms have dim 2, divisible subspace dim 3"))


def _with_top_columns(c, columns):
    """A shallow copy of ``c`` whose d_(m-2) has the given key columns."""
    mutant = copy.copy(c)
    mutant.columns = [*c.columns[:c.m - 2], columns, *c.columns[c.m - 1:]]
    return mutant


def test_top_degree_check_equals_the_span_comparison(catalog_tables, random_algebras_dim7, rng_factory):
    """The rank and support test gives the report of comparing the canonical
    rows of the exact (m-1)-forms with ``divisibility_subspace``: on the
    catalog, m0(3..12), (0), (0,0), sheared copies and seeded random algebras,
    and on two mutants of each, one entry of d_(m-2) moved to an (m-1)-form
    outside the divisible support and one column of d_(m-2) dropped."""
    rng = rng_factory(0x70D)
    catalog_algebras = [a for _, a, _, _ in catalog_tables.values()]
    algebras = catalog_algebras + [lie.m0(m) for m in range(3, 13)] + [lie.parse_salamon(s) for s in ("(0)", "(0,0)")]
    algebras += [sheared(a, rng) for a in [*catalog_algebras, *(lie.m0(m) for m in range(3, 10))]]
    algebras += random_algebras_dim7
    failed = 0
    for a in algebras:
        c = _fresh_complex(a)
        complexes = [c]
        cols = c.columns[c.m - 2] if c.m >= 2 else {}
        if cols:
            src = rng.choice(sorted(cols))
            moved = dict(cols[src])
            key = rng.choice(sorted(moved))
            outside = key >> c.m << c.m | 1 << rng.randrange(c.m - c.v_dims[1], c.m)
            if total := moved.pop(key) + moved.get(outside, 0):
                moved[outside] = total
            else:
                del moved[outside]
            complexes += [_with_top_columns(c, {**cols, src: moved}),
                          _with_top_columns(c, {s: col for s, col in cols.items() if s != src})]
        for x in complexes:
            report = check_top_degree_forms(x)
            assert report == span_check_top_degree_forms(x), lie.to_salamon(a)
            failed += not report.ok
    assert failed > len(algebras), failed


def test_example_3_5_limit_values():
    t = table_for(lie.direct_sum(lie.abelian(1), lie.parse_salamon("(0,0,12)")))
    values = {(0, 0): 0, (1, -1): 1, (1, 0): 3, (0, 1): 0, (0, 2): 2,
              (1, 1): 2, (0, 3): 3, (1, 2): 0, (0, 4): 1}
    for (p, q), want in values.items():
        assert t.entry(LIMIT, p, q) == want, (p, q)


def test_table_entry_accessor_out_of_band():
    t = table_for(lie.parse_salamon("(0,0,12)"))
    assert t.entry(LIMIT, 5, 0) == 0
    assert t.entry(0, 0, 99) == 0
    with pytest.raises(KeyError):
        t.grid(1 - 10)
