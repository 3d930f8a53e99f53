"""Catalog data integrity and the published-table comparisons."""

import json

import pytest

from nilspec import catalog, cli, lie, spectral
from nilspec.catalog import distinct_table_census, get_entry, golden_check
from reference import cell_walk_golden_check


def test_entry_counts_by_dimension(catalog_entries):
    assert len(catalog.list_entries(3)) == 1
    assert len(catalog.list_entries(4)) == 2
    assert len(catalog.list_entries(5)) == 8
    assert len(catalog.list_entries(6)) == 33
    assert len(catalog_entries) == 44


def test_dim3_listing():
    assert [e.id for e in catalog.list_entries(3)] == ["dim3-h3"]


def test_every_salamon_parses_and_is_nilpotent(catalog_entries):
    for e in catalog_entries:
        a = e.algebra()
        assert a.m == e.dim
        f = lie.validate_algebra(a)
        assert f.spaces[-1].dim == a.m and f.series_dims[-1] == 0


def test_grid_shapes_match_nilpotency_index(catalog_tables):
    # printed tables have k rows and m+1 columns
    for e, algebra, comp, table in catalog_tables.values():
        for grid in e.golden_pages.values():
            assert len(grid) == comp.k
            assert all(len(row) == comp.m + 1 for row in grid)


SUSPECT_NOTES = {
    "dim5-3": ["suspect cell page 1 [2][1]: printed 1, engine 2"],
    "dim6-2": ["suspect cell page 1 [4][5]: printed 5, engine 2"],
    "dim6-4": ["suspect cell page 1 [4][4]: printed 2, engine 3"],
    "dim6-25": ["suspect cell page 0 [2][2]: printed 4, engine 5",
                "suspect cell page 0 [2][5]: printed 4, engine 5"],
    "dim6-26": ["suspect cell page 0 [2][5]: printed 4, engine 5"],
}


def test_golden_check_all_entries(catalog_tables, capsys):
    notes = {}
    for e, algebra, comp, table in catalog_tables.values():
        report, suspects = golden_check(e, table)
        assert report.ok, (e.id, report.violations)
        if suspects:
            notes[e.id] = list(suspects)
    assert notes == SUSPECT_NOTES
    assert cli.main(["catalog", "--check", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["id"]: r["notes"] for r in reports if r["notes"]} == SUSPECT_NOTES


def _with_grids(table, grids, r0=None):
    """``table`` whose page r reads grids[r] (lists of rows) for each r given, and optionally another r0."""
    pages = {**table.pages, **{r: tuple(map(tuple, grid)) for r, grid in grids.items()}}
    return table._replace(pages=pages, r0=table.r0 if r0 is None else r0)


def test_golden_check_equals_the_cell_walk(catalog_tables, rng_factory):
    """The whole-page comparison gives the report, the suspect notes and the
    check count of a walk over every cell: on every entry's table, with one
    cell per stored page raised by 1 (at random cells and at each suspect
    cell), with each suspect cell set to its printed value, with r0 above the
    printed limit page, and it raises the same error on a page of another shape."""
    rng = rng_factory(0x60D)
    failed = noted = 0
    for e, _, _, table in catalog_tables.values():
        grid = {r: [list(row) for row in table.grid(r)] for r in e.golden_pages}
        tables = [table, table._replace(r0=e.golden_limit_page + 1)]
        for _ in range(3):
            raised = {r: [list(row) for row in g] for r, g in grid.items()}
            for g in raised.values():
                g[rng.randrange(len(g))][rng.randrange(len(g[0]))] += 1
            tables.append(_with_grids(table, raised))
        for r, row, col in sorted(e.suspect_cells):
            raised, printed = [list(x) for x in grid[r]], [list(x) for x in grid[r]]
            raised[row][col] += 1
            printed[row][col] = e.golden_pages[r][row][col]
            tables += [_with_grids(table, {r: raised}), _with_grids(table, {r: printed})]
        for t in tables:
            report, suspects = got = golden_check(e, t)
            assert got == cell_walk_golden_check(e, t), e.id
            failed += not report.ok
            noted += bool(suspects)
        wide = _with_grids(table, {r: [row + [0] for row in g] for r, g in grid.items()})
        with pytest.raises(catalog.CatalogFormatError) as engine:
            golden_check(e, wide)
        with pytest.raises(catalog.CatalogFormatError) as walk:
            cell_walk_golden_check(e, wide)
        assert str(engine.value) == str(walk.value), e.id
    assert failed >= 44 * 4 and noted >= 20, (failed, noted)


def test_r0_never_exceeds_printed_marker(catalog_tables):
    for e, algebra, comp, table in catalog_tables.values():
        assert table.r0 <= e.golden_limit_page, e.id


def test_spec_quoted_cells():
    # a few rows quoted directly from the published tables
    assert get_entry("dim6-24").golden_limit[1] == (0, 0, 8, 12, 8, 3, 1)
    assert get_entry("dim5-8").golden_pages[2][0] == (1, 4, 5, 0, 0, 0)
    e41 = get_entry("dim4-1")
    assert e41.golden_pages[0] == ((1, 3, 3, 1, 0), (0, 1, 3, 3, 1))
    assert e41.golden_pages[2] == ((1, 3, 2, 0, 0), (0, 0, 2, 3, 1))


def test_census():
    assert distinct_table_census(5) == (8, 6)
    assert distinct_table_census(6) == (33, 15)
    assert distinct_table_census(3) == (1, 1)
    with pytest.raises(ValueError):
        distinct_table_census(7)


def test_betti_vs_table_witness():
    a, b = get_entry("dim6-16"), get_entry("dim6-17")
    assert a.golden_betti == b.golden_betti == (1, 3, 5, 6, 5, 3, 1)
    assert a.golden_limit != b.golden_limit


def test_golden_betti_is_column_sums():
    e = get_entry("dim3-h3")
    assert e.golden_betti == (1, 2, 2, 1)


def test_declared_decompositions(catalog_entries):
    declared = {e.id: e.decomposition for e in catalog_entries if e.decomposition}
    assert declared == {
        "dim4-1": (1, "dim3-h3"),
        "dim5-5": (1, "dim4-2"),
        "dim5-7": (2, "dim3-h3"),
        "dim6-12": (1, "dim5-1"),
        "dim6-13": (1, "dim5-2"),
        "dim6-17": (1, "dim5-3"),
        "dim6-26": (2, "dim4-2"),
        "dim6-31": (1, "dim5-6"),
        "dim6-32": (1, "dim5-8"),
        "dim6-33": (3, "dim3-h3"),
    }


def test_decomposed_entries_match_direct_sums(catalog_tables):
    # the table of R^s (+) base equals the table of the catalog entry itself
    for e, algebra, comp, table in catalog_tables.values():
        if not e.decomposition:
            continue
        s, base_id = e.decomposition
        base = get_entry(base_id).algebra()
        rebuilt = spectral.table_for(lie.direct_sum(lie.abelian(s), base))
        assert rebuilt.limit == table.limit, e.id
        assert rebuilt.r0 == table.r0, e.id


def test_decomposition_identities_at_stored_pages(catalog_tables):
    for e, algebra, comp, table in catalog_tables.values():
        if not e.decomposition:
            continue
        s, base_id = e.decomposition
        base = get_entry(base_id).algebra()
        for rep in spectral.check_abelian_extension(base, sorted(e.golden_pages) + [spectral.LIMIT], s=s):
            assert rep.ok, (e.id, rep.name, rep.violations)


def test_get_entry_unknown():
    with pytest.raises(KeyError):
        get_entry("dim9-1")
