"""Catalog data integrity and the published-table comparisons."""

import json

import pytest

from nilspec import catalog, cli, lie, spectral
from nilspec.catalog import distinct_table_census, get_entry, golden_check


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
