"""The returned records: field order, keyword construction, immutability."""

import pytest

from nilspec import catalog, lie, spectral

RECORDS = [
    (lie.Filtration, ("k", "spaces", "series_dims")),
    (spectral.PageEntry, ("r", "p", "q", "dim", "numerator_dim", "denominator_dim")),
    (spectral.CheckReport, ("name", "checks", "violations")),
    (spectral.SpectralTable, ("m", "k", "pages", "limit", "betti", "r0")),
    (catalog.CatalogEntry, ("id", "salamon", "label", "decomposition", "golden_pages",
                            "golden_limit_page", "suspect_cells")),
    (catalog.CellMismatch, ("page", "row", "col", "stored", "computed", "suspect")),
    (catalog.GoldenReport, ("id", "mismatches", "r0_computed", "r0_bound_ok")),
]
IDS =[cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_field_order(cls, fields):
    assert cls._fields == fields


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_keywords_and_immutability(cls, fields):
    record = cls(**{name: i for i, name in enumerate(fields)})
    assert [getattr(record, name) for name in fields] == list(range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1)


def test_records_unpack_and_compare_by_fields():
    algebra = lie.parse_salamon("(0,0,12)")
    k, spaces, series_dims = algebra.filtration
    assert (k, series_dims) == (2, (3, 1, 0)) and len(spaces) == 3
    table = spectral.table_for(algebra)
    rebuilt = spectral.SpectralTable(m=table.m, k=table.k, pages=dict(table.pages),
                                     limit=table.limit, betti=table.betti, r0=table.r0)
    assert rebuilt == table and rebuilt.grid(None) == table.limit
    report = catalog.golden_check(catalog.get_entry("dim3-h3"), table)
    assert report.ok and report.r0_computed == table.r0
    with pytest.raises(AttributeError):
        table.r0 = 0
