"""The names the benchmark's tracer wraps still exist.

``bench/tracing.py`` replaces module-level names of the package with timing
wrappers and reads a few more attributes after a pass.  A name it cannot find
makes its metric read null, so a rename in the package must show up here.
"""

import importlib.util
from pathlib import Path

from nilspec import exterior, lie, spectral

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("nilspec_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracing = _load_tracing()
    missing = [f"{b.module}.{b.attr}" for b in tracing.BOUNDARIES
               if not callable(getattr(tracing.MODULES[b.module], b.attr, None))]
    assert not missing
    assert callable(spectral.complex_for.cache_info)


def test_differential_columns_returns_sparse_entry_lists():
    c = spectral.complex_for(lie.m0(4))
    for q in range(c.m + 1):
        columns = exterior.differential_columns(c.m, c.adapted_constants, q)
        assert isinstance(columns, dict)
        for col, entries in columns.items():
            assert isinstance(col, int) and isinstance(entries, dict)
            assert all(isinstance(key, int) and isinstance(v, int) and v for key, v in entries.items())
    assert sum(len(e) for e in exterior.differential_columns(c.m, c.adapted_constants, 1).values()) > 0


def test_differential_columns_are_the_complex_columns_at_level_zero(catalog_tables):
    # the traced exterior.d_nnz counts the entries of the complex's own differentials
    complexes = [comp for _, _, comp, _ in catalog_tables.values()]
    complexes += [spectral.complex_for(lie.m0(m)) for m in range(3, 11)]
    for c in complexes:
        full = (1 << c.m) - 1
        for q in range(c.m + 1):
            level_zero = {src & full: {key & full: v for key, v in col.items()} for src, col in c.columns[q].items()}
            assert exterior.differential_columns(c.m, c.adapted_constants, q) == level_zero, (c.m, q)
