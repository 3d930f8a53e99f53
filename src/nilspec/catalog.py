"""Built-in catalog of nilpotent Lie algebras of dimension <= 6.

The catalog pairs every isomorphism class (1 + 2 + 8 + 33 entries) with its
published page tables, loaded from ``golden_tables.txt``.  Entry ids follow
"dim<N>-<item>" after the published numbering; the Heisenberg algebra is
"dim3-h3".  A handful of printed cells are transcription suspects: they are
stored exactly as printed, annotated with ``suspect`` records, and a golden
check reports (rather than fails) when the engine contradicts such a cell.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

from .lie import parse_salamon
from .spectral import Grid, SpectralTable


class CatalogEntry(NamedTuple):
    id: str
    salamon: str
    label: str | None
    decomposition: tuple[int, str] | None  # (s, base id) when entry is R^s (+) base
    golden_pages: dict[int, Grid]
    golden_limit_page: int
    suspect_cells: frozenset[tuple[int, int, int]]  # (page r, row from top, column)

    @property
    def dim(self) -> int:
        return len(next(iter(self.golden_pages.values()))[0]) - 1

    @property
    def golden_limit(self) -> Grid:
        return self.golden_pages[self.golden_limit_page]

    @property
    def golden_betti(self) -> tuple[int, ...]:
        return tuple(sum(row[i] for row in self.golden_limit)
                     for i in range(self.dim + 1))

    def algebra(self):
        return parse_salamon(self.salamon, label=self.label or self.id)


class CatalogFormatError(RuntimeError):
    """The golden data file is malformed."""


def _parse_golden(text: str) -> list[CatalogEntry]:
    entries: list[CatalogEntry] = []
    lines = text.splitlines()
    i = 0
    current: dict | None = None

    def finish() -> None:
        nonlocal current
        if current is None:
            return
        for field in ("id", "salamon", "limit"):
            if field not in current:
                raise CatalogFormatError(f"entry missing {field!r}: {current}")
        if current["limit"] not in current["pages"]:
            raise CatalogFormatError(f"{current['id']}: limit page not stored")
        entries.append(CatalogEntry(
            id=current["id"],
            salamon=current["salamon"],
            label=current.get("label"),
            decomposition=current.get("decompose"),
            golden_pages=current["pages"],
            golden_limit_page=current["limit"],
            suspect_cells=frozenset(current.get("suspect", ())),
        ))
        current = None

    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "entry":
            finish()
            current = {"id": rest, "pages": {}, "suspect": set()}
        elif current is None:
            raise CatalogFormatError(f"directive before first entry: {line}")
        elif key == "salamon":
            current["salamon"] = rest
        elif key == "label":
            current["label"] = rest
        elif key == "decompose":
            s, base = rest.split()
            current["decompose"] = (int(s), base)
        elif key == "page":
            r, nrows, ncols = (int(x) for x in rest.split())
            grid = []
            for _ in range(nrows):
                row = tuple(int(x) for x in lines[i].split())
                if len(row) != ncols:
                    raise CatalogFormatError(f"{current['id']}: page {r} row width")
                grid.append(row)
                i += 1
            current["pages"][r] = tuple(grid)
        elif key == "limit":
            current["limit"] = int(rest)
        elif key == "suspect":
            r, row, col = (int(x) for x in rest.split())
            current["suspect"].add((r, row, col))
        else:
            raise CatalogFormatError(f"unknown directive: {line}")
    finish()
    return entries


@lru_cache(maxsize=1)
def _all_entries() -> tuple[CatalogEntry, ...]:
    with open(os.path.join(os.path.dirname(__file__), "golden_tables.txt"), encoding="utf-8") as fh:
        return tuple(_parse_golden(fh.read()))


def list_entries(dim_filter: int | None = None) -> list[CatalogEntry]:
    entries = list(_all_entries())
    if dim_filter is not None:
        entries = [e for e in entries if e.dim == dim_filter]
    return entries


def get_entry(entry_id: str) -> CatalogEntry:
    for e in _all_entries():
        if e.id == entry_id:
            return e
    raise KeyError(f"no catalog entry {entry_id!r}")


# ---------------------------------------------------------------------------
# golden comparison
# ---------------------------------------------------------------------------

class CellMismatch(NamedTuple):
    page: int
    row: int
    col: int
    stored: int
    computed: int
    suspect: bool


class GoldenReport(NamedTuple):
    id: str
    mismatches: tuple[CellMismatch, ...]
    r0_computed: int
    r0_bound_ok: bool

    @property
    def hard_mismatches(self) -> tuple[CellMismatch, ...]:
        return tuple(m for m in self.mismatches if not m.suspect)

    @property
    def suspect_mismatches(self) -> tuple[CellMismatch, ...]:
        return tuple(m for m in self.mismatches if m.suspect)

    @property
    def ok(self) -> bool:
        return not self.hard_mismatches and self.r0_bound_ok


def golden_check(entry: CatalogEntry, table: SpectralTable) -> GoldenReport:
    """Diff every stored page grid and the limit grid against the engine.

    Mismatches at cells annotated as suspects are downgraded to reports; any
    other mismatch is a hard failure.  Also verifies that the computed
    degeneration page does not exceed the printed one.
    """
    mismatches = []
    for r, stored in sorted(entry.golden_pages.items()):
        computed = table.grid(r)
        if len(computed) != len(stored) or len(computed[0]) != len(stored[0]):
            raise CatalogFormatError(
                f"{entry.id}: stored page {r} has shape "
                f"{len(stored)}x{len(stored[0])}, engine {len(computed)}x{len(computed[0])}")
        for row in range(len(stored)):
            for col in range(len(stored[0])):
                if stored[row][col] != computed[row][col]:
                    mismatches.append(CellMismatch(
                        page=r, row=row, col=col,
                        stored=stored[row][col], computed=computed[row][col],
                        suspect=(r, row, col) in entry.suspect_cells))
    # the page marked "= E_infinity" must agree with the engine's limit grid
    stored_limit = entry.golden_limit
    for row in range(len(stored_limit)):
        for col in range(len(stored_limit[0])):
            if stored_limit[row][col] != table.limit[row][col]:
                key = (entry.golden_limit_page, row, col)
                if key not in entry.suspect_cells:
                    mismatches.append(CellMismatch(
                        page=-1, row=row, col=col,
                        stored=stored_limit[row][col], computed=table.limit[row][col],
                        suspect=False))
    return GoldenReport(
        id=entry.id,
        mismatches=tuple(mismatches),
        r0_computed=table.r0,
        r0_bound_ok=table.r0 <= entry.golden_limit_page,
    )


# ---------------------------------------------------------------------------
# census and the Betti-vs-table witness
# ---------------------------------------------------------------------------

def distinct_table_census(dim: int) -> tuple[int, int]:
    """(isomorphism classes, distinct limit tables) among stored entries."""
    entries = list_entries(dim)
    if not entries:
        raise ValueError(f"no catalog entries of dimension {dim}")
    return len(entries), len({e.golden_limit for e in entries})


def betti_vs_table_witness() -> tuple[str, str]:
    """The published pair with equal Betti numbers but different limit tables."""
    a = get_entry("dim6-16")
    b = get_entry("dim6-17")
    if a.golden_betti != b.golden_betti:
        raise RuntimeError("witness pair does not have equal Betti numbers")
    if a.golden_limit == b.golden_limit:
        raise RuntimeError("witness pair does not have distinct limit tables")
    return a.id, b.id
