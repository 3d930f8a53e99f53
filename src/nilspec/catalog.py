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
from itertools import islice
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
    """One dict per ``entry`` block from a walk over the lines, a page's rows
    taken from the same line iterator; then each block checked and built."""
    blocks: list[dict] = []
    lines = iter(text.splitlines())
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "entry":
            blocks.append({"id": rest, "pages": {}, "suspect": set()})
        elif not blocks:
            raise CatalogFormatError(f"directive before first entry: {line}")
        elif key in ("salamon", "label"):
            blocks[-1][key] = rest
        elif key == "decompose":
            s, base = rest.split()
            blocks[-1]["decompose"] = (int(s), base)
        elif key == "page":
            r, nrows, ncols = (int(x) for x in rest.split())
            grid = []
            for row in islice(lines, nrows):
                grid.append(tuple(int(x) for x in row.split()))
                if len(grid[-1]) != ncols:
                    raise CatalogFormatError(f"{blocks[-1]['id']}: page {r} row width")
            if len(grid) < nrows:
                raise CatalogFormatError(f"{blocks[-1]['id']}: page {r} cut short by the end of the file")
            blocks[-1]["pages"][r] = tuple(grid)
        elif key == "limit":
            blocks[-1]["limit"] = int(rest)
        elif key == "suspect":
            r, row, col = (int(x) for x in rest.split())
            blocks[-1]["suspect"].add((r, row, col))
        else:
            raise CatalogFormatError(f"unknown directive: {line}")
    for block in blocks:
        for field in ("salamon", "limit"):
            if field not in block:
                raise CatalogFormatError(f"entry missing {field!r}: {block}")
        if block["limit"] not in block["pages"]:
            raise CatalogFormatError(f"{block['id']}: limit page not stored")
    return [CatalogEntry(id=b["id"], salamon=b["salamon"], label=b.get("label"),
                         decomposition=b.get("decompose"), golden_pages=b["pages"],
                         golden_limit_page=b["limit"], suspect_cells=frozenset(b["suspect"]))
            for b in blocks]


@lru_cache(maxsize=1)
def _all_entries() -> tuple[CatalogEntry, ...]:
    try:
        with open(os.path.join(os.path.dirname(__file__), "golden_tables.txt"), encoding="utf-8") as fh:
            return tuple(_parse_golden(fh.read()))
    except ValueError as exc:  # not a number, a bad field count, not UTF-8
        raise CatalogFormatError(f"golden_tables.txt: {exc}") from exc


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
    """Diff every stored page grid against the engine, each page once.

    A mismatch at a cell annotated as a suspect is reported, any other is a
    hard failure.  The printed limit page L is one of the stored pages, so
    it is compared like the rest; an engine degeneration page r0 above L
    fails through ``r0_bound_ok`` instead of through its cells.
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
    return GoldenReport(
        id=entry.id,
        mismatches=tuple(mismatches),
        r0_computed=table.r0,
        r0_bound_ok=table.r0 <= entry.golden_limit_page,
    )


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def distinct_table_census(dim: int) -> tuple[int, int]:
    """(isomorphism classes, distinct limit tables) among stored entries."""
    entries = list_entries(dim)
    if not entries:
        raise ValueError(f"no catalog entries of dimension {dim}")
    return len(entries), len({e.golden_limit for e in entries})

