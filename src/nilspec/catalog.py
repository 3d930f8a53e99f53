"""Built-in catalog of nilpotent Lie algebras of dimension <= 6.

The catalog pairs every isomorphism class (1 + 2 + 8 + 33 entries) with its
published page tables, loaded from ``golden_tables.txt``.  Entry ids follow
"dim<N>-<item>" after the published numbering; the Heisenberg algebra is
"dim3-h3".  A handful of printed cells are transcription suspects, stored as
printed and annotated with ``suspect`` records: ``golden_check`` notes the
ones the engine contradicts and fails on any other cell it contradicts.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .lie import parse_salamon
from .spectral import CheckReport, Grid, InternalConsistencyError, SpectralTable


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
        return self.salamon.count(",") + 1

    @property
    def golden_limit(self) -> Grid:
        return self.golden_pages[self.golden_limit_page]

    @property
    def golden_betti(self) -> tuple[int, ...]:
        return tuple(sum(row[i] for row in self.golden_limit)
                     for i in range(self.dim + 1))

    def algebra(self):
        return parse_salamon(self.salamon, label=self.label or self.id)


class CatalogFormatError(InternalConsistencyError):
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
            if any(b["id"] == rest for b in blocks):
                raise CatalogFormatError(f"entry {rest} appears twice")
            blocks.append({"id": rest, "pages": {}, "suspect": set()})
        elif not blocks:
            raise CatalogFormatError(f"directive before first entry: {line}")
        elif key in blocks[-1] and key in ("salamon", "label", "decompose", "limit"):
            raise CatalogFormatError(f"{blocks[-1]['id']}: a second {key} line")
        elif key in ("salamon", "label"):
            blocks[-1][key] = rest
        elif key == "decompose":
            s, base = rest.split()
            blocks[-1]["decompose"] = (int(s), base)
        elif key == "page":
            r, nrows, ncols = (int(x) for x in rest.split())
            if r < 0 or r in blocks[-1]["pages"]:
                raise CatalogFormatError(f"{blocks[-1]['id']}: {'a second' if r >= 0 else 'a negative'} page {r}")
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
            if (r, row, col) in blocks[-1]["suspect"]:
                raise CatalogFormatError(f"{blocks[-1]['id']}: a second suspect cell {r} {row} {col}")
            blocks[-1]["suspect"].add((r, row, col))
        else:
            raise CatalogFormatError(f"unknown directive: {line}")
    for block in blocks:
        for field in ("salamon", "limit"):
            if field not in block:
                raise CatalogFormatError(f"entry missing {field!r}: {block}")
        if block["limit"] not in block["pages"]:
            raise CatalogFormatError(f"{block['id']}: limit page not stored")
        width, height = block["salamon"].count(",") + 2, len(block["pages"][block["limit"]])  # dim + 1, k
        for r, grid in block["pages"].items():
            if not grid:
                raise CatalogFormatError(f"{block['id']}: page {r} has no rows")
            if len(grid[0]) != width:
                raise CatalogFormatError(f"{block['id']}: page {r} has {len(grid[0])} columns, "
                                         f"not dim + 1 = {width}")
            if len(grid) != height:
                raise CatalogFormatError(f"{block['id']}: page {r} has {len(grid)} rows, the limit page {height}")
        for r, row, col in sorted(block["suspect"]):
            if r not in block["pages"] or not (0 <= row < height and 0 <= col < width):
                raise CatalogFormatError(f"{block['id']}: suspect cell {r} {row} {col} is outside the stored pages")
    dims = {b["id"]: b["salamon"].count(",") + 1 for b in blocks}
    for block in (b for b in blocks if "decompose" in b):
        (s, base), dim = block["decompose"], dims[block["id"]]
        if base not in dims:
            raise CatalogFormatError(f"{block['id']}: decompose base {base} names no entry")
        if s + dims[base] != dim:
            raise CatalogFormatError(f"{block['id']}: R^{s} (+) {base} has dimension {s + dims[base]}, not {dim}")
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

def golden_check(entry: CatalogEntry, table: SpectralTable) -> tuple[CheckReport, tuple[str, ...]]:
    """Diff every stored page grid against the engine, each page once.

    Returns the ``golden-tables`` report, which counts one check per stored
    cell (the printed limit page L among them) and one for r0 <= L, and a
    note for each suspect cell the engine contradicts.  Each page is compared
    whole with the engine's grid; only a page that differs has its cells walked.
    """
    violations, suspects, checks = [], [], 1
    for r, stored in sorted(entry.golden_pages.items()):
        computed = table.grid(r)
        checks += len(stored) * len(stored[0])
        if computed == stored:
            continue
        if len(computed) != len(stored) or len(computed[0]) != len(stored[0]):
            raise CatalogFormatError(
                f"{entry.id}: stored page {r} has shape "
                f"{len(stored)}x{len(stored[0])}, engine {len(computed)}x{len(computed[0])}")
        for row, (printed, engine) in enumerate(zip(stored, computed)):
            for col, (x, y) in enumerate(zip(printed, engine)):
                if x != y and (r, row, col) in entry.suspect_cells:
                    suspects.append(f"suspect cell page {r} [{row}][{col}]: printed {x}, engine {y}")
                elif x != y:
                    violations.append(f"MISMATCH page {r} [{row}][{col}]: stored {x}, engine {y}")
    if table.r0 > entry.golden_limit_page:
        violations.append(f"r0 = {table.r0} is above the printed limit page {entry.golden_limit_page}")
    return CheckReport("golden-tables", checks, tuple(violations)), tuple(suspects)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def distinct_table_census(dim: int) -> tuple[int, int]:
    """(isomorphism classes, distinct limit tables) among stored entries."""
    entries = list_entries(dim)
    if not entries:
        raise ValueError(f"no catalog entries of dimension {dim}")
    return len(entries), len({e.golden_limit for e in entries})

