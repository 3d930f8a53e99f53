"""The golden tables checked without the engine.

A lint reads only the printed pages of one catalog entry and applies three
rules that any spectral sequence of this shape obeys:

* E_0 rows are binomial: with dim V_i - dim V_(i-1) read off the printed
  degree-1 column of page 0, row i-1 (level i) holds C(dim V_i, n) -
  C(dim V_(i-1), n) in degree n, plus 1 for the constants at level 1;
* every printed page has Euler characteristic 0;
* consecutive pages r, r+1 are related by some d_r: along every chain
  (p, n) -> (p+r, n+1) -> ... the drops delta_j = E_r - E_(r+1) split into
  ranks rho_j = delta_j - rho_(j-1) (rho_(-1) = 0) with
  0 <= rho_j <= E_r - rho_(j-1), and the chain ends with rho = 0.

The lint imports nothing but ``catalog``: it is independent evidence for the
``suspect`` records, not a check of engine output.
"""

from __future__ import annotations

import itertools
from math import comb

from nilspec import catalog

FLAGGED = {"dim5-3", "dim6-2", "dim6-4", "dim6-25", "dim6-26"}
# (entry, page, row from top, column, printed value, repaired value): the one
# single-cell edit that makes each of four flagged entries pass
REPAIRS = [("dim5-3", 1, 2, 1, 1, 2), ("dim6-2", 1, 4, 5, 5, 2), ("dim6-4", 1, 4, 4, 2, 3),
           ("dim6-26", 0, 2, 5, 4, 5)]


def _binomial_rows(page0) -> bool:
    dims = list(itertools.accumulate(row[1] for row in page0))  # dim V_1, ..., dim V_k
    return all(x == comb(hi, n) - comb(lo, n) + (i == n == 0)
               for i, (row, lo, hi) in enumerate(zip(page0, [0, *dims], dims)) for n, x in enumerate(row))


def _chains_hold(page, after, r: int) -> bool:
    """Whether some d_r of bidegree (r, 1-r) takes page to after; rows run from p = k-1 down to p = 0."""
    k, width = len(page), len(page[0])
    for top, n in itertools.product(range(k), range(width)):
        if top + r < k and n > 0:  # (top, n) is hit from inside the grid: not the start of a chain
            continue
        rho = 0
        for j in itertools.count():
            t, col = top - j * r, n + j
            if t < 0 or col >= width:
                break
            rank = page[t][col] - after[t][col] - rho
            if not 0 <= rank <= page[t][col] - rho:
                return False
            rho = rank
        if rho:
            return False
    return True


def lint(pages: dict, limit: int) -> bool:
    """Whether printed pages 0..limit pass the three rules."""
    return (_binomial_rows(pages[0])
            and all(sum((-1) ** n * x for row in grid for n, x in enumerate(row)) == 0 for grid in pages.values())
            and all(_chains_hold(pages[r], pages[r + 1], r) for r in range(limit)))


def _edited(pages: dict, r: int, row: int, col: int, value: int) -> dict:
    grid = [list(line) for line in pages[r]]
    grid[row][col] = value
    return {**pages, r: tuple(map(tuple, grid))}


def _cells(pages: dict):
    for r, grid in sorted(pages.items()):
        for row, line in enumerate(grid):
            for col, x in enumerate(line):
                yield r, row, col, x


def test_lint_flags_exactly_the_entries_with_suspect_records():
    entries = catalog.list_entries()
    flagged = {e.id for e in entries if not lint(e.golden_pages, e.golden_limit_page)}
    assert flagged == FLAGGED
    assert flagged == {e.id for e in entries if e.suspect_cells}


def test_each_repair_is_a_suspect_cell_and_the_only_single_cell_edit_that_passes():
    for entry_id, r, row, col, printed, repaired in REPAIRS:
        e = catalog.get_entry(entry_id)
        assert (r, row, col) in e.suspect_cells and e.golden_pages[r][row][col] == printed
        assert lint(_edited(e.golden_pages, r, row, col, repaired), e.golden_limit_page)
        passing = [(r2, row2, col2, v) for r2, row2, col2, x in _cells(e.golden_pages) for v in range(25)
                   if v != x and lint(_edited(e.golden_pages, r2, row2, col2, v), e.golden_limit_page)]
        assert passing == [(r, row, col, repaired)], entry_id
    # dim6-25's two page-0 suspects cancel in the Euler sum; the binomial rows set both to 5
    e = catalog.get_entry("dim6-25")
    assert e.suspect_cells == {(0, 2, 2), (0, 2, 5)}
    assert lint(_edited(_edited(e.golden_pages, 0, 2, 2, 5), 0, 2, 5, 5), e.golden_limit_page)


def test_every_change_by_one_of_a_stored_cell_is_flagged():
    passing = set()
    for e in catalog.list_entries():
        for r, row, col, x in _cells(e.golden_pages):
            for value in (x - 1, x + 1):
                if lint(_edited(e.golden_pages, r, row, col, value), e.golden_limit_page):
                    passing.add((e.id, r, row, col, value))
    # only the repairs that are a change by one make a flagged entry pass
    assert passing == {(i, r, row, col, v) for i, r, row, col, x, v in REPAIRS if abs(v - x) == 1}
