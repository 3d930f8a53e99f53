"""Spectral-sequence pages of the annihilator filtration.

Tables are read off one persistence pairing per degree (Zomorodian-Carlsson
2005; Basu-Parida 2017).  In the adapted basis a basis n-form x has a level
l(x), lies in F^p iff l(x) <= k - p, and d never raises the level.
Reducing the columns of d_n in (level, position) order splits the filtered
complex over Q into essential forms and bars x -> y, y the last row of the
reduced column of x.  A bar survives to E_r iff its gap l(x) - l(y) >= r, so
E_0^{p,n-p} counts the n-forms at level k-p and

    dim E_(r+1)^{p,n-p} = dim E_r^{p,n-p} - #(bars of gap r with an end among them).

A bar of gap g counts in two cells of every page r <= g, so the pages stop at
r0 = 1 + the largest gap (0 without bars); page r0 is the limit, which counts
essential forms only, and its column sums are the Betti numbers.

The paper's closed form, each entry as a quotient of A-spaces, is not part
of the package and no CLI command uses it.  It lives in
``tests/reference.py``, and the cell-by-cell test of ``test_spectral.py``
and the adapted-rows test of ``test_exterior.py`` compare the pairing with
it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add
from typing import NamedTuple, Sequence

from .exterior import CochainComplex, InternalConsistencyError, build_complex, divisibility_subspace
from .lie import LieAlgebra, abelian, direct_sum
from .linalg import _clear, _eliminate, _primitive
# the benchmark's tracer (bench/tracing.py) wraps these names here; nothing else reads them
from .lie import descending_series  # noqa: F401
from .linalg import contains, image, preimage, subspace_sum  # noqa: F401

Grid = tuple[tuple[int, ...], ...]

LIMIT: None = None  # page index standing for r = infinity


class CheckReport(NamedTuple):
    name: str
    checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class SpectralTable(NamedTuple):
    """Page grids 0..r0, the limit grid, Betti numbers, r0.

    Every page after r0 equals the limit, so ``grid(r)`` reads it as the
    limit for r >= r0.  Grids are laid out exactly like the published
    tables: k rows with the top row p = k-1 and the bottom row p = 0, and
    m+1 columns indexed by total degree.
    """
    m: int
    k: int
    pages: dict[int, Grid]
    limit: Grid
    betti: tuple[int, ...]
    r0: int

    def grid(self, r: int | None) -> Grid:
        if r is None:
            return self.limit
        if r in self.pages:
            return self.pages[r]
        if r >= self.r0:
            return self.limit
        raise KeyError(f"page {r} was not computed")

    def entry(self, r: int | None, p: int, q: int) -> int:
        grid = self.grid(r)
        deg = p + q
        if 0 <= p < self.k and 0 <= deg <= self.m:
            return grid[self.k - 1 - p][deg]
        return 0


def _bars(c: CochainComplex, n: int) -> list[tuple[int, int]]:
    """(l(x), l(y)) for every bar x -> y of d on n-forms, 0 <= n < m.

    Columns are reduced in form-key order, which is (level, position)
    order, so the low of a column, its last row in that order, is its
    largest key.  A column whose low an earlier column holds is copied and
    cleared against that column by ``linalg._clear``.  Pivots are never
    written to, so a column whose low is free as read is stored as read, the
    dict of ``c.columns`` itself, or if its low is not +-1 as returned by
    ``linalg._primitive``, which never writes.
    """
    columns, m = c.columns[n], c.m
    pivots: dict[int, dict[int, int]] = {}
    bars = []
    for src in sorted(columns):
        col = read = columns[src]
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col if col[low] == 1 or col[low] == -1 else _primitive(col, low)
                bars.append((src >> m, low >> m))
                break
            if col is read:
                col = dict(col)
            _clear(col, other, low)
    return bars


def require_poincare_duality(betti: Sequence[int]) -> None:
    """b_i = b_(m-i), which holds because nilpotent Lie algebras are unimodular."""
    if tuple(betti) != tuple(reversed(betti)):
        raise InternalConsistencyError(f"Betti numbers {list(betti)} violate Poincare duality")


@lru_cache(maxsize=128)
def _e0(m: int, v_dims: tuple[int, ...]) -> Grid:
    cells = [[math.comb(hi, n) - math.comb(lo, n) for n in range(m + 1)] for lo, hi in zip(v_dims, v_dims[1:])]
    cells[0][0] = 1  # the constants
    return tuple(map(tuple, cells))


def full_table(c: CochainComplex) -> SpectralTable:
    """Pages 0..r0, the limit grid, Betti numbers and r0 <= k from the persistence
    pairing: E_0 by level rows, C(dim V_i, n) - C(dim V_(i-1), n) n-forms at level i,
    built by ``_e0`` once per (m, v_dims); each bar put once in the bucket of its gap,
    dim E_(r+1) = dim E_r less the bars of gap r at both ends, and r0 = 1 + the
    largest gap.  Later pages equal the limit and are not computed."""
    k, m = c.k, c.m
    pages = {0: _e0(m, c.v_dims)}
    # cells[level - 1][n]: the n-forms at that level alive on the current page,
    # rows running from p = k-1 down to p = 0 as in a grid; a copy of the cached E_0
    cells = list(map(list, pages[0]))
    gaps: list[list[tuple[int, int]]] = [[] for _ in range(k)]  # gaps[g]: (n, x) per bar of d_n, level x to x - g
    for n in range(m):
        for x, y in _bars(c, n):
            if not 0 <= (gap := x - y) < k:  # a gap of k or more would leave no degeneration by page k
                raise InternalConsistencyError(f"bar of d_{n} from level {x} to level {y}: gap outside 0..{k - 1}")
            gaps[gap].append((n, x))
    r0 = max((gap + 1 for gap, bucket in enumerate(gaps) if bucket), default=0)
    for r in range(r0):
        for n, x in gaps[r]:
            cells[x - 1][n] -= 1
            cells[x - r - 1][n + 1] -= 1
        pages[r + 1] = tuple(map(tuple, cells))
    betti = tuple(map(sum, zip(*pages[r0])))
    require_poincare_duality(betti)
    return SpectralTable(m=m, k=k, pages=pages, limit=pages[r0], betti=betti, r0=r0)


@lru_cache(maxsize=1)  # only the latest complex: a CLI command never reuses an older one
def complex_for(algebra: LieAlgebra) -> CochainComplex:
    return build_complex(algebra)


def table_for(algebra: LieAlgebra) -> SpectralTable:
    return full_table(complex_for(algebra))


# ---------------------------------------------------------------------------
# structural checkers
# ---------------------------------------------------------------------------

def check_limit_edges(t: SpectralTable, c: CochainComplex) -> CheckReport:
    """Limit terms of total degree 0, 1, m-1 and m against their closed forms.

    (1) exactly one class of degree 0, at p = k-1;
    (2) degree 1 concentrates at p = k-1 with dim = dim V_1;
    (3) degree m-1 concentrates at p = 0 with dim = beta_(m-1);
    (4) degree m concentrates at p = 0 with dim 1.
    Each row's four entries are compared as one tuple, and only a row that differs is walked.
    """
    k, m, violations = t.k, t.m, []
    for p in range(k):
        row, top, bottom = t.limit[k - 1 - p], p == k - 1, p == 0
        wants = (int(top), c.v_dims[1] if top else 0, t.betti[m - 1] if bottom else 0, int(bottom))
        if (row[0], row[1], row[m - 1], row[m]) != wants:
            for deg, want, what in zip((0, 1, m - 1, m), wants, ("degree 0", "degree 1", "degree m-1", "degree m")):
                if row[deg] != want:
                    violations.append(f"{what}: e({p},{deg - p}) = {row[deg]}, expected {want}")
    return CheckReport("theorem-limit-edges", 4 * k, tuple(violations))


def check_top_degree_forms(c: CochainComplex) -> CheckReport:
    """Top-degree forms: d vanishes on (m-1)-forms and the exact ones are
    exactly the multiples of the wedge of a closed-1-form basis.  For m = 1
    there are no (m-2)-forms, so the exact 0-forms are the zero subspace.
    ``divisibility_subspace(c)`` is spanned by unit vectors, so the exact forms
    equal it iff the columns of d_(m-2) lie on its pivots and have its dim as rank."""
    violations = []
    if c.columns[c.m - 1]:
        violations.append("d is nonzero on (m-1)-forms")
    full = (1 << c.m) - 1  # the (m-1)-form without index i: position m - i, the one low set bit of its key
    below = c.columns[c.m - 2].values() if c.m >= 2 else ()
    exact = [{(key & full).bit_length() - 1: v for key, v in col.items()} for col in below]
    divisible = divisibility_subspace(c)
    inside = set().union(*exact) <= set(divisible.pivots)  # read before _eliminate takes the rows over
    rank = len(_eliminate(exact, reduced=False))
    if not inside or rank != divisible.dim:
        violations.append(f"exact (m-1)-forms have dim {rank}, divisible subspace dim {divisible.dim}")
    return CheckReport("top-degree-forms", 2, tuple(violations))


def check_abelian_extension(h: LieAlgebra, pages: Sequence[int | None], s: int = 1) -> list[CheckReport]:
    """Dimension identities for a rank-one abelian extension, iterated s times.

    Compares the tables of base = R^(s-1) (+) h and ext = R^s (+) h at each
    of ``pages`` (None for the limit), one report per page.  R adds one class
    of degree 0 and one of degree 1, both at p = k-1, so on every page

        E(ext)^{p,deg-p} = E(base)^{p,deg-p} + E(base)^{p,deg-1-p}.

    The five identity groups, each check labelled with its degree: (1)
    nothing in negative degree; (2) degree 0: one class, at p = k-1; (3)
    degree 1 at p = k-1: one more than the base; (4) degree 1 elsewhere as in
    the base, nothing at p = k; (5) every higher degree a shifted sum.  Also
    R^s (+) h degenerates at the page where h does.  The k+3 checks of (1) and
    at p = k read outside the grid, where every entry is 0: they hold by
    construction and are counted, not read.  Each ext row is compared whole
    with its padded base row's sums; only a page where one differs is walked.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    base = table_for(h if s == 1 else direct_sum(abelian(s - 1), h))
    ext = table_for(direct_sum(abelian(s), h))
    base_of_h = base if s == 1 else table_for(h)
    k, m = ext.k, ext.m
    note = [f"extension changed the nilpotency index: {base.k} -> {k}"] if base.k != k else []

    def report(r: int | None) -> CheckReport:
        # per p, ext's row and base's with a 0 at each end: base's deg and deg-1 are padded[deg + 1], padded[deg]
        grid, below = ext.grid(r), base.grid(r)
        rows = [(row, (0, *below[base.k - 1 - p], 0) if p < base.k else (0,) * (m + 2))
                for p, row in enumerate(reversed(grid))]
        violations = list(note)
        if any(row != tuple(map(add, padded, padded[1:])) for row, padded in rows):
            for deg in range(m + 1):
                for p, (row, padded) in enumerate(rows):
                    if row[deg] != (want := padded[deg] + padded[deg + 1]):
                        violations.append(f"degree {deg} at p={p}: got {row[deg]}, expected {want}")
        if ext.r0 != base_of_h.r0:
            violations.append(f"degeneration page: got {ext.r0}, expected {base_of_h.r0}")
        # k + 2 in negative degree and one at p = k, then (m + 1) k cells and the page
        return CheckReport(f"abelian-extension s={s} r={'limit' if r is None else r}",
                           (k + 3) + (m + 1) * k + 1, tuple(violations))

    return [report(r) for r in pages]
