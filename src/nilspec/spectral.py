"""Spectral-sequence pages of the annihilator filtration.

Tables are read off one persistence pairing per degree (Zomorodian-Carlsson
2005; Basu-Parida 2017).  In the adapted basis a basis n-form x has a level
l(x), lies in F^p iff l(x) <= k - p, and d never raises the level.
Reducing the columns of d_n in (level, position) order splits the filtered
complex over Q into essential forms and bars x -> y, y the last row of the
reduced column of x.  A bar survives to E_r iff its gap l(x) - l(y) >= r:

    dim E_r^{p,n-p} = (essential n-forms at level k-p)
                      + (bars of gap >= r with an end among those n-forms),

and the limit and the Betti numbers count essential forms only.

The paper's closed form is kept for the checkers, ``limit_class_nonzero``
and the tests that verify the pairing: every page entry is the quotient

    E_r^{p,q} ~ A_r^{p,q} / ( d(A_(r-1)^{p-r+1, q+r-2}) + A_(r-1)^{p+1, q-1} ),
    A_r^{p,q} = {x in Lambda^(p+q) V_(k-p) : dx in Lambda^(p+q+1) V_(k-p-r)},

with the limit term given by the same shape with a closed-form numerator and
the full dual in the exact part of the denominator.  Indices clamp at the
boundary (V_i = 0 for i <= 0, V_i = everything for i >= k, degree-0 spaces
one-dimensional exactly when the filtration level is positive), so the
vanishing band (zero for p < 0, p >= k, p+q < 0 or p+q > m) emerges from the
computation.  A-spaces and their images are cached per complex.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

from .exterior import (
    CochainComplex,
    build_complex,
    divisibility_subspace,
    lambda_subspace,
)
from .lie import LieAlgebra, abelian, descending_series, direct_sum
from .linalg import Subspace, contains, image, preimage, subspace_sum

Grid = tuple[tuple[int, ...], ...]

LIMIT: None = None  # page index standing for r = infinity


class InternalConsistencyError(RuntimeError):
    """A structural invariant failed while computing pages (engine bug)."""


class PageEntry(NamedTuple):
    r: int | None  # None for the limit page
    p: int
    q: int
    dim: int
    numerator_dim: int
    denominator_dim: int


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


# ---------------------------------------------------------------------------
# A-spaces and quotient entries
# ---------------------------------------------------------------------------

def _a_space(c: CochainComplex, n: int, i: int, t: int) -> Subspace:
    """{x in Lambda^n V_i : dx in Lambda^(n+1) V_t}, with clamped levels."""
    i = max(0, min(i, c.k))
    t = max(0, min(t, c.k))
    domain = lambda_subspace(c, n, i)
    if t >= i or domain.dim == 0:
        return domain  # d preserves the filtration, so the constraint is vacuous
    key = (n, i, t)
    cached = c._space_cache.get(key)
    if cached is None:
        if n == c.m:
            cached = domain  # top forms map into Lambda^(m+1) = 0
        else:
            cached = preimage(c.d[n], lambda_subspace(c, n + 1, t), domain)
        c._space_cache[key] = cached
    return cached


def _d_image(c: CochainComplex, n: int, i: int, t: int) -> Subspace:
    """d applied to the A-space one degree down; lives in Lambda^(n+1)."""
    i = max(0, min(i, c.k))
    t = max(0, min(t, c.k))
    key = (n, i, t)
    cached = c._image_cache.get(key)
    if cached is None:
        cached = image(c.d[n], _a_space(c, n, i, t))
        c._image_cache[key] = cached
    return cached


def a_space(c: CochainComplex, p: int, q: int, r: int) -> Subspace:
    """A_r^{p,q} as a subspace of Lambda^(p+q) in adapted coordinates."""
    n = p + q
    if n < 0 or n > c.m:
        return Subspace.zero(0)
    return _a_space(c, n, c.k - p, c.k - p - r)


def _quotient(c: CochainComplex, p: int, n: int, r: int | None) -> tuple[Subspace, Subspace]:
    """Numerator and denominator of E_r^{p, n-p} for 0 <= n <= m; r = LIMIT
    for the limit term."""
    top = c.k - p
    if r is LIMIT:
        r = c.k + abs(p) + 1  # every level below clamps: the limit formula
    numerator = _a_space(c, n, top, top - r)
    closed_part = _a_space(c, n, top - 1, top - r)
    if n == 0:
        return numerator, closed_part
    return numerator, subspace_sum(_d_image(c, n - 1, top + r - 1, top), closed_part)


def page_entry(c: CochainComplex, p: int, q: int, r: int | None) -> PageEntry:
    """E_r^{p,q} with its numerator and denominator dimensions; r = LIMIT
    for the limit term."""
    n = p + q
    if n < 0 or n > c.m:
        return PageEntry(r, p, q, 0, 0, 0)
    numerator, denominator = _quotient(c, p, n, r)
    if not contains(numerator, denominator):
        raise InternalConsistencyError(
            f"denominator not contained in numerator at (p={p}, q={q}, r={r})")
    return PageEntry(r, p, q, numerator.dim - denominator.dim,
                     numerator.dim, denominator.dim)


def limit_class_nonzero(c: CochainComplex, p: int, n: int, x: Sequence[int]) -> bool:
    """Whether the n-cochain with integer coordinates x defines a nonzero
    class in the limit term at (p, n - p): it must lie in the numerator of
    the limit quotient and outside its denominator."""
    if n < 0 or n > c.m or p < 0 or p >= c.k:
        return False
    numerator, denominator = _quotient(c, p, n, LIMIT)
    return numerator.contains_vector(x) and not denominator.contains_vector(x)


def page_grid(c: CochainComplex, r: int | None) -> Grid:
    """Dimension grid of one page (LIMIT for the limit): k rows with the top
    row p = k-1, m+1 columns indexed by total degree."""
    return tuple(tuple(page_entry(c, p, deg - p, r).dim for deg in range(c.m + 1))
                 for p in range(c.k - 1, -1, -1))


def betti_numbers(c: CochainComplex) -> tuple[int, ...]:
    """Betti numbers by rank-nullity on the differential matrices."""
    out = []
    for i in range(c.m + 1):
        kernel_dim = c.dim_lambda(i) - c.d_rank(i)
        out.append(kernel_dim - c.d_rank(i - 1))
    return tuple(out)


def _bars(c: CochainComplex, n: int) -> list[tuple[int, int]]:
    """(l(x), l(y)) for every bar x -> y of d on n-forms, 0 <= n < m.

    Columns are reduced in (level, position) order.  A row key is
    level * size + position, so the low of a column, its last row in that
    order, is its largest key.  A column whose low an earlier column holds
    has that column eliminated from it, fraction-free, then is divided by
    its content.
    """
    src, dst = c._index_levels[n], c._index_levels[n + 1]
    size = len(dst)
    columns = c.d[n].columns
    pivots: dict[int, dict[int, int]] = {}
    bars = []
    for j in sorted(columns, key=lambda j: (src[j], j)):
        col = {dst[i] * size + i: v for i, v in columns[j]}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                bars.append((src[j], low // size))
                break
            g = math.gcd(col[low], other[low])
            a, b = other[low] // g, col[low] // g
            if a != 1:
                col = {i: a * v for i, v in col.items()}
            for i, v in other.items():
                w = col.get(i, 0) - b * v
                if w:
                    col[i] = w
                else:
                    del col[i]
            g = math.gcd(*col.values())
            if g > 1:
                col = {i: v // g for i, v in col.items()}
    return bars


def require_poincare_duality(betti: Sequence[int]) -> None:
    """b_i = b_(m-i), which holds because nilpotent Lie algebras are unimodular."""
    if tuple(betti) != tuple(reversed(betti)):
        raise InternalConsistencyError(f"Betti numbers {list(betti)} violate Poincare duality")


def full_table(c: CochainComplex) -> SpectralTable:
    """Pages 0..r0, the limit grid, Betti numbers and r0 <= k from the
    persistence pairing; later pages equal the limit and are not computed."""
    k, m = c.k, c.m
    # ends[n][level][g]: n-forms at that level that end a bar of gap g < k,
    # with the essential ones at g = k; survivors to page r have g >= r
    ends = [[[0] * (k + 1) for _ in range(k + 1)] for _ in range(m + 1)]
    for n in range(m + 1):
        for level in c._index_levels[n]:
            ends[n][level][k] += 1
    for n in range(m):
        for x, y in _bars(c, n):
            for deg, level in ((n, x), (n + 1, y)):
                ends[deg][level][x - y] += 1
                ends[deg][level][k] -= 1
    alive = [[list(accumulate(reversed(g)))[::-1] for g in row] for row in ends]

    def grid(r: int) -> Grid:
        return tuple(tuple(alive[n][k - p][r] for n in range(m + 1)) for p in range(k - 1, -1, -1))

    limit = grid(k)  # every gap is below k
    betti = tuple(sum(level[k] for level in row) for row in ends)
    require_poincare_duality(betti)
    pages: dict[int, Grid] = {}
    for r in range(k + 1):
        pages[r] = grid(r)
        if pages[r] == limit:
            return SpectralTable(m=m, k=k, pages=pages, limit=limit, betti=betti, r0=r)
    raise InternalConsistencyError("no degeneration at the nilpotency index")


@lru_cache(maxsize=256)
def complex_for(algebra: LieAlgebra) -> CochainComplex:
    return build_complex(algebra, descending_series(algebra))


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
    """
    violations = []
    checks = 0
    k, m = t.k, t.m
    n0 = c.v_dims[1]

    def expect(p: int, q: int, want: int, what: str) -> None:
        nonlocal checks
        checks += 1
        got = t.entry(LIMIT, p, q)
        if got != want:
            violations.append(f"{what}: e({p},{q}) = {got}, expected {want}")

    for p in range(k):
        expect(p, -p, 1 if p == k - 1 else 0, "degree 0")
        expect(p, 1 - p, n0 if p == k - 1 else 0, "degree 1")
        if m >= 1:
            expect(p, m - 1 - p, t.betti[m - 1] if p == 0 else 0, "degree m-1")
        expect(p, m - p, 1 if p == 0 else 0, "degree m")
    return CheckReport("theorem-limit-edges", checks, tuple(violations))


def check_top_degree_forms(c: CochainComplex) -> CheckReport:
    """Top-degree forms: d vanishes on (m-1)-forms and the exact ones are
    exactly the multiples of the wedge of a closed-1-form basis."""
    violations = []
    checks = 2
    if not c.d[c.m - 1].is_zero():
        violations.append("d is nonzero on (m-1)-forms")
    if c.m >= 2:
        exact = image(c.d[c.m - 2], Subspace.full(c.dim_lambda(c.m - 2)))
        divisible = divisibility_subspace(c)
        if exact != divisible:
            violations.append(
                f"exact (m-1)-forms have dim {exact.dim}, divisible subspace dim {divisible.dim}")
    return CheckReport("top-degree-forms", checks, tuple(violations))


def check_abelian_extension(h: LieAlgebra, pages: Sequence[int | None], s: int = 1) -> list[CheckReport]:
    """Dimension identities for a rank-one abelian extension, iterated s times.

    Builds base = R^(s-1) (+) h and ext = R^s (+) h once and compares their
    tables at each of ``pages`` (None for the limit), one report per page:
    degree-0 and degree-1 rows transform as stated, higher rows add with a
    degree shift; also the degeneration page of R^s (+) h equals that of h.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    base_alg = h if s == 1 else direct_sum(abelian(s - 1), h)
    ext_alg = direct_sum(abelian(s), h)
    base = table_for(base_alg)
    ext = table_for(ext_alg)
    base_of_h = base if s == 1 else table_for(h)
    k, m = ext.k, ext.m

    def report(r: int | None) -> CheckReport:
        violations = []
        checks = 0

        def expect(got: int, want: int, what: str) -> None:
            nonlocal checks
            checks += 1
            if got != want:
                violations.append(f"{what}: got {got}, expected {want}")

        if base.k != k:
            violations.append(f"extension changed the nilpotency index: {base.k} -> {k}")
        # (1) nothing below total degree 0
        for p in range(-1, k + 1):
            expect(_probe(ext_alg, ext, p, -p - 1, r), 0, f"negative degree at p={p}")
        # (2) degree 0
        for p in range(k):
            expect(ext.entry(r, p, -p), 1 if p == k - 1 else 0, f"degree 0 at p={p}")
        # (3)/(4) degree 1
        for p in range(k):
            want = base.entry(r, p, 1 - p) + (1 if p == k - 1 else 0)
            expect(ext.entry(r, p, 1 - p), want, f"degree 1 at p={p}")
        expect(_probe(ext_alg, ext, k, 1 - k, r), 0, "degree 1 at p=k")
        # (5) higher degrees add with a shift
        for deg in range(2, m + 1):
            for p in range(k):
                want = base.entry(r, p, deg - p) + base.entry(r, p, deg - 1 - p)
                expect(ext.entry(r, p, deg - p), want, f"degree {deg} at p={p}")
        # corollary: same degeneration page
        expect(ext.r0, base_of_h.r0, "degeneration page")
        return CheckReport(f"abelian-extension s={s} r={'limit' if r is None else r}",
                           checks, tuple(violations))

    return [report(r) for r in pages]


def _probe(algebra: LieAlgebra, t: SpectralTable, p: int, q: int, r: int | None) -> int:
    """Entry at arbitrary (p, q), recomputing outside the stored band."""
    deg = p + q
    if 0 <= p < t.k and 0 <= deg <= t.m:
        return t.entry(r, p, q)
    return page_entry(complex_for(algebra), p, q, r).dim


# ---------------------------------------------------------------------------
# closed-form cross-checks used by the acceptance suite
# ---------------------------------------------------------------------------

def page0_closed_form(c: CochainComplex, p: int, deg: int) -> int:
    """Dim of the page-0 entry from the binomial quotient formula."""
    if p < 0 or p >= c.k or deg < 0 or deg > c.m:
        return 0
    if deg == 0:
        return 1 if p == c.k - 1 else 0
    return math.comb(c.v_dims[c.k - p], deg) - math.comb(c.v_dims[c.k - p - 1], deg)
