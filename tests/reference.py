"""The paper's quotient formula, a second engine the tests compare the pairing with.

Every page entry is the quotient

    E_r^{p,q} ~ A_r^{p,q} / ( d(A_(r-1)^{p-r+1, q+r-2}) + A_(r-1)^{p+1, q-1} ),
    A_r^{p,q} = {x in Lambda^(p+q) V_(k-p) : dx in Lambda^(p+q+1) V_(k-p-r)},

with the limit term given by the same shape with a closed-form numerator and
the full dual in the exact part of the denominator.  Indices clamp at the
boundary (V_i = 0 for i <= 0, V_i = everything for i >= k, degree-0 spaces
one-dimensional exactly when the filtration level is positive), so the
vanishing band (zero for p < 0, p >= k, p+q < 0 or p+q > m) emerges from the
computation.

The subspaces live in Lambda^n at lexicographic positions, and d_n is the
positional ``LinearMap`` relabelled from the complex's key columns by
``positional_columns``; this module is the one place that knows that layout,
and ``divisibility_subspace`` gives the divisible (m-1)-forms in it.  The
maps, A-spaces, images and ranks are cached per complex, for as long as the
complex lives.  Nothing in the package imports this module.

It also keeps five earlier constructions the package replaced, as references
for tests: the differential built by walking every q-form and every term of
each of its indices (``mask_walk_columns``), which sums the terms at each
entry and so also takes raw constants with a term in e^j of de^j, where
``exterior.form_columns`` refuses them; the kernel from a
left-to-right elimination whose null vectors are reduced a second time
(``two_step_kernel``, on the textbook elimination ``naive_rref`` of
(num, den) pairs rather than the package's) and the preimage from that
kernel (``textbook_preimage``), the table assembled from a
cube of bar ends per (degree, level, gap) with suffix sums over the gaps
(``ends_cube_table``), and the adapted basis change on dense rows: ``span``
of the augmented [P | I] and all C(m, 2) ``wedge_minors`` of the rows of
P^-1 (``dense_transform_constants``).
It keeps the level loop that validated an algebra on subspaces, each
level read off the constants where the previous space is by coordinates and
otherwise eliminated, V_i by the textbook kernel and n^i by ``span``
(``level_loop_filtration``, or with every level eliminated), and the two
checkers that read every cell through ``SpectralTable.entry`` and format
every message (``entry_check_limit_edges``, ``entry_check_abelian_extension``).
It keeps the golden comparison that walks every cell of every stored page
(``cell_walk_golden_check``) and the top-degree check that compares the
canonical rows of the exact (m-1)-forms with the divisible subspace
(``span_check_top_degree_forms``).
Three independent cross-checks complete it: the differential by pointwise
evaluation of the alternating-sum formula on tuples of primal basis vectors
(``pointwise_differential``, for small dimensions), the page-0 entries
from binomials (``page0_closed_form``), and the full composition of two
differentials (``composed_columns``), which ``exterior.compose_is_zero``
skips when no row of d_q is a column of d_(q+1).  The package's maps only carry
their columns, so the tests take a map times a dense vector from ``apply``
and compare maps by ``map_key``.  The package holds every vector as a
sparse integer row {index: value}; the tests read dense tuples off sparse
rows, or off a subspace's canonical rows, through ``dense``.

Last, it keeps the argparse parser that ``cli.parse_args`` replaced
(``build_parser``), with its own value readers, as the oracle for the
command-line language.
"""

from __future__ import annotations

import argparse
import itertools
import math
import weakref
from fractions import Fraction
from math import comb
from typing import Callable, Mapping, NamedTuple, Sequence

from nilspec.exterior import CochainComplex, Constants, KeyColumns, clear_denominators
from nilspec.linalg import LinearMap, Subspace, _span, contains, image, preimage, rank, span, subspace_sum
from nilspec import catalog, cli, lie, spectral
from nilspec.spectral import LIMIT, Grid, InternalConsistencyError, SpectralTable, require_poincare_duality


MultiIndex = tuple[int, ...]


class PageEntry(NamedTuple):
    r: int | None  # None for the limit page
    p: int
    q: int
    dim: int
    numerator_dim: int
    denominator_dim: int


_caches: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _cache(c: CochainComplex, name: str) -> dict:
    """The cache ``name`` of complex c."""
    return _caches.setdefault(c, {}).setdefault(name, {})


def key_position(key: int, full: int) -> int:
    """Lexicographic position of a basis form among the forms of its degree:
    the rank of full ^ R in the combinatorial number system."""
    bits = [b for b in range(full.bit_length()) if key >> b & 1]
    return sum(comb(b, t) for t, b in enumerate(bits, start=1))


def positional_columns(m: int, columns: KeyColumns) -> KeyColumns:
    """Key columns relabelled to lexicographic positions, {position: {position: coeff}}."""
    full = (1 << m) - 1
    return {key_position(src, full): {key_position(key, full): v for key, v in col.items()}
            for src, col in columns.items()}


def divisibility_subspace(c: CochainComplex) -> Subspace:
    """Coordinate span of (m-1)-multi-indices containing every index of V_1.

    These are exactly the (m-1)-forms divisible by the wedge of a basis of
    the closed 1-forms; by the closed/exact characterisation of top-degree
    forms this subspace coincides with the exact (m-1)-forms.  The
    (m-1)-form without index i sits at position m - i, and V_1 is spanned
    by the first v_dims[1] covectors.
    """
    return Subspace.coordinate(range(c.m - c.v_dims[1]), c.m)


def positional_d(c: CochainComplex, q: int) -> LinearMap:
    """d_q with rows and columns at lexicographic positions."""
    cache = _cache(c, "d")
    if q not in cache:
        columns = positional_columns(c.m, c.columns[q])
        cache[q] = LinearMap(comb(c.m, q + 1), comb(c.m, q), {j: col.items() for j, col in columns.items()})
    return cache[q]


def dense(vectors: Subspace | Sequence[Mapping[int, int]], n: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Sparse rows {index: value} as dense integer tuples of length n; a
    subspace gives its canonical rows at its ambient dimension."""
    if isinstance(vectors, Subspace):
        vectors, n = vectors.rows, vectors.ambient_dim
    return tuple(tuple(row.get(j, 0) for j in range(n)) for row in vectors)


def apply(m: LinearMap, vector: Sequence[int]) -> list[int]:
    """The dense product m x: x_j times column j, summed over the columns."""
    assert len(vector) == m.cols, (len(vector), m.cols)
    out = [0] * m.rows
    for j, col in m.columns.items():
        for i, v in col.items():
            out[i] += v * vector[j]
    return out


def map_key(m: LinearMap) -> tuple:
    """What makes two maps equal: their shape and their columns."""
    return m.rows, m.cols, m.columns


def d_rank(c: CochainComplex, q: int) -> int:
    """Rank of d_q; q outside 0..m counts as the zero map."""
    if not 0 <= q <= c.m:
        return 0
    cache = _cache(c, "rank")
    if q not in cache:
        cache[q] = rank(positional_d(c, q))
    return cache[q]


def lambda_subspace(c: CochainComplex, q: int, i: int) -> Subspace:
    """Lambda^q V_i as a coordinate subspace of Lambda^q; i is clamped to 0..k.

    Degree 0 follows the constants convention: one dimension iff i >= 1.
    """
    if q < 0 or q > c.m:
        raise ValueError(f"degree {q} outside 0..{c.m}")
    i = max(0, min(i, c.k))
    cache = _cache(c, "lambda")
    if (q, i) not in cache:
        cache[q, i] = Subspace.coordinate([p for p, idx in enumerate(itertools.combinations(range(1, c.m + 1), q))
                                           if (idx[-1] <= c.v_dims[i] if idx else i >= 1)], comb(c.m, q))
    return cache[q, i]


def _a_space(c: CochainComplex, n: int, i: int, t: int) -> Subspace:
    """{x in Lambda^n V_i : dx in Lambda^(n+1) V_t}, with clamped levels."""
    i = max(0, min(i, c.k))
    t = max(0, min(t, c.k))
    domain = lambda_subspace(c, n, i)
    if t >= i or domain.dim == 0:
        return domain  # d preserves the filtration, so the constraint is vacuous
    key = (n, i, t)
    cache = _cache(c, "space")
    cached = cache.get(key)
    if cached is None:
        if n == c.m:
            cached = domain  # top forms map into Lambda^(m+1) = 0
        else:
            cached = preimage(positional_d(c, n), lambda_subspace(c, n + 1, t), domain)
        cache[key] = cached
    return cached


def _d_image(c: CochainComplex, n: int, i: int, t: int) -> Subspace:
    """d applied to the A-space one degree down; lives in Lambda^(n+1)."""
    i = max(0, min(i, c.k))
    t = max(0, min(t, c.k))
    key = (n, i, t)
    cache = _cache(c, "image")
    cached = cache.get(key)
    if cached is None:
        cached = image(positional_d(c, n), _a_space(c, n, i, t))
        cache[key] = cached
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
    line = span([x], numerator.ambient_dim)
    return contains(numerator, line) and not contains(denominator, line)


def page_grid(c: CochainComplex, r: int | None) -> Grid:
    """Dimension grid of one page (LIMIT for the limit): k rows with the top
    row p = k-1, m+1 columns indexed by total degree."""
    return tuple(tuple(page_entry(c, p, deg - p, r).dim for deg in range(c.m + 1))
                 for p in range(c.k - 1, -1, -1))


def betti_numbers(c: CochainComplex) -> tuple[int, ...]:
    """Betti numbers by rank-nullity on the differential matrices."""
    return tuple(comb(c.m, i) - d_rank(c, i) - d_rank(c, i - 1) for i in range(c.m + 1))


def mask_walk_columns(m: int, constants: Constants, q: int, levels: Sequence[int] = ()) -> KeyColumns:
    """``exterior.form_columns`` by the mask walk: for every q-form R and every
    index j of R with de^j != 0, each term c e^a ^ e^b of de^j is tried on
    rest = R without j.  It dies if rest has bit a or b; otherwise it lands
    on rest | a | b with the sign of one popcount of rest."""
    cols: KeyColumns = {}
    if q < 0 or q >= m:
        return cols
    full = (1 << m) - 1
    base = {1 << (m - j): (lv << m) | full for j, lv in enumerate(levels or [0] * m, start=1)}
    terms: dict[int, list[tuple[int, int, int]]] = {}  # bit of j -> (bits of a and b, sign mask, c)
    for (a, b, j), c in constants.items():
        if c:
            above = [full ^ ((2 << (m - x)) - 1) for x in (a, b, j)]  # bits of the indices below x
            terms.setdefault(1 << (m - j), []).append(
                ((1 << (m - a)) | (1 << (m - b)), above[0] ^ above[1] ^ above[2], c))
    active = sum(terms)
    for mask in map(sum, itertools.combinations([1 << b for b in range(m)], q)):
        todo = mask & active
        if not todo:
            continue
        acc: dict[int, int] = {}
        while todo:
            bit = todo & -todo
            todo ^= bit
            rest = mask ^ bit
            for ab, signs, c in terms[bit]:
                if rest & ab:
                    continue
                target = rest | ab
                key = base[target & -target] ^ target
                acc[key] = acc.get(key, 0) + (-c if (rest & signs).bit_count() & 1 else c)
        acc = {key: v for key, v in acc.items() if v}
        if acc:
            cols[base[mask & -mask] ^ mask] = acc
    return cols


def composed_columns(outer: KeyColumns, inner: KeyColumns) -> KeyColumns:
    """outer . inner on key columns, summed over every entry of inner; zero
    entries and zero columns are left out."""
    out: KeyColumns = {}
    for src, col in inner.items():
        acc: dict[int, int] = {}
        for mid, coeff in col.items():
            for row, c2 in outer.get(mid, {}).items():
                acc[row] = acc.get(row, 0) + coeff * c2
        if acc := {row: v for row, v in acc.items() if v}:
            out[src] = acc
    return out


def _norm(num, den):
    if den < 0:
        num, den = -num, -den
    g = math.gcd(abs(num), den)
    return (num // g, den // g) if g else (0, 1)


def _add(a, b):
    return _norm(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _mul(a, b):
    return _norm(a[0] * b[0], a[1] * b[1])


def _div(a, b):
    return _norm(a[0] * b[1], a[1] * b[0])


def _neg(a):
    return (-a[0], a[1])


def naive_rref(grid):
    """Textbook reduced row echelon form on (num, den) tuples; returns the
    rows (the first ``rank`` of them nonzero) and the rank."""
    grid = [list(row) for row in grid]
    nrows, ncols = len(grid), len(grid[0]) if grid else 0
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if grid[i][c][0] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        piv = grid[r][c]
        grid[r] = [_div(x, piv) for x in grid[r]]
        for i in range(nrows):
            if i != r and grid[i][c][0] != 0:
                f = grid[i][c]
                grid[i] = [_add(x, _mul(_neg(f), y)) for x, y in zip(grid[i], grid[r])]
        r += 1
        if r == nrows:
            break
    return grid, r


def _leads(rows):
    return [next(c for c, x in enumerate(row) if x[0]) for row in rows]


def two_step_kernel(m: LinearMap) -> Subspace:
    """``linalg.null_space`` of m's columns by two textbook eliminations and
    nothing of ``linalg``'s: ``naive_rref`` of m, one null vector per free
    column, and ``naive_rref`` of those, each row scaled to a primitive
    integer vector."""
    grid = [[(0, 1)] * m.cols for _ in range(m.rows)]
    for j, col in m.columns.items():
        for i, v in col.items():
            grid[i][j] = (v, 1)
    reduced, r = naive_rref(grid)
    pivots = _leads(reduced[:r])
    null = []
    for free in sorted(set(range(m.cols)) - set(pivots)):
        vec = [(0, 1)] * m.cols
        vec[free] = (1, 1)
        for row, c in zip(reduced, pivots):
            vec[c] = _neg(row[free])
        null.append(vec)
    return _naive_span(null, m.cols)


def _naive_span(rows, ambient_dim: int) -> Subspace:
    """The canonical subspace spanned by (num, den) rows, by ``naive_rref``,
    each row scaled to a primitive integer vector."""
    reduced, r = naive_rref(rows)
    basis = []
    for row in reduced[:r]:
        scale = math.lcm(*(den for _, den in row))
        ints = [num * (scale // den) for num, den in row]
        g = math.gcd(*ints)
        basis.append({j: x // g for j, x in enumerate(ints) if x})
    return Subspace(ambient_dim, tuple(basis), tuple(_leads(reduced[:r])))


def textbook_preimage(m: LinearMap, target: Subspace, domain: Subspace) -> Subspace:
    """``linalg.preimage`` by textbook steps and nothing of ``linalg``'s
    elimination: x = sum c_i b_i over the basis b_i of the domain maps into
    the target iff (c, e) is a null vector of [m b_i | -t_j] for some e, so
    the preimage is the span of B c over the ``two_step_kernel`` of that
    matrix, taken by ``naive_rref``."""
    basis = dense(domain)
    columns = {i: list(enumerate(apply(m, b))) for i, b in enumerate(basis)}
    for j, t in enumerate(dense(target), start=domain.dim):
        columns[j] = [(r, -v) for r, v in enumerate(t)]
    null = two_step_kernel(LinearMap(m.rows, domain.dim + target.dim, columns))
    combined = [[(sum(c[i] * b[x] for i, b in enumerate(basis)), 1) for x in range(domain.ambient_dim)]
                for c in dense(null)]
    return _naive_span(combined, domain.ambient_dim)


def wedge_minors(x: Sequence[int], y: Sequence[int], m: int) -> list[int]:
    """Coordinates of the 2-form x ^ y of two dense 1-forms: its 2x2 minors."""
    return [x[a - 1] * y[b - 1] - x[b - 1] * y[a - 1] for a, b in itertools.combinations(range(1, m + 1), 2)]


def dense_transform_constants(constants: Constants, change: Sequence[Sequence[int]]
                              ) -> dict[tuple[int, int, int], int]:
    """``exterior.transform_constants`` on the dense rows of P: the canonical
    rows of [P | I] give L P^-1, and d f^j sums the minors of its rows."""
    m = len(change)
    # the canonical rows of [P | I] are [0..L_i..0 | L_i (P^-1)_i] iff P is invertible
    augmented = dense(span([list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(change)], 2 * m))
    if not all(row[i] for i, row in enumerate(augmented)):
        raise InternalConsistencyError("adapted basis change is singular")
    scale = math.lcm(*(row[i] for i, row in enumerate(augmented)))
    old_basis = [[x * (scale // row[i]) for x in row[m:]] for i, row in enumerate(augmented)]
    minors = {(i, l): wedge_minors(old_basis[i - 1], old_basis[l - 1], m) for i, l, _ in constants}
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    out: dict[tuple[int, int, int], int] = {}
    for jnew, prow in enumerate(change, start=1):
        two_form = [0] * len(pairs)
        for (i, l, b), cval in constants.items():
            if prow[b - 1]:
                two_form = [t + prow[b - 1] * cval * x for t, x in zip(two_form, minors[i, l])]
        out.update({(aa, bb, jnew): coeff for (aa, bb), coeff in zip(pairs, two_form) if coeff})
    return out


def ends_cube_table(c: CochainComplex) -> SpectralTable:
    """``spectral.full_table`` by the ends cube: ends[n][level][g] counts the
    n-forms at that level that end a bar of gap g < k, with the essential ones
    at g = k; page r keeps the suffix sum over g >= r, and r0 is the first
    page equal to the limit."""
    k, m = c.k, c.m
    ends = [[[0] * (k + 1) for _ in range(k + 1)] for _ in range(m + 1)]
    ends[0][1][k] = 1  # the constants
    for n in range(1, m + 1):
        for j, level in enumerate(c.levels, start=1):  # n-forms whose last index is j
            ends[n][level][k] += math.comb(j - 1, n - 1)
    for n in range(m):
        for x, y in spectral._bars(c, n):
            for deg, level in ((n, x), (n + 1, y)):
                ends[deg][level][x - y] += 1
                ends[deg][level][k] -= 1
    alive = [[list(itertools.accumulate(reversed(g)))[::-1] for g in row] for row in ends]

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


def sort_indices(indices: Sequence[int]) -> tuple[int, MultiIndex] | None:
    """Sort a wedge of 1-form indices; returns (sign, tuple) or None if repeated.

    Only the pointwise oracle and the tests use this; ``exterior.form_columns``
    counts signs on bit masks, so the two constructions stay independent.
    """
    items = list(indices)
    sign = 1
    # insertion sort, counting transpositions; lists here are tiny
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            return None
    return sign, tuple(items)


def pointwise_differential(m: int, constants: Mapping[tuple[int, int, int], Fraction | int],
                           q: int) -> LinearMap:
    """Oracle construction of d_q: evaluate the alternating-sum formula.

    The entry at (row T, column J) is dx(e_T) for x = e^J, computed directly
    as sum over i<j of (-1)^(i+j-1) x([u_i,u_j], ..).  Independent of the
    derivation-rule construction; intended for small dimensions.  Rational
    constants are scaled by the lcm of their denominators, as in the complex.
    """
    domain = list(itertools.combinations(range(1, m + 1), q))
    target = list(itertools.combinations(range(1, m + 1), q + 1))
    bracket: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j, k), c in clear_denominators(constants).items():
        if c:
            bracket.setdefault((i, j), {})[k] = c

    def eval_basis_form(idx: MultiIndex, args: Sequence[int]) -> int:
        if set(args) != set(idx) or len(set(args)) != len(args):
            return 0
        order = {v: n for n, v in enumerate(idx)}
        sorted_ = sort_indices(tuple(order[a] for a in args))
        return 0 if sorted_ is None else sorted_[0]

    columns: dict[int, list[tuple[int, int]]] = {}
    for rpos, tup in enumerate(target):
        for cpos, idx in enumerate(domain):
            total = 0
            for a in range(len(tup)):
                for b in range(a + 1, len(tup)):
                    vals = bracket.get((tup[a], tup[b]))
                    if not vals:
                        continue
                    rest = tup[:a] + tup[a + 1:b] + tup[b + 1:]
                    sign = 1 if (a + b) % 2 else -1  # (-1)^(i+j-1) with 1-based i, j = a+1, b+1
                    for k, c in vals.items():
                        ev = eval_basis_form(idx, (k,) + rest)
                        if ev:
                            total += sign * c * ev
            columns.setdefault(cpos, []).append((rpos, total))
    return LinearMap(len(target), len(domain), columns)


def page0_closed_form(c: CochainComplex, p: int, deg: int) -> int:
    """Dim of the page-0 entry from the binomial quotient formula."""
    if p < 0 or p >= c.k or deg < 0 or deg > c.m:
        return 0
    if deg == 0:
        return 1 if p == c.k - 1 else 0
    return math.comb(c.v_dims[c.k - p], deg) - math.comb(c.v_dims[c.k - p - 1], deg)


# ---------------------------------------------------------------------------
# the level loop on subspaces, and the checkers on ``entry``
# ---------------------------------------------------------------------------

def _step_dual(m: int, constants: Constants, prev: Subspace, read_off: bool) -> Subspace:
    """V_i from prev = V_(i-1) on subspaces: read off the constants where
    prev is spanned by basis covectors and the parts of the other de^j off
    Lambda^2 V_(i-1) are independent, else the kernel of x -> (i_u dx)_u
    over the basis u of ann(V_(i-1)) read off the canonical rows of prev."""
    if read_off and all(len(row) == 1 for row in prev.rows):
        inside = set(prev.pivots)
        off: dict[int, dict[int, int]] = {}  # j -> de^j off Lambda^2 V_(i-1), e^a ^ e^b at (a-1)*m + b-1
        for (a, b, j), c in constants.items():
            if a - 1 not in inside or b - 1 not in inside:
                off.setdefault(j - 1, {})[(a - 1) * m + b - 1] = c
        if rank(LinearMap(len(off), m * m, _transposed(off.values()))) == len(off):
            return Subspace.coordinate(set(range(m)) - off.keys(), m)
    scale = math.lcm(*(row[p] for row, p in zip(prev.rows, prev.pivots)))
    reach: list[dict[int, int]] = [{} for _ in range(m)]  # reach[a]: {t: u_a} over the t-th u with u_a != 0
    for t, c in enumerate(sorted(set(range(m)) - set(prev.pivots))):
        reach[c][t] = scale
        for row, p in zip(prev.rows, prev.pivots):
            if c in row:
                reach[p][t] = -row[c] * (scale // row[p])
    columns: dict[int, list[tuple[int, int]]] = {}  # column k-1: the e^b coordinate of i_u de^k at row t*m + b-1
    for (a, b, k), v in constants.items():
        for t, u in reach[a - 1].items():
            columns.setdefault(k - 1, []).append((t * m + b - 1, v * u))
        for t, u in reach[b - 1].items():
            columns.setdefault(k - 1, []).append((t * m + a - 1, -v * u))
    return two_step_kernel(LinearMap(m * m, m, columns))


def _step_primal(m: int, constants: Constants, prev: Subspace, read_off: bool) -> Subspace:
    """n^i from prev = n^(i-1) on subspaces: the e_k that the brackets with
    a or b in n^(i-1) reach, where prev is by coordinates and those brackets
    have full rank on them, else the span of the [e_g, x] over the rows x of prev."""
    if read_off and all(len(row) == 1 for row in prev.rows):
        ideal = set(prev.pivots)
        reached: dict[tuple[int, int], dict[int, int]] = {}  # (a, b) -> [e_a, e_b]
        for (a, b, k), c in constants.items():
            if a - 1 in ideal or b - 1 in ideal:
                reached.setdefault((a, b), {})[k - 1] = c
        support = {k for bracket in reached.values() for k in bracket}
        if rank(LinearMap(len(reached), m, _transposed(reached.values()))) == len(support):
            return Subspace.coordinate(support, m)
    out: list[list[int]] = []
    for x in dense(prev):
        for g in range(1, m + 1):  # [e_g, x] from [e_a, e_b] = c e_k = -[e_b, e_a]
            bracket = [0] * m
            for (a, b, k), c in constants.items():
                bracket[k - 1] += c * ((x[b - 1] if a == g else 0) - (x[a - 1] if b == g else 0))
            out.append(bracket)
    return span(out, m)


def _transposed(rows) -> dict[int, list[tuple[int, int]]]:
    """Sparse rows as the columns of a LinearMap with one row per given row."""
    columns: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(rows):
        for j, v in row.items():
            columns.setdefault(j, []).append((i, v))
    return columns


def level_loop_filtration(m: int, constants: Mapping[tuple[int, int, int], Fraction | int],
                          read_off: bool = True) -> lie.Filtration:
    """``lie.validate_algebra`` as one loop over the levels on subspaces: the
    Jacobi check, then V_i, NotNilpotentError if it did not grow, n^i, and
    the dimension and annihilation cross-checks, each level read off the
    constants where that succeeds (or, without ``read_off``, eliminated)."""
    constants = clear_denominators(constants)
    if not lie._jacobi_holds(m, constants):
        raise lie.JacobiError("structure constants violate the Jacobi identity")
    spaces, n, dims = [Subspace.zero(m)], Subspace.full(m), [m]
    while spaces[-1].dim < m:
        i, v = len(spaces), _step_dual(m, constants, spaces[-1], read_off)
        if v.dim == spaces[-1].dim:
            raise lie.NotNilpotentError("algebra is not nilpotent")
        n = _step_primal(m, constants, n, read_off)
        if v.dim + n.dim != m:
            raise InternalConsistencyError("dual filtration disagrees with the primal descending series")
        if any(sum(x * y for x, y in zip(row, u)) for row in dense(v) for u in dense(n)):
            raise InternalConsistencyError(f"V_{i} does not annihilate the primal ideal n^{i}")
        spaces.append(v)
        dims.append(n.dim)
    return lie.Filtration(len(spaces) - 1, tuple(spaces), tuple(dims))


def entry_check_limit_edges(t: SpectralTable, c: CochainComplex) -> spectral.CheckReport:
    """``spectral.check_limit_edges`` through ``SpectralTable.entry``, every message formatted."""
    k, m = t.k, t.m
    cells = [cell for p in range(k) for cell in (
        (p, -p, int(p == k - 1), "degree 0"),
        (p, 1 - p, c.v_dims[1] if p == k - 1 else 0, "degree 1"),
        (p, m - 1 - p, t.betti[m - 1] if p == 0 else 0, "degree m-1"),
        (p, m - p, int(p == 0), "degree m"))]
    violations = [f"{what}: e({p},{q}) = {t.entry(LIMIT, p, q)}, expected {want}"
                  for p, q, want, what in cells if t.entry(LIMIT, p, q) != want]
    return spectral.CheckReport("theorem-limit-edges", len(cells), tuple(violations))


def entry_check_abelian_extension(h: lie.LieAlgebra, pages: Sequence[int | None],
                                  s: int = 1) -> list[spectral.CheckReport]:
    """``spectral.check_abelian_extension`` through ``SpectralTable.entry``,
    the checks outside the grid read like the others; the tables come from
    ``spectral.table_for``."""
    if s < 1:
        raise ValueError("s must be at least 1")
    base = spectral.table_for(h if s == 1 else lie.direct_sum(lie.abelian(s - 1), h))
    ext = spectral.table_for(lie.direct_sum(lie.abelian(s), h))
    base_of_h = base if s == 1 else spectral.table_for(h)
    k, m = ext.k, ext.m
    note = [f"extension changed the nilpotency index: {base.k} -> {k}"] if base.k != k else []

    def report(r: int | None) -> spectral.CheckReport:
        checks = [(ext.entry(r, p, -p - 1), 0, f"negative degree at p={p}") for p in range(-1, k + 1)]
        for deg in range(m + 1):
            checks += [(ext.entry(r, p, deg - p), base.entry(r, p, deg - p) + base.entry(r, p, deg - 1 - p),
                        f"degree {deg} at p={p}") for p in range(k)]
            if deg == 1:
                checks.append((ext.entry(r, k, 1 - k), 0, "degree 1 at p=k"))
        checks.append((ext.r0, base_of_h.r0, "degeneration page"))
        violations = note + [f"{what}: got {got}, expected {want}" for got, want, what in checks if got != want]
        return spectral.CheckReport(f"abelian-extension s={s} r={'limit' if r is None else r}",
                                    len(checks), tuple(violations))

    return [report(r) for r in pages]


def cell_walk_golden_check(entry: catalog.CatalogEntry, table: SpectralTable
                           ) -> tuple[spectral.CheckReport, tuple[str, ...]]:
    """``catalog.golden_check`` by a walk over every cell of every stored page,
    equal pages included."""
    violations, suspects, checks = [], [], 1
    for r, stored in sorted(entry.golden_pages.items()):
        computed = table.grid(r)
        if len(computed) != len(stored) or len(computed[0]) != len(stored[0]):
            raise catalog.CatalogFormatError(
                f"{entry.id}: stored page {r} has shape "
                f"{len(stored)}x{len(stored[0])}, engine {len(computed)}x{len(computed[0])}")
        for row, (printed, engine) in enumerate(zip(stored, computed)):
            for col, (x, y) in enumerate(zip(printed, engine)):
                if x != y and (r, row, col) in entry.suspect_cells:
                    suspects.append(f"suspect cell page {r} [{row}][{col}]: printed {x}, engine {y}")
                elif x != y:
                    violations.append(f"MISMATCH page {r} [{row}][{col}]: stored {x}, engine {y}")
        checks += len(stored) * len(stored[0])
    if table.r0 > entry.golden_limit_page:
        violations.append(f"r0 = {table.r0} is above the printed limit page {entry.golden_limit_page}")
    return spectral.CheckReport("golden-tables", checks, tuple(violations)), tuple(suspects)


def span_check_top_degree_forms(c: CochainComplex) -> spectral.CheckReport:
    """``spectral.check_top_degree_forms`` by the canonical rows of the exact
    (m-1)-forms, compared as a ``Subspace`` with ``divisibility_subspace``."""
    violations = []
    if c.columns[c.m - 1]:
        violations.append("d is nonzero on (m-1)-forms")
    full = (1 << c.m) - 1  # the (m-1)-form without index i: position m - i, the one low set bit of its key
    below = c.columns[c.m - 2].values() if c.m >= 2 else ()
    exact = _span([{(key & full).bit_length() - 1: v for key, v in col.items()} for col in below], c.m)
    divisible = divisibility_subspace(c)
    if exact != divisible:
        violations.append(f"exact (m-1)-forms have dim {exact.dim}, divisible subspace dim {divisible.dim}")
    return spectral.CheckReport("top-degree-forms", 2, tuple(violations))


# ---------------------------------------------------------------------------
# the argparse parser that cli.parse_args replaced
# ---------------------------------------------------------------------------

def _at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _page(text: str) -> int | None:
    """A page index: 'limit' (also 'inf', 'oo') or an integer >= 0."""
    return LIMIT if text in ("limit", "inf", "oo") else _at_least(0)(text)


def _pages(text: str) -> str | tuple[int, ...]:
    """'all', 'limit', or a comma list of page indices >= 0 (sorted, deduplicated)."""
    return text if text in ("all", "limit") else tuple(sorted({_at_least(0)(p) for p in text.split(",")}))


def _catalog_dim(text: str) -> int:
    dims = sorted({e.dim for e in catalog.list_entries()})
    dim = _at_least(1)(text)
    if dim not in dims:
        raise argparse.ArgumentTypeError(f"the catalog has dimensions {dims}, not {dim}")
    return dim


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``nilspec`` command line before ``cli.parse_args``."""
    parser = argparse.ArgumentParser(
        prog="nilspec",
        description="Spectral sequences of nilpotent Lie algebras, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute and print page tables")
    source = p_compute.add_mutually_exclusive_group()
    source.add_argument("input", nargs="?", help="salamon string, or a file path")
    source.add_argument("--m0", type=_at_least(3), metavar="N",
                        help="use the filiform algebra of dimension N >= 3")
    p_compute.add_argument("--pages", type=_pages, default="all",
                           help="'all' (default: 0..r0), 'limit', or a comma list like 0,1,2")
    p_compute.add_argument("--format", choices=cli.RENDERERS, default="text")
    p_compute.add_argument("--batch", action="store_true",
                           help="treat input (or stdin with '-') as one salamon string per line")
    p_compute.set_defaults(func=cli.cmd_compute)

    p_catalog = sub.add_parser("catalog", help="browse or verify the built-in catalog")
    p_catalog.add_argument("--dim", type=_catalog_dim, default=None)
    p_catalog.add_argument("--check", action="store_true",
                           help="golden tables plus structural checkers over the selection")
    p_catalog.add_argument("--census", type=_catalog_dim, metavar="DIM",
                           help="print (classes, distinct limit tables) for a dimension")
    p_catalog.add_argument("--format", choices=("text", "json"), default="text")
    p_catalog.set_defaults(func=cli.cmd_catalog)

    p_check = sub.add_parser("check", help="run structural checkers on one algebra")
    source = p_check.add_mutually_exclusive_group()
    source.add_argument("input", nargs="?", help="salamon string, or a file path")
    source.add_argument("--m0", type=_at_least(3), metavar="N")
    p_check.add_argument("--theorems", action="store_true",
                         help="limit-edge identities (degrees 0, 1, m-1, m)")
    p_check.add_argument("--lemma", action="store_true",
                         help="top-degree closed/exact characterisation")
    p_check.add_argument("--direct-sum", type=_at_least(1), metavar="S",
                         help="direct-sum identities for R^S (+) this algebra")
    p_check.add_argument("--page", type=_page, action="append",
                         help="page for --direct-sum: an integer or 'limit' (repeatable)")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=cli.cmd_check)
    return parser
