"""Exterior algebra over the dual and the Chevalley-Eilenberg complex.

A basis q-form is a strictly increasing multi-index (1-based) into the dual
basis; multi-indices are enumerated in lexicographic order, which fixes all
matrix layouts bit-exactly.  The differential on 1-forms is read off the
structure constants (de^k has coefficient c_ijk on e^i ^ e^j) and extended
to higher degrees as an antiderivation:

    d(x ^ y) = dx ^ y + (-1)^deg(x) x ^ dy.

``differential_columns`` works on bit masks: e^idx is the integer with bit i
set for each index i (bit 0 unused), and ``mask_positions`` maps a mask to
its lexicographic position.  For the t-th index j of a column mask M and a
term c e^a ^ e^b (a < b) of de^j, let rest = M without bit j.  The term dies
if rest has bit a or b; otherwise it lands on rest | a | b with sign
(-1)^(t + #{i in rest : i < a} + #{i in rest : i < b}), two popcounts: moving
e^j to the front, then e^a and e^b into place.

An independent construction of the same matrices, pointwise evaluation of
the alternating-sum formula on tuples of primal basis vectors, is provided
as a cross-check oracle for small dimensions.

A cochain is an integer coordinate row over the basis q-forms.  The structure
constants are multiplied once by the lcm of their denominators
(``clear_denominators``), and the adapted basis change multiplies them by a
further positive integer, so the complex's constants and its integer
``LinearMap`` d_q are a positive multiple of the true ones; a positive scale
changes no image, preimage, kernel or rank.

``build_complex`` first performs a filtration-adapted change of dual basis,
after which every piece Lambda^q V_i is a coordinate subspace: a basis
q-form lies in Lambda^q V_i iff the largest filtration level among its
indices is at most i.  The empty multi-index (constants) is assigned level 1
so that the constants enter the filtration together with V_1; this is the
convention under which the degree-0 column of every dimension table has a
single 1 in the top row.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .linalg import LinearMap, Row, Subspace, rank, span, subspace_sum

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

    from .lie import Filtration, LieAlgebra

MultiIndex = tuple[int, ...]
Constants = Mapping[tuple[int, int, int], int]
SparseColumns = dict[int, list[tuple[int, int]]]


@functools.cache
def multi_indices(m: int, q: int) -> tuple[MultiIndex, ...]:
    """All strictly increasing q-tuples from 1..m, lexicographically ordered."""
    return tuple(itertools.combinations(range(1, m + 1), q)) if 0 <= q <= m else ()


@functools.cache
def index_positions(m: int, q: int) -> dict[MultiIndex, int]:
    return {idx: pos for pos, idx in enumerate(multi_indices(m, q))}


@functools.cache
def mask_positions(m: int, q: int) -> dict[int, int]:
    """Bit mask of each q-multi-index -> its position, in lexicographic order."""
    return {sum(1 << i for i in idx): pos for pos, idx in enumerate(multi_indices(m, q))}


def wedge_minors(x: Sequence[int], y: Sequence[int], m: int) -> list[int]:
    """Coordinates of the 2-form x ^ y of two 1-forms: its 2x2 minors."""
    return [x[a - 1] * y[b - 1] - x[b - 1] * y[a - 1] for a, b in multi_indices(m, 2)]


def sort_indices(indices: Sequence[int]) -> tuple[int, MultiIndex] | None:
    """Sort a wedge of 1-form indices; returns (sign, tuple) or None if repeated.

    In the package only the pointwise oracle uses this; ``differential_columns``
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


# ---------------------------------------------------------------------------
# differentials from structure constants
# ---------------------------------------------------------------------------

def _one_form_terms(constants: Constants) -> dict[int, list[tuple[int, int, int, int]]]:
    """de^k as (mask of a and b, mask below a, mask below b, coeff) for each
    c e^a ^ e^b with a < b, keyed by k."""
    terms: dict[int, list[tuple[int, int, int, int]]] = {}
    for (a, b, k), c in constants.items():
        if c:
            terms.setdefault(k, []).append(((1 << a) | (1 << b), (1 << a) - 1, (1 << b) - 1, c))
    return terms


def differential_columns(m: int, constants: Constants, q: int) -> SparseColumns:
    """Sparse integer columns of d: Lambda^q -> Lambda^(q+1) built by the
    derivation rule from integer constants, on bit masks."""
    cols: SparseColumns = {}
    if q < 0 or q >= m:
        return cols
    terms = _one_form_terms(constants)
    target_pos = mask_positions(m, q + 1)
    for col, (idx, mask) in enumerate(zip(multi_indices(m, q), mask_positions(m, q))):
        acc: dict[int, int] = {}
        for t, j in enumerate(idx):
            rest = mask ^ (1 << j)
            for ab, below_a, below_b, c in terms.get(j, ()):
                if rest & ab:
                    continue
                pos = target_pos[rest | ab]
                if (t + (rest & below_a).bit_count() + (rest & below_b).bit_count()) & 1:
                    c = -c
                acc[pos] = acc.get(pos, 0) + c
        entries = [(pos, coeff) for pos, coeff in acc.items() if coeff]
        if entries:
            cols[col] = entries
    return cols


def compose_is_zero(outer: SparseColumns, inner: SparseColumns) -> bool:
    """Whether outer . inner = 0, composing sparse column maps."""
    for col, entries in inner.items():
        acc: dict[int, int] = {}
        for mid, coeff in entries:
            for row, c2 in outer.get(mid, ()):
                acc[row] = acc.get(row, 0) + coeff * c2
        if any(acc.values()):
            return False
    return True


def clear_denominators(constants: Mapping[tuple[int, int, int], Fraction | int]
                       ) -> tuple[dict[tuple[int, int, int], int], int]:
    """The constants times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(c.denominator for c in constants.values()))
    return {key: c.numerator * (scale // c.denominator) for key, c in constants.items()}, scale


def pointwise_differential(m: int, constants: Mapping[tuple[int, int, int], Fraction | int],
                           q: int) -> LinearMap:
    """Oracle construction of d_q: evaluate the alternating-sum formula.

    The entry at (row T, column J) is dx(e_T) for x = e^J, computed directly
    as sum over i<j of (-1)^(i+j-1) x([u_i,u_j], ..).  Independent of the
    derivation-rule construction; intended for small dimensions.  Rational
    constants are scaled by the lcm of their denominators, as in the complex.
    """
    domain = multi_indices(m, q)
    target = multi_indices(m, q + 1)
    bracket: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j, k), c in clear_denominators(constants)[0].items():
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


# ---------------------------------------------------------------------------
# the adapted cochain complex
# ---------------------------------------------------------------------------

class CochainComplexError(RuntimeError):
    """The complex failed an internal structural check (engine bug)."""


class CochainComplex:
    """The Chevalley-Eilenberg complex in a filtration-adapted dual basis.

    Attributes
    ----------
    m, k:            dimension and nilpotency index
    v_dims:          dims of V_0 .. V_k
    levels:          levels[j-1] = min{i : adapted covector j lies in V_i}
    adapted_basis_change:  integer rows = adapted covectors in the original dual basis
    adapted_constants:     integer structure constants in the adapted basis, a
                           positive integer multiple of the true ones
    d:               d[q] maps Lambda^q coordinates to Lambda^(q+1), q = 0..m,
                     as the integer map built from adapted_constants (the
                     same positive multiple of the true differential)

    Cochains are integer coordinate rows in the adapted basis.
    """

    def __init__(self, m: int, k: int, v_dims: Sequence[int], adapted_basis_change: tuple[Row, ...],
                 adapted_constants: Constants, d: Sequence[LinearMap]):
        self.m = m
        self.k = k
        self.v_dims = tuple(v_dims)
        self.adapted_basis_change = adapted_basis_change
        self.adapted_constants = dict(adapted_constants)
        self.d = tuple(d)
        self.levels = tuple(min(i for i in range(k + 1) if j < self.v_dims[i]) for j in range(m))
        # multi-index level = max index level = level of the last index, as
        # levels is nondecreasing; the empty index carries level 1
        self._index_levels: list[tuple[int, ...]] = [(1,)] + [
            tuple(self.levels[idx[-1] - 1] for idx in multi_indices(m, q)) for q in range(1, m + 1)]
        self._lambda_cache: dict[tuple[int, int], Subspace] = {}
        self._space_cache: dict = {}
        self._image_cache: dict = {}
        self._rank_cache: dict[int, int] = {}

    def dim_lambda(self, q: int) -> int:
        return math.comb(self.m, q)

    def d_rank(self, q: int) -> int:
        """Rank of d_q, cached; q outside 0..m counts as the zero map."""
        if q < 0 or q > self.m:
            return 0
        if q not in self._rank_cache:
            self._rank_cache[q] = rank(self.d[q])
        return self._rank_cache[q]


def lambda_subspace(c: CochainComplex, q: int, i: int) -> Subspace:
    """Lambda^q V_i as a coordinate subspace of Lambda^q; i is clamped to 0..k.

    Degree 0 follows the constants convention: one dimension iff i >= 1.
    """
    if q < 0 or q > c.m:
        raise ValueError(f"degree {q} outside 0..{c.m}")
    i = max(0, min(i, c.k))
    key = (q, i)
    cached = c._lambda_cache.get(key)
    if cached is None:
        levels = c._index_levels[q]
        positions = [p for p, lv in enumerate(levels) if lv <= i]
        cached = Subspace.coordinate(positions, len(levels))
        c._lambda_cache[key] = cached
    return cached


def build_complex(a: "LieAlgebra", f: "Filtration") -> CochainComplex:
    """Adapted basis change + differentials for a validated nilpotent algebra."""
    m, k = a.m, f.k
    v_dims = [s.dim for s in f.spaces]
    adapted_rows: list[Row] = []
    current = Subspace.zero(m)
    for i in range(1, k + 1):
        for row in f.spaces[i].basis:
            if not current.contains_vector(row):
                adapted_rows.append(row)
                current = subspace_sum(current, span([row], m))
        if current.dim != v_dims[i]:
            raise CochainComplexError("filtration basis extension failed")
    change = tuple(adapted_rows)

    constants, _ = clear_denominators(a.c)
    if change != Subspace.full(m).basis:
        constants = transform_constants(constants, change)
    columns = [differential_columns(m, constants, q) for q in range(m + 1)]
    for q in range(m):
        if not compose_is_zero(columns[q + 1], columns[q]):
            raise CochainComplexError(f"d_{q + 1} . d_{q} != 0 after basis adaptation")
    d = [LinearMap(math.comb(m, q + 1), math.comb(m, q), columns[q]) for q in range(m + 1)]
    return CochainComplex(m, k, v_dims, change, constants, d)


def transform_constants(constants: Constants, change: Sequence[Row]) -> dict[tuple[int, int, int], int]:
    """Integer structure constants after the dual change of basis
    f^a = sum_b P[a][b] e^b, times L^2 for the lcm L of the pivots below."""
    m = len(change)
    # the canonical rows of [P | I] are [0..L_i..0 | L_i (P^-1)_i] iff P is invertible
    augmented = span([list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(change)], 2 * m)
    if not all(row[i] for i, row in enumerate(augmented.basis)):
        raise CochainComplexError("adapted basis change is singular")
    scale = math.lcm(*(row[i] for i, row in enumerate(augmented.basis)))
    # L e^i in the f^a: the rows of L P^-1
    old_basis = [[x * (scale // row[i]) for x in row[m:]] for i, row in enumerate(augmented.basis)]
    minors = {(i, l): wedge_minors(old_basis[i - 1], old_basis[l - 1], m) for i, l, _ in constants}

    out: dict[tuple[int, int, int], int] = {}
    for jnew, prow in enumerate(change, start=1):
        # d f^jnew = sum_b P[jnew][b] de^b, with each e^i ^ e^l rewritten in the f^a
        two_form = [0] * len(multi_indices(m, 2))
        for (i, l, b), cval in constants.items():
            if prow[b - 1]:
                two_form = [t + prow[b - 1] * cval * x for t, x in zip(two_form, minors[i, l])]
        out.update({(aa, bb, jnew): coeff for (aa, bb), coeff in zip(multi_indices(m, 2), two_form) if coeff})
    return out


# ---------------------------------------------------------------------------
# top-degree divisibility (closed vs exact (m-1)-forms)
# ---------------------------------------------------------------------------

def divisibility_subspace(c: CochainComplex) -> Subspace:
    """Coordinate span of (m-1)-multi-indices containing every index of V_1.

    These are exactly the (m-1)-forms divisible by the wedge of a basis of
    the closed 1-forms; by the closed/exact characterisation of top-degree
    forms this subspace coincides with the exact (m-1)-forms.
    """
    m = c.m
    n0 = c.v_dims[1]
    required = set(range(1, n0 + 1))
    positions = [p for p, idx in enumerate(multi_indices(m, m - 1)) if required <= set(idx)]
    return Subspace.coordinate(positions, c.dim_lambda(m - 1))
