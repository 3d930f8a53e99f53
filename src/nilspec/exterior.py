"""Exterior algebra over the dual and the Chevalley-Eilenberg complex.

A basis q-form is a strictly increasing multi-index (1-based) into the dual
basis; multi-indices are enumerated in lexicographic order, which fixes all
matrix layouts bit-exactly.  The differential on 1-forms is read off the
structure constants (de^k has coefficient c_ijk on e^i ^ e^j) and extended
to higher degrees as an antiderivation:

    d(x ^ y) = dx ^ y + (-1)^deg(x) x ^ dy.

An independent construction of the same matrices, pointwise evaluation of
the alternating-sum formula on tuples of primal basis vectors, is provided
as a cross-check oracle for small dimensions.

The complex stores each d_q as an integer ``LinearMap``: the structure
constants are multiplied once by the lcm of their denominators
(``clear_denominators``), which scales every d_q by the same nonzero factor
and so changes no image, preimage, kernel or rank.  ``apply_d`` divides the
factor back out, so forms stay exact.

``build_complex`` first performs a filtration-adapted change of dual basis,
after which every piece Lambda^q V_i is a coordinate subspace: a basis
q-form lies in Lambda^q V_i iff the largest filtration level among its
indices is at most i.  The empty multi-index (constants) is assigned level 1
so that the constants enter the filtration together with V_1; this is the
convention under which the degree-0 column of every dimension table has a
single 1 in the top row.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .linalg import LinearMap, Row, Subspace, rank, rat, span, subspace_sum

if TYPE_CHECKING:  # pragma: no cover
    from .lie import Filtration, LieAlgebra

_ZERO = Fraction(0)

MultiIndex = tuple[int, ...]
SparseColumns = dict[int, list[tuple[int, Fraction]]]

_INDEX_CACHE: dict[tuple[int, int], tuple[MultiIndex, ...]] = {}
_POSITION_CACHE: dict[tuple[int, int], dict[MultiIndex, int]] = {}


def multi_indices(m: int, q: int) -> tuple[MultiIndex, ...]:
    """All strictly increasing q-tuples from 1..m, lexicographically ordered."""
    key = (m, q)
    if key not in _INDEX_CACHE:
        if q < 0 or q > m:
            _INDEX_CACHE[key] = ()
        else:
            _INDEX_CACHE[key] = tuple(itertools.combinations(range(1, m + 1), q))
    return _INDEX_CACHE[key]


def index_positions(m: int, q: int) -> dict[MultiIndex, int]:
    key = (m, q)
    if key not in _POSITION_CACHE:
        _POSITION_CACHE[key] = {idx: pos for pos, idx in enumerate(multi_indices(m, q))}
    return _POSITION_CACHE[key]


def sort_indices(indices: Sequence[int]) -> tuple[int, MultiIndex] | None:
    """Sort a wedge of 1-form indices; returns (sign, tuple) or None if repeated."""
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
# forms
# ---------------------------------------------------------------------------

class Form:
    """A q-form as a sparse map from multi-indices to rational coefficients."""

    __slots__ = ("degree", "coords")

    def __init__(self, degree: int, coords: Mapping[MultiIndex, Fraction | int] | None = None):
        self.degree = degree
        data: dict[MultiIndex, Fraction] = {}
        for idx, coeff in (coords or {}).items():
            c = rat(coeff)
            if not c:
                continue
            if len(idx) != degree or any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"{idx} is not an increasing multi-index of length {degree}")
            data[tuple(idx)] = c
        self.coords = data

    @classmethod
    def basis(cls, indices: Sequence[int], coeff: Fraction | int = 1) -> Form:
        sorted_ = sort_indices(indices)
        if sorted_ is None:
            return cls(len(indices))
        sign, idx = sorted_
        return cls(len(indices), {idx: sign * rat(coeff)})

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: Form) -> Form:
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        data = dict(self.coords)
        for idx, c in other.coords.items():
            data[idx] = data.get(idx, _ZERO) + c
        return Form(self.degree, data)

    def scale(self, factor: Fraction | int) -> Form:
        f = rat(factor)
        return Form(self.degree, {idx: c * f for idx, c in self.coords.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Form) and self.degree == other.degree and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.degree, tuple(sorted(self.coords.items()))))

    def to_vector(self, m: int) -> list[Fraction]:
        pos = index_positions(m, self.degree)
        out = [_ZERO] * len(pos)
        for idx, c in self.coords.items():
            out[pos[idx]] = c
        return out

    def __repr__(self) -> str:
        if not self.coords:
            return f"Form(degree={self.degree}, 0)"
        terms = " + ".join(f"{c}*e{list(idx)}" for idx, c in sorted(self.coords.items()))
        return f"Form({terms})"


def wedge(x: Form, y: Form) -> Form:
    """Graded-commutative exterior product with shuffle signs."""
    data: dict[MultiIndex, Fraction] = {}
    for jx, cx in x.coords.items():
        for jy, cy in y.coords.items():
            sorted_ = sort_indices(jx + jy)
            if sorted_ is None:
                continue
            sign, idx = sorted_
            data[idx] = data.get(idx, _ZERO) + sign * cx * cy
    return Form(x.degree + y.degree, data)


# ---------------------------------------------------------------------------
# differentials from structure constants
# ---------------------------------------------------------------------------

def _one_form_terms(constants: Mapping[tuple[int, int, int], Fraction]) -> dict[int, list[tuple[int, int, Fraction]]]:
    """de^k as a list of (i, j, coeff) with i < j, keyed by k."""
    terms: dict[int, list[tuple[int, int, Fraction]]] = {}
    for (i, j, k), c in constants.items():
        if c:
            terms.setdefault(k, []).append((i, j, c))
    return terms


def differential_columns(m: int, constants: Mapping[tuple[int, int, int], Fraction], q: int) -> SparseColumns:
    """Sparse columns of d: Lambda^q -> Lambda^(q+1) built by the derivation rule.

    Integer constants give integer columns."""
    cols: SparseColumns = {}
    if q < 0 or q >= m:
        return cols
    terms = _one_form_terms(constants)
    target_pos = index_positions(m, q + 1)
    for col, idx in enumerate(multi_indices(m, q)):
        acc: dict[int, Fraction] = {}
        for t, jt in enumerate(idx):
            for (a, b, c) in terms.get(jt, ()):
                rest = idx[:t] + idx[t + 1:]
                sorted_ = sort_indices((a, b) + rest)
                if sorted_ is None:
                    continue
                sign, new_idx = sorted_
                coeff = c * sign if t % 2 == 0 else -c * sign
                pos = target_pos[new_idx]
                acc[pos] = acc.get(pos, 0) + coeff
        entries = [(pos, coeff) for pos, coeff in acc.items() if coeff]
        if entries:
            cols[col] = entries
    return cols


def compose_is_zero(outer: SparseColumns, inner: SparseColumns) -> bool:
    """Whether outer . inner = 0, composing sparse column maps."""
    for col, entries in inner.items():
        acc: dict[int, Fraction] = {}
        for mid, coeff in entries:
            for row, c2 in outer.get(mid, ()):
                acc[row] = acc.get(row, 0) + coeff * c2
        if any(acc.values()):
            return False
    return True


def clear_denominators(constants: Mapping[tuple[int, int, int], Fraction]
                       ) -> tuple[dict[tuple[int, int, int], int], int]:
    """The constants times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(c.denominator for c in constants.values()))
    return {key: c.numerator * (scale // c.denominator) for key, c in constants.items()}, scale


def pointwise_differential(m: int, constants: Mapping[tuple[int, int, int], Fraction], q: int) -> LinearMap:
    """Oracle construction of d_q: evaluate the alternating-sum formula.

    The entry at (row T, column J) is dx(e_T) for x = e^J, computed directly
    as sum over i<j of (-1)^(i+j-1) x([u_i,u_j], ..).  Independent of the
    derivation-rule construction; intended for small dimensions.  Like the
    complex's d_q, it is scaled by the lcm of the constants' denominators.
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
    adapted_constants:     structure constants in the adapted basis
    d:               d[q] maps Lambda^q coordinates to Lambda^(q+1), q = 0..m,
                     as an integer map: d_scale times the true differential
    d_scale:         lcm of the denominators of the adapted constants
    """

    def __init__(self, m: int, k: int, v_dims: Sequence[int], adapted_basis_change: tuple[Row, ...],
                 adapted_constants: Mapping[tuple[int, int, int], Fraction],
                 d: Sequence[LinearMap], d_scale: int):
        self.m = m
        self.k = k
        self.v_dims = tuple(v_dims)
        self.adapted_basis_change = adapted_basis_change
        self.adapted_constants = dict(adapted_constants)
        self.d = tuple(d)
        self.d_scale = d_scale
        self.levels = tuple(min(i for i in range(k + 1) if j < self.v_dims[i]) for j in range(m))
        # multi-index level = max index level; the empty index carries level 1
        self._index_levels: list[tuple[int, ...]] = []
        for q in range(m + 1):
            if q == 0:
                self._index_levels.append((1,))
            else:
                self._index_levels.append(tuple(max(self.levels[j - 1] for j in idx)
                                                for idx in multi_indices(m, q)))
        self._lambda_cache: dict[tuple[int, int], Subspace] = {}
        self._space_cache: dict = {}
        self._image_cache: dict = {}
        self._rank_cache: dict[int, int] = {}

    def dim_lambda(self, q: int) -> int:
        return math.comb(self.m, q)

    def apply_d(self, x: Form) -> Form:
        """Differential of a form in adapted coordinates, via the sparse columns."""
        q = x.degree
        if q >= self.m:
            return Form(q + 1)
        pos = index_positions(self.m, q)
        target = multi_indices(self.m, q + 1)
        acc: dict[MultiIndex, Fraction] = {}
        cols = self.d[q].columns
        for idx, c in x.coords.items():
            for row, coeff in cols.get(pos[idx], ()):
                t = target[row]
                acc[t] = acc.get(t, _ZERO) + c * coeff
        return Form(q + 1, {t: v / self.d_scale for t, v in acc.items()})

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

    if change == Subspace.full(m).basis:
        constants = dict(a.c)
    else:
        constants = transform_constants(a.c, change)

    integer_constants, scale = clear_denominators(constants)
    columns = [differential_columns(m, integer_constants, q) for q in range(m + 1)]
    for q in range(m):
        if not compose_is_zero(columns[q + 1], columns[q]):
            raise CochainComplexError(f"d_{q + 1} . d_{q} != 0 after basis adaptation")
    d = [LinearMap(math.comb(m, q + 1), math.comb(m, q), columns[q]) for q in range(m + 1)]
    return CochainComplex(m, k, v_dims, change, constants, d, scale)


def transform_constants(constants: Mapping[tuple[int, int, int], Fraction],
                        change: Sequence[Row]) -> dict[tuple[int, int, int], Fraction]:
    """Structure constants after the dual change of basis f^a = sum_b P[a][b] e^b."""
    m = len(change)
    # the canonical rows of [P | I] are [0..L_i..0 | L_i (P^-1)_i] iff P is invertible
    augmented = span([list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(change)], 2 * m)
    if not all(row[i] for i, row in enumerate(augmented.basis)):
        raise CochainComplexError("adapted basis change is singular")
    inverse = [[Fraction(x, row[i]) for x in row[m:]] for i, row in enumerate(augmented.basis)]
    old_basis = [Form(1, {(a + 1,): x for a, x in enumerate(row)}) for row in inverse]  # e^i in the f^a

    out: dict[tuple[int, int, int], Fraction] = {}
    for jnew, prow in enumerate(change, start=1):
        # d f^jnew = sum_b P[jnew][b] de^b, rewritten in adapted wedges
        two_form = Form(2)
        for (i, l, b), cval in constants.items():
            if prow[b - 1]:
                two_form = two_form + wedge(old_basis[i - 1], old_basis[l - 1]).scale(prow[b - 1] * cval)
        out.update({(aa, bb, jnew): coeff for (aa, bb), coeff in two_form.coords.items()})
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


def is_divisible_by_v1_top(c: CochainComplex, x: Form) -> bool:
    """Whether an (m-1)-form lies in (wedge of V_1 basis) ^ Lambda^(m-1-n0)."""
    if x.degree != c.m - 1:
        raise ValueError(f"form has degree {x.degree}, expected {c.m - 1}")
    n0 = c.v_dims[1]
    required = set(range(1, n0 + 1))
    return all(required <= set(idx) for idx in x.coords)
