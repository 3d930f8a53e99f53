"""Exterior algebra over the dual and the Chevalley-Eilenberg complex.

A basis q-form is a strictly increasing multi-index (1-based) into the dual
basis; multi-indices are enumerated in lexicographic order, which fixes all
matrix layouts bit-exactly.  The differential on 1-forms is read off the
structure constants (de^k has coefficient c_ijk on e^i ^ e^j) and extended
to higher degrees as an antiderivation:

    d(x ^ y) = dx ^ y + (-1)^deg(x) x ^ dy.

A basis q-form has one integer key: index i is bit m - i of its reversed
mask R, and the key is (level << m) | (full ^ R), full = 2^m - 1.  In one
degree lexicographic order is decreasing R, so keys sort by (level,
lexicographic position); the level is that of the largest index, the
lowest set bit of R.  ``form_columns`` builds d on keys term by term, and
one walk per term fills every degree: a term c e^a ^ e^b (a < b) of de^j
reaches only the columns rest | j, rest any set of indices other than a, b
and j (q - 1 of them for d_q), and adds to row rest | a | b the sign
(-1)^(#{i in rest : i < j} + #{i in rest : i < a} + #{i in rest : i < b})
times c, the parity of one popcount of rest.  The constants are adapted: de^j
lies in Lambda^2 V_(l(j)-1), so no term of de^j holds e^j, a column I and a
row T name their one term (I - T = {j}, T - I = {a, b}), and no entry is summed.
Every column is a sparse integer row {key: nonzero value}, the one vector
format of ``nilspec.linalg``; so are the rows of the adapted basis change
and every cochain.  The structure constants are multiplied once by the lcm
of their denominators (``lie.clear_denominators`` returns only the scaled
constants), and the adapted basis change multiplies them by a further
positive integer, so the complex's constants and its differentials are a
positive multiple of the true ones; a positive scale changes no image,
preimage, null space or rank.

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
from functools import lru_cache
from typing import Mapping, Sequence

from .lie import InternalConsistencyError, LieAlgebra, clear_denominators
from .linalg import SparseRow, _eliminate
# the benchmark's tracer (bench/tracing.py) wraps this name here; nothing else reads it
from .linalg import rank  # noqa: F401

Constants = Mapping[tuple[int, int, int], int]
KeyColumns = dict[int, dict[int, int]]


# ---------------------------------------------------------------------------
# differentials from structure constants
# ---------------------------------------------------------------------------

def form_columns(m: int, constants: Constants, levels: Sequence[int] = ()) -> list[KeyColumns]:
    """cols[q] holds the columns of d: Lambda^q -> Lambda^(q+1) on form keys,
    {key: {key: coeff}}, for q = 0..m, all from one walk over the terms of
    integer constants (each c e^a ^ e^b of de^j with a < b): a term reaches
    the columns rest | j of every degree, rest running over the submasks of
    the indices other than a, b and j.  levels[j-1] is the level of index j;
    without levels every form has level 0.  The constants are adapted (no term
    of de^j holds e^j; one that does raises), so each entry is stored once."""
    cols: list[KeyColumns] = [{} for _ in range(m + 1)]
    full, base = (1 << m) - 1, _key_base(m, tuple(levels))
    for (a, b, j), c in constants.items():
        if not c:
            continue
        jbit, ab = 1 << (m - j), (1 << (m - a)) | (1 << (m - b))
        if jbit & ab:
            raise InternalConsistencyError(f"de^{j} has a term in e^{j}: the constants are not adapted")
        # bits of the indices below a, below b and below j, each flipping the sign
        signs = full ^ ((2 << (m - a)) - 1) ^ ((2 << (m - b)) - 1) ^ ((2 << (m - j)) - 1)
        free = rest = full ^ ab ^ jbit
        while True:  # every submask rest of free, from free down to 0
            src, target = rest | jbit, rest | ab
            src, target = base[src & -src] ^ src, base[target & -target] ^ target
            degree = cols[rest.bit_count() + 1]
            if (col := degree.get(src)) is None:
                degree[src] = col = {}
            col[target] = -c if (rest & signs).bit_count() & 1 else c
            if not rest:
                break
            rest = (rest - 1) & free
    return cols


@lru_cache(maxsize=128)
def _key_base(m: int, levels: tuple[int, ...]) -> dict[int, int]:
    """The key of a nonzero reversed mask R is base[R & -R] ^ R; one dict per shape, only read."""
    return {1 << (m - j): (lv << m) | ((1 << m) - 1) for j, lv in enumerate(levels or [0] * m, start=1)}


def differential_columns(m: int, constants: Constants, q: int) -> KeyColumns:
    """d_q of ``form_columns`` on forms of level 0, q = 0..m, from adapted
    constants (no term of de^j holds e^j)."""
    return form_columns(m, constants)[q]


def compose_is_zero(outer: KeyColumns, inner: KeyColumns) -> bool:
    """Whether outer . inner = 0, composing key columns; a column outer lacks is zero,
    so when no row of inner is a column of outer every product has a zero factor."""
    if outer.keys().isdisjoint(itertools.chain.from_iterable(inner.values())):
        return True
    for col in inner.values():
        acc: dict[int, int] = {}
        for mid, coeff in col.items():
            if (out := outer.get(mid)) is not None:
                for row, c2 in out.items():
                    acc[row] = acc.get(row, 0) + coeff * c2
        if any(acc.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# the adapted cochain complex
# ---------------------------------------------------------------------------

class CochainComplex:
    """The Chevalley-Eilenberg complex in a filtration-adapted dual basis.

    Attributes
    ----------
    m, k:            dimension and nilpotency index
    v_dims:          dims of V_0 .. V_k
    levels:          levels[j-1] = min{i : adapted covector j lies in V_i}, as
                     ``build_complex`` picks the covectors level by level
    adapted_basis_change:  sparse integer rows {j: value}, 0-based: the adapted
                           covectors in the original dual basis, the canonical
                           rows of each V_i at the pivots new to V_i
    adapted_constants:     integer structure constants in the adapted basis, a
                           positive integer multiple of the true ones
    columns:         columns[q] is d_q on form keys, q = 0..m, built from
                     adapted_constants (the same positive multiple of the true
                     differential)

    Cochains are sparse integer rows over the basis forms of the adapted basis.
    It stores the adapted_constants dict it is given, not a copy, so a caller passes a dict of its own.
    """

    def __init__(self, m: int, k: int, v_dims: Sequence[int], levels: tuple[int, ...],
                 adapted_basis_change: tuple[SparseRow, ...], adapted_constants: dict[tuple[int, int, int], int]):
        self.m = m
        self.k = k
        self.v_dims = tuple(v_dims)
        self.levels = levels
        self.adapted_basis_change = adapted_basis_change
        self.adapted_constants = adapted_constants
        self.columns = form_columns(m, adapted_constants, self.levels)


def build_complex(a: LieAlgebra) -> CochainComplex:
    """Adapted basis change + differentials for a validated nilpotent algebra,
    from the filtration it was validated with."""
    f = a.filtration
    m, k = a.m, f.k
    v_dims = tuple(len(s.rows) for s in f.spaces)
    # RREF pivots of nested subspaces are nested, so the canonical rows of
    # V_i at pivots new to V_i extend a basis of V_(i-1) to one of V_i
    new: list[tuple[int, SparseRow, int]] = []  # (pivot, row, level) of each adapted covector
    for level, (prev, space) in enumerate(zip(f.spaces, f.spaces[1:]), start=1):
        old = set(prev.pivots)
        new += [(p, row, level) for row, p in zip(space.rows, space.pivots) if p not in old]
        if len(new) != len(space.rows):
            raise InternalConsistencyError("filtration basis extension failed")
    order, adapted_rows, levels = zip(*new)

    constants = clear_denominators(a.c)
    if order != tuple(range(m)) or any(len(row) != 1 for row in adapted_rows):  # not the unit covectors in order
        constants = transform_constants(constants, adapted_rows)
    c = CochainComplex(m, k, v_dims, levels, adapted_rows, constants)
    for q in range(m):
        if not compose_is_zero(c.columns[q + 1], c.columns[q]):
            raise InternalConsistencyError(f"d_{q + 1} . d_{q} != 0 after basis adaptation")
    return c


def _wedge(x: SparseRow, y: SparseRow) -> dict[tuple[int, int], int]:
    """The 2-form x ^ y of two sparse 1-forms: its 2x2 minors at index pairs a < b."""
    return {(a, b): x.get(a, 0) * y.get(b, 0) - x.get(b, 0) * y.get(a, 0)
            for a, b in itertools.combinations(sorted(x.keys() | y.keys()), 2)}


def transform_constants(constants: Constants, change: Sequence[SparseRow]) -> dict[tuple[int, int, int], int]:
    """Integer structure constants after the dual change of basis f^a = sum_b P[a][b] e^b,
    P by its sparse rows (columns 0-based), times L^2 for the lcm L of the pivots below."""
    m = len(change)
    # the reduced rows of [P | I] are [0..L_i..0 | L_i (P^-1)_i] iff P is invertible
    kept = _eliminate([{**row, m + i: 1} for i, row in enumerate(change)])
    if any(p >= m for p in kept):
        raise InternalConsistencyError("adapted basis change is singular")
    scale = math.lcm(*(kept[i][i] for i in range(m)))
    # L e^i in the f^a (1-based): the rows of L P^-1
    old_basis = [{a - m + 1: x * (scale // kept[i][i]) for a, x in kept[i].items() if a >= m} for i in range(m)]
    wedges = {(i, l): _wedge(old_basis[i - 1], old_basis[l - 1]) for i, l, _ in constants}

    out: dict[tuple[int, int, int], int] = {}
    for jnew, prow in enumerate(change, start=1):
        # d f^jnew = sum_b P[jnew][b] de^b, with each e^i ^ e^l rewritten in the f^a
        two_form: dict[tuple[int, int], int] = {}
        for (i, l, b), cval in constants.items():
            if pb := prow.get(b - 1):
                for key, x in wedges[i, l].items():
                    two_form[key] = two_form.get(key, 0) + pb * cval * x
        out.update({(*key, jnew): coeff for key, coeff in sorted(two_form.items()) if coeff})
    return out
