"""Exact linear algebra over the rationals, carried out on integers.

Filtrations and cochain complexes reduce to spans and null spaces of
subspaces of Q^n, and the top-degree check to a forward rank.  Every
vector stored or returned is a sparse integer row {column: nonzero value}.
A subspace is stored as its canonical rows: the reduced row-echelon rows,
each scaled to a primitive integer vector (content 1) with a positive
pivot.  That form is unique, so two subspaces are equal as sets iff their
rows are equal.  A nonzero scalar changes no span or null space, so
callers clear denominators once.

Every span, rank, null space and preimage goes through one fraction-free
elimination on sparse integer rows, ``_eliminate``, leading at the least
column and reduced to canonical rows unless only the rank counts; null
vectors are read off marker rows, as an inverse is read off [P | I].
Every elimination, the persistence pairing of ``spectral._bars`` included,
clears a column through one step, ``_clear``, which divides no content out;
the caller that keeps a row sets its content with ``_primitive``.

The subspace calculus (``LinearMap``, ``span``, ``subspace_sum``,
``contains``, ``image``, ``preimage``, ``rank``) is the paper's A-space
quotient, which no command runs: the reference engine in
``tests/reference.py`` calls it, and the benchmark's tracer
(``bench/tracing.py``) wraps ``span`` here and the other names where
``spectral`` and ``exterior`` import them.  It takes two other input
formats, dense integer rows in ``span`` and (row, value) pairs per column in
the ``LinearMap`` constructor, and checks no shapes or entry types.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence


# ---------------------------------------------------------------------------
# the elimination
# ---------------------------------------------------------------------------

SparseRow = dict[Hashable, int]


def _clear(vec: SparseRow, prow: SparseRow, c: Hashable) -> None:
    """Clear column c of vec against prow in place, fraction-free: a plain
    multiple of prow for a +-1 pivot, else one after vec is scaled by the
    least factor that makes it one; no content is divided out."""
    f, piv = vec[c], prow[c]
    if piv == 1 or piv == -1:
        f *= piv
    else:
        g = math.gcd(f, piv)
        a, f = piv // g, f // g
        if a != 1:
            for j in vec:
                vec[j] *= a
    for j, x in prow.items():
        if v := vec.get(j, 0) - f * x:
            vec[j] = v
        else:
            del vec[j]


def _primitive(vec: SparseRow, c: Hashable) -> SparseRow:
    """vec divided by its content, signed so that its entry at c is positive:
    vec itself when that changes nothing, else a new row."""
    g = math.gcd(*vec.values()) * (1 if vec[c] > 0 else -1)
    return vec if g == 1 else {j: v // g for j, v in vec.items()}


def _eliminate(rows: Iterable[SparseRow], reduced: bool = True) -> dict[Hashable, SparseRow]:
    """Row-reduce sparse integer rows {column: nonzero value}, taken over and
    cleared in place; returns the kept rows, as many as the rank, keyed by
    their leading (least) column.

    Each row is cleared at its leading column against the rows kept so far
    until that column is new, and made primitive with a positive lead if that
    lead is not +-1.  ``reduced`` then back-substitutes from the last kept row,
    making each row primitive with a positive pivot at its turn (its last change).
    """
    kept: dict[Hashable, SparseRow] = {}
    for vec in rows:
        while vec:
            c = min(vec)
            prow = kept.get(c)
            if prow is None:
                kept[c] = vec if vec[c] == 1 or vec[c] == -1 else _primitive(vec, c)
                break
            _clear(vec, prow, c)
    if reduced:
        for c in sorted(kept, reverse=True):
            kept[c] = prow = _primitive(kept[c], c)
            for vec in kept.values():
                if c in vec and vec is not prow:
                    _clear(vec, prow, c)
    return kept


def _marked_null(rows: Iterable[SparseRow], height: int, ambient_dim: int) -> Subspace:
    """Span of the marker parts (columns height and up, shifted down by
    height) of the combinations of ``rows`` that vanish left of height, taken
    over: after the forward elimination, the kept rows that lead there."""
    kept = _eliminate(rows, reduced=False)
    return _span([{j - height: v for j, v in row.items()} for c, row in kept.items() if c >= height], ambient_dim)


def null_space(columns: Mapping[int, SparseRow], height: int, width: int) -> Subspace:
    """The x in Q^width with sum x_i columns[i] = 0, canonical; a column is
    given by its nonzero entries {row < height: value}, and one absent from
    ``columns`` is zero.  Column i is marked with a 1 at row height + i."""
    return _marked_null([columns.get(i, {}) | {height + i: 1} for i in range(width)], height, width)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

def _apply(columns: Mapping[int, SparseRow], row: SparseRow) -> SparseRow:
    """Sparse columns applied to a sparse row; a column absent from them is zero."""
    out: SparseRow = {}
    for j, v in row.items():
        for i, e in columns.get(j, {}).items():
            out[i] = out.get(i, 0) + v * e
    return {i: x for i, x in out.items() if x}


class LinearMap:
    """Integer matrix of shape rows x cols, stored as sparse columns.

    The constructor takes each column j as ``(i, value)`` pairs and sums the
    values given for one row; ``columns[j]`` then holds the nonzero entries
    of column j as {i: value}, and zero columns are absent.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: Mapping[int, Iterable[tuple[int, int]]]):
        self.rows = rows
        self.cols = cols
        self.columns = {}
        for j, entries in columns.items():
            merged: SparseRow = {}
            for i, v in entries:
                merged[i] = merged.get(i, 0) + v
            if col := {i: v for i, v in merged.items() if v}:
                self.columns[j] = col


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """Linear subspace of Q^n held as its canonical rows, one sparse integer row per vector.

    ``rows[i]`` is an RREF row scaled to a primitive integer vector with a
    positive pivot at column ``pivots[i]``, stored as {column: nonzero value}.
    Three users rely on canonical rows: ``build_complex`` takes the rows of
    V_i at pivots new to V_i as adapted covectors, ``lie._next_dual`` reads
    the annihilator of V_(i-1) off its rows, and ``==`` compares rows, so
    equality as sets is equality of rows.  A vector lies in the subspace iff
    ``_clear`` at every pivot leaves nothing.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: tuple[SparseRow, ...], pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls.coordinate(range(ambient_dim), ambient_dim)

    @classmethod
    def coordinate(cls, positions: Iterable[int], ambient_dim: int) -> Subspace:
        """Span of the unit vectors at the given coordinate positions."""
        pos = tuple(sorted(set(positions)))
        return cls(ambient_dim, tuple({p: 1} for p in pos), pos)

    def _holds(self, vec: SparseRow) -> bool:
        """Whether a sparse row lies in the subspace; clears it in place."""
        for row, p in zip(self.rows, self.pivots):
            if p in vec:
                _clear(vec, row, p)
        return not vec

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def span(vectors: Iterable[Sequence[int]], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by dense integer rows of length ambient_dim."""
    return _span([{j: v for j, v in enumerate(vector) if v} for vector in vectors], ambient_dim)


def _span(rows: Iterable[SparseRow], ambient_dim: int) -> Subspace:
    """The canonical subspace spanned by sparse integer rows of Q^ambient_dim, taken over."""
    kept = _eliminate(rows)
    pivots = tuple(sorted(kept))
    return Subspace(ambient_dim, tuple(map(kept.get, pivots)), pivots)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if b.dim == 0:
        return a
    if a.dim == 0:
        return b
    return _span(list(map(dict, a.rows + b.rows)), a.ambient_dim)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subset of a."""
    if b.dim > a.dim:
        return False
    return all(a._holds(dict(row)) for row in b.rows)


def image(m: LinearMap, domain: Subspace) -> Subspace:
    """Span of ``m`` applied to a basis of ``domain``; lives in Q^(m.rows)."""
    return _span([_apply(m.columns, row) for row in domain.rows], m.rows)


def preimage(m: LinearMap, target: Subspace, domain: Subspace) -> Subspace:
    """Largest subspace {x in domain : m x in target}, canonical: each m b_i,
    b_i a canonical row of the domain, is marked with b_i and the target rows
    are unmarked, so the marker parts are already preimage vectors."""
    if domain.dim == 0 or target.dim == target.ambient_dim:
        return domain
    marked = [_apply(m.columns, b) | {m.rows + j: v for j, v in b.items()} for b in domain.rows]
    return _marked_null([*map(dict, target.rows), *marked], m.rows, domain.ambient_dim)


def rank(m: LinearMap) -> int:
    return len(_eliminate(list(map(dict, m.columns.values())), reduced=False))
