"""Exact linear algebra over the rationals, carried out on integers.

Filtrations, cochain complexes and the closed-form page quotients reduce to
spans, sums, images and preimages of subspaces of Q^n.  Every row is a sparse
integer row {column: nonzero value}, and so is every column: the package
stores and returns no other vector format.  A subspace is stored as its
canonical rows: the reduced row-echelon rows, each scaled to a primitive
integer vector (content 1) with a positive pivot.  That form is unique, so
two subspaces are equal as sets iff their rows are equal.

Two input edges take other formats: ``span`` takes dense integer rows, and
the ``LinearMap`` constructor takes each column as (row, value) pairs.  A
``LinearMap`` is a shape and sparse integer columns, which ``image``,
``preimage`` and ``rank`` take (``null_space`` takes the columns).  A nonzero
scalar changes none of them, so callers clear denominators once.

Every rank, span, null space and preimage goes through one fraction-free
elimination on sparse integer rows, ``_eliminate``, leading at the least
column and reduced to canonical rows unless only the rank counts; null
vectors are read off marker rows, as an inverse is read off [P | I].
``contains`` clears with the same step, ``_clear``: v lies in s iff
``contains(s, span([v], n))``.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces or have incompatible shapes."""


def _integer_row(vector: Sequence[int], ambient_dim: int) -> SparseRow:
    """A dense integer row, checked for length and entry type, as a sparse row."""
    if len(vector) != ambient_dim:
        raise DimensionMismatchError("vector length differs from ambient dimension")
    if not set(map(type, vector)) <= {int}:
        raise TypeError("coordinate rows must hold ints")
    return {j: v for j, v in enumerate(vector) if v}


# ---------------------------------------------------------------------------
# the elimination
# ---------------------------------------------------------------------------

SparseRow = dict[Hashable, int]


def _clear(vec: SparseRow, prow: SparseRow, c: Hashable) -> None:
    """Clear column c of vec against prow in place, fraction-free: a plain
    multiple of prow for a +-1 pivot, else cross-multiplied with the content
    divided out."""
    f, piv = vec[c], prow[c]
    if piv == 1 or piv == -1:
        a, f = 1, f * piv
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
    if a != 1 and vec and (g := math.gcd(*vec.values())) > 1:
        for j in vec:
            vec[j] //= g


def _eliminate(rows: Iterable[SparseRow], reduced: bool = True) -> dict[Hashable, SparseRow]:
    """Row-reduce sparse integer rows {column: nonzero value}, taken over and
    cleared in place; returns the kept rows, as many as the rank, keyed by
    their leading (least) column.

    Each row is cleared at its leading column against the rows kept so far
    until that column is new.  ``reduced`` then back-substitutes from the last
    kept row and makes every row primitive with a positive pivot.
    """
    kept: dict[Hashable, SparseRow] = {}
    for vec in rows:
        while vec:
            c = min(vec)
            prow = kept.get(c)
            if prow is None:
                kept[c] = vec
                break
            _clear(vec, prow, c)
    if reduced:
        for c in sorted(kept, reverse=True):
            prow = kept[c]
            g = math.gcd(*prow.values()) * (1 if prow[c] > 0 else -1)
            if g != 1:
                for j in prow:
                    prow[j] //= g
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
            col = {i: v for i, v in merged.items() if v}
            if not (0 <= j < cols and all(0 <= i < rows for i in col)):
                raise DimensionMismatchError(f"entry outside the {rows}x{cols} shape")
            if col:
                self.columns[j] = col


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """Linear subspace of Q^n held as its canonical rows, one sparse integer row per vector.

    ``rows[i]`` is an RREF row scaled to a primitive integer vector with a
    positive pivot at column ``pivots[i]``, stored as {column: nonzero value}.
    Canonicity makes equality-of-sets the same as equality-of-rows, which the
    golden-table comparisons rely on.  A vector lies in the subspace iff ``_clear`` at every pivot leaves nothing.
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
    """Canonical subspace spanned by the given integer coordinate rows."""
    return _span([_integer_row(v, ambient_dim) for v in vectors], ambient_dim)


def _span(rows: Iterable[SparseRow], ambient_dim: int) -> Subspace:
    """``span`` of sparse integer rows of Q^ambient_dim, unchecked and taken over."""
    kept = _eliminate(rows)
    pivots = tuple(sorted(kept))
    return Subspace(ambient_dim, tuple(map(kept.get, pivots)), pivots)


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")


def _check_domain(m: LinearMap, domain: Subspace) -> None:
    if m.cols != domain.ambient_dim:
        raise DimensionMismatchError(f"map with {m.cols} columns applied to ambient {domain.ambient_dim}")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    if b.dim == 0:
        return a
    if a.dim == 0:
        return b
    return _span(list(map(dict, a.rows + b.rows)), a.ambient_dim)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subset of a."""
    _check_same_ambient(a, b)
    if b.dim > a.dim:
        return False
    return all(a._holds(dict(row)) for row in b.rows)


def image(m: LinearMap, domain: Subspace) -> Subspace:
    """Span of ``m`` applied to a basis of ``domain``; lives in Q^(m.rows)."""
    _check_domain(m, domain)
    return _span([_apply(m.columns, row) for row in domain.rows], m.rows)


def preimage(m: LinearMap, target: Subspace, domain: Subspace) -> Subspace:
    """Largest subspace {x in domain : m x in target}, canonical: each m b_i,
    b_i a canonical row of the domain, is marked with b_i and the target rows
    are unmarked, so the marker parts are already preimage vectors."""
    _check_domain(m, domain)
    if m.rows != target.ambient_dim:
        raise DimensionMismatchError(f"map with {m.rows} rows against target ambient {target.ambient_dim}")
    if domain.dim == 0 or target.dim == target.ambient_dim:
        return domain
    marked = [_apply(m.columns, b) | {m.rows + j: v for j, v in b.items()} for b in domain.rows]
    return _marked_null([*map(dict, target.rows), *marked], m.rows, domain.ambient_dim)


def rank(m: LinearMap) -> int:
    return len(_eliminate(list(map(dict, m.columns.values())), reduced=False))
