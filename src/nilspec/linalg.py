"""Exact linear algebra over the rationals, carried out on integers.

Filtrations, cochain complexes and the closed-form page quotients reduce to
spans, sums, images and preimages of subspaces of Q^n.  A subspace is stored
as its canonical basis: the reduced row-echelon rows, each scaled to a
primitive integer vector (content 1) with a positive pivot.  That form is
unique, so two subspaces are equal as sets iff their bases are identical.

A linear map is stored as sparse integer columns.  A nonzero scalar changes
no image, preimage, kernel or rank, so callers clear denominators once and
hand over integer maps.

Every rank, span and null space goes through one fraction-free kernel on
sparse integer rows, ``_eliminate``: left to right for spans, right to left
for null spaces, and reduced to canonical rows unless only the rank counts.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from typing import Callable, Hashable, Iterable, Sequence

Row = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces or have incompatible shapes."""


def _integer_row(vector: Sequence[int], ambient_dim: int) -> list[int]:
    """A copy of an integer row, checked for length and entry type."""
    if len(vector) != ambient_dim:
        raise DimensionMismatchError("vector length differs from ambient dimension")
    row = list(vector)
    if not set(map(type, row)) <= {int}:
        raise TypeError("coordinate rows must hold ints")
    return row


# ---------------------------------------------------------------------------
# the elimination kernel
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


def _eliminate(rows: Iterable[SparseRow], lead: Callable[..., Hashable] = min,
               reduced: bool = True) -> dict[Hashable, SparseRow]:
    """Row-reduce sparse integer rows {column: nonzero value}, taken over and
    cleared in place; returns the kept rows, as many as the rank, keyed by
    their leading column (``lead``: min left to right, max right to left).

    Each row is cleared at its leading column against the rows kept so far
    until that column is new.  ``reduced`` then back-substitutes from the last
    kept row and makes every row primitive with a positive pivot.
    """
    kept: dict[Hashable, SparseRow] = {}
    for vec in rows:
        while vec:
            c = lead(vec)
            prow = kept.get(c)
            if prow is None:
                kept[c] = vec
                break
            _clear(vec, prow, c)
    if reduced:
        for c in sorted(kept, reverse=lead is min):
            prow = kept[c]
            g = math.gcd(*prow.values()) * (1 if prow[c] > 0 else -1)
            if g != 1:
                for j in prow:
                    prow[j] //= g
            for vec in kept.values():
                if c in vec and vec is not prow:
                    _clear(vec, prow, c)
    return kept


def _sparse(rows: Iterable[Sequence[int]]) -> list[SparseRow]:
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def null_space(rows: list[list[int]], ncols: int) -> Subspace:
    """``kernel`` of the matrix with the given dense integer rows.

    The columns are eliminated right to left, so a reduced row is nonzero only
    at its pivot and at free columns left of it.  The null vector of a free
    column f leads at f and is zero at every other free column: these vectors
    are already the kernel's RREF rows and, made primitive, its canonical rows.
    """
    kept = _eliminate(_sparse(rows), max)
    free = tuple(f for f in range(ncols) if f not in kept)
    basis = []
    for f in free:
        hits = [(p, row) for p, row in kept.items() if f in row]
        scale = math.lcm(*(row[p] for p, row in hits))
        vec = [0] * ncols
        vec[f] = scale
        for p, row in hits:
            vec[p] = -row[f] * (scale // row[p])
        g = math.gcd(*vec)
        basis.append(tuple([x // g for x in vec]) if g > 1 else tuple(vec))
    return Subspace(ncols, tuple(basis), free)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

class LinearMap:
    """Integer matrix of shape rows x cols, stored as sparse columns.

    ``columns[j]`` lists the nonzero entries ``(i, value)`` of column j in
    increasing row order; zero columns are absent.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: dict[int, list[tuple[int, int]]]):
        self.rows = rows
        self.cols = cols
        self.columns = {}
        for j, entries in columns.items():
            entries = sorted((i, v) for i, v in entries if v)
            if not (0 <= j < cols and all(0 <= i < rows for i, _ in entries)):
                raise DimensionMismatchError(f"entry outside the {rows}x{cols} shape")
            if entries:
                self.columns[j] = entries

    def apply(self, vector: Sequence[int]) -> list[int]:
        """Matrix-vector product; skips zero coordinates of the input."""
        if len(vector) != self.cols:
            raise DimensionMismatchError(f"vector of length {len(vector)} against {self.cols} columns")
        out = [0] * self.rows
        columns = self.columns
        for j in compress(range(self.cols), vector):
            v = vector[j]
            for i, e in columns.get(j, ()):
                out[i] += v * e
        return out

    def is_zero(self) -> bool:
        return not self.columns

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LinearMap) and self.rows == other.rows
                and self.cols == other.cols and self.columns == other.columns)

    def __repr__(self) -> str:
        return f"LinearMap({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """Linear subspace of Q^n held as its canonical basis, one integer row per vector.

    Rows are the RREF rows scaled to primitive integers with a positive
    pivot at column ``pivots[i]``.  Canonicity makes equality-of-sets the
    same as equality-of-bases, which the golden-table comparisons rely on.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: tuple[Row, ...], pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.basis)

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
        return cls(ambient_dim, tuple([(0,) * p + (1,) + (0,) * (ambient_dim - 1 - p) for p in pos]), pos)

    def _residual(self, vector: Sequence[int]) -> tuple[int, list[int]]:
        """``(s, s*vector - w)`` with w in this subspace, s > 0, zero at every pivot.

        The residual is zero iff ``vector`` lies in the subspace.
        """
        vec = list(vector)
        scale = 1
        for row, p in zip(self.basis, self.pivots):
            f = vec[p]
            if f:
                piv = row[p]
                if piv != 1:
                    g = math.gcd(f, piv)
                    a, f = piv // g, f // g
                    vec = [a * x for x in vec]
                    scale *= a
                for j in range(p, self.ambient_dim):
                    if row[j]:
                        vec[j] -= f * row[j]
        return scale, vec

    def contains_vector(self, vector: Sequence[int]) -> bool:
        """Whether an integer row lies in the subspace."""
        return not any(self._residual(_integer_row(vector, self.ambient_dim))[1])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def span(vectors: Iterable[Sequence[int]], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given integer coordinate rows."""
    return _span(_sparse(_integer_row(v, ambient_dim) for v in vectors), ambient_dim)


def _span(rows: Iterable[SparseRow], ambient_dim: int) -> Subspace:
    """``span`` of sparse integer rows of Q^ambient_dim, unchecked and taken over."""
    kept = _eliminate(rows)
    pivots = sorted(kept)
    basis = tuple(tuple(map(kept[p].get, range(ambient_dim), repeat(0))) for p in pivots)
    return Subspace(ambient_dim, basis, tuple(pivots))


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
    return span(a.basis + b.basis, a.ambient_dim)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subset of a."""
    _check_same_ambient(a, b)
    if b.dim > a.dim:
        return False
    return all(not any(a._residual(row)[1]) for row in b.basis)


def image(m: LinearMap, domain: Subspace) -> Subspace:
    """Span of ``m`` applied to a basis of ``domain``; lives in Q^(m.rows)."""
    _check_domain(m, domain)
    return span([m.apply(row) for row in domain.basis], m.rows)


def preimage(m: LinearMap, target: Subspace, domain: Subspace) -> Subspace:
    """Largest subspace {x in domain : m x in target}, canonical."""
    _check_domain(m, domain)
    if m.rows != target.ambient_dim:
        raise DimensionMismatchError(f"map with {m.rows} rows against target ambient {target.ambient_dim}")
    t = domain.dim
    if t == 0 or target.dim == target.ambient_dim:
        return domain
    # residual i is s_i * m b_i minus a target vector, zero on the target's
    # pivots; sum c'_i residual_i = 0 iff sum s_i c'_i m b_i lies in the target
    scales, residuals = zip(*(target._residual(m.apply(row)) for row in domain.basis))
    pivot_set = set(target.pivots)
    constraint_rows = []
    for c in range(m.rows):
        if c in pivot_set:
            continue
        row = [res[c] for res in residuals]
        if any(row):
            constraint_rows.append(row)
    supports = [[(j, s * brow[j]) for j in compress(range(len(brow)), brow)]
                for s, brow in zip(scales, domain.basis)]
    vectors = []
    for coeffs in null_space(constraint_rows, t).basis:
        vec = [0] * domain.ambient_dim
        for ci, support in zip(coeffs, supports):
            if ci:
                for j, x in support:
                    vec[j] += ci * x
        vectors.append(vec)
    return span(vectors, domain.ambient_dim)


def kernel(m: LinearMap) -> Subspace:
    """Right kernel {x : m x = 0} as a canonical subspace of Q^(m.cols)."""
    rows = [[0] * m.cols for _ in range(m.rows)]
    for j, entries in m.columns.items():
        for i, v in entries:
            rows[i][j] = v
    return null_space(rows, m.cols)


def rank(m: LinearMap) -> int:
    return len(_eliminate([dict(entries) for entries in m.columns.values()], reduced=False))
