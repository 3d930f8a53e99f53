"""Exact linear algebra over the rationals, carried out on integers.

Filtrations, cochain complexes and the closed-form page quotients reduce to
spans, sums, images and preimages of subspaces of Q^n.  A subspace is stored
as its canonical basis: the reduced row-echelon rows, each scaled to a
primitive integer vector (content 1) with a positive pivot.  That form is
unique, so two subspaces are equal as sets iff their bases are identical.

A linear map is stored as sparse integer columns.  A nonzero scalar changes
no image, preimage, kernel or rank, so callers clear denominators once and
hand over integer maps.  Elimination is fraction-free: cross-multiplication
plus gcd normalisation.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Hashable, Iterable, Mapping, Sequence

Row = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces or have incompatible shapes."""


def _unit_row(n: int, p: int) -> Row:
    """The unit row of Q^n with its 1 at position p."""
    return (0,) * p + (1,) + (0,) * (n - 1 - p)


def _integer_row(vector: Sequence[int], ambient_dim: int) -> list[int]:
    """A copy of an integer row, checked for length and entry type."""
    if len(vector) != ambient_dim:
        raise DimensionMismatchError("vector length differs from ambient dimension")
    row = list(vector)
    if not set(map(type, row)) <= {int}:
        raise TypeError("coordinate rows must hold ints")
    return row


# ---------------------------------------------------------------------------
# integer-row reduction core
# ---------------------------------------------------------------------------

def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on integer rows (reduced in place); returns rows and pivot columns.

    Returned rows are in echelon order with positive pivot entries and zeros
    above and below every pivot; zero rows are dropped.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        best = -1
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                if best < 0 or abs(v) < abs(rows[best][c]):
                    best = i
                    if abs(v) == 1:
                        break
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        if prow[c] < 0:
            prow = rows[r] = [-x for x in prow]
        piv = prow[c]
        support = [j for j in range(c, ncols) if prow[j]]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if not f:
                continue
            if piv == 1:
                for j in support:
                    row[j] -= f * prow[j]
            else:
                g = math.gcd(f, piv)
                a = piv // g
                b = f // g
                if a != 1:
                    for j in range(ncols):
                        if row[j]:
                            row[j] *= a
                for j in support:
                    row[j] -= b * prow[j]
                g = 0
                for x in row:
                    if x:
                        g = math.gcd(g, x)
                        if g == 1:
                            break
                if g > 1:
                    rows[i] = [x // g for x in row]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def null_space(rows: list[list[int]], ncols: int) -> Subspace:
    """``kernel`` of the matrix with the given dense integer rows.

    A free column that no reduced row touches has its unit vector as null vector.
    """
    last = ncols - 1
    reduced, pivots = _echelon([row[::-1] for row in rows], ncols)
    pivot_set = set(pivots)
    free = tuple(f for f in range(ncols) if last - f not in pivot_set)
    basis = []
    for f in free:
        hits = [(row, p) for row, p in zip(reduced, pivots) if row[last - f]]
        if not hits:
            basis.append(_unit_row(ncols, f))
            continue
        scale = math.lcm(*(row[p] for row, p in hits))
        vec = [0] * ncols
        vec[f] = scale
        for row, p in hits:
            vec[last - p] = -row[last - f] * (scale // row[p])
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
        return cls(ambient_dim, tuple([_unit_row(ambient_dim, p) for p in pos]), pos)

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
    return _span([_integer_row(v, ambient_dim) for v in vectors], ambient_dim)


def _span(rows: list[list[int]], ambient_dim: int) -> Subspace:
    """``span`` of fresh int lists of length ambient_dim, unchecked and reduced in place."""
    reduced, pivots = _echelon(rows, ambient_dim)
    basis = []
    for row in reduced:
        g = math.gcd(*row)
        basis.append(tuple([x // g for x in row]) if g > 1 else tuple(row))
    return Subspace(ambient_dim, tuple(basis), tuple(pivots))


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


def _dense_rows(m: LinearMap) -> list[list[int]]:
    rows = [[0] * m.cols for _ in range(m.rows)]
    for j, entries in m.columns.items():
        for i, v in entries:
            rows[i][j] = v
    return rows


def kernel(m: LinearMap) -> Subspace:
    """Right kernel {x : m x = 0} as a canonical subspace of Q^(m.cols).

    With the columns eliminated right to left, a reduced row is nonzero only
    at its pivot and at free columns left of it.  So the null vector of a free
    column f leads at f and is zero at every other free column: these vectors
    are already the kernel's RREF rows and, made primitive, its canonical rows.
    """
    return null_space(_dense_rows(m), m.cols)


def rank(m: LinearMap) -> int:
    return len(_echelon(_dense_rows(m), m.cols)[1])


def sparse_rank(rows: Iterable[Mapping[Hashable, int]]) -> int:
    """Rank of sparse integer rows {column: value}: each row is reduced against
    the rows kept so far at its leading column, fraction-free (cross-multiplied,
    content divided out), and kept if anything is left."""
    pivots: dict[Hashable, dict[Hashable, int]] = {}
    for row in rows:
        vec = {j: v for j, v in row.items() if v}
        while vec:
            lead = min(vec)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = vec
                break
            g = math.gcd(vec[lead], prow[lead])
            a, b = prow[lead] // g, vec[lead] // g
            vec = {j: x for j in vec.keys() | prow.keys() if (x := a * vec.get(j, 0) - b * prow.get(j, 0))}
            g = math.gcd(*vec.values())
            vec = {j: x // g for j, x in vec.items()} if g > 1 else vec
    return len(pivots)
