"""Seeded random nilpotent algebras and changes of basis, shared by the tests.

Random algebras are built by extension: de^j is drawn from the closed
2-forms of the algebra generated so far on e^1..e^(j-1).  That makes d.d = 0
hold by construction and keeps the differential strictly triangular, so the
result is always a valid nilpotent Lie algebra in an adapted basis.  Nothing
here imports pytest, so the tests that run as plain scripts can use it.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from nilspec import lie
from nilspec.exterior import clear_denominators, form_columns
from nilspec.linalg import null_space
from reference import positional_columns

_COEFF_POOL = [0, 0, 0, 0, 1, 1, -1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]


def index_positions(m: int, q: int) -> dict[tuple[int, ...], int]:
    """Lexicographic position of each q-multi-index from 1..m."""
    return {idx: pos for pos, idx in enumerate(combinations(range(1, m + 1), q))}


def random_nilpotent(rng: random.Random, m: int) -> lie.LieAlgebra:
    constants: dict[tuple[int, int, int], Fraction] = {}
    for j in range(3, m + 1):
        sub = {key: v for key, v in constants.items() if key[2] < j}
        n = j - 1
        pairs = list(combinations(range(1, n + 1), 2))
        cols = positional_columns(n, form_columns(n, clear_denominators(sub))[2])
        closed = null_space(cols, comb(n, 3), len(pairs))
        if closed.dim == 0:
            continue
        vec = [Fraction(0)] * len(pairs)
        for basis_row, p in zip(closed.rows, closed.pivots):
            c = Fraction(rng.choice(_COEFF_POOL))
            if c:
                # combine the RREF rows with pivot 1, as scaled by null_space
                for t, x in basis_row.items():
                    vec[t] += c * Fraction(x, basis_row[p])
        for (a, b), val in zip(pairs, vec):
            if val:
                constants[(a, b, j)] = val
    return lie.LieAlgebra(m, constants)


def reversed_twin(a: lie.LieAlgebra) -> lie.LieAlgebra:
    """The same algebra with its indices reversed, i -> m+1-i."""
    m = a.m
    return lie.LieAlgebra(m, {(m + 1 - i, m + 1 - j, m + 1 - k): v for (i, j, k), v in a.c.items()})


def sheared(a: lie.LieAlgebra, rng: random.Random, shears: int = 3) -> lie.LieAlgebra:
    """The algebra in a new primal basis reached by random shears
    f_i = e_i + t e_j, so that its filtration is no longer by coordinates."""
    m, constants = a.m, dict(a.c)
    for _ in range(shears if m > 1 else 0):
        i, j = rng.sample(range(1, m + 1), 2)
        t = rng.choice([-2, -1, 1, 2])

        def f(p: int) -> list[int]:  # f_p in the old basis
            return [int(l == p) + (t if p == i and l == j else 0) for l in range(1, m + 1)]

        new: dict[tuple[int, int, int], Fraction] = {}
        for p in range(1, m + 1):
            for q in range(p + 1, m + 1):
                x, y, z = f(p), f(q), [Fraction(0)] * m
                for (a1, b1, k), c in constants.items():
                    w = x[a1 - 1] * y[b1 - 1] - x[b1 - 1] * y[a1 - 1]
                    if w:
                        z[k - 1] += c * w
                z[j - 1] -= t * z[i - 1]  # e_i = f_i - t f_j
                new.update({(p, q, k): v for k, v in enumerate(z, start=1) if v})
        constants = new
    return lie.LieAlgebra(m, constants)
