"""Shared fixtures: cached catalog tables and a random nilpotent generator.

Random algebras are built by extension: de^j is drawn from the closed
2-forms of the algebra generated so far on e^1..e^(j-1).  That makes d.d = 0
hold by construction and keeps the differential strictly triangular, so the
result is always a valid nilpotent Lie algebra in an adapted basis.
"""

import random
from fractions import Fraction

import pytest

from nilspec import catalog, lie, spectral
from nilspec.exterior import clear_denominators, differential_columns, multi_indices
from nilspec.linalg import LinearMap, kernel

_COEFF_POOL = [0, 0, 0, 0, 1, 1, -1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]


def random_nilpotent(rng: random.Random, m: int) -> lie.LieAlgebra:
    constants: dict[tuple[int, int, int], Fraction] = {}
    for j in range(3, m + 1):
        sub = {key: v for key, v in constants.items() if key[2] < j}
        n = j - 1
        pairs = multi_indices(n, 2)
        cols = differential_columns(n, clear_denominators(sub)[0], 2)
        closed = kernel(LinearMap(len(multi_indices(n, 3)), len(pairs), cols))
        if closed.dim == 0:
            continue
        vec = [Fraction(0)] * len(pairs)
        for basis_row in closed.basis:
            c = Fraction(rng.choice(_COEFF_POOL))
            if c:
                # combine the RREF rows with pivot 1, as scaled by the kernel
                pivot = next(x for x in basis_row if x)
                for t, x in enumerate(basis_row):
                    if x:
                        vec[t] += c * Fraction(x, pivot)
        for (a, b), val in zip(pairs, vec):
            if val:
                constants[(a, b, j)] = val
    return lie.LieAlgebra(m, constants)


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: random.Random(seed)


@pytest.fixture(scope="session")
def random_algebras_dim7():
    """The 50 randomized nilpotent algebras of dimension <= 7 (fixed seed)."""
    rng = random.Random(0xD1FF)
    return [random_nilpotent(rng, rng.randint(3, 7)) for _ in range(50)]


@pytest.fixture(scope="session")
def random_algebras_dim5():
    """The 20 randomized dimension <= 5 algebras for the oracle comparison."""
    rng = random.Random(0xACE5)
    return [random_nilpotent(rng, rng.randint(3, 5)) for _ in range(20)]


@pytest.fixture(scope="session")
def catalog_entries():
    return catalog.list_entries()


@pytest.fixture(scope="session")
def catalog_tables(catalog_entries):
    """id -> (entry, algebra, complex, table)."""
    out = {}
    for e in catalog_entries:
        algebra = e.algebra()
        comp = spectral.complex_for(algebra)
        table = spectral.full_table(comp)
        out[e.id] = (e, algebra, comp, table)
    return out
