"""Shared fixtures: cached catalog tables and seeded random nilpotent algebras.

The generators live in ``algebras.py``, which does not import pytest; they
are imported here under their old names for the tests that take them from
this module.
"""

import random

import pytest

from algebras import index_positions, random_nilpotent, reversed_twin, sheared  # noqa: F401
from nilspec import catalog, spectral


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: random.Random(seed)


@pytest.fixture(scope="session")
def random_algebras_dim7():
    """The 50 randomized nilpotent algebras of dimension <= 7 (fixed seed)."""
    rng = random.Random(0xD1FF)
    return [random_nilpotent(rng, rng.randint(3, 7)) for _ in range(50)]


@pytest.fixture(scope="session")
def random_algebras_dim10():
    """200 randomized nilpotent algebras of dimension 3-10 (fixed seed)."""
    rng = random.Random(0x5EED)
    return [random_nilpotent(rng, rng.randint(3, 10)) for _ in range(200)]


@pytest.fixture(scope="session")
def random_algebras_dim5():
    """The 20 randomized dimension <= 5 algebras for the oracle comparison."""
    rng = random.Random(0xACE5)
    return [random_nilpotent(rng, rng.randint(3, 5)) for _ in range(20)]


@pytest.fixture(scope="session")
def twins_dim7(random_algebras_dim7):
    """``reversed_twin`` of each of the 50 dimension <= 7 algebras, in order."""
    return [reversed_twin(a) for a in random_algebras_dim7]


@pytest.fixture(scope="session")
def twins_dim10(random_algebras_dim10):
    """``reversed_twin`` of each of the 200 dimension 3-10 algebras, in order."""
    return [reversed_twin(a) for a in random_algebras_dim10]


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
