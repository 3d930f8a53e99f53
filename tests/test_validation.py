"""``lie.validate_algebra``, which steps coordinate levels on bit masks,
against the level loop on subspaces that it replaced and against the same
loop with every level eliminated (``reference.level_loop_filtration``).
Each input must give an equal filtration, or the same exception type and
message.  Runs under pytest, and as a plain script where pytest is not
installed:

    PYTHONPATH=src python tests/test_validation.py
"""

import random
from collections import Counter

from algebras import random_nilpotent, sheared
from nilspec import catalog, lie
from reference import level_loop_filtration

SEED = 20261020
DRAWS = 240
# two filtrations not by coordinates, then not nilpotent: so(3) stops on a
# level read off the constants, (-12,12) on an eliminated one; Jacobi fails last
TEXTS = ["(0,0,0,12,12)", "(0,0,0,12,14+23,14)", "(23,-13,12)", "(-12,12)", "(0,0,12,13,24,34+25)"]


def _unvalidated(text: str) -> lie.LieAlgebra:
    """The algebra of a Salamon string, its constants as LieAlgebra keeps them, not validated."""
    validate = lie.validate_algebra
    lie.validate_algebra = lambda a: None
    try:
        return lie.parse_salamon(text)
    finally:
        lie.validate_algebra = validate


def _outcome(compute, *args):
    """A filtration as its level, canonical rows, pivots and series dims, or an exception as its type and message."""
    try:
        f = compute(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return f.k, [(s.rows, s.pivots) for s in f.spaces], f.series_dims


def algebras() -> list[lie.LieAlgebra]:
    rng = random.Random(SEED)
    entries = [e.algebra() for e in catalog.list_entries()]
    drawn = [random_nilpotent(rng, rng.randint(3, 10)) for _ in range(DRAWS)]
    return [*entries, *(lie.m0(m) for m in range(3, 15)), *drawn,
            *(sheared(a, rng) for a in entries), *map(_unvalidated, TEXTS)]


def test_mask_levels_equal_the_level_loop_on_subspaces():
    outcomes, by_masks = Counter(), 0
    for a in algebras():
        got = _outcome(lie.validate_algebra.__wrapped__, a)
        assert got == _outcome(level_loop_filtration, a.m, a.c), lie.to_salamon(a)
        assert got == _outcome(level_loop_filtration, a.m, a.c, False), lie.to_salamon(a)
        outcomes[got[0] if isinstance(got[0], type) else "filtration"] += 1
        by_masks += not isinstance(got[0], type) and all(len(row) == 1 for rows, _ in got[1] for row in rows)
    assert outcomes.keys() == {"filtration", lie.NotNilpotentError, lie.JacobiError}, outcomes
    # the catalog, m0(3..14) and most draws are by coordinates; the sheared copies and two texts are not
    assert 44 + 12 + DRAWS // 2 < by_masks < sum(outcomes.values()) - 44, by_masks


if __name__ == "__main__":
    test_mask_levels_equal_the_level_loop_on_subspaces()
    print("ok")
