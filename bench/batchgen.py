"""Seeded input file for the random_batch workload.

The generator is self-contained (standard library only), so the same seed
gives the same file byte for byte whatever the package under test does to
its own linear algebra.  Algebras are built by extension, as in the test
suite's ``random_nilpotent``: de^j is a random combination of the canonical
basis of closed 2-forms on e^1..e^(j-1), which makes d.d = 0 hold by
construction and the result nilpotent.

A batch holds fixed numbers of algebras per lower central series (its
dimensions, which fix m and the nilpotency step): the cost of an algebra
depends mostly on that series, so the cost of a pass stays close across
seeds.  Each algebra is relabelled so that e^1 (always closed) becomes e^m.
That keeps the adapted basis of the annihilator filtration away from the
identity, so the basis-change path of ``build_complex`` runs on every line.
A share of the algebras gets a "relabelled twin" (another basis permutation
of the same algebra, whose table must be identical), and three lines must be
rejected: a syntax error (exit 2), a non-nilpotent algebra and a Jacobi
violation (both exit 3).
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations

COEFF_POOL = [0, 0, 0, 0, 1, 1, -1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]

# (dimensions of the lower central series g, [g, g], ..., algebras, how many
# of them get a twin).  The cost of an algebra is set mostly by that series,
# so fixed counts per series keep the cost of a pass close across seeds.
DEFAULT_STRATA = (
    ((7, 5, 4, 3, 2), 3, 1), ((7, 5, 4, 2, 1), 3, 0), ((7, 4, 3, 2, 1), 3, 1), ((7, 4, 3, 1), 3, 0),
    ((8, 6, 5, 4, 3, 1), 3, 1), ((8, 5, 4, 2, 1), 3, 1), ((8, 6, 5, 3, 2), 2, 1),
)
MAX_DRAWS = 10_000
REJECTED = (("(23,31,12)", 3), ("(0,0,12,34)", 3))

Constants = dict[tuple[int, int, int], Fraction]


def _sorted_sign(indices: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign of the sorting permutation and the sorted tuple; None on a repeat."""
    if len(set(indices)) != len(indices):
        return None
    items = list(indices)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign, tuple(items)


def _closed_two_forms(n: int, constants: Constants) -> list[list[Fraction]]:
    """Canonical (reduced row-echelon) basis of the closed 2-forms on e^1..e^n,
    one coefficient row per basis form over the pairs in lexicographic order."""
    pairs = list(combinations(range(1, n + 1), 2))
    triples = {t: r for r, t in enumerate(combinations(range(1, n + 1), 3))}
    de: dict[int, list[tuple[int, int, Fraction]]] = {}
    for (i, j, k), c in constants.items():
        de.setdefault(k, []).append((i, j, c))
    # d(e^a ^ e^b) = de^a ^ e^b - e^a ^ de^b, one column per pair
    grid = [[Fraction(0)] * len(pairs) for _ in triples]
    for col, (a, b) in enumerate(pairs):
        for (x, y, c) in de.get(a, ()):
            hit = _sorted_sign((x, y, b))
            if hit:
                grid[triples[hit[1]]][col] += c * hit[0]
        for (x, y, c) in de.get(b, ()):
            hit = _sorted_sign((a, x, y))
            if hit:
                grid[triples[hit[1]]][col] -= c * hit[0]
    reduced, pivots = _rref(grid, len(pairs))
    basis = []
    for free in (c for c in range(len(pairs)) if c not in pivots):
        vec = [Fraction(0)] * len(pairs)
        vec[free] = Fraction(1)
        for row, pcol in zip(reduced, pivots):
            vec[pcol] = -row[free]
        basis.append(vec)
    return _rref(basis, len(pairs))[0]


def _rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form (nonzero rows only) and its pivot columns."""
    rows = [row[:] for row in rows if any(row)]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def random_nilpotent(rng: random.Random, m: int) -> Constants:
    """Structure constants c[(i, j, k)] (i < j) of a random nilpotent algebra
    in a strictly triangular basis; the same draws as the test suite's
    generator of that name."""
    constants: Constants = {}
    for j in range(3, m + 1):
        n = j - 1
        closed = _closed_two_forms(n, constants)
        if not closed:
            continue
        pairs = list(combinations(range(1, n + 1), 2))
        vec = [Fraction(0)] * len(pairs)
        for basis_row in closed:
            c = Fraction(rng.choice(COEFF_POOL))
            if c:
                for t, x in enumerate(basis_row):
                    if x:
                        vec[t] += c * x
        for (a, b), val in zip(pairs, vec):
            if val:
                constants[(a, b, j)] = val
    return constants


def lower_central_dims(m: int, constants: Constants) -> tuple[int, ...]:
    """Dimensions of the nonzero terms of the lower central series g, [g, g], ...;
    their number is the nilpotency step."""
    brackets: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (i, j, k), c in constants.items():
        brackets.setdefault((i, j), []).append((k, c))
        brackets.setdefault((j, i), []).append((k, -c))
    term = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    dims: list[int] = []
    while term:
        dims.append(len(term))
        nxt = []
        for a in range(1, m + 1):
            for row in term:
                vec = [Fraction(0)] * m
                for b, x in enumerate(row, start=1):
                    for k, c in brackets.get((a, b), ()) if x else ():
                        vec[k - 1] += x * c
                nxt.append(vec)
        term = _rref(nxt, m)[0]
    return tuple(dims)


def relabel(constants: Constants, perm: dict[int, int]) -> Constants:
    """The same algebra with basis vector e_i renamed e_perm[i]."""
    out: Constants = {}
    for (i, j, k), c in constants.items():
        a, b = perm[i], perm[j]
        if a > b:
            a, b, c = b, a, -c
        out[(a, b, perm[k])] = c
    return out


def salamon(m: int, constants: Constants) -> str:
    """Salamon notation: de^1, ..., de^m with terms in lexicographic order."""
    entries = []
    for k in range(1, m + 1):
        parts = []
        for (i, j, kk), c in sorted(constants.items()):
            if kk != k:
                continue
            pair = f"{i}{j}" if m <= 9 else f"{i}.{j}"
            body = pair if c == 1 else f"-{pair}" if c == -1 else f"{c}*{pair}"
            parts.append(body if not parts or body.startswith("-") else "+" + body)
        entries.append("".join(parts) or "0")
    return "(" + ",".join(entries) + ")"


def _permutation(rng: random.Random, m: int, first_to_last: bool) -> dict[int, int]:
    while True:
        targets = list(range(1, m + 1))
        rng.shuffle(targets)
        perm = dict(zip(range(1, m + 1), targets))
        if first_to_last and perm[1] != m:
            perm[1], perm[targets.index(m) + 1] = m, perm[1]
        if any(perm[i] != i for i in perm):
            return perm


def make_batch(seed: int, strata=DEFAULT_STRATA) -> tuple[list[str], list[dict]]:
    """Batch lines and, per line, what it must produce.

    A line's record is {"kind": "algebra"}, {"kind": "twin", "of": line
    index of its original} or {"kind": "reject", "exit": code}.
    """
    rng = random.Random(seed)
    items: list[tuple[str, str, int]] = []  # (line, kind, original's number or exit code)
    originals: list[str] = []
    for series, count, twins in strata:
        m = series[0]
        made = draws = 0
        while made < count:
            draws += 1
            if draws > MAX_DRAWS:
                raise ValueError(f"no {count} algebras with lower central series {series} "
                                 f"in {MAX_DRAWS} draws")
            constants = random_nilpotent(rng, m)
            if lower_central_dims(m, constants) != series:
                continue
            constants = relabel(constants, _permutation(rng, m, first_to_last=True))
            line = salamon(m, constants)
            items.append((line, "algebra", len(originals)))
            if made < twins:
                twin = relabel(constants, _permutation(rng, m, first_to_last=False))
                items.append((salamon(m, twin), "twin", len(originals)))
            originals.append(line)
            made += 1
    broken = originals[rng.randrange(len(originals))][:-1]  # drop the ')'
    items += [(broken, "reject", 2)] + [(line, "reject", code) for line, code in REJECTED]
    rng.shuffle(items)
    where = {x: n for n, (_, kind, x) in enumerate(items) if kind == "algebra"}
    records = [{"kind": kind, "exit": x} if kind == "reject"
               else {"kind": kind, "of": where[x]} if kind == "twin"
               else {"kind": kind}
               for _, kind, x in items]
    return [line for line, _, _ in items], records


def batch_text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
