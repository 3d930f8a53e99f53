"""Nilpotent Lie algebras given by structure constants.

An algebra on basis e_1..e_m is stored through the constants c_ijk (i < j)
of [e_i, e_j] = sum_k c_ijk e_k; antisymmetry is implicit.  The sign
convention is dx(u, v) = x([u, v]) on 1-forms, under which the compact
string "(0,0,12)" says de^3 = e^1 ^ e^2, i.e. c_123 = 1.

The string notation lists de^1, ..., de^m: each entry is 0 or a sum of
terms, a term being an optional sign, an optional coefficient "n*" or
"n/d*", then an index pair -- two digits for m <= 9, where leading digits
are a juxtaposed coefficient ("214" is 2*14), dot-separated like "1.10" for
m >= 10.  Digits are ASCII 0-9 only; whitespace (``str.isspace``) may
surround terms and signs.  A reversed pair denotes the reversed wedge, so
"52" contributes -e^2 ^ e^5; the published tables use this form ("34+52")
and the Jacobi identity pins the sign down.  One compiled pattern,
``_TERM``, matches a whole term with every part optional; the reader checks
its groups in the order the grammar reads them and reports an error at the
start or end of the group at fault.  Coefficients stay ints unless the
input has a '/', which alone imports ``fractions``: ``a.c`` holds an int
for every integral constant.

Every ``LieAlgebra`` is validated when it is built, once per distinct algebra
(same m and constants) per process: the constructor raises JacobiError unless
d(de^j) = 0 for every j, checked on the constants through d(e^a ^ e^b) =
de^a ^ e^b - e^a ^ de^b without building d, raises NotNilpotentError unless
the algebra is nilpotent, and stores the filtration V_0 = 0,
V_i = {x : dx in Lambda^2 V_(i-1)} of the dual, cross-checked against the
primal central descending series through annihilator duality
dim V_i + dim n^i = m.  One loop over the levels finds V_i and n^i together
and checks each pair as it is found.  While V_i and n^i are spanned by basis
vectors they are complementary int bit masks, both read off the integer
constants by one test that a forward-only ``linalg._eliminate`` decides by
rank.  From the first level where it declines, both are eliminated: V_i as an
exact kernel (w lies in Lambda^2 V iff i_u w = 0 for every u in ann(V)), n^i
as a span.

Input that does not read as an algebra raises a ``ParseError``; any other
``LieError`` refuses a well-formed input.  A pair V_i, n^i that fails the
cross-check is an engine bug: ``InternalConsistencyError``, defined here.
"""

from __future__ import annotations

import math
import re
import sys
from collections import defaultdict
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from .linalg import Subspace, _eliminate, _span, null_space

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

Constants = dict[tuple[int, int, int], "int | Fraction"]

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")  # ASCII digits, no decimals, no zero denominator
# one Salamon term: sign, digits, "/" and a denominator, "*" and the digits after it, "." and a second index
_TERM = re.compile(r"([+-]?)\s*([0-9]*)(/?)([0-9]*)(\*?)([0-9]*)(\.?)([0-9]*)\s*")


class LieError(Exception):
    """Base class for algebra construction and parsing failures."""


class ParseError(LieError):
    """Base class for input that does not read as an algebra."""


class InternalConsistencyError(RuntimeError):
    """A structural invariant failed (engine bug): the package's one such error,
    raised in ``lie``, ``exterior``, ``spectral`` and ``catalog``."""


class SalamonSyntaxError(ParseError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class IndexRangeError(ParseError):
    """An index in a bracket or differential term is outside 1..m."""


class IndexPairError(ParseError):
    """An index pair wedges a basis form with itself."""


class JacobiError(LieError):
    """The structure constants do not satisfy the Jacobi identity (d.d != 0)."""


class NotNilpotentError(LieError):
    """The central descending series stabilises at a nonzero ideal."""


class CoefficientSizeError(ParseError):
    """A summed structure constant has more digits than the interpreter prints."""


class AlgebraFormatError(ParseError):
    """A JSON algebra document is malformed."""


class Filtration(NamedTuple):
    """Annihilator filtration V_0 .. V_k of the dual, with primal series dims."""
    k: int
    spaces: tuple[Subspace, ...]
    series_dims: tuple[int, ...]


def rat(value: int | str | Fraction) -> int | Fraction:
    """An int, Fraction or decimal-free string (optional sign, ASCII digits,
    optional ``/`` and nonzero denominator) as an exact rational, an int when
    integral; an int, or a string without ``/``, never imports ``fractions``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        text = value.strip().replace("−", "-")
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"{value!r} is not a decimal-free rational")
        if "/" not in text:
            return int(text)
    from fractions import Fraction
    if isinstance(value, str):
        value = Fraction(text)
    elif not isinstance(value, Fraction):
        raise TypeError(f"cannot interpret {value!r} as a rational number")
    return value.numerator if value.denominator == 1 else value


def clear_denominators(constants: Mapping[tuple[int, int, int], Fraction | int]) -> dict[tuple[int, int, int], int]:
    """The constants times the lcm of their denominators in a new dict, a plain copy if all are ints."""
    if set(map(type, constants.values())) <= {int}:
        return dict(constants)
    scale = math.lcm(*(c.denominator for c in constants.values()))
    return {key: c.numerator * (scale // c.denominator) for key, c in constants.items()}


class LieAlgebra:
    """Immutable structure-constant presentation of a nilpotent Lie algebra."""

    __slots__ = ("m", "c", "label", "filtration", "_hash")

    def __init__(self, m: int, constants: Mapping[tuple[int, int, int], Fraction | int],
                 label: str | None = None):
        if m < 1:
            raise LieError("dimension must be at least 1")
        cleaned: Constants = {}
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        for (i, j, k), value in constants.items():
            coeff = value if type(value) is int else rat(value)  # a bool is not an int here: rat refuses it
            if not coeff:
                continue
            if not (1 <= i <= m and 1 <= j <= m and 1 <= k <= m):
                raise IndexRangeError(f"index out of range in c[{i},{j}]^{k} for dimension {m}")
            if i == j:
                raise IndexPairError(f"bracket [e_{i}, e_{i}] is identically zero")
            if i > j:
                i, j, coeff = j, i, -coeff
            key = (i, j, k)
            total = cleaned[key] + coeff if key in cleaned else coeff
            if type(total) is not int and total.denominator == 1:  # a sum of Fractions may be integral
                total = total.numerator
            big = abs(total) if type(total) is int else max(abs(total.numerator), total.denominator)
            if digits and big.bit_length() > 3 * digits and big >= 10 ** digits:  # str() refuses more digits
                raise CoefficientSizeError(f"coefficient of c[{i},{j}]^{k} has more than {digits} digits")
            if total:
                cleaned[key] = total
            else:
                cleaned.pop(key, None)
        self.m = m
        self.c = cleaned
        self.label = label
        self._hash = hash((m, tuple(sorted(cleaned.items()))))
        self.filtration = validate_algebra(self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LieAlgebra) and self.m == other.m and self.c == other.c

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"LieAlgebra(dim={self.m}{name})"


# ---------------------------------------------------------------------------
# validation and the filtration
# ---------------------------------------------------------------------------

def _next_dual(m: int, constants: Mapping[tuple[int, int, int], int], prev: Subspace) -> Subspace:
    """V_i = {x : dx in Lambda^2 V_(i-1)} from prev = V_(i-1), eliminated: a
    2-form w lies in Lambda^2 V iff i_u w = 0 for every u in ann(V), so V_i
    is the kernel of x -> (i_u dx)_u over a basis u of ann(V_(i-1)), with
    i_u (e^a ^ e^b) = u_a e^b - u_b e^a.  That basis comes straight from the
    canonical rows of V_(i-1): for each non-pivot column c,
    L e_c - sum_i (L row_i[c] / row_i[p_i]) e_(p_i), L the lcm of the row_i[p_i].
    That map goes to ``null_space`` as one column per e^k, with only the
    nonzero entries (u, e^b) that some term reaches through a nonzero u_a.
    """
    scale = math.lcm(*(row[p] for row, p in zip(prev.rows, prev.pivots)))
    # reach[a] is {t: u_a} over the basis vectors u = u_t of ann(V) with u_a != 0
    reach: list[dict[int, int]] = [{} for _ in range(m)]
    for t, c in enumerate(sorted(set(range(m)) - set(prev.pivots))):
        reach[c][t] = scale
        for row, p in zip(prev.rows, prev.pivots):
            if c in row:
                reach[p][t] = -row[c] * (scale // row[p])
    # column k-1 holds the e^b coordinate of i_u de^k at row t*m + b-1, for the t-th u
    cols: defaultdict[int, defaultdict[int, int]] = defaultdict(lambda: defaultdict(int))
    for (a, b, k), v in constants.items():
        for t, u in reach[a - 1].items():
            cols[k - 1][t * m + b - 1] += v * u
        for t, u in reach[b - 1].items():
            cols[k - 1][t * m + a - 1] -= v * u
    return null_space({k: {r: v for r, v in col.items() if v} for k, col in cols.items()}, m * m, m)


def _next_primal(m: int, constants: Mapping[tuple[int, int, int], int], prev: Subspace) -> Subspace:
    """n^i = [n, n^(i-1)] from prev = n^(i-1), eliminated as the span of the
    [e_g, x] over the canonical rows x of n^(i-1)."""
    # holds[j] is {r: x_j} over the canonical rows x = x_r of n^(i-1) with x_j != 0
    holds: list[dict[int, int]] = [{} for _ in range(m)]
    for r, row in enumerate(prev.rows):
        for j, x in row.items():
            holds[j][r] = x
    # out[r, g] is [e_g, x_r], from [e_a, e_b] = c e_k = -[e_b, e_a]
    out: defaultdict[tuple[int, int], defaultdict[int, int]] = defaultdict(lambda: defaultdict(int))
    for (a, b, k), c in constants.items():
        for r, x in holds[b - 1].items():
            out[r, a][k - 1] += c * x
        for r, x in holds[a - 1].items():
            out[r, b][k - 1] -= c * x
    return _span([{k: v for k, v in bracket.items() if v} for bracket in out.values()], m)


def _jacobi_holds(m: int, constants: Mapping[tuple[int, int, int], int]) -> bool:
    """Whether d(de^j) = 0 for every j, from d(e^a ^ e^b) = de^a ^ e^b - e^a ^ de^b.

    Each 3-form is accumulated on the bit mask of its sorted index triple,
    with the sign of the sort, so d itself is never built.
    """
    terms: list[list[tuple[int, int, int]]] = [[] for _ in range(m + 1)]  # terms[j]: (a, b, c) of de^j
    for (a, b, j), c in constants.items():
        terms[j].append((a, b, c))
    for de_j in terms:
        acc: defaultdict[int, int] = defaultdict(int)
        for a, b, c in de_j:
            for x, y, v in terms[a]:  # c v e^x ^ e^y ^ e^b
                if b != x and b != y:
                    acc[1 << x | 1 << y | 1 << b] += -c * v if (x > b) ^ (y > b) else c * v
            for x, y, v in terms[b]:  # -c v e^a ^ e^x ^ e^y
                if a != x and a != y:
                    acc[1 << a | 1 << x | 1 << y] += c * v if (a > x) ^ (a > y) else -c * v
        if any(acc.values()):
            return False
    return True


def _annihilates(v: Subspace, n: Subspace) -> bool:
    """Whether each row of v pairs to 0 with each row of n, summing over shared columns only."""
    return not any(sum(x[j] * u[j] for j in x.keys() & u.keys()) for x in v.rows for u in n.rows)


def _space(x: int | Subspace, m: int) -> Subspace:
    """A level as a Subspace, a mask as the unit vectors at its set bits: one shared Subspace per (mask, m)."""
    return x if type(x) is not int else _mask_space(x, m)


@lru_cache(maxsize=256)
def _mask_space(x: int, m: int) -> Subspace:
    return Subspace.coordinate([p for p in range(m) if x >> p & 1], m)


def _levels(m: int, constants: Mapping[tuple[int, int, int], int]) -> Iterator[tuple[int | Subspace, int | Subspace]]:
    """(V_i, n^i) for i = 1, 2, ... without end: int bit masks while they are read
    off the terms, decoded once to (mask of a and b, k, c), and Subspaces from the
    first level where that declines, eliminated by ``_next_dual`` and ``_next_primal``.
    With n^(i-1) the complement of V_(i-1), the terms with a or b in n^(i-1) are
    both the parts of the de^k off Lambda^2 V_(i-1) and the brackets that make n^i.
    If their rows per k are independent (a test that needs two rows), V_i is spanned
    by the e^k they miss and n^i by the e_k they reach: the dual test and the primal
    one (rank = number of e_k reached) read one rank, so both sides leave together."""
    full = (1 << m) - 1
    terms = [(1 << a - 1 | 1 << b - 1, k - 1, c) for (a, b, k), c in constants.items()]
    v = 0
    while True:
        off: dict[int, dict[int, int]] = {}  # k -> the terms of de^k with a or b in n^(i-1), by pair mask
        for ab, k, c in terms:
            if ab & ~v:
                off.setdefault(k, {})[ab] = c
        if len(off) > 1 and len(_eliminate(off.values(), reduced=False)) < len(off):
            break
        n = sum(1 << k for k in off)
        v = full ^ n
        yield v, n
    v, n = _space(v, m), _space(full ^ v, m)
    while True:
        v, n = _next_dual(m, constants, v), _next_primal(m, constants, n)
        yield v, n


@lru_cache(maxsize=256)
def validate_algebra(a: LieAlgebra) -> Filtration:
    """The filtration of the dual on integer constants, memoised per algebra (a
    raise is not stored).  JacobiError unless d(de^j) = 0 for every j, checked
    before any filtration work; then over ``_levels``, NotNilpotentError if V_i
    did not grow, and InternalConsistencyError unless dim V_i + dim n^i
    = m and V_i annihilates n^i (``v & n == 0`` on two masks, else ``_annihilates``)."""
    m, constants = a.m, clear_denominators(a.c)
    if not _jacobi_holds(m, constants):
        raise JacobiError("structure constants violate the Jacobi identity")
    spaces, dims = [_space(0, m)], [m]
    for i, (v, n) in enumerate(_levels(m, constants), start=1):
        on_masks = type(v) is int
        spaces.append(_space(v, m))
        dim, series_dim = (v.bit_count(), n.bit_count()) if on_masks else (v.dim, n.dim)
        dims.append(series_dim)
        if dim == len(spaces[i - 1].rows):
            raise NotNilpotentError("algebra is not nilpotent")
        if dim + series_dim != m:
            raise InternalConsistencyError("dual filtration disagrees with the primal descending series")
        if v & n if on_masks else not _annihilates(spaces[i], n):
            raise InternalConsistencyError(f"V_{i} does not annihilate the primal ideal n^{i}")
        if dim == m:
            return Filtration(i, tuple(spaces), tuple(dims))


def descending_series(a: LieAlgebra) -> Filtration:
    """Annihilator filtration of the dual, as validated when the algebra was built."""
    return a.filtration


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def abelian(m: int, label: str | None = None) -> LieAlgebra:
    return LieAlgebra(m, {}, label=label)


def m0(m: int) -> LieAlgebra:
    """The filiform algebra with de^i = e^1 ^ e^(i-1) for i = 3..m."""
    if m < 3:
        raise LieError("the filiform family starts at dimension 3")
    return LieAlgebra(m, {(1, i - 1, i): 1 for i in range(3, m + 1)}, label=f"m0({m})")


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block sum of ideals; the first summand occupies indices 1..a.m."""
    constants: Constants = dict(a.c)
    for (i, j, k), c in b.c.items():
        constants[(i + a.m, j + a.m, k + a.m)] = c
    label = None
    if a.label and b.label:
        label = f"{a.label} (+) {b.label}"
    return LieAlgebra(a.m + b.m, constants, label=label)


# ---------------------------------------------------------------------------
# Salamon notation
# ---------------------------------------------------------------------------

def parse_salamon(text: str, label: str | None = None) -> LieAlgebra:
    """Parse "(0,0,12,...)" into a validated algebra.

    Raises SalamonSyntaxError / IndexRangeError / IndexPairError for bad
    input text and JacobiError / NotNilpotentError for well-formed text
    that does not define a nilpotent Lie algebra.
    """
    stripped = text.strip()
    if not stripped:
        raise SalamonSyntaxError("empty input", 1)
    if not stripped.startswith("("):
        raise SalamonSyntaxError("expected '('", len(text) - len(text.lstrip()) + 1)
    if not stripped.endswith(")"):
        raise SalamonSyntaxError("expected ')'", len(text))
    entries = stripped[1:-1].split(",")
    m = len(entries)
    offset = text.index("(") + 1  # of the current entry in text
    constants: dict[tuple[int, int, int], int | Fraction] = {}
    for j, entry in enumerate(entries, start=1):
        for (i, l), coeff in _parse_entry(entry, offset, m):
            if not (1 <= i <= m and 1 <= l <= m):
                raise IndexRangeError(f"index pair {i},{l} out of range for dimension {m} in de^{j}")
            if i == l:
                raise IndexPairError(f"repeated index {i}{l} in de^{j}")
            # LieAlgebra orders the pair (flipping the sign) and drops zeros
            constants[(i, l, j)] = constants.get((i, l, j), 0) + coeff
        offset += len(entry) + 1
    return LieAlgebra(m, constants, label=label)


def _parse_entry(entry: str, offset: int, m: int) -> list[tuple[tuple[int, int], int | Fraction]]:
    """One differential entry: 0, or terms matched one by one by ``_TERM``,
    the first of which may start with a coefficient 0 (``0*12``, ``0/1*12``).
    Its groups are checked in the order the grammar reads them, and an error
    names the start or end of its group; a coefficient stays an int unless
    it has a denominator."""

    def err(msg: str, at: int) -> SalamonSyntaxError:
        return SalamonSyntaxError(msg, offset + at + 1)

    def number(digits: str, at: int) -> int:
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter's limit on int() of a string
            raise err(f"a run of {len(digits)} digits is too long", at) from None

    pos = len(entry) - len(entry.lstrip())
    if pos == len(entry):
        raise err("empty entry", pos)
    if entry[pos] == "0" and entry[pos + 1:pos + 2] not in ("*", "/"):  # "0*12" is a term
        rest = entry[pos + 1:].lstrip()
        if rest:
            raise err("unexpected text after '0'", len(entry) - len(rest))
        return []
    terms: list[tuple[tuple[int, int], int | Fraction]] = []
    while pos < len(entry):
        t = _TERM.match(entry, pos)
        sign, digits, slash, denom, star, index, dot, second = t.groups()
        if terms and not sign:
            raise err("expected '+' or '-' between terms", pos)
        at = t.start(2)
        if not digits:
            raise err("expected an index pair or coefficient", at)
        coeff: int | Fraction = -1 if sign == "-" else 1
        if slash:
            if not denom:
                raise err("expected a denominator", t.start(4))
            d = number(denom, t.start(4))
            if not d:
                raise err("zero denominator", t.start(4))
            from fractions import Fraction
            coeff = Fraction(coeff * number(digits, at), d)
            if not star:
                raise err("expected '*' after a rational coefficient", t.start(5))
        elif star:
            coeff *= number(digits, at)
        if star:
            digits, at = index, t.start(6)
            if not digits:
                raise err("expected an index pair", at)
        if m >= 10:
            if not dot:
                raise err("expected a dot-separated index pair for dimension >= 10", t.start(7))
            if not second:
                raise err("expected a second index", t.start(8))
            pair = (number(digits, at), number(second, t.start(8)))
        elif len(digits) < 2:
            raise err(f"cannot read index pair from {digits!r}", at)
        else:
            if len(digits) > 2:  # juxtaposed integer coefficient, as in "2*14" written "214"
                coeff *= number(digits[:-2], at)
            if dot:  # the grammar ends the term before a '.' when m <= 9
                raise err("expected '+' or '-' between terms", t.start(7))
            pair = (int(digits[-2]), int(digits[-1]))
        terms.append((pair, coeff))
        pos = t.end()
    return terms


def to_salamon(a: LieAlgebra) -> str:
    """Canonical string form; parse_salamon(to_salamon(a)) has the same constants."""
    entries = [""] * (a.m + 1)  # entries[j]: de^j, its terms in sorted pair order
    for (i, l, j), c in sorted(a.c.items()):
        pair = f"{i}{l}" if a.m <= 9 else f"{i}.{l}"
        body = pair if c == 1 else f"-{pair}" if c == -1 else f"{c}*{pair}"
        entries[j] += body if not entries[j] or body.startswith("-") else "+" + body
    return "(" + ",".join(e or "0" for e in entries[1:]) + ")"


# ---------------------------------------------------------------------------
# JSON algebra documents
# ---------------------------------------------------------------------------

def algebra_to_json(a: LieAlgebra) -> dict:
    doc = {
        "dim": a.m,
        "brackets": [{"i": i, "j": j, "k": k, "c": str(c)} for (i, j, k), c in sorted(a.c.items())],
    }
    if a.label is not None:
        doc["label"] = a.label
    return doc


def _json_int(value: object) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def algebra_from_json(doc: object) -> LieAlgebra:
    """Read ``{"dim": m, "brackets": [{"i", "j", "k", "c"}, ...], "label": ...}``.

    Dimension and indices must be JSON integers; coefficients are
    decimal-free rationals, as strings like ``"-3/2"`` or as integers.
    """
    if not isinstance(doc, dict):
        raise AlgebraFormatError("algebra document must be a JSON object")
    try:
        if "dim" not in doc:
            raise ValueError("no dim")
        m = _json_int(doc["dim"])
        if m < 1:
            raise ValueError("dim must be at least 1")
        brackets = doc.get("brackets", [])
        if not isinstance(brackets, list):
            raise ValueError("brackets must be a list")
        constants: Constants = {}
        for n, item in enumerate(brackets, start=1):
            if not isinstance(item, dict) or not item.keys() >= {"i", "j", "k", "c"}:
                raise ValueError(f"bracket {n} must be an object with i, j, k and c")
            key = (_json_int(item["i"]), _json_int(item["j"]), _json_int(item["k"]))
            value = rat(item["c"])
            constants[key] = constants[key] + value if key in constants else value
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"malformed algebra document: {exc}") from exc
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise AlgebraFormatError("label must be a string")
    return LieAlgebra(m, constants, label=label)
