"""Nilpotent Lie algebras given by structure constants.

An algebra on basis e_1..e_m is stored through the constants c_ijk (i < j)
of [e_i, e_j] = sum_k c_ijk e_k; antisymmetry is implicit.  The sign
convention is dx(u, v) = x([u, v]) on 1-forms, under which the compact
string "(0,0,12)" says de^3 = e^1 ^ e^2, i.e. c_123 = 1.

The string notation lists de^1, ..., de^m: each entry is 0 or a signed sum
of terms, a term being an optional rational coefficient (with '*'), then an
index pair -- two digits for m <= 9, dot-separated like "1.10" for m >= 10.
A reversed pair denotes the reversed wedge, so "52" contributes -e^2 ^ e^5;
the published tables use this form ("34+52") and the Jacobi identity pins
the sign down.

Every ``LieAlgebra`` is validated once, when it is built: the constructor
raises JacobiError or NotNilpotentError unless the constants define a
nilpotent Lie algebra, and stores the filtration V_0 = 0,
V_i = {x : dx in Lambda^2 V_(i-1)} of the dual, computed as exact kernels on
the integer constants (a 2-form w lies in Lambda^2 V iff i_u w = 0 for every
u in ann(V)) and cross-checked against the primal central descending series
through annihilator duality dim V_i + dim n^i = m.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from . import exterior
from .linalg import LinearMap, Subspace, kernel, span

_ZERO = Fraction(0)
_ONE = Fraction(1)

Constants = dict[tuple[int, int, int], Fraction]

_RATIONAL = re.compile(r"[+-]?\d+(?:/0*[1-9]\d*)?")  # no decimals, no zero denominator


class LieError(Exception):
    """Base class for algebra construction and parsing failures."""


class SalamonSyntaxError(LieError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class IndexRangeError(LieError):
    """An index in a bracket or differential term is outside 1..m."""


class IndexPairError(LieError):
    """An index pair wedges a basis form with itself."""


class JacobiError(LieError):
    """The structure constants do not satisfy the Jacobi identity (d.d != 0)."""


class NotNilpotentError(LieError):
    """The central descending series stabilises at a nonzero ideal."""


class AlgebraFormatError(LieError):
    """A JSON algebra document is malformed."""


class FiltrationMismatchError(LieError):
    """The dual filtration disagrees with the primal series (engine bug)."""


class Filtration(NamedTuple):
    """Annihilator filtration V_0 .. V_k of the dual, with primal series dims."""
    k: int
    spaces: tuple[Subspace, ...]
    series_dims: tuple[int, ...]


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or string like ``-3/2`` to an exact rational.

    Strings must be decimal-free: an optional sign, digits, and optionally
    ``/`` and a nonzero denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip().replace("−", "-")
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"{value!r} is not a decimal-free rational")
        return Fraction(text)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


class LieAlgebra:
    """Immutable structure-constant presentation of a nilpotent Lie algebra."""

    __slots__ = ("m", "c", "label", "filtration")

    def __init__(self, m: int, constants: Mapping[tuple[int, int, int], Fraction | int],
                 label: str | None = None):
        if m < 1:
            raise LieError("dimension must be at least 1")
        cleaned: Constants = {}
        for (i, j, k), value in constants.items():
            coeff = rat(value)
            if not coeff:
                continue
            if not (1 <= i <= m and 1 <= j <= m and 1 <= k <= m):
                raise IndexRangeError(f"index out of range in c[{i},{j}]^{k} for dimension {m}")
            if i == j:
                raise IndexPairError(f"bracket [e_{i}, e_{i}] is identically zero")
            if i > j:
                i, j, coeff = j, i, -coeff
            key = (i, j, k)
            total = cleaned.get(key, _ZERO) + coeff
            if total:
                cleaned[key] = total
            else:
                cleaned.pop(key, None)
        self.m = m
        self.c = cleaned
        self.label = label
        self.filtration = validate_algebra(self)

    def brackets(self) -> Iterator[tuple[int, int, int, Fraction]]:
        for (i, j, k), c in sorted(self.c.items()):
            yield i, j, k, c

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LieAlgebra) and self.m == other.m and self.c == other.c

    def __hash__(self) -> int:
        return hash((self.m, tuple(sorted(self.c.items()))))

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"LieAlgebra(dim={self.m}{name})"


# ---------------------------------------------------------------------------
# validation and the filtration
# ---------------------------------------------------------------------------

def _dual_filtration_spaces(m: int, constants: Mapping[tuple[int, int, int], int]) -> list[Subspace]:
    """V_0, V_1, ... from the dual side until stabilisation (at most m+1 spaces).

    A 2-form w lies in Lambda^2 V iff i_u w = 0 for every u in ann(V), so
    V_i is the kernel of x -> (i_u dx)_u over a basis u of ann(V_(i-1)),
    with i_u (e^a ^ e^b) = u_a e^b - u_b e^a.  That basis comes straight
    from the canonical rows of V_(i-1): for each non-pivot column c,
    L e_c - sum_i (L row_i[c] / row_i[p_i]) e_(p_i), L the lcm of the row_i[p_i].
    """
    spaces = [Subspace.zero(m)]
    while spaces[-1].dim < m:
        prev = spaces[-1]
        scale = math.lcm(*(row[p] for row, p in zip(prev.basis, prev.pivots)))
        annihilator = []
        for c in sorted(set(range(m)) - set(prev.pivots)):
            u = [0] * m
            u[c] = scale
            for row, p in zip(prev.basis, prev.pivots):
                u[p] = -row[c] * (scale // row[p])
            annihilator.append(u)
        # column k-1 holds i_u de^k, de^k = sum c_abk e^a ^ e^b; row t*m + j
        # holds its e^(j+1) coordinate for the t-th u
        columns: dict[int, dict[int, int]] = {}
        for (a, b, k), v in constants.items():
            acc = columns.setdefault(k - 1, {})
            for t, u in enumerate(annihilator):
                ra, rb = t * m + a - 1, t * m + b - 1
                acc[rb] = acc.get(rb, 0) + v * u[a - 1]
                acc[ra] = acc.get(ra, 0) - v * u[b - 1]
        nxt = kernel(LinearMap(m * len(annihilator), m,
                               {col: list(acc.items()) for col, acc in columns.items()}))
        if nxt.dim == prev.dim:
            break
        spaces.append(nxt)
    return spaces


def primal_series(m: int, constants: Mapping[tuple[int, int, int], int]) -> list[Subspace]:
    """Central descending series n^0 = n, n^i = [n, n^(i-1)], until stabilisation."""
    series = [Subspace.full(m)]
    while True:
        vecs = []
        for row in series[-1].basis:
            brackets = [[0] * m for _ in range(m)]  # brackets[g-1] = [e_g, row]
            for (i, j, k), c in constants.items():
                brackets[i - 1][k - 1] += c * row[j - 1]
                brackets[j - 1][k - 1] -= c * row[i - 1]
            vecs.extend(b for b in brackets if any(b))
        nxt = span(vecs, m)
        if nxt.dim == series[-1].dim:
            return series
        series.append(nxt)


def validate_algebra(a: LieAlgebra) -> Filtration:
    """The filtration of the dual, computed on integer constants; raises
    JacobiError if d.d != 0 on 1-forms, NotNilpotentError if the filtration
    stops short of the dual, FiltrationMismatchError if it disagrees with the
    primal series."""
    constants, _ = exterior.clear_denominators(a.c)
    d1 = exterior.differential_columns(a.m, constants, 1)
    if not exterior.compose_is_zero(exterior.differential_columns(a.m, constants, 2), d1):
        raise JacobiError("structure constants violate the Jacobi identity")
    spaces = _dual_filtration_spaces(a.m, constants)
    if spaces[-1].dim != a.m:
        raise NotNilpotentError("algebra is not nilpotent")
    series = primal_series(a.m, constants)
    series += [Subspace.zero(a.m)] * (len(spaces) - len(series))
    for i, (v, n) in enumerate(zip(spaces, series)):
        if v.dim + n.dim != a.m:
            raise FiltrationMismatchError("dual filtration disagrees with the primal descending series")
        for x in v.basis:
            for u in n.basis:
                if sum(xv * uv for xv, uv in zip(x, u)):
                    raise FiltrationMismatchError(f"V_{i} does not annihilate the primal ideal n^{i}")
    return Filtration(len(spaces) - 1, tuple(spaces), tuple(n.dim for n in series))


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
    return LieAlgebra(m, {(1, i - 1, i): _ONE for i in range(3, m + 1)}, label=f"m0({m})")


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
    open_pos = text.index("(")
    body = stripped[1:-1]
    entries: list[tuple[str, int]] = []  # (entry text, offset of entry in text)
    offset = open_pos + 1
    for part in body.split(","):
        entries.append((part, offset))
        offset += len(part) + 1
    m = len(entries)
    constants: Constants = {}
    for j, (entry, entry_offset) in enumerate(entries, start=1):
        for (i, l), coeff in _parse_entry(entry, entry_offset, m):
            if not (1 <= i <= m and 1 <= l <= m):
                raise IndexRangeError(f"index pair {i},{l} out of range for dimension {m} in de^{j}")
            if i == l:
                raise IndexPairError(f"repeated index {i}{l} in de^{j}")
            # LieAlgebra orders the pair (flipping the sign) and drops zeros
            constants[(i, l, j)] = constants.get((i, l, j), _ZERO) + coeff
    return LieAlgebra(m, constants, label=label)


def _parse_entry(entry: str, offset: int, m: int) -> list[tuple[tuple[int, int], Fraction]]:
    """One differential entry: 0, or a signed sum of coefficient/pair terms."""
    pos = 0
    text = entry

    def err(msg: str, at: int) -> SalamonSyntaxError:
        return SalamonSyntaxError(msg, offset + at + 1)

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def read_int(what: str) -> str:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise err(f"expected {what}", start)
        return text[start:pos]

    skip_ws()
    if pos == len(text):
        raise err("empty entry", pos)
    if text[pos] == "0":
        probe = pos + 1
        while probe < len(text) and text[probe].isspace():
            probe += 1
        if probe == len(text):
            return []
        raise err("unexpected text after '0'", probe)

    terms: list[tuple[tuple[int, int], Fraction]] = []
    first = True
    while True:
        skip_ws()
        if pos == len(text):
            if first:
                raise err("empty entry", pos)
            break
        sign = _ONE
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -_ONE
            pos += 1
            skip_ws()
        elif not first:
            raise err("expected '+' or '-' between terms", pos)
        digits = read_int("an index pair or coefficient")
        coeff = sign
        if pos < len(text) and text[pos] == "/":
            pos += 1
            denom = read_int("a denominator")
            if not int(denom):
                raise err("zero denominator", pos - len(denom))
            coeff = sign * Fraction(int(digits), int(denom))
            if pos >= len(text) or text[pos] != "*":
                raise err("expected '*' after a rational coefficient", pos)
            pos += 1
            digits = read_int("an index pair")
        elif pos < len(text) and text[pos] == "*":
            coeff = sign * Fraction(int(digits))
            pos += 1
            digits = read_int("an index pair")
        if m >= 10:
            if pos < len(text) and text[pos] == ".":
                pos += 1
                second = read_int("a second index")
                pair = (int(digits), int(second))
            else:
                raise err("expected a dot-separated index pair for dimension >= 10", pos)
        elif len(digits) == 2:
            pair = (int(digits[0]), int(digits[1]))
        elif len(digits) > 2:
            # juxtaposed integer coefficient, as in "2*14" written "214"
            coeff = coeff * int(digits[:-2])
            pair = (int(digits[-2]), int(digits[-1]))
        else:
            raise err(f"cannot read index pair from {digits!r}", pos - len(digits))
        terms.append((pair, coeff))
        first = False
    return terms


def to_salamon(a: LieAlgebra) -> str:
    """Canonical string form; parse_salamon(to_salamon(a)) has the same constants."""
    by_target: dict[int, list[tuple[int, int, Fraction]]] = {}
    for (i, j, k), c in sorted(a.c.items()):
        by_target.setdefault(k, []).append((i, j, c))
    entries = []
    for j in range(1, a.m + 1):
        terms = by_target.get(j)
        if not terms:
            entries.append("0")
            continue
        parts = []
        for (i, l, c) in terms:
            pair = f"{i}{l}" if a.m <= 9 else f"{i}.{l}"
            if c == 1:
                body = pair
            elif c == -1:
                body = f"-{pair}"
            else:
                body = f"{c}*{pair}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        entries.append("".join(parts))
    return "(" + ",".join(entries) + ")"


# ---------------------------------------------------------------------------
# JSON algebra documents
# ---------------------------------------------------------------------------

def algebra_to_json(a: LieAlgebra) -> dict:
    doc = {
        "dim": a.m,
        "brackets": [{"i": i, "j": j, "k": k, "c": str(c)} for i, j, k, c in a.brackets()],
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
        m = _json_int(doc["dim"])
        if m < 1:
            raise ValueError("dim must be at least 1")
        brackets = doc.get("brackets", [])
        constants: Constants = {}
        for item in brackets:
            key = (_json_int(item["i"]), _json_int(item["j"]), _json_int(item["k"]))
            constants[key] = constants.get(key, _ZERO) + rat(item["c"])
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"malformed algebra document: {exc}") from exc
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise AlgebraFormatError("label must be a string")
    return LieAlgebra(m, constants, label=label)
