"""Structure constants, notation parsing, validation, series and sums."""

import enum
import functools
import json
import random
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb

import pytest

from conftest import sheared
from nilspec import lie, spectral
from nilspec.exterior import InternalConsistencyError, clear_denominators, compose_is_zero
from nilspec.linalg import LinearMap, Subspace, contains, preimage, span
from nilspec.lie import (
    IndexPairError,
    IndexRangeError,
    JacobiError,
    LieAlgebra,
    NotNilpotentError,
    SalamonSyntaxError,
)
from reference import dense, mask_walk_columns, positional_columns, two_step_kernel, wedge_minors


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_heisenberg():
    a = lie.parse_salamon("(0,0,12)")
    assert a.m == 3
    assert a.c == {(1, 2, 3): Fraction(1)}


def test_parse_abelian():
    a = lie.parse_salamon("(0,0,0)")
    assert a.m == 3 and not a.c


def test_parse_dim6_with_sum():
    a = lie.parse_salamon("(0,0,12,13,23,14+25)")
    assert a.m == 6
    assert a.c[(1, 4, 6)] == 1 and a.c[(2, 5, 6)] == 1


def test_parse_signs_and_coefficients():
    a = lie.parse_salamon("(0,0,-12)")
    assert a.c == {(1, 2, 3): Fraction(-1)}
    b = lie.parse_salamon("(0,0,2*12,13-1/2*23)")
    assert b.c[(1, 2, 3)] == 2
    assert b.c[(1, 3, 4)] == 1
    assert b.c[(2, 3, 4)] == Fraction(-1, 2)


def test_parse_reversed_pair_flips_sign():
    # the published notation writes de^6 = e^3^e^4 + e^5^e^2
    a = lie.parse_salamon("(0,0,12,13,14+23,34+52)")
    assert a.c[(2, 5, 6)] == -1 and a.c[(3, 4, 6)] == 1
    b = lie.parse_salamon("(0,0,0,0,13+42,14+23)")
    assert b.c[(2, 4, 5)] == -1


def test_parse_juxtaposed_coefficient():
    a = lie.parse_salamon("(0,0,212)")
    assert a.c == {(1, 2, 3): Fraction(2)}


def test_parse_whitespace_tolerated():
    a = lie.parse_salamon(" ( 0 , 0 , 12 + 12 ) ")
    assert a.c == {(1, 2, 3): Fraction(2)}
    assert lie.parse_salamon("(0,\u20030\xa0,\t12\xa0-\u2003\x1c2*12 )") == lie.parse_salamon("(0,0,-12)")


def test_parse_dotted_indices():
    a = lie.parse_salamon("(0,0,1.2,1.3,1.4,1.5,1.6,1.7,1.8,1.9)")
    assert a == lie.m0(10)


def test_parse_errors_are_typed():
    with pytest.raises(SalamonSyntaxError):
        lie.parse_salamon("0,0,12")
    with pytest.raises(SalamonSyntaxError):
        lie.parse_salamon("(0,0,12")
    with pytest.raises(SalamonSyntaxError):
        lie.parse_salamon("(0,0,1x)")
    with pytest.raises(IndexRangeError):
        lie.parse_salamon("(0,0,14)")
    with pytest.raises(IndexPairError):
        lie.parse_salamon("(0,0,11)")
    with pytest.raises(JacobiError):
        lie.parse_salamon("(0,0,12,13,24,34+25)")
    with pytest.raises(NotNilpotentError):
        lie.parse_salamon("(23,-13,12)")


def test_syntax_error_reports_position():
    with pytest.raises(SalamonSyntaxError) as info:
        lie.parse_salamon("(0,0,12+)")
    assert info.value.position == 9


def test_parse_rejects_empty_entry():
    with pytest.raises(SalamonSyntaxError):
        lie.parse_salamon("(0,,12)")


LONG = "2" * 5000  # a run of digits longer than the interpreter's limit on int() of a string
TEN = "(0,0,0,0,0,0,0,0,0,{})"  # dimension 10: dot-separated pairs

SYNTAX_ERRORS = [  # (text, 1-based position, message)
    ("", 1, "empty input"),
    ("  x", 3, "expected '('"),
    ("(0,0,12) x", 10, "expected ')'"),
    ("(0,,12)", 4, "empty entry"),
    ("(0,0, )", 7, "empty entry"),
    ("(0,0,0 1)", 8, "unexpected text after '0'"),
    ("(0,0,00)", 7, "unexpected text after '0'"),
    ("(0,0,12 13)", 9, "expected '+' or '-' between terms"),
    ("(0,0,12+)", 9, "expected an index pair or coefficient"),
    ("(0,0,-)", 7, "expected an index pair or coefficient"),
    ("(0,0,1/*12)", 8, "expected a denominator"),
    ("(0,0,1/000*12)", 8, "zero denominator"),
    (f"(0,0,{LONG}/0*12)", 5007, "zero denominator"),
    (f"(0,0,{LONG}*12)", 6, "a run of 5000 digits is too long"),
    (f"(0,0,1/{LONG}*12)", 8, "a run of 5000 digits is too long"),
    ("(0,0,1/2 12)", 9, "expected '*' after a rational coefficient"),
    ("(0,0,1/212)", 11, "expected '*' after a rational coefficient"),
    ("(0,0,2* 12)", 8, "expected an index pair"),
    (TEN.format("12"), 22, "expected a dot-separated index pair for dimension >= 10"),
    (TEN.format("1."), 22, "expected a second index"),
    ("(0,0,1)", 6, "cannot read index pair from '1'"),
    ("(0,0,2*3*12)", 8, "cannot read index pair from '3'"),
    # digits are ASCII 0-9: any other digit is text the grammar does not know
    ("(0,0,1\u00b2)", 6, "cannot read index pair from '1'"),
    ("(0,0,\u00b2*12)", 6, "expected an index pair or coefficient"),
    ("(0,0,\u0661\u0662)", 6, "expected an index pair or coefficient"),
    ("(0,0,1/\u00b2*12)", 8, "expected a denominator"),
    (TEN.format("1.\u0661"), 22, "expected a second index"),
    # a '.' after a pair of two digits, and '*' or '/' with nothing after them
    ("(0,0,12.3)", 8, "expected '+' or '-' between terms"),
    ("(0,0,2*)", 8, "expected an index pair"),
    ("(0,0,1/2*)", 10, "expected an index pair"),
    ("(0,0,1/2*1)", 10, "cannot read index pair from '1'"),
    ("(0,0,12-)", 9, "expected an index pair or coefficient"),
    (TEN.format("2*12"), 24, "expected a dot-separated index pair for dimension >= 10"),
    (TEN.format("1.2.3"), 23, "expected '+' or '-' between terms"),
    # whitespace is what str.isspace() says it is, non-ASCII spaces included
    ("(0,0,12\u200313)", 9, "expected '+' or '-' between terms"),
    ("(0,0,12\xa0+\u2003)", 11, "expected an index pair or coefficient"),
]


def test_every_syntax_error_names_its_message_and_position():
    for text, position, message in SYNTAX_ERRORS:
        with pytest.raises(SalamonSyntaxError) as info:
            lie.parse_salamon(text)
        assert (info.value.position, str(info.value)) == \
            (position, f"syntax error at position {position}: {message}"), text[:40]


def test_zero_coefficient_reads_with_or_without_a_sign():
    """A leading 0 followed by '*' or '/' starts a term of coefficient 0, which
    adds nothing, as it does after a sign; any other text after a 0 entry
    is still the error it was, at the same position."""
    for text, same in [("(0,0,0*12)", "(0,0,0)"), ("(0,0,0/1*12)", "(0,0,0)"), ("(0,0,0/2*12+12)", "(0,0,12)"),
                       ("(0,0,+0*12)", "(0,0,0)"), ("(0,0,-0/1*12)", "(0,0,0)"), ("(0,0, 0*12 - 12)", "(0,0,21)")]:
        a, b = lie.parse_salamon(text), lie.parse_salamon(same)
        assert a == b and spectral.table_for(a) == spectral.table_for(b), text
    for text in ("(0,0,00)", "(0,0,012)", "(0,0,0x)", "(0,0,0 1)", "(0,0,0 *12)"):
        with pytest.raises(SalamonSyntaxError) as info:
            lie.parse_salamon(text)
        assert str(info.value) == f"syntax error at position {7 + text.count(' ')}: unexpected text after '0'"
    with pytest.raises(SalamonSyntaxError, match="position 8: expected an index pair$"):
        lie.parse_salamon("(0,0,0*)")
    with pytest.raises(SalamonSyntaxError, match=r"position 9: expected '\*' after a rational coefficient$"):
        lie.parse_salamon("(0,0,0/1)")
    # a malformed term after a bare 0 is the error of its signed twin, one position earlier
    for body in ("0/1", "0*", "0/0*12", "0/", "0*1", "0/1*", "0*12+", "0/1 *12"):
        errors = []
        for sign in ("", "+"):
            with pytest.raises(SalamonSyntaxError) as info:
                lie.parse_salamon(f"(0,0,{sign}{body})")
            errors.append((info.value.position - len(sign), str(info.value).split(": ", 1)[1]))
        assert errors[0] == errors[1], body


def test_cancelling_terms_give_the_abelian_algebra():
    # the parser sums 12 - 12 to 0; the constructor flips 21 and cancels it against 12
    for text in ("(0,0,12-12)", "(0,0,12+21)"):
        a = lie.parse_salamon(text)
        assert a == lie.abelian(3) and a.c == {}, text


def test_integral_input_makes_no_fraction_addition(monkeypatch, catalog_entries):
    def refuse(*args):
        raise AssertionError("a Fraction addition")

    texts = [e.salamon for e in catalog_entries] + ["(0,0,2*12+3*12,13-13+223)"]
    monkeypatch.setattr(Fraction, "__add__", refuse)
    monkeypatch.setattr(Fraction, "__radd__", refuse)
    for text in texts:
        assert all(type(c) is int for c in lie.parse_salamon(text).c.values())
    lie.algebra_from_json({"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": 2}]})


def test_integral_sums_are_ints_and_other_constants_fractions():
    a = lie.parse_salamon("(0,0,1/2*12+1/2*12)")
    assert a.c == {(1, 2, 3): 1} and type(a.c[1, 2, 3]) is int
    assert a == lie.parse_salamon("(0,0,12)") and hash(a) == hash(lie.parse_salamon("(0,0,12)"))
    b = lie.parse_salamon("(0,0,2*12,13-1/2*23,4/2*12)")
    assert [(key, type(c)) for key, c in sorted(b.c.items())] == \
        [((1, 2, 3), int), ((1, 2, 5), int), ((1, 3, 4), int), ((2, 3, 4), Fraction)]
    assert b.c[2, 3, 4] == Fraction(-1, 2)
    # the same text and JSON as when every constant was a Fraction
    assert lie.to_salamon(b) == "(0,0,2*12,13-1/2*23,2*12)"
    assert json.dumps(lie.algebra_to_json(b)) == (
        '{"dim": 5, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "2"}, {"i": 1, "j": 2, "k": 5, "c": "2"}, '
        '{"i": 1, "j": 3, "k": 4, "c": "1"}, {"i": 2, "j": 3, "k": 4, "c": "-1/2"}]}')
    assert lie.rat("4/2") == 2 and type(lie.rat("4/2")) is int and type(lie.rat(Fraction(6, 3))) is int


def test_constant_types_given_to_the_constructor():
    """An int is stored as given; an IntEnum member and an integral Fraction
    are stored as ints, so the algebra equals and hashes like the int one; a
    bool raises TypeError, and an int with more digits than the interpreter
    prints raises CoefficientSizeError."""
    class Two(enum.IntEnum):
        TWO = 2

    plain = LieAlgebra(3, {(1, 2, 3): 2})
    for value in (2, Two.TWO, Fraction(4, 2), Fraction(2)):
        a = LieAlgebra(3, {(2, 1, 3): -value})  # the reversed pair flips the sign of each type alike
        assert a.c == {(1, 2, 3): 2} and type(a.c[1, 2, 3]) is int, value
        assert a == plain and hash(a) == hash(plain), value
    for value in (True, False):
        with pytest.raises(TypeError, match=f"cannot interpret {value} as a rational number"):
            LieAlgebra(3, {(1, 2, 3): value})
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        with pytest.raises(lie.CoefficientSizeError, match=f"more than {digits} digits"):
            LieAlgebra(3, {(1, 2, 3): 10 ** digits})
        assert LieAlgebra(3, {(1, 2, 3): 10 ** digits - 1}).c == {(1, 2, 3): 10 ** digits - 1}


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def test_to_salamon_round_trips():
    for text in ["(0,0,12)", "(0,0,0,0)", "(0,0,12,13,23,14+25)",
                 "(0,0,-12)", "(0,0,2*12,13-1/2*23)"]:
        a = lie.parse_salamon(text)
        again = lie.parse_salamon(lie.to_salamon(a))
        assert again.c == a.c and again.m == a.m


def test_to_salamon_examples():
    assert lie.to_salamon(lie.parse_salamon("(0,0,12)")) == "(0,0,12)"
    assert lie.to_salamon(lie.abelian(4)) == "(0,0,0,0)"
    assert lie.to_salamon(LieAlgebra(3, {(1, 2, 3): -1})) == "(0,0,-12)"


def test_to_salamon_canonicalises_reversed_pairs():
    a = lie.parse_salamon("(0,0,12,13,14+23,34+52)")
    assert lie.to_salamon(a) == "(0,0,12,13,14+23,-25+34)"
    assert lie.parse_salamon(lie.to_salamon(a)).c == a.c


def test_json_round_trip():
    a = lie.parse_salamon("(0,0,2*12,13-1/2*23)", label="demo")
    doc = lie.algebra_to_json(a)
    assert doc["dim"] == 4
    assert all(isinstance(b["c"], str) for b in doc["brackets"])
    b = lie.algebra_from_json(json.loads(json.dumps(doc)))
    assert b == a and b.label == "demo"


def test_json_malformed():
    with pytest.raises(lie.AlgebraFormatError):
        lie.algebra_from_json([1, 2])
    with pytest.raises(lie.AlgebraFormatError, match="^malformed algebra document: no dim$"):
        lie.algebra_from_json({"brackets": []})
    for c in ("\u0661\u0662", "1/\u0662", "\u00b2"):  # digits are ASCII
        with pytest.raises(lie.AlgebraFormatError):
            lie.algebra_from_json({"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": c}]})
    for brackets, message in (([1], "bracket 1 must be an object with i, j, k and c"),
                              ([{"i": 1, "j": 2, "k": 3, "c": 1}, {"i": 1, "j": 2, "k": 3}],
                               "bracket 2 must be an object with i, j, k and c"),
                              ({"i": 1}, "brackets must be a list"),
                              ("12", "brackets must be a list"),
                              (None, "brackets must be a list")):
        with pytest.raises(lie.AlgebraFormatError, match=f"^malformed algebra document: {message}$"):
            lie.algebra_from_json({"dim": 3, "brackets": brackets})


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_heisenberg():
    a = lie.parse_salamon("(0,0,12)")
    f = lie.validate_algebra(a)
    assert f.k == 2 and f == a.filtration


def test_validate_abelian_index_one():
    assert lie.validate_algebra(lie.abelian(5)).k == 1


def test_validate_semisimple_like():
    # so(3)-style cyclic constants: Jacobi holds, series never reaches zero
    with pytest.raises(NotNilpotentError):
        LieAlgebra(3, {(2, 3, 1): 1, (1, 3, 2): -1, (1, 2, 3): 1})


def test_constructor_raises_on_jacobi_failure():
    with pytest.raises(JacobiError):
        LieAlgebra(6, {(1, 2, 3): 1, (1, 3, 4): 1, (2, 4, 5): 1,
                       (3, 4, 6): 1, (2, 5, 6): 1})


# ---------------------------------------------------------------------------
# descending series / filtration
# ---------------------------------------------------------------------------

def test_series_heisenberg():
    f = lie.parse_salamon("(0,0,12)").filtration
    assert f.k == 2
    assert [s.dim for s in f.spaces] == [0, 2, 3]
    assert contains(f.spaces[1], span([[1, 0, 0]], 3))
    assert contains(f.spaces[1], span([[0, 1, 0]], 3))
    assert not contains(f.spaces[1], span([[0, 0, 1]], 3))
    assert f.series_dims == (3, 1, 0)


def test_series_abelian():
    f = lie.abelian(4).filtration
    assert f.k == 1 and [s.dim for s in f.spaces] == [0, 4]


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_series_filiform(m):
    f = lie.m0(m).filtration
    assert f.k == m - 1
    # V_i = span{e^1 .. e^(i+1)}
    for i in range(1, f.k + 1):
        assert f.spaces[i].dim == i + 1
        for j in range(i + 1):
            vec = [0] * m
            vec[j] = 1
            assert contains(f.spaces[i], span([vec], m))


def test_annihilator_duality(random_algebras_dim7):
    for a in random_algebras_dim7[:12]:
        f = a.filtration
        for i in range(f.k + 1):
            assert f.spaces[i].dim + f.series_dims[i] == a.m


def _d1(m, constants):
    """d_1 at lexicographic positions by the mask walk, which also takes raw constants with a term in e^j of de^j."""
    columns = positional_columns(m, mask_walk_columns(m, constants, 1))
    return LinearMap(comb(m, 2), m, {j: col.items() for j, col in columns.items()})


def _lambda2_filtration(m, d1):
    """Reference V_0, V_1, ...: V_i = preimage(d1, span of the wedge minors
    x ^ y of the basis rows of V_(i-1)), until stabilisation."""
    spaces = [Subspace.zero(m)]
    while spaces[-1].dim < m:
        prev = dense(spaces[-1])
        lam2 = span([wedge_minors(x, y, m) for n, x in enumerate(prev) for y in prev[n + 1:]], d1.rows)
        nxt = preimage(d1, lam2, Subspace.full(m))
        if nxt.dim == len(prev):
            break
        spaces.append(nxt)
    return spaces


def _same_spaces(got, want):
    return [(s.rows, s.pivots) for s in got] == [(s.rows, s.pivots) for s in want]


def _annihilator(space):
    """ann(V) as the tests' textbook kernel of the canonical rows of V."""
    columns = defaultdict(list)
    for i, row in enumerate(space.rows):
        for j, x in row.items():
            columns[j].append((i, x))
    return two_step_kernel(LinearMap(space.dim, space.ambient_dim, columns))


def _levels(m, constants):
    """V_0, V_1, ... and n^0, n^1, ..., stepped together as validate_algebra
    steps them, until V_i is the whole dual or stops growing."""
    spaces, series = [Subspace.zero(m)], [Subspace.full(m)]
    for v, n in lie._levels(m, constants):
        v = lie._space(v, m)
        if v.dim == spaces[-1].dim:
            break
        spaces.append(v)
        series.append(lie._space(n, m))
        if v.dim == m:
            break
    return spaces, series


def _counted(calls, name, function, *args):
    calls[name] += 1
    return function(*args)


def test_contraction_filtration_equals_lambda2_preimages(catalog_tables, random_algebras_dim7,
                                                          random_algebras_dim10, twins_dim7, twins_dim10,
                                                          monkeypatch):
    rng = random.Random(0x5A1D)
    algebras = [algebra for _, algebra, _, _ in catalog_tables.values()]
    algebras += [lie.m0(m) for m in range(3, 15)]
    # the twins keep coordinate filtrations; the sheared copies do not
    algebras += [sheared(a, rng) for a in algebras]
    algebras += [b for a, twin in zip(random_algebras_dim7 + random_algebras_dim10, twins_dim7 + twins_dim10)
                 for b in (a, twin, sheared(a, rng))]
    assert len(algebras) == 2 * (44 + 12) + 3 * (50 + 200)
    # filtrations by coordinates, which both sides must read off at every
    # level: the catalog, m0(3..16) and R (+) h for the 11 catalog entries h of dim <= 5
    sums = [lie.direct_sum(lie.abelian(1), algebra) for e, algebra, _, _ in catalog_tables.values() if e.dim <= 5]
    coordinate = set(algebras[:44 + 12] + [lie.m0(15), lie.m0(16)] + sums)
    # e^4 - e^5 is closed and [e_1, e_2] = e_4 + e_5: every level is eliminated.
    # partial has V_1 spanned by e^1, e^2, e^3 and e^5 - e^6 in V_2.
    closed, partial = lie.parse_salamon("(0,0,0,12,12)"), lie.parse_salamon("(0,0,0,12,14+23,14)")
    algebras += [lie.m0(15), lie.m0(16), *sums, closed, partial]
    calls, eliminations = Counter(), {}
    for name in ("null_space", "_span"):
        monkeypatch.setattr(lie, name, functools.partial(_counted, calls, name, getattr(lie, name)))
    accepted = 0
    for a in algebras:
        constants = clear_denominators(a.c)
        calls.clear()
        spaces, series = _levels(a.m, constants)
        eliminations[a] = (calls["null_space"], calls["_span"])
        reference = _lambda2_filtration(a.m, _d1(a.m, constants))
        assert _same_spaces(spaces, reference), lie.to_salamon(a)
        assert _same_spaces(spaces, a.filtration.spaces)
        # n^i = ann(V_i), whichever branch gave each level
        assert _same_spaces(series, [_annihilator(v) for v in reference]), lie.to_salamon(a)
        # a filtration by coordinates eliminates no level, any other at least one
        by_coordinates = all(len(row) == 1 for space in spaces for row in space.rows)
        assert by_coordinates or a not in coordinate
        assert (eliminations[a] == (0, 0)) == by_coordinates, (lie.to_salamon(a), eliminations[a])
        accepted += by_coordinates
    assert len(sums) == 11 and len(coordinate) < accepted < len(algebras) - 300, accepted
    # closed eliminates V_1, V_2, n^1 and n^2; partial V_2, V_3, n^2 and n^3,
    # and its table is that of its coordinate twin
    assert eliminations[closed] == eliminations[partial] == (2, 2)
    assert spectral.table_for(partial) == spectral.table_for(lie.parse_salamon("(0,0,0,12,23,14)"))


# so(3), the non-abelian 2-dim algebra de^2 = e^1 ^ e^2, the latter beside a
# nilpotent summand, and the latter again after a shear as (-12,12), whose
# V_1 = span(e^1 + e^2) is not by coordinates: Jacobi holds, the series
# stops short of n
_NOT_NILPOTENT = [
    (3, {(2, 3, 1): 1, (1, 3, 2): -1, (1, 2, 3): 1}),
    (2, {(1, 2, 2): 1}),
    (5, {(1, 2, 2): 1, (3, 4, 5): 1}),
    (6, {(1, 2, 2): 1, (3, 4, 5): 1, (3, 5, 6): 2}),
    (2, {(1, 2, 1): -1, (1, 2, 2): 1}),
]
_NOT_JACOBI = [
    (6, {(1, 2, 3): 1, (1, 3, 4): 1, (2, 4, 5): 1, (3, 4, 6): 1, (2, 5, 6): 1}),
    (5, {(1, 2, 3): Fraction(1, 2), (1, 3, 4): 1, (3, 4, 5): Fraction(-3, 2)}),
]


def test_contraction_filtration_on_invalid_inputs():
    # the constants are listed with i < j, as LieAlgebra would store them
    for m, constants in _NOT_NILPOTENT:
        cleared = clear_denominators(constants)
        spaces, _ = _levels(m, cleared)
        assert _same_spaces(spaces, _lambda2_filtration(m, _d1(m, cleared)))
        assert spaces[-1].dim < m
        with pytest.raises(NotNilpotentError):
            LieAlgebra(m, constants)
    for m, constants in _NOT_JACOBI:
        cleared = clear_denominators(constants)
        assert not compose_is_zero(mask_walk_columns(m, cleared, 2), mask_walk_columns(m, cleared, 1))
        with pytest.raises(JacobiError):
            LieAlgebra(m, constants)


def _random_constants(rng, m):
    """A few integer constants c_abj (a < b), mostly with j > b as in a
    nilpotent algebra; repeated keys add up and may cancel."""
    constants = {}
    for _ in range(rng.randint(1, m)):
        a, b = sorted(rng.sample(range(1, m + 1), 2))
        j = rng.randint(b + 1, m) if b < m and rng.random() < 0.85 else rng.randint(1, m)
        constants[a, b, j] = constants.get((a, b, j), 0) + rng.choice([-2, -1, 1, 1, 2])
    return {key: c for key, c in constants.items() if c}


def test_jacobi_from_constants_equals_d_squared(catalog_tables, random_algebras_dim7, twins_dim7):
    """lie._jacobi_holds agrees with d2 . d1 = 0 on the columns of the mask walk
    of tests/reference.py, which takes raw constants with a term in e^j of de^j:
    2400 seeded random constant sets of dimension 3-8, and the catalog, the
    dimension <= 7 fixtures and their twins, each as is and with one
    constant moved by +-1.  Both outcomes occur, and so does Jacobi holding
    only because the d of the terms of some de^j cancel in the sum."""
    rng = random.Random(0x1AC0B1)
    cases = [(m, _random_constants(rng, m)) for m in (rng.randint(3, 8) for _ in range(2400))]
    algebras = [a for _, a, _, _ in catalog_tables.values()] + random_algebras_dim7 + twins_dim7
    for a in algebras:
        constants = clear_denominators(a.c)
        cases.append((a.m, constants))
        if constants:
            key = rng.choice(sorted(constants))
            cases.append((a.m, {**constants, key: constants[key] + rng.choice([-1, 1])}))
    outcomes = {True: 0, False: 0}
    cancelled = 0
    for m, constants in cases:
        d = {q: mask_walk_columns(m, constants, q) for q in (1, 2)}
        holds = compose_is_zero(d[2], d[1])
        assert lie._jacobi_holds(m, constants) == holds, (m, constants)
        outcomes[holds] += 1
        # some term e^a ^ e^b of some de^j has d(e^a ^ e^b) != 0
        cancelled += holds and any(d[2].get(key) for col in d[1].values() for key in col)
    assert len(cases) >= 2000 and min(outcomes.values()) > 1000 and cancelled > 30, (outcomes, cancelled)


def test_shared_column_annihilation_equals_the_pairwise_sum():
    """lie._annihilates(v, n), which sums products only at the columns the
    rows share, agrees with the plain sum over every pair of rows on 800
    seeded pairs of canonical subspaces of Q^2..Q^9, each by coordinates or
    spanned by dense rows.  Every mix of the two kinds gives both outcomes,
    most of the zero pairings between nonzero spaces: n is drawn inside the
    annihilator of v about half the time."""
    rng = random.Random(0xA221)
    outcomes, nonzero = Counter(), Counter()
    for _ in range(800):
        m = rng.randint(2, 9)
        kinds = rng.choice([("coordinate", "coordinate"), ("coordinate", "dense"),
                            ("dense", "coordinate"), ("dense", "dense")])
        support = rng.sample(range(m), rng.randint(1, m - 1))  # the rows of v live on these columns
        if kinds[0] == "coordinate":
            v = Subspace.coordinate(rng.sample(support, rng.randint(1, len(support))), m)
        else:
            v = span([[rng.randint(-3, 3) if j in support else 0 for j in range(m)]
                      for _ in range(rng.randint(1, len(support)))], m)
        if rng.random() < 0.5:  # inside the annihilator of v
            if kinds[1] == "coordinate":
                n = Subspace.coordinate([j for j in range(m) if all(j not in x for x in v.rows)], m)
            else:
                basis = _annihilator(v).rows if v.dim else Subspace.full(m).rows
                n = span([[sum(rng.randint(-2, 2) * row.get(j, 0) for row in basis) for j in range(m)]
                          for _ in range(rng.randint(1, 3))], m)
        elif kinds[1] == "coordinate":
            n = Subspace.coordinate(rng.sample(range(m), rng.randint(1, m)), m)
        else:
            n = span([[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(1, m))], m)
        plain = not any(sum(x[j] * u[j] for j in x.keys() & u.keys()) for x in v.rows for u in n.rows)
        assert lie._annihilates(v, n) == plain, (v.rows, n.rows)
        outcomes[kinds, plain] += 1
        nonzero[kinds, plain] += plain and v.dim > 0 and n.dim > 0
    assert len(outcomes) == 8 and min(outcomes.values()) > 50, outcomes
    assert min(nonzero[kinds, True] for kinds, _ in outcomes) > 40, nonzero


def test_jacobi_error_comes_before_any_filtration_work(monkeypatch):
    def fail(*args):
        raise AssertionError("filtration work started")

    monkeypatch.setattr(lie, "_levels", fail)
    for m, constants in _NOT_JACOBI:
        with pytest.raises(JacobiError):
            LieAlgebra(m, constants)
    lie.validate_algebra.cache_clear()  # a memoised filtration would skip the patched function
    with pytest.raises(AssertionError, match="filtration work started"):
        lie.m0(4)


def test_annihilation_is_checked_on_masks(monkeypatch):
    # n^i moved onto the lowest basis vectors keeps dim V_i + dim n^i = m but meets V_i
    levels = lie._levels
    monkeypatch.setattr(lie, "_levels", lambda m, constants: ((v, (1 << n.bit_count()) - 1)
                                                              for v, n in levels(m, constants)))
    lie.validate_algebra.cache_clear()  # a memoised filtration would skip the patched levels
    assert lie.parse_salamon("(0,0,0)").filtration.k == 1  # n^1 = 0 meets nothing
    with pytest.raises(InternalConsistencyError, match=r"^V_1 does not annihilate the primal ideal n\^1$"):
        lie.parse_salamon("(0,0,12)")


def test_filtration_computed_once_per_algebra(monkeypatch):
    calls = []
    original = lie._levels

    def counting(*args):
        for level in original(*args):
            calls.append(level)
            yield level

    monkeypatch.setattr(lie, "_levels", counting)
    # a memoised filtration or cached complex would hide a second computation
    lie.validate_algebra.cache_clear()
    spectral.complex_for.cache_clear()
    a = lie.parse_salamon("(0,0,12,13,23,14+25)", label="first")
    b = lie.parse_salamon("(0,0,12,13,23,14+25)", label="second")
    spectral.table_for(a)
    spectral.table_for(b)
    # one step to each of V_1 .. V_k: the levels were run once
    assert [lie._space(v, a.m) for v, _ in calls] == list(a.filtration.spaces[1:])
    assert a.filtration is b.filtration


def test_invalid_algebra_raises_on_every_construction():
    # the memo stores no exception: the second construction validates again
    lie.validate_algebra.cache_clear()
    for _ in range(2):
        with pytest.raises(JacobiError):
            lie.parse_salamon("(0,0,12,13,24,34+25)")
    info = lie.validate_algebra.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def test_strict_growth_to_full():
    for a in [lie.parse_salamon("(0,0,12,13)"), lie.m0(6)]:
        f = a.filtration
        dims = [s.dim for s in f.spaces]
        assert dims[0] == 0 and dims[-1] == a.m
        assert all(x < y for x, y in zip(dims, dims[1:]))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_m0_small_cases():
    assert lie.m0(3).c == lie.parse_salamon("(0,0,12)").c
    assert lie.to_salamon(lie.m0(4)) == "(0,0,12,13)"
    assert lie.to_salamon(lie.m0(6)) == "(0,0,12,13,14,15)"
    with pytest.raises(lie.LieError):
        lie.m0(2)


def test_direct_sum_blocks():
    s = lie.direct_sum(lie.abelian(1), lie.parse_salamon("(0,0,12)"))
    assert s.m == 4
    assert s.c == {(2, 3, 4): Fraction(1)}
    assert lie.direct_sum(lie.abelian(1), lie.abelian(1)).c == {}
    # the label of a sum names both summands, and only when both have one
    h = lie.parse_salamon("(0,0,12)", label="h3")
    assert lie.direct_sum(lie.abelian(1, label="R"), h).label == "R (+) h3"
    assert lie.direct_sum(lie.abelian(1), h).label is None
    assert lie.direct_sum(h, lie.abelian(1)).label is None


def test_direct_sum_keeps_nilpotency_index():
    h = lie.parse_salamon("(0,0,12,13)")
    for s in (1, 2, 3):
        ext = lie.direct_sum(lie.abelian(s), h)
        assert ext.filtration.k == 3
