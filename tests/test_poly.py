"""Unit and property tests for the sparse polynomial substrate."""

from __future__ import annotations

import copy
import json
import pickle
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mspkit.poly import LaurentX1, MPoly, format_poly, parse_poly

X1, X2, X3 = MPoly.var(1), MPoly.var(2), MPoly.var(3)


# ---------------------------------------------------------------------------
# arithmetic basics
# ---------------------------------------------------------------------------


def test_add_table_row():
    # 3*X2^2 + (-X1*X3) assembles a first-kind generation-3 polynomial
    got = MPoly.monomial(3, (0, 2)) + MPoly.monomial(-1, (1, 0, 1))
    assert str(got) == "3*X2^2 - X1*X3"


def test_add_identity_and_cancellation():
    p = 3 * X1 * X2 - X3
    assert p + MPoly.zero() == p
    assert (5 * X1) + (-5 * X1) == MPoly.zero()
    assert ((5 * X1) + (-5 * X1)).is_zero


def test_mul_basics():
    assert X1 * (-3 * X2) == MPoly.monomial(-3, (1, 1))
    p = 7 * X1 * X3 - 2 * X2
    assert p * MPoly.const(1) == p
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MPoly({(-1,): 2})


# ---------------------------------------------------------------------------
# derivative, substitution, evaluation
# ---------------------------------------------------------------------------


def test_partial_derivative_examples():
    b42 = 4 * X1 * X3 + 3 * X2 * X2
    assert b42.partial_derivative(2) == 6 * X2
    assert (X1 * X3).partial_derivative(5) == MPoly.zero()
    assert parse_poly("X1^3*X2").partial_derivative(1) == 3 * X1 * X1 * X2


def test_derivatives_commute():
    p = parse_poly("5*X1^2*X2*X3 - 4*X2^3 + X1*X3^2")
    for i in range(1, 4):
        for j in range(1, 4):
            assert p.partial_derivative(i).partial_derivative(j) == p.partial_derivative(
                j
            ).partial_derivative(i)


def test_substitute_identity():
    p = 15 * X1 * X2 * X2 - 4 * X1 * X1 * X3
    assert p.substitute([X1, X2, X3]) == p


def test_substitute_composition():
    # B_{3,2} = 3 X1 X2 at X1 <- 1, X2 <- -X2, then times X1
    b32 = 3 * X1 * X2
    inner = b32.substitute([MPoly.const(1), -X2])
    assert inner == -3 * X2
    assert X1 * inner == -3 * X1 * X2


def test_substitute_missing_entry():
    p = X1 * X3
    with pytest.raises(ValueError):
        p.substitute([X1, X2])


def test_eval_rat():
    s31 = 3 * X2 * X2 - X1 * X3
    assert s31.eval_rat([1, 1, 1]) == 2
    b42 = 4 * X1 * X3 + 3 * X2 * X2
    assert b42.eval_rat([1, 1, 1]) == 7
    assert (X1 * X2 + X3).eval_rat([0, 0, 0]) == 0
    assert (X1 * X2).eval_rat([Fraction(1, 2), Fraction(2, 3)]) == Fraction(1, 3)


@pytest.mark.parametrize(
    "point",
    [[2, -3, 5], [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)], [3, Fraction(-1, 4), 2]],
    ids=["int", "fraction", "mixed"],
)
def test_eval_rat_int_fraction_and_mixed_points(point):
    p = parse_poly("3*X2^2 - X1*X3 + 5*X1^3*X2 - 7")
    as_fractions = [Fraction(v) for v in point]
    x, y, z = as_fractions
    want = 3 * y**2 - x * z + 5 * x**3 * y - 7
    for poly, value in ((p, want), (LaurentX1(p, 3), want / x**3)):
        got = poly.eval_rat(point)
        assert got == value == poly.eval_rat(as_fractions)
        assert type(got) is Fraction


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------


def test_degrees():
    s42 = 15 * X1 * X2 * X2 - 4 * X1 * X1 * X3
    assert s42.homogeneous_degree() == 3
    assert s42.isobaric_degree() == 5
    mixed = X1 + X2
    assert mixed.homogeneous_degree() == 1
    assert mixed.isobaric_degree() is None
    with pytest.raises(ValueError):
        MPoly.zero().homogeneous_degree()
    with pytest.raises(ValueError):
        MPoly.zero().isobaric_degree()


# ---------------------------------------------------------------------------
# Laurent values
# ---------------------------------------------------------------------------


def test_laurent_mul():
    a = LaurentX1(MPoly.const(1), 1)
    assert a * a == LaurentX1(MPoly.const(1), 2)


def test_laurent_cancellation():
    s21 = -X2
    total = LaurentX1(s21, 3) + LaurentX1(X2, 3)
    assert total.is_zero
    assert total == LaurentX1(MPoly.zero())
    assert total.x1_den == 0


def test_laurent_reduce():
    v = LaurentX1(X1 * X1 * X2, 3)
    assert v.num == X2
    assert v.x1_den == 1
    assert str(v) == "X2/X1"


def test_laurent_mixed_add():
    v = LaurentX1(X2, 2) + LaurentX1(X1)
    assert v.num == X2 + X1 * X1 * X1
    assert v.x1_den == 2


def test_laurent_to_poly_guard():
    with pytest.raises(ValueError):
        LaurentX1(X2, 1).to_poly()
    assert LaurentX1(X1 * X2, 1).to_poly() == X2


def test_laurent_to_latex():
    p = 3 * X2 * X2 - X1 * X3
    assert LaurentX1(p, 0).to_latex() == p.to_latex() == "3X_{2}^{2} - X_{1}X_{3}"
    assert LaurentX1(-3 * X2, 4).to_latex() == "X_{1}^{-4}(-3X_{2})"
    assert LaurentX1(MPoly.const(1), 1).to_latex() == "X_{1}^{-1}(1)"


def test_laurent_eval():
    v = LaurentX1(-X2, 3)  # -X2/X1^3
    assert v.eval_rat([Fraction(1, 2), 3]) == -24
    # with no denominator, X1 = 0 is no pole
    assert LaurentX1(X2 - X1).eval_rat([0, Fraction(3, 2)]) == Fraction(3, 2)


# ---------------------------------------------------------------------------
# rendering, parsing, serialization
# ---------------------------------------------------------------------------


def test_format_examples():
    assert format_poly(MPoly.zero()) == "0"
    assert format_poly(MPoly.const(1)) == "1"
    assert format_poly(-X2) == "-X2"
    assert format_poly(X1 * X1) == "X1^2"
    assert format_poly(3 * X2 * X2 - X1 * X3) == "3*X2^2 - X1*X3"


def test_graded_lex_order():
    # degree first, then ascending lexicographic comparison of exponents
    p = X1 * X1 + X2 + X1 * X3 + MPoly.const(4)
    assert [e for e, _ in p.terms()] == [(), (0, 1), (1, 0, 1), (2,)]


def test_parse_round_trip_fixed():
    for text in ["0", "1", "-X2", "3*X2^2 - X1*X3", "-15*X2^3 + 10*X1*X2*X3 - X1^2*X4"]:
        assert format_poly(parse_poly(text)) == text


def from_json(data):
    return MPoly({tuple(t["exponents"]): int(t["coeff"]) for t in data["terms"]})


def test_json_round_trip():
    p = parse_poly("945*X1*X2^4 - 840*X1^2*X2^2*X3")
    assert from_json(json.loads(json.dumps(p.to_json_dict()))) == p
    d = LaurentX1(p, 5).to_json_dict()
    assert LaurentX1(from_json(d), d["x1_den"]) == LaurentX1(p, 5)


def test_json_coefficients_are_strings():
    d = (10**40 * X1).to_json_dict()
    assert d["terms"][0]["coeff"] == str(10**40)


# ---------------------------------------------------------------------------
# algebraic laws on random sparse polynomials
# ---------------------------------------------------------------------------

exponents = st.lists(st.integers(0, 3), min_size=0, max_size=6).map(tuple)
coefficients = st.integers(-99, 99).filter(lambda c: c != 0)
polys = st.dictionaries(exponents, coefficients, max_size=5).map(MPoly)
points = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=7), min_size=6, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_add_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(polys)
def test_int_minus_poly(p):
    assert 7 - p == -(p - 7)


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(0, 4), polys, st.integers(0, 4), st.integers(-3, 3))
def test_laurent_add_matches_shift_and_add(p, dp, q, dq, c):
    # the larger denominator, both numerators shifted to it, added and wrapped
    def shift_and_add(a, b):
        d = max(a.x1_den, b.x1_den)
        return LaurentX1(a.num.shift_x1(d - a.x1_den) + b.num.shift_x1(d - b.x1_den), d)

    a, b = LaurentX1(p, dp), LaurentX1(q, dq)
    assert a + b == shift_and_add(a, b)
    assert q + a == a + q == shift_and_add(a, LaurentX1(q))
    assert c + a == a + c == shift_and_add(a, LaurentX1(MPoly.const(c)))


def test_int_and_poly_minus_laurent():
    v = LaurentX1(X2, 1)
    assert 3 - v == -(v - 3) == LaurentX1(3 * X1 - X2, 1)
    assert X2 - v == -(v - X2) == LaurentX1(X1 * X2 - X2, 1)
    with pytest.raises(TypeError, match="unsupported operand"):
        "3" - v


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_associativity_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(polys, polys, points)
def test_eval_is_ring_hom(a, b, point):
    assert (a * b).eval_rat(point) == a.eval_rat(point) * b.eval_rat(point)
    assert (a + b).eval_rat(point) == a.eval_rat(point) + b.eval_rat(point)


@settings(max_examples=40, deadline=None)
@given(polys)
def test_substitute_identity_random(p):
    width = max(p.width(), 1)
    assert p.substitute([MPoly.var(j) for j in range(1, width + 1)]) == p


@settings(max_examples=40, deadline=None)
@given(polys)
def test_canonical_idempotence(p):
    # rebuilding from the term list is a no-op, and parsing the printed
    # form recovers the value
    assert MPoly(dict(p.terms())) == p
    assert parse_poly(format_poly(p)) == p
    assert from_json(p.to_json_dict()) == p


@settings(max_examples=40, deadline=None)
@given(polys, st.integers(1, 4), st.integers(1, 4))
def test_derivative_commutes_random(p, i, j):
    assert p.partial_derivative(i).partial_derivative(j) == p.partial_derivative(
        j
    ).partial_derivative(i)


# ---------------------------------------------------------------------------
# canonical-form guards: integer coefficients, trimmed nonnegative exponents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("coeff", [1.5, 2.0, 0.0, True, False, Fraction(1, 2), Fraction(4, 2)])
def test_non_int_coefficients_rejected(coeff):
    with pytest.raises(ValueError, match="is not an int"):
        MPoly({(1,): coeff})
    with pytest.raises(ValueError, match="is not an int"):
        MPoly.const(coeff)


@pytest.mark.parametrize(
    "op",
    [
        lambda: X1 * True,
        lambda: True * X1,
        lambda: X1 * False,
        lambda: X1 - True,
        lambda: True - X1,
        lambda: X1 + True,
        lambda: LaurentX1(X1, 2) * True,
        lambda: True * LaurentX1(X1, 2),
        lambda: LaurentX1(X1, 2) - True,
        lambda: LaurentX1(X1, 2) + False,
        lambda: True - LaurentX1(X1, 2),
    ],
)
def test_scalar_operators_reject_bools(op):
    with pytest.raises(ValueError, match=r"^coefficient (True|False) is not an int$"):
        op()


def test_keys_trimmed_and_checked_on_every_path():
    assert MPoly({(1, 0, 0): 2}) == 2 * X1
    assert MPoly({(1, 0, 0): 2, (1,): 3}) == 5 * X1
    assert MPoly({(0, 0): 4}) == MPoly.const(4)
    assert MPoly({(0, 1): 1}).terms() == MPoly({(0, 1, 0): 1}).terms() == [((0, 1), 1)]
    assert [e for e, _ in MPoly({(2, 0): 1, (0, 0, 1, 0): 1}).terms()] == [(0, 0, 1), (2,)]
    with pytest.raises(ValueError, match="negative exponent"):
        MPoly({(0, -1, 2): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        MPoly({(1, -2, 0): 1})


# ---------------------------------------------------------------------------
# hashing agrees with equality across MPoly, LaurentX1 and int
# ---------------------------------------------------------------------------


def test_constant_hashes_as_its_int():
    assert MPoly.const(3) == 3
    assert hash(MPoly.const(3)) == hash(3)
    assert {MPoly.const(3)} & {3} == {3}
    assert MPoly.const(-7) in {-7: "x"}
    assert MPoly.zero() == 0
    assert hash(MPoly.zero()) == hash(0)
    assert {MPoly.zero()} & {0} == {0}
    assert MPoly.const(10**40) in {10**40}


def test_laurent_without_denominator_hashes_as_numerator():
    p = 3 * X2 * X2 - X1 * X3
    v = LaurentX1(p)
    assert v == p
    assert hash(v) == hash(p)
    assert {v} & {p} == {v}
    assert LaurentX1(p * X1 * X1, 2) == p
    assert hash(LaurentX1(p * X1 * X1, 2)) == hash(p)
    assert LaurentX1(MPoly.const(5)) in {5}
    assert LaurentX1(MPoly.zero()) in {0}
    assert LaurentX1(p, 1) != p
    # comparing with a bool must not raise, although MPoly.const(True) does
    assert LaurentX1(MPoly.const(1)) == True  # noqa: E712
    assert MPoly.zero() == False  # noqa: E712


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(0, 3))
def test_equal_values_hash_equal(p, den):
    v = LaurentX1(p.shift_x1(den), den)
    assert v == p and hash(v) == hash(p)
    q = MPoly(dict(p.terms()))
    assert q == p and hash(q) == hash(p)
    if p.width() == 0:
        c = dict(p.terms()).get((), 0)
        assert p == c and hash(p) == hash(c)


# ---------------------------------------------------------------------------
# strict text grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["", "   ", "3 X1", "X1 X2", "X0", "X0^2", "X01", "+X1", "X1+X2", "X1 +X2", "X1 + ",
     "- X1", "X1 + - X2", "3*", "*X1", "X1^", "X1**2", "x1", "3.5*X1", "X1^-1", "2 3",
     None, 3],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_parse_accepts_the_grammar():
    assert parse_poly(" 3*X2^2 - X1*X3\n") == 3 * X2 * X2 - X1 * X3
    assert parse_poly("X1 - X1") == MPoly.zero()
    assert parse_poly("2*X1*X1 + X1^2") == MPoly.monomial(3, (2,))
    assert parse_poly("-12") == MPoly.const(-12)
    assert parse_poly("X12^3") == MPoly.monomial(1, (0,) * 11 + (3,))


wide_exponents = st.lists(st.integers(0, 12), min_size=0, max_size=12).map(tuple)
big_coefficients = st.integers(-(10**30), 10**30).filter(lambda c: c != 0)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(wide_exponents, big_coefficients, max_size=8).map(MPoly))
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p)) == p
    assert format_poly(parse_poly(format_poly(p))) == format_poly(p)


# ---------------------------------------------------------------------------
# strict input: exponents and x1_den must be integers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exps", [(1.5,), (2.0,), (True,), (1, 0.0), (1, False), ("1",)])
def test_non_int_exponents_rejected(exps):
    with pytest.raises(ValueError, match="is not an int"):
        MPoly({exps: 2})


@pytest.mark.parametrize(
    "build",
    [lambda: MPoly({1: 2}), lambda: MPoly({None: 1}), lambda: MPoly({(1,): 1, 2: 1}),
     lambda: MPoly.monomial(1, 5), lambda: MPoly.monomial(1, None),
     # iterables of ints that are not tuples; these once packed as X1*X2^2 or X2*X3^2
     lambda: MPoly({frozenset({1, 2}): 1}), lambda: MPoly({b"\x01\x02": 1}),
     lambda: MPoly({range(3): 1}), lambda: MPoly({(1,): 1, range(3): 1})],
)
def test_non_tuple_monomials_rejected(build):
    with pytest.raises(ValueError, match="is not a tuple of exponents"):
        build()


@pytest.mark.parametrize("terms", [True, -1, object(), [((1,), 2)], {(1,): 2}.items(), 0, False,
                                   pytest.param([], id="empty-list"),
                                   pytest.param("", id="empty-str")])
def test_terms_must_be_a_mapping(terms):
    with pytest.raises(ValueError, match="is not a mapping of monomials to ints"):
        MPoly(terms)


def test_no_terms_is_the_zero_polynomial():
    assert MPoly() == MPoly(None) == MPoly({}) == MPoly.zero()
    assert len(MPoly({})) == 0
    # truth is having a term
    assert bool(MPoly.zero()) is False
    assert bool(MPoly.const(-4)) is bool(X1 * X2) is True


@pytest.mark.parametrize(
    "value", [MPoly.zero(), MPoly.const(-4), 3 * X1 * X2 - X3 + 7,
              LaurentX1(X2 - X1 * X3, 3), LaurentX1(MPoly.const(5))],
    ids=["zero", "const", "mpoly", "laurent", "laurent-no-den"],
)
def test_values_copy_pickle_and_refuse_deletion(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert str(twin) == str(value)
    for name in value.__slots__:
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)


@pytest.mark.parametrize("args", [(3,), (None,), ("X1",), (X1, [1]), (X1, 1), (X1, "yes")],
                         ids=repr)
def test_format_poly_rejects_wrong_input(args):
    with pytest.raises(ValueError, match="format_poly needs an MPoly and a bool"):
        format_poly(*args)


@pytest.mark.parametrize("den", [1.9, 1.0, True, "1", -1])
def test_non_integer_x1_den_rejected(den):
    with pytest.raises(ValueError, match="x1_den must be a nonnegative int"):
        LaurentX1(X2, den)


@pytest.mark.parametrize("num", [3, 0, Fraction(1, 2), None, "X1", LaurentX1(MPoly.const(1))])
def test_laurent_numerator_must_be_a_poly(num):
    with pytest.raises(ValueError, match="is not an MPoly"):
        LaurentX1(num)
    with pytest.raises(ValueError, match="is not an MPoly"):
        LaurentX1(num, 2)


def test_laurent_operators_defer_on_foreign_operands():
    one = LaurentX1(MPoly.const(1))
    for other in (Fraction(1, 2), 0.5, "x"):
        with pytest.raises(TypeError):
            one + other
        with pytest.raises(TypeError):
            other + one
        with pytest.raises(TypeError):
            one * other
        with pytest.raises(TypeError):
            other * one
    with pytest.raises(TypeError):
        one - Fraction(1, 2)
    assert one + X1 == X1 + one == LaurentX1(X1 + 1)
    assert one * 3 == 3 * one == 3


# ---------------------------------------------------------------------------
# strict arguments: indices, exponents and X1 shifts must be ints, not bools
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("j", [True, 1.0, 2.5, "1"])
def test_var_rejects_non_int_index(j):
    with pytest.raises(ValueError, match="must be an int"):
        MPoly.var(j)


@pytest.mark.parametrize("j", [True, 1.0, 2.5])
def test_partial_derivative_rejects_non_int_index(j):
    with pytest.raises(ValueError, match="must be an int"):
        (X1 * X2 * X2).partial_derivative(j)


@pytest.mark.parametrize("m", [1.5, 1.0, 0.0, True])
def test_shift_x1_rejects_non_int(m):
    with pytest.raises(ValueError, match="is not an int"):
        (X1 * X2 * X2).shift_x1(m)


# ---------------------------------------------------------------------------
# packed keys: every exponent is at most 2^15 - 1, so no product carries
# ---------------------------------------------------------------------------

LIMIT = 2**15 - 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: MPoly({(LIMIT + 1,): 1}),
        lambda: MPoly({(0, 2**16): 1}),
        lambda: MPoly({(1, 0): 1, (0, 0, 10**6): 1}),
        lambda: MPoly.monomial(1, (3, LIMIT + 1)),
        lambda: MPoly.monomial(1, (LIMIT,)) * X1,
        lambda: MPoly.monomial(1, (20000,)) * MPoly.monomial(1, (20000,)),
        lambda: MPoly({(LIMIT, LIMIT): 1}) * MPoly({(LIMIT, LIMIT): 1}),
        lambda: MPoly.monomial(1, (0, 16384)) * MPoly.monomial(1, (1, 16384)),
        lambda: X1.shift_x1(2**15),
        lambda: MPoly.monomial(1, (LIMIT, 1)).shift_x1(1),
        lambda: (X1 * X1).shift_x1(-3),
        lambda: (X1 * X1 + X2).shift_x1(-1),
    ],
)
def test_exponent_limit_raises(build):
    with pytest.raises(ValueError, match="exceeds 32767|not divisible"):
        build()


def test_exponents_up_to_the_limit_work():
    p = MPoly.monomial(1, (LIMIT,))
    assert p.terms() == [((LIMIT,), 1)]
    assert MPoly.monomial(1, (16384,)) * MPoly.monomial(1, (16383,)) == p
    shifted = MPoly.monomial(1, (1, 0, LIMIT)).shift_x1(LIMIT - 1)
    assert shifted == MPoly.monomial(1, (LIMIT, 0, LIMIT))
    assert p.shift_x1(-LIMIT) == 1
    assert p.partial_derivative(1) == MPoly.monomial(LIMIT, (LIMIT - 1,))
    # full neighbouring fields stay apart
    q = MPoly({(LIMIT, LIMIT, LIMIT): 2}) * MPoly.const(3)
    assert q.terms() == [((LIMIT, LIMIT, LIMIT), 6)]
    half = MPoly({(0, LIMIT // 2): 1})
    assert str(half * half) == f"X2^{LIMIT - 1}"


def test_exponent_messages_unchanged():
    with pytest.raises(ValueError) as exc:
        MPoly({(1, 1.5): 2})
    assert str(exc.value) == "exponent in (1, 1.5) is not an int"
    with pytest.raises(ValueError) as exc:
        MPoly({(2,): 1, (1, True): 2})
    assert str(exc.value) == "exponent in (1, True) is not an int"
    with pytest.raises(ValueError) as exc:
        MPoly({(2,): 1, (1, -1, 0): 2})
    assert str(exc.value) == "negative exponent in (1, -1, 0)"
    with pytest.raises(ValueError) as exc:
        MPoly({(0, LIMIT + 1): 1})
    assert str(exc.value) == "exponent in (0, 32768) exceeds 32767"
    with pytest.raises(ValueError) as exc:
        MPoly({(0, 2**16): 1})
    assert str(exc.value) == "exponent in (0, 65536) exceeds 32767"


# ---------------------------------------------------------------------------
# the constructor against an oracle, and its message for each fault
# ---------------------------------------------------------------------------

Pair = namedtuple("Pair", "a b")
padded_keys = st.builds(lambda e, pad: e + (0,) * pad, exponents, st.integers(0, 2))
constructor_keys = st.one_of(padded_keys, st.builds(Pair, st.integers(0, 3), st.integers(0, 3)))


def constructor_oracle(terms):
    """The terms of MPoly(terms): trim each key, sum colliding keys, drop zeros."""
    out = {}
    for exps, coeff in terms.items():
        trimmed = tuple(exps)
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        out[trimmed] = out.get(trimmed, 0) + coeff
    return {e: c for e, c in out.items() if c}


@st.composite
def term_mappings(draw):
    terms = draw(st.dictionaries(constructor_keys, st.integers(-3, 3), max_size=8))
    # a padded copy of a key with the opposite coefficient cancels it
    for exps in draw(st.lists(st.sampled_from(list(terms) or [()]), max_size=3)):
        terms[tuple(exps) + (0,)] = -terms.get(exps, 0)
    return terms


@settings(max_examples=150, deadline=None)
@given(term_mappings())
@example({(1,): 2, (1, 0): 3, (1, 0, 0): -1})
@example({(0, 1): 2, (0, 1, 0): -2, (): 0})
@example({Pair(1, 0): 5, (1,): 1, Pair(0, 2): -4, (0, 2, 0): 4})
def test_constructor_matches_oracle(terms):
    assert dict(MPoly(terms).terms()) == constructor_oracle(terms)


# one fault per mapping, and the exact message it raises
@pytest.mark.parametrize(
    "terms, message",
    [
        ({5: 1}, "monomial 5 is not a tuple of exponents"),
        ({(1, 2.5): 1}, "exponent in (1, 2.5) is not an int"),
        ({(True,): 1}, "exponent in (True,) is not an int"),
        ({(0, -1): 1}, "negative exponent in (0, -1)"),
        ({(32768,): 1}, "exponent in (32768,) exceeds 32767"),
        ({(1, 65536): 1}, "exponent in (1, 65536) exceeds 32767"),
        ({(70000,): 1}, "exponent in (70000,) exceeds 32767"),
        ({(1,): True}, "coefficient True is not an int"),
        ([1, 2], "terms [1, 2] is not a mapping of monomials to ints"),
    ],
    ids=["non-tuple", "float", "bool", "negative", "32768", "65536", "70000",
         "bool-coeff", "non-mapping"],
)
def test_constructor_message_for_each_fault(terms, message):
    with pytest.raises(ValueError) as exc:
        MPoly(terms)
    assert str(exc.value) == message


def test_constructor_names_the_first_faulty_term_as_given():
    with pytest.raises(ValueError) as exc:
        MPoly({(1,): True, (2, -1): 1})
    assert str(exc.value) == "coefficient True is not an int"
    with pytest.raises(ValueError) as exc:
        MPoly({(2, -1): 1, (1,): True})
    assert str(exc.value) == "negative exponent in (2, -1)"
    with pytest.raises(ValueError) as exc:
        MPoly({(40000, 0): 1})
    assert str(exc.value) == "exponent in (40000, 0) exceeds 32767"


def test_substitute_does_not_sort(monkeypatch):
    p = 3 * X2 * X2 - X1 * X3 + 7
    want = p.substitute([X2, X1, X1 + X2])
    monkeypatch.setattr(MPoly, "terms", None)
    assert p.substitute([X2, X1, X1 + X2]) == want == 3 * X1 * X1 - X2 * X1 - X2 * X2 + 7


# The tuple-keyed kernel that MPoly used before its keys were packed ints,
# kept here as an independent oracle: term dicts map exponent tuples,
# trimmed of trailing zeros, to nonzero ints.


def _trim(exps):
    t = tuple(exps)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def ref_canonical(terms):
    out = {}
    for exps, coeff in terms.items():
        out = ref_add(out, {_trim(exps): coeff})
    return out


def ref_add(a, b):
    out = dict(a)
    for exps, coeff in b.items():
        c = out.get(exps, 0) + coeff
        if c:
            out[exps] = c
        else:
            out.pop(exps, None)
    return out


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if len(ea) < len(eb):
                ea_p, eb_p = eb, ea
            else:
                ea_p, eb_p = ea, eb
            key = tuple(x + (eb_p[i] if i < len(eb_p) else 0) for i, x in enumerate(ea_p))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def ref_partial_derivative(a, j):
    i = j - 1
    out = {}
    for exps, coeff in a.items():
        if i >= len(exps) or exps[i] == 0:
            continue
        e = exps[i]
        key = _trim(exps[:i] + (e - 1,) + exps[i + 1:])
        out[key] = out.get(key, 0) + coeff * e
    return out


def ref_shift_x1(a, m):
    out = {}
    for exps, coeff in a.items():
        e0 = (exps[0] if exps else 0) + m
        if e0 < 0:
            raise ValueError("not divisible by X1^%d" % -m)
        out[_trim((e0,) + exps[1:])] = coeff
    return out


def ref_substitute(a, subs):
    total = {}
    for exps, coeff in a.items():
        term = {(): coeff}
        for i, e in enumerate(exps):
            for _ in range(e):
                term = ref_mul(term, subs[i])
        total = ref_add(total, term)
    return total


def _too_big(terms):
    return any(e > LIMIT for exps in terms for e in exps)


# exponents near 2^14 make some products cross the limit
oracle_exponents = st.lists(
    st.one_of(st.integers(0, 3), st.integers(16381, 16386)), max_size=5
).map(tuple)
oracle_terms = st.dictionaries(oracle_exponents, coefficients, max_size=5).map(ref_canonical)
small_terms = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=3).map(tuple), coefficients, max_size=3
).map(ref_canonical)


@settings(max_examples=150, deadline=None)
@given(oracle_terms, oracle_terms, st.integers(1, 6), st.integers(-4, 4))
def test_kernels_match_tuple_oracle(a, b, j, m):
    p, q = MPoly(a), MPoly(b)
    assert dict(p.terms()) == a
    want = ref_mul(a, b)
    if _too_big(want):
        with pytest.raises(ValueError, match="exceeds 32767"):
            p * q
    else:
        assert dict((p * q).terms()) == want
    assert dict(p.partial_derivative(j).terms()) == ref_partial_derivative(a, j)
    try:
        want = ref_shift_x1(a, m)
    except ValueError:
        with pytest.raises(ValueError, match="not divisible"):
            p.shift_x1(m)
    else:
        if _too_big(want):
            with pytest.raises(ValueError, match="exceeds 32767"):
                p.shift_x1(m)
        else:
            assert dict(p.shift_x1(m).terms()) == want


@settings(max_examples=60, deadline=None)
@given(small_terms, st.lists(small_terms, min_size=3, max_size=3))
def test_substitute_matches_tuple_oracle(a, subs):
    got = MPoly(a).substitute([MPoly(s) for s in subs])
    assert dict(got.terms()) == ref_substitute(a, subs)


# a list of (a, b, c) term-dict triples, each maybe followed by its negation
# (b, a, -c), so that parts cancel, in shuffled order
sum_parts = st.lists(
    st.tuples(oracle_terms, oracle_terms, st.integers(-3, 3), st.booleans()), max_size=4
).map(lambda ts: [p for a, b, c, neg in ts for p in [(a, b, c)] + [(b, a, -c)] * neg]
      ).flatmap(st.permutations)


@settings(max_examples=150, deadline=None)
@given(sum_parts)
def test_sum_products_matches_fold(parts):
    want = {}
    for a, b, c in parts:
        want = ref_add(want, ref_mul(ref_mul(a, b), {(): c}))
    factors = [(MPoly(a), MPoly(b), c) for a, b, c in parts]
    if _too_big(want):
        with pytest.raises(ValueError, match="exceeds 32767"):
            MPoly.sum_products(factors)
        return
    got = MPoly.sum_products(iter(factors))
    assert dict(got.terms()) == want
    assert 0 not in got._terms.values()
    try:
        fold = reduce(add, (a * b * c for a, b, c in factors), MPoly.zero())
    except ValueError:  # a product crossed the limit, and the sum cancels it
        assert any(_too_big(ref_mul(a, b)) for a, b, _ in parts)
    else:
        assert got == fold


def test_sum_products_cancels_and_takes_empty_input():
    p, q = 3 * X1 * X2 - X3, X2 * X2 + 5
    assert MPoly.sum_products([(p, q, 4), (q, p, -4)])._terms == {}
    assert MPoly.sum_products([]) == MPoly.sum_products(iter(())) == MPoly.zero()
    assert MPoly.sum_products([(p, q, 0)])._terms == {}
    x1 = MPoly.monomial(1, (LIMIT,))
    assert MPoly.sum_products([(x1, X1, 1), (X1, x1, -1), (p, q, 2)]) == 2 * p * q


@pytest.mark.parametrize(
    "part, message",
    [
        ((X1, 2, 1), "factor 2 is not an MPoly"),
        ((3, X1, 1), "factor 3 is not an MPoly"),
        ((LaurentX1(X2, 1), X1, 1), "factor LaurentX1(X2/X1) is not an MPoly"),
        ((X1, X2, True), "coefficient True is not an int"),
        ((X1, X2, 1.0), "coefficient 1.0 is not an int"),
        ((X1, X2, Fraction(2)), "coefficient Fraction(2, 1) is not an int"),
        ((X1, X2, "1"), "coefficient '1' is not an int"),
        (5, "part 5 is not an (MPoly, MPoly, int) triple"),
        ((X1, X2), "part (MPoly('X1'), MPoly('X2')) is not an (MPoly, MPoly, int) triple"),
        ((X1, X2, 1, 1),
         "part (MPoly('X1'), MPoly('X2'), 1, 1) is not an (MPoly, MPoly, int) triple"),
    ],
)
def test_sum_products_rejects_bad_parts(part, message):
    with pytest.raises(ValueError) as exc:
        MPoly.sum_products([(X1, X2, 1), part])
    assert str(exc.value) == message


def test_sum_products_passes_on_a_type_error_of_the_parts_iterable():
    def parts():
        yield X1, X2, 1
        raise TypeError("raised by the caller's generator")

    with pytest.raises(TypeError, match="raised by the caller's generator"):
        MPoly.sum_products(parts())


# ---------------------------------------------------------------------------
# exact evaluation: int and Fraction coordinates only, no pole at X1 = 0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, point",
    [
        (X1, [0.1]),
        (X1, [True]),
        (X1 * X2, [1, 2.0]),
        (X1, [1, 0.5]),
        (X1, ["1"]),
        (LaurentX1(X1 + 1), [False]),
        (LaurentX1(X2, 1), [0, 1]),
        (LaurentX1(X2, 2), [Fraction(0), 1]),
        (LaurentX1(MPoly.const(3), 1), []),
    ],
)
def test_eval_rat_rejects_inexact_points_and_poles(value, point):
    with pytest.raises(ValueError, match="is not an int or a Fraction|X1 must be nonzero"):
        value.eval_rat(point)


@pytest.mark.parametrize("value", [X1, MPoly.const(3), LaurentX1(X1 + 1), LaurentX1(X1 + X2, 1)])
@pytest.mark.parametrize("point", [None, 1, {1: 2}, iter([1])])
def test_eval_rat_point_must_be_a_list_or_tuple(value, point):
    with pytest.raises(ValueError, match="is not a list or tuple"):
        value.eval_rat(point)


@pytest.mark.parametrize("value", [X1 * X3, LaurentX1(X3, 2)])
def test_eval_rat_point_must_cover_every_indeterminate(value):
    with pytest.raises(ValueError, match="point covers X1..X2 but X3 occurs"):
        value.eval_rat([1, 2])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: X1.substitute(5), "substitution 5 is not a list or tuple of MPolys"),
        (lambda: X1.substitute(iter([X1])), "is not a list or tuple of MPolys"),
        (lambda: X1.substitute([1.5]), r"substitution \[1.5\] is not a list or tuple of MPolys"),
        (lambda: (X1 + X2).substitute([X2, "X1"]), "is not a list or tuple of MPolys"),
        (lambda: MPoly.sum_products(5), "parts 5 is not an iterable of triples"),
        (lambda: MPoly.sum_products(None), "parts None is not an iterable of triples"),
    ],
    ids=["substitute-int", "substitute-iterator", "substitute-float", "substitute-str",
         "sum-products-int", "sum-products-none"],
)
def test_substitute_and_sum_products_reject_wrong_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
