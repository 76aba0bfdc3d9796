"""Unit and property tests for the sparse polynomial substrate."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    assert (X1 + X2) * (X1 - X2) == X1**2 - X2**2


def test_pow():
    assert (X1 + 1) ** 3 == X1**3 + 3 * X1**2 + 3 * X1 + 1
    assert (X1 + X2) ** 0 == MPoly.const(1)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MPoly({(-1,): 2})


# ---------------------------------------------------------------------------
# derivative, substitution, evaluation
# ---------------------------------------------------------------------------


def test_partial_derivative_examples():
    b42 = 4 * X1 * X3 + 3 * X2**2
    assert b42.partial_derivative(2) == 6 * X2
    assert (X1 * X3).partial_derivative(5) == MPoly.zero()
    assert (X1**3 * X2).partial_derivative(1) == 3 * X1**2 * X2


def test_derivatives_commute():
    p = 5 * X1**2 * X2 * X3 - 4 * X2**3 + X1 * X3**2
    for i in range(1, 4):
        for j in range(1, 4):
            assert p.partial_derivative(i).partial_derivative(j) == p.partial_derivative(
                j
            ).partial_derivative(i)


def test_substitute_identity():
    p = 15 * X1 * X2**2 - 4 * X1**2 * X3
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
    s31 = 3 * X2**2 - X1 * X3
    assert s31.eval_rat([1, 1, 1]) == 2
    b42 = 4 * X1 * X3 + 3 * X2**2
    assert b42.eval_rat([1, 1, 1]) == 7
    assert (X1 * X2 + X3).eval_rat([0, 0, 0]) == 0
    assert (X1 * X2).eval_rat([Fraction(1, 2), Fraction(2, 3)]) == Fraction(1, 3)


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------


def test_degrees():
    s42 = 15 * X1 * X2**2 - 4 * X1**2 * X3
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
    assert total == LaurentX1.zero()
    assert total.x1_den == 0


def test_laurent_reduce():
    v = LaurentX1(X1**2 * X2, 3)
    assert v.num == X2
    assert v.x1_den == 1
    assert str(v) == "X2/X1"


def test_laurent_mixed_add():
    v = LaurentX1(X2, 2) + LaurentX1.from_poly(X1)
    assert v.num == X2 + X1**3
    assert v.x1_den == 2


def test_laurent_to_poly_guard():
    with pytest.raises(ValueError):
        LaurentX1(X2, 1).to_poly()
    assert LaurentX1(X1 * X2, 1).to_poly() == X2


def test_laurent_eval():
    v = LaurentX1(-X2, 3)  # -X2/X1^3
    assert v.eval_rat([Fraction(1, 2), 3]) == -24


# ---------------------------------------------------------------------------
# rendering, parsing, serialization
# ---------------------------------------------------------------------------


def test_format_examples():
    assert format_poly(MPoly.zero()) == "0"
    assert format_poly(MPoly.const(1)) == "1"
    assert format_poly(-X2) == "-X2"
    assert format_poly(X1**2) == "X1^2"
    assert format_poly(3 * X2**2 - X1 * X3) == "3*X2^2 - X1*X3"


def test_graded_lex_order():
    # degree first, then ascending lexicographic comparison of exponents
    p = X1**2 + X2 + X1 * X3 + MPoly.const(4)
    assert [e for e, _ in p.terms()] == [(), (0, 1), (1, 0, 1), (2,)]


def test_parse_round_trip_fixed():
    for text in ["0", "1", "-X2", "3*X2^2 - X1*X3", "-15*X2^3 + 10*X1*X2*X3 - X1^2*X4"]:
        assert format_poly(parse_poly(text)) == text


def test_json_round_trip():
    p = 945 * X1 * X2**4 - 840 * X1**2 * X2**2 * X3
    assert MPoly.from_json(p.to_json()) == p
    v = LaurentX1(p, 5)
    assert LaurentX1.from_json_dict(v.to_json_dict()) == v


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
    assert MPoly.from_json_dict(p.to_json_dict()) == p


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


def test_keys_trimmed_and_checked_on_every_path():
    assert MPoly({(1, 0, 0): 2}) == 2 * X1
    assert MPoly({(1, 0, 0): 2, (1,): 3}) == 5 * X1
    assert MPoly({(0, 0): 4}) == MPoly.const(4)
    assert MPoly({(0, 1): 1}).coefficient((0, 1, 0)) == 1
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
    p = 3 * X2**2 - X1 * X3
    v = LaurentX1.from_poly(p)
    assert v == p
    assert hash(v) == hash(p)
    assert {v} & {p} == {v}
    assert LaurentX1(p * X1**2, 2) == p
    assert hash(LaurentX1(p * X1**2, 2)) == hash(p)
    assert LaurentX1.from_poly(MPoly.const(5)) in {5}
    assert LaurentX1.zero() in {0}
    assert LaurentX1(p, 1) != p
    # comparing with a bool must not raise, although MPoly.const(True) does
    assert LaurentX1.one() == True  # noqa: E712
    assert MPoly.zero() == False  # noqa: E712


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(0, 3))
def test_equal_values_hash_equal(p, den):
    v = LaurentX1(p * X1**den, den)
    assert v == p and hash(v) == hash(p)
    q = MPoly(dict(p.terms()))
    assert q == p and hash(q) == hash(p)
    if p.width() == 0:
        c = p.coefficient(())
        assert p == c and hash(p) == hash(c)


# ---------------------------------------------------------------------------
# strict text grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["", "   ", "3 X1", "X1 X2", "X0", "X0^2", "X01", "+X1", "X1+X2", "X1 +X2", "X1 + ",
     "- X1", "X1 + - X2", "3*", "*X1", "X1^", "X1**2", "x1", "3.5*X1", "X1^-1", "2 3"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_parse_accepts_the_grammar():
    assert parse_poly(" 3*X2^2 - X1*X3\n") == 3 * X2**2 - X1 * X3
    assert parse_poly("X1 - X1") == MPoly.zero()
    assert parse_poly("2*X1*X1 + X1^2") == 3 * X1**2
    assert parse_poly("-12") == MPoly.const(-12)
    assert parse_poly("X12^3") == MPoly.monomial(1, (0,) * 11 + (3,))


wide_exponents = st.lists(st.integers(0, 12), min_size=0, max_size=12).map(tuple)
big_coefficients = st.integers(-(10**30), 10**30).filter(lambda c: c != 0)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(wide_exponents, big_coefficients, max_size=8).map(MPoly))
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p)) == p
    assert format_poly(parse_poly(format_poly(p))) == format_poly(p)
