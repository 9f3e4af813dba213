from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mordell.errors import InputError
from mordell.exact_num import (
    MultiPoly,
    coprime_fraction,
    format_rational,
    parse_integer,
    parse_rational,
    poly_eval,
)


# -- rationals ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Fraction(0)),
        ("-3", Fraction(-3)),
        ("129/100", Fraction(129, 100)),
        ("-383/1000", Fraction(-383, 1000)),
        ("4/6", Fraction(2, 3)),  # normalization happens on parse
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["", "1.5", "1/0", "+3", " 3", "3 ", "a/b", "1/-2"])
def test_parse_rational_rejects(text):
    with pytest.raises(InputError):
        parse_rational(text)


@given(st.fractions(max_denominator=10**6))
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.fractions(), st.integers(0, 10**400))
def test_coprime_fraction_equals_fraction(q, big):
    # a large coprime pair as well as a small one
    for n, d in ((q.numerator, q.denominator), (big * 2 + 1, 2**1500)):
        f = coprime_fraction(n, d)
        assert type(f) is Fraction
        assert f == Fraction(n, d)
        assert (f.numerator, f.denominator) == (Fraction(n, d).numerator, Fraction(n, d).denominator)


def test_parse_integer():
    assert parse_integer("-120") == -120
    with pytest.raises(InputError, match="exceeds the digit limit"):
        parse_integer("1" * 5000)


# -- polynomial ring laws -----------------------------------------------------------

coeffs = st.fractions(max_denominator=50).filter(lambda q: abs(q) <= 50)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exps, coeffs, max_size=5).map(lambda d: MultiPoly(2, d))


@given(polys, polys, polys)
def test_addition_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p + MultiPoly(2) == p
    assert p - p == MultiPoly(2)


@given(polys, polys, polys)
def test_multiplication_laws(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * MultiPoly.constant(2, 1) == p
    assert p * (q + r) == p * q + p * r


@given(polys, st.tuples(coeffs, coeffs))
def test_eval_is_a_ring_map(p, pt):
    q = MultiPoly.variable(2, 0) * MultiPoly.constant(2, 2)
    assert poly_eval(p + q, pt) == poly_eval(p, pt) + poly_eval(q, pt)
    assert poly_eval(p * q, pt) == poly_eval(p, pt) * poly_eval(q, pt)


def test_eval_arity_mismatch():
    with pytest.raises(InputError):
        poly_eval(MultiPoly.variable(2, 0), (1,))


def test_zero_coefficients_are_dropped():
    p = MultiPoly(1, {(1,): Fraction(1)})
    assert p - p == MultiPoly(1)
    assert (p - p).terms == {}
    assert p.is_zero() is False


def test_pow_and_degree():
    x = MultiPoly.variable(3, 0)
    y = MultiPoly.variable(3, 2)
    p = (x + y) ** 2
    assert p == x * x + x * y * MultiPoly.constant(3, 2) + y * y
    assert p.used_variables() == {0, 2}
