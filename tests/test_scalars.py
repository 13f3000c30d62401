"""Exact radical arithmetic: worked values, ring axioms, serialization."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuntzrep.scalars import ONE, ZERO, RadicalScalar, sqrt_int, square_free_split


def test_square_free_split_examples():
    assert square_free_split(1) == (1, 1)
    assert square_free_split(2) == (1, 2)
    assert square_free_split(4) == (2, 1)
    assert square_free_split(12) == (2, 3)
    assert square_free_split(49) == (7, 1)
    assert square_free_split(720) == (12, 5)


def test_square_free_split_rejects_nonpositive():
    with pytest.raises(ValueError):
        square_free_split(0)
    with pytest.raises(ValueError):
        square_free_split(-3)


def test_sqrt_products():
    assert sqrt_int(2) * sqrt_int(2) == RadicalScalar.from_rational(2)
    assert sqrt_int(2) * sqrt_int(3) == sqrt_int(6)
    # sqrt(12)*sqrt(3) = sqrt(36) = 6
    assert sqrt_int(12) * sqrt_int(3) == RadicalScalar.from_rational(6)
    assert abs((sqrt_int(12) * sqrt_int(3)).to_float() - 6.0) < 1e-12


def test_sqrt_normalizes_square_part():
    assert sqrt_int(8) == RadicalScalar({2: Fraction(2)})
    assert str(sqrt_int(8)) == "2*sqrt(2)"
    assert sqrt_int(9) == RadicalScalar.from_rational(3)


def test_memoised_sqrt_int_matches_the_uncached_root():
    for m in range(1, 301):
        first = sqrt_int(m)
        assert sqrt_int(m) is first  # the second call is a cache hit
        uncached = RadicalScalar.sqrt_int(m)
        assert first == uncached and first.terms == uncached.terms and str(first) == str(uncached)
    for bad in (0, -3, 2.0):
        with pytest.raises(ValueError):
            sqrt_int(bad)


def test_conjugate_product():
    x = ONE + sqrt_int(2)
    y = ONE - sqrt_int(2)
    assert x * y == RadicalScalar.from_rational(-1)


def test_inverse_examples():
    x = ONE + sqrt_int(2)
    assert x.inverse() == sqrt_int(2) - ONE
    assert x * x.inverse() == ONE
    for val in (
        sqrt_int(3),
        RadicalScalar.from_rational(Fraction(-3, 7)),
        ONE + sqrt_int(2) + sqrt_int(3),
        sqrt_int(6) - sqrt_int(2) + RadicalScalar.from_rational(Fraction(5, 2)),
    ):
        assert val * val.inverse() == ONE


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(RadicalScalar.from_rational(Fraction(3, 2))) == "3/2"
    assert str(sqrt_int(2)) == "sqrt(2)"
    assert str(-sqrt_int(2)) == "-sqrt(2)"
    assert str(RadicalScalar.from_rational(2) * sqrt_int(3)) == "2*sqrt(3)"
    assert str(ONE + sqrt_int(2)) == "1 + sqrt(2)"
    assert str(ONE - sqrt_int(2)) == "1 - sqrt(2)"


def test_json_round_trip():
    for val in (ZERO, ONE, sqrt_int(18), ONE - sqrt_int(2) + sqrt_int(15)):
        assert RadicalScalar.from_json(val.to_json()) == val


def test_equality_coerces_plain_numbers():
    assert RadicalScalar.from_rational(2) == 2
    assert RadicalScalar.from_rational(Fraction(1, 3)) == Fraction(1, 3)
    assert sqrt_int(2) != 2


_coeffs = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)
_radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


@st.composite
def scalars(draw):
    pairs = draw(
        st.lists(st.tuples(_radicands, _coeffs), min_size=0, max_size=3)
    )
    return RadicalScalar({d: q for d, q in pairs})


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO
    assert ONE * a == a
    assert ZERO * a == ZERO


@given(scalars())
def test_canonical_idempotence(a):
    assert RadicalScalar(dict(a.terms)) == a
    assert RadicalScalar.from_json(a.to_json()) == a


@given(scalars())
def test_inverse_of_nonzero(a):
    if a:
        assert a * a.inverse() == ONE


@given(scalars(), scalars())
def test_float_coherence(a, b):
    scale = max(1.0, abs(a.to_float()), abs(b.to_float()))
    assert math.isclose(
        (a * b).to_float(), a.to_float() * b.to_float(), abs_tol=1e-9 * scale * scale
    )
    assert math.isclose(
        (a + b).to_float(), a.to_float() + b.to_float(), abs_tol=1e-9 * scale
    )


@given(scalars())
def test_subtraction_is_addition_of_negation(a):
    assert a - a == ZERO
    assert ZERO - a == -a
