"""Exact radical arithmetic: worked values, ring axioms, serialization."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cuntzrep
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


def test_the_unit_root_is_the_shared_one():
    # so the kernel's `is ONE` short cuts skip the product by a unit weight
    assert sqrt_int(1) is ONE
    with pytest.raises(ValueError):
        sqrt_int(1.0)


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


@pytest.mark.parametrize(
    "value", [0, 1, -1, 2, -7, 10**30, Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(5, 10**20)]
)
def test_rational_hash_agrees_with_equality(value):
    half = Fraction(value) / 2
    for x in (RadicalScalar.from_rational(value), RadicalScalar({4: half}), sqrt_int(2) * sqrt_int(2) * half):
        assert x == value
        assert hash(x) == hash(value) == hash(Fraction(value))
        assert len({x, value}) == 1
    assert len({ONE, 1}) == 1 and len({ZERO, 0, sqrt_int(3) - sqrt_int(3)}) == 1


def test_json_radicand_over_the_bound_is_refused_before_splitting():
    # 10**30 + 57 is prime: trial division would run for hours
    code = (
        "from cuntzrep import RadicalScalar, RepSpec, vector_from_json\n"
        "coeff = [{'radicand': 10**30 + 57, 'coeff': '1/1'}]\n"
        "for read in (lambda: RadicalScalar.from_json(coeff),\n"
        "             lambda: vector_from_json(RepSpec.parse('1'), {'terms': [{'label': 'vac', 'coeff': coeff}]})):\n"
        "    try:\n"
        "        read()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cuntzrep.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=5)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "radicand must be at most 1000000000000\n" * 2
    bound = RadicalScalar.from_json([{"radicand": 10**12, "coeff": "3/2"}])
    assert bound == RadicalScalar.from_rational(Fraction(3 * 10**6, 2))


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


# ---------------------------------------------------------------------------
# Differential test against a {radicand: Fraction} reference
# ---------------------------------------------------------------------------
#
# Both sides of every check run through this layer, so the engine's oracles
# cannot catch a fault in it.  The reference below is plain dict arithmetic
# on Fraction coefficients, with its own square-free split.


def _ref_split(m):
    k = math.isqrt(m)
    while m % (k * k):
        k -= 1
    return k, m // (k * k)


def _ref_add(x, y):
    out = dict(x)
    for d, c in y.items():
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


def _ref_mul(x, y):
    out = {}
    for d1, c1 in x.items():
        for d2, c2 in y.items():
            s, d = _ref_split(d1 * d2)
            out[d] = out.get(d, 0) + c1 * c2 * s
    return {d: c for d, c in out.items() if c}


def _ref_neg(x):
    return {d: -c for d, c in x.items()}


def _ref_text(x):
    out = []
    for d, c in sorted(x.items()):
        mag = str(abs(c))
        if d > 1:
            mag = f"sqrt({d})" if abs(c) == 1 else f"{mag}*sqrt({d})"
        out.append(("-" if c < 0 else "") + mag if not out else (" - " if c < 0 else " + ") + mag)
    return "".join(out) or "0"


def _assert_canonical(value):
    den, pairs = value._form
    assert isinstance(den, int) and den >= 1
    assert math.gcd(den, *(n for _, n in pairs)) == 1
    radicands = [d for d, _ in pairs]
    assert radicands == sorted(set(radicands))
    assert all(_ref_split(d)[0] == 1 for d in radicands)
    assert all(isinstance(n, int) and n for _, n in pairs)


def _assert_matches(value, ref):
    _assert_canonical(value)
    assert value.terms == tuple(sorted(ref.items()))
    assert str(value) == _ref_text(ref)
    assert value.to_json() == [
        {"radicand": d, "coeff": f"{c.numerator}/{c.denominator}"} for d, c in sorted(ref.items())
    ]
    assert value == RadicalScalar(ref)
    if set(ref) <= {1}:
        rational = ref.get(1, Fraction(0))
        assert value == rational and hash(value) == hash(rational)


_ref_coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def valued(draw):
    """A scalar built by the constructor or by arithmetic, with its reference."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 30), _ref_coeffs), max_size=4))
    ref = {}
    for m, c in pairs:
        s, d = _ref_split(m)
        ref = _ref_add(ref, {d: c * s} if c else {})
    if draw(st.booleans()):
        value = RadicalScalar(pairs)
    else:
        value = ZERO
        for m, c in pairs:
            value = value + RadicalScalar.from_rational(c) * RadicalScalar.sqrt_int(m)
    return value, ref


@given(valued(), valued(), _ref_coeffs)
def test_matches_fraction_reference(a, b, r):
    (x, rx), (y, ry) = a, b
    _assert_matches(x, rx)
    _assert_matches(x + y, _ref_add(rx, ry))
    _assert_matches(x - y, _ref_add(rx, _ref_neg(ry)))
    _assert_matches(-x, _ref_neg(rx))
    _assert_matches(x * y, _ref_mul(rx, ry))
    rr = {1: r} if r else {}
    _assert_matches(x * r, _ref_mul(rx, rr))
    _assert_matches(r + x, _ref_add(rx, rr))
    assert (x == y) == (rx == ry)
    assert (x == r) == (rx == rr)
    if x == y:
        assert hash(x) == hash(y)
    if ry:
        quotient = x / y
        _assert_canonical(quotient)
        assert _ref_mul(dict(quotient.terms), ry) == rx
        inverse = y.inverse()
        _assert_canonical(inverse)
        assert _ref_mul(dict(inverse.terms), ry) == {1: 1}
