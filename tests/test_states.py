"""Vector arithmetic over the exact scalar field."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cuntzrep.basis import BasisLabel, RepSpec, enumerate_basis
from cuntzrep.scalars import MINUS_ONE, ONE, ZERO, RadicalScalar, sqrt_int
from cuntzrep.states import RepMismatchError, StateVector, merge_terms
from test_scalars import scalars

FOCK = RepSpec.parse("1")
WEDGE = RepSpec.parse("12")

VAC = BasisLabel(0, "", 0)
TWO = BasisLabel(0, "2", 0)
TWOTWO = BasisLabel(0, "22", 0)


def test_zero_and_basis_construction():
    z = StateVector.zero(FOCK)
    assert not z
    assert len(z) == 0
    assert z.terms() == []
    assert z.depth() == 0

    v = StateVector.basis(FOCK, VAC)
    assert bool(v)
    assert len(v) == 1
    assert v.coeff(VAC) == ONE
    assert v.coeff(TWO) == ZERO


def test_constructor_drops_zero_and_merges():
    v = StateVector(FOCK, [(VAC, 1), (VAC, -1), (TWO, 2), (TWO, ZERO)])
    assert v.labels() == [TWO]
    assert v.coeff(TWO) == 2


def test_terms_sorted_canonically():
    v = StateVector(FOCK, [(TWOTWO, 1), (VAC, 1), (TWO, 1)])
    assert v.labels() == [VAC, TWO, TWOTWO]
    assert v.depth() == 2


def test_combine_is_self_plus_scaled_other():
    v = StateVector.basis(FOCK, VAC)
    w = StateVector.basis(FOCK, TWO)
    u = v.combine(sqrt_int(2), w)
    assert u.coeff(VAC) == ONE
    assert u.coeff(TWO) == sqrt_int(2)
    # cancellation removes the label entirely
    assert (u - u).terms() == []


def test_add_sub_scale():
    v = StateVector.basis(FOCK, VAC)
    w = StateVector.basis(FOCK, TWO)
    s = v + w
    assert s.coeff(VAC) == ONE and s.coeff(TWO) == ONE
    d = s - w
    assert d == v
    half = RadicalScalar.from_rational(Fraction(1, 2))
    assert (half * v).coeff(VAC) == half
    assert v.scale(0) == StateVector.zero(FOCK)


def test_inner_is_symmetric_bilinear():
    v = StateVector.basis(FOCK, VAC).scale(sqrt_int(2)) + StateVector.basis(FOCK, TWO)
    w = StateVector.basis(FOCK, VAC).scale(sqrt_int(2)) - StateVector.basis(FOCK, TWO)
    # sqrt(2)*sqrt(2) - 1*1 = 1, with no conjugation anywhere
    assert v.inner(w) == ONE
    assert w.inner(v) == ONE
    assert v.inner(v) == RadicalScalar.from_rational(3)
    assert StateVector.zero(FOCK).inner(v) == ZERO


def test_rep_mismatch_rejected():
    v = StateVector.basis(FOCK, VAC)
    w = StateVector.basis(WEDGE, VAC)
    with pytest.raises(RepMismatchError):
        v + w
    with pytest.raises(RepMismatchError):
        v.inner(w)


def test_vectors_are_immutable():
    v = StateVector.basis(FOCK, VAC)
    with pytest.raises(AttributeError):
        v.rep = WEDGE


def test_equality_and_hash():
    v = StateVector(FOCK, [(VAC, 1), (TWO, 2)])
    w = StateVector(FOCK, [(TWO, 2), (VAC, 1)])
    assert v == w
    assert hash(v) == hash(w)
    assert v != StateVector(FOCK, [(VAC, 1)])
    assert v != StateVector(WEDGE, [(VAC, 1), (TWO, 2)])


_LABELS = enumerate_basis(FOCK, 3)

_scalars = st.builds(
    RadicalScalar.from_rational,
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)

_vectors = st.builds(
    lambda pairs: StateVector(FOCK, pairs),
    st.lists(st.tuples(st.sampled_from(_LABELS), _scalars), max_size=5),
)


@given(_vectors, _vectors, _vectors)
def test_addition_axioms(u, v, w):
    assert (u + v) == (v + u)
    assert ((u + v) + w) == (u + (v + w))
    assert (u + StateVector.zero(FOCK)) == u


@given(_vectors, _vectors, _scalars, _scalars)
def test_scaling_axioms(u, v, a, b):
    assert (a * (u + v)) == (a * u) + (a * v)
    assert ((a + b) * u) == (a * u) + (b * u)
    assert (a * (b * u)) == ((a * b) * u)


@given(_vectors, _vectors, _vectors, _scalars)
def test_inner_bilinearity(u, v, w, a):
    assert u.inner(v) == v.inner(u)
    assert (u + v).inner(w) == u.inner(w) + v.inner(w)
    assert (a * u).inner(w) == a * u.inner(w)


@st.composite
def _pairs_and_permutation(draw):
    """(key, scalar) pairs over a few keys, where every pair of each key in a
    drawn set is followed by its negation, so those keys cancel exactly."""
    pairs = draw(st.lists(st.tuples(st.sampled_from("uvwx"), scalars()), max_size=8))
    cancelled = draw(st.sets(st.sampled_from("uvwx")))
    pairs += [(key, -c) for key, c in pairs if key in cancelled]
    return pairs, cancelled, draw(st.permutations(pairs))


@given(_pairs_and_permutation(), st.integers(0, 16))
def test_merge_terms_is_the_exact_sparse_sum(drawn, split):
    pairs, cancelled, permuted = drawn
    merged = merge_terms(pairs)
    keys = {key for key, _ in pairs}
    assert all(merged.values())
    assert set(merged) <= keys and not set(merged) & cancelled
    for key in keys:
        assert merged.get(key, ZERO) == sum((c for k, c in pairs if k == key), ZERO)
    assert merge_terms(permuted) == merged
    # summing on into a dict already holding a prefix's sum
    assert merge_terms(pairs[split:], merge_terms(pairs[:split])) == merged


def test_merge_terms_cancels_the_shared_unit_signs_without_an_addition(monkeypatch):
    def no_addition(a, b):
        raise AssertionError(f"{a} + {b} was added")

    monkeypatch.setattr(RadicalScalar, "__add__", no_addition)
    assert merge_terms([("u", ONE), ("u", MINUS_ONE), ("v", MINUS_ONE), ("v", ONE)]) == {}
    assert merge_terms([("u", MINUS_ONE)], {"u": ONE}) == {}


def test_merge_terms_drops_a_lone_zero():
    assert merge_terms([("u", ZERO), ("v", ONE)]) == {"v": ONE}
    assert merge_terms([("u", RadicalScalar.from_rational(0))]) == {}
