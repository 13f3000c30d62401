"""Polynomial normal forms over the generator words."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cuntzrep import polynorm
from cuntzrep.basis import BasisLabel, RepSpec, enumerate_basis
from cuntzrep.operators import (
    Adj,
    Fermion,
    Gen,
    Iso,
    LinComb,
    Prod,
    Zeta,
    adjoint,
    apply,
    boson,
    cluster,
    fermion,
    gen,
    ident,
    iso,
    lincomb,
    partial_shift,
    prod,
    range_proj,
    rho,
    shift_series,
    zeta,
)
from cuntzrep.parsing import parse_expr
from cuntzrep.polynorm import (
    FERMION_CAP,
    PolynomialError,
    apply_normal_form,
    collapse,
    monomials,
    poly_normal_form,
    render_monomials,
)
from cuntzrep.scalars import MINUS_ONE, ONE, RadicalScalar, sqrt_int
from cuntzrep.states import StateVector

FOCK = RepSpec.parse("1")


def test_fermion_two_monomials():
    got = {(str(c), u, v) for c, u, v in monomials(fermion(2))}
    assert got == {("1", "11", "12"), ("-1", "21", "22")}


def test_completeness_normalizes_to_identity():
    e = lincomb(
        (ONE, prod(gen(1), adjoint(gen(1)))),
        (ONE, prod(gen(2), adjoint(gen(2)))),
    )
    nf = poly_normal_form(e, depth=1)
    assert nf == poly_normal_form(ident(), depth=1)
    assert collapse(nf.terms) == [(ONE, "", "")]


def test_car_diagonal_normalizes_to_identity():
    a1 = fermion(1)
    e = lincomb(
        (ONE, prod(a1, adjoint(a1))),
        (ONE, prod(adjoint(a1), a1)),
    )
    nf = poly_normal_form(e)
    assert collapse(nf.terms) == [(ONE, "", "")]
    assert render_monomials(collapse(nf.terms)) == "I"


def test_car_nilpotent_normalizes_to_zero():
    a1 = fermion(1)
    nf = poly_normal_form(prod(a1, a1))
    assert nf.is_zero()
    assert render_monomials(collapse(nf.terms)) == "0"


def test_partial_shift_matches_word_form():
    lhs = poly_normal_form(partial_shift(1))
    rhs = poly_normal_form(prod(iso(2), adjoint(gen(2)), adjoint(iso(1))))
    assert collapse(lhs.terms) == collapse(rhs.terms)
    assert collapse(lhs.terms) == [(ONE, "21", "12")]


def test_at_depth_pads_and_refuses_to_lower():
    nf = poly_normal_form(ident())
    assert nf.depth == 0
    deeper = nf.at_depth(2)
    assert deeper.depth == 2
    assert len(deeper.terms) == 4
    assert collapse(deeper.terms) == [(ONE, "", "")]
    with pytest.raises(PolynomialError):
        deeper.at_depth(1)


def test_depth_below_intrinsic_rejected():
    with pytest.raises(PolynomialError):
        poly_normal_form(gen(1), depth=0)


def test_series_operators_have_no_normal_form():
    for e, token in [
        (boson(1), "b(1)"),
        (cluster(1), "F(1)"),
        (shift_series(), "Y"),
        (rho(gen(1)), "rho(...)"),
    ]:
        with pytest.raises(PolynomialError) as err:
            poly_normal_form(e)
        assert str(err.value) == f"{token} is a series operator; it has no polynomial normal form"


def test_fermion_cap_guards_expansion():
    monomials(fermion(FERMION_CAP))  # at the cap still fine
    message = f"a({FERMION_CAP + 1}) expands to 2^{FERMION_CAP} monomials, beyond the cap of a({FERMION_CAP})"
    with pytest.raises(PolynomialError) as err:
        monomials(fermion(FERMION_CAP + 1))
    assert str(err.value) == message


_A9 = fermion(9)


@pytest.mark.parametrize(
    "e, want",
    [
        (lincomb((ONE, prod(_A9, adjoint(_A9))), (ONE, prod(adjoint(_A9), _A9))), [(ONE, "", "")]),
        (lincomb((ONE, _A9), (MINUS_ONE, zeta(fermion(8)))), []),
    ],
)
def test_each_fermion_is_lowered_once_per_call(monkeypatch, e, want):
    # a(9) is zeta applied 8 times to a(1); a(9)*, the second product and
    # an explicit zeta(a(8)) read the same lowerings back
    steps, zeta_step = [], polynorm._zeta

    def counted(inner):
        steps.append(len(inner))
        return zeta_step(inner)

    monkeypatch.setattr(polynorm, "_zeta", counted)
    assert collapse(poly_normal_form(e).terms) == want
    assert steps == [2**k for k in range(8)]


def test_unit_signs_stay_the_shared_objects():
    terms = monomials(prod(fermion(3), adjoint(fermion(3))))
    # -1 * -1 for the words with one 2, so every product is a unit sign
    assert len(terms) == 4
    assert all(c is ONE or c is MINUS_ONE for c, _, _ in terms)


@pytest.mark.parametrize("text", ["a(6) a(5)* - (-1) a(5)* a(6)", "-1 a(6) a(5)* - 1 a(5)* a(6)"])
def test_scaled_unit_signs_merge_without_an_addition(monkeypatch, text):
    # a scaled part of a sum picks its signs, and a literal 1 parses as the shared ONE
    e = parse_expr(text)
    add = RadicalScalar.__add__
    calls = []
    monkeypatch.setattr(RadicalScalar, "__add__", lambda a, b: calls.append(1) or add(a, b))
    assert poly_normal_form(e).terms == ()  # the CAR pair anticommutes
    assert not calls


def test_apply_normal_form_matches_direct_evaluation():
    basis = enumerate_basis(FOCK, 3)
    v = StateVector(FOCK, [(basis[0], 1), (basis[2], sqrt_int(2)), (basis[5], -1)])
    exprs = [
        fermion(3),
        zeta(fermion(2)),
        prod(fermion(2), adjoint(fermion(2))),
        lincomb((sqrt_int(3), gen(1)), (ONE, adjoint(gen(2)))),
    ]
    for e in exprs:
        nf = poly_normal_form(e)
        assert apply_normal_form(nf, v) == apply(e, v)


def test_render_is_stable_and_readable():
    nf = poly_normal_form(fermion(2))
    assert render_monomials(collapse(nf.terms)) == "t1t1t2*t1* - t2t1t2*t2*"
    minus_half = RadicalScalar.from_rational(-1) / RadicalScalar.from_rational(2)
    text = render_monomials([(minus_half, "1", ""), (sqrt_int(2), "", "2")])
    assert text == "-1/2*t1 + sqrt(2)*t2*"


def test_to_json_round_trips_terms():
    nf = poly_normal_form(fermion(2))
    data = nf.to_json()
    assert data["depth"] == 2
    assert [t["left"] for t in data["terms"]] == ["11", "21"]
    assert [t["right"] for t in data["terms"]] == ["12", "22"]
    coeffs = [RadicalScalar.from_json(t["coeff"]) for t in data["terms"]]
    assert coeffs == [ONE, RadicalScalar.from_rational(-1)]


# ---------------------------------------------------------------------------
# The indexed product against a pairwise reference
# ---------------------------------------------------------------------------


def _pairwise_monomials(e):
    """Unmerged monomials, composing every pair of every product."""
    if isinstance(e, Gen):
        return [(ONE, str(e.letter), "")]
    if isinstance(e, Iso):
        return [(ONE, "2" * (e.n - 1) + "1", "")]
    if isinstance(e, Fermion):
        out = []
        for letters in itertools.product("12", repeat=e.n - 1):
            w = "".join(letters)
            sign = RadicalScalar.from_rational(-1 if w.count("2") % 2 else 1)
            out.append((sign, w + "1", w + "2"))
        return out
    if isinstance(e, Adj):
        return [(c, v, u) for c, u, v in _pairwise_monomials(e.arg)]
    if isinstance(e, Zeta):
        inner = _pairwise_monomials(e.arg)
        return [(c, "1" + u, "1" + v) for c, u, v in inner] + [
            (-c, "2" + u, "2" + v) for c, u, v in inner
        ]
    if isinstance(e, LinComb):
        return [(c * c2, u, v) for c, x in e.parts for c2, u, v in _pairwise_monomials(x)]
    assert isinstance(e, Prod)
    acc = [(ONE, "", "")]
    for f in e.factors:
        nxt = []
        for c1, u1, v1 in acc:
            for c2, u2, v2 in _pairwise_monomials(f):
                if u2.startswith(v1):
                    nxt.append((c1 * c2, u1 + u2[len(v1):], v2))
                elif v1.startswith(u2):
                    nxt.append((c1 * c2, u1, v2 + v1[len(u2):]))
        acc = nxt
    return acc


def _starred(e):
    return st.sampled_from([e, adjoint(e)])


_COEFFS = st.sampled_from([ONE, -ONE, sqrt_int(2), RadicalScalar.from_rational(Fraction(1, 2))])
# isometries and fermions of several sizes, so factors mix left-word
# lengths and products mix right-word lengths
_atoms = st.one_of(
    st.sampled_from([gen(1), gen(2), ident()]).flatmap(_starred),
    st.integers(1, 4).map(iso).flatmap(_starred),
    st.integers(1, 6).map(fermion).flatmap(_starred),
    st.integers(0, 3).map(range_proj),
    st.integers(1, 3).map(partial_shift).flatmap(_starred),
)
_distinct_trees = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map(lambda fs: prod(*fs)),
        st.lists(st.tuples(_COEFFS, inner), min_size=1, max_size=3).map(lambda ps: lincomb(*ps)),
        inner.map(zeta),
    ),
    max_leaves=6,
)
# and trees that use one subexpression twice, so the second use reads the
# first's lowering; once only, as a nest of them outgrows _MAX_MONOMIALS
_trees = st.one_of(
    _distinct_trees,
    _distinct_trees.map(lambda x: prod(x, x)),
    st.tuples(_COEFFS, _COEFFS, _distinct_trees).map(lambda t: lincomb((t[0], t[2]), (t[1], t[2]))),
    _distinct_trees.map(lambda x: prod(zeta(x), x)),
)


@settings(max_examples=150, deadline=None)
@given(_trees)
# t1* meets the sum's I by its exact word and t1t1 by its prefix: out of order
@example(prod(adjoint(gen(1)), lincomb((ONE, ident()), (-ONE, prod(gen(1), gen(1))))))
# right words of lengths 1 and 2 meet left words of lengths 1 and 3
@example(
    prod(
        lincomb((ONE, adjoint(gen(1))), (ONE, adjoint(fermion(2)))),
        lincomb((ONE, gen(2)), (ONE, fermion(3))),
    )
)
@example(prod(adjoint(iso(3)), iso(1), adjoint(fermion(2))))
def test_indexed_product_matches_pairwise_reference(e):
    assert monomials(e) == _pairwise_monomials(e)
    # every shared list of the memo still holds its own subexpression's lowering
    memo = {}
    polynorm._lower(e, memo)
    for x, lowered in memo.items():
        assert lowered == _pairwise_monomials(x), x


@pytest.mark.parametrize("n", range(1, 13))
def test_fermion_recursion_matches_word_definition(n):
    assert monomials(fermion(n)) == _pairwise_monomials(fermion(n))


_TOO_MANY = f"the expansion has more than {polynorm._MAX_MONOMIALS} monomials"


@settings(max_examples=100, deadline=None)
@given(_trees, st.randoms(use_true_random=False))
# a left word of 16 letters next to an empty one refines to 2^16 + 1 monomials
@example(lincomb((ONE, prod(iso(4), iso(4), iso(4), iso(4))), (ONE, adjoint(gen(1)))), random.Random(0))
# 2^14 + 1 monomials, whose refinement two letters deeper passes the bound
@example(lincomb((ONE, prod(iso(4), iso(4), iso(4), iso(2))), (ONE, adjoint(gen(1)))), random.Random(0))
def test_collapse_is_independent_of_order_and_depth(e, rnd):
    # a draw past the monomial bound must refuse with the size error
    try:
        nf = poly_normal_form(e)
    except PolynomialError as exc:
        assert str(exc) == _TOO_MANY, e
        return
    want = collapse(nf.terms)
    shuffled = list(nf.terms)
    rnd.shuffle(shuffled)
    assert collapse(shuffled) == want
    for k in (1, 2):
        # every left word has nf.depth letters, so each term refines into 2^k
        if len(nf.terms) << k > polynorm._MAX_MONOMIALS:
            with pytest.raises(PolynomialError) as exc:
                nf.at_depth(nf.depth + k)
            assert str(exc.value) == _TOO_MANY
        else:
            assert collapse(nf.at_depth(nf.depth + k).terms) == want
