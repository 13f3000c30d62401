"""Operator evaluation against hand-computed reference values."""

import copy
import pickle
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import cuntzrep
from cuntzrep import basis, operators, states, suites
from cuntzrep.basis import (
    BasisLabel,
    RepSpec,
    apply_gen,
    apply_gen_adjoint,
    enumerate_basis,
    normalize_label,
)
from cuntzrep.cli import main
from cuntzrep.operators import (
    _act,
    _build,
    _iso_letters,
    adjoint,
    apply,
    boson,
    cluster,
    eval_series_b1_raw,
    fermion,
    gen,
    ident,
    iso,
    kernel_cache_clear,
    kernel_cache_info,
    lincomb,
    partial_shift,
    prod,
    psi,
    psi_fermion_index,
    range_proj,
    range_proj_definition,
    rho,
    s_star_support,
    scaled,
    shift_series,
    zeta,
)
from cuntzrep.polynorm import apply_normal_form, poly_normal_form
from cuntzrep.scalars import ONE, RadicalScalar, sqrt_int
from cuntzrep.states import StateVector

FOCK = RepSpec.parse("1")
WEDGE = RepSpec.parse("12")

ZERO_F = StateVector.zero(FOCK)


def fock(word: str) -> StateVector:
    return StateVector.basis(FOCK, BasisLabel(0, word, 0))


def wedge(word: str, node: int) -> StateVector:
    return StateVector.basis(WEDGE, BasisLabel(0, word, node))


def test_fock_vacuum_relations():
    vac = fock("")
    assert apply(gen(1), vac) == vac
    for n in range(1, 5):
        assert apply(fermion(n), vac) == ZERO_F
        assert apply(boson(n), vac) == ZERO_F


def test_fock_creation_ladder():
    vac = fock("")
    assert apply(adjoint(boson(1)), vac) == fock("2")
    assert apply(adjoint(fermion(1)), vac) == fock("2")
    assert apply(adjoint(boson(2)), vac) == fock("12")
    assert apply(adjoint(fermion(2)), vac) == fock("12")
    assert apply(adjoint(fermion(3)), vac) == fock("112")
    assert apply(boson(1), fock("2")) == vac
    # repeated creation picks up the square-root occupation factors
    two = apply(adjoint(boson(1)), fock("2"))
    assert two == fock("22").scale(sqrt_int(2))
    three = apply(adjoint(boson(1)), two)
    assert three == fock("222").scale(sqrt_int(6))
    assert apply(prod(adjoint(boson(2)), adjoint(boson(1))), vac) == fock("212")


def test_wedge_vacuum_relations():
    vac = wedge("", 0)
    dual = wedge("", 1)
    assert apply(gen(2), vac) == dual
    assert apply(gen(1), dual) == vac
    assert apply(adjoint(boson(1)), vac) == dual
    assert apply(boson(1), dual) == vac
    assert apply(boson(1), vac) == StateVector.zero(WEDGE)
    assert apply(fermion(1), dual) == wedge("1", 0)
    assert apply(adjoint(fermion(1)), dual) == StateVector.zero(WEDGE)
    assert apply(fermion(2), dual) == StateVector.zero(WEDGE)
    assert apply(adjoint(fermion(2)), dual) == wedge("22", 1).scale(-1)


def test_s_star_support_frozen_examples():
    vac_label = BasisLabel(0, "", 0)
    assert s_star_support(fock("22")) == {3: fock("")}
    assert s_star_support(fock("")) == {1: fock("")}
    dual = wedge("", 1)
    assert s_star_support(dual) == {2: dual}
    assert s_star_support(ZERO_F) == {}
    assert not vac_label.word


def test_b1_series_matches_raw_word_series():
    samples = [fock(""), fock("2"), fock("22"), fock("12"),
               fock("2") + fock("22").scale(sqrt_int(3))]
    for v in samples:
        assert apply(boson(1), v) == eval_series_b1_raw(v)


def test_adjoint_is_an_involution():
    exprs = [
        gen(1),
        prod(gen(1), adjoint(gen(2))),
        lincomb((ONE, fermion(3)), (sqrt_int(2), adjoint(boson(2)))),
        cluster(2),
        rho(adjoint(gen(2))),
        zeta(fermion(1)),
        shift_series(),
        range_proj(2),
        partial_shift(1),
        scaled(RadicalScalar.from_rational(Fraction(-1, 2)), iso(3)),
    ]
    for e in exprs:
        assert adjoint(adjoint(e)) == e


_INNER_EXPRS = [
    gen(1),
    gen(2),
    fermion(2),
    boson(1),
    boson(2),
    iso(2),
    cluster(1),
    range_proj(1),
    partial_shift(1),
    shift_series(),
    rho(prod(adjoint(gen(2)), gen(1))),
    zeta(fermion(1)),
]


@pytest.mark.parametrize("expr", _INNER_EXPRS, ids=str)
def test_adjoint_inner_coherence(expr):
    basis = enumerate_basis(WEDGE, 3)
    x = StateVector(WEDGE, [(basis[0], 1), (basis[3], sqrt_int(2)), (basis[5], -1)])
    y = StateVector(WEDGE, [(basis[1], 1), (basis[3], 1), (basis[6], sqrt_int(3))])
    assert apply(expr, x).inner(y) == x.inner(apply(adjoint(expr), y))


def test_psi_routes_to_fermions():
    assert psi_fermion_index(3) == 4
    assert psi_fermion_index(-3) == 3
    assert psi_fermion_index(1) == 2
    assert psi_fermion_index(-1) == 1
    v = fock("12")
    assert apply(psi(3), v) == apply(fermion(4), v)
    assert apply(psi(-3), v) == apply(fermion(3), v)
    assert apply(adjoint(psi(1)), v) == apply(adjoint(fermion(2)), v)


def test_notations_build_the_nodes_they_name():
    assert psi(1) == fermion(2) and type(psi(1)) is operators.Fermion
    assert psi(-1) == fermion(1)
    assert partial_shift(2) == prod(adjoint(fermion(1)), fermion(1), adjoint(fermion(2)), fermion(3))
    assert partial_shift(1) == prod(adjoint(fermion(1)), fermion(2))
    assert type(partial_shift(1)) is operators.Prod
    for gone in ("Psi", "PartialShift", "partial_shift_definition"):
        assert not hasattr(cuntzrep, gone) and not hasattr(operators, gone)


def test_projection_and_identity_are_products():
    assert range_proj(2) == prod(iso(3), adjoint(iso(3)))
    assert adjoint(range_proj(2)) == range_proj(2)
    assert ident() == prod()
    assert pickle.loads(pickle.dumps(ident())) == ident()
    for gone in ("RangeProj", "Ident"):
        assert not hasattr(cuntzrep, gone) and not hasattr(operators, gone)


def _node_kinds(cls=operators.OperatorExpr):
    for sub in cls.__subclasses__():
        if sub.token:  # an abstract base such as _Indexed names no token
            yield sub
        yield from _node_kinds(sub)


def test_every_node_kind_has_its_own_evaluation():
    # a kind is a table entry of the kernel, or one the kernel lowers itself
    lowered = {operators.Adj, operators.Prod, operators.LinComb, operators.Rho, operators.Zeta}
    kinds = set(_node_kinds())
    assert kinds - lowered - set(operators._ENTRIES) == set()
    assert not lowered & set(operators._ENTRIES)


def test_range_projection_values_on_fock():
    vac = fock("")
    assert apply(range_proj(0), vac) == vac
    for m in range(1, 4):
        assert apply(range_proj(m), vac) == ZERO_F
    one_particle = fock("2")
    assert apply(range_proj(1), one_particle) == one_particle
    assert apply(range_proj(0), one_particle) == ZERO_F


def test_cluster_series_values_on_fock():
    vac = fock("")
    assert apply(cluster(1), vac) == ZERO_F
    assert apply(cluster(1), fock("2")) == fock("2")
    assert apply(cluster(1), fock("22")) == fock("22").scale(sqrt_int(2))


def test_evaluator_agrees_with_normal_form_action():
    exprs = [
        range_proj_definition(2),
        partial_shift(2),
        zeta(fermion(2)),
        fermion(3),
        prod(fermion(1), adjoint(fermion(1))),
        lincomb((ONE, gen(1)), (sqrt_int(2), prod(gen(2), adjoint(gen(2))))),
    ]
    basis = enumerate_basis(FOCK, 3)
    v = StateVector(FOCK, [(basis[0], 1), (basis[2], -1), (basis[4], sqrt_int(2))])
    for e in exprs:
        nf = poly_normal_form(e)
        assert apply_normal_form(nf, v) == apply(e, v)


def test_product_composes_right_to_left():
    v = fock("")
    e = prod(adjoint(gen(2)), gen(2))
    assert apply(e, v) == v
    assert apply(prod(gen(1), gen(2)), v) == fock("12")


def test_scaled_and_lincomb_evaluate_linearly():
    v = fock("2")
    half = RadicalScalar.from_rational(Fraction(1, 2))
    assert apply(scaled(half, ident()), v) == v.scale(half)
    e = lincomb((ONE, ident()), (half, gen(1)))
    assert apply(e, v) == v + apply(gen(1), v).scale(half)


@pytest.mark.parametrize(
    "build, arg, message",
    [
        (iso, 0, "s index must be an integer >= 1, got 0"),
        (fermion, 0, "a index must be an integer >= 1, got 0"),
        (boson, 0, "b index must be an integer >= 1, got 0"),
        (range_proj, -1, "W index must be an integer >= 0, got -1"),
        (partial_shift, 0, "X index must be an integer >= 1, got 0"),
        (cluster, 0, "F index must be an integer >= 1, got 0"),
        (fermion, "2", "a index must be an integer >= 1, got '2'"),
        (psi, 2, "psi index must be an odd half-integer p/2, got numerator 2"),
        (psi, 0, "psi index must be an odd half-integer p/2, got numerator 0"),
        (gen, 3, "generator letter must be 1 or 2, got 3"),
    ],
)
def test_constructor_rejects_bad_indices(build, arg, message):
    with pytest.raises(ValueError) as err:
        build(arg)
    assert str(err.value) == message


def test_kinds_stay_distinct():
    assert fermion(3) != boson(3)
    assert iso(1) != fermion(1)
    assert adjoint(fermion(1)) != fermion(1)
    assert rho(gen(1)) != zeta(gen(1))
    family = [f(3) for f in (iso, fermion, boson, range_proj, partial_shift, cluster)]
    assert len(set(family)) == len(family)
    assert range_proj(0) == prod(iso(1), adjoint(iso(1)))
    assert fermion(3) == fermion(3) and hash(fermion(3)) == hash(fermion(3))


def test_nodes_and_reps_are_immutable():
    for value, field in ((fermion(2), "n"), (prod(gen(1), gen(2)), "factors"), (FOCK, "components")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


@pytest.mark.parametrize(
    "value",
    [
        gen(1),
        adjoint(fermion(2)),
        prod(gen(1), gen(2)),
        scaled(sqrt_int(2), iso(3)),
        iso(2),
        fermion(3),
        boson(2),
        shift_series(),
        cluster(2),
        rho(gen(2)),
        zeta(fermion(1)),
        rho(prod(fermion(2), adjoint(fermion(3)))),
        WEDGE,
        BasisLabel(0, "12", 1),
        poly_normal_form(scaled(sqrt_int(2), fermion(2))),
    ],
    ids=lambda value: type(value).__name__,
)
def test_values_survive_pickle_and_deepcopy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value
        assert type(twin) is type(value)
        assert hash(twin) == hash(value)


# (value, a byte string of its pickle, the same value forged out of range)
_FORGERIES = {
    0: [(WEDGE, b"V12\n", b"V11\n"), (iso(3), b"I3\n", b"I-1\n")],
    1: [(WEDGE, b"X\x02\x00\x00\x0012", b"X\x02\x00\x00\x0011"),
        (iso(3), b"K\x03", b"J\xff\xff\xff\xff")],
}


@pytest.mark.parametrize("protocol", [0, 1])
@pytest.mark.parametrize("which", [0, 1], ids=["rep", "node"])
def test_forged_pickles_are_refused(protocol, which):
    # protocols 0 and 1 would rebuild a plain tuple subclass without __new__
    value, genuine, forged = _FORGERIES[protocol][which]
    payload = pickle.dumps(value, protocol=protocol)
    assert payload.count(genuine) == 1
    assert pickle.loads(payload) == value
    with pytest.raises(ValueError):
        pickle.loads(payload.replace(genuine, forged))


_LABELS = enumerate_basis(WEDGE, 3)

_vectors = st.builds(
    lambda pairs: StateVector(WEDGE, pairs),
    st.lists(
        st.tuples(
            st.sampled_from(_LABELS),
            st.fractions(min_value=-3, max_value=3, max_denominator=2).map(
                RadicalScalar.from_rational
            ),
        ),
        max_size=4,
    ),
)


@settings(max_examples=30, deadline=None)
@given(_vectors)
def test_cuntz_relations_pointwise(v):
    t1, t2 = gen(1), gen(2)
    for t in (t1, t2):
        assert apply(adjoint(t), apply(t, v)) == v
    assert apply(adjoint(t1), apply(t2, v)) == StateVector.zero(WEDGE)
    total = apply(t1, apply(adjoint(t1), v)) + apply(t2, apply(adjoint(t2), v))
    assert total == v


@settings(max_examples=20, deadline=None)
@given(_vectors)
def test_main_identity_pointwise(v):
    for n in (1, 2):
        lhs = apply(boson(n), v)
        rhs = apply(adjoint(gen(2)), apply(cluster(n), v))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# The per-label kernel against the independent oracles
# ---------------------------------------------------------------------------

_KERNEL_REPS = [RepSpec.parse(text) for text in ("1", "12", "112", "1+12", "2", "1122")]
_COEFFS = st.sampled_from([ONE, -ONE, sqrt_int(2), RadicalScalar.from_rational(Fraction(1, 2))])


def _vectors_over(rep: RepSpec, depth: int = 3):
    pairs = st.tuples(st.sampled_from(enumerate_basis(rep, depth)), _COEFFS)
    return st.lists(pairs, min_size=1, max_size=4).map(lambda ps: StateVector(rep, ps))


_kernel_vectors = st.sampled_from(_KERNEL_REPS).flatmap(_vectors_over)


def _starred(e):
    return st.sampled_from([e, adjoint(e)])


_poly_atoms = st.one_of(
    st.sampled_from([gen(1), gen(2)]).flatmap(_starred),
    st.integers(1, 3).map(fermion).flatmap(_starred),
    st.integers(0, 2).map(range_proj),
    st.integers(1, 2).map(partial_shift).flatmap(_starred),
)
_polynomials = st.recursive(
    _poly_atoms,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda fs: prod(*fs)),
        st.lists(st.tuples(_COEFFS, inner), min_size=2, max_size=2).map(lambda ps: lincomb(*ps)),
        inner.map(zeta),
    ),
    max_leaves=4,
)


@st.composite
def _shared_suffix_sums(draw):
    """A sum of products that end in suffixes of one factor list, so that
    their plan shares edges; some parts come twice with opposite
    coefficients and cancel.  Wrapped in a scalar or used as a factor."""
    suffix = draw(st.lists(_poly_atoms, min_size=1, max_size=3))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.lists(_poly_atoms, max_size=2))
        tail = suffix[draw(st.integers(0, len(suffix) - 1)) :]
        c = draw(_COEFFS)
        parts.append((c, prod(*head, *tail)))
        if draw(st.booleans()):
            parts.append((-c, prod(*head, *tail)))
    e = lincomb(*parts)
    return draw(st.sampled_from([e, scaled(sqrt_int(2), e), prod(gen(1), e), prod(e, adjoint(fermion(2)))]))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_polynomials, _shared_suffix_sums()), _kernel_vectors)
def test_kernel_matches_normal_form_action(e, v):
    assert apply(e, v) == apply_normal_form(poly_normal_form(e), v)


def test_fermion_entries_match_normal_form_action():
    # every label to depth 4 up to a(6); cycle vectors, which peel past
    # their word, up to a(12)
    for n in range(1, 13):
        for e in (fermion(n), adjoint(fermion(n))):
            nf = poly_normal_form(e)
            for rep in _KERNEL_REPS:
                for label in enumerate_basis(rep, 4):
                    if n <= 6 or not label.word:
                        v = StateVector.basis(rep, label)
                        assert apply(e, v) == apply_normal_form(nf, v), (e, rep, label)


def test_plan_shares_right_hand_suffixes():
    shared = (fermion(3), adjoint(fermion(3)))
    e = lincomb(
        (ONE, prod(fermion(1), *shared)),
        (sqrt_int(2), prod(fermion(2), *shared)),
        (-ONE, prod(fermion(1), *shared)),
    )
    # a second side shares the trie: its chain ends where e's a(2) part does
    root = operators._build((e, prod(fermion(2), *shared)))
    assert list(root[1]) == [adjoint(fermion(3))]
    ((_, below),) = root[1].values()
    assert list(below[1]) == [fermion(3)]
    ((_, fork),) = below[1].values()
    assert set(fork[1]) == {fermion(1), fermion(2)}
    assert fork[1][fermion(1)][1][0] == {}  # the two a(1) parts cancel
    assert fork[1][fermion(2)][1][0] == {0: sqrt_int(2), 1: ONE}


@settings(max_examples=60, deadline=None)
@given(_kernel_vectors)
def test_kernel_b1_matches_raw_word_series(v):
    assert apply(boson(1), v) == eval_series_b1_raw(v)


def _family_nodes(n_max: int):
    nodes = [shift_series(), range_proj(0), rho(fermion(2)), zeta(boson(1))]
    nodes.append(rho(prod(gen(1), adjoint(gen(2)))))
    for n in range(1, n_max + 1):
        nodes += [iso(n), fermion(n), psi(2 * n - 1), psi(1 - 2 * n), boson(n), range_proj(n)]
        nodes += [partial_shift(n), cluster(n), rho(boson(n)), zeta(fermion(n))]
    return nodes + [adjoint(e) for e in nodes]


def test_kernel_takes_no_stepwise_letter_step(monkeypatch):
    # the oracles step letters through basis; the kernel must not, or a
    # fault there could make both sides of a check wrong in the same way
    nodes = _family_nodes(4) + [gen(1), gen(2), adjoint(gen(1)), adjoint(gen(2))]
    vectors = [StateVector.basis(rep, x) for rep in _KERNEL_REPS for x in enumerate_basis(rep, 4)]
    kernel_cache_clear()
    expected = [[apply(e, v) for v in vectors] for e in nodes]
    kernel_cache_clear()

    def off_limits(*args):
        raise AssertionError("the kernel reached a stepwise letter step")

    with monkeypatch.context() as patched:
        for module in (basis, operators, states):
            for name in ("apply_gen", "apply_gen_adjoint", "normalize_label"):
                if hasattr(module, name):
                    patched.setattr(module, name, off_limits)
        images = [[apply(e, v) for v in vectors] for e in nodes]
    kernel_cache_clear()
    assert images == expected


def test_kernel_family_images_have_at_most_one_term():
    nodes = _family_nodes(4)
    for rep in _KERNEL_REPS:
        for label in enumerate_basis(rep, 6):
            for e in nodes:
                assert len(_act(_build((e,)), rep, label)) <= 1, (e, rep, label)


def test_kernel_cache_key_includes_the_representation():
    # vac is the same BasisLabel on reps 1 and 12 but a different vector
    vac = BasisLabel(0, "", 0)
    exprs = [adjoint(boson(1)), boson(1), adjoint(cluster(2)), fermion(2),
             rho(adjoint(fermion(1)))]
    cold = {}
    for rep in (FOCK, WEDGE):
        for e in exprs:
            kernel_cache_clear()
            cold[rep, e] = apply(e, StateVector.basis(rep, vac))
    assert cold[FOCK, exprs[0]].labels() != cold[WEDGE, exprs[0]].labels()
    kernel_cache_clear()
    for _ in range(2):
        for rep in (FOCK, WEDGE):
            for e in exprs:
                assert apply(e, StateVector.basis(rep, vac)) == cold[rep, e]


def test_cli_main_starts_with_an_empty_cache(capsys):
    apply(cluster(3), fock("22"))
    assert kernel_cache_info().currsize > 0
    assert main(["list-basis", "--rep", "1", "--depth", "0"]) == 0
    capsys.readouterr()
    assert kernel_cache_info().currsize == 0


def test_apply_lowers_its_expression_on_every_call(monkeypatch):
    # apply keeps no plan between calls: the same object and an equal one
    # built again are each lowered afresh, to the same image
    built = []
    build = operators._build
    monkeypatch.setattr(operators, "_build", lambda exprs: built.append(exprs) or build(exprs))
    e, twin, v = prod(gen(1), fermion(2)), prod(gen(1), fermion(2)), fock("2")
    assert apply(e, v) == apply(e, v) == apply(twin, v)
    assert built == [(e,), (e,), (twin,)]
    assert built[0][0] is built[1][0] is e and built[2][0] is twin


# -- the rho towers against their defining series and recursions --------------
#
# Built only from s_star_support and the letter steps, off the kernel: b_1* =
# sum_m sqrt(m) s_{m+1} s_m*, F_1 = sum_m sqrt(m) s_{m+1} s_{m+1}*, Y = sum_m
# s_{m+1} t2* s_m*, Y* = sum_m s_m t2 s_{m+1}*, rho(x) = sum_m s_m x s_m*, and
# b_n* = rho(b_{n-1}*), F_n = Y rho(F_{n-1}), F_n* = rho(F_{n-1}*) Y*, and
# b_n = rho(b_{n-1}) from the literal series b_1, the ccr suite's oracle
# without its memo.


def _series(v, term):
    """sum over the m with s_m* v != 0 of term(m, s_m* v)."""
    out = StateVector.zero(v.rep)
    for m, w in s_star_support(v).items():
        out = out + term(m, w)
    return out


def _ref_rho(x, v):
    return _series(v, lambda m, w: _iso_letters(m, x(w)))


def _ref_y(v):
    return _series(v, lambda m, w: _iso_letters(m + 1, states.apply_letter_adjoint(w, 2)))


def _ref_y_adj(v):
    zero = StateVector.zero(v.rep)
    return _series(v, lambda m, w: _iso_letters(m - 1, states.apply_letter(w, 2)) if m > 1 else zero)


def _ref_zeta(x, v):
    plus, minus = (states.apply_letter(x(states.apply_letter_adjoint(v, i)), i) for i in (1, 2))
    return plus - minus


def _ref_boson(n, v):
    if n == 1:
        return eval_series_b1_raw(v)
    return _ref_rho(lambda w: _ref_boson(n - 1, w), v)


def _ref_boson_adj(n, v):
    if n == 1:
        return _series(v, lambda m, w: _iso_letters(m + 1, w).scale(RadicalScalar.sqrt_int(m)))
    return _ref_rho(lambda w: _ref_boson_adj(n - 1, w), v)


def _ref_cluster(n, v):
    if n == 1:
        zero = StateVector.zero(v.rep)
        weighed = lambda m, w: _iso_letters(m, w).scale(RadicalScalar.sqrt_int(m - 1)) if m > 1 else zero
        return _series(v, weighed)
    return _ref_y(_ref_rho(lambda w: _ref_cluster(n - 1, w), v))


def _ref_cluster_adj(n, v):
    if n == 1:
        return _ref_cluster(1, v)
    return _ref_rho(lambda w: _ref_cluster_adj(n - 1, w), _ref_y_adj(v))


def _ref_towers(n):
    """(tower node, its reference evaluator) for b_n, F_n and their adjoints."""
    return [
        (boson(n), partial(_ref_boson, n)),
        (adjoint(boson(n)), partial(_ref_boson_adj, n)),
        (cluster(n), partial(_ref_cluster, n)),
        # Adj, not adjoint: F_1* stays starred and takes the adjoint entry
        (operators.Adj(cluster(n)), partial(_ref_cluster_adj, n)),
    ]


def _outcome(f, *args):
    """f's value, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


_TOWER_REPS = [RepSpec.parse(text) for text in ("1", "12", "112", "2", "1+12", "1122", "21", "1112122")]


def test_towers_match_their_series_references_to_depth_five():
    pairs = [(shift_series(), _ref_y), (adjoint(shift_series()), _ref_y_adj)]
    pairs += [pair for n in range(1, 7) for pair in _ref_towers(n)]
    kernel_cache_clear()
    for rep in _TOWER_REPS:
        for v in suites._samples(rep, 5):  # every label to depth 5, and the mixed sample
            for e, ref in pairs:
                assert apply(e, v) == ref(v), (rep, e, v)
    kernel_cache_clear()


def test_memoised_boson_oracle_matches_its_recursion():
    # one memo per rep, shared by every sample and every n, as a ccr run
    # shares it; its values are shared too, so nothing may mutate their _terms
    for rep in _TOWER_REPS:
        memo = {}
        for v in suites._samples(rep, 5):  # every label to depth 5, and the mixed sample
            for n in range(1, 7):
                assert suites._raw_boson(n, memo, v) == _ref_boson(n, v), (rep, n, v)


def test_boson_oracle_memo_keys_on_the_representation():
    # vac is the same BasisLabel on reps 1 and 12, and b_2 vac is 0 on one of
    # them only: a memo that forgot the rep would hand one rep the other's value
    vac = BasisLabel(0, "", 0)
    for reps in ((FOCK, WEDGE), (WEDGE, FOCK)):
        memo = {}
        for n in (1, 2, 3):
            for rep in reps:
                v = StateVector.basis(rep, vac)
                assert suites._raw_boson(n, memo, v) == _ref_boson(n, v), (rep, n)
    assert not _ref_boson(2, StateVector.basis(FOCK, vac)) and _ref_boson(2, StateVector.basis(WEDGE, vac))


def test_rho_and_zeta_match_their_series_references():
    # x and its action off the kernel: a polynomial through its normal form,
    # a series through its reference above
    polys = [gen(1), adjoint(gen(2)), fermion(1), fermion(3), adjoint(fermion(2)), range_proj(2),
             prod(fermion(2), adjoint(fermion(1)))]
    xs = [(x, partial(apply_normal_form, poly_normal_form(x))) for x in polys]
    xs += [(boson(2), partial(_ref_boson, 2)), (cluster(1), partial(_ref_cluster, 1))]
    xs.append((shift_series(), _ref_y))
    pairs = []
    for x, ref in xs:
        pairs += [
            (rho(x), partial(_ref_rho, ref)),
            (zeta(x), partial(_ref_zeta, ref)),
            (rho(zeta(x)), partial(_ref_rho, partial(_ref_zeta, ref))),
        ]
    kernel_cache_clear()
    for rep in _TOWER_REPS:
        for v in suites._samples(rep, 5 if max(map(len, rep)) <= 3 else 4):
            for e, ref in pairs:
                assert apply(e, v) == ref(v), (rep, e, v)
    kernel_cache_clear()


def _nested(n, base, step):
    """base, then n - 1 times x -> step(x)."""
    for _ in range(n - 1):
        base = step(base)
    return base


def test_a_unit_tower_weight_is_the_shared_one():
    # block 1 of |1;0> on rep 12 is "1": b(1)* weighs its image by sqrt(1)
    [(image, c)] = operators._tower(RepSpec.parse("12"), BasisLabel(0, "1", 0), 1, 1)
    assert image == BasisLabel(0, "21", 0) and c is ONE


def test_towers_match_their_nested_definitions():
    # rho^(n-1)(b_1) and Y rho(F_{n-1}), unrolled to b_1 and F_1, and their
    # adjoints, through the plans' rho and Y steps
    kernel_cache_clear()
    for n in range(1, 8):
        b = _nested(n, boson(1), rho)
        f = _nested(n, cluster(1), lambda x: prod(shift_series(), rho(x)))
        pairs = [(boson(n), b), (adjoint(boson(n)), adjoint(b))]
        pairs += [(cluster(n), f), (adjoint(cluster(n)), adjoint(f))]
        for rep in _TOWER_REPS:
            for v in suites._samples(rep, 4):
                images = {e: apply(e, v) for e, _ in pairs}
                for e, nested in pairs:
                    assert images[e] == apply(nested, v), (rep, e, v)
                # the paper's b(n) = t2* F(n), and b(n)* = F(n)* t2
                assert apply(adjoint(gen(2)), images[cluster(n)]) == images[boson(n)], (rep, n, v)
                assert apply(adjoint(cluster(n)), apply(gen(2), v)) == images[adjoint(boson(n))], (rep, n, v)
    kernel_cache_clear()


def test_towers_near_the_word_bound_raise_as_their_references_do():
    # words within 30 letters of the bound: a tower that takes the word past
    # it raises the letter steps' ValueError, and no other does
    bound = basis._MAX_WORD_LENGTH
    rng = random.Random(21)
    outcomes = set()
    kernel_cache_clear()
    for rep in (FOCK, WEDGE, RepSpec.parse("122")):
        words = ["".join(rng.choice("12") for _ in range(bound - short)) for short in (0, 1, 2, 7, 30)]
        if len(rep[0]) == 3:  # a word of 2s, whose first block runs on into the cycle
            words.append("2" * (bound - 3))
        for word in words:
            v = StateVector.basis(rep, normalize_label(rep, 0, word, 0))
            for n in (1, 2, 3):
                for e, ref in _ref_towers(n)[1:]:
                    got = _outcome(apply, e, v)
                    assert got == _outcome(ref, v), (rep, e, len(word))
                    outcomes.add(type(got))
    assert outcomes == {str, StateVector}
    kernel_cache_clear()


def test_kernel_cache_info_is_the_per_label_cache():
    kernel_cache_clear()
    v = fock("1212")
    apply(boson(3), v)
    apply(cluster(2), v)
    apply(boson(3), v)  # each tower image is one entry of the per-label cache
    info = kernel_cache_info()
    assert info == operators._act_cached.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 2, operators.KERNEL_CACHE_SIZE, 2)
    kernel_cache_clear()
    assert kernel_cache_info()[:2] == (0, 0)


def test_oracles_never_touch_the_cache(monkeypatch):
    from cuntzrep.suites import _raw_boson

    v = fock("2") + fock("212").scale(sqrt_int(2)) + fock("22")
    kernel = {e: apply(e, v) for e in (boson(1), boson(3), range_proj(2))}
    kernel_cache_clear()

    def off_limits(*args):
        raise AssertionError("an oracle reached a plan or a word-slice step of the kernel")

    with monkeypatch.context() as patched:
        for helper in ("_prepend", "_peel", "_up", "_down", "_fermion", "_tower", "_build", "_walk"):
            patched.setattr(operators, helper, off_limits)
        memo = {}
        oracles = {
            boson(1): eval_series_b1_raw(v),
            boson(3): _raw_boson(3, memo, v),
            range_proj(2): apply_normal_form(poly_normal_form(range_proj_definition(2)), v),
        }
        # the second call is a memo hit: the same vector, and nothing stored
        stored = dict(memo)
        assert _raw_boson(3, memo, v) is oracles[boson(3)] and memo == stored
    info = kernel_cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert oracles == kernel

    # no plan mixes a range_proj_definition product with a side that is not
    # an oracle, and no other oracle side is ever a slot of a plan
    plans, sides, definitions = [], [], []
    build, run, definition = suites._build, suites.CheckReport.run, suites.range_proj_definition

    def recording_run(report, samples, groups):
        groups = list(groups)
        sides.extend(side for group in groups for row in group for side in row[1:])
        run(report, samples, groups)

    def recording_definition(n):
        definitions.append(definition(n))
        return definitions[-1]

    with monkeypatch.context() as patched:
        patched.setattr(suites, "_build", lambda exprs: plans.append(exprs) or build(exprs))
        patched.setattr(suites.CheckReport, "run", recording_run)
        patched.setattr(suites, "range_proj_definition", recording_definition)
        for name in suites.SUITE_NAMES:
            suites.run_suite(name, WEDGE, n_max=2, m_max=2, depth=2)
    oracle_sides = [side for side in sides if type(side) is tuple]
    assert {side[0] for side in oracle_sides} == {"_raw_boson", "apply"}
    assert {id(side[1]) for side in oracle_sides if side[0] == "apply"} == set(map(id, definitions))
    # each plan takes each distinct side object once
    assert all(len(plan) == len(set(map(id, plan))) for plan in plans)
    definition_ids = set(map(id, definitions))
    planned = [definition_ids & set(map(id, plan)) for plan in plans]
    # a plan that takes a definition takes nothing else, and each definition is planned
    assert all(len(hit) in (0, len(plan)) for hit, plan in zip(planned, plans))
    assert set().union(*planned) == definition_ids
    slots = [side for hit, plan in zip(planned, plans) if not hit for side in plan]
    slot_ids = set(map(id, slots))
    for oracle in oracle_sides + definitions:
        assert id(oracle) not in slot_ids and oracle not in slots, oracle


# -- word-slice letter steps against the stepwise basis moves ----------------

_STEP_REPS = [RepSpec.parse(text) for text in ("1", "12", "112", "1+12", "2", "1122")]


@st.composite
def _step_labels(draw, min_len=0, max_len=12):
    """A normal-form label on one of the reps: a random word, an all-2 word
    (which walks the cycle under s_m*) or a cycle vector."""
    rep = draw(st.sampled_from(_STEP_REPS))
    component = draw(st.integers(0, len(rep.components) - 1))
    node = draw(st.integers(0, len(rep[component]) - 1))
    length = draw(st.integers(min_len, max_len))
    if draw(st.booleans()):
        word = "2" * length
    else:
        chunk = draw(st.text("12", min_size=1, max_size=8))
        word = (chunk * (length // len(chunk) + 1))[:length]
    return rep, normalize_label(rep, component, word, node)


def _outcome(step, *args):
    """A step's result, or the message of the ValueError it raises."""
    try:
        return step(*args)
    except ValueError as exc:
        return str(exc)


def _stepwise_peel(rep, x, n):
    letters = ""
    for _ in range(n):
        image = apply_gen_adjoint(rep, 1, x)
        letter, x = ("1", image) if image is not None else ("2", apply_gen_adjoint(rep, 2, x))
        letters += letter
    return letters, x


def _stepwise_prepend(rep, x, letters):
    for letter in reversed(letters):
        x = apply_gen(rep, int(letter), x)
    return x


def _stepwise_up(rep, x, n):
    return _stepwise_prepend(rep, x, "2" * (n - 1) + "1")


def _stepwise_down(rep, x):
    for m in range(1, len(x.word) + len(rep[x.component]) + 2):
        letter, x = _stepwise_peel(rep, x, 1)
        if letter == "1":
            return m, x
    return None


@settings(max_examples=300, deadline=None)
@given(_step_labels(), st.integers(0, 20))
def test_peel_matches_letter_steps(label, n):
    rep, x = label
    assert operators._peel(rep, x, n) == _stepwise_peel(rep, x, n)


@settings(max_examples=300, deadline=None)
@given(_step_labels())
def test_down_matches_letter_steps(label):
    rep, x = label
    assert operators._down(rep, x) == _stepwise_down(rep, x)


@settings(max_examples=300, deadline=None)
@given(_step_labels(), st.integers(1, 20))
def test_up_matches_letter_steps(label, n):
    rep, x = label
    assert operators._up(rep, x, n) == _stepwise_up(rep, x, n)


@settings(max_examples=300, deadline=None)
@given(_step_labels(), _step_labels(), st.integers(0, 20))
def test_zeta_reprefix_matches_letter_steps(label, source, n):
    # the letters a zeta tower peels off one label go back on another
    rep, x = label
    letters, _ = _stepwise_peel(source[0], source[1], n)
    assert operators._prepend(rep, x, letters) == _stepwise_prepend(rep, x, letters)
    peeled, rest = operators._peel(rep, x, n)
    assert operators._prepend(rep, rest, peeled) == x


_BOUND = 8192


@settings(max_examples=40, deadline=None)
@given(_step_labels(min_len=_BOUND - 30, max_len=_BOUND), st.integers(-2, 3), st.text("12", max_size=3))
def test_steps_at_the_word_bound_match_letter_steps(label, past, tail):
    # images that land just short of, at, or just past the bound
    rep, x = label
    n = max(1, _BOUND - len(x.word) + past)
    assert _outcome(operators._up, rep, x, n) == _outcome(_stepwise_up, rep, x, n)
    letters = "2" * (n - len(tail)) + tail
    assert _outcome(operators._prepend, rep, x, letters) == _outcome(_stepwise_prepend, rep, x, letters)


@pytest.mark.parametrize("text", ["1", "12", "2", "1122"])
@pytest.mark.parametrize("past", [-1, 0, 1, 4, 5])
def test_isometry_on_a_cycle_vector_at_the_word_bound(text, past):
    # a cycle vector absorbs up to L of the letters of s_n before the word grows
    rep = RepSpec.parse(text)
    for node in range(len(rep[0])):
        x = BasisLabel(0, "", node)
        n = _BOUND + past
        assert _outcome(operators._up, rep, x, n) == _outcome(_stepwise_up, rep, x, n)


def test_long_cycle_walks_are_absorbed_again():
    # a zeta tower deeper than the bound peels the cycle and puts it back
    rep = RepSpec.parse("1122")
    for node in range(4):
        x = BasisLabel(0, "", node)
        letters, rest = operators._peel(rep, x, 3 * _BOUND + 1)
        assert (letters, rest) == _stepwise_peel(rep, x, 3 * _BOUND + 1)
        assert operators._prepend(rep, rest, letters) == x


def test_down_finds_nothing_on_the_all_2_cycle():
    rep = RepSpec.parse("2")
    for word in ("", "2", "222"):
        assert operators._down(rep, BasisLabel(0, word, 0)) is None
    assert apply(iso(3), StateVector.basis(rep, BasisLabel(0, "", 0))) == StateVector.basis(
        rep, BasisLabel(0, "221", 0)
    )


# -- the one-edit kernel entries against the letter steps and the references --


def _stepwise_fermion(rep, x, n, flip):
    """a(n) x (flip "1") or a(n)* x (flip "2") through the letter steps: peel
    n letters, flip the last, put them back; each 2 before it flips the sign."""
    letters, rest = _stepwise_peel(rep, x, n)
    if letters[-1] == flip:
        return ()
    sign = -ONE if letters[:-1].count("2") % 2 else ONE
    return ((_stepwise_prepend(rep, rest, letters[:-1] + flip), sign),)


@settings(max_examples=300, deadline=None)
@given(_step_labels(), st.integers(1, 12), st.integers(-1, 1))
def test_fermion_entries_match_letter_steps(label, n, near):
    # letter n inside the word and short of its last letter is flipped in
    # place; at the last letter, or past the word, the letters are peeled
    rep, x = label
    for k in {n, max(1, len(x.word) + near)}:
        for flip in "12":
            got = _outcome(operators._fermion, fermion(k), rep, x, flip)
            assert got == _outcome(_stepwise_fermion, rep, x, k, flip), (rep, x, k, flip)


@settings(max_examples=20, deadline=None)
@given(_step_labels(min_len=_BOUND - 30, max_len=_BOUND), st.integers(1, 12))
def test_fermion_entries_near_the_word_bound_match_letter_steps(label, n):
    rep, x = label
    for flip in "12":
        got = _outcome(operators._fermion, fermion(n), rep, x, flip)
        assert got == _outcome(_stepwise_fermion, rep, x, n, flip), (rep, x, n, flip)


@pytest.mark.parametrize("text, component", [("2", 0), ("21", 0), ("1+12", 1), ("1122", 0)])
def test_fermion_entries_reject_on_letter_n_at_the_edges_of_the_word(monkeypatch, text, component):
    # letter n is the word's last letter (n = |word|), the first cycle letter
    # (|word| + 1) or the cycle letter one period on (|word| + L); past the
    # word, a label that letter n annihilates is rejected before any peel
    rep = RepSpec.parse(text)
    period = len(rep[component])
    peels, peel = [], operators._peel
    monkeypatch.setattr(operators, "_peel", lambda *args: peels.append(args) or peel(*args))
    forms, rejected = {}, 0
    for x in enumerate_basis(rep, 4):
        if x.component != component:
            continue
        v = StateVector.basis(rep, x)
        for n in sorted({len(x.word), len(x.word) + 1, len(x.word) + period} - {0}):
            for flip, e in (("1", fermion(n)), ("2", adjoint(fermion(n)))):
                peels.clear()
                got = operators._fermion(fermion(n), rep, x, flip)
                assert got == _stepwise_fermion(rep, x, n, flip), (x, n, flip)
                if not got and n > len(x.word):
                    assert not peels, (x, n, flip)
                    rejected += 1
                if e not in forms:
                    forms[e] = poly_normal_form(e)
                assert apply(e, v) == apply_normal_form(forms[e], v), (x, e)
    assert rejected
    kernel_cache_clear()


@settings(max_examples=200, deadline=None)
@given(_step_labels(), st.integers(1, 6))
def test_tower_entries_match_their_references(label, n):
    # n, the block that ends at x's last 1 (the word's last letter, when it
    # ends in 1) and the first block that ends in the cycle
    rep, x = label
    v = StateVector.basis(rep, x)
    ones = x.word.count("1")
    for e, ref in [pair for k in sorted({n, ones, ones + 1} - {0}) for pair in _ref_towers(k)]:
        assert _outcome(apply, e, v) == _outcome(ref, v), (rep, x, e)
    kernel_cache_clear()


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(_STEP_REPS), st.text("12", max_size=3), st.sampled_from([0, 1]))
def test_tower_entries_near_the_word_bound_match_their_references(rep, tail, short):
    # a long run of 2s, a 1, the tail and a last letter that keeps the word
    # normal, `short` letters below the bound: b(n)* passes it or lands on it
    # where block n ends in the word, at or before its end, and in the cycle;
    # b(n)* and F(n)* put a 2 on block n (each reference walks the long block,
    # about 0.2 s)
    last = "2" if rep[0][-1] == "1" else "1"
    word = "1" + tail + last
    x = BasisLabel(0, "2" * (_BOUND - short - len(word)) + word, 0)
    assert normalize_label(rep, 0, x.word, 0) == x
    v = StateVector.basis(rep, x)
    ones = word.count("1")
    for e, ref in [pair for k in (ones, ones + 1) for pair in _ref_towers(k)[1::2]]:
        assert _outcome(apply, e, v) == _outcome(ref, v), (rep, word, short, e)
    kernel_cache_clear()
