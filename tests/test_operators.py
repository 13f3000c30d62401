"""Operator evaluation against hand-computed reference values."""

import copy
import pickle
from fractions import Fraction

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
    _plan,
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
                assert len(_act(_plan(e), rep, label)) <= 1, (e, rep, label)


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
    assert kernel_cache_info().currsize > 0 and operators._plans
    assert main(["list-basis", "--rep", "1", "--depth", "0"]) == 0
    capsys.readouterr()
    assert kernel_cache_info().currsize == 0 and not operators._plans


def test_plans_are_memoised_on_the_identity_of_the_expression(monkeypatch):
    kernel_cache_clear()
    built = []
    build = operators._build
    monkeypatch.setattr(operators, "_build", lambda exprs: built.append(exprs) or build(exprs))
    e, twin, v = prod(gen(1), fermion(2)), prod(gen(1), fermion(2)), fock("2")
    assert apply(e, v) == apply(e, v) == apply(twin, v)
    assert built == [(e,), (twin,)] and built[1][0] is twin
    kernel_cache_clear()
    assert not operators._plans
    apply(e, v)
    assert len(built) == 3


def test_plan_memo_stays_within_its_bound():
    kernel_cache_clear()
    bound = operators._PLAN_CACHE_SIZE
    v = fock("2")
    exprs = [prod(gen(1), iso(n)) for n in range(1, bound + 21)]
    for e in exprs:
        apply(e, v)
        assert len(operators._plans) <= bound
    # the oldest went first, and each entry keeps its expression
    assert [e for e, _ in operators._plans.values()] == exprs[-bound:]
    kernel_cache_clear()


def test_oracles_never_touch_the_cache(monkeypatch):
    from cuntzrep.suites import _raw_boson

    v = fock("2") + fock("212").scale(sqrt_int(2)) + fock("22")
    kernel = {e: apply(e, v) for e in (boson(1), boson(3), range_proj(2))}
    kernel_cache_clear()

    def off_limits(*args):
        raise AssertionError("an oracle reached a plan or a word-slice step of the kernel")

    with monkeypatch.context() as patched:
        for helper in ("_prepend", "_peel", "_up", "_down", "_build", "_plan", "_walk"):
            patched.setattr(operators, helper, off_limits)
        oracles = {
            boson(1): eval_series_b1_raw(v),
            boson(3): _raw_boson(3, v),
            range_proj(2): apply_normal_form(poly_normal_form(range_proj_definition(2)), v),
        }
    info = kernel_cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert oracles == kernel

    # no oracle side of a suite table, nor a range_proj_definition product,
    # is ever a slot of the table's plan
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
    assert {side[0] for side in oracle_sides} == {"eval_series_b1_raw", "_raw_boson", "apply"}
    assert {id(side[1]) for side in oracle_sides if side[0] == "apply"} == set(map(id, definitions))
    # each plan takes each distinct side object once
    assert all(len(plan) == len(set(map(id, plan))) for plan in plans)
    slots = [side for plan in plans for side in plan]
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
