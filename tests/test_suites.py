"""Identity suites across representative cycle choices."""

import json

import pytest

from cuntzrep import operators, suites
from cuntzrep.basis import BasisLabel, RepSpec
from cuntzrep.operators import (
    OperatorExpr,
    _chains,
    _occupied,
    _support_bound,
    adj,
    apply,
    boson,
    cluster,
    fermion,
    gen,
    lincomb,
    prod,
    range_proj,
    rho,
    s_star_support,
)
from cuntzrep.parsing import serialize_vector
from cuntzrep.scalars import ONE, RadicalScalar, sqrt_int
from cuntzrep.states import StateVector
from cuntzrep.suites import (
    _MAX_FOCK_WORDS,
    SUITE_NAMES,
    CheckReport,
    check_all,
    run_suite,
    verify_identity,
)

FOCK = RepSpec.parse("1")
WEDGE = RepSpec.parse("12")
TRIPLE = RepSpec.parse("112")
BOTH = RepSpec.parse("1+12")
ALLTWO = RepSpec.parse("2")

SMALL = dict(n_max=3, m_max=3, depth=3)


@pytest.mark.parametrize("rep", [FOCK, WEDGE, TRIPLE], ids=str)
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_passes_on_core_reps(suite, rep):
    report = run_suite(suite, rep, **SMALL)
    assert report.passed, report.failures[:3]
    assert report.cases > 0
    assert report.suite == suite


@pytest.mark.parametrize("suite", ["cuntz", "car", "main"])
def test_direct_sum_passes(suite):
    report = run_suite(suite, BOTH, **SMALL)
    assert report.passed, report.failures[:3]


def test_all_twos_cycle_fails_embedding_completeness():
    # the all-twos cycle carries no occupied mode, so the isometry family
    # cannot resolve the identity on it
    report = run_suite("rho", ALLTWO, **SMALL)
    assert not report.passed
    identities = {f["identity"] for f in report.failures}
    assert any("s(n)s(n)*" in name for name in identities)


MIXED = "vac + sqrt(2)*|1;0> - 1/2*|11;0> + sqrt(3)*|21;0>"
B2 = "b(2)b(2)* - b(2)*b(2) = I"
B3 = "b(3)b(3)* - b(3)*b(3) = I"


def test_all_twos_cycle_failures_keep_their_order():
    # recorded from the loop-per-suite implementation before the tables
    failures = [
        (report.suite, f["identity"], f["input"])
        for report in check_all(ALLTWO, **SMALL)
        for f in report.failures
    ]
    assert failures == [
        ("ccr", "b(1)b(1)* - b(1)*b(1) = I", "vac"),
        ("ccr", "b(1)b(1)* - b(1)*b(1) = I", MIXED),
        *(("ccr", B2, v) for v in ("vac", "|1;0>", "|21;0>", "|221;0>", MIXED)),
        *(
            ("ccr", B3, v)
            for v in ("vac", "|1;0>", "|11;0>", "|21;0>", "|121;0>", "|211;0>", "|221;0>", MIXED)
        ),
        ("wfamily", "sum of W(m) = I", "vac"),
        ("wfamily", "sum of W(m) = I", MIXED),
        ("rho", "sum of s(n)s(n)* = I", "vac"),
        ("rho", "sum of s(n)s(n)* = I", MIXED),
    ]


def _per_side_run(report, samples, groups):
    """The reference case loop: group, then sample, then row, with one
    ``apply`` call per expression side."""

    def side(s, v):
        if type(s) is tuple:
            return getattr(suites, s[0])(*s[1:], v)
        return s if type(s) is StateVector else apply(s, v)

    for group in groups:
        for v in samples:
            for identity, left, right in group:
                report.check(identity, v, side(left, v), side(right, v))


@pytest.mark.parametrize("rep", [FOCK, WEDGE, ALLTWO, BOTH], ids=str)
def test_table_plans_match_the_per_side_loop(monkeypatch, rep):
    planned = [run_suite(name, rep, **SMALL).to_json() for name in SUITE_NAMES]
    with monkeypatch.context() as patched:
        patched.setattr(CheckReport, "run", _per_side_run)
        reference = [run_suite(name, rep, **SMALL).to_json() for name in SUITE_NAMES]
    assert planned == reference
    failing = [report["suite"] for report in planned if report["failures"]]
    assert failing == (["ccr", "wfamily", "rho"] if rep == ALLTWO else [])


def test_table_plan_failures_keep_group_sample_row_order():
    # a false table, b(n) = t1* F(n), fails across both groups and most samples
    groups = [
        (
            (f"b({n}) = t1* F({n})", boson(n), prod(adj(gen(1)), cluster(n))),
            (f"b({n})* = F({n})* t1", adj(boson(n)), prod(adj(cluster(n)), gen(1))),
        )
        for n in (1, 2)
    ]
    samples = suites._samples(FOCK, 2)
    planned, reference = (CheckReport("identity", "1", {}) for _ in range(2))
    planned.run(samples, groups)
    _per_side_run(reference, samples, groups)
    assert planned.to_json() == reference.to_json()
    mixed = serialize_vector(samples[-1])
    b1, b1_adj, b2, b2_adj = (row[0] for group in groups for row in group)
    assert [(f["identity"], f["input"]) for f in planned.failures] == [
        (b1_adj, "vac"),
        (b1, "|2;0>"),
        (b1_adj, "|2;0>"),
        (b1_adj, "|12;0>"),
        (b1, "|22;0>"),
        (b1_adj, "|22;0>"),
        (b1, mixed),
        (b1_adj, mixed),
        (b2_adj, "vac"),
        (b2_adj, "|2;0>"),
        (b2, "|12;0>"),
        (b2_adj, "|12;0>"),
        (b2_adj, "|22;0>"),
        (b2, mixed),
        (b2_adj, mixed),
    ]


def test_closedforms_builds_its_table_once_per_run(monkeypatch):
    # 1 and 1+1 meet the same word and support bounds, on twice the labels
    counts = {}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(suites, "prod", counted("prod", suites.prod))
    monkeypatch.setattr(suites, "fermion", counted("fermion", suites.fermion))
    seen = []
    for rep in (FOCK, RepSpec.parse("1+1")):
        counts.clear()
        report = run_suite("closedforms", rep, **SMALL)
        assert report.passed, report.failures[:3]
        seen.append((dict(counts), report.cases))
    (single, single_cases), (double, double_cases) = seen
    assert single["prod"] > 0 and single["fermion"] > 0
    assert single == double
    assert double_cases > single_cases


def _closedforms_per_term(rep, n_max, depth):
    """The closedforms rows as every term once spelled them, each building
    its own factors through _occupied and fermion()."""
    support, words = suites._bounds(rep, depth)
    span = range(1, words + 1)
    first = (
        (sqrt_int(n), prod(*_occupied(range(1, n + 1)), fermion(n + 1), adj(fermion(n + 1))))
        for n in span
    )
    second = (
        (
            sqrt_int(m),
            prod(
                *_occupied(range(1, n)),
                adj(fermion(n)),
                fermion(n + 1),
                *_occupied(range(n + 2, n + m + 1)),
                fermion(n + m + 1),
                adj(fermion(n + m + 1)),
            ),
        )
        for n in span
        for m in span
    )
    rows = [
        ("F(1) = weighted occupation series", cluster(1), lincomb(*first)),
        ("F(2) = weighted double occupation series", cluster(2), lincomb(*second)),
    ]
    for m in range(1, min(3, n_max) + 1):
        terms = []
        for l in range(support + 1):
            top, occupied = fermion(m + l + 2), _occupied(range(l + 2, l + m + 2))
            terms.append((ONE, prod(top, adj(top), *occupied, range_proj(l))))
        rows.append((f"rho(W({m})) = occupation expansion", rho(range_proj(m)), lincomb(*terms)))
    return rows


class _TableRecorder(CheckReport):
    """Keeps the groups a suite body hands to run, and runs none of them."""

    def run(self, samples, groups):
        self.groups = [list(group) for group in groups]


def _table(suite, rep, n_max, m_max, depth):
    report = _TableRecorder(suite, str(rep), {})
    getattr(suites, f"_{suite}")(report, rep, n_max, m_max, depth)
    return report.groups


def _factors(groups):
    """Every factor of every chain of every expression side, as the plan sees them."""
    for group in groups:
        for _, *sides in group:
            for side in sides:
                if isinstance(side, OperatorExpr):
                    for _, chain in _chains(side, ONE):
                        yield from chain


def _assert_each_factor_is_one_object(groups):
    first = {}
    for f in _factors(groups):
        assert first.setdefault(f, f) is f, f


@pytest.mark.parametrize("depth", [3, 4, 5])
@pytest.mark.parametrize("rep", ["1", "12", "112", "1+12", "1112122"])
def test_closedforms_shares_its_factors_and_keeps_the_per_term_table(rep, depth):
    rep = RepSpec.parse(rep)
    groups = _table("closedforms", rep, 4, 4, depth)
    assert groups == [_closedforms_per_term(rep, 4, depth)]
    _assert_each_factor_is_one_object(groups)


def test_pair_relations_share_each_member_and_its_adjoint():
    groups = _table("car", WEDGE, 4, 3, 2)
    _assert_each_factor_is_one_object(groups)
    assert len({id(f) for f in _factors(groups)}) == 8  # a(1..4) and their adjoints


@pytest.mark.parametrize("rep", ["1", "12", "1112122"])
@pytest.mark.parametrize("suite", ["rho", "lemma23"])
def test_rho_and_lemma23_share_each_factor(monkeypatch, suite, rep):
    # X(n), W(n), s(n) and rho(t2*) recur across rows, and the fermions across terms
    rep = RepSpec.parse(rep)
    groups = _table(suite, rep, 4, 4, 3)
    _assert_each_factor_is_one_object(groups)
    monkeypatch.setattr(suites, "_shared", lambda rows: rows)
    assert _table(suite, rep, 4, 4, 3) == groups


@pytest.mark.parametrize("suite", ["wfamily", "lemma23"])
def test_definitions_are_lowered_into_one_plan_per_run(monkeypatch, suite):
    # a plan per definition would be built again for every sample once
    # there are too many of them to keep
    definitions, plans = [], []
    definition, build = suites.range_proj_definition, operators._build

    def recording_definition(n):
        definitions.append(definition(n))
        return definitions[-1]

    def recording_build(exprs):
        plans.append(exprs)
        return build(exprs)

    monkeypatch.setattr(suites, "range_proj_definition", recording_definition)
    for owner in (operators, suites):
        monkeypatch.setattr(owner, "_build", recording_build)
    report = run_suite(suite, FOCK, n_max=12, m_max=2, depth=3)
    assert report.passed, report.failures[:3]
    ids = set(map(id, definitions))
    assert len(ids) == 13
    assert [set(map(id, plan)) for plan in plans if ids & set(map(id, plan))] == [ids]


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_plans_grow_neither_with_samples_nor_with_n(monkeypatch, suite):
    # a suite lowers its tables once per run: twice the labels, or a larger
    # n_max, builds no more plans than the smallest run
    builds = []
    build = suites._build

    def counted(exprs):
        builds.append(len(exprs))
        return build(exprs)

    monkeypatch.setattr(suites, "_build", counted)
    counts = []
    for rep, n_max in ((FOCK, 3), (RepSpec.parse("1+1"), 3), (FOCK, 6)):
        builds.clear()
        report = run_suite(suite, rep, n_max=n_max, m_max=3, depth=3)
        assert report.passed, report.failures[:3]
        counts.append(len(builds))
    assert 1 <= counts[0] <= 3
    assert counts == [counts[0]] * 3


@pytest.mark.parametrize("rep", ["1", "12", "112", "2", "1+12", "1122", "1112122"])
def test_run_bounds_cover_every_sample(rep):
    # No s(m)* survives on a sample past the support bound, which also
    # covers the walk that s_star_support takes; the word bound covers the
    # closed forms' series cut-off |word| + 2L + 2 of every sample.
    rep = RepSpec.parse(rep)
    cyc = max(map(len, rep.components))
    for depth in range(7):
        support, words = suites._bounds(rep, depth)
        for v in suites._samples(rep, depth):
            assert max(s_star_support(v), default=0) <= support
            assert _support_bound(v) <= support
            assert v.depth() + 2 * cyc + 2 <= words


def test_all_twos_cycle_still_satisfies_main_identity():
    report = run_suite("main", ALLTWO, **SMALL)
    assert report.passed, report.failures[:3]


def test_false_identity_produces_witnesses():
    report = verify_identity(FOCK, "t1 = t2", gen(1), gen(2), depth=2)
    assert not report.passed
    assert report.failures
    witness = report.failures[0]
    assert set(witness) == {"identity", "input", "left", "right"}
    assert witness["identity"] == "t1 = t2"
    assert witness["left"] != witness["right"]


def test_true_identity_passes():
    report = verify_identity(FOCK, "t1* t1 = I", gen(1), gen(1), depth=2)
    # trivially equal expression on both sides
    assert report.passed


def partitions_up_to(limit):
    # p(0..limit) by bounded-part dynamic programming
    table = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            table[total] += table[total - part]
    return table


def test_fock_span_dimensions_match_partition_counts():
    report = run_suite("fock", FOCK, n_max=4, m_max=4, depth=5)
    assert report.passed, report.failures[:3]
    measured = report.measured["span_dimension_by_total_degree"]
    counts = partitions_up_to(5)
    cumulative = 0
    for degree in range(6):
        cumulative += counts[degree]
        assert measured[str(degree)] == cumulative


def test_fock_word_bound_counts_partitions():
    counts = partitions_up_to(30)
    assert sum(counts[:19]) <= _MAX_FOCK_WORDS < sum(counts[:20])
    # one case per boson word, after the fixed vacuum cases
    fixed = run_suite("fock", FOCK, n_max=1, m_max=1, depth=0).cases - 1
    for depth in (1, 7, 12):
        report = run_suite("fock", FOCK, n_max=1, m_max=1, depth=depth)
        assert report.cases - fixed == sum(counts[: depth + 1])
    with pytest.raises(ValueError, match="depth 19 gives more than 2048 boson words"):
        run_suite("fock", FOCK, depth=19)


def test_wedge_measured_values_are_frozen():
    report = run_suite("wedge", WEDGE, n_max=3, m_max=3, depth=4)
    assert report.passed, report.failures[:3]
    flags = report.measured["dual_vacuum_annihilation"]
    assert flags == {
        "even_plain": True,
        "odd_plain": False,
        "even_starred": False,
        "odd_starred": True,
    }
    lam = {k: RadicalScalar.from_json(v) for k, v in report.measured["lambda"].items()}
    mu = {k: RadicalScalar.from_json(v) for k, v in report.measured["mu"].items()}
    assert lam == {
        "1": RadicalScalar.from_rational(1),
        "2": RadicalScalar.from_rational(2),
        "3": RadicalScalar.from_rational(2),
    }
    assert mu == {
        "1": RadicalScalar.from_rational(0),
        "2": RadicalScalar.from_rational(1),
        "3": RadicalScalar.from_rational(1),
    }
    assert report.measured["lambda_from_commutation"] == report.measured["lambda"]
    assert report.measured["reference_scalar"] == "2"


def test_report_json_shape_and_key_order():
    report = run_suite("cuntz", FOCK, **SMALL)
    data = report.to_json()
    assert list(data) == [
        "suite",
        "rep",
        "params",
        "cases",
        "passed",
        "failures",
        "measured",
    ]
    assert data["rep"] == "1"
    assert data["params"] == {"n_max": 3, "m_max": 3, "depth": 3}
    assert data["passed"] is (not data["failures"])


def test_reports_are_deterministic():
    first = json.dumps([r.to_json() for r in check_all(FOCK, **SMALL)])
    second = json.dumps([r.to_json() for r in check_all(FOCK, **SMALL)])
    assert first == second


def test_unknown_suite_rejected():
    with pytest.raises(ValueError) as err:
        run_suite("nope", FOCK, **SMALL)
    assert "unknown suite" in str(err.value)


def test_check_all_covers_every_suite_in_order():
    reports = check_all(WEDGE, **SMALL)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert all(isinstance(r, CheckReport) for r in reports)


def test_suites_are_reached_only_through_run_suite():
    assert not [name for name in suites.__all__ if name.startswith("check_") and name != "check_all"]


def test_text_case_witness_serializes_its_input_vector():
    report = CheckReport("cuntz", str(FOCK), {"n_max": 0, "m_max": 0, "depth": 0})
    vac = StateVector.basis(FOCK, BasisLabel(0, "", 0))
    two = StateVector.basis(FOCK, BasisLabel(0, "2", 0))
    report.check("hits", vac, "2", "1")
    report.check("hits", vac, "1", "1")
    report.check("pairing", (vac, two), "0", "1")
    assert report.cases == 3
    assert report.failures == [
        {"identity": "hits", "input": serialize_vector(vac), "left": "2", "right": "1"},
        {
            "identity": "pairing",
            "input": f"{serialize_vector(vac)} , {serialize_vector(two)}",
            "left": "0",
            "right": "1",
        },
    ]
