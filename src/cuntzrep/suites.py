"""Verification suites: each runs a family of exact operator identities over
every basis label up to a depth and reports failures with full witnesses.

All comparisons are exact scalar equality.  A suite never raises on a failed
identity; it records the input vector and both sides so the case can be
replayed through the CLI `apply` command.

Tables.  A suite is a table of ``(identity, left, right)`` rows, built once
per run; the ``closedforms`` series and the pair relations build each
factor node once per run too, shared by the rows and terms that use it.  A
side is an operator expression: sums are written with ``lincomb`` and
compositions with ``prod``.  ``CheckReport.run`` takes the table as groups
of rows, lowers all its expression sides into one plan, and runs each
sample through that plan once; the groups fix the case order: group, then
sample, then row.  A side may also be a literal ``StateVector``, the
expected ket itself.  Each side is resolved once per table to a reader, an
index into a sample's side values, so a case is two list reads and one
compare.

Bounds.  The infinite sums are cut off at two bounds fixed by the
representation and the depth alone (``_bounds``), with L the longest
cycle.  The support bound ``depth + L + 1`` is where ``s_star_support``
stops its walk on the deepest label, so it covers every m with s_m*
surviving on a sample; ``W(m)``, ``s(m)s(m)*`` and ``X(m)`` each need s_m*
or s_(m+1)* to survive.  The word bound ``depth + 2L + 2`` covers the
``F(1)``/``F(2)`` series, whose terms are zero on a label unless their last
fermion index is where its first (second) letter 1 lies, within
``|word| + 2L`` letters.  The terms a shallower sample does not need are
exactly zero on it, so one table serves every sample.

Oracles.  A side written ``("_raw_boson", n, memo)`` names a function of the
vector in this module, looked up when the side is evaluated; it works on
vectors through the letter steps, off the kernel.  ``memo`` is a dict that
``_ccr`` makes for its run alone, so the b(n-1) values the recursion needs,
and each vector's ``s_star_support`` walk, are computed once per vector per
run; it is not a kernel memo.  The ``range_proj_definition(n)`` products
are the sides ``("apply", range_proj_definition(n))``: ``run`` lowers a
table's ``apply`` sides into a plan of their own, never the table's.

Two suites run on fixed representations by construction: the all-ones cycle
(Fock behavior) and the alternating two-cycle (wedge behavior); their
checks of an operator on the vacuum are rows run on the vacuum alone.  The wedge
suite records measured scalars instead of asserting a disputed value; its
pass condition is internal consistency of the commutation relations only.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

from .basis import BasisLabel, RepSpec, enumerate_basis, label_sort_key
# eval_series_b1_raw is not called here, but perfbench/tracer.py patches the name
from .operators import (  # noqa: F401
    OperatorExpr,
    _build,
    _iso_letters,
    _series_b1,
    _walk,
    adj,
    apply,
    boson,
    cluster,
    eval_series_b1_raw,
    fermion,
    gen,
    ident,
    iso,
    lincomb,
    partial_shift,
    prod,
    psi,
    range_proj,
    range_proj_definition,
    rho,
    s_star_support,
    scaled,
    shift_series,
)
from .parsing import _MAX_INDEX, serialize_vector
from .polynorm import poly_normal_form, render_monomials
from .scalars import MINUS_ONE, ONE, RadicalScalar, sqrt_int
from .states import StateVector, merge_terms

__all__ = [
    "CheckReport",
    "SUITE_NAMES",
    "DEFAULT_N_MAX",
    "DEFAULT_M_MAX",
    "DEFAULT_DEPTH",
    "verify_identity",
    "check_all",
    "run_suite",
]

DEFAULT_N_MAX = 4
DEFAULT_M_MAX = 4
DEFAULT_DEPTH = 5

# A side is an operator expression, an expected vector, or an oracle: the
# name of a function of the vector in this module, then its leading arguments;
# ("apply", e) is e on a plan of the table's oracle sides alone.
Side = Union[OperatorExpr, StateVector, tuple]
Row = tuple[str, Side, Side]
# A case's input and sides: vectors, a pair of vectors, or text already rendered.
Witness = Union[StateVector, tuple[StateVector, StateVector], str]

_I = ident()
_ZERO = lincomb()


class CheckReport:
    """Outcome of one suite run, JSON-serializable and deterministic; a
    suite body counts its cases into it through ``run`` and ``check``."""

    def __init__(self, suite: str, rep: str, params: dict[str, int]) -> None:
        self.suite, self.rep, self.params = suite, rep, params
        self.cases = 0
        self.failures: list[dict[str, str]] = []
        self.measured: dict[str, object] = {}

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict[str, object]:
        return {
            "suite": self.suite,
            "rep": self.rep,
            "params": dict(self.params),
            "cases": self.cases,
            "passed": self.passed,
            "failures": list(self.failures),
            "measured": dict(self.measured),
        }

    def run(self, samples: list[StateVector], groups: Iterable[Sequence[Row]]) -> None:
        """Both sides of every row on every sample, in the case order group,
        then sample, then row.  The table's expression sides are one plan, its
        ``apply`` oracle sides another, and each sample runs through each once.
        Each side is resolved once per table to its reader, an index into a
        sample's side values: the plan's slots, then the oracle plan's, the
        expected vectors and the oracle calls.  The plans are built on the
        samples' one rep, with one budget of stored images between them."""
        groups = list(groups)
        sides = list({id(side): side for group in groups for row in group for side in row[1:]}.values())
        exprs = [side for side in sides if isinstance(side, OperatorExpr)]
        applies = [side for side in sides if type(side) is tuple and side[0] == "apply"]
        vectors = [side for side in sides if type(side) is StateVector]
        oracles = [side for side in sides if type(side) is tuple and side[0] != "apply"]
        reader = {id(side): k for k, side in enumerate(exprs + applies + vectors + oracles)}
        tables = [[(name, reader[id(left)], reader[id(right)]) for name, left, right in group] for group in groups]
        fixed = [side._terms for side in vectors]
        # the oracle sides take the table's budget, never its trie or memos; a table with none walks no second plan
        plan = _build(exprs, samples[0].rep)
        oracle_plan = applies and _build([side[1] for side in applies], samples[0].rep, ({}, plan[2]))
        failures: list[list[dict[str, str]]] = [[] for _ in groups]
        for v in samples:
            values = _walk(plan, v._terms.items(), [{} for _ in exprs])
            if oracle_plan:
                values += _walk(oracle_plan, v._terms.items(), [{} for _ in applies])
            values += fixed
            # module globals, read at call time: a patched oracle takes effect
            values += [globals()[oracle](*args, v)._terms for oracle, *args in oracles]
            for rows, witnesses in zip(tables, failures):
                for identity, left, right in rows:
                    if values[left] != values[right]:
                        lhs, rhs = (StateVector._trusted(v.rep, values[k]) for k in (left, right))
                        witnesses.append(_witness(identity, v, lhs, rhs))
        self.cases += len(samples) * sum(map(len, groups))
        self.failures += [witness for witnesses in failures for witness in witnesses]

    def check(self, identity: str, source: Witness, left: Witness, right: Witness) -> None:
        """One case; a witness is serialized only when the case fails."""
        self.cases += 1
        if left != right:
            self.failures.append(_witness(identity, source, left, right))


def _witness(identity: str, source: Witness, left: Witness, right: Witness) -> dict[str, str]:
    return {"identity": identity, "input": _text(source), "left": _text(left), "right": _text(right)}


def _text(x: Witness) -> str:
    if type(x) is str:
        return x
    if type(x) is tuple:
        return " , ".join(map(serialize_vector, x))
    return serialize_vector(x)


def _delta(same: bool) -> tuple[str, OperatorExpr]:
    """The name and the operator of delta_nm I."""
    return ("I", _I) if same else ("0", _ZERO)


def _anti(x: OperatorExpr, y: OperatorExpr, c: RadicalScalar = ONE) -> OperatorExpr:
    """x y + c y x."""
    return lincomb((ONE, prod(x, y)), (c, prod(y, x)))


def _samples(rep: RepSpec, depth: int) -> list[StateVector]:
    """Every basis label up to depth, plus one fixed mixed superposition."""
    vecs = [StateVector.basis(rep, lab) for lab in enumerate_basis(rep, depth)]
    coeffs = [ONE, sqrt_int(2), MINUS_ONE / 2, sqrt_int(3)]
    mixed = StateVector.zero(rep)
    for c, b in zip(coeffs, vecs):
        mixed = mixed.combine(c, b)
    if mixed:
        vecs.append(mixed)
    return vecs


def _bounds(rep: RepSpec, depth: int) -> tuple[int, int]:
    """The run's support bound and word bound; see Bounds above."""
    cyc = max(map(len, rep))
    return depth + cyc + 1, depth + 2 * cyc + 2


def verify_identity(
    rep: RepSpec,
    name: str,
    left: OperatorExpr,
    right: OperatorExpr,
    depth: int = DEFAULT_DEPTH,
) -> CheckReport:
    """Compare two operator expressions on every sample vector."""
    report = CheckReport("identity", str(rep), {"n_max": 0, "m_max": 0, "depth": depth})
    report.run(_samples(rep, depth), [((name, left, right),)])
    return report


# ---------------------------------------------------------------------------
# Generator relations
# ---------------------------------------------------------------------------


def _cuntz(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    rows: list[Row] = []
    for i in (1, 2):
        for j in (1, 2):
            word, want = _delta(i == j)
            rows.append((f"t{i}* t{j} = {word}", prod(adj(gen(i)), gen(j)), want))
    resolution = lincomb(*((ONE, prod(gen(i), adj(gen(i)))) for i in (1, 2)))
    rows.append(("t1 t1* + t2 t2* = I", resolution, _I))
    report.run(_samples(rep, depth), [rows])
    stars = (adj(gen(1)), adj(gen(2)))
    for v in (StateVector.basis(rep, lab) for lab in enumerate_basis(rep, depth)):
        hits = sum(1 for star in stars if apply(star, v))
        report.check(
            "exactly one generator range contains each basis vector",
            v,
            str(hits),
            "1",
        )


# ---------------------------------------------------------------------------
# Anticommutation
# ---------------------------------------------------------------------------


def _pair_relations(
    name: str,
    family: Callable[[int], OperatorExpr],
    sign: int,
    n_max: int,
    m_max: int,
) -> list[tuple[Row, ...]]:
    """The CAR (sign +1) or CCR (sign -1) of one family, one group per (n, m):
    x(n)x(m)* +- x(m)*x(n) = delta_nm I, and x(n)x(m) +- x(m)x(n) = 0 with
    and without stars, for 1 <= n <= n_max, 1 <= m <= m_max."""
    op, c = ("+", ONE) if sign > 0 else ("-", MINUS_ONE)
    groups = []
    # each member and its adjoint once, shared by every pair
    x = {k: family(k) for k in range(1, max(n_max, m_max) + 1)}
    star = {k: adj(xk) for k, xk in x.items()}
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            a, b = f"{name}({n})", f"{name}({m})"
            word, want = _delta(n == m)
            groups.append((
                (f"{a}{b}* {op} {b}*{a} = {word}", _anti(x[n], star[m], c), want),
                (f"{a}{b} {op} {b}{a} = 0", _anti(x[n], x[m], c), _ZERO),
                (f"{a}*{b}* {op} {b}*{a}* = 0", _anti(star[n], star[m], c), _ZERO),
            ))
    return groups


def _car(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    report.run(_samples(rep, depth), _pair_relations("a", fermion, 1, n_max, m_max))
    # representation-free restatement through the normal form
    cap = min(4, n_max, m_max)
    for n in range(1, cap + 1):
        for m in range(1, cap + 1):
            an, am = fermion(n), fermion(m)
            nf = poly_normal_form(_anti(an, adj(am)))
            word, want = _delta(n == m)
            report.check(
                f"poly: a({n})a({m})* + a({m})*a({n}) = {word}",
                "(algebra level)",
                render_monomials(nf.terms),
                render_monomials(poly_normal_form(want, depth=nf.depth).terms if n == m else ()),
            )
            nf2 = poly_normal_form(_anti(an, am))
            report.check(
                f"poly: a({n})a({m}) + a({m})a({n}) = 0",
                "(algebra level)",
                render_monomials(nf2.terms),
                render_monomials(()),
            )


# ---------------------------------------------------------------------------
# Commutation
# ---------------------------------------------------------------------------


def _raw_boson(n: int, memo: dict[tuple, object], v: StateVector) -> StateVector:
    """b(n) v from the literal word series b(1) and the recursion
    b(n) = rho(b(n-1)) = sum_m s_m b(n-1) s_m*, bypassing the engine's
    evaluator shortcuts: s_m acts as the letter steps t2^(m-1) t1, off the
    kernel.  ``memo`` is the caller's, keyed on the rep, n and the vector's
    terms, and holds only finished values: b(n) v, and under n = None the
    vector's ``s_star_support`` walk; they are shared, so no one may mutate them."""
    key = (v.rep, n, frozenset(v._terms.items()))
    out = memo.get(key)
    if out is None:
        walk = (v.rep, None, key[2])
        if walk not in memo:
            memo[walk] = s_star_support(v)
        if n == 1:
            out = _series_b1(v, memo[walk])
        else:
            out = StateVector.zero(v.rep)
            for m, w in memo[walk].items():
                out = out + _iso_letters(m, _raw_boson(n - 1, memo, w))
        memo[key] = out
    return out


def _ccr(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    # one oracle memo per run: row n reads the b(n-1) values of its shorter samples
    memo: dict[tuple, object] = {}
    rows = [("b(1) evaluator = literal word series", boson(1), ("_raw_boson", 1, memo))]
    rows += [
        (f"b({n}) evaluator = recursion over literal series", boson(n), ("_raw_boson", n, memo))
        for n in range(2, n_max + 1)
    ]
    report.run(_samples(rep, depth), [rows, *_pair_relations("b", boson, -1, n_max, m_max)])


# ---------------------------------------------------------------------------
# Projection family
# ---------------------------------------------------------------------------


def _wfamily(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    support, _ = _bounds(rep, depth)
    w = [range_proj(n) for n in range(max(n_max, m_max) + 1)]
    resolution = lincomb(*((ONE, range_proj(m)) for m in range(0, support + 1)))
    rows: list[Row] = [("sum of W(m) = I", resolution, _I)]
    for n in range(0, n_max + 1):
        rows.append((f"W({n})W({n}) = W({n})", prod(w[n], w[n]), w[n]))
        rows.append((f"W({n}) = fermion product form", w[n], ("apply", range_proj_definition(n))))
        rows += [
            (f"W({n})W({m}) = 0", prod(w[n], w[m]), _ZERO) for m in range(0, m_max + 1) if m != n
        ]
    report.run(_samples(rep, depth), [rows])
    basis_vecs = [StateVector.basis(rep, lab) for lab in enumerate_basis(rep, depth)]
    # each basis vector walks one plan of W(0..n_max) once and keeps its nonzero images
    plan, zero = _build(w[: n_max + 1], rep), StateVector.zero(rep)
    walked = []
    for x in basis_vecs:
        outs = _walk(plan, x._terms.items(), [{} for _ in range(n_max + 1)])
        walked.append((x, {n: StateVector._trusted(rep, t) for n, t in enumerate(outs) if t}))
    pairs = list(zip(walked, walked[1:]))
    if len(walked) > 2:
        pairs.append((walked[0], walked[-1]))
    for (x, wx), (y, wy) in pairs:
        for n in range(0, n_max + 1):
            lhs = wx.get(n, zero).inner(y)
            rhs = x.inner(wy.get(n, zero))
            report.check(
                f"W({n}) symmetric in the basis pairing",
                (x, y),
                str(lhs),
                str(rhs),
            )


# ---------------------------------------------------------------------------
# Shift relations between isometries and fermions
# ---------------------------------------------------------------------------


def _lemma23(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    t2_adj = adj(gen(2))
    rows: list[Row] = [
        (f"t2 s({n}) = s({n + 1})", prod(gen(2), iso(n)), iso(n + 1)) for n in range(1, n_max + 1)
    ]
    for n in range(0, n_max + 1):
        s = iso(n + 1)
        definition = ("apply", range_proj_definition(n))
        rows.append((f"W({n}) = s({n + 1})s({n + 1})*", definition, prod(s, adj(s))))
    for n in range(1, n_max + 1):
        s, x = iso(n), prod(t2_adj, partial_shift(n))
        rows.append((f"s({n})t2*s({n})* = t2* X({n})", prod(s, t2_adj, adj(s)), x))
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            c = ONE if m % 2 == 1 else MINUS_ONE
            a, up, s = fermion(n), fermion(n + m), iso(m)
            shifted = f"(-1)^({m}-1) a({n + m})"
            rows += [
                (f"s({m})a({n}) = {shifted}s({m})", prod(s, a), scaled(c, prod(up, s))),
                (f"s({m})a({n})* = {shifted}*s({m})", prod(s, adj(a)), scaled(c, prod(adj(up), s))),
            ]
    report.run(_samples(rep, depth), [rows])


# ---------------------------------------------------------------------------
# Isometry family and the recursion endomorphism
# ---------------------------------------------------------------------------


def _rho(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    support, _ = _bounds(rep, depth)
    t2_adj, y = adj(gen(2)), shift_series()
    rows: list[Row] = []
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            word, want = _delta(n == m)
            rows.append((f"s({n})*s({m}) = {word}", prod(adj(iso(n)), iso(m)), want))
    resolution = lincomb(*((ONE, prod(iso(m), adj(iso(m)))) for m in range(1, support + 1)))
    x_sum = lincomb(*((ONE, partial_shift(n)) for n in range(1, support + 2)))
    rows += [
        ("sum of s(n)s(n)* = I", resolution, _I),
        ("rho(t2*) = t2* Y", rho(t2_adj), prod(t2_adj, y)),
        ("Y = sum of X(n)", y, x_sum),
    ]
    signs = (ONE, MINUS_ONE)
    for n in range(1, n_max + 1):
        terms = ((signs[m % 2], prod(fermion(n + m + 1), range_proj(m))) for m in range(support + 1))
        name = f"rho(a({n})) = alternating sum of a({n}+m+1)W(m)"
        rows += [
            (
                f"rho(t2* F({n})) = rho(t2*) rho(F({n}))",
                rho(prod(t2_adj, cluster(n))),
                prod(rho(t2_adj), rho(cluster(n))),
            ),
            (name, rho(fermion(n)), lincomb(*terms)),
        ]
    rows += [
        (name, rho(prod(f, g)), prod(rho(f), rho(g)))
        for name, f, g in (
            ("rho(t1 t2*) = rho(t1)rho(t2*)", gen(1), t2_adj),
            ("rho(a(1) a(2)) = rho(a(1))rho(a(2))", fermion(1), fermion(2)),
            ("rho(t2 t1* t1) = rho(t2 t1*)rho(t1)", prod(gen(2), adj(gen(1))), gen(1)),
            (
                "rho(a(2)* a(1)a(1)*) = rho(a(2)*)rho(a(1)a(1)*)",
                adj(fermion(2)),
                prod(fermion(1), adj(fermion(1))),
            ),
        )
    ]
    report.run(_samples(rep, depth), [rows])


# ---------------------------------------------------------------------------
# The fermionization identity
# ---------------------------------------------------------------------------


def _main(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    groups = [
        (
            (f"b({n}) = t2* F({n})", boson(n), prod(adj(gen(2)), cluster(n))),
            (f"b({n})* = F({n})* t2", adj(boson(n)), prod(adj(cluster(n)), gen(2))),
        )
        for n in range(1, n_max + 1)
    ]
    report.run(_samples(rep, depth), groups)


# ---------------------------------------------------------------------------
# Closed forms of the cluster series
# ---------------------------------------------------------------------------


def _closedforms(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    support, words = _bounds(rep, depth)
    span = range(1, words + 1)
    # Every factor is built once per run and shared by the terms: occ[2j - 2]
    # is a(j)* and occ[2j - 1] is a(j), so occ[2i - 2 : 2j - 2] is the pairs
    # a(i)* a(i) ... a(j-1)* a(j-1); w[l] is W(l).
    occ = [f for a in map(fermion, range(1, 2 * words + 2)) for f in (adj(a), a)]
    w = [range_proj(l) for l in range(support + 1)]
    # pairs 1..n, then a(n+1) a(n+1)*
    first = ((sqrt_int(n), prod(*occ[: 2 * n], occ[2 * n + 1], occ[2 * n])) for n in span)
    # k = n + m: pairs 1..n-1, a(n)* a(n+1), pairs n+2..k, then a(k+1) a(k+1)*
    second = (
        (sqrt_int(k - n), prod(*occ[: 2 * n - 1], occ[2 * n + 1], *occ[2 * n + 2 : 2 * k], occ[2 * k + 1], occ[2 * k]))
        for n in span
        for k in range(n + 1, n + words + 1)
    )
    rows: list[Row] = [
        ("F(1) = weighted occupation series", cluster(1), lincomb(*first)),
        ("F(2) = weighted double occupation series", cluster(2), lincomb(*second)),
    ]
    for m in range(1, min(3, n_max) + 1):
        # a(m+l+2) a(m+l+2)*, pairs l+2..l+m+1, then W(l)
        terms = [
            (ONE, prod(occ[2 * (m + l) + 3], occ[2 * (m + l) + 2], *occ[2 * l + 2 : 2 * (l + m) + 2], w[l]))
            for l in range(support + 1)
        ]
        rows.append((f"rho(W({m})) = occupation expansion", rho(range_proj(m)), lincomb(*terms)))
    report.run(_samples(rep, depth), [rows])


# ---------------------------------------------------------------------------
# Fixed-representation suites
# ---------------------------------------------------------------------------


def _exact_rank(vectors: list[StateVector]) -> list[int]:
    """Running rank after each vector, by exact elimination."""
    pivots: list[tuple[BasisLabel, dict[BasisLabel, RadicalScalar]]] = []
    ranks: list[int] = []
    for vec in vectors:
        row = dict(vec.terms())
        for lead, pivot in pivots:
            c = row.get(lead)
            if c is not None:
                neg = -c
                merge_terms(((lab, neg * pc) for lab, pc in pivot.items()), row)
        if row:
            lead = min(row, key=label_sort_key)
            inv = row[lead].inverse()
            pivots.append((lead, {lab: c * inv for lab, c in row.items()}))
        ranks.append(len(pivots))
    return ranks


# The span rank is exact elimination over every boson word: about 0.11 s at
# depth 18 (1597 words) on a 2-core x86-64 machine with CPython 3.11, and
# growing about 2.5-fold per two degrees.
_MAX_FOCK_WORDS = 2048


def _degree_partitions(total: int) -> list[tuple[int, ...]]:
    """Partitions of total into weakly decreasing positive parts."""
    if total == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def build(rest: int, cap: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, cap), 0, -1):
            build(rest - part, part, acc + (part,))

    build(total, total, ())
    return out


def _fock(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    # the boson words, total by total, bounded before any case runs
    words: list[tuple[int, ...]] = []
    counts: list[int] = []
    for total in range(0, depth + 1):
        words += _degree_partitions(total)
        if len(words) > _MAX_FOCK_WORDS:
            raise ValueError(
                f"depth {depth} gives more than {_MAX_FOCK_WORDS} boson words in the fock suite"
            )
        counts.append(len(words))
    vac = StateVector.basis(rep, BasisLabel(0, "", 0))
    zero = StateVector.zero(rep)
    raising = {idx: adj(boson(idx)) for idx in range(1, max(depth, 2) + 1)}
    rows: list[Row] = [("t1 vac = vac", gen(1), vac)]
    for n in range(1, n_max + 1):
        rows += [(f"a({n}) vac = 0", fermion(n), zero), (f"b({n}) vac = 0", boson(n), zero)]
    for n, word in ((1, "2"), (2, "12")):
        ket = StateVector.basis(rep, BasisLabel(0, word, 0))
        rows += [
            (f"b({n})* vac = a({n})* vac", raising[n], adj(fermion(n))),
            (f"b({n})* vac = |{word};0>", raising[n], ket),
        ]
    report.run([vac], [rows])
    # span growth of boson monomials on the vacuum, recorded not asserted:
    # every word is one side of one plan, walked once from the vacuum
    monomials = [prod(*(raising[idx] for idx in parts)) for parts in words]
    outs = _walk(_build(monomials, rep), vac._terms.items(), [{} for _ in monomials])
    vectors = [StateVector._trusted(rep, terms) for terms in outs]
    ranks = _exact_rank(vectors)
    report.cases += len(vectors)
    dims = {
        str(d): (ranks[counts[d] - 1] if counts[d] else 0) for d in range(0, depth + 1)
    }
    report.measured["span_dimension_by_total_degree"] = dims


def _wedge(report: CheckReport, rep: RepSpec, n_max: int, m_max: int, depth: int) -> None:
    vac = StateVector.basis(rep, BasisLabel(0, "", 0))
    dual = StateVector.basis(rep, BasisLabel(0, "", 1))
    zero = StateVector.zero(rep)
    t2 = gen(2)
    # per n: a(2n) = psi(n-1/2), a(2n-1) = psi(-(n-1/2)), and their stars, in
    # the order of the dual-vacuum flags; the psi rows reuse the same nodes
    modes = []
    for n in range(1, n_max + 1):
        even, odd = psi(2 * n - 1), psi(1 - 2 * n)
        modes.append((even, odd, adj(even), adj(odd)))
    rows: list[Row] = [("t2 vac = vac(1)", t2, dual)]
    for n, (_, odd, even_adj, _) in enumerate(modes, 1):
        k = 2 * n - 1
        rows += [
            (f"a({k}) vac = 0", odd, zero),
            (f"a({2 * n})* vac = 0", even_adj, zero),
            (f"psi(-{k}/2) vac = 0", odd, zero),
            (f"psi({k}/2)* vac = 0", even_adj, zero),
        ]
    report.run([vac], [rows])
    flags = {"even_plain": True, "odd_plain": True, "even_starred": True, "odd_starred": True}
    for mode in modes:
        report.cases += 4
        for key, a in zip(flags, mode):
            if apply(a, dual):
                flags[key] = False
    report.measured["dual_vacuum_annihilation"] = flags
    measured: dict[str, dict[str, object]] = {"lambda": {}, "mu": {}, "lambda_from_commutation": {}}
    t2_adj = adj(t2)
    for n in range(1, n_max + 1):
        b, f = boson(n), cluster(n)
        b_adj, f_adj = adj(b), adj(f)
        raised = apply(b, apply(b_adj, vac))
        cluster_path = apply(t2_adj, apply(f, apply(f_adj, apply(t2, vac))))
        report.check(
            f"b({n})b({n})* vac agrees on both evaluation paths", vac, raised, cluster_path
        )
        lam_n = raised.coeff(BasisLabel(0, "", 0))
        report.check(f"b({n})b({n})* vac is a multiple of vac", vac, raised, vac.scale(lam_n))
        lowered = apply(b_adj, apply(b, vac))
        mu_n = lowered.coeff(BasisLabel(0, "", 0))
        report.check(f"b({n})*b({n}) vac is a multiple of vac", vac, lowered, vac.scale(mu_n))
        report.check(
            f"commutation consistency: lambda({n}) = 1 + mu({n})", vac, str(lam_n), str(ONE + mu_n)
        )
        for scalars, value in zip(measured.values(), (lam_n, mu_n, ONE + mu_n)):
            scalars[str(n)] = value.to_json()
    report.measured.update(measured, reference_scalar="2")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_SUITES = {
    "cuntz": _cuntz,
    "car": _car,
    "ccr": _ccr,
    "wfamily": _wfamily,
    "lemma23": _lemma23,
    "rho": _rho,
    "main": _main,
    "closedforms": _closedforms,
    "fock": _fock,
    "wedge": _wedge,
}
SUITE_NAMES = tuple(_SUITES)
# The fixed-representation suites run on these, whatever rep is asked for.
_FIXED_REPS = {"fock": RepSpec.parse("1"), "wedge": RepSpec.parse("12")}


def run_suite(
    name: str,
    rep: RepSpec,
    n_max: int = DEFAULT_N_MAX,
    m_max: int = DEFAULT_M_MAX,
    depth: int = DEFAULT_DEPTH,
) -> CheckReport:
    """Run one suite by name; the only way into a suite, so every run is checked here.
    A run that counts no case is refused: it would report a pass on nothing."""
    try:
        body = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}, expected one of {', '.join(SUITE_NAMES)} or all") from None
    # A negative bound samples nothing, and an empty run must not report a pass.
    for param, value in (("n_max", n_max), ("m_max", m_max), ("depth", depth)):
        if value < 0:
            raise ValueError(f"{param} must be >= 0, got {value}")
    # The family indices are bounded as the parser bounds them.
    for param, value in (("n_max", n_max), ("m_max", m_max)):
        if value > _MAX_INDEX:
            raise ValueError(f"{param} must be at most {_MAX_INDEX}, got {value}")
    rep = _FIXED_REPS.get(name, rep)
    report = CheckReport(name, str(rep), {"n_max": n_max, "m_max": m_max, "depth": depth})
    body(report, rep, n_max, m_max, depth)
    if not report.cases:
        raise ValueError(f"suite {name} has no case at n_max={n_max}, m_max={m_max}, depth={depth}")
    return report


def check_all(
    rep: RepSpec,
    n_max: int = DEFAULT_N_MAX,
    m_max: int = DEFAULT_M_MAX,
    depth: int = DEFAULT_DEPTH,
) -> list[CheckReport]:
    return [run_suite(name, rep, n_max, m_max, depth) for name in SUITE_NAMES]
