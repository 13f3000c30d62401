"""Per-layer tracing for the benchmark's traced run.

Nothing under ``src/`` knows about tracing.  A :class:`Tracer` replaces
function bindings from outside, in every module where a call is looked up:
``cuntzrep`` modules import each other's functions with ``from .x import y``,
so wrapping only the defining module would count nothing.  The coarse layers
(cli, suites, operators, polynorm, parsing) get spans: name, start, end,
parent and the request (invocation) index, kept in memory and written out at
the end.  The fine layers (scalars, basis, states) get plain counters, and
their hot operations keep a sample of the operands they saw, which
:meth:`Tracer.unit_costs` replays after the bindings are restored.
"""

from __future__ import annotations

import gzip
import statistics
import time
from collections import defaultdict

FAMILIES = {
    "Gen": "gen",
    "Iso": "iso",
    "Fermion": "fermion",
    "Psi": "fermion",
    "Boson": "boson",
    "RangeProj": "range_proj",
    "PartialShift": "partial_shift",
    "ShiftSeries": "shift_series",
    "Cluster": "cluster",
    "Rho": "rho",
    "Zeta": "zeta",
    "Prod": "prod",
    "LinComb": "lincomb",
    "Ident": "ident",
}
SUITES = ("closedforms", "car", "ccr", "main")
PARSERS = ("parse_expr", "parse_state", "parse_rep", "serialize_vector")
ORACLE = "suites.oracle"
OPERAND_CAP = 2048


def _family(e) -> str:
    # Adjoints count under their inner family.
    while type(e).__name__ == "Adj":
        e = e.arg
    return FAMILIES.get(type(e).__name__, "other")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


class _Operands:
    """Every k-th operand tuple, with k doubling whenever the sample fills."""

    def __init__(self) -> None:
        self.items: list[tuple] = []
        self.stride = 1
        self.seen = 0

    def offer(self, args: tuple) -> None:
        if self.seen % self.stride == 0:
            self.items.append(args)
            if len(self.items) >= OPERAND_CAP:
                del self.items[1::2]
                self.stride *= 2
        self.seen += 1


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric the traced run reports."""
    out = []
    for op in ("add", "mul", "inverse", "new"):
        out.append((f"scalars.{op}.calls", "count", "lower"))
    for op in ("add", "mul", "inverse"):
        out.append((f"scalars.{op}.ns_per_op", "ns", "lower"))
    for op in ("apply_gen", "apply_gen_adjoint", "normalize_label"):
        out.append((f"basis.{op}.calls", "count", "lower"))
    out.append(("basis.apply_gen_adjoint.hit_frac", "ratio", "higher"))
    for op in ("apply_gen", "apply_gen_adjoint"):
        out.append((f"basis.{op}.ns_per_op", "ns", "lower"))
    for op in ("new", "combine", "terms"):
        out.append((f"states.{op}.calls", "count", "lower"))
    out += [
        ("states.zero_frac", "ratio", "lower"),
        ("states.peak_len", "count", "lower"),
        ("states.combine.ns_per_op", "ns", "lower"),
        ("operators.apply.calls", "count", "lower"),
        ("operators.apply.label_attempts", "count", "lower"),
        ("operators.apply.distinct_frac", "ratio", "lower"),
    ]
    for fam in dict.fromkeys(FAMILIES.values()):
        out.append((f"operators.apply.{fam}.calls", "count", "lower"))
        out.append((f"operators.apply.{fam}.s", "s", "lower"))
    out += [
        ("operators.s_star_support.calls", "count", "lower"),
        ("operators.s_star_support.s", "s", "lower"),
        ("polynorm.poly_normal_form.calls", "count", "lower"),
        ("polynorm.poly_normal_form.s", "s", "lower"),
        ("polynorm.monomials.count", "count", "lower"),
        ("polynorm.merge_frac", "ratio", "lower"),
        ("polynorm.collapse.s", "s", "lower"),
    ]
    for fn in PARSERS:
        out.append((f"parsing.{fn}.calls", "count", "lower"))
        out.append((f"parsing.{fn}.s", "s", "lower"))
    for suite in SUITES:
        out.append((f"suites.{suite}.s", "s", "lower"))
        out.append((f"suites.{suite}.cases", "count", "higher"))
    out += [
        ("suites.self_s", "s", "lower"),
        ("suites.oracle.s", "s", "higher"),
        ("cli.main.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Spans and counters for one traced pass; a context manager that
    installs the wrappers on entry and restores every binding on exit."""

    def __init__(self) -> None:
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.name: list[int] = []
        self.request: list[int] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.operands: dict[str, _Operands] = defaultdict(_Operands)
        self.distinct: set = set()
        self.peak_len = 0
        self._in_combine = False
        self._mono_depth = 0
        self._last_monomials = None
        self._oracle_exprs: dict[int, object] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def in_request(self, index: int, fn, *args):
        """Run one invocation; its spans carry ``index`` as request id."""
        self._request = index
        return fn(*args)

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

            return wrapper

        return make

    def __enter__(self) -> "Tracer":
        self._install()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _install(self) -> None:
        from cuntzrep import basis, cli, operators, parsing, polynorm, scalars, states, suites

        counts = self.counts
        operands = self.operands

        self._patch(cli, "main", self._spanned("cli.main"))
        for fn in PARSERS:
            self._patch(cli, fn, self._spanned(f"parsing.{fn}"))
        self._patch(suites, "serialize_vector", self._spanned("parsing.serialize_vector"))

        def make_run_suite(fn):
            def run_suite(name, *args, **kwargs):
                report = self.span(f"suites.{name}", fn, name, *args, **kwargs)
                counts[f"suites.{name}.cases"] += report.cases
                return report

            return run_suite

        self._patch(cli, "run_suite", make_run_suite)
        self._patch(suites, "run_suite", make_run_suite)

        # -- operators: one span per apply call, named by family --------
        labels_of = states.StateVector.terms

        def make_apply(fn):
            def apply(e, v):
                counts["operators.apply.calls"] += 1
                fam = _family(e)
                counts[f"operators.apply.{fam}.calls"] += 1
                if v:
                    rep = v.rep
                    for label, _ in labels_of(v):
                        counts["operators.apply.label_attempts"] += 1
                        self.distinct.add((e, rep, label))
                return self.span(f"operators.apply.{fam}", fn, e, v)

            return apply

        traced_apply = make_apply(operators.apply)
        self._patch(operators, "apply", lambda fn: traced_apply)
        self._patch(cli, "apply_operator", lambda fn: traced_apply)

        def suites_apply(e, v):
            if id(e) in self._oracle_exprs:
                return self.span(ORACLE, traced_apply, e, v)
            return traced_apply(e, v)

        self._patch(suites, "apply", lambda fn: suites_apply)

        def make_definition(fn):
            def definition(n):
                e = fn(n)
                self._oracle_exprs[id(e)] = e
                return e

            return definition

        self._patch(suites, "range_proj_definition", make_definition)
        for owner, attr in ((suites, "eval_series_b1_raw"), (suites, "_raw_boson"), (polynorm, "apply_normal_form")):
            self._patch(owner, attr, self._spanned(ORACLE))
        for owner in (operators, suites):
            self._patch(owner, "s_star_support", self._spanned("operators.s_star_support"))

        # -- polynorm ----------------------------------------------------
        for owner in (cli, suites):
            self._patch(owner, "poly_normal_form", self._spanned("polynorm.poly_normal_form"))
        self._patch(cli, "collapse", self._spanned("polynorm.collapse"))

        def make_monomials(fn):
            def monomials(e):
                self._mono_depth += 1
                try:
                    out = fn(e)
                finally:
                    self._mono_depth -= 1
                if self._mono_depth == 0:
                    counts["polynorm.monomials.count"] += len(out)
                    self._last_monomials = out
                return out

            return monomials

        def make_merge(fn):
            def merge(terms):
                out = fn(terms)
                if terms is self._last_monomials:
                    counts["polynorm.merged.count"] += len(out)
                    self._last_monomials = None
                return out

            return merge

        self._patch(polynorm, "monomials", make_monomials)
        self._patch(polynorm, "_merge", make_merge)

        # -- scalars: counters and operand samples ------------------------
        RS = scalars.RadicalScalar
        self.originals["add"] = RS.__add__
        self.originals["mul"] = RS.__mul__
        self.originals["inverse"] = RS.inverse

        def counted_binary(op):
            def make(fn):
                def wrapper(a, b):
                    counts[f"scalars.{op}.calls"] += 1
                    operands[f"scalars.{op}"].offer((a, b))
                    return fn(a, b)

                return wrapper

            return make

        add_wrapper = counted_binary("add")(RS.__add__)
        mul_wrapper = counted_binary("mul")(RS.__mul__)
        self._patch(RS, "__add__", lambda fn: add_wrapper)
        self._patch(RS, "__radd__", lambda fn: add_wrapper)
        self._patch(RS, "__mul__", lambda fn: mul_wrapper)
        self._patch(RS, "__rmul__", lambda fn: mul_wrapper)

        def make_inverse(fn):
            def inverse(a):
                counts["scalars.inverse.calls"] += 1
                operands["scalars.inverse"].offer((a,))
                return fn(a)

            return inverse

        self._patch(RS, "inverse", make_inverse)

        def make_init(fn):
            def init(obj, *args, **kwargs):
                counts["scalars.new.calls"] += 1
                fn(obj, *args, **kwargs)

            return init

        self._patch(RS, "__init__", make_init)

        def make_canonical(cm):
            func = cm.__func__

            def canonical(cls, acc):
                counts["scalars.new.calls"] += 1
                return func(cls, acc)

            return classmethod(canonical)

        self._patch(RS, "_canonical", make_canonical)

        # -- basis ---------------------------------------------------------
        self.originals["apply_gen"] = operators.apply_gen
        self.originals["apply_gen_adjoint"] = operators.apply_gen_adjoint

        def make_gen(fn):
            def apply_gen(rep, i, label):
                counts["basis.apply_gen.calls"] += 1
                operands["basis.apply_gen"].offer((rep, i, label))
                return fn(rep, i, label)

            return apply_gen

        def make_gen_adjoint(fn):
            def apply_gen_adjoint(rep, i, label):
                counts["basis.apply_gen_adjoint.calls"] += 1
                operands["basis.apply_gen_adjoint"].offer((rep, i, label))
                out = fn(rep, i, label)
                if out is not None:
                    counts["basis.apply_gen_adjoint.hits"] += 1
                return out

            return apply_gen_adjoint

        def make_normalize(fn):
            def normalize_label(*args):
                counts["basis.normalize_label.calls"] += 1
                return fn(*args)

            return normalize_label

        self._patch(operators, "apply_gen", make_gen)
        self._patch(operators, "apply_gen_adjoint", make_gen_adjoint)
        for owner in (basis, parsing):
            self._patch(owner, "normalize_label", make_normalize)

        # -- states ----------------------------------------------------------
        SV = states.StateVector
        self.originals["combine"] = SV.combine

        def built(v) -> None:
            counts["states.built"] += 1
            if not v:
                counts["states.zero"] += 1
            if len(v) > self.peak_len:
                self.peak_len = len(v)

        def make_sv_init(fn):
            def init(obj, *args, **kwargs):
                counts["states.new.calls"] += 1
                fn(obj, *args, **kwargs)
                if not self._in_combine:
                    built(obj)

            return init

        def make_combine(fn):
            def combine(obj, c, other):
                counts["states.combine.calls"] += 1
                operands["states.combine"].offer((obj, c, other))
                self._in_combine = True
                try:
                    out = fn(obj, c, other)
                finally:
                    self._in_combine = False
                built(out)
                return out

            return combine

        def make_terms(fn):
            def terms(obj):
                counts["states.terms.calls"] += 1
                return fn(obj)

            return terms

        self._patch(SV, "__init__", make_sv_init)
        self._patch(SV, "combine", make_combine)
        self._patch(SV, "terms", make_terms)

    # -- results -----------------------------------------------------------

    def unit_costs(self, repeats: int = 5) -> dict[str, float]:
        """Nanoseconds per call of the bottom-layer operations, replaying the
        recorded operands through the original functions."""
        samples = {
            "scalars.add": (self.originals["add"], self.operands["scalars.add"].items),
            "scalars.mul": (self.originals["mul"], self.operands["scalars.mul"].items),
            "scalars.inverse": (self.originals["inverse"], self.operands["scalars.inverse"].items),
            "basis.apply_gen": (self.originals["apply_gen"], self.operands["basis.apply_gen"].items),
            "basis.apply_gen_adjoint": (
                self.originals["apply_gen_adjoint"],
                self.operands["basis.apply_gen_adjoint"].items,
            ),
            "states.combine": (self.originals["combine"], self.operands["states.combine"].items),
        }
        if not samples["scalars.inverse"][1]:
            # No inverse ran in this workload: invert the nonzero scalars the
            # run multiplied instead, so the figure still uses real operands.
            nonzero = [(a,) for a, _ in samples["scalars.mul"][1] if a]
            samples["scalars.inverse"] = (self.originals["inverse"], nonzero)
        out = {}
        for name, (fn, items) in samples.items():
            if not items:
                out[name] = 0.0
                continue
            per_call = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for args in items:
                    fn(*args)
                per_call.append((time.perf_counter() - t0) / len(items))
            out[name] = statistics.median(per_call) * 1e9
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead, which needs
        an untraced pass to compare against."""
        c = self.counts
        selfs = self_times(self.start, self.end, self.parent)
        incl = defaultdict(float)
        own = defaultdict(float)
        oracle = self._name_ids.get(ORACLE, -1)
        for i, nid in enumerate(self.name):
            own[nid] += selfs[i]
            if nid == oracle and self._has_ancestor(i, oracle):
                continue
            incl[nid] += self.end[i] - self.start[i]

        def total(name: str, table) -> float:
            nid = self._name_ids.get(name)
            return table[nid] if nid is not None else 0.0

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for key in ("add", "mul", "inverse", "new"):
            m[f"scalars.{key}.calls"] = c[f"scalars.{key}.calls"]
        for key in ("apply_gen", "apply_gen_adjoint", "normalize_label"):
            m[f"basis.{key}.calls"] = c[f"basis.{key}.calls"]
        m["basis.apply_gen_adjoint.hit_frac"] = frac(
            c["basis.apply_gen_adjoint.hits"], c["basis.apply_gen_adjoint.calls"]
        )
        for key in ("new", "combine", "terms"):
            m[f"states.{key}.calls"] = c[f"states.{key}.calls"]
        m["states.zero_frac"] = frac(c["states.zero"], c["states.built"])
        m["states.peak_len"] = self.peak_len
        m["operators.apply.calls"] = c["operators.apply.calls"]
        m["operators.apply.label_attempts"] = c["operators.apply.label_attempts"]
        m["operators.apply.distinct_frac"] = frac(len(self.distinct), c["operators.apply.label_attempts"])
        for fam in dict.fromkeys(FAMILIES.values()):
            m[f"operators.apply.{fam}.calls"] = c[f"operators.apply.{fam}.calls"]
            m[f"operators.apply.{fam}.s"] = total(f"operators.apply.{fam}", own)
        m["operators.s_star_support.calls"] = self._calls("operators.s_star_support")
        m["operators.s_star_support.s"] = total("operators.s_star_support", own)
        m["polynorm.poly_normal_form.calls"] = self._calls("polynorm.poly_normal_form")
        m["polynorm.poly_normal_form.s"] = total("polynorm.poly_normal_form", incl)
        m["polynorm.monomials.count"] = c["polynorm.monomials.count"]
        m["polynorm.merge_frac"] = frac(c["polynorm.merged.count"], c["polynorm.monomials.count"])
        m["polynorm.collapse.s"] = total("polynorm.collapse", incl)
        for fn in PARSERS:
            m[f"parsing.{fn}.calls"] = self._calls(f"parsing.{fn}")
            m[f"parsing.{fn}.s"] = total(f"parsing.{fn}", incl)
        suite_self = 0.0
        for name, nid in self._name_ids.items():
            if name.startswith("suites.") and name != ORACLE:
                suite_self += own[nid]
        for suite in SUITES:
            m[f"suites.{suite}.s"] = total(f"suites.{suite}", incl)
            m[f"suites.{suite}.cases"] = c[f"suites.{suite}.cases"]
        m["suites.self_s"] = suite_self
        m["suites.oracle.s"] = total(ORACLE, incl)
        m["cli.main.s"] = total("cli.main", incl)
        m["cli.self_s"] = total("cli.main", own)
        m.update({f"{k}.ns_per_op": v for k, v in self.unit_costs().items()})
        return m

    def _calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return sum(1 for x in self.name if x == nid) if nid is not None else 0

    def _has_ancestor(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write_spans(self, path: str) -> int:
        """Write every span as a TSV row (request, parent, name, start and end
        in ns from the first span); returns the number of spans."""
        base = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\trequest\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.request[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{round((self.start[i] - base) * 1e9)}\t{round((self.end[i] - base) * 1e9)}\n"
                )
        return len(self.start)
