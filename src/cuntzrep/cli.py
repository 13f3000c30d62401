"""Command line front end.

Subcommands: apply (evaluate an operator expression on a state), expand
(polynomial normal form), check (run a verification suite), list-basis
(enumerate basis labels).  Exit codes: 0 success, 1 check failure, 2 usage
or parse error.  All output is deterministic; JSON is emitted with a stable
key order and no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .basis import enumerate_basis
from .operators import apply as apply_operator, kernel_cache_clear
from .parsing import (
    ket_text,
    parse_expr,
    parse_rep,
    parse_state,
    serialize_label,
    serialize_vector,
    vector_to_json,
)
from .polynorm import collapse, poly_normal_form, render_monomials
from .suites import (
    DEFAULT_DEPTH,
    DEFAULT_M_MAX,
    DEFAULT_N_MAX,
    SUITE_NAMES,
    CheckReport,
    check_all,
    run_suite,
)

_FAILURE_PRINT_CAP = 10


@functools.cache
def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    # Built on the first main() call and reused: parse_args keeps no state
    # between calls, and building costs about 1 ms, most of a short query.
    parser = argparse.ArgumentParser(
        prog="cuntzrep",
        description="Exact engine for recursive boson and fermion systems "
        "on permutative representations of the two-generator Cuntz algebra.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def subcommand(name: str, help: str, rep: bool = True, unicode: bool = True):
        # each flag only where it is read: argparse refuses it elsewhere
        p = sub.add_parser(name, help=help)
        if rep:
            p.add_argument("--rep", required=True, help="cycle word, e.g. 1, 12, or 1+12")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if unicode:
            p.add_argument("--unicode", action="store_true", help="render vacuum and radical glyphs")
        return p

    p_apply = subcommand("apply", "apply an operator expression to a state")
    p_apply.add_argument("--expr", required=True, help="operator expression")
    p_apply.add_argument("--state", required=True, help="state vector, e.g. vac or |2;0>")

    p_expand = subcommand("expand", "polynomial normal form of an expression", rep=False)
    p_expand.add_argument("--expr", required=True, help="polynomial operator expression")
    p_expand.add_argument("--depth", type=int, default=None, help="refinement depth")

    p_check = subcommand("check", "run a verification suite", unicode=False)
    p_check.add_argument(
        "--suite", required=True, help=f"one of {', '.join(SUITE_NAMES)}, or all"
    )
    p_check.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_check.add_argument("--m-max", type=int, default=DEFAULT_M_MAX)
    p_check.add_argument("--depth", type=int, default=DEFAULT_DEPTH)

    p_list = subcommand("list-basis", "enumerate basis labels up to a depth")
    p_list.add_argument("--depth", type=int, default=DEFAULT_DEPTH)

    return parser, sub.choices


def _build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _parse_argv(argv: Optional[list[str]]) -> argparse.Namespace:
    """Parse a command line once.  When its first word names a subcommand,
    the rest goes straight to that subcommand's parser, which is all the
    top-level parser would do with it after a pass of its own; leftovers
    are reported by the top-level parser, as its parse_args reports them.
    Any other command line (none, --help, an unknown subcommand, an option
    first) goes through the top-level parser."""
    parser, subparsers = _build_parsers()
    argv = sys.argv[1:] if argv is None else argv
    sub = subparsers.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _run_apply(args: argparse.Namespace) -> int:
    rep = parse_rep(args.rep)
    expr = parse_expr(args.expr)
    state = parse_state(rep, args.state)
    result = apply_operator(expr, state)
    if args.format == "json":
        print(json.dumps(vector_to_json(result), indent=2))
    else:
        print(serialize_vector(result, unicode=args.unicode))
    return 0


def _run_expand(args: argparse.Namespace) -> int:
    expr = parse_expr(args.expr)
    nf = poly_normal_form(expr, depth=args.depth)
    if args.format == "json":
        print(json.dumps(nf.to_json(), indent=2))
    else:
        print(render_monomials(collapse(nf.terms), unicode=args.unicode))
    return 0


def _print_report_text(report: CheckReport) -> None:
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} suite={report.suite} rep={report.rep} "
        f"n_max={report.params['n_max']} m_max={report.params['m_max']} "
        f"depth={report.params['depth']} cases={report.cases} "
        f"failures={len(report.failures)}"
    )
    for key, value in report.measured.items():
        print(f"  measured {key}: {json.dumps(value)}")
    for failure in report.failures[:_FAILURE_PRINT_CAP]:
        print(f"  failed: {failure['identity']}")
        print(f"    input: {failure['input']}")
        print(f"    left:  {failure['left']}")
        print(f"    right: {failure['right']}")
    hidden = len(report.failures) - _FAILURE_PRINT_CAP
    if hidden > 0:
        print(f"  ... and {hidden} more failures")


def _run_check(args: argparse.Namespace) -> int:
    rep = parse_rep(args.rep)
    if args.suite == "all":
        reports = check_all(rep, args.n_max, args.m_max, args.depth)
    else:
        reports = [run_suite(args.suite, rep, args.n_max, args.m_max, args.depth)]
    if args.format == "json":
        payload = [r.to_json() for r in reports] if args.suite == "all" else reports[0].to_json()
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            _print_report_text(report)
    return 0 if all(r.passed for r in reports) else 1


def _run_list_basis(args: argparse.Namespace) -> int:
    rep = parse_rep(args.rep)
    labels = enumerate_basis(rep, args.depth)
    if args.format == "json":
        print(json.dumps([ket_text(rep, lab) for lab in labels], indent=2))
    else:
        for lab in labels:
            print(serialize_label(rep, lab, unicode=args.unicode))
    return 0


_DISPATCH = {
    "apply": _run_apply,
    "expand": _run_expand,
    "check": _run_check,
    "list-basis": _run_list_basis,
}


def main(argv: Optional[list[str]] = None) -> int:
    kernel_cache_clear()  # each invocation starts cold, like a fresh process
    parser = _build_parser()
    args = _parse_argv(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse drops a lone "--" value, leaving []
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    if getattr(args, "unicode", False) and args.format == "json":  # JSON has no glyphs to switch
        parser.error("argument --unicode: not allowed with --format json")
    try:
        return _DISPATCH[args.subcommand](args)
    except ValueError as exc:  # ParseError, RepValidationError, PolynomialError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
