"""Command line front end.

Subcommands: apply (evaluate an operator expression on a state), expand
(polynomial normal form), check (run a verification suite), list-basis
(enumerate basis labels).  Exit codes: 0 success, 1 check failure, 2 usage
or parse error, 141 stdout closed by its reader.  All output is
deterministic; JSON is emitted with a stable key order and no timestamps.

The command-line grammar is one table, _GRAMMAR.  A well-formed command
line is read straight from it; argparse, built from the same table, reads
every other line, so help, usage and error text are argparse's own.
argparse is imported and built only for help and usage errors, and json
only for JSON output and measured values: neither is loaded by a
well-formed command line with text output.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    import argparse

from .basis import enumerate_basis
from .operators import apply as apply_operator
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


_FORMATS = ("text", "json")


class _Option(NamedTuple):
    """One flag of a subcommand, as argparse and the reader both take it."""

    flag: str
    kind: str = "text"  # "text", "int", "format" (one of _FORMATS) or "switch" (store_true)
    default: object = None
    required: bool = False
    help: Optional[str] = None


_REP = _Option("--rep", required=True, help="cycle word, e.g. 1, 12, or 1+12")
_FORMAT = _Option("--format", "format", "text")
_UNICODE = _Option("--unicode", "switch", False, help="render vacuum and radical glyphs")

# The command-line grammar: each subcommand's help and its options, in the
# order argparse lists them.  Each flag is only where it is read, so
# argparse refuses it elsewhere.
_GRAMMAR: dict[str, tuple[str, tuple[_Option, ...]]] = {
    "apply": ("apply an operator expression to a state", (
        _REP, _FORMAT, _UNICODE,
        _Option("--expr", required=True, help="operator expression"),
        _Option("--state", required=True, help="state vector, e.g. vac or |2;0>"),
    )),
    "expand": ("polynomial normal form of an expression", (
        _FORMAT, _UNICODE,
        _Option("--expr", required=True, help="polynomial operator expression"),
        _Option("--depth", "int", help="refinement depth"),
    )),
    "check": ("run a verification suite", (
        _REP, _FORMAT,
        _Option("--suite", required=True, help=f"one of {', '.join(SUITE_NAMES)}, or all"),
        _Option("--n-max", "int", DEFAULT_N_MAX),
        _Option("--m-max", "int", DEFAULT_M_MAX),
        _Option("--depth", "int", DEFAULT_DEPTH),
    )),
    "list-basis": ("enumerate basis labels up to a depth", (
        _REP, _FORMAT, _UNICODE, _Option("--depth", "int", DEFAULT_DEPTH),
    )),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# the reader's view of the grammar, by subcommand: each flag's Namespace key
# and kind, the keys argparse fills (in its order, with their defaults), and
# the required keys
_READER = {
    name: (
        {o.flag: (_dest(o.flag), o.kind) for o in options},
        {"subcommand": name, **{_dest(o.flag): o.default for o in options}},
        [_dest(o.flag) for o in options if o.required],
    )
    for name, (_, options) in _GRAMMAR.items()
}


@functools.cache
def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    # Built only for help and usage errors, and then reused: parse_args keeps
    # no state between calls, and the first build in a fresh interpreter
    # takes about 3.5 ms, longer than a short query.
    import argparse

    parser = argparse.ArgumentParser(
        prog="cuntzrep",
        description="Exact engine for recursive boson and fermion systems "
        "on permutative representations of the two-generator Cuntz algebra.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help, options) in _GRAMMAR.items():
        p = sub.add_parser(name, help=help)
        for o in options:
            if o.kind == "switch":
                p.add_argument(o.flag, action="store_true", default=o.default, help=o.help)
            else:
                p.add_argument(
                    o.flag,
                    type=int if o.kind == "int" else None,
                    choices=_FORMATS if o.kind == "format" else None,
                    default=o.default,
                    required=o.required,
                    help=o.help,
                )
    return parser, sub.choices


def _build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


class _Args:
    """A command line read from the grammar: one attribute per option, as in
    the Namespace argparse returns, and equal to any namespace with the
    same attributes."""

    def __init__(self, values: dict[str, object]) -> None:
        vars(self).update(values)  # one C call, where setattr per key is a Python loop

    def __eq__(self, other: object) -> bool:
        if not hasattr(other, "__dict__"):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"_Args({vars(self)!r})"


def _read_argv(argv: list[str]) -> Optional[_Args]:
    """An _Args equal to the Namespace argparse returns for a well-formed
    command line, or None for any line argparse might read otherwise.

    Well-formed: a subcommand's name, then its exact flags, each as
    ``--flag=value`` (value not ``--``), as ``--flag value`` (value not
    starting with ``-``) or as a bare switch; int values convert with
    int(), ``--format`` is one of _FORMATS, the last of a repeated flag
    wins, and every required flag is there.
    """
    view = _READER.get(argv[0]) if argv else None
    if view is None:
        return None
    flags, defaults, required = view
    values = dict(defaults)
    i, end = 1, len(argv)
    while i < end:
        flag, eq, value = argv[i].partition("=")
        entry = flags.get(flag)
        if entry is None:
            return None
        dest, kind = entry
        i += 1
        if kind == "switch":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            if i == end or argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
        elif value == "--":
            return None
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind == "format" and value not in _FORMATS:
            return None
        values[dest] = value
    for dest in required:
        if values[dest] is None:
            return None
    return _Args(values)


def _parse_argv(argv: Optional[list[str]]) -> _Args | argparse.Namespace:
    """Parse a command line once.  A well-formed line is read straight from
    the grammar, without building argparse.  Any other line that starts
    with a subcommand's name goes straight to that subcommand's parser,
    which is all the top-level parser would do with it after a pass of its
    own; leftovers are reported by the top-level parser, as its parse_args
    reports them.  The rest (none, --help, an unknown subcommand, an option
    first) goes through the top-level parser."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is not None:
        return args
    import argparse

    parser, subparsers = _build_parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _json_text(value: object, indent: Optional[int] = None) -> str:
    """json.dumps, with json imported on first use: a run that prints no JSON never loads it."""
    import json

    return json.dumps(value, indent=indent)


def _run_apply(args: _Args) -> int:
    rep = parse_rep(args.rep)
    expr = parse_expr(args.expr)
    state = parse_state(rep, args.state)
    result = apply_operator(expr, state)
    if args.format == "json":
        print(_json_text(vector_to_json(result), indent=2))
    else:
        print(serialize_vector(result, unicode=args.unicode))
    return 0


def _run_expand(args: _Args) -> int:
    expr = parse_expr(args.expr)
    nf = poly_normal_form(expr, depth=args.depth)
    if args.format == "json":
        print(_json_text(nf.to_json(), indent=2))
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
        print(f"  measured {key}: {_json_text(value)}")
    for failure in report.failures[:_FAILURE_PRINT_CAP]:
        print(f"  failed: {failure['identity']}")
        print(f"    input: {failure['input']}")
        print(f"    left:  {failure['left']}")
        print(f"    right: {failure['right']}")
    hidden = len(report.failures) - _FAILURE_PRINT_CAP
    if hidden > 0:
        print(f"  ... and {hidden} more failures")


def _run_check(args: _Args) -> int:
    rep = parse_rep(args.rep)
    if args.suite == "all":
        reports = check_all(rep, args.n_max, args.m_max, args.depth)
    else:
        reports = [run_suite(args.suite, rep, args.n_max, args.m_max, args.depth)]
    if args.format == "json":
        payload = [r.to_json() for r in reports] if args.suite == "all" else reports[0].to_json()
        print(_json_text(payload, indent=2))
    else:
        for report in reports:
            _print_report_text(report)
    return 0 if all(r.passed for r in reports) else 1


def _run_list_basis(args: _Args) -> int:
    rep = parse_rep(args.rep)
    labels = enumerate_basis(rep, args.depth)
    if args.format == "json":
        print(_json_text([ket_text(rep, lab) for lab in labels], indent=2))
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
    args = _parse_argv(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse drops a lone "--" value, leaving []
            _build_parser().error(f"argument --{name.replace('_', '-')}: expected one argument")
    if getattr(args, "unicode", False) and args.format == "json":  # JSON has no glyphs to switch
        _build_parser().error("argument --unicode: not allowed with --format json")
    try:
        rc = _DISPATCH[args.subcommand](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the process reading stdout has gone (``| head``): exit as SIGPIPE
        # would, with no traceback, and send what is left in the buffer to
        # devnull so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:  # ParseError, RepValidationError, PolynomialError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
