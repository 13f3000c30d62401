"""Command line behavior, exit codes, and output stability."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cuntzrep
from cuntzrep.basis import RepSpec
from cuntzrep.cli import _build_parser, _parse_argv, main
from cuntzrep.parsing import parse_state, vector_from_json
from cuntzrep.suites import SUITE_NAMES


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _readme_examples():
    """(argv, output) for each ``cuntzrep`` line of the README's "Command
    line" block that a ``# output`` comment follows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    return [
        (shlex.split(line)[1:], comment[2:] + "\n")
        for line, comment in zip(lines, lines[1:])
        if line.startswith("cuntzrep ") and comment.startswith("# ")
    ]


def test_readme_lists_command_examples():
    assert len(_readme_examples()) >= 5


# the README's examples, and three more; a zero coefficient leaves no term
_DOCUMENTED = _readme_examples() + [
    (["apply", "--rep", "1", "--expr", "I", "--state", "vac"], "vac\n"),
    (["expand", "--expr", "t1* t1"], "I\n"),
    (["expand", "--expr", "0 I"], "0\n"),
]


@pytest.mark.parametrize("argv, expected", _DOCUMENTED, ids=[" ".join(a) for a, _ in _DOCUMENTED])
def test_documented_examples(capsys, argv, expected):
    rc, out, err = run(capsys, argv)
    assert rc == 0
    assert out == expected
    assert err == ""


def test_apply_json_round_trips(capsys):
    rc, out, err = run(
        capsys,
        ["apply", "--rep", "12", "--expr", "b(1)*", "--state", "vac", "--format", "json"],
    )
    assert rc == 0
    v = vector_from_json(RepSpec.parse("12"), json.loads(out))
    assert v == parse_state(RepSpec.parse("12"), "vac(1)")


def test_apply_unicode_output(capsys):
    rc, out, _ = run(
        capsys,
        ["apply", "--rep", "12", "--expr", "b(1)*", "--state", "vac", "--unicode"],
    )
    assert rc == 0
    assert out == "Ω_1\n"


def test_expand_unicode_output(capsys):
    rc, out, _ = run(capsys, ["expand", "--expr", "sqrt(2)*a(1)", "--unicode"])
    assert rc == 0
    assert out == "√2*t1t2*\n"


def test_parse_error_exits_two(capsys):
    rc, out, err = run(capsys, ["apply", "--rep", "1", "--expr", "q", "--state", "vac"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: column 1:")


def test_unknown_suite_exits_two(capsys):
    rc, _, err = run(capsys, ["check", "--rep", "1", "--suite", "nope"])
    assert rc == 2
    assert "unknown suite 'nope'" in err


def test_bad_rep_exits_two(capsys):
    rc, _, err = run(capsys, ["apply", "--rep", "1212", "--expr", "I", "--state", "vac"])
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("suite", [*SUITE_NAMES, "all"])
@pytest.mark.parametrize("flag", ["--n-max", "--m-max", "--depth"])
def test_negative_bound_exits_two(capsys, flag, suite):
    rc, out, err = run(capsys, ["check", "--rep", "1", "--suite", suite, flag, "-1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "must be >= 0" in err


@pytest.mark.parametrize("suite", [*SUITE_NAMES, "all"])
@pytest.mark.parametrize("flag", ["--n-max", "--m-max"])
def test_index_bound_above_the_parser_bound_exits_two(capsys, flag, suite):
    rc, out, err = run(capsys, ["check", "--rep", "1", "--suite", suite, flag, "4097"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "must be at most 4096" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--suite", "main", "--n-max", "0"], "suite main has no case at n_max=0, m_max=4, depth=5"),
        (["--suite", "car", "--n-max", "0"], "suite car has no case at n_max=0, m_max=4, depth=5"),
        (["--suite", "car", "--m-max", "0"], "suite car has no case at n_max=4, m_max=0, depth=5"),
        (["--suite", "all", "--n-max", "0"], "suite car has no case at n_max=0, m_max=4, depth=5"),
    ],
)
def test_run_with_no_case_exits_two(capsys, argv, named):
    # a run that samples nothing must not print PASS
    rc, out, err = run(capsys, ["check", "--rep", "1", *argv])
    assert (rc, out, err) == (2, "", f"error: {named}\n")


def test_wfamily_with_no_family_index_still_has_cases(capsys):
    rc, out, _ = run(capsys, ["check", "--rep", "1", "--suite", "wfamily", "--n-max", "0"])
    assert rc == 0
    assert out.startswith("PASS suite=wfamily rep=1 n_max=0 ") and " cases=0 " not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--rep", "1", "--expr=--", "--state", "vac"],
        ["apply", "--rep", "1", "--expr", "t1", "--state=--"],
        ["apply", "--rep", "1", "--expr", "t1", "--state", "vac", "--format=--"],
        ["expand", "--expr", "t1", "--depth=--"],
    ],
)
def test_lone_double_dash_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    option = next(a for a in argv if a.endswith("=--"))[:-3]
    assert captured.err.endswith(f"error: argument {option}: expected one argument\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["expand", "--rep", "nonsense", "--expr", "a(1)"], "--rep nonsense"),
        (["check", "--rep", "1", "--suite", "main", "--unicode"], "--unicode"),
    ],
)
def test_option_the_subcommand_does_not_read_is_a_usage_error(capsys, monkeypatch, argv, option):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    # the top-level usage, not the subcommand's, as argparse reports leftovers
    assert captured.err == (
        "usage: cuntzrep [-h] {apply,expand,check,list-basis} ...\n"
        f"cuntzrep: error: unrecognized arguments: {option}\n"
    )


_APPLY = ["apply", "--rep", "1", "--expr", "t1", "--state", "vac"]

# well-formed command lines are read without argparse; the rest show that
# every other command line still reads as argparse reads it, whether it
# goes to a subcommand's parser or to the top-level one
_ARGV_BATTERY = [
    ["apply", "--rep", "12", "--expr", "b(1)*", "--state", "vac", "--format", "json"],
    ["apply", "--rep=12", "--expr=b(1)*", "--state=vac", "--format=text", "--unicode"],
    ["expand", "--expr", "a(2)", "--depth", "3", "--format", "json"],
    ["expand", "--expr=a(2)", "--depth=3", "--unicode"],
    ["check", "--rep", "1", "--suite", "main", "--n-max", "2", "--m-max", "3", "--depth", "2"],
    ["check", "--rep=1", "--suite=all", "--n-max=2", "--m-max=3", "--depth=2", "--format=json"],
    ["list-basis", "--rep", "1+12", "--depth", "2", "--format", "json"],
    ["list-basis", "--rep=1+12", "--depth=2", "--unicode"],
    ["apply", "--re", "1", "--ex", "t1", "--st", "vac", "--f", "json"],
    ["check", "--re=1", "--su", "main", "--n", "2"],
    ["--help"],
    ["-h"],
    ["apply", "--help"],
    ["check", "-h"],
    ["list-basis", "--rep", "1", "--he"],
    [],
    ["nope"],
    ["nope", "--rep", "1"],
    ["-h", "apply"],
    ["--rep", "1", "apply", "--expr", "t1", "--state", "vac"],
    [*_APPLY, "--nope"],
    [*_APPLY, "extra"],
    ["expand", "--rep", "nonsense", "--expr", "a(1)"],
    ["check", "--rep", "1", "--suite", "main", "--unicode"],
    ["apply", "--rep", "1", "--expr", "t1"],
    ["check", "--suite", "main"],
    ["list-basis"],
    [*_APPLY, "--format", "xml"],
    ["expand", "--expr", "a(1)", "--depth", "two"],
    ["check", "--rep", "1", "--suite", "main", "--n-max=1.5"],
    ["expand", "--expr", "t1", "--depth=--"],
    ["apply", "--rep", "1", "--expr=--", "--state", "vac"],
    ["apply", "--rep", "1", "--expr", "--", "--state", "vac"],
    [*_APPLY, "--"],
    [*_APPLY, "--", "extra"],
    ["apply", "--rep", "1", "--expr", "t1", "--", "--state", "vac"],
    ["--", "expand", "--expr", "t1"],
    [*_APPLY, "--unicode", "--format", "json"],
    ["expand", "--expr", "t1", "--format=json", "--unicode"],
    # values argparse reads its own way: a leading "-", a space, int()'s spellings
    ["check", "--rep", "1", "--suite", "main", "--n-max", "-1"],
    ["check", "--rep", "1", "--suite", "main", "--n-max=-1"],
    ["apply", "--rep", "1", "--expr", "-h", "--state", "vac"],
    ["apply", "--rep", "1", "--expr", "t1", "--state", "-|1;0> + |2;0>"],
    ["apply", "--rep", "1", "--expr", "t1", "--state", "-vac"],
    ["expand", "--expr", "t1", "--depth", " 3"],
    ["expand", "--expr", "t1", "--depth=+3"],
    ["expand", "--expr", "t1", "--depth", "3_0"],
    ["expand", "--expr", "t1", "--depth", "٣"],
    [*_APPLY, "--format", "JSON"],
    ["apply", "--rep", "", "--expr=", "--state", "vac"],
    ["apply", "--rep=1=2", "--expr", "t1", "--state", "vac"],
    # repeated flags (the last wins), switches, order and leftover words
    ["apply", "--rep", "1", "--expr", "t1", "--expr=t2", "--state", "vac", "--rep", "12"],
    [*_APPLY, "--unicode", "--unicode"],
    [*_APPLY, "--unicode=1"],
    [*_APPLY, "--unicode="],
    ["list-basis", "--depth", "2", "--rep", "1"],
    ["list-basis", "--rep", "1", "extra", "--depth", "2"],
    ["list-basis", "--rep", "1", "--depth"],
    ["check", "--rep", "1", "--suite"],
]


def _parse_outcome(parse, argv):
    """The attributes of the namespace a parse returns, or its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _ARGV_BATTERY, ids=lambda argv: " ".join(argv) or "(none)")
def test_parse_matches_argparse_on_the_battery(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage text wrap to the terminal width
    expected = _parse_outcome(_build_parser().parse_args, list(argv))
    assert _parse_outcome(_parse_argv, list(argv)) == expected
    monkeypatch.setattr(sys, "argv", ["cuntzrep", *argv])  # the console script's path
    assert _parse_outcome(_parse_argv, None) == expected


_REQUIRED = {
    "apply": ["--rep", "--expr", "--state"],
    "expand": ["--expr"],
    "check": ["--rep", "--suite"],
    "list-basis": ["--rep"],
}
_FLAGS = ["--rep", "--expr", "--state", "--format", "--unicode", "--depth", "--suite", "--n-max", "--m-max"]
_ODD_FLAGS = ["--re", "--st", "--f", "--uni", "--n", "--de", "-h", "--help", "--", "--nope"]
_VALUES = ["1", "12", "vac", "t1", "main", "3", "text", "json"]
_ODD_VALUES = ["-1", "--", "-h", "-|1;0> + |2;0>", " 3", "+3", "3_0", "٣", "JSON", "", "a=b"]


@st.composite
def _command_lines(draw):
    """A subcommand, usually with every required option, then drawn options
    in drawn spellings.  One option in four takes an odd value or spelling:
    a bare flag, or leftover words after it."""
    name = draw(st.sampled_from([*_REQUIRED, "nope", "-h"]))
    flags = _REQUIRED.get(name, []) if draw(st.integers(0, 9)) else []
    flags = flags + draw(st.lists(st.sampled_from(_FLAGS) | st.sampled_from(_ODD_FLAGS), max_size=4))
    words = []
    for flag in draw(st.permutations(flags)):
        odd = draw(st.integers(0, 3)) == 0
        value = draw(st.sampled_from(_ODD_VALUES if odd else _VALUES))
        spellings = ["pair", "equals", "bare", "leftover"] if odd else ["pair", "equals"]
        spelling = draw(st.sampled_from(["bare"] * (flag == "--unicode") + spellings))
        if spelling == "pair":
            words += [flag, value]
        elif spelling == "equals":
            words.append(f"{flag}={value}")
        elif spelling == "bare":
            words.append(flag)
        else:
            words += [flag, value, draw(st.sampled_from(["extra", "--unicode=1", *_ODD_VALUES]))]
    return [name, *words]


@settings(max_examples=600, deadline=None)
@given(_command_lines())
def test_reader_matches_argparse_on_drawn_command_lines(argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        expected = _parse_outcome(_build_parser().parse_args, list(argv))
        assert _parse_outcome(_parse_argv, list(argv)) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--rep=12", "--expr=b(1)*", "--state=vac"],
        ["expand", "--expr", "a(2)", "--depth", "3", "--unicode"],
        ["check", "--rep", "1", "--suite", "cuntz", "--n-max=1", "--m-max", "1", "--depth", "1"],
        ["list-basis", "--rep", "12", "--depth", "1", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_well_formed_command_line_runs_without_building_argparse(capsys, argv):
    _build_parser.cache_clear()
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert _build_parser.cache_info().currsize == 0


def test_closed_stdout_exits_141_without_traceback():
    # 295 KB of labels: the writer meets the closed pipe long before the end
    env = dict(os.environ, PYTHONPATH=str(Path(cuntzrep.__file__).parents[1]))
    cmd = [sys.executable, "-m", "cuntzrep", "list-basis", "--rep", "1", "--depth", "14"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(10) == b"vac\n|2;0>\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--rep", "1", "--expr", "sqrt(2)*t1", "--state", "vac"],
        ["expand", "--expr", "sqrt(2)*a(1)"],
        ["list-basis", "--rep", "1", "--depth", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_unicode_with_json_is_a_usage_error(capsys, argv):
    # JSON output has no glyphs for the flag to switch
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json", "--unicode"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: cuntzrep")
    assert captured.err.endswith("error: argument --unicode: not allowed with --format json\n")


def fresh_cli(argv, timeout=10):
    # a fresh process, so the exit code and stderr are what a shell user sees
    env = dict(os.environ, PYTHONPATH=str(Path(cuntzrep.__file__).parents[1]))
    cmd = [sys.executable, "-m", "cuntzrep", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    argvs = [
        ["expand", "--expr", "a(2)"],
        ["apply", "--rep", "12", "--expr", "b(1)*", "--state", "vac", "--format", "json"],
        ["apply", "--rep", "1", "--expr", "t1"],
        ["list-basis", "--rep", "12", "--depth", "1"],
        ["check", "--rep", "1", "--suite", "cuntz", "--depth", "1", "--n-max", "1"],
        ["expand", "--nope"],
        ["expand", "--help"],
        ["apply", "--rep", "1", "--expr", "q", "--state", "vac"],
        ["expand", "--expr", "a(2)"],
    ]
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse exits on usage errors and --help
            rc = exc.code
        captured = capsys.readouterr()
        done = fresh_cli(argv)
        assert (rc, captured.out, captured.err) == (done.returncode, done.stdout, done.stderr)


# stdlib modules a well-formed command line with text output never uses;
# together they cost several milliseconds of start-up
_COLD_UNUSED = {"argparse", "gettext", "fractions", "decimal", "numbers", "json", "dataclasses"}


def _isolated(code):
    """Run ``code`` in a fresh ``-I`` interpreter, the package's source
    directory in ``sys.argv[1]`` and the modules the bare interpreter
    loaded itself (a site hook's among them) in ``bare``."""
    prelude = "import sys\nbare = set(sys.modules)\nsys.path.insert(0, sys.argv[1])\n"
    src = str(Path(cuntzrep.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-I", "-c", prelude + code, src],
        capture_output=True,
        text=True,
        env=dict(os.environ, COLUMNS="80"),
        timeout=30,
    )


def test_cli_import_leaves_dataclasses_out(capsys, monkeypatch):
    argvs = [
        ["apply", "--rep=12", "--expr=b(1)*", "--state=vac"],
        ["expand", "--expr", "a(1) a(1)* + a(1)* a(1)", "--depth", "2"],
        ["check", "--rep", "12", "--suite", "main"],
    ]
    code = (
        "import cuntzrep.cli\n"
        f"unused = {sorted(_COLD_UNUSED)!r}\n"
        "loaded = lambda: sorted(set(unused) & (set(sys.modules) - bare))\n"
        "print('import', loaded(), file=sys.stderr)\n"
        f"for argv in {argvs!r}:\n"
        "    print(argv[0], cuntzrep.cli.main(argv), loaded(), file=sys.stderr)\n"
    )
    done = _isolated(code)
    assert done.stderr == "import []\napply 0 []\nexpand 0 []\ncheck 0 []\n"
    assert done.stdout == "".join(run(capsys, argv)[1] for argv in argvs)
    # a usage error still goes through argparse, with its own text
    monkeypatch.setenv("COLUMNS", "80")
    expected = _parse_outcome(_build_parser().parse_args, ["nope"])
    code = (
        "import cuntzrep.cli\n"
        "try:\n"
        "    cuntzrep.cli.main(['nope'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in set(sys.modules) - bare)\n"
    )
    done = _isolated(code)
    assert expected[0] == 2
    assert (done.stdout, done.stderr) == ("2 True\n", expected[2])


@pytest.mark.parametrize("expr", ["a(3000)", "F(400)", "b(4096)", "F(4096)*"])
def test_deep_index_exits_zero_without_traceback(expr):
    done = fresh_cli(["apply", "--rep", "1", "--expr", expr, "--state", "vac"])
    assert done.returncode == 0
    assert done.stdout == "0\n"
    assert "Traceback" not in done.stderr


def test_deep_tower_builds_its_long_word_without_traceback():
    # b(4096)* vac is one label of 4096 letters: 4095 blocks 1, then block
    # 4096 gains a 2, all put on in one concatenation
    done = fresh_cli(["apply", "--rep", "1", "--expr", "b(4096)*", "--state", "vac"])
    assert (done.returncode, done.stderr) == (0, "")
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == "aa8ffa153f56586aba658124d3ceed4ff31687d54cfb117151777e60fe24d765"


def test_deep_tower_past_the_word_bound_exits_two():
    # on rep 122 the blocks of vac are 1, 221, 221, ...: block 4096 ends
    # 3 * 4095 + 1 letters in, past the bound of 8192
    done = fresh_cli(["apply", "--rep", "122", "--expr", "b(4096)*", "--state", "vac"])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: a basis word would pass the bound of 8192 letters\n"


_PRIME_ROOT = "sqrt(1000000000000000000000000000057)"  # a prime: trial division runs for hours


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--rep", "1", "--expr", f"{_PRIME_ROOT}*t1", "--state", "vac"],
        ["apply", "--rep", "1", "--expr", "t1", "--state", f"{_PRIME_ROOT}*vac"],
        ["expand", "--expr", f"{_PRIME_ROOT}*t1"],
    ],
)
def test_huge_radicand_exits_two_with_column(argv):
    done = fresh_cli(argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: column 6: radicand must be at most 1000000000000\n"


_LONG = "1" * 4301  # one digit more than int() converts from a string


@pytest.mark.parametrize(
    "argv, column",
    [
        (["apply", "--rep", "1", "--expr", f"{_LONG}*t1", "--state", "vac"], 1),
        (["apply", "--rep", "1", "--expr", f"t1/{_LONG}", "--state", "vac"], 4),
        (["apply", "--rep", "1", "--expr", "t1", "--state", f"2/{_LONG}*vac"], 3),
        (["apply", "--rep", "1", "--expr", "t1", "--state", f"|1;{_LONG}>"], 4),
        (["expand", "--expr", f"a({_LONG})"], 3),
    ],
)
def test_long_integer_literal_exits_two_with_column(capsys, argv, column):
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == f"error: column {column}: integer literal has more than 4300 digits\n"


def test_literal_at_the_digit_limit_parses(capsys):
    digits = "1" * 4300
    argv = ["apply", "--rep", "1", "--expr", f"{digits}*t1", "--state", "vac"]
    assert run(capsys, argv) == (0, f"{digits}*vac\n", "")


@pytest.mark.parametrize("expr", ["s(100000000)", "a(4097)", "psi(4097/2)"])
def test_index_over_the_bound_exits_two_with_column(expr):
    done = fresh_cli(["apply", "--rep", "1", "--expr", expr, "--state", "vac"])
    assert done.returncode == 2
    assert done.stdout == ""
    column = expr.index("(") + 2
    assert done.stderr == f"error: column {column}: index must be at most 4096\n"


def test_largest_iso_index_runs_on_the_vacuum():
    done = fresh_cli(["apply", "--rep", "1", "--expr", "s(4096)", "--state", "vac"])
    assert done.returncode == 0
    assert done.stdout == "|" + "2" * 4095 + ";0>\n"  # t1 fixes the vacuum


@pytest.mark.parametrize("letters, rc", [(8192, 0), (8193, 2)])
def test_word_length_bound(capsys, letters, rc):
    # s(4096) s(4096) vac has 8191 letters, and each t2 adds one; the bound is 8192
    expr = "t2 " * (letters - 8191) + "s(4096) s(4096)"
    got = run(capsys, ["apply", "--rep", "1", "--expr", expr, "--state", "vac"])
    if rc == 0:
        word = "2" * (letters - 4096) + "1" + "2" * 4095
        assert got == (0, f"|{word};0>\n", "")
    else:
        assert got == (2, "", "error: a basis word would pass the bound of 8192 letters\n")


def test_long_product_of_isometries_exits_two_quickly():
    expr = " ".join(["s(4096)"] * 8)
    start = time.perf_counter()
    done = fresh_cli(["apply", "--rep", "1", "--expr", expr, "--state", "vac"])
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: a basis word would pass the bound of 8192 letters\n"
    assert elapsed < 1.0


def test_fock_depth_beyond_the_word_bound_exits_two():
    done = fresh_cli(["check", "--rep", "1", "--suite", "fock", "--depth", "40"])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: depth 40 gives more than 2048 boson words in the fock suite\n"


def test_fock_huge_depth_exits_two_at_once():
    start = time.perf_counter()
    done = fresh_cli(["check", "--rep", "1", "--suite", "fock", "--depth", "1000000000"])
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: depth 1000000000 gives more than 2048 boson words")
    assert elapsed < 5.0


@pytest.mark.parametrize("expr", ["W(12)", "a(14) a(14)*"])
def test_wide_fermion_products_expand_in_bounded_time(expr):
    done = fresh_cli(["expand", "--expr", expr], timeout=20)
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.count("\n") == 1


@pytest.mark.parametrize("n", [16, 100])
def test_range_projection_expands_as_its_isometry_product(capsys, n):
    # W(n) is the one monomial s(n+1) s(n+1)*, past the cap of its fermion form
    want = run(capsys, ["expand", "--expr", f"s({n + 1}) s({n + 1})*"])
    assert want[0] == 0
    assert run(capsys, ["expand", "--expr", f"W({n})"]) == want


def _nested(opening, inner, depth):
    return opening * depth + inner + ")" * depth


_LONG_WORD_STATE = "|2121211212121;1> + 2*|21;1>"


@pytest.mark.parametrize(
    "argv, column",
    [
        (["apply", "--rep", "1", "--expr", _nested("(", "t1", 330), "--state", "vac"], 65),
        (["apply", "--rep", "112", "--expr", _nested("rho(", "t2*", 200), "--state", "|21;1>"], 257),
        (["expand", "--expr", _nested("zeta(", "a(1)", 65)], 321),
    ],
)
def test_nesting_over_the_bound_exits_two_with_column(argv, column):
    done = fresh_cli(argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: column {column}: nesting is deeper than 64 levels\n"


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["apply", "--rep", "112", "--expr", _nested("rho(", "t2*", 64), "--state", _LONG_WORD_STATE], 0),
        (["apply", "--rep", "112", "--expr", _nested("zeta(", "t1 t2*", 64), "--state", _LONG_WORD_STATE], 0),
        (["apply", "--rep", "1", "--expr", _nested("(", "t1", 64), "--state", "vac"], 0),
        (["expand", "--expr", _nested("(", "t1", 64)], 0),
        (["expand", "--expr", _nested("rho(", "t2*", 64)], 2),
        (["expand", "--expr", _nested("zeta(", "t1", 64)], 2),
    ],
)
def test_nesting_at_the_bound_runs_without_traceback(argv, rc):
    done = fresh_cli(argv)
    assert done.returncode == rc
    assert (done.stdout != "") == (rc == 0)
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--expr", _nested("zeta(", "a(1)", 22)],
        ["expand", "--expr", "(t1 + t2)" * 22],
        ["expand", "--expr", "t1", "--depth", "24"],
    ],
)
def test_wide_expansions_exit_two(argv):
    done = fresh_cli(argv, timeout=20)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: the expansion has more than 65536 monomials\n"


def test_radicand_at_the_bound_parses(capsys):
    argv = ["apply", "--rep", "1", "--expr", "sqrt(1000000000000)", "--state", "vac"]
    assert run(capsys, argv) == (0, "1000000*vac\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["list-basis", "--rep", "1", "--depth", "40"],
        ["check", "--rep", "1", "--suite", "cuntz", "--depth", "40"],
    ],
)
def test_basis_beyond_the_label_bound_exits_two(argv):
    done = fresh_cli(argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: depth 40 on 1 gives 1 * 2^40 basis labels")


def test_passing_check_exits_zero(capsys):
    argv = [
        "check",
        "--rep", "1",
        "--suite", "cuntz",
        "--n-max", "2",
        "--m-max", "2",
        "--depth", "2",
    ]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out.startswith("PASS suite=cuntz rep=1 ")
    assert "failures=0" in out


def test_failing_check_exits_one_with_witnesses(capsys):
    argv = [
        "check",
        "--rep", "2",
        "--suite", "rho",
        "--n-max", "2",
        "--m-max", "2",
        "--depth", "2",
    ]
    rc, out, _ = run(capsys, argv)
    assert rc == 1
    assert out.startswith("FAIL suite=rho rep=2 ")
    assert "failed: sum of s(n)s(n)* = I" in out
    assert "input:" in out and "left:" in out and "right:" in out


def test_check_json_format(capsys):
    argv = [
        "check",
        "--rep", "1",
        "--suite", "fock",
        "--format", "json",
        "--n-max", "2",
        "--m-max", "2",
        "--depth", "3",
    ]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    data = json.loads(out)
    assert list(data) == ["suite", "rep", "params", "cases", "passed", "failures", "measured"]
    assert data["passed"] is True
    assert data["measured"]["span_dimension_by_total_degree"]["3"] == 7


def test_check_all_emits_json_array(capsys):
    argv = [
        "check",
        "--rep", "12",
        "--suite", "all",
        "--format", "json",
        "--n-max", "2",
        "--m-max", "2",
        "--depth", "2",
    ]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    data = json.loads(out)
    assert [entry["suite"] for entry in data] == [
        "cuntz", "car", "ccr", "wfamily", "lemma23",
        "rho", "main", "closedforms", "fock", "wedge",
    ]
    assert all(entry["passed"] for entry in data)


def test_check_output_is_deterministic(capsys):
    argv = [
        "check",
        "--rep", "12",
        "--suite", "wedge",
        "--format", "json",
        "--n-max", "2",
        "--m-max", "2",
        "--depth", "2",
    ]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2


def test_list_basis_text(capsys):
    rc, out, _ = run(capsys, ["list-basis", "--rep", "12", "--depth", "1"])
    assert rc == 0
    assert out == "vac\n|1;0>\nvac(1)\n|2;1>\n"


def test_list_basis_json(capsys):
    rc, out, _ = run(capsys, ["list-basis", "--rep", "12", "--depth", "1", "--format", "json"])
    assert rc == 0
    assert json.loads(out) == ["|;0>", "|1;0>", "|;1>", "|2;1>"]


def test_expand_rejects_series_expressions(capsys):
    rc, _, err = run(capsys, ["expand", "--expr", "b(1)"])
    assert rc == 2
    assert "series" in err
