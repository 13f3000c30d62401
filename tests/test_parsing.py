"""Text round trips for operator expressions, states, and labels."""

import contextlib
import io
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntzrep.basis import BasisLabel, RepSpec, enumerate_basis
from cuntzrep.cli import main
from cuntzrep.operators import (
    adjoint,
    boson,
    cluster,
    fermion,
    gen,
    ident,
    iso,
    lincomb,
    partial_shift,
    prod,
    psi,
    range_proj,
    rho,
    scaled,
    shift_series,
    zeta,
)
from cuntzrep.parsing import (
    ParseError,
    ket_text,
    parse_expr,
    parse_label,
    parse_rep,
    parse_state,
    serialize_label,
    serialize_vector,
    vector_from_json,
    vector_to_json,
)
from cuntzrep.scalars import ONE, RadicalScalar, sqrt_int
from cuntzrep.states import StateVector

FOCK = parse_rep("1")
WEDGE = parse_rep("12")
BOTH = parse_rep("1+12")


@pytest.mark.parametrize(
    "source, expected",
    [
        ("t1", gen(1)),
        ("t1*", adjoint(gen(1))),
        ("b(1)*", adjoint(boson(1))),
        ("a(3)", fermion(3)),
        ("s(2)", iso(2)),
        ("W(0)", range_proj(0)),
        ("X(2)", partial_shift(2)),
        ("F(4)", cluster(4)),
        ("Y", shift_series()),
        ("I", ident()),
        ("t1 t2", prod(gen(1), gen(2))),
        ("t1*t2", prod(adjoint(gen(1)), gen(2))),
        ("t1 . t2", prod(gen(1), gen(2))),
        ("psi(1/2)", psi(1)),
        ("psi(-3/2)", psi(-3)),
        ("rho(t2*)", rho(adjoint(gen(2)))),
        ("zeta(a(1))", zeta(fermion(1))),
    ],
)
def test_expression_parsing(source, expected):
    assert parse_expr(source) == expected


def test_linear_combinations_and_scalars():
    e = parse_expr("2 t1 + t2")
    assert e == lincomb(
        (RadicalScalar.from_rational(2), gen(1)),
        (ONE, gen(2)),
    )
    assert parse_expr("sqrt(2)*t1") == scaled(sqrt_int(2), gen(1))
    assert parse_expr("-t1") == scaled(RadicalScalar.from_rational(-1), gen(1))
    assert parse_expr("2 t1 sqrt(2)*t2 3") == scaled(sqrt_int(72), prod(gen(1), gen(2)))
    assert parse_expr("t1 - t2") == lincomb(
        (ONE, gen(1)),
        (RadicalScalar.from_rational(-1), gen(2)),
    )


@pytest.mark.parametrize(
    "source, column",
    [
        ("a(0)", 3),
        ("b(", 3),
        ("|1;>", 1),
        ("q", 1),
        ("t1 )", 4),
    ],
)
def test_parse_errors_carry_positions(source, column):
    with pytest.raises(ParseError) as err:
        parse_expr(source)
    assert f"column {column}" in str(err.value)
    assert err.value.position == column - 1


def test_kets_are_rejected_inside_operator_expressions():
    with pytest.raises(ParseError):
        parse_expr("t1 + |2;0>")


def test_state_parsing_forms():
    vac = StateVector.basis(WEDGE, BasisLabel(0, "", 0))
    dual = StateVector.basis(WEDGE, BasisLabel(0, "", 1))
    two = StateVector.basis(WEDGE, BasisLabel(0, "2", 1))
    assert parse_state(WEDGE, "vac") == vac
    assert parse_state(WEDGE, "vac(1)") == dual
    assert parse_state(WEDGE, "sqrt(2)*|2;1>") == two.scale(sqrt_int(2))
    assert parse_state(WEDGE, "1/2 |2;1>") == two.scale(
        RadicalScalar.from_rational(1) / RadicalScalar.from_rational(2)
    )
    assert parse_state(WEDGE, "(1 + sqrt(2))*vac") == vac.scale(ONE + sqrt_int(2))
    assert parse_state(WEDGE, "2 . sqrt(2)*3 (2 sqrt(3) - 1/2 . 3) |2;1>") == two.scale(
        sqrt_int(72) * (sqrt_int(12) - RadicalScalar.from_rational(Fraction(3, 2)))
    )
    assert parse_state(WEDGE, "-vac + |2;1>") == two - vac
    assert parse_state(WEDGE, "0") == StateVector.zero(WEDGE)


def test_state_labels_normalize_on_input():
    # |12;0> walks the node-0 cycle fully around, landing back on vac
    assert parse_label(WEDGE, "|12;0>") == BasisLabel(0, "", 0)
    assert serialize_label(WEDGE, parse_label(WEDGE, "|12;0>")) == "vac"


def test_label_range_errors():
    with pytest.raises(ParseError) as err:
        parse_state(WEDGE, "|1:1;0>")
    assert "component 1 out of range" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_state(WEDGE, "|12;5>")
    assert "node 5 out of range" in str(err.value)


def test_serialize_label_forms():
    assert serialize_label(FOCK, BasisLabel(0, "", 0)) == "vac"
    assert serialize_label(WEDGE, BasisLabel(0, "", 1)) == "vac(1)"
    assert serialize_label(WEDGE, BasisLabel(0, "2", 1)) == "|2;1>"
    # direct sums always carry the component prefix
    assert serialize_label(BOTH, BasisLabel(1, "1", 1)) == "|1:1;1>"
    assert serialize_label(BOTH, BasisLabel(0, "", 0)) == "|0:;0>"
    assert serialize_label(WEDGE, BasisLabel(0, "", 1), unicode=True) == "Ω_1"
    assert serialize_label(FOCK, BasisLabel(0, "", 0), unicode=True) == "Ω"


def test_serialize_vector_forms():
    vac = StateVector.basis(WEDGE, BasisLabel(0, "", 0))
    two = StateVector.basis(WEDGE, BasisLabel(0, "2", 1))
    assert serialize_vector(StateVector.zero(WEDGE)) == "0"
    assert serialize_vector(vac) == "vac"
    assert serialize_vector(two - vac) == "-vac + |2;1>"
    assert serialize_vector(two.scale(sqrt_int(2))) == "sqrt(2)*|2;1>"
    mixed = vac.scale(ONE + sqrt_int(2))
    assert serialize_vector(mixed) == "(1 + sqrt(2))*vac"
    assert serialize_vector(two.scale(sqrt_int(2)), unicode=True) == "√2*|2;1>"


def test_serialize_vector_round_trips():
    basis = enumerate_basis(WEDGE, 2)
    v = StateVector(
        WEDGE,
        [
            (basis[0], ONE + sqrt_int(2)),
            (basis[2], RadicalScalar.from_rational(-1)),
            (basis[4], sqrt_int(3)),
        ],
    )
    text = serialize_vector(v)
    assert parse_state(WEDGE, text) == v


def test_vector_json_round_trip():
    basis = enumerate_basis(BOTH, 2)
    v = StateVector(
        BOTH,
        [(basis[0], sqrt_int(2)), (basis[3], RadicalScalar.from_rational(-2))],
    )
    data = vector_to_json(v)
    assert set(data) == {"terms"}
    for term in data["terms"]:
        assert set(term) == {"label", "coeff"}
    assert vector_from_json(BOTH, data) == v


def test_ket_text_is_always_explicit():
    assert ket_text(WEDGE, BasisLabel(0, "", 1)) == "|;1>"
    assert ket_text(WEDGE, BasisLabel(0, "2", 1)) == "|2;1>"
    assert ket_text(BOTH, BasisLabel(1, "", 0)) == "|1:;0>"


def test_parse_rep_validates():
    from cuntzrep.basis import RepValidationError

    assert parse_rep("112")[0] == "112"
    with pytest.raises(RepValidationError):
        parse_rep("1212")
    with pytest.raises(RepValidationError):
        parse_rep("")


# Text drawn from the grammar's tokens: names, numbers, kets, punctuation,
# whitespace and characters the grammar does not know.
_FUZZ_TOKENS = (
    "sqrt", "zeta", "psi", "rho", "vac", "t1", "t2", "W", "X", "Y", "F", "I", "s", "a", "b",
    "a(1)", "s(2)", "b(1)", "F(2)", "psi(1/2)", "sqrt(2)", "vac(1)",
    "0", "1", "2", "3", "7", "02", "4097",
    "|1;0>", "|0:12;1>", "|;1>", "|1:;0>", "|1;", "|",
    "(", ")", "*", ".", "+", "-", "/", " ", "\t", "q", "é", ";", ">",
)
_FUZZ_TEXT = st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=24).map("".join)
_FUZZ_REP = st.sampled_from([FOCK, WEDGE, parse_rep("112"), BOTH])
_VALID_STATES = ("vac", "|1;0> - 1/2 vac", "(1 + sqrt(2))*|2;0>")
_CALL_BUDGET_S = 5.0


@settings(max_examples=300, deadline=None)
@given(_FUZZ_TEXT, _FUZZ_REP)
def test_parsers_return_or_raise_parse_error_in_range(text, rep):
    for parse in (parse_expr, lambda t: parse_state(rep, t), lambda t: parse_label(rep, t)):
        try:
            parse(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)


@settings(max_examples=150, deadline=None)
@given(_FUZZ_TEXT, st.one_of(_FUZZ_TEXT, st.sampled_from(_VALID_STATES)), _FUZZ_REP)
def test_cli_on_fuzzed_text_keeps_the_exit_code_contract(expr, state, rep):
    for argv in (
        ["apply", f"--rep={rep}", f"--expr={expr}", f"--state={state}"],
        ["expand", f"--expr={expr}"],
    ):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse exits on usage errors
                rc = exc.code
        assert time.perf_counter() - start < _CALL_BUDGET_S
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert (out.getvalue() == "") == (rc == 2)
