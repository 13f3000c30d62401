"""Text grammars: operator expressions, state vectors, labels, rep specs.

Expression atoms: t1 t2 s(n) a(n) psi(p/2) b(n) W(n) X(n) Y F(n) I, scalar
literals p/q and sqrt(m), and the transformers rho(expr) / zeta(expr).
Postfix * is the adjoint and binds tightest; juxtaposition (or '.') is the
product; '+' and '-' combine terms.  A star on a scalar literal is a no-op
(all scalars are real), which makes ``2*t1`` and ``sqrt(2)*|2;0>`` read as
ordinary multiplication.

State vectors are sums of ``coeff*|u;k>`` terms; ``vac`` and ``vac(k)``
alias the cycle vectors of component 0, and ``|c:u;k>`` names component c.
Parsed labels are normalized, so any spelling of a vector is accepted.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .basis import BasisLabel, RepSpec, normalize_label
from .operators import (
    OperatorExpr,
    adj,
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
    shift_series,
    zeta,
)
from .scalars import ONE, RadicalScalar, signed_sum_text, sqrt_int
from .states import StateVector

__all__ = [
    "ParseError",
    "parse_rep",
    "parse_expr",
    "parse_state",
    "parse_label",
    "serialize_label",
    "serialize_vector",
    "ket_text",
    "vector_to_json",
    "vector_from_json",
]


class ParseError(ValueError):
    """Syntax or range error with a 1-based column position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"column {position + 1}: {message}")
        self.position = position


# Square-free splitting is trial division, about 0.07 s at this radicand.
_MAX_RADICAND = 10**12
# int() refuses longer decimal strings (sys.get_int_max_str_digits()).
_MAX_DIGITS = 4300
# Family indices: s(n) builds a word of n letters, about 0.2 s at this bound.
_MAX_INDEX = 4096
_KET_RE = re.compile(r"\|(?:(\d+):)?([12]*);(\d+)>")
_NUM_RE = re.compile(r"\d+")
_NAMES = ("sqrt", "zeta", "psi", "rho", "vac", "t1", "t2", "W", "X", "Y", "F", "I", "s", "a", "b")
_PUNCT = {"(": "LP", ")": "RP", "*": "STAR", ".": "DOT", "+": "PLUS", "-": "MINUS", "/": "SLASH"}


def _check_digits(digits: str, pos: int) -> None:
    if len(digits) > _MAX_DIGITS:
        raise ParseError(f"integer literal has more than {_MAX_DIGITS} digits", pos)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "|":
            m = _KET_RE.match(text, i)
            if not m:
                raise ParseError("malformed label, expected |u;k> or |c:u;k>", i)
            for group in (1, 3):
                _check_digits(m.group(group) or "", m.start(group))
            tokens.append(("KET", m.group(0), i))
            i = m.end()
            continue
        m = _NUM_RE.match(text, i)
        if m:
            _check_digits(m.group(0), i)
            tokens.append(("NUM", m.group(0), i))
            i = m.end()
            continue
        for name in _NAMES:
            if text.startswith(name, i):
                tokens.append(("NAME", name, i))
                i += len(name)
                break
        else:
            kind = _PUNCT.get(ch)
            if kind is None:
                raise ParseError(f"unexpected character {ch!r}", i)
            tokens.append((kind, ch, i))
            i += 1
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def at_end(self) -> bool:
        return self.peek()[0] == "EOF"

    # -- shared scalar pieces -------------------------------------------

    def parse_rational(self) -> Fraction:
        tok = self.expect("NUM", "a number")
        value = Fraction(int(tok[1]))
        if self.peek()[0] == "SLASH":
            self.next()
            den = self.expect("NUM", "a denominator")
            if int(den[1]) == 0:
                raise ParseError("zero denominator", den[2])
            value /= int(den[1])
        return value

    def parse_scalar_atom(self) -> RadicalScalar:
        kind, text, pos = self.peek()
        if kind == "NUM":
            return RadicalScalar.from_rational(self.parse_rational())
        if kind == "NAME" and text == "sqrt":
            self.next()
            self.expect("LP", "'('")
            num = self.expect("NUM", "a positive integer radicand")
            self.expect("RP", "')'")
            try:
                m = int(num[1])
                if m > _MAX_RADICAND:
                    raise ValueError(f"radicand must be at most {_MAX_RADICAND}")
                return sqrt_int(m)
            except ValueError as exc:
                raise ParseError(str(exc), num[2]) from None
        raise ParseError("expected a scalar", pos)

    def skip_stars(self) -> None:
        while self.peek()[0] == "STAR":
            self.next()


# ---------------------------------------------------------------------------
# Operator expressions
# ---------------------------------------------------------------------------

_INDEXED = {"s": iso, "a": fermion, "b": boson, "W": range_proj, "X": partial_shift, "F": cluster}


def _index(num: tuple[str, str, int]) -> int:
    n = int(num[1])
    if n > _MAX_INDEX:
        raise ParseError(f"index must be at most {_MAX_INDEX}", num[2])
    return n


def _parse_indexed(p: _Parser, name: str, pos: int) -> OperatorExpr:
    p.expect("LP", "'('")
    num = p.expect("NUM", "an index")
    p.expect("RP", "')'")
    n = _index(num)
    try:
        return _INDEXED[name](n)
    except ValueError as exc:
        raise ParseError(str(exc), num[2]) from None


def _parse_psi(p: _Parser, pos: int) -> OperatorExpr:
    p.expect("LP", "'('")
    sign = 1
    if p.peek()[0] == "MINUS":
        p.next()
        sign = -1
    num = p.expect("NUM", "a numerator")
    p.expect("SLASH", "'/'")
    den = p.expect("NUM", "the denominator 2")
    p.expect("RP", "')'")
    if den[1] != "2":
        raise ParseError("psi index must be a half-integer p/2", den[2])
    numer = sign * _index(num)
    try:
        return psi(numer)
    except ValueError as exc:
        raise ParseError(str(exc), num[2]) from None


def _parse_primary(p: _Parser) -> tuple[Optional[RadicalScalar], Optional[OperatorExpr]]:
    """One primary: either a scalar literal or an operator atom."""
    kind, text, pos = p.peek()
    if kind == "NUM" or (kind == "NAME" and text == "sqrt"):
        return p.parse_scalar_atom(), None
    if kind == "LP":
        p.next()
        e = _parse_sum(p)
        p.expect("RP", "')'")
        return None, e
    if kind == "KET" or (kind == "NAME" and text == "vac"):
        raise ParseError("state labels are not allowed inside an operator expression", pos)
    if kind != "NAME":
        raise ParseError("expected an operator or scalar", pos)
    p.next()
    if text == "t1":
        return None, gen(1)
    if text == "t2":
        return None, gen(2)
    if text == "Y":
        return None, shift_series()
    if text == "I":
        return None, ident()
    if text in _INDEXED:
        return None, _parse_indexed(p, text, pos)
    if text == "psi":
        return None, _parse_psi(p, pos)
    if text in ("rho", "zeta"):
        p.expect("LP", "'('")
        arg = _parse_sum(p)
        p.expect("RP", "')'")
        return None, rho(arg) if text == "rho" else zeta(arg)
    raise ParseError(f"unexpected name {text!r}", pos)


_FACTOR_START = {"NUM", "LP"}


def _starts_factor(p: _Parser) -> bool:
    kind, text, _ = p.peek()
    if kind in _FACTOR_START:
        return True
    return kind == "NAME" and text != "vac"


def _parse_term(p: _Parser) -> tuple[RadicalScalar, OperatorExpr]:
    coeff: RadicalScalar = ONE
    factors: list[OperatorExpr] = []
    while True:
        scalar, op = _parse_primary(p)
        if scalar is not None:
            p.skip_stars()  # adjoint of a real scalar is itself
            coeff = coeff * scalar
        else:
            starred = op
            while p.peek()[0] == "STAR":
                p.next()
                starred = adj(starred)
            factors.append(starred)
        if p.peek()[0] == "DOT":
            p.next()
            continue
        if not _starts_factor(p):
            break
    return coeff, prod(*factors)


def _parse_sum(p: _Parser) -> OperatorExpr:
    parts: list[tuple[RadicalScalar, OperatorExpr]] = []
    sign = ONE
    if p.peek()[0] == "MINUS":
        p.next()
        sign = -ONE
    while True:
        coeff, term = _parse_term(p)
        parts.append((sign * coeff, term))
        kind = p.peek()[0]
        if kind == "PLUS":
            p.next()
            sign = ONE
        elif kind == "MINUS":
            p.next()
            sign = -ONE
        else:
            break
    if len(parts) == 1 and parts[0][0] == ONE:
        return parts[0][1]
    return lincomb(*parts)


def parse_expr(text: str) -> OperatorExpr:
    p = _Parser(text)
    e = _parse_sum(p)
    if not p.at_end():
        raise ParseError("trailing input", p.peek()[2])
    return e


# ---------------------------------------------------------------------------
# Representations and labels
# ---------------------------------------------------------------------------


def parse_rep(text: str) -> RepSpec:
    return RepSpec.parse(text)


def _label_from_ket(rep: RepSpec, ket: str, pos: int) -> BasisLabel:
    m = _KET_RE.fullmatch(ket)
    assert m is not None
    component = int(m.group(1)) if m.group(1) else 0
    word, node = m.group(2), int(m.group(3))
    if component >= len(rep.components):
        raise ParseError(f"component {component} out of range for {rep}", pos)
    if node >= rep.cycle_len(component):
        raise ParseError(
            f"node {node} out of range for cycle {rep.cycle(component)!r}", pos
        )
    return normalize_label(rep, component, word, node)


def parse_label(rep: RepSpec, text: str) -> BasisLabel:
    """One label in ket or vac form; the result is normalized."""
    p = _Parser(text)
    label = _parse_ket(p, rep)
    if not p.at_end():
        raise ParseError("trailing input", p.peek()[2])
    return label


def _parse_ket(p: _Parser, rep: RepSpec) -> BasisLabel:
    kind, text, pos = p.next()
    if kind == "KET":
        return _label_from_ket(rep, text, pos)
    if kind == "NAME" and text == "vac":
        node = 0
        if p.peek()[0] == "LP":
            p.next()
            num = p.expect("NUM", "a node index")
            p.expect("RP", "')'")
            node = int(num[1])
        if node >= rep.cycle_len(0):
            raise ParseError(f"node {node} out of range for cycle {rep.cycle(0)!r}", pos)
        return BasisLabel(0, "", node)
    raise ParseError("expected a label (|u;k> or vac)", pos)


# ---------------------------------------------------------------------------
# State vectors
# ---------------------------------------------------------------------------


def _parse_scalar_sum(p: _Parser) -> RadicalScalar:
    total: Optional[RadicalScalar] = None
    sign = ONE
    if p.peek()[0] == "MINUS":
        p.next()
        sign = -ONE
    while True:
        term = ONE
        while True:
            term = term * p.parse_scalar_atom()
            p.skip_stars()
            if p.peek()[0] == "DOT":
                p.next()
                continue
            kind, text, _ = p.peek()
            if kind in _FACTOR_START or (kind == "NAME" and text == "sqrt"):
                continue
            break
        total = sign * term if total is None else total + sign * term
        kind = p.peek()[0]
        if kind == "PLUS":
            p.next()
            sign = ONE
        elif kind == "MINUS":
            p.next()
            sign = -ONE
        else:
            break
    assert total is not None
    return total


def _starts_state_scalar(p: _Parser) -> bool:
    kind, text, _ = p.peek()
    return kind in ("NUM", "LP") or (kind == "NAME" and text == "sqrt")


def parse_state(rep: RepSpec, text: str) -> StateVector:
    """Parse a vector literal; "0" alone is the zero vector."""
    if text.strip() == "0":
        return StateVector.zero(rep)
    p = _Parser(text)
    out = StateVector.zero(rep)
    sign = ONE
    if p.peek()[0] == "MINUS":
        p.next()
        sign = -ONE
    while True:
        coeff = ONE
        while _starts_state_scalar(p):
            kind, _, _ = p.peek()
            if kind == "LP":
                p.next()
                coeff = coeff * _parse_scalar_sum(p)
                p.expect("RP", "')'")
                p.skip_stars()
            else:
                coeff = coeff * p.parse_scalar_atom()
                p.skip_stars()
            if p.peek()[0] == "DOT":
                p.next()
        label = _parse_ket(p, rep)
        out = out.combine(sign * coeff, StateVector.basis(rep, label))
        kind, _, pos = p.peek()
        if kind == "PLUS":
            p.next()
            sign = ONE
        elif kind == "MINUS":
            p.next()
            sign = -ONE
        elif kind == "EOF":
            break
        else:
            raise ParseError("expected '+', '-', or end of input", pos)
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_label(rep: RepSpec, label: BasisLabel, unicode: bool = False) -> str:
    if not label.word and len(rep.components) == 1:
        if unicode:
            return "Ω" if label.node == 0 else f"Ω_{label.node}"
        return "vac" if label.node == 0 else f"vac({label.node})"
    return ket_text(rep, label)


def ket_text(rep: RepSpec, label: BasisLabel) -> str:
    """Explicit ket form, never the vac alias; used in JSON payloads."""
    prefix = f"{label.component}:" if len(rep.components) > 1 else ""
    return f"|{prefix}{label.word};{label.node}>"


def serialize_vector(v: StateVector, unicode: bool = False) -> str:
    return signed_sum_text(
        ((c, serialize_label(v.rep, label, unicode)) for label, c in v.terms()), unicode
    )


def vector_to_json(v: StateVector) -> dict[str, object]:
    return {
        "terms": [
            {"label": ket_text(v.rep, label), "coeff": coeff.to_json()}
            for label, coeff in v.terms()
        ]
    }


def vector_from_json(rep: RepSpec, data: dict[str, object]) -> StateVector:
    out = StateVector.zero(rep)
    for item in data["terms"]:  # type: ignore[index]
        label = parse_label(rep, str(item["label"]))
        coeff = RadicalScalar.from_json(item["coeff"])  # type: ignore[arg-type]
        out = out.combine(coeff, StateVector.basis(rep, label))
    return out
