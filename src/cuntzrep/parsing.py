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

Every grammar shares one tokenizer, a single regular expression that
matches a ket, a number, a name or a punctuation mark at each position, and
two routines: ``_signed_terms`` parses ``[-] term (('+' | '-') term)*`` for
operator sums, scalar sums and states alike, and ``_product`` parses the
juxtaposed factors of a term.  Parentheses and ``rho(``/``zeta(`` nest at
most 64 deep (``_MAX_NESTING``); deeper input is a ParseError at the opening,
because parsing, evaluating or hashing a deeper tree would exhaust Python's
recursion limit.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import Callable, Optional, Union

from .basis import BasisLabel, RepSpec, normalize_label
from .operators import (
    Boson,
    Cluster,
    Fermion,
    Gen,
    Iso,
    OperatorExpr,
    Rho,
    ShiftSeries,
    Zeta,
    adj,
    ident,
    lincomb,
    partial_shift,
    prod,
    psi,
    range_proj,
)
from .scalars import _bounded_radicand, ONE, RadicalScalar, signed_sum_text, sqrt_int
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


# int() refuses longer decimal strings (sys.get_int_max_str_digits()).
_MAX_DIGITS = 4300
# Family indices: s(n) builds a word of n letters, about 0.2 s at this bound.
_MAX_INDEX = 4096
# Parentheses and rho(/zeta( openings.  The parser recurses six frames per
# level and exhausts Python's default recursion limit at about 160 levels;
# at this bound apply on rep 112 and expand run well inside it.
_MAX_NESTING = 64
# Operator names, read from the node classes; W(n), X(n), I and psi(p/2) are
# notations.
_ATOMS = {f"{Gen.token}{i}": Gen(i) for i in (1, 2)}
_ATOMS |= {ShiftSeries.token: ShiftSeries(), "I": ident()}
_INDEXED = {cls.token: cls for cls in (Iso, Fermion, Boson, Cluster)}
_INDEXED |= {"W": range_proj, "X": partial_shift}
_TRANSFORMERS = {cls.token: cls for cls in (Rho, Zeta)}
_NAMES = ("sqrt", "vac", "psi", *_ATOMS, *_INDEXED, *_TRANSFORMERS)
# One alternation, tried in order at each position: names longest first, so
# "sqrt" comes before "s"; a group's name is its token kind.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<KET>\|(?:(\d+):)?([12]*);(\d+)>)|(?P<NUM>\d+)"
    rf"|(?P<NAME>{'|'.join(sorted(_NAMES, key=len, reverse=True))})"
    r"|(?P<LP>\()|(?P<RP>\))|(?P<STAR>\*)|(?P<DOT>\.)|(?P<PLUS>\+)|(?P<MINUS>-)|(?P<SLASH>/)"
    r"|(?P<EOF>\Z))"
)
_MINUS_ONE = -ONE

Token = tuple[str, object, int]


def _check_digits(digits: str, pos: int) -> None:
    if len(digits) > _MAX_DIGITS:
        raise ParseError(f"integer literal has more than {_MAX_DIGITS} digits", pos)


def _tokenize(text: str) -> list[Token]:
    """Tokens as (kind, value, position); a ket's value is (component, word, node)."""
    tokens: list[Token] = []
    i = 0
    while True:
        m = _TOKEN_RE.match(text, i)
        if m is None:
            i = len(text) - len(text[i:].lstrip())
            if text[i] == "|":
                raise ParseError("malformed label, expected |u;k> or |c:u;k>", i)
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup or ""
        pos = m.start(kind)
        value: object = m.group(kind)
        if kind == "KET":
            component, word, node = m.group(2, 3, 4)
            _check_digits(component or "", m.start(2))
            _check_digits(node, m.start(4))
            value = (int(component or 0), word, int(node))
        elif kind == "NUM":
            _check_digits(m.group(kind), pos)
        tokens.append((kind, value, pos))
        if kind == "EOF":
            return tokens
        i = m.end()


class _Parser:
    def __init__(self, text: str, rep: Optional[RepSpec] = None) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.rep = rep

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def finish(self, message: str) -> None:
        kind, _, pos = self.peek()
        if kind != "EOF":
            raise ParseError(message, pos)

    def group(self, opening: int, inner: Callable[["_Parser"], object]) -> object:
        """``inner`` then ')', one level deeper than the opening at ``opening``."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting is deeper than {_MAX_NESTING} levels", opening)
        self.depth += 1
        value = inner(self)
        self.depth -= 1
        self.expect("RP", "')'")
        return value

    # -- shared scalar pieces -------------------------------------------

    def parse_rational(self) -> int | Fraction:
        tok = self.expect("NUM", "a number")
        if self.peek()[0] != "SLASH":
            return int(tok[1])
        self.next()
        den = self.expect("NUM", "a denominator")
        if int(den[1]) == 0:
            raise ParseError("zero denominator", den[2])
        return Fraction(int(tok[1]), int(den[1]))

    def parse_scalar(self) -> RadicalScalar:
        """A literal p/q or sqrt(m), then any stars (a real scalar is self-adjoint)."""
        kind, text, pos = self.peek()
        if kind == "NUM":
            value = RadicalScalar.from_rational(self.parse_rational())
        elif text == "sqrt":
            self.next()
            self.expect("LP", "'('")
            num = self.expect("NUM", "a positive integer radicand")
            self.expect("RP", "')'")
            try:
                value = sqrt_int(_bounded_radicand(int(num[1])))
            except ValueError as exc:
                raise ParseError(str(exc), num[2]) from None
        else:
            raise ParseError("expected a scalar", pos)
        self.skip_stars()
        return value

    def skip_stars(self) -> None:
        while self.peek()[0] == "STAR":
            self.next()


# ---------------------------------------------------------------------------
# Sums and products, shared by every grammar
# ---------------------------------------------------------------------------

Factor = Union[RadicalScalar, OperatorExpr, BasisLabel]


def _starts_scalar(p: _Parser) -> bool:
    kind, text, _ = p.peek()
    return kind == "NUM" or kind == "LP" or text == "sqrt"


def _signed_terms(p: _Parser, term: Callable[[_Parser], object]) -> list[tuple[bool, object]]:
    """``[-] term (('+' | '-') term)*`` as (negated, term) pairs."""
    negated = p.peek()[0] == "MINUS"
    if negated:
        p.next()
    out = []
    while True:
        out.append((negated, term(p)))
        kind = p.peek()[0]
        if kind != "PLUS" and kind != "MINUS":
            return out
        p.next()
        negated = kind == "MINUS"


def _product(
    p: _Parser, factor: Callable[[_Parser], Factor], juxtaposed: Callable[[_Parser], bool]
) -> tuple[Optional[RadicalScalar], list[Factor]]:
    """``factor (['.'] factor)*``; a factor without '.' must satisfy ``juxtaposed``.

    Returns the product of the scalar factors (None when there is none; a
    lone scalar is not multiplied) and the other factors in order.  A basis
    label is the last factor of a state term, so it ends the product.
    """
    coeff: Optional[RadicalScalar] = None
    rest: list[Factor] = []
    while True:
        item = factor(p)
        if isinstance(item, RadicalScalar):
            coeff = item if coeff is None else coeff * item
        else:
            rest.append(item)
            if isinstance(item, BasisLabel):
                return coeff, rest
        if p.peek()[0] == "DOT":
            p.next()
        elif not juxtaposed(p):
            return coeff, rest


def _signed(negated: bool, coeff: Optional[RadicalScalar]) -> RadicalScalar:
    if coeff is None:
        return _MINUS_ONE if negated else ONE
    return -coeff if negated else coeff


# ---------------------------------------------------------------------------
# Operator expressions
# ---------------------------------------------------------------------------

def _index(num: Token) -> int:
    n = int(num[1])
    if n > _MAX_INDEX:
        raise ParseError(f"index must be at most {_MAX_INDEX}", num[2])
    return n


def _parse_indexed(p: _Parser, name: str) -> OperatorExpr:
    p.expect("LP", "'('")
    num = p.expect("NUM", "an index")
    p.expect("RP", "')'")
    n = _index(num)
    try:
        return _INDEXED[name](n)
    except ValueError as exc:
        raise ParseError(str(exc), num[2]) from None


def _parse_psi(p: _Parser) -> OperatorExpr:
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


def _parse_primary(p: _Parser) -> Factor:
    """One factor of an operator term: a scalar literal or a starred operator."""
    kind, text, pos = p.peek()
    if kind == "LP":
        p.next()
        e = p.group(pos, _parse_sum)
    elif _starts_scalar(p):
        return p.parse_scalar()
    elif kind == "KET" or text == "vac":
        raise ParseError("state labels are not allowed inside an operator expression", pos)
    elif kind != "NAME":
        raise ParseError("expected an operator or scalar", pos)
    else:
        p.next()
        if text in _ATOMS:
            e = _ATOMS[text]
        elif text in _INDEXED:
            e = _parse_indexed(p, text)
        elif text == "psi":
            e = _parse_psi(p)
        else:
            p.expect("LP", "'('")
            arg = p.group(pos, _parse_sum)
            e = _TRANSFORMERS[text](arg)
    while p.peek()[0] == "STAR":
        p.next()
        e = adj(e)
    return e


def _starts_factor(p: _Parser) -> bool:
    kind, text, _ = p.peek()
    return _starts_scalar(p) or (kind == "NAME" and text != "vac")


def _parse_sum(p: _Parser) -> OperatorExpr:
    parts = [
        (_signed(negated, coeff), prod(*factors))
        for negated, (coeff, factors) in _signed_terms(
            p, lambda p: _product(p, _parse_primary, _starts_factor)
        )
    ]
    if len(parts) == 1 and parts[0][0] == ONE:
        return parts[0][1]
    return lincomb(*parts)


def parse_expr(text: str) -> OperatorExpr:
    p = _Parser(text)
    e = _parse_sum(p)
    p.finish("trailing input")
    return e


# ---------------------------------------------------------------------------
# Representations and labels
# ---------------------------------------------------------------------------


def parse_rep(text: str) -> RepSpec:
    return RepSpec.parse(text)


def parse_label(rep: RepSpec, text: str) -> BasisLabel:
    """One label in ket or vac form; the result is normalized."""
    p = _Parser(text, rep)
    label = _parse_label(p)
    p.finish("trailing input")
    return label


def _parse_label(p: _Parser) -> BasisLabel:
    kind, value, pos = p.next()
    if kind == "KET":
        component, word, node = value
    elif value == "vac":
        component, word, node = 0, "", 0
        if p.peek()[0] == "LP":
            p.next()
            node = int(p.expect("NUM", "a node index")[1])
            p.expect("RP", "')'")
    else:
        raise ParseError("expected a label (|u;k> or vac)", pos)
    try:
        return normalize_label(p.rep, component, word, node)
    except ValueError as exc:  # component or node out of range
        raise ParseError(str(exc), pos) from None


# ---------------------------------------------------------------------------
# State vectors
# ---------------------------------------------------------------------------


def _parse_scalar_sum(p: _Parser) -> RadicalScalar:
    terms = _signed_terms(p, lambda p: _product(p, _Parser.parse_scalar, _starts_scalar)[0])
    return functools.reduce(operator.add, [-c if negated else c for negated, c in terms])


def _parse_state_factor(p: _Parser) -> Factor:
    """A coefficient factor, or the label that ends a state term."""
    if not _starts_scalar(p):
        return _parse_label(p)
    kind, _, pos = p.peek()
    if kind != "LP":
        return p.parse_scalar()
    p.next()
    value = p.group(pos, _parse_scalar_sum)
    p.skip_stars()
    return value


def parse_state(rep: RepSpec, text: str) -> StateVector:
    """Parse a vector literal; "0" alone is the zero vector."""
    if text.strip() == "0":
        return StateVector.zero(rep)
    p = _Parser(text, rep)
    terms = _signed_terms(p, lambda p: _product(p, _parse_state_factor, lambda p: True))
    p.finish("expected '+', '-', or end of input")
    return StateVector(rep, [(label, _signed(negated, coeff)) for negated, (coeff, [label]) in terms])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_label(rep: RepSpec, label: BasisLabel, unicode: bool = False) -> str:
    if not label.word and len(rep) == 1:
        if unicode:
            return "Ω" if label.node == 0 else f"Ω_{label.node}"
        return "vac" if label.node == 0 else f"vac({label.node})"
    return ket_text(rep, label)


def ket_text(rep: RepSpec, label: BasisLabel) -> str:
    """Explicit ket form, never the vac alias; used in JSON payloads."""
    prefix = f"{label.component}:" if len(rep) > 1 else ""
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
    terms = data["terms"]  # type: ignore[index]
    return StateVector(
        rep,
        [
            (parse_label(rep, str(item["label"])), RadicalScalar.from_json(item["coeff"]))
            for item in terms  # type: ignore[union-attr]
        ],
    )
