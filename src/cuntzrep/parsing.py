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

Every grammar shares one tokenizer, one regular expression run once over
the text by ``finditer``.  A well-formed literal is one token whose groups
hold its numbers and their columns: a ket, an indexed name ``a(n)``, a
rational ``p`` or ``p/q``, a root ``sqrt(m)``, whitespace allowed inside.
The parser reads the token kinds by index; it reads the pieces of a
malformed literal (``a(3/2)``, ``sqrt()``, ``2/``) one by one, only to
report the first wrong one.  Every grammar also shares two routines:
``_signed_terms`` parses ``[-] term (('+' | '-') term)*`` for operator
sums, scalar sums and states alike, and ``_product`` parses the juxtaposed
factors of a term.  Parentheses and ``rho(``/``zeta(`` nest at most 64
deep (``_MAX_NESTING``); deeper input is a ParseError at the opening,
because parsing, evaluating or hashing a deeper tree would exhaust Python's
recursion limit.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Callable, Optional, Union

# perfbench/tracer.py patches parsing.normalize_label by name, so it stays
# imported although kets, whose pattern admits only 1 and 2, skip its scan
from .basis import BasisLabel, RepSpec, normalize_label, strip_edge_letters  # noqa: F401
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
from .scalars import MINUS_ONE, ONE, RadicalScalar, _bounded_radicand, signed_sum_text, sqrt_int
from .states import StateVector, merge_terms

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
_NAMES = ("psi", *_ATOMS, *_INDEXED, *_TRANSFORMERS)
# One alternation, tried in order at each position; an upper-case group's
# name is its token kind.  Punctuation, the commonest, goes first.  A
# well-formed literal is one token whose groups hold its numbers: a ket, a
# root sqrt(m), an indexed name with its index, a rational p or p/q.  A
# malformed one falls through to its pieces (SQRT, NAME, RAT, LP, ...) for
# the parser to report.  Names go longest first, so "sqrt" comes before "s";
# BAD is any other character.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<LP>\()|(?P<RP>\))|(?P<STAR>\*)|(?P<DOT>\.)|(?P<PLUS>\+)|(?P<MINUS>-)|(?P<SLASH>/)"
    r"|(?P<KET>\|(?:(?P<component>\d+):)?(?P<word>[12]*);(?P<node>\d+)>)"
    r"|(?P<ROOT>sqrt\s*\(\s*(?P<radicand>\d+)\s*\))"
    rf"|(?P<INDEXED>(?P<family>{'|'.join(_INDEXED)})\s*\(\s*(?P<index>\d+)\s*\))"
    r"|(?P<RAT>(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?)|(?P<SQRT>sqrt)|(?P<VAC>vac)"
    rf"|(?P<NAME>{'|'.join(sorted(_NAMES, key=len, reverse=True))})"
    r"|(?P<EOF>\Z)|(?P<BAD>\S))"
)
# The groups that hold numbers; a token's own come in text order.
_NUMBERS = ("component", "node", "radicand", "index", "num", "den")


def _tokenize(text: str) -> tuple[list[str], list[re.Match[str]]]:
    """The kinds of the tokens and their matches, to the first EOF (a second,
    empty one follows an EOF that takes trailing whitespace).

    A lexical error, the first in the text, is a ParseError: a character
    that starts no token, or a number of more than ``_MAX_DIGITS`` digits
    (none fits in a text as short as that bound).
    """
    tokens = list(_TOKEN_RE.finditer(text))
    kinds = [m.lastgroup for m in tokens]
    if len(text) > _MAX_DIGITS or "BAD" in kinds:
        for kind, m in zip(kinds, tokens):
            if kind == "BAD":
                i = m.start(kind)
                if text[i] == "|":
                    raise ParseError("malformed label, expected |u;k> or |c:u;k>", i)
                raise ParseError(f"unexpected character {text[i]!r}", i)
            for group in _NUMBERS:
                if len(m.group(group) or "") > _MAX_DIGITS:
                    raise ParseError(
                        f"integer literal has more than {_MAX_DIGITS} digits", m.start(group)
                    )
    return kinds, tokens


class _Parser:
    """The token kinds and matches, and a read index ``i`` into them."""

    def __init__(self, text: str, rep: Optional[RepSpec] = None) -> None:
        self.text = text
        self.kinds, self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.rep = rep

    def column(self, i: int) -> int:
        return self.tokens[i].start(self.kinds[i])

    def expect(self, kind: str, what: str) -> None:
        i = self.i
        if self.kinds[i] != kind:
            raise ParseError(f"expected {what}", self.column(i))
        self.i = i + 1

    def finish(self, message: str) -> None:
        if self.kinds[self.i] != "EOF":
            raise ParseError(message, self.column(self.i))

    def group(self, opening: int, inner: Callable[["_Parser"], object]) -> object:
        """``inner`` then ')', one level deeper than the opening at ``opening``."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting is deeper than {_MAX_NESTING} levels", opening)
        self.depth += 1
        value = inner(self)
        self.depth -= 1
        self.expect("RP", "')'")
        return value

    def integer(self, what: str) -> tuple[int, int]:
        """A number without '/', then ')': (value, column).  Only ``vac(k)``
        and a malformed literal (``a(``, ``sqrt()``) read a number this way."""
        i = self.i
        if self.kinds[i] != "RAT":
            raise ParseError(f"expected {what}", self.column(i))
        m = self.tokens[i]
        if m.group("den") is not None:
            raise ParseError("expected ')'", self.text.index("/", m.end("num")))
        self.i = i + 1
        self.expect("RP", "')'")
        return int(m.group("num")), m.start("num")

    def skip_stars(self) -> None:
        kinds = self.kinds
        while kinds[self.i] == "STAR":
            self.i += 1


# ---------------------------------------------------------------------------
# Scalar literals, sums and products, shared by every grammar
# ---------------------------------------------------------------------------

Factor = Union[RadicalScalar, OperatorExpr, BasisLabel]

# Token kinds that start a scalar factor, and an operator factor.
_SCALAR_STARTS = frozenset({"RAT", "ROOT", "SQRT", "LP"})
_FACTOR_STARTS = _SCALAR_STARTS | {"INDEXED", "NAME"}


def _root(radicand: int, column: int) -> RadicalScalar:
    try:
        return sqrt_int(_bounded_radicand(radicand))
    except ValueError as exc:
        raise ParseError(str(exc), column) from None


def _parse_scalar(p: _Parser) -> RadicalScalar:
    """A literal p/q or sqrt(m), then any stars (a real scalar is self-adjoint)."""
    i = p.i
    kind = p.kinds[i]
    m = p.tokens[i]
    p.i = i + 1
    if kind == "RAT":
        num, den = m.group("num", "den")
        if den is None:
            if p.kinds[i + 1] == "SLASH":  # a '/' with no number after it
                raise ParseError("expected a denominator", p.column(i + 2))
            den = 1
        else:
            den = int(den)
            if not den:
                raise ParseError("zero denominator", m.start("den"))
        num = int(num)
        value = RadicalScalar._canonical((den, ((1, num),)) if num else (1, ()))
    elif kind == "ROOT":
        value = _root(int(m.group("radicand")), m.start("radicand"))
    elif kind == "SQRT":  # not of the form sqrt(m)
        p.expect("LP", "'('")
        value = _root(*p.integer("a positive integer radicand"))
    else:
        raise ParseError("expected a scalar", p.column(i))
    p.skip_stars()
    return value


def _signed_terms(
    p: _Parser, factor: Callable[[_Parser], Factor], juxtaposed: frozenset[str]
) -> list[tuple[bool, Optional[RadicalScalar], list[Factor]]]:
    """``[-] product (('+' | '-') product)*`` as (negated, *product) triples."""
    kinds = p.kinds
    negated = kinds[p.i] == "MINUS"
    p.i += negated
    out = []
    while True:
        out.append((negated, *_product(p, factor, juxtaposed)))
        kind = kinds[p.i]
        if kind != "PLUS" and kind != "MINUS":
            return out
        p.i += 1
        negated = kind == "MINUS"


def _product(
    p: _Parser, factor: Callable[[_Parser], Factor], juxtaposed: frozenset[str]
) -> tuple[Optional[RadicalScalar], list[Factor]]:
    """``factor (['.'] factor)*``; a factor without '.' must start with a
    token of a kind in ``juxtaposed``.

    Returns the product of the scalar factors (None when there is none; a
    lone scalar is not multiplied) and the other factors in order.  A basis
    label is the last factor of a state term, so it ends the product.
    """
    kinds = p.kinds
    coeff: Optional[RadicalScalar] = None
    rest: list[Factor] = []
    while True:
        item = factor(p)
        if type(item) is RadicalScalar:
            coeff = item if coeff is None else coeff * item
        else:
            rest.append(item)
            if type(item) is BasisLabel:
                return coeff, rest
        kind = kinds[p.i]
        if kind == "DOT":
            p.i += 1
        elif kind not in juxtaposed:
            return coeff, rest


def _signed(negated: bool, coeff: Optional[RadicalScalar]) -> RadicalScalar:
    """The term's coefficient; a unit one is the shared ONE or MINUS_ONE."""
    if coeff is None or coeff == ONE:
        return MINUS_ONE if negated else ONE
    return -coeff if negated else coeff


# ---------------------------------------------------------------------------
# Operator expressions
# ---------------------------------------------------------------------------


def _index(n: int, column: int) -> int:
    if n > _MAX_INDEX:
        raise ParseError(f"index must be at most {_MAX_INDEX}", column)
    return n


def _indexed(name: str, n: int, column: int) -> OperatorExpr:
    n = _index(n, column)
    try:
        return _INDEXED[name](n)
    except ValueError as exc:
        raise ParseError(str(exc), column) from None


def _parse_psi(p: _Parser) -> OperatorExpr:
    """``psi(p/2)``: '(' ['-'] a rational with denominator 2 ')'."""
    p.expect("LP", "'('")
    sign = 1
    if p.kinds[p.i] == "MINUS":
        p.i += 1
        sign = -1
    i = p.i
    if p.kinds[i] != "RAT":
        raise ParseError("expected a numerator", p.column(i))
    m = p.tokens[i]
    p.i = i + 1
    if m.group("den") is None:
        p.expect("SLASH", "'/'")
        raise ParseError("expected the denominator 2", p.column(i + 2))
    p.expect("RP", "')'")
    if m.group("den") != "2":
        raise ParseError("psi index must be a half-integer p/2", m.start("den"))
    column = m.start("num")
    numer = sign * _index(int(m.group("num")), column)
    try:
        return psi(numer)
    except ValueError as exc:
        raise ParseError(str(exc), column) from None


def _parse_primary(p: _Parser) -> Factor:
    """One factor of an operator term: a scalar literal or a starred operator."""
    i = p.i
    kind = p.kinds[i]
    if kind == "INDEXED":
        p.i = i + 1
        m = p.tokens[i]
        e = _indexed(m.group("family"), int(m.group("index")), m.start("index"))
    elif kind == "NAME":
        p.i = i + 1
        name = p.tokens[i].group(kind)
        if name in _ATOMS:
            e = _ATOMS[name]
        elif name in _INDEXED:  # not of the form name(n)
            p.expect("LP", "'('")
            e = _indexed(name, *p.integer("an index"))
        elif name == "psi":
            e = _parse_psi(p)
        else:
            p.expect("LP", "'('")
            e = _TRANSFORMERS[name](p.group(p.column(i), _parse_sum))
    elif kind == "LP":
        p.i = i + 1
        e = p.group(p.column(i), _parse_sum)
    elif kind in _SCALAR_STARTS:
        return _parse_scalar(p)
    elif kind == "KET" or kind == "VAC":
        raise ParseError("state labels are not allowed inside an operator expression", p.column(i))
    else:
        raise ParseError("expected an operator or scalar", p.column(i))
    kinds = p.kinds
    while kinds[p.i] == "STAR":
        p.i += 1
        e = adj(e)
    return e


def _parse_sum(p: _Parser) -> OperatorExpr:
    parts = [
        (_signed(negated, coeff), prod(*factors))
        for negated, coeff, factors in _signed_terms(p, _parse_primary, _FACTOR_STARTS)
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
    i = p.i
    kind = p.kinds[i]
    p.i = i + 1
    if kind == "KET":
        component, word, node = p.tokens[i].group("component", "word", "node")
        component, node = int(component or 0), int(node)
    elif kind == "VAC":
        component, word, node = 0, "", 0
        if p.kinds[i + 1] == "LP":
            p.i = i + 2
            node = p.integer("a node index")[0]
    else:
        raise ParseError("expected a label (|u;k> or vac)", p.column(i))
    try:
        return strip_edge_letters(p.rep, component, word, node)
    except ValueError as exc:  # component or node out of range
        raise ParseError(str(exc), p.column(i)) from None


# ---------------------------------------------------------------------------
# State vectors
# ---------------------------------------------------------------------------

_ANY_KIND = frozenset(kind for kind in _TOKEN_RE.groupindex if kind.isupper())


def _parse_scalar_sum(p: _Parser) -> RadicalScalar:
    terms = _signed_terms(p, _parse_scalar, _SCALAR_STARTS)
    return functools.reduce(operator.add, [-c if negated else c for negated, c, _ in terms])


def _parse_state_factor(p: _Parser) -> Factor:
    """A coefficient factor, or the label that ends a state term."""
    i = p.i
    kind = p.kinds[i]
    if kind not in _SCALAR_STARTS:
        return _parse_label(p)
    if kind != "LP":
        return _parse_scalar(p)
    p.i = i + 1
    value = p.group(p.column(i), _parse_scalar_sum)
    p.skip_stars()
    return value


def parse_state(rep: RepSpec, text: str) -> StateVector:
    """Parse a vector literal; "0" alone is the zero vector."""
    if text.strip() == "0":
        return StateVector.zero(rep)
    p = _Parser(text, rep)
    terms = _signed_terms(p, _parse_state_factor, _ANY_KIND)
    p.finish("expected '+', '-', or end of input")
    pairs = [(label, _signed(negated, coeff)) for negated, coeff, (label,) in terms]
    return StateVector._trusted(rep, merge_terms(pairs))


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
