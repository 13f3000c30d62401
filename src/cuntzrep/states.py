"""Finite exact linear combinations of reference basis labels."""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import Union

from .basis import BasisLabel, RepSpec, apply_gen, apply_gen_adjoint, label_sort_key
from .scalars import MINUS_ONE, ONE, ZERO, RadicalScalar

__all__ = ["RepMismatchError", "StateVector", "apply_letter", "apply_letter_adjoint"]

ScalarLike = Union[RadicalScalar, int]


class RepMismatchError(ValueError):
    """Raised when vectors over different representations are combined."""


def _as_scalar(c: ScalarLike) -> RadicalScalar:
    return c if isinstance(c, RadicalScalar) else RadicalScalar.from_rational(c)


def _as_term(term: tuple[BasisLabel, ScalarLike]) -> tuple[BasisLabel, RadicalScalar]:
    return term if isinstance(term[1], RadicalScalar) else (term[0], _as_scalar(term[1]))


def merge_terms(
    pairs: Iterable[tuple[Hashable, RadicalScalar]], acc: dict | None = None
) -> dict[Hashable, RadicalScalar]:
    """Add (key, scalar) pairs per key into acc, a new dict by default, and
    drop each key whose total is zero; every exact sparse sum is this one.
    The shared ONE and MINUS_ONE cancel without an addition."""
    if acc is None:
        acc = {}
    for key, c in pairs:
        total = acc.pop(key, None)
        if total is None:
            total = c
        elif total is ONE and c is MINUS_ONE or total is MINUS_ONE and c is ONE:
            continue
        else:
            total = total + c
        if total:
            acc[key] = total
    return acc


class StateVector:
    """Map from basis labels to nonzero scalars; immutable by convention.

    All arithmetic stays within one representation; mixing representations
    raises RepMismatchError.  Term iteration follows the canonical basis
    enumeration order, so serialized output is reproducible byte for byte.
    """

    __slots__ = ("rep", "_terms")

    def __init__(
        self,
        rep: RepSpec,
        terms: Mapping[BasisLabel, ScalarLike] | Iterable[tuple[BasisLabel, ScalarLike]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "_terms", merge_terms(map(_as_term, items)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StateVector is immutable")

    @classmethod
    def _trusted(cls, rep: RepSpec, terms: dict[BasisLabel, RadicalScalar]) -> "StateVector":
        """The vector of a dict that ``merge_terms`` built, taken as it is."""
        out = object.__new__(cls)
        object.__setattr__(out, "rep", rep)
        object.__setattr__(out, "_terms", terms)
        return out

    @classmethod
    def zero(cls, rep: RepSpec) -> "StateVector":
        return cls._trusted(rep, {})

    @classmethod
    def basis(cls, rep: RepSpec, label: BasisLabel) -> "StateVector":
        return cls(rep, ((label, ONE),))

    # -- inspection ----------------------------------------------------

    def terms(self) -> list[tuple[BasisLabel, RadicalScalar]]:
        return sorted(self._terms.items(), key=lambda kv: label_sort_key(kv[0]))

    def coeff(self, label: BasisLabel) -> RadicalScalar:
        return self._terms.get(label, ZERO)

    def labels(self) -> list[BasisLabel]:
        return [label for label, _ in self.terms()]

    def depth(self) -> int:
        """Longest word length present; 0 for the zero vector."""
        return max((len(label.word) for label in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ------------------------------------------------------

    def _require_same_rep(self, other: "StateVector") -> None:
        if self.rep != other.rep:
            raise RepMismatchError(f"cannot combine vectors over {self.rep} and {other.rep}")

    def combine(self, c: ScalarLike, other: "StateVector") -> "StateVector":
        """self + c * other, exactly."""
        self._require_same_rep(other)
        c = _as_scalar(c)
        terms = other._terms
        merged = merge_terms(zip(terms, map(c.__mul__, terms.values())), dict(self._terms))
        return StateVector._trusted(self.rep, merged)

    def __add__(self, other: "StateVector") -> "StateVector":
        return self.combine(ONE, other)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self.combine(MINUS_ONE, other)

    def scale(self, c: ScalarLike) -> "StateVector":
        c = _as_scalar(c)
        return StateVector(self.rep, ((label, c * coeff) for label, coeff in self._terms.items()))

    def __rmul__(self, c: ScalarLike) -> "StateVector":
        return self.scale(c)

    def inner(self, other: "StateVector") -> RadicalScalar:
        """Symmetric bilinear pairing; all scalars are real."""
        self._require_same_rep(other)
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        total = ZERO
        for label, coeff in small._terms.items():
            other_coeff = large._terms.get(label)
            if other_coeff is not None:
                total = total + coeff * other_coeff
        return total

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.rep == other.rep and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.rep, tuple(self.terms())))

    def __repr__(self) -> str:
        body = " + ".join(f"({coeff})|{label.component}:{label.word};{label.node}>" for label, coeff in self.terms())
        return f"StateVector({body or '0'})"


# ---------------------------------------------------------------------------
# Letter steps on vectors, off the kernel: the oracles act only through these
# ---------------------------------------------------------------------------


def apply_letter(v: StateVector, i: int) -> StateVector:
    """t_i v, label by label; t_i is injective on labels, so no two images merge."""
    return StateVector._trusted(v.rep, {apply_gen(v.rep, i, x): c for x, c in v._terms.items()})


def apply_letter_adjoint(v: StateVector, i: int) -> StateVector:
    """t_i* v, label by label; annihilated labels drop out, and t_i* is
    injective on the rest."""
    images = ((apply_gen_adjoint(v.rep, i, x), c) for x, c in v._terms.items())
    return StateVector._trusted(v.rep, {x: c for x, c in images if x is not None})
