"""Exact arithmetic in the real field generated by square roots of integers.

A value is a finite sum ``sum_d c_d * sqrt(d)`` with rational coefficients
``c_d`` and square-free positive radicands ``d``.  The radicand 1 carries the
rational part.  Square roots of distinct square-free integers are linearly
independent over the rationals, so the term map is a canonical form and
equality is plain map equality; no floating point is involved anywhere.

Coefficients are :class:`fractions.Fraction` values, hence arbitrary
precision.  Radicands stay small in practice (products of sqrt(m) for the
series weights), so square-free splitting by trial division is enough; the
parser bounds a literal ``sqrt(m)`` at m <= 10**12, which splits in about
0.07 s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

__all__ = [
    "RadicalScalar",
    "ZERO",
    "ONE",
    "sqrt_int",
    "square_free_split",
    "scalar_text",
    "signed_sum_text",
]

RationalLike = Union[int, Fraction]


def square_free_split(m: int) -> tuple[int, int]:
    """Factor ``m = s*s*d`` with ``d`` square-free; return ``(s, d)``.

    Trial division.  Raises ValueError for m < 1.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"radicand must be a positive integer, got {m!r}")
    s, d = 1, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            s *= p ** (k // 2)
            if k % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


def _smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1 if p == 2 else 2
    return n


class RadicalScalar:
    """Element of the square-root field, kept in canonical form.

    Immutable.  The term tuple is sorted by radicand and contains no zero
    coefficients and no reducible radicands, so ``==`` and ``hash`` agree
    with field equality.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for d, c in items:
            c = Fraction(c)
            if not c:
                continue
            s, rad = square_free_split(d)
            total = acc.get(rad, Fraction(0)) + c * s
            if total:
                acc[rad] = total
            elif rad in acc:
                del acc[rad]
        object.__setattr__(self, "_terms", tuple(sorted(acc.items())))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RadicalScalar is immutable")

    @classmethod
    def _canonical(cls, acc: Mapping[int, Fraction]) -> "RadicalScalar":
        # internal fast path: radicands already square-free, coeffs nonzero
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", tuple(sorted(acc.items())))
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: RationalLike) -> "RadicalScalar":
        return cls(((1, Fraction(value)),))

    @classmethod
    def sqrt_int(cls, m: int) -> "RadicalScalar":
        """Exact square root of a positive integer: sqrt(m) = s*sqrt(d)."""
        s, d = square_free_split(m)
        return cls(((d, Fraction(s)),))

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

    def is_rational(self) -> bool:
        return all(d == 1 for d, _ in self._terms)

    @property
    def rational_part(self) -> Fraction:
        for d, c in self._terms:
            if d == 1:
                return c
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value: "RadicalScalar | RationalLike") -> "RadicalScalar":
        if isinstance(value, RadicalScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return RadicalScalar.from_rational(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for d, c in other._terms:
            total = acc.get(d)
            total = c if total is None else total + c
            if total:
                acc[d] = total
            else:
                del acc[d]
        return RadicalScalar._canonical(acc)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar._canonical({d: -c for d, c in self._terms})

    def __sub__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        return -(self - other)

    def __mul__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for d1, c1 in self._terms:
            for d2, c2 in other._terms:
                g = math.gcd(d1, d2)
                # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)); both factors are
                # square-free and coprime, so the product is square-free.
                rad = (d1 // g) * (d2 // g)
                c = c1 * c2 * g
                total = acc.get(rad)
                total = c if total is None else total + c
                if total:
                    acc[rad] = total
                elif rad in acc:
                    del acc[rad]
        return RadicalScalar._canonical(acc)

    __rmul__ = __mul__

    def inverse(self) -> "RadicalScalar":
        """Exact multiplicative inverse; raises ZeroDivisionError on zero.

        Rationalizes one prime at a time: split x = A + sqrt(p)*B with p
        absent from A and B, then x*(A - sqrt(p)*B) lies in the subfield
        without p (the conjugation is a field automorphism, so the product
        is nonzero) and recursion terminates.
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return RadicalScalar.from_rational(1 / self.rational_part)
        p = max(_smallest_prime_factor(d) for d, _ in self._terms if d > 1)
        plain = [(d, c) for d, c in self._terms if d % p]
        carried = [(d // p, c) for d, c in self._terms if d % p == 0]
        conj = RadicalScalar(plain) - RadicalScalar.sqrt_int(p) * RadicalScalar(carried)
        norm = self * conj
        return conj * norm.inverse()

    def __truediv__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.from_rational(other)
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    # -- conversion -----------------------------------------------------

    def to_float(self) -> float:
        return sum(float(c) * math.sqrt(d) for d, c in self._terms)

    def __str__(self) -> str:
        return scalar_text(self)

    def __repr__(self) -> str:
        return f"RadicalScalar({self})"

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> list[dict[str, object]]:
        return [
            {"radicand": d, "coeff": f"{c.numerator}/{c.denominator}"}
            for d, c in self._terms
        ]

    @classmethod
    def from_json(cls, data: Iterable[Mapping[str, object]]) -> "RadicalScalar":
        return cls([(int(item["radicand"]), Fraction(str(item["coeff"]))) for item in data])


ZERO = RadicalScalar()
ONE = RadicalScalar.from_rational(1)


@lru_cache(maxsize=256, typed=True)
def sqrt_int(m: int) -> RadicalScalar:
    """:meth:`RadicalScalar.sqrt_int`, memoised: the series weights and the rho
    towers ask for a few small radicands thousands of times, and each split
    builds ``Fraction``s.  ``typed`` keeps ``2.0`` a ValueError after ``2``."""
    return RadicalScalar.sqrt_int(m)


# ---------------------------------------------------------------------------
# Text rendering, shared by scalars, vectors and monomial lists
# ---------------------------------------------------------------------------


def _join_signed(pieces: Iterable[tuple[bool, str]]) -> str:
    """``x1 + x2 - x3`` from (negative, magnitude text) pairs; "0" when empty."""
    out: list[str] = []
    for neg, body in pieces:
        sign = (" - " if neg else " + ") if out else ("-" if neg else "")
        out.append(sign + body)
    return "".join(out) or "0"


def scalar_text(c: RadicalScalar, unicode: bool = False) -> str:
    """Canonical scalar rendering, ``1/2 - 3*sqrt(2)``; optionally with the radical glyph."""
    pieces = []
    for d, q in c.terms:
        mag = str(abs(q))  # Fraction prints "n" or "n/d"
        if d > 1:
            root = f"√{d}" if unicode else f"sqrt({d})"
            mag = root if abs(q) == 1 else f"{mag}*{root}"
        pieces.append((q < 0, mag))
    return _join_signed(pieces)


def signed_sum_text(terms: Iterable[tuple[RadicalScalar, str]], unicode: bool = False) -> str:
    """``c1*x1 + c2*x2 - ...`` from (coefficient, body) pairs.

    The sign of each term is the sign of its coefficient's leading term; a
    unit magnitude is left out and a magnitude of several terms is bracketed.
    """
    pieces = []
    for c, body in terms:
        neg = bool(c) and c.terms[0][1] < 0
        mag = -c if neg else c
        if mag != ONE:
            text = scalar_text(mag, unicode)
            body = f"({text})*{body}" if len(mag.terms) > 1 else f"{text}*{body}"
        pieces.append((neg, body))
    return _join_signed(pieces)
