"""Exact arithmetic in the real field generated by square roots of integers.

A value is a finite sum ``sum_d (n_d / D) * sqrt(d)`` over square-free
positive radicands ``d``; the radicand 1 carries the rational part.  It is
stored as one positive integer denominator ``D`` and a tuple of
``(d, n_d)`` pairs with nonzero integer numerators, sorted by radicand, and
the gcd of ``D`` and all the ``n_d`` is 1 (every result passes through
``_canonical``, which divides it out).  Square roots of distinct
square-free integers are linearly independent over the rationals, so this
form is unique: ``==`` is a tuple compare, and no floating point is
involved anywhere.

Sums and products work on Python ints only.  ``fractions.Fraction`` is
imported only where a value crosses the public edge: ``terms`` returns
them, ``from_rational`` accepts them, and the public constructor,
``from_json`` (which reads ``"n/d"`` strings) and pickling go through them.
``==`` and the ring operations take a ``Fraction`` without importing the
module, since one can exist only once ``fractions`` is in ``sys.modules``.
A rational value hashes by Python's numeric-hash rule, so as its
``Fraction`` and as its int when whole (``RadicalScalar.from_rational(1)``
and ``1`` are one set element).

Radicands stay small in practice (products of sqrt(m) for the series
weights), so square-free splitting by trial division is enough; a literal
``sqrt(m)`` and a JSON radicand are bounded at ``m <= 10**12``
(``_MAX_RADICAND``), which splits in about 0.07 s.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING, Iterable, Mapping, Union

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "RadicalScalar",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "sqrt_int",
    "square_free_split",
    "scalar_text",
    "signed_sum_text",
]

RationalLike = Union[int, "Fraction"]

# Square-free splitting is trial division, about 0.07 s at this radicand.
_MAX_RADICAND = 10**12


def _bounded_radicand(m: int) -> int:
    """``m`` itself; ValueError past ``_MAX_RADICAND``, before any splitting."""
    if m > _MAX_RADICAND:
        raise ValueError(f"radicand must be at most {_MAX_RADICAND}")
    return m


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


# (denominator, ((radicand, numerator), ...)): the stored form of a value.
Form = tuple[int, tuple[tuple[int, int], ...]]

_new = object.__new__
_set = object.__setattr__


def _reduced(form: Form) -> Form:
    """Divide the denominator and the numerators by their gcd.

    The pairs must already be sorted with square-free radicands and nonzero
    numerators; zero, ``(D, ())``, comes out as ``(1, ())``.
    """
    den, pairs = form
    g = den
    for _, n in pairs:
        g = gcd(g, n)
        if g == 1:
            return form
    return den // g, tuple([(d, n // g) for d, n in pairs])


def _is_fraction(value: object) -> bool:
    """Whether ``value`` is a ``Fraction``, which it can be only once
    ``fractions`` is loaded: no import here."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _nonzero_sorted(acc: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple([t for t in sorted(acc.items()) if t[1]])


class RadicalScalar:
    """Element of the square-root field, kept in canonical form.

    Immutable.  ``_form`` is ``(denominator, pairs)`` as the module
    docstring describes, so ``==`` and ``hash`` agree with field equality.
    """

    __slots__ = ("_form",)

    def __init__(
        self,
        terms: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]] = (),
    ) -> None:
        from fractions import Fraction

        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for d, c in items:
            c = Fraction(c)
            if c:
                s, rad = square_free_split(d)
                acc[rad] = acc.get(rad, 0) + c * s
        # over the lcm of lowest-terms denominators the form is already reduced
        den = math.lcm(*(c.denominator for c in acc.values()))
        pairs = [(d, c.numerator * (den // c.denominator)) for d, c in sorted(acc.items()) if c]
        _set(self, "_form", (den, tuple(pairs)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RadicalScalar is immutable")

    def __reduce__(self) -> tuple:
        return RadicalScalar, (self.terms,)

    @classmethod
    def _canonical(cls, acc: Form) -> "RadicalScalar":
        # internal fast path: pairs sorted, radicands square-free, numerators
        # nonzero; only the gcd is left to divide out
        out = _new(cls)
        _set(out, "_form", acc if acc[0] == 1 else _reduced(acc))
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: RationalLike) -> "RadicalScalar":
        if not isinstance(value, int):
            from fractions import Fraction

            value = Fraction(value)
        num = value.numerator
        return cls._canonical((value.denominator, ((1, num),)) if num else (1, ()))

    @classmethod
    def sqrt_int(cls, m: int) -> "RadicalScalar":
        """Exact square root of a positive integer: sqrt(m) = s*sqrt(d)."""
        s, d = square_free_split(m)
        return cls._canonical((1, ((d, s),)))

    # -- inspection ---------------------------------------------------

    def _fractions(self) -> Iterable[tuple[int, int, int]]:
        """``(radicand, numerator, denominator)`` per term, in lowest terms."""
        den, pairs = self._form
        for d, n in pairs:
            g = gcd(n, den)
            yield d, n // g, den // g

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        from fractions import Fraction

        return tuple((d, Fraction(p, q)) for d, p, q in self._fractions())

    def is_rational(self) -> bool:
        pairs = self._form[1]
        return not pairs or (len(pairs) == 1 and pairs[0][0] == 1)

    def __bool__(self) -> bool:
        return bool(self._form[1])

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value: "RadicalScalar | RationalLike") -> "RadicalScalar":
        if isinstance(value, RadicalScalar):
            return value
        if isinstance(value, int) or _is_fraction(value):
            return RadicalScalar.from_rational(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        den, a = self._form
        den2, b = other._form
        if den == den2:
            if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
                n = a[0][1] + b[0][1]
                return RadicalScalar._canonical((den, ((a[0][0], n),)) if n else (1, ()))
            ka = kb = 1
        else:  # over the lcm of the two denominators
            g = gcd(den, den2)
            ka, kb = den2 // g, den // g
            den *= ka
        acc = {d: n * ka for d, n in a}
        for d, n in b:
            acc[d] = acc.get(d, 0) + n * kb
        return RadicalScalar._canonical((den, _nonzero_sorted(acc)))

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        den, pairs = self._form
        out = _new(RadicalScalar)  # a sign change keeps the gcd: no _canonical
        _set(out, "_form", (den, tuple([(d, -n) for d, n in pairs])))
        return out

    def __sub__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den, a = self._form
        den2, b = other._form
        if den == den2 and len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            n = a[0][1] - b[0][1]
            return RadicalScalar._canonical((den, ((a[0][0], n),)) if n else (1, ()))
        return self + (-other)

    def __rsub__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        return -(self - other)

    def __mul__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        den, a = self._form
        den2, b = other._form
        # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd(d1, d2); both
        # factors are square-free and coprime, so the product is square-free.
        if len(a) == 1 and len(b) == 1:  # one term: its gcd divided out here
            (d1, n1), (d2, n2) = a[0], b[0]
            g = gcd(d1, d2)
            rad, n, den = (d1 // g) * (d2 // g), n1 * n2 * g, den * den2
            if den != 1:
                g = gcd(den, n)
                n, den = n // g, den // g
            out = _new(RadicalScalar)
            _set(out, "_form", (den, ((rad, n),)))
            return out
        acc: dict[int, int] = {}
        for d1, n1 in a:
            for d2, n2 in b:
                g = gcd(d1, d2)
                rad = (d1 // g) * (d2 // g)
                acc[rad] = acc.get(rad, 0) + n1 * n2 * g
        return RadicalScalar._canonical((den * den2, _nonzero_sorted(acc)))

    __rmul__ = __mul__

    def inverse(self) -> "RadicalScalar":
        """Exact multiplicative inverse; raises ZeroDivisionError on zero.

        Rationalizes one prime at a time: split x = A + sqrt(p)*B with p
        absent from A and B, then x*(A - sqrt(p)*B) lies in the subfield
        without p (the conjugation is a field automorphism, so the product
        is nonzero) and recursion terminates.
        """
        den, pairs = self._form
        if not pairs:
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            n = pairs[0][1]
            return RadicalScalar._canonical((abs(n), ((1, den if n > 0 else -den),)))
        p = max(_smallest_prime_factor(d) for d, _ in pairs if d > 1)
        plain = RadicalScalar._canonical((den, tuple([(d, n) for d, n in pairs if d % p])))
        carried = RadicalScalar._canonical(
            (den, tuple([(d // p, n) for d, n in pairs if d % p == 0]))
        )
        conj = plain - RadicalScalar.sqrt_int(p) * carried
        norm = self * conj
        return conj * norm.inverse()

    def __truediv__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadicalScalar):
            return self._form == other._form
        if isinstance(other, int) or _is_fraction(other):
            num = other.numerator
            return self._form == ((other.denominator, ((1, num),)) if num else (1, ()))
        return NotImplemented

    def __hash__(self) -> int:
        den, pairs = self._form
        if not pairs:
            return 0  # hash(0)
        if len(pairs) == 1 and pairs[0][0] == 1:
            # Python's numeric-hash rule for n/den in lowest terms: the hash
            # of its Fraction, and of its int when whole (hash() itself turns
            # a -1 into -2)
            n = pairs[0][1]
            if den == 1:
                return hash(n)
            if den % _HASH_MODULUS:
                h = hash(hash(abs(n)) * pow(den, -1, _HASH_MODULUS))
            else:
                h = _HASH_INF
            return h if n > 0 else -h
        return hash(self._form)

    # -- conversion -----------------------------------------------------

    def to_float(self) -> float:
        den, pairs = self._form
        return sum(n / den * math.sqrt(d) for d, n in pairs)

    def __str__(self) -> str:
        return scalar_text(self)

    def __repr__(self) -> str:
        return f"RadicalScalar({self})"

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> list[dict[str, object]]:
        return [{"radicand": d, "coeff": f"{p}/{q}"} for d, p, q in self._fractions()]

    @classmethod
    def from_json(cls, data: Iterable[Mapping[str, object]]) -> "RadicalScalar":
        from fractions import Fraction

        return cls(
            (_bounded_radicand(int(item["radicand"])), Fraction(str(item["coeff"])))
            for item in data
        )


ZERO = RadicalScalar.from_rational(0)
ONE = RadicalScalar.from_rational(1)
MINUS_ONE = -ONE


@lru_cache(maxsize=256, typed=True)
def sqrt_int(m: int) -> RadicalScalar:
    """:meth:`RadicalScalar.sqrt_int`, memoised: the series weights and the rho
    towers ask for a few small radicands thousands of times, and each split
    is trial division.  ``typed`` keeps ``2.0`` a ValueError after ``2``.
    sqrt(1) is the shared ``ONE``, so ``is ONE`` short cuts see unit weights."""
    root = RadicalScalar.sqrt_int(m)
    return ONE if root == ONE else root


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
    for d, p, q in c._fractions():
        mag = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
        if d > 1:
            root = f"√{d}" if unicode else f"sqrt({d})"
            mag = root if abs(p) == q == 1 else f"{mag}*{root}"
        pieces.append((p < 0, mag))
    return _join_signed(pieces)


def signed_sum_text(terms: Iterable[tuple[RadicalScalar, str]], unicode: bool = False) -> str:
    """``c1*x1 + c2*x2 - ...`` from (coefficient, body) pairs.

    The sign of each term is the sign of its coefficient's leading term; a
    unit magnitude is left out and a magnitude of several terms is bracketed.
    """
    pieces = []
    for c, body in terms:
        pairs = c._form[1]
        neg = bool(pairs) and pairs[0][1] < 0
        mag = -c if neg else c
        if mag != ONE:
            text = scalar_text(mag, unicode)
            body = f"({text})*{body}" if len(pairs) > 1 else f"{text}*{body}"
        pieces.append((neg, body))
    return _join_signed(pieces)
