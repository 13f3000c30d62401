"""Canonical form for polynomial operator expressions.

Every *-polynomial in the two generators reduces, using t_i* t_j = delta_ij,
to a combination of monomials t_u t_v* (generator word times adjoint word).
Refining each monomial with the completeness relation

    t_u t_v*  =  sum over words x of length (depth - |u|) of  t_(ux) t_(vx)*

brings all left words to one common length.  Two polynomial expressions are
equal in the algebra exactly when these refined term lists coincide, so the
refined, merged, sorted list is a normal form and equality is decidable.

One call of ``monomials`` lowers each distinct subexpression once, into a
memo that lives for that call only: a(n) is zeta of the memoised a(n-1),
the paper's recursion read literally, and a(n) a(n)* + a(n)* a(n) lowers
a(n) once, not four times.  The memo's lists are shared, so none is ever
changed in place.

A product is lowered factor by factor.  A pair (t_u1 t_v1*)(t_u2 t_v2*)
survives only when one of v1 and u2 is a prefix of the other, so each
factor's monomials are indexed by their left words and an accumulated
monomial looks up its partners instead of trying every pair.  The index
holds a left word's prefixes only at the lengths the accumulated right
words have, and its exact words are probed only at the lengths the factor
has: in a fermion product every word has one length, so one prefix per
monomial is indexed and one lookup made.  Coefficients are multiplied only
for pairs that survive, never by ONE, and the product lists its monomials
in the same order a pairwise double loop would.  Unit signs stay the shared
ONE and MINUS_ONE: a product of two is picked, not multiplied, and the
merge cancels ONE against MINUS_ONE without an addition.  No monomial list,
unmerged or refined, grows past ``_MAX_MONOMIALS`` terms: each is sized
before it is built, and a longer one is a PolynomialError.

For display the inverse rewrite is applied to exhaustion (merging sibling
pairs with equal coefficients back into their parent), which yields the
minimal equivalent monomial list independent of the chosen depth.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .operators import (
    Adj,
    Boson,
    Cluster,
    Fermion,
    Gen,
    Iso,
    LinComb,
    OperatorExpr,
    Prod,
    Rho,
    ShiftSeries,
    Zeta,
)
from .scalars import MINUS_ONE, ONE, RadicalScalar, signed_sum_text
from .states import StateVector, apply_letter, apply_letter_adjoint, merge_terms
from .basis import ALPHABET

__all__ = [
    "PolynomialError",
    "PolyNormalForm",
    "FERMION_CAP",
    "poly_normal_form",
    "monomials",
    "collapse",
    "apply_normal_form",
    "render_monomials",
]

# Materialization guard: a(n) expands to 2^(n-1) monomials.
FERMION_CAP = 16
# No monomial list grows past this length: a(16) and every expansion the
# tests and the benchmark run stay within 2^15, and a list of 2^16 takes
# about 0.85 s to build and render in a fresh process.
_MAX_MONOMIALS = 2**16

Monomial = tuple[RadicalScalar, str, str]


class PolynomialError(ValueError):
    """Series node present, depth too small, or materialization too large."""


def _check_size(n: int) -> None:
    """Refuse, before it is built, a monomial list longer than the bound."""
    if n > _MAX_MONOMIALS:
        raise PolynomialError(f"the expansion has more than {_MAX_MONOMIALS} monomials")


def _compose(acc: list[Monomial], factor: list[Monomial]) -> list[Monomial]:
    """``acc`` times ``factor``, visiting only the pairs that compose.

    (t_u1 t_v1*)(t_u2 t_v2*) is t_(u1 x) t_v2* when u2 = v1 x, and
    t_u1 t_(v2 y)* when v1 = u2 y with y nonempty; any other pair is 0.
    Each factor monomial is indexed under the prefixes of its left word
    whose lengths some right word of ``acc`` has, and an accumulated
    monomial probes the exact left words only at the lengths the factor
    has that are shorter than its right word; no other key is ever looked
    up.  Partners are taken in the factor's order, so the result is the
    list a pairwise double loop gives, order included.
    """
    if not acc or not factor:
        return []
    wanted = sorted({len(v1) for _, _, v1 in acc})
    lengths = sorted({len(u2) for _, u2, _ in factor})
    by_prefix: dict[str, list[int]] = {}
    for i, (_, u2, _) in enumerate(factor):
        for k in wanted:
            if k > len(u2):
                break
            by_prefix.setdefault(u2[:k], []).append(i)
    by_word: dict[str, list[int]] = {}
    if wanted[-1] > lengths[0]:
        for i, (_, u2, _) in enumerate(factor):
            by_word.setdefault(u2, []).append(i)
    out: list[Monomial] = []
    for c1, u1, v1 in acc:
        n = len(v1)
        hits = by_prefix.get(v1, [])
        if n > lengths[0]:
            hits = list(hits)
            for k in lengths:
                if k >= n:
                    break
                hits.extend(by_word.get(v1[:k], ()))
            hits.sort()
        if len(out) + len(hits) > _MAX_MONOMIALS:
            _check_size(len(out) + len(hits))
        for i in hits:
            c2, u2, v2 = factor[i]
            # a product of unit signs is picked, not multiplied: -1 * -1 is the shared ONE
            c = c2 if c1 is ONE else c1 if c2 is ONE else ONE if c1 is c2 is MINUS_ONE else c1 * c2
            if len(u2) >= n:
                out.append((c, u1 + u2[n:], v2))
            else:
                out.append((c, u1, v2 + v1[len(u2):]))
    return out


def _zeta(inner: list[Monomial]) -> list[Monomial]:
    """zeta(t_u t_v*) = t_1u t_1v* - t_2u t_2v*: the 1-block, then the
    2-block with the sign flipped (a unit sign stays the shared ONE or MINUS_ONE)."""
    _check_size(2 * len(inner))
    out = [(c, "1" + u, "1" + v) for c, u, v in inner]
    out.extend(
        (MINUS_ONE if c is ONE else ONE if c is MINUS_ONE else -c, "2" + u, "2" + v)
        for c, u, v in inner
    )
    return out


def monomials(e: OperatorExpr) -> list[Monomial]:
    """Lower a polynomial expression to reduced monomials (unmerged)."""
    return _lower(e, {})


def _lower(e: OperatorExpr, memo: dict[OperatorExpr, list[Monomial]]) -> list[Monomial]:
    """``monomials(e)``, each distinct subexpression lowered once into
    ``memo``, which lives for one call.  Its lists are shared, so none is
    ever mutated."""
    out = memo.get(e)
    if out is not None:
        return out
    if isinstance(e, Gen):
        out = [(ONE, str(e.letter), "")]
    elif isinstance(e, Adj):
        out = [(c, v, u) for c, u, v in _lower(e.arg, memo)]
    elif isinstance(e, Prod):
        if not e.factors:  # the identity
            out = [(ONE, "", "")]
        else:
            out = _lower(e.factors[0], memo)
            for f in e.factors[1:]:
                if not out:
                    break
                out = _compose(out, _lower(f, memo))
    elif isinstance(e, LinComb):
        out = []
        for c, x in e.parts:
            part = _lower(x, memo)
            _check_size(len(out) + len(part))
            if c is not ONE:  # unit signs are picked, as in _compose, so they stay shared
                part = [(c if c2 is ONE else ONE if c is c2 is MINUS_ONE else c * c2, u, v) for c2, u, v in part]
            out.extend(part)
    elif isinstance(e, Iso):
        out = [(ONE, "2" * (e.n - 1) + "1", "")]
    elif isinstance(e, Fermion):
        # a(1) = t1 t2* and a(n) is the node zeta(a(n-1)), so an explicit
        # zeta(a(n-1)) shares its lowering; the words come out in
        # lexicographic order
        if e.n > FERMION_CAP:
            raise PolynomialError(
                f"a({e.n}) expands to 2^{e.n - 1} monomials, beyond the cap of a({FERMION_CAP})"
            )
        out = [(ONE, "1", "2")] if e.n == 1 else _lower(Zeta(Fermion(e.n - 1)), memo)
    elif isinstance(e, Zeta):
        out = _zeta(_lower(e.arg, memo))
    elif isinstance(e, (Boson, Cluster, ShiftSeries, Rho)):
        text = e.token + ("(...)" if isinstance(e, Rho) else f"({e.n})" if e.fields else "")
        raise PolynomialError(f"{text} is a series operator; it has no polynomial normal form")
    else:
        raise TypeError(f"not an operator expression: {e!r}")
    memo[e] = out
    return out


def _merge(terms: list[Monomial]) -> dict[tuple[str, str], RadicalScalar]:
    return merge_terms(((u, v), c) for c, u, v in terms)


class PolyNormalForm(NamedTuple):
    """Merged monomial list with all left words refined to one length."""

    depth: int
    terms: tuple[Monomial, ...]

    def is_zero(self) -> bool:
        return not self.terms

    def at_depth(self, depth: int) -> "PolyNormalForm":
        if depth < self.depth:
            raise PolynomialError(
                f"cannot lower refinement depth from {self.depth} to {depth}"
            )
        return _refine(list(self.terms), depth)

    def to_json(self) -> dict[str, object]:
        return {
            "depth": self.depth,
            "terms": [
                {"coeff": c.to_json(), "left": u, "right": v} for c, u, v in self.terms
            ],
        }


def _refine(terms: list[Monomial], depth: int) -> PolyNormalForm:
    """The normal form at ``depth`` of merged terms: padded, merged, sorted."""
    size = 0
    for _, u, _ in terms:
        pad = depth - len(u)
        if pad < 0:
            raise PolynomialError(
                f"depth {depth} is smaller than the left word {u!r}"
            )
        # capped, so a huge depth never builds a huge power of two
        size += 1 << min(pad, _MAX_MONOMIALS.bit_length())
    _check_size(size)
    if size == len(terms):  # no term is padded: the merged input is the result
        return PolyNormalForm(depth, tuple(sorted(terms, key=lambda t: t[1:])))
    refined: list[Monomial] = []
    for c, u, v in terms:
        pad = depth - len(u)
        if pad == 0:
            refined.append((c, u, v))
        else:
            for letters in itertools.product(ALPHABET, repeat=pad):
                x = "".join(letters)
                refined.append((c, u + x, v + x))
    merged = _merge(refined)
    ordered = tuple(
        (merged[key], key[0], key[1]) for key in sorted(merged)
    )
    return PolyNormalForm(depth, ordered)


def poly_normal_form(e: OperatorExpr, depth: Optional[int] = None) -> PolyNormalForm:
    """Normal form of a polynomial expression at the given (or intrinsic) depth."""
    merged = _merge(monomials(e))
    terms = [(c, u, v) for (u, v), c in merged.items()]
    intrinsic = max((len(u) for _, u, _ in terms), default=0)
    if depth is None:
        depth = intrinsic
    elif depth < intrinsic:
        raise PolynomialError(
            f"depth {depth} is smaller than the intrinsic left-word length {intrinsic}"
        )
    return _refine(terms, depth)


def collapse(terms: tuple[Monomial, ...] | list[Monomial]) -> list[Monomial]:
    """Undo the refinement wherever possible; minimal equivalent term list."""
    table = {(u, v): c for c, u, v in terms}
    changed = True
    while changed:
        changed = False
        for (u, v) in list(table):
            c = table.get((u, v))
            if c is None or not u or not v or u[-1] != v[-1]:
                continue
            flip = "2" if u[-1] == "1" else "1"
            sibling = (u[:-1] + flip, v[:-1] + flip)
            if table.get(sibling) != c:
                continue
            del table[(u, v)]
            del table[sibling]
            parent = (u[:-1], v[:-1])
            total = table.get(parent)
            total = c if total is None else total + c
            if total:
                table[parent] = total
            elif parent in table:
                del table[parent]
            changed = True
    return [(c, u, v) for (u, v), c in sorted(table.items())]


def apply_normal_form(nf: PolyNormalForm, v: StateVector) -> StateVector:
    """Act with a monomial list on a vector; coherence oracle for apply()."""
    out = StateVector.zero(v.rep)
    for c, u, right in nf.terms:
        w = v
        for ch in right:
            w = apply_letter_adjoint(w, int(ch))
            if not w:
                break
        if not w:
            continue
        for ch in reversed(u):
            w = apply_letter(w, int(ch))
        out = out.combine(c, w)
    return out


def render_monomials(terms: list[Monomial] | tuple[Monomial, ...], unicode: bool = False) -> str:
    """Text rendering, e.g. ``t1t1t2*t1* - t2t1t2*t2*`` or ``I``; ``unicode``
    writes radicals as ``√2``, as ``scalars.signed_sum_text`` does."""
    return signed_sum_text(
        ((c, "".join(f"t{ch}" for ch in u) + "".join(f"t{ch}*" for ch in reversed(v)) or "I")
         for c, u, v in terms),
        unicode,
    )
