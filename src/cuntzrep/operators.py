"""Symbolic operators on the reference subspace and their exact evaluation.

Expression nodes are immutable ``OperatorExpr`` tuples, one class per
operator kind; the classes are the lower-case constructors (``fermion is
Fermion``), and ``prod``, ``lincomb``, ``scaled`` and ``adjoint`` build the
composite nodes.  Nodes cover the two canonical generators, adjoints,
products, linear combinations, and the named families built from them:

* ``Iso(n)``        the embedded isometries   s_n = t2^(n-1) t1
* ``Fermion(n)``    the recursive fermions    a_1 = t1 t2*,  a_n = zeta(a_{n-1})
* ``Boson(n)``      the recursive bosons      b_1 = series,  b_n = rho(b_{n-1})
* ``ShiftSeries()`` the summed shift          Y  = sum_n s_{n+1} t2* s_n*
* ``Cluster(n)``    the cluster operators     F_1 = sum_m sqrt(m) W_m,
                                              F_n = Y rho(F_{n-1})
* ``Rho(x)``, ``Zeta(x)``   the transformers
                    rho(x) = sum_m s_m x s_m*,  zeta(x) = t1 x t1* - t2 x t2*

Notation is not a kind: ``psi(p)``, the half-integer mode p/2, returns the
fermion it names, ``partial_shift(n)`` returns X_n as its product of
fermions, a_1* a_1 ... a_{n-1}* a_{n-1} a_n* a_{n+1}, ``range_proj(n)``
returns the projection W_n = s_{n+1} s_{n+1}*, and ``ident()`` the empty
product I.

How evaluation works.  Every node but ``LinComb`` sends a basis label to at
most one label times an exact scalar.  A plan (``_build``) lowers one or
more expressions, its sides: sums are multiplied through into (coefficient,
factor chain) pairs, and the chains of every side form one trie read right
to left, so chains that end in the same factors take them once per label,
and a label that a shared factor annihilates prunes every chain below it;
``_walk`` merges each chain end in place into its side's dict: pop, add,
drop a zero.  Each edge holds its factor's entry, resolved when the plan is
built: a word-slice step for t_i, t_i* and s_n, the LRU cache
(``KERNEL_CACHE_SIZE`` entries, keyed on the label) for every other named
node, as each ``_ENTRIES`` row flags it, its own plan for a sum inside a
product and the argument of rho or zeta.  ``apply(e, v)`` is the one-side
case: it builds its plan on each
call, so a loop that applies the same expressions many times builds their
plan once itself, as a suite table does, its sides the table's expressions.
``kernel_cache_clear``, called by ``cli.main`` on entry, empties the cache,
whose hits, misses and size ``kernel_cache_info`` reports.  ``apply`` walks
v's terms unsorted and hands the merged dict to ``StateVector._trusted`` as
it is.

Exactly one of t1*, t2* survives on a label, so each family is a loop of
word-slice steps (``_down``, ``_peel``, ``_prepend``), with forward and
adjoint entries in one table, and each entry writes its image in one edit.
A label's letters split into s-blocks, runs 2^(m-1) 1, and a rho tower
moves at most two of them: b_n, F_n and their adjoints are one closed form
each (``_tower``), with no state.  a_n flips letter n in place when it lies
in the word short of its last letter, and a tower rewrites its blocks in
place when block n ends in the word, each by one slice-and-join on the same
node; otherwise ``_prepend`` puts the letters back on and strips those that
walk the cycle back.  When letter n lies past the word, a_n reads that one
letter from the cycle first, and a label that it annihilates is rejected
there, before the other n - 1 letters are peeled.  The oracles use only the
vector-level letter steps ``states.apply_letter*``, which no kernel entry
takes, never a plan, the cache or a word-slice step, and the series oracle
takes its weights from ``RadicalScalar.sqrt_int``, not from the memoised
``scalars.sqrt_int``.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

# the kernel steps no letter through apply_gen or apply_gen_adjoint, which
# only the oracles' letter steps use; perfbench/tracer.py patches both names
from .basis import (
    _MAX_WORD_LENGTH,
    BasisLabel,
    RepSpec,
    _word_bound_error,
    apply_gen,
    apply_gen_adjoint,
)
from .scalars import MINUS_ONE, ONE, RadicalScalar, sqrt_int
from .states import StateVector, apply_letter, apply_letter_adjoint, merge_terms

__all__ = [
    "OperatorExpr",
    "Gen",
    "Adj",
    "Prod",
    "LinComb",
    "Iso",
    "Fermion",
    "Boson",
    "ShiftSeries",
    "Cluster",
    "Rho",
    "Zeta",
    "gen",
    "adj",
    "prod",
    "lincomb",
    "scaled",
    "ident",
    "iso",
    "fermion",
    "psi",
    "psi_fermion_index",
    "boson",
    "range_proj",
    "partial_shift",
    "shift_series",
    "cluster",
    "rho",
    "zeta",
    "adjoint",
    "apply",
    "s_star_support",
    "eval_series_b1_raw",
    "range_proj_definition",
    "KERNEL_CACHE_SIZE",
    "kernel_cache_info",
    "kernel_cache_clear",
]


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class OperatorExpr(tuple):
    """Base of every expression node: the tuple ``(token, *fields)``.

    A subclass names one operator kind once: its parse ``token`` and its
    ``fields``, read back as properties.  The class is the constructor:
    this ``__new__`` takes one unchecked field, and a kind with no field or
    with arguments to check overrides it.  Nodes are immutable, equal and
    hashed as their tuples (the token keeps kinds apart), and pickle, on
    every protocol, and copy back through the class, which checks its
    arguments again.
    """

    __slots__ = ()
    token = ""
    fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls.__dict__.get("fields", ()), 1):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, arg: object):
        return tuple.__new__(cls, (cls.token, arg))

    def __reduce__(self) -> tuple:
        return type(self), self[1:]

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.fields, self[1:]))
        return f"{type(self).__name__}({args})"


class Gen(OperatorExpr):
    """Canonical generator t_1 or t_2."""

    __slots__ = ()
    token, fields = "t", ("letter",)

    def __new__(cls, letter: int):
        if letter not in (1, 2):
            raise ValueError(f"generator letter must be 1 or 2, got {letter!r}")
        return tuple.__new__(cls, (cls.token, letter))


class Adj(OperatorExpr):
    """Adjoint of an atomic or named node (kept unexpanded)."""

    __slots__ = ()
    token, fields = "*", ("arg",)


class Prod(OperatorExpr):
    """Composition; factors act right to left."""

    __slots__ = ()
    token, fields = ".", ("factors",)


class LinComb(OperatorExpr):
    """Scalar combination sum_k c_k e_k, as a tuple of (c_k, e_k) parts."""

    __slots__ = ()
    token, fields = "+", ("parts",)


class ShiftSeries(OperatorExpr):
    __slots__ = ()
    token = "Y"

    def __new__(cls):
        return tuple.__new__(cls, (cls.token,))


class Rho(OperatorExpr):
    __slots__ = ()
    token, fields = "rho", ("arg",)


class Zeta(OperatorExpr):
    __slots__ = ()
    token, fields = "zeta", ("arg",)


class _Indexed(OperatorExpr):
    """A family member x_n, defined for every integer n >= 1."""

    __slots__ = ()
    fields = ("n",)

    def __new__(cls, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"{cls.token} index must be an integer >= 1, got {n!r}")
        return tuple.__new__(cls, (cls.token, n))


class Iso(_Indexed):
    __slots__ = ()
    token = "s"


class Fermion(_Indexed):
    __slots__ = ()
    token = "a"


class Boson(_Indexed):
    __slots__ = ()
    token = "b"


class Cluster(_Indexed):
    __slots__ = ()
    token = "F"


# The lower-case constructors are the classes; psi, partial_shift, range_proj
# and ident, below, are notations that build a Fermion or a Prod.
gen, iso, fermion, boson = Gen, Iso, Fermion, Boson
shift_series, cluster, rho, zeta = ShiftSeries, Cluster, Rho, Zeta


def psi_fermion_index(numer: int) -> int:
    """Half-integer relabeling: p/2 > 0 maps to a_{p+1}, p/2 < 0 to a_{-p}."""
    return numer + 1 if numer > 0 else -numer


def psi(numer: int) -> Fermion:
    """The fermion named by the half-integer numer/2 (numer odd, nonzero)."""
    if not isinstance(numer, int) or numer == 0 or numer % 2 == 0:
        raise ValueError(f"psi index must be an odd half-integer p/2, got numerator {numer!r}")
    return Fermion(psi_fermion_index(numer))


def _occupied(indices: Iterable[int]) -> list[OperatorExpr]:
    """The factors a_j* a_j for each j of ``indices``, in that order."""
    return [f for j in indices for f in (Adj(Fermion(j)), Fermion(j))]


def partial_shift(n: int) -> OperatorExpr:
    """X_n as written in fermions: a_1* a_1 ... a_{n-1}* a_{n-1} a_n* a_{n+1}."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"X index must be an integer >= 1, got {n!r}")
    return prod(*_occupied(range(1, n)), Adj(Fermion(n)), Fermion(n + 1))


def range_proj(n: int) -> OperatorExpr:
    """W_n = s_{n+1} s_{n+1}*, for n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"W index must be an integer >= 0, got {n!r}")
    return prod(Iso(n + 1), Adj(Iso(n + 1)))


def ident() -> OperatorExpr:
    """I, the empty product."""
    return prod()


def prod(*factors: OperatorExpr) -> OperatorExpr:
    if len(factors) == 1:
        return factors[0]
    flat: list[OperatorExpr] = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)
    return Prod(tuple(flat))


def lincomb(*parts: tuple[RadicalScalar, OperatorExpr]) -> OperatorExpr:
    return LinComb(tuple(parts))


def scaled(c: RadicalScalar | int, e: OperatorExpr) -> OperatorExpr:
    if not isinstance(c, RadicalScalar):
        c = RadicalScalar.from_rational(c)
    return LinComb(((c, e),))


# ---------------------------------------------------------------------------
# Adjoint normalization
# ---------------------------------------------------------------------------

def adjoint(e: OperatorExpr) -> OperatorExpr:
    """Structural adjoint, normalized so that adjoint(adjoint(e)) == e.

    Stars distribute over sums (real scalars), reverse products, cancel in
    pairs, and stay attached to named nodes; F_1 is self-adjoint, and
    rho/zeta commute with the star.  W_n = s_{n+1} s_{n+1}* and the empty
    product I reverse into themselves.
    """
    if isinstance(e, Adj):
        return e.arg
    if isinstance(e, Cluster):
        return e if e.n == 1 else Adj(e)
    if isinstance(e, Prod):
        return Prod(tuple(adjoint(f) for f in reversed(e.factors)))
    if isinstance(e, LinComb):
        return LinComb(tuple((c, adjoint(x)) for c, x in e.parts))
    if isinstance(e, (Rho, Zeta)):
        return type(e)(adjoint(e.arg))
    return Adj(e)


adj = adjoint


# ---------------------------------------------------------------------------
# Vector-level walks, for the suites and the oracles
# ---------------------------------------------------------------------------


def _support_bound(v: StateVector) -> int:
    # After the word is consumed the label walks the cycle with period L,
    # so a 1-edge either appears within |word| + L steps or never does.
    return max((len(x.word) + len(v.rep[x.component]) + 1 for x in v._terms), default=0)


def s_star_support(v: StateVector) -> dict[int, StateVector]:
    """All m with s_m* v != 0, mapped to the exact vectors s_m* v.

    Walks (t2*)^(m-1) v incrementally; on any single basis label exactly one
    of t1*, t2* survives, so each label contributes to at most one m and the
    walk provably stops by |word| + L + 1 steps.
    """
    support: dict[int, StateVector] = {}
    current = v
    bound = _support_bound(v)
    for m in range(1, bound + 1):
        if not current:
            break
        hit = apply_letter_adjoint(current, 1)
        if hit:
            support[m] = hit
        current = apply_letter_adjoint(current, 2)
    return support


def _iso_letters(m: int, v: StateVector) -> StateVector:
    """s_m v through the letter steps: t1, then t2 m - 1 times."""
    v = apply_letter(v, 1)
    for _ in range(m - 1):
        v = apply_letter(v, 2)
    return v


def eval_series_b1_raw(v: StateVector) -> StateVector:
    """b_1 v = sum_m sqrt(m) s_m s_{m+1}* v over the one walk of
    ``s_star_support``, off the kernel: a cross-check oracle."""
    out = StateVector.zero(v.rep)
    for m, w in s_star_support(v).items():  # m ascending, as the walk fills it
        if m > 1:
            out = out.combine(RadicalScalar.sqrt_int(m - 1), _iso_letters(m - 1, w))
    return out


# ---------------------------------------------------------------------------
# Definitional fermion products, used by the relation suites as the second
# route of the two-path checks.
# ---------------------------------------------------------------------------


def range_proj_definition(n: int) -> OperatorExpr:
    """W_n as written in fermions: a_{n+1} a_{n+1}* a_n* a_n ... a_1* a_1."""
    range_proj(n)  # the index check
    return prod(Fermion(n + 1), Adj(Fermion(n + 1)), *_occupied(range(n, 0, -1)))


# ---------------------------------------------------------------------------
# Per-label kernel
# ---------------------------------------------------------------------------

KERNEL_CACHE_SIZE = 1 << 12  # ~2 MB; closedforms on 112: 8,914 images, 1,626 hits (2,123 unbounded)
Terms = tuple[tuple[BasisLabel, RadicalScalar], ...]
# kernel labels skip the NamedTuple's Python-level __new__
_tuple_new = tuple.__new__


def _one(label: Optional[BasisLabel]) -> Terms:
    return () if label is None else ((label, ONE),)


def _mul(c: RadicalScalar, d: RadicalScalar) -> RadicalScalar:
    return c if d is ONE else d if c is ONE else c * d


def _prepend(rep: RepSpec, x: BasisLabel, letters: str) -> BasisLabel:
    """t_i for each of ``letters``, last letter first: letters + x.word.

    Prepending to a nonempty normal word keeps its last letter, so the
    label stays normal.  Only on a cycle vector is there anything to
    normalise: the trailing letters that walk the cycle back from the node
    are stripped, as ``basis.normalize_label`` would.  Raises ValueError,
    as the letter steps ``basis.apply_gen`` would, when the word passes the
    bound.
    """
    node = x.node
    if x.word:
        word = letters + x.word
    else:
        cycle = rep[x.component]
        end = len(letters)
        while end and letters[end - 1] == cycle[node - 1]:
            end -= 1
            node = (node - 1) % len(cycle)
        word = letters[:end]
    if len(word) > _MAX_WORD_LENGTH:
        raise _word_bound_error()
    return _tuple_new(BasisLabel, (x.component, word, node))


def _peel(rep: RepSpec, x: BasisLabel, n: int = 1) -> tuple[str, BasisLabel]:
    """The n letters whose adjoints, first letter first, survive on x, and
    what they leave: the word's first n letters, then the cycle walk."""
    word = x.word
    if len(word) >= n:
        return word[:n], _tuple_new(BasisLabel, (x.component, word[n:], x.node))
    cycle = rep[x.component]
    k = n - len(word)
    walk = (cycle[x.node :] + cycle * (k // len(cycle) + 1))[:k]
    return word + walk, _tuple_new(BasisLabel, (x.component, "", (x.node + k) % len(cycle)))


def _up(rep: RepSpec, x: BasisLabel, n: int) -> BasisLabel:
    """s_n x = t2^(n-1) t1 x."""
    # a cycle vector absorbs at most L of the letters, so a larger n passes
    # the bound: refuse it before building the string
    if n - len(rep[x.component]) > _MAX_WORD_LENGTH - len(x.word):
        raise _word_bound_error()
    return _prepend(rep, x, "2" * (n - 1) + "1")


def _down(rep: RepSpec, x: BasisLabel) -> Optional[tuple[int, BasisLabel]]:
    """The one m with s_m* x != 0, and s_m* x; None when there is none.

    m - 1 counts the 2s before the first 1: in the word, or, on a word of
    2s, in the word and then the cycle walk from the node.
    """
    word = x.word
    k = word.find("1")
    if k >= 0:
        return k + 1, _tuple_new(BasisLabel, (x.component, word[k + 1 :], x.node))
    cycle = rep[x.component]
    k = cycle.find("1", x.node)
    if k < 0:
        k = cycle.find("1")
        if k < 0:
            return None
        k += len(cycle)
    return len(word) + k - x.node + 1, _tuple_new(BasisLabel, (x.component, "", (k + 1) % len(cycle)))


def _gen_adj(e: Gen, rep: RepSpec, x: BasisLabel) -> Terms:
    """t_i* x: the one letter whose adjoint survives on x must be i."""
    letter, y = _peel(rep, x)
    return ((y, ONE),) if letter == str(e.letter) else ()


def _iso_adj(e: Iso, rep: RepSpec, x: BasisLabel) -> Terms:
    """s_n* x: nonzero only when n is the one m with s_m* x != 0."""
    hit = _down(rep, x)
    return ((hit[1], ONE),) if hit and hit[0] == e.n else ()


def _y(rep: RepSpec, x: BasisLabel) -> Optional[BasisLabel]:
    """Y = sum_n s_{n+1} t2* s_n*."""
    hit = _down(rep, x)
    if hit is None:
        return None
    letter, y = _peel(rep, hit[1])
    return _up(rep, y, hit[0] + 1) if letter == "2" else None


def _y_adj(rep: RepSpec, x: BasisLabel) -> Optional[BasisLabel]:
    """Y* = sum_n s_n t2 s_{n+1}*."""
    hit = _down(rep, x)
    return _prepend(rep, hit[1], "2" * (hit[0] - 2) + "12") if hit and hit[0] >= 2 else None


def _fermion(e: Fermion, rep: RepSpec, x: BasisLabel, flip: str = "1") -> Terms:
    """a_n x (flip "1") or a_n* x (flip "2"): zeta^(n-1) of a_1 = t1 t2* (a_1* =
    t2 t1*) reads n letters.  The last must not be ``flip`` and becomes it,
    and each 2 among the others flips the sign.  Letter n inside the word,
    short of its last letter, is flipped in place; else the n letters are
    peeled and go back on at once, unless letter n lies past the word and
    is already ``flip``: that one cycle letter is all the step reads."""
    n, k = e.n, e.n - len(x.word)
    if k > 0:  # letter n lies on the cycle: read it alone, and peel only if it passes
        cycle = rep[x.component]
        if cycle[(x.node + k - 1) % len(cycle)] == flip:
            return ()
    letters, rest = (x.word, None) if k < 0 else _peel(rep, x, n)
    if letters[n - 1] == flip:
        return ()
    sign = MINUS_ONE if letters.count("2", 0, n - 1) % 2 else ONE
    if rest is None:
        return ((_tuple_new(BasisLabel, (x.component, letters[: n - 1] + flip + letters[n:], x.node)), sign),)
    return ((_prepend(rep, rest, letters[:-1] + flip), sign),)


def _tower(rep: RepSpec, x: BasisLabel, n: int, d: int, lead: int = 0) -> Terms:
    """A rho tower in closed form.  x's letters split into s-blocks, runs
    2^(m-1) 1: block n gains (d = 1) or loses (d = -1) a 2, times the square
    root of the smaller of its lengths before and after, and block 1 gains
    (lead = 1) or, before block n (n >= 2), loses (lead = -1) a 2 as well;
    zero when x has fewer than n blocks, its letters ending in 2s.  When
    block n ends in the word, the image is one edit of the word on the same
    node: it keeps its last letter, so it stays normal.  Past the word,
    whole cycle periods are counted, not walked, and ``_prepend`` puts the
    edited letters on the cycle vector after block n."""
    word, node = x.word, x.node
    parts = word.split("1", n)
    if len(parts) > n:  # block n ends in the word
        letters, stop = word, len(word) - len(parts[n])
    else:
        cycle = rep[x.component]
        per = cycle.count("1")
        if not per:
            return ()
        walk = cycle[node:] + cycle[:node]
        q, t = divmod(n - len(parts), per)  # block n ends at the (t + 1)-th 1 of period q
        end = (q + 1) * len(walk) - len(walk.split("1", t + 1)[-1])
        letters, stop, node = word + walk * (q + 1), len(word) + end, (node + end) % len(cycle)
    start = letters.rfind("1", 0, stop - 1) + 1
    m = stop - start
    if m + d < 1 or lead < 0 and letters[0] != "2":
        return ()
    # word[stop:] is what follows block n in the word, empty past the word
    image = "".join(("2" if lead > 0 else "", letters[lead < 0 : start], "2" * (m + d - 1), "1", word[stop:]))
    c = sqrt_int(min(m, m + d))
    if stop > len(word):
        return ((_prepend(rep, _tuple_new(BasisLabel, (x.component, "", node)), image), c),)
    if len(image) > _MAX_WORD_LENGTH:
        raise _word_bound_error()
    return ((_tuple_new(BasisLabel, (x.component, image, node)), c),)


def _rho(plan: list, rep: RepSpec, x: BasisLabel) -> Terms:
    """rho(e) = sum_m s_m e s_m*, e given by its plan."""
    hit = _down(rep, x)
    return tuple((_up(rep, z, hit[0]), c) for z, c in _act(plan, rep, hit[1])) if hit else ()


def _zeta(plan: list, rep: RepSpec, x: BasisLabel) -> Terms:
    """zeta(e) = t1 e t1* - t2 e t2*, e given by its plan."""
    letter, x = _peel(rep, x)
    images = _act(plan, rep, x)
    return tuple((_prepend(rep, z, letter), -c if letter == "2" else c) for z, c in images)


# Node type -> (forward entry, adjoint entry, cached); an entry maps (node,
# rep, label) to the image terms of the node, or of its adjoint, and
# cached[star] says whether that entry goes through the per-label cache: t_i,
# t_i* and s_n cost less than a lookup.  The rho towers move at most two
# s-blocks (see ``_tower``): b_n takes a 2 off block n, b_n* puts one on, F_n
# moves one from block n to block 1, F_n* from block 1 to block n, and F_1,
# self-adjoint, moves one from block 1 to itself.
_ENTRIES: dict[type, tuple[Callable[..., Terms], Callable[..., Terms], tuple[bool, bool]]] = {
    Gen: (lambda e, rep, x: ((_prepend(rep, x, str(e.letter)), ONE),), _gen_adj, (False, False)),
    Iso: (lambda e, rep, x: ((_up(rep, x, e.n), ONE),), _iso_adj, (False, True)),
    Fermion: (_fermion, lambda e, rep, x: _fermion(e, rep, x, "2"), (True, True)),
    Boson: (lambda e, rep, x: _tower(rep, x, e.n, -1), lambda e, rep, x: _tower(rep, x, e.n, 1), (True, True)),
    ShiftSeries: (lambda e, rep, x: _one(_y(rep, x)), lambda e, rep, x: _one(_y_adj(rep, x)), (True, True)),
    Cluster: (
        lambda e, rep, x: _tower(rep, x, e.n, -1, 1),
        lambda e, rep, x: _tower(rep, x, e.n, 1, -1) if e.n > 1 else _tower(rep, x, 1, -1, 1),
        (True, True),
    ),
}


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _act_cached(entry: Callable[..., Terms], e: OperatorExpr, rep: RepSpec, x: BasisLabel) -> Terms:
    return entry(e, rep, x)


def _step(e: OperatorExpr) -> Callable[[RepSpec, BasisLabel], Terms]:
    """The entry of one factor, resolved once, as a function of (rep, label):
    a table entry, through the per-label cache where its row says so;
    rho and zeta around their argument's plan; a sum, a product or a star
    that adjoint() rewrites inside a product as its own plan."""
    star = type(e) is Adj
    node = e.arg if star else e
    kind = type(node)
    if kind in _ENTRIES:
        entry, cached = _ENTRIES[kind][star], _ENTRIES[kind][2][star]
        return partial(_act_cached, entry, node) if cached else partial(entry, node)
    if kind is Rho or kind is Zeta:
        arg = adjoint(node.arg) if star else node.arg
        return partial(_rho if kind is Rho else _zeta, _build((arg,)))
    if kind not in (Adj, Prod, LinComb):
        raise TypeError(f"not an operator expression: {e!r}")
    return partial(_act, _build((adjoint(node) if star else node,)))


def _chains(e: OperatorExpr, c: RadicalScalar) -> Iterator[tuple[RadicalScalar, tuple]]:
    """(coefficient, factors) for each product of e, sums multiplied through;
    the identity is the empty chain.  A sum inside a product stays one
    factor, so a product of k sums is k steps, not 2^k chains."""
    if type(e) is LinComb:
        for d, part in e.parts:
            yield from _chains(part, _mul(c, d))
    else:
        yield c, e.factors if type(e) is Prod else (e,)


def _build(exprs: Sequence[OperatorExpr]) -> list:
    """The plan of the sides ``exprs``, in one pass: a trie of their factor
    chains read right to left, so chains that end in the same factors share
    those edges, within a side and across sides.  A node is ``[ends,
    {factor: (step, child)}]``, ``ends`` mapping a side's slot, its index in
    ``exprs``, to the sum of the coefficients of its chains that end there;
    each distinct factor's step is resolved once."""
    root: list = [{}, {}]
    steps: dict[OperatorExpr, Callable] = {}
    for slot, e in enumerate(exprs):
        for c, factors in _chains(e, ONE):
            node = root
            for f in reversed(factors):
                edge = node[1].get(f)
                if edge is None:
                    step = steps.get(f)
                    if step is None:
                        step = steps[f] = _step(f)
                    edge = node[1][f] = (step, [{}, {}])
                node = edge[1]
            merge_terms(((slot, c),), node[0])
    return root


def _walk(plan: list, rep: RepSpec, terms, outs: Sequence[dict]) -> Sequence[dict]:
    """Merge each side's image of the (label, scalar) terms, unsorted, into
    ``outs[slot]``, and return ``outs``.  A label takes an edge's step once for
    all chains below it, of any side; a step that annihilates it prunes them all."""
    stack = [(plan, x, c) for x, c in terms]
    while stack:
        (ends, edges), x, c = stack.pop()
        if ends:
            for slot, coeff in ends.items():
                d = c if coeff is ONE else coeff if c is ONE else c * coeff
                out = outs[slot]
                # pop, add, drop a zero; d, a product of nonzero scalars, is not zero
                total = out.pop(x, None)
                if total is None:
                    out[x] = d
                elif total := total + d:
                    out[x] = total
        for step, child in edges.values():
            for z, d in step(rep, x):
                stack.append((child, z, c if d is ONE else d if c is ONE else c * d))
    return outs


def _act(plan: list, rep: RepSpec, x: BasisLabel) -> Terms:
    """Image of the basis label x under a one-side plan, as merged (label,
    scalar) terms: empty when x is annihilated, one term at most without a sum."""
    return tuple(_walk(plan, rep, ((x, ONE),), ({},))[0].items())


def kernel_cache_info():
    """The hits, misses, bound and size of the per-label cache."""
    return _act_cached.cache_info()


def kernel_cache_clear() -> None:
    """Empty the per-label cache."""
    _act_cached.cache_clear()


def apply(e: OperatorExpr, v: StateVector) -> StateVector:
    """Evaluate an operator expression on a vector, exactly."""
    if not v:
        return v
    # unsorted: the sums are exact, and terms() orders the output
    return StateVector._trusted(v.rep, _walk(_build((e,)), v.rep, v._terms.items(), ({},))[0])
