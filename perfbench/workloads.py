"""The benchmark's four workloads, as lists of CLI invocations.

A workload is a fixed list of invocations of ``cuntzrep`` (an argv list
each) that one sample process runs in order: one *pass*.  The check
workloads enumerate every basis label up to their depth, so they take no
seed.  The two query workloads are closed-loop streams of identity pairs:
the seed picks states, coefficients, spellings and the order of the
stream, while the multiset of (family, index, representation, state size)
slots is fixed, so the work in a pass does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

JSON = ["--format", "json"]

# Sizes for the check workloads; the cases counts they produce are recorded
# in expected.json and asserted on every pass, never tuned.
FERMION_CHAINS = (
    ["check", "--suite", "closedforms", "--rep", "1", "--n-max", "4", "--m-max", "4", "--depth", "4"],
    ["check", "--suite", "closedforms", "--rep", "12", "--n-max", "4", "--m-max", "4", "--depth", "4"],
    ["check", "--suite", "car", "--rep", "12", "--n-max", "5", "--m-max", "5", "--depth", "5"],
)
BOSON_SERIES = tuple(
    ["check", "--suite", suite, "--rep", rep] for suite in ("ccr", "main") for rep in ("1", "12", "112")
)

QUERY_REPS = ("1", "12", "112", "1+12", "1122")
COEFFS = ("", "2*", "1/2*", "sqrt(2)*", "3/4*", "sqrt(3)*", "(1 + sqrt(2))*", "2/3*sqrt(5)*", "(sqrt(2) - 1)*")
CAR_MAX = 9
W_MAX = 6
X_MAX = 6
ZETA_SLOTS = tuple((n, k) for n in range(1, 6) for k in range(1, 4))


@dataclass
class Workload:
    name: str
    seeded: bool
    why: str
    build: Callable[[int], list[list[str]]] = field(repr=False)
    # Each query workload's invocations come in (left, right) pairs whose
    # outputs must print identically; check workloads have no pairs.
    paired: bool = False

    def invocations(self, seed: int) -> list[list[str]]:
        return self.build(seed)


def _check_pass(argvs):
    return lambda seed: [list(a) + JSON for a in argvs]


def _sep(rng: random.Random) -> str:
    return rng.choice((" ", "."))


def _product(rng: random.Random, factors: list[str]) -> str:
    return _sep(rng).join(factors)


def _occupation(j: int) -> list[str]:
    return [f"a({j})*", f"a({j})"]


def w_definition(n: int) -> list[str]:
    """W(n) as its fermion product: a(n+1) a(n+1)* a(n)* a(n) ... a(1)* a(1)."""
    out = [f"a({n + 1})", f"a({n + 1})*"]
    for j in range(n, 0, -1):
        out += _occupation(j)
    return out


def x_definition(n: int) -> list[str]:
    """X(n) as its fermion product: a(1)* a(1) ... a(n-1)* a(n-1) a(n)* a(n+1)."""
    out: list[str] = []
    for j in range(1, n):
        out += _occupation(j)
    return out + [f"a({n})*", f"a({n + 1})"]


def _car_pair(rng: random.Random, n: int, m: int) -> tuple[str, str]:
    sep = _sep(rng)
    parts = [f"a({n}){sep}a({m})*", f"a({m})*{sep}a({n})"]
    rng.shuffle(parts)
    return " + ".join(parts), "I" if n == m else "0 I"


def _zeta(n: int, k: int) -> str:
    text = f"a({n})"
    for _ in range(k):
        text = f"zeta({text})"
    return text


def normal_forms(seed: int) -> list[list[str]]:
    """Expand pairs: CAR anticommutators on the full grid, W(n), X(n), nested zeta."""
    rng = random.Random(f"normal-forms/{seed}")
    pairs: list[tuple[str, str]] = []
    for n in range(1, CAR_MAX + 1):
        for m in range(1, CAR_MAX + 1):
            pairs.append(_car_pair(rng, n, m))
    for n in range(0, W_MAX + 1):
        pairs.append((f"W({n})", _product(rng, w_definition(n))))
    for n in range(1, X_MAX + 1):
        pairs.append((f"X({n})", _product(rng, x_definition(n))))
    for n, k in ZETA_SLOTS:
        pairs.append((_zeta(n, k), f"a({n + k})"))
    rng.shuffle(pairs)
    out: list[list[str]] = []
    for left, right in pairs:
        out.append(["expand", f"--expr={left}"])
        out.append(["expand", f"--expr={right}"])
    return out


def random_state(rng: random.Random, rep: str, terms: int) -> str:
    """A superposition of ``terms`` kets; word lengths are fixed by position."""
    cycles = rep.split("+")
    pieces: list[str] = []
    for j in range(terms):
        component = rng.randrange(len(cycles))
        node = rng.randrange(len(cycles[component]))
        word = "".join(rng.choice("12") for _ in range(j % 5))
        prefix = f"{component}:" if len(cycles) > 1 else ""
        ket = f"|{prefix}{word};{node}>"
        coeff = rng.choice(COEFFS)
        sign = rng.choice(("+", "-"))
        if not pieces:
            pieces.append(("-" if sign == "-" else "") + coeff + ket)
        else:
            pieces.append(f" {sign} {coeff}{ket}")
    return "".join(pieces)


def _identity_pair(rng: random.Random, kind: str, n: int) -> tuple[str, str]:
    sep = _sep(rng)
    if kind == "boson":
        return f"b({n})", f"t2*{sep}F({n})"
    if kind == "boson-adjoint":
        return f"b({n})*", f"F({n})*{sep}t2"
    if kind == "range-projection":
        return f"W({n - 1})", _product(rng, w_definition(n - 1))
    if kind == "car":
        # odd n meets another mode (the sum is 0), even n itself (the sum is I)
        m = n % 4 + 1 if n % 2 else n
        return _car_pair(rng, n, m)
    if kind == "rho":
        return f"rho(t2*{sep}F({n}))", f"rho(t2*){sep}rho(F({n}))"
    raise ValueError(kind)


PAIR_KINDS = ("boson", "boson-adjoint", "range-projection", "car", "rho")


def cli_queries(seed: int) -> list[list[str]]:
    """Apply pairs: both sides of a paper identity on one seeded state."""
    rng = random.Random(f"cli-queries/{seed}")
    slots = [
        (rep, kind, n, terms)
        for rep in QUERY_REPS
        for kind in PAIR_KINDS
        for n in range(1, 5)
        for terms in (1, 3, 5, 8)
    ]
    rng.shuffle(slots)
    out: list[list[str]] = []
    for rep, kind, n, terms in slots:
        state = random_state(rng, rep, terms)
        left, right = _identity_pair(rng, kind, n)
        for expr in (left, right):
            out.append(["apply", f"--rep={rep}", f"--expr={expr}", f"--state={state}"])
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fermion-chains",
            seeded=False,
            why="long Prod chains of fermions through the zeta recursion: closedforms and car checks",
            build=_check_pass(FERMION_CHAINS),
        ),
        Workload(
            "boson-series",
            seeded=False,
            why="series evaluators, rho recursion and the b(n) = t2* F(n) identity: ccr and main checks",
            build=_check_pass(BOSON_SERIES),
        ),
        Workload(
            "normal-forms",
            seeded=True,
            paired=True,
            why="expand queries: polynorm and scalar multiplies, with no StateVector or apply work",
            build=normal_forms,
        ),
        Workload(
            "cli-queries",
            seeded=True,
            paired=True,
            why="closed-loop apply query pairs on wide states: the only load on parsing and the CLI",
            build=cli_queries,
        ),
    )
}
