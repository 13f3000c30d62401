"""Recorded parse outcomes: every grammar on a fixed-seed corpus of texts.

``parse_outcomes.json`` holds, for each text of ``corpus()``, what
``parse_expr`` returns, and what ``parse_state`` and ``parse_label`` return
on reps ``1``, ``12`` and ``1+12``: the node's ``repr``, the vector's
``serialize_vector`` text, the label's ``repr``, or the error's type,
position and message.  The test rebuilds the corpus from its seed and
requires every outcome to match byte for byte, so a change to the parser
that alters any value, message or column shows here.  Re-record with
``PYTHONPATH=src python tests/test_parse_corpus.py`` only at a commit whose
parser is the reference, and say why in CHANGES.md.
"""

import hashlib
import json
import random
from pathlib import Path

from cuntzrep.parsing import parse_expr, parse_label, parse_rep, parse_state, serialize_vector

RECORD = Path(__file__).with_name("parse_outcomes.json")
SEED = "parse-corpus/1"
REPS = ("1", "12", "1+12")

# The fuzz pieces of test_parsing, with whitespace inside literals and the
# malformed literals that the tokenizer must still place.
PIECES = (
    "sqrt", "zeta", "psi", "rho", "vac", "t1", "t2", "W", "X", "Y", "F", "I", "s", "a", "b",
    "a(1)", "s(2)", "b(1)", "F(2)", "psi(1/2)", "sqrt(2)", "vac(1)",
    "0", "1", "2", "3", "7", "02", "4097",
    "|1;0>", "|0:12;1>", "|;1>", "|1:;0>", "|1;", "|",
    "(", ")", "*", ".", "+", "-", "/", " ", "\t", "q", "é", ";", ">",
    "a ( 3 )", "sqrt ( 5 )", "2 / 3", "1/0", "2/", "1/2/3", "a(3/2)", "a()", "sqrt()",
    "psi(1)", "psi(1/3)", "vac(", "psi ( - 3 / 2 )", "vac ( 2 )", "W(0)", "X(2)",
)
ATOMS = (
    "t1", "t2", "Y", "I", "a(1)", "a ( 3 )", "b(2)", "s(2)", "F( 2)", "W(1)", "X(2)",
    "psi(-1/2)", "psi( 3 /2 )", "rho(t2*)", "zeta(a(1))", "(t1 + t2*)",
)
SCALARS = ("2", "1/2", "2 / 3", "sqrt(2)", "sqrt ( 5 )", "3/4", "(1 + sqrt(2))", "(sqrt(3) - 1/2)", "04/06")
# Valid on every rep of REPS but the last two, which name node or component 1.
KETS = ("vac", "vac ( 0 )", "|1;0>", "|2;0>", "|12;0>", "|0:1;0>", "|0:;0>", "|2;1>", "|1:2;1>")

_LONG = "9" * 4301
_FULL = "1" + "0" * 4299  # 4300 digits: the longest literal int() reads
SPECIAL = (
    "a(", "a(3/2)", "sqrt()", "2/", "1/0", "psi(1)", "a(4097)", "a(4096)", "s(4097)", "sqrt(0)",
    "a()", "1/2/3", "psi(1/3)", "psi(2/2)", "psi(-0/2)", "psi(-4097/2)", "vac(", "vac()", "vac(1/2)",
    f"sqrt({10**12})", f"sqrt({10**12 + 1})", "-0", " 0 ", "0 vac", "1/0 vac", "2/ |1;0>",
    _LONG, f"a({_LONG})", f"sqrt({_LONG})", f"1/{_LONG}", f"{_LONG}/2", f"|{_LONG}:1;0>",
    f"|1;{_LONG}>", f"vac({_LONG})", f"psi({_LONG}/2)", f"psi(1/{_LONG})",
    _FULL, f"{_FULL}/3 |1;0>", f"a({'0' * 4299}1)", f"sqrt({_FULL})",
    "(" * 64 + "t1" + ")" * 64, "(" * 65 + "t1" + ")" * 65,
)


def _structured(rng: random.Random) -> str:
    """A signed sum of products of atoms and scalars, or of kets after scalars."""
    state = rng.random() < 0.5
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [rng.choice(SCALARS) + rng.choice(("", "*", " ")) for _ in range(rng.randint(0, 2))]
        if state:
            factors.append(rng.choice(KETS))
        else:
            factors += [rng.choice(ATOMS) + rng.choice(("", "*", "**")) for _ in range(rng.randint(1, 3))]
        terms.append(rng.choice((" ", ".", "")).join(factors))
    signs = [rng.choice(("", "", "-", " - "))] + rng.choices((" + ", " - ", "+", "-"), k=len(terms) - 1)
    return "".join(sign + term for sign, term in zip(signs, terms))


def corpus() -> list[str]:
    rng = random.Random(SEED)
    texts = ["".join(rng.choices(PIECES, k=rng.randint(1, 12))) for _ in range(1600)]
    texts += [_structured(rng) for _ in range(400)]
    return texts + list(SPECIAL)


def _outcome(parse, text: str, show) -> str:
    try:
        return show(parse(text))
    except Exception as exc:  # noqa: BLE001 - every outcome is recorded
        return f"{type(exc).__name__}@{getattr(exc, 'position', None)}: {exc}"


def outcomes(text: str) -> list[str]:
    out = [_outcome(parse_expr, text, repr)]
    for name in REPS:
        rep = parse_rep(name)
        out.append(_outcome(lambda t: parse_state(rep, t), text, serialize_vector))
        out.append(_outcome(lambda t: parse_label(rep, t), text, repr))
    return out


def _digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def test_parse_outcomes_match_the_record():
    recorded = json.loads(RECORD.read_text())
    texts = corpus()
    assert (recorded["seed"], recorded["texts_sha256"]) == (SEED, _digest(texts))
    for text, expected in zip(texts, recorded["outcomes"]):
        assert outcomes(text) == expected, text


if __name__ == "__main__":
    texts = corpus()
    payload = {"seed": SEED, "texts_sha256": _digest(texts), "outcomes": [outcomes(t) for t in texts]}
    RECORD.write_text(json.dumps(payload, indent=0, ensure_ascii=False) + "\n")
