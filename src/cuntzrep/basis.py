"""Reference basis of a permutative representation, as a label automaton.

A representation is specified by a nonempty list of primitive cycle words
over the alphabet {1, 2}, one per direct summand.  A component with cycle
word ``w`` of length L carries cycle vectors indexed 0..L-1: node 0 is the
vector fixed by the full cycle, and node k is the state of the cycle after
the last L-k letters of ``w`` have been applied to node 0.  Every basis
vector is a normal-form label (component, word, node), read as "apply the
generator word, letter by letter from the right, to cycle vector ``node``".

Normal form: the word is empty or its last letter differs from the edge
letter of the node, where edge(k) is the cycle letter that maps node k one
step around the cycle (edge(k) = w[k-1 mod L], 0-indexed).  Appending the
edge letter is the same vector one node earlier, so normalization strips
trailing edge letters and decrements the node modulo L.

Generators act by prefixing a letter and renormalizing; adjoint generators
strip the first letter when it matches (else annihilate), and on a cycle
vector step forward around the cycle when the letter matches the outgoing
cycle letter (else annihilate).
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional

__all__ = [
    "ALPHABET",
    "RepValidationError",
    "RepSpec",
    "BasisLabel",
    "is_primitive",
    "edge_letter",
    "normalize_label",
    "strip_edge_letters",
    "apply_gen",
    "apply_gen_adjoint",
    "enumerate_basis",
    "label_sort_key",
]

ALPHABET = "12"
# enumerate_basis refuses more labels than this; 2^20 on rep 1 takes about 5 s.
_MAX_BASIS_LABELS = 1 << 20
# No basis word grows longer: twice the parser's index bound, so s(4096) s(4096)
# vac fits.  Only the stepwise apply_gen path copies the word per letter, at the
# square of its length; the kernel slices it once (8192 letters: about 5 ms).
_MAX_WORD_LENGTH = 8192


class RepValidationError(ValueError):
    """Raised for cycle words that do not define a valid representation."""


def is_primitive(word: str) -> bool:
    """True when ``word`` is not a power of a strictly shorter word."""
    return (word + word).find(word, 1) == len(word)


def _check_component(pos: int, word: str) -> None:
    if not word:
        raise RepValidationError(f"component {pos}: cycle word is empty")
    bad = set(word) - set(ALPHABET)
    if bad:
        raise RepValidationError(
            f"component {pos}: cycle word {word!r} uses letters outside {{1,2}}"
        )
    if not is_primitive(word):
        raise RepValidationError(
            f"component {pos}: cycle word {word!r} is a power of a shorter word"
        )


class RepSpec(tuple):
    """Validated direct sum of cycle components: the tuple of its cycle words.

    ``rep[c]`` is component c's cycle word.  Equality, hashing and
    immutability are the tuple's, so a rep equals the plain tuple of its
    words; copy and pickle, on every protocol, rebuild it through
    ``__new__``, which validates.
    """

    __slots__ = ()

    def __new__(cls, components: Iterable[str]) -> "RepSpec":
        components = tuple(components)
        if not components:
            raise RepValidationError("representation needs at least one cycle word")
        for pos, word in enumerate(components):
            _check_component(pos, word)
        return tuple.__new__(cls, components)

    components = property(tuple)

    def __reduce__(self) -> tuple:
        return type(self), (tuple(self),)

    def __repr__(self) -> str:
        return f"RepSpec(components={tuple(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "RepSpec":
        """Parse ``"12"`` or a direct sum ``"1+12"``."""
        return cls(part.strip() for part in text.split("+"))

    def __str__(self) -> str:
        return "+".join(self)


class BasisLabel(NamedTuple):
    """Normal-form name of one reference basis vector."""

    component: int
    word: str
    node: int


def label_sort_key(label: BasisLabel) -> tuple[int, int, int, str]:
    """Canonical enumeration order: component, node, word length, word."""
    return (label.component, label.node, len(label.word), label.word)


def edge_letter(rep: RepSpec, component: int, node: int) -> str:
    """Cycle letter whose application moves node k to node k-1 (mod L)."""
    cycle = rep[component]
    return cycle[(node - 1) % len(cycle)]


def normalize_label(rep: RepSpec, component: int, word: str, node: int) -> BasisLabel:
    """Strip trailing edge letters, stepping the node back around the cycle."""
    label = strip_edge_letters(rep, component, word, node)
    # the oracles' letter steps land here (the kernel's word-slice steps and
    # the parser's kets do not); str.count scans in C without hashing letters
    if word.count("1") + word.count("2") != len(word):
        raise ValueError(f"word {word!r} uses letters outside {{1,2}}")
    return label


def strip_edge_letters(rep: RepSpec, component: int, word: str, node: int) -> BasisLabel:
    """``normalize_label`` for a word already known to be over {1, 2}:
    the same range checks and stripping, without the scan of its letters."""
    if not 0 <= component < len(rep):
        raise ValueError(f"component {component} out of range for {rep}")
    cycle = rep[component]
    if not 0 <= node < len(cycle):
        raise ValueError(f"node {node} out of range for cycle {cycle!r}")
    end = len(word)
    while end and word[end - 1] == cycle[node - 1]:  # edge_letter(rep, component, node)
        end -= 1
        node = (node - 1) % len(cycle)
    return BasisLabel(component, word[:end], node)


def _word_bound_error() -> ValueError:
    """The error of a step that would build a word past ``_MAX_WORD_LENGTH``."""
    return ValueError(f"a basis word would pass the bound of {_MAX_WORD_LENGTH} letters")


def apply_gen(rep: RepSpec, i: int, label: BasisLabel) -> BasisLabel:
    """Generator t_i on a basis label: prefix the letter, renormalize.

    Raises ValueError when the word would pass ``_MAX_WORD_LENGTH`` letters.
    """
    word = str(i) + label.word
    if len(word) > _MAX_WORD_LENGTH:
        raise _word_bound_error()
    return normalize_label(rep, label.component, word, label.node)


def apply_gen_adjoint(rep: RepSpec, i: int, label: BasisLabel) -> Optional[BasisLabel]:
    """Adjoint generator t_i* on a basis label; None means annihilated.

    On a nonempty word the first letter must match.  On a cycle vector the
    letter must match the outgoing cycle letter w[node], which moves the
    node forward: t_i* Omega_k = Omega_{k+1 mod L} exactly when i = w[k].
    """
    if label.word:
        if label.word[0] == str(i):
            return BasisLabel(label.component, label.word[1:], label.node)
        return None
    cycle = rep[label.component]
    if cycle[label.node] == str(i):
        return BasisLabel(label.component, "", (label.node + 1) % len(cycle))
    return None


def enumerate_basis(rep: RepSpec, depth: int) -> list[BasisLabel]:
    """All normal-form labels with word length <= depth, in canonical order.

    Each cycle node heads 2^depth labels: the empty word, and 2^(k-1) words
    of each length k that do not end in the node's edge letter.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    nodes = sum(map(len, rep))
    # the depth test comes first, so a huge depth never builds 2^depth
    if depth > _MAX_BASIS_LABELS.bit_length() or nodes << depth > _MAX_BASIS_LABELS:
        raise ValueError(
            f"depth {depth} on {rep} gives {nodes} * 2^{depth} basis labels, "
            f"more than the bound of {_MAX_BASIS_LABELS}"
        )
    out: list[BasisLabel] = []
    for component, cycle in enumerate(rep):
        for node in range(len(cycle)):
            barred = edge_letter(rep, component, node)
            out.append(BasisLabel(component, "", node))
            for length in range(1, depth + 1):
                for letters in itertools.product(ALPHABET, repeat=length):
                    if letters[-1] != barred:
                        out.append(BasisLabel(component, "".join(letters), node))
    return out
