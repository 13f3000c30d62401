"""Cycle-word representations: validation, label normal form, generator moves."""

import copy
import itertools
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuntzrep.basis import (
    BasisLabel,
    RepSpec,
    RepValidationError,
    apply_gen,
    apply_gen_adjoint,
    edge_letter,
    enumerate_basis,
    is_primitive,
    label_sort_key,
    normalize_label,
    strip_edge_letters,
)

FOCK = RepSpec.parse("1")
WEDGE = RepSpec.parse("12")
TRIPLE = RepSpec.parse("112")


def test_is_primitive():
    assert is_primitive("1")
    assert is_primitive("2")
    assert is_primitive("12")
    assert is_primitive("112")
    assert not is_primitive("11")
    assert not is_primitive("1212")
    assert not is_primitive("121121")


def test_validate_rejects_bad_components():
    with pytest.raises(RepValidationError):
        RepSpec.parse("1212")
    with pytest.raises(RepValidationError):
        RepSpec.parse("22")
    with pytest.raises(RepValidationError):
        RepSpec.parse("")
    with pytest.raises(RepValidationError):
        RepSpec.parse("13")
    with pytest.raises(RepValidationError):
        RepSpec.parse("1+22")


@pytest.mark.parametrize(
    "components, message",
    [
        ([], "representation needs at least one cycle word"),
        (["13"], "component 0: cycle word '13' uses letters outside {1,2}"),
        (["11"], "component 0: cycle word '11' is a power of a shorter word"),
    ],
)
def test_rep_constructor_refuses_bad_components(components, message):
    with pytest.raises(RepValidationError, match=re.escape(message)):
        RepSpec(components)


def test_rep_is_the_tuple_of_its_cycle_words():
    # equality, hashing and immutability are the tuple's own; every pickle
    # protocol rebuilds the rep through the class
    for name in ("__eq__", "__hash__", "__setattr__"):
        assert name not in vars(RepSpec)
    rep = RepSpec.parse("1+12")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert rep.__reduce_ex__(protocol) == (RepSpec, (("1", "12"),))
    assert rep == ("1", "12") and hash(rep) == hash(("1", "12"))
    assert rep[1] == "12" and len(rep) == 2
    assert rep.components == ("1", "12") and type(rep.components) is tuple
    for twin in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep), copy.copy(rep)):
        assert type(twin) is RepSpec and twin == rep
    # unpickling goes back through __new__, so a forged payload is refused
    forged = pickle.dumps(RepSpec(["12"])).replace(b"12", b"11")
    with pytest.raises(RepValidationError):
        pickle.loads(forged)
    for name in ("components", "cycle", "anything"):
        with pytest.raises(AttributeError):
            setattr(rep, name, ("2",))
    assert rep.components == ("1", "12")


def test_validate_accepts_direct_sums():
    rep = RepSpec(["1", "12"])
    assert rep.components == ("1", "12")
    assert str(rep) == "1+12"
    assert RepSpec.parse("1+12") == rep
    # the all-twos cycle is a legitimate primitive word
    assert RepSpec.parse("2").components == ("2",)


def test_edge_letter_convention():
    # edge(k) is the letter whose generator maps node k onto node k-1
    assert edge_letter(FOCK, 0, 0) == "1"
    assert edge_letter(WEDGE, 0, 0) == "2"
    assert edge_letter(WEDGE, 0, 1) == "1"
    assert edge_letter(TRIPLE, 0, 0) == "2"
    assert edge_letter(TRIPLE, 0, 1) == "1"
    assert edge_letter(TRIPLE, 0, 2) == "1"


def test_normalize_strips_trailing_edge_letters():
    assert normalize_label(FOCK, 0, "11", 0) == BasisLabel(0, "", 0)
    assert normalize_label(FOCK, 0, "21", 0) == BasisLabel(0, "2", 0)
    assert normalize_label(FOCK, 0, "2", 0) == BasisLabel(0, "2", 0)
    # t1 t2 vac = vac in the two-cycle: "12" at node 0 collapses fully
    assert normalize_label(WEDGE, 0, "12", 0) == BasisLabel(0, "", 0)
    assert normalize_label(WEDGE, 0, "2", 1) == BasisLabel(0, "2", 1)
    # t2 t1 applied to the node-1 cycle vector walks the cycle fully around
    assert normalize_label(WEDGE, 0, "21", 1) == BasisLabel(0, "", 1)
    assert normalize_label(WEDGE, 0, "1", 1) == BasisLabel(0, "", 0)
    assert normalize_label(TRIPLE, 0, "112", 0) == BasisLabel(0, "", 0)


def test_normalize_validates_input():
    with pytest.raises(ValueError):
        normalize_label(FOCK, 0, "13", 0)
    with pytest.raises(ValueError):
        normalize_label(FOCK, 0, "1", 1)
    with pytest.raises(ValueError):
        normalize_label(FOCK, 1, "1", 0)


def _stripped_by_edge_letter(rep, component, word, node):
    """The stripping loop as the normal form states it, through edge_letter."""
    while word and word[-1] == edge_letter(rep, component, node):
        word, node = word[:-1], (node - 1) % len(rep[component])
    return BasisLabel(component, word, node)


@pytest.mark.parametrize("reptext", ["1", "2", "12", "112", "1+12", "1112122"])
def test_strip_edge_letters_matches_normalize_label(reptext):
    rep = RepSpec.parse(reptext)
    for component, cycle in enumerate(rep):
        for node in range(len(cycle)):
            for length in range(8):
                for letters in itertools.product("12", repeat=length):
                    word = "".join(letters)
                    want = _stripped_by_edge_letter(rep, component, word, node)
                    assert strip_edge_letters(rep, component, word, node) == want
                    assert normalize_label(rep, component, word, node) == want


@pytest.mark.parametrize(
    "component, word, node, message",
    [
        (1, "1", 0, "component 1 out of range for 1"),
        (1, "13", 0, "component 1 out of range for 1"),
        (0, "13", 1, "node 1 out of range for cycle '1'"),
        (0, "13", 0, "word '13' uses letters outside {1,2}"),
    ],
)
def test_normalize_checks_ranges_before_letters(component, word, node, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        normalize_label(FOCK, component, word, node)
    if "letters" not in message:
        with pytest.raises(ValueError, match=re.escape(message)):
            strip_edge_letters(FOCK, component, word, node)


def test_apply_gen_wedge_anchors():
    vac = BasisLabel(0, "", 0)
    dual = BasisLabel(0, "", 1)
    assert apply_gen(WEDGE, 2, vac) == dual
    assert apply_gen(WEDGE, 1, dual) == vac
    assert apply_gen(WEDGE, 1, vac) == BasisLabel(0, "1", 0)
    assert apply_gen(WEDGE, 2, dual) == BasisLabel(0, "2", 1)


def test_apply_gen_adjoint_on_cycle_vectors():
    vac = BasisLabel(0, "", 0)
    dual = BasisLabel(0, "", 1)
    assert apply_gen_adjoint(WEDGE, 1, vac) == dual
    assert apply_gen_adjoint(WEDGE, 2, vac) is None
    assert apply_gen_adjoint(WEDGE, 2, dual) == vac
    assert apply_gen_adjoint(WEDGE, 1, dual) is None
    assert apply_gen_adjoint(FOCK, 1, vac) == vac
    assert apply_gen_adjoint(FOCK, 2, vac) is None


def test_apply_gen_adjoint_on_words():
    lab = BasisLabel(0, "2", 0)
    assert apply_gen_adjoint(FOCK, 2, lab) == BasisLabel(0, "", 0)
    assert apply_gen_adjoint(FOCK, 1, lab) is None
    deep = BasisLabel(0, "12", 0)
    assert apply_gen_adjoint(FOCK, 1, deep) == BasisLabel(0, "2", 0)


def test_enumerate_fock_depth_two():
    labels = enumerate_basis(FOCK, 2)
    assert labels == [
        BasisLabel(0, "", 0),
        BasisLabel(0, "2", 0),
        BasisLabel(0, "12", 0),
        BasisLabel(0, "22", 0),
    ]


def test_enumerate_wedge_depth_one():
    labels = enumerate_basis(WEDGE, 1)
    assert labels == [
        BasisLabel(0, "", 0),
        BasisLabel(0, "1", 0),
        BasisLabel(0, "", 1),
        BasisLabel(0, "2", 1),
    ]


def test_enumerate_rejects_negative_depth():
    with pytest.raises(ValueError):
        enumerate_basis(FOCK, -1)


def _brute_force(rep, depth):
    out = set()
    for c, cyc in enumerate(rep.components):
        for node in range(len(cyc)):
            for length in range(depth + 1):
                for letters in itertools.product("12", repeat=length):
                    word = "".join(letters)
                    if word and word[-1] == edge_letter(rep, c, node):
                        continue
                    out.add(BasisLabel(c, word, node))
    return out


@pytest.mark.parametrize("reptext", ["1", "2", "12", "112", "1+12"])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_enumerate_matches_brute_force(reptext, depth):
    rep = RepSpec.parse(reptext)
    labels = enumerate_basis(rep, depth)
    assert len(labels) == len(set(labels))
    assert set(labels) == _brute_force(rep, depth)
    assert labels == sorted(labels, key=label_sort_key)


_reps = st.sampled_from([FOCK, WEDGE, TRIPLE, RepSpec.parse("1+12")])


@st.composite
def rep_and_label(draw):
    rep = draw(_reps)
    component = draw(st.integers(0, len(rep.components) - 1))
    node = draw(st.integers(0, len(rep[component]) - 1))
    word = "".join(draw(st.lists(st.sampled_from("12"), max_size=6)))
    return rep, normalize_label(rep, component, word, node)


@given(rep_and_label())
def test_normalize_is_idempotent(data):
    rep, label = data
    again = normalize_label(rep, label.component, label.word, label.node)
    assert again == label


@given(rep_and_label(), st.sampled_from([1, 2]))
def test_adjoint_undoes_generator(data, i):
    rep, label = data
    assert apply_gen_adjoint(rep, i, apply_gen(rep, i, label)) == label


@given(rep_and_label())
def test_exactly_one_generator_hits(data):
    rep, label = data
    images = [apply_gen_adjoint(rep, i, label) for i in (1, 2)]
    assert sum(1 for x in images if x is not None) == 1


@given(rep_and_label(), st.sampled_from([1, 2]))
def test_generator_image_is_normal(data, i):
    rep, label = data
    image = apply_gen(rep, i, label)
    renorm = normalize_label(rep, image.component, image.word, image.node)
    assert renorm == image


@pytest.mark.parametrize("text", ["1", "12", "112", "1+12", "2", "1122"])
def test_rep_hash_is_kept_across_pickle(text):
    rep = RepSpec.parse(text)
    twin = pickle.loads(pickle.dumps(rep))
    assert twin == rep and twin is not rep
    assert hash(twin) == hash(rep) == hash(rep.components)
    assert {rep: 1}[twin] == 1
    with pytest.raises(AttributeError):
        twin._hash = 0
