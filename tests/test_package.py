"""The package namespace is the union of the submodules' exports, and the
README's library examples run."""

from pathlib import Path

import pytest

import cuntzrep
from cuntzrep import basis, operators, parsing, polynorm, scalars, states, suites

SUBMODULES = (basis, operators, parsing, polynorm, scalars, states, suites)


def test_no_name_is_exported_by_two_submodules():
    # a star import would silently let the later module shadow the earlier
    owner: dict[str, str] = {}
    for module in SUBMODULES:
        for name in module.__all__:
            assert name not in owner, f"{name} in {owner.get(name)} and {module.__name__}"
            owner[name] = module.__name__


def test_every_package_export_resolves_to_its_submodule_object():
    exported = {name for module in SUBMODULES for name in module.__all__}
    assert set(cuntzrep.__all__) == exported | {"__version__"}
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(cuntzrep, name) is getattr(module, name)


def _library_blocks():
    """The python blocks of the README's "Library" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]


def test_readme_library_section_has_two_blocks():
    assert len(_library_blocks()) == 2


@pytest.mark.parametrize("block", _library_blocks())
def test_readme_library_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})
