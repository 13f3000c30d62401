"""The package namespace is the union of the submodules' exports."""

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
