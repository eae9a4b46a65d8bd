"""The package root re-exports each module's ``__all__``, the one list of
that module's public names."""

import pytest

import shiftknot
from shiftknot import basis, curve, errors, files, oracle, surface

MODULES = (basis, curve, surface, errors, files)


def test_root_names_are_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(shiftknot.__all__) == sorted([*names, "__version__"])
    assert len(set(shiftknot.__all__)) == len(shiftknot.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_root_names_are_the_defining_objects(module):
    for name in module.__all__:
        assert getattr(shiftknot, name) is getattr(module, name), name


@pytest.mark.parametrize("name", ["BasisIndex", "RationalScalar", *oracle.__all__])
def test_removed_and_oracle_names_are_absent(name):
    assert name not in shiftknot.__all__
    assert not hasattr(shiftknot, name)
