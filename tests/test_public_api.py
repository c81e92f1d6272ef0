"""The package's public names: each module's ``__all__``, re-exported once."""

import importlib

import pytest

import mst

MODULES = ("blaschke", "dual", "modelspace", "operators", "rational", "verify", "wienerhopf")


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve_to_the_same_object(name):
    module = importlib.import_module(f"mst.{name}")
    for public in module.__all__:
        assert getattr(mst, public) is getattr(module, public), public


def test_package_exports_exactly_the_module_lists():
    declared = [n for name in MODULES for n in importlib.import_module(f"mst.{name}").__all__]
    assert mst.__all__ == declared
    assert len(set(declared)) == len(declared)
