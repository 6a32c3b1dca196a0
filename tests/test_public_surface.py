"""The public surface: every exported name exists, and the package exports what it imports."""

import importlib
import pkgutil
import types

import pytest

import activevars

MODULES = [activevars] + [
    importlib.import_module(f"activevars.{info.name}")
    for info in pkgutil.iter_modules(activevars.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}, which do not exist"


def test_package_exports_exactly_what_it_imports():
    imported = {
        name
        for name, value in vars(activevars).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(activevars.__all__) == imported
