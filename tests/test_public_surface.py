"""The public surface: every exported name exists, the package exports what it
imports, no module imports a name it neither uses nor exports, and the
algorithm modules compare no kernel kind."""

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_imports_a_name_it_does_not_use(module):
    # A stand-in for a linter's unused-import rule: deleting code must not
    # leave its imports behind.
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert not unused, f"{module.__name__} imports {sorted(unused)} and never uses them"


KERNEL_KINDS = {"wiener", "korobov", "custom"}


@pytest.mark.parametrize("name", ["cda", "cost", "optimal", "space", "truncation"])
def test_algorithm_modules_compare_no_kernel_kind(name):
    # Subset orthogonality has one owner, KernelSpec.zero_mean.  A module
    # that compared kind names would decide it again, and could decide a
    # custom spectrum differently from the others.
    tree = ast.parse(inspect.getsource(importlib.import_module(f"activevars.{name}")))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            (isinstance(leaf, ast.Constant) and leaf.value in KERNEL_KINDS)
            or (isinstance(leaf, ast.Attribute) and leaf.attr == "kind")
            for operand in [node.left, *node.comparators]
            for leaf in ast.walk(operand)
        )
    ]
    assert not lines, f"activevars.{name} compares a kernel kind on lines {lines}"


ERROR_CLASSES = {
    "ActiveVarsError",
    "InvalidArgumentError",
    "InvalidConfigurationError",
    "DivergenceError",
    "UnsupportedScaleError",
    "TailCertificateError",
    "EnumerationCapError",
    "CertificationError",
}


def test_each_error_class_is_raised_somewhere():
    # One class per kind of decision: a class that no library code raises
    # splits a decision another class makes, or names none at all.
    errors = importlib.import_module("activevars.errors")
    defined = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert defined == ERROR_CLASSES
    raised = set()
    for module in MODULES:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name):
                    raised.add(target.id)
    assert ERROR_CLASSES - {"ActiveVarsError"} <= raised
