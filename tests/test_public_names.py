"""Every name a fermigas module exports in __all__ exists in that module,
and every public function or class it defines is exported; no private
definition or module-level import is left without a use."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fermigas

MODULES = [
    importlib.import_module(f"fermigas.{info.name}")
    for info in pkgutil.iter_modules(fermigas.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_the_library_modules_export_names():
    assert {m.__name__ for m in EXPORTING} >= {
        f"fermigas.{name}" for name in (
            "specfun", "potential", "kernels", "schrodinger", "dpp",
            "experiments",
        )
    }


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_public_definition_is_exported(module):
    # the checked surface is the whole public surface; perfbench's tracer
    # wraps every public function, so it also traces the exported ones only
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


SOURCES = {path.name: ast.parse(path.read_text())
           for path in sorted(Path(fermigas.__file__).parent.glob("*.py"))}


def _private_definitions(tree):
    """(name, node): the module's top-level functions, classes and assigned
    names that begin with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(tree, name, skip=None):
    """How often the module reads name, as a name, an attribute or an
    imported alias, outside the subtree skip."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    return sum(
        id(node) not in inside and (
            isinstance(node, ast.Name) and node.id == name
            and not isinstance(node.ctx, ast.Store)
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name)
        for node in ast.walk(tree)
    )


def test_every_private_definition_is_used():
    # a helper whose last caller is deleted goes with it
    unused = [
        f"{module}:{name}"
        for module, tree in SOURCES.items()
        for name, node in _private_definitions(tree)
        if not any(_uses(other, name, node if other is tree else None)
                   for other in SOURCES.values())
    ]
    assert unused == []


def test_every_module_level_import_is_used():
    unused = []
    for module, tree in SOURCES.items():
        exported = {
            elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in exported and not _uses(tree, bound, node):
                    unused.append(f"{module}:{bound}")
    assert unused == []


# the private names one fermigas module imports from another, as (importer,
# source, name); the box, grid, price and probe rows of a solve live in
# schrodinger behind solve and boxed_hamiltonian, so no driver reaches them
CROSS_MODULE_PRIVATE = {
    ("cli", "experiments", "_filled_process"),
    ("experiments", "dpp", "_compressed"),
    ("experiments", "schrodinger", "_check_budget"),
    ("experiments", "schrodinger", "_weyl_constant_of_droplet"),
}


def test_private_names_cross_modules_only_on_the_allowlist():
    imported = {
        (module.removesuffix(".py"), node.module, alias.name)
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    }
    assert imported == CROSS_MODULE_PRIVATE
