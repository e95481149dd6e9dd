"""Every name a module exports resolves, so deleting a function cannot
leave a stale entry in an ``__all__``; and each library module exports only
names it defines, since the package exports their lists joined."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mvnewton

# ``__main__`` runs the command line when imported
MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(mvnewton.__path__, "mvnewton.")
    if name != "mvnewton.__main__"
]

LIBRARY = [f"mvnewton.{name}" for name in ("multi_index", "grid", "newton", "analysis")]


def test_the_library_modules_declare_their_exports():
    declared = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert set(LIBRARY) <= declared


@pytest.mark.parametrize("module", ["mvnewton", *MODULES])
def test_every_exported_name_resolves(module):
    namespace = importlib.import_module(module)
    exported = getattr(namespace, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate entries"
    assert [name for name in exported if not hasattr(namespace, name)] == []


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module defines itself: functions, classes and assignments,
    not imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", LIBRARY)
def test_a_module_exports_only_what_it_defines(module):
    namespace = importlib.import_module(module)
    tree = ast.parse(Path(namespace.__file__).read_text())
    assert sorted(set(namespace.__all__) - top_level_names(tree)) == []


def defined_units(tree: ast.Module):
    """``(qualified name, name)`` of every function and class a module defines
    at its top level, and of every method of those classes; functions
    nested in a function are left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(root: Path) -> set[str]:
    """Every ``Name``, ``Attribute`` and imported name in the Python files under ``root``."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_every_unit_is_exported_or_has_a_caller_outside_the_tests():
    # a function whose only caller is its own unit test is dead code
    package = Path(mvnewton.__file__).parent
    used = referenced_names(package.parent) | referenced_names(package.parents[1] / "scripts")
    dead = []
    for module in MODULES:  # ``__init__`` and ``__main__`` define no unit
        namespace = importlib.import_module(module)
        exported = set(getattr(namespace, "__all__", ()))
        for qualified, name in defined_units(ast.parse(Path(namespace.__file__).read_text())):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in exported and name not in used:
                dead.append(f"{module}.{qualified}")
    assert dead == []
