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
