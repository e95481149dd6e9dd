"""Every name a module exports resolves, so deleting a function cannot
leave a stale entry in an ``__all__``."""
import importlib
import pkgutil

import pytest

import mvnewton

# ``__main__`` runs the command line when imported
MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(mvnewton.__path__, "mvnewton.")
    if name != "mvnewton.__main__"
]


def test_the_library_modules_declare_their_exports():
    declared = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    library = {f"mvnewton.{name}" for name in ("multi_index", "grid", "newton", "analysis")}
    assert library <= declared


@pytest.mark.parametrize("module", ["mvnewton", *MODULES])
def test_every_exported_name_resolves(module):
    namespace = importlib.import_module(module)
    exported = getattr(namespace, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate entries"
    assert [name for name in exported if not hasattr(namespace, name)] == []
