"""The benchmark's tracer wraps public functions by name; a renamed or
deleted function would break it.  Its ``LAYERS`` table is read as source,
without importing the benchmark."""
import ast
import importlib
from pathlib import Path

from mvnewton.multi_index import MultiIndexSet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_layers() -> list[str]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_layer_resolves_to_a_callable():
    layers = traced_layers()
    assert "newton.newton_basis_values" in layers and "analysis.lebesgue_estimate" in layers
    for name in layers:
        module, func = name.split(".")
        # the tracer wraps positions on the class, every other name in its module
        owner = MultiIndexSet if name == "multi_index.positions" else importlib.import_module(
            f"mvnewton.{module}"
        )
        assert callable(getattr(owner, func, None)), f"{name} is not a callable of mvnewton"
