import ast
import importlib
import inspect
from pathlib import Path

from greensched import schedulers

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    """The (module, attribute path) pairs in the benchmark tracer's TRACED."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/spans.py defines no TRACED")


def test_every_traced_name_resolves():
    # the tracer rebinds these by name, so a rename in the package breaks
    # the benchmark's traced run
    names = traced_names()
    assert names
    for module, attr in names:
        obj = importlib.import_module(f"greensched.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"greensched.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"greensched.{module}.{attr}"


def test_traced_state_constructor_is_a_classmethod():
    # the tracer rewraps dotted names as classmethods on their class
    assert ("schedulers", "OnlineState.create") in traced_names()
    assert isinstance(inspect.getattr_static(schedulers.OnlineState, "create"), classmethod)
