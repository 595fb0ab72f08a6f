import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from greensched import experiment, schedulers
from greensched.experiment import ExperimentConfig
from greensched.model import SimConfig
from greensched.schedulers import KINDS

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


def _spans_module():
    """benchmarks/spans.py, imported from its file; the tests never write spans."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweep_counts_what_the_benchmark_reports():
    # the benchmark's per-layer numbers count the engine's calls through the
    # names it rebinds: one commit per admitted job and one run_online per
    # policy run, so an engine or sweep change that bypasses them shows here
    cfg = ExperimentConfig(
        sim=SimConfig(machines=4, horizon_slots=96, forecast_slots=48),
        green="synthetic",
        families=("UU",),
        utilization=(1.2,),
        algorithms=KINDS,
        repetitions=1,
        master_seed=3,
    )
    run_suite = experiment.run_suite
    tracer = _spans_module().Tracer()
    tracer.install()
    try:
        tables = tracer.run_op("sweep", 0, lambda: experiment.run_suite(cfg))
    finally:
        tracer.uninstall()
    assert experiment.run_suite is run_suite
    metrics = {name: value for name, (value, _) in tracer.layer_metrics(1).items()}
    runs = tables["runs"]
    scheduled = sum(row["jobs_scheduled"] for row in runs)
    offered = sum(row["jobs_offered"] for row in runs)
    assert len(runs) == len(KINDS)
    assert 0 < scheduled < offered
    assert metrics["model.commit.calls"] == scheduled
    assert metrics["schedulers.run_online.calls"] == len(runs)
    assert metrics["sweep.admit_share"] == scheduled / offered
