import ast
from collections.abc import Callable
from pathlib import Path

import greensched

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "greensched"

# package modules each module may import; the exact optimum must not depend
# on the online policies it is the benchmark for
ALLOWED = {
    "model": set(),
    "pricing": {"model"},
    "schedulers": {"model", "pricing"},
    "offline": {"model", "pricing"},
    "workload": {"model", "pricing"},
    "adversary": {"model", "offline", "pricing", "schedulers"},
    "experiment": {"model", "offline", "pricing", "schedulers", "workload"},
    "cli": {"adversary", "experiment", "offline", "pricing", "workload"},
    "__init__": {
        "adversary", "experiment", "model", "offline", "pricing", "schedulers", "workload",
    },
}


def package_imports(source: str) -> set[str]:
    """Names of the greensched modules a module's source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                names = [node.module or ""]
            elif node.module:
                names = ["greensched." + node.module]
            else:
                names = ["greensched." + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("greensched."):
                found.add(name.split(".")[1])
    return found


def test_modules_import_only_lower_layers():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert set(modules) == set(ALLOWED)
    for name, path in sorted(modules.items()):
        extra = package_imports(path.read_text()) - ALLOWED[name]
        assert not extra, f"{name} imports {sorted(extra)}"


def test_import_scan_sees_every_form():
    # relative, relative-package, absolute and nested forms all count
    source = (
        "import numpy\nfrom .schedulers import run_online\nfrom . import cli\n"
        "import greensched.workload\ndef f():\n    from greensched.adversary import x\n"
    )
    assert package_imports(source) == {"schedulers", "cli", "workload", "adversary"}


def callee(func: ast.expr) -> tuple[str | None, str] | None:
    """``(owner, attr)`` of a call to ``owner.attr``, ``(None, name)`` of a bare ``name``."""
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id, func.attr
    return None


def enclosing(source: str, hit: Callable[[ast.AST], bool]) -> set[str | None]:
    """Names of the innermost functions holding a node ``hit`` accepts
    (None for the module level)."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif hit(node):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def callers(source: str, owner: str | None, attr: str) -> set[str | None]:
    """Names of the innermost functions whose body calls ``owner.attr(...)``,
    or the bare ``attr(...)`` when ``owner`` is None."""
    return enclosing(
        source, lambda node: isinstance(node, ast.Call) and callee(node.func) == (owner, attr)
    )


def test_one_function_plays_the_engine():
    # every engine run starts in schedulers._play, so a check made there
    # sees every run
    sites = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in callers(path.read_text(), "OnlineState", "create")
    }
    assert sites == {("schedulers", "_play")}


def test_only_the_cli_searches_node_ids():
    # the exact solvers return fungible capacity; fixed node ids are a
    # separate search, run once where they are printed
    sites = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for owner in (None, "offline")
        for name in callers(path.read_text(), owner, "node_assignment")
    }
    assert sites == {("cli", "_cmd_opt")}


def test_call_scan_sees_nested_and_module_level_calls():
    source = (
        "OnlineState.create(g)\ndef f():\n    def g():\n        OnlineState.create(1)\n"
        "    return g\ndef h():\n    state.create(2)\n    OnlineState.build(3)\n"
    )
    assert callers(source, "OnlineState", "create") == {None, "g"}


def test_call_scan_sees_bare_name_calls():
    source = (
        "open(p)\ndef f():\n    open(q)\n    fh.open(r)\ndef g():\n"
        "    def h():\n        ingest_swf(x)\n    opener(y)\n    return h\n"
    )
    assert callers(source, None, "open") == {None, "f"}
    assert callers(source, None, "ingest_swf") == {"h"}
    assert callers(source, "fh", "open") == {"f"}


def test_generate_reads_no_file():
    # a Real job list is sample_jobs of a trace read once per sweep;
    # generate builds the synthetic families only
    source = (PACKAGE / "workload.py").read_text()
    assert "ingest_swf" in callers(source, None, "open")
    for name in ("open", "ingest_swf"):
        assert "generate" not in callers(source, None, name)


def release_keys(source: str) -> int:
    """How many tuples in the source start with ``x.release, x.deadline``."""
    return sum(
        isinstance(node, ast.Tuple)
        and [getattr(e, "attr", None) for e in node.elts[:2]] == ["release", "deadline"]
        for node in ast.walk(ast.parse(source))
    )


def test_one_function_builds_the_release_order():
    # policies, solvers and trace ingestion take jobs in one order, stated
    # once in model.release_order
    counts = {path.stem: release_keys(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"model": 1}


def test_release_key_scan_sees_lambdas_and_bare_tuples():
    source = (
        "sorted(js, key=lambda j: (j.release, j.deadline, j.id))\n"
        "k = (a.release, b.deadline)\n(j.deadline, j.release)\n(row[0], row[1])\n"
    )
    assert release_keys(source) == 2


ONPEAK_FIELDS = {"peak_override", "onpeak_start_slot", "onpeak_end_slot"}


def onpeak_readers(source: str) -> set[str | None]:
    """Innermost functions that read an on-peak field of a tariff; the
    tariff's own methods, which read ``self``, check its fields only."""
    return enclosing(
        source,
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in ONPEAK_FIELDS
        and not (isinstance(node.value, ast.Name) and node.value.id == "self"),
    )


def test_one_function_holds_the_onpeak_rule():
    # prices, RF's coin and Staggered releases all take their on-peak flags
    # from pricing.onpeak_vector, so the rule and its window check live there
    sites = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in onpeak_readers(path.read_text())
    }
    assert sites == {("pricing", "onpeak_vector")}


def test_onpeak_scan_sees_any_owner_but_self():
    source = (
        "t.peak_override\ndef f(tariff):\n    return tariff.onpeak_end_slot\n"
        "def g(self):\n    return self.onpeak_start_slot, 'peak_override'\n"
        "def h(x):\n    return x.cfg.onpeak_start_slot\n"
    )
    assert onpeak_readers(source) == {None, "f", "h"}


RNG_BUILDERS = {"Generator", "default_rng", "PCG64"}


def rng_builders(source: str) -> set[str | None]:
    """Innermost functions that name a numpy generator builder, by any owner
    (``callers`` sees ``owner.attr`` only, not ``np.random.attr``)."""
    return enclosing(
        source, lambda node: isinstance(node, ast.Attribute) and node.attr in RNG_BUILDERS
    )


def test_one_function_builds_a_generator_in_schedulers():
    # run_trials draws every seed from the batched uint64 path, so no
    # per-seed generator may return there; the one generator is built at
    # the first flip of the coin that _seeded_coin returns
    source = (PACKAGE / "schedulers.py").read_text()
    [seeded] = [n for n in ast.parse(source).body if getattr(n, "name", None) == "_seeded_coin"]
    seeded = ast.get_source_segment(source, seeded)
    assert rng_builders(seeded) == {"coin"}
    assert rng_builders(source.replace(seeded, "")) == set()


def test_rng_scan_sees_any_owner_depth():
    source = (
        "np.random.default_rng(1)\ndef f():\n    return np.random.Generator(np.random.PCG64(2))\n"
        "def g():\n    return rng.random()\ndef h():\n    return random.PCG64\n"
    )
    assert rng_builders(source) == {None, "f", "h"}


SHARED_DRAWS = {"_shared_draws", "_SeedDraws"}


def draw_readers(source: str) -> set[str | None]:
    """Innermost functions that name the shared draws or their class, bare
    or as an attribute of any owner."""
    return enclosing(
        source,
        lambda node: (isinstance(node, ast.Name) and node.id in SHARED_DRAWS)
        or (isinstance(node, ast.Attribute) and node.attr in SHARED_DRAWS),
    )


def test_only_run_trials_reaches_the_shared_draws():
    # a seed range's draw columns are built once and shared: the module
    # level wraps the class in the one cache, and run_trials is its one
    # reader, so no other path draws a column or holds one
    sites = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in draw_readers(path.read_text())
    }
    assert sites == {("schedulers", None), ("schedulers", "run_trials")}


def test_draw_scan_sees_names_and_attributes():
    source = (
        "_shared_draws = cache(_SeedDraws)\ndef f(s):\n    return schedulers._shared_draws(s)\n"
        "def g():\n    x = _SeedDraws\n    return '_shared_draws'\ndef h(d):\n    return d.columns\n"
    )
    assert draw_readers(source) == {None, "f", "g"}


REPO = PACKAGE.parents[1]

# exported but called by nothing outside the tests: the benchmark traces
# model.preemptive_slots by name only, and ROADMAP item 1 moves it to
# tests/oracles.py together with the tracer list
UNCALLED_EXPORTS = {"preemptive_slots"}


def references(source: str) -> set[str]:
    """Names read as a Name or an Attribute outside the definition they name."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        elif isinstance(node, ast.Name) and node.id not in owners:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in owners:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(ast.parse(source), frozenset())
    return found


def test_every_export_has_a_caller_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(REPO / "demos").glob("*.py"), *(REPO / "benchmarks").glob("*.py")]
    used = set().union(*(references(path.read_text()) for path in sources))
    assert set(greensched.__all__) - used == UNCALLED_EXPORTS


def test_reference_scan_skips_a_definitions_own_body():
    source = (
        "def f(n):\n    return f(n - 1)\nclass C:\n    def m(self):\n        return C.k\n"
        "g(x.attr)\n"
    )
    assert references(source) == {"n", "k", "g", "x", "attr"}
