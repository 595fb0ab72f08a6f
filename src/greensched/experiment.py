"""Sweep harness: workloads x algorithms x repetitions, to CSV.

A sweep crosses workload families and load points with a set of policies,
repeating each cell with paired seeds: the workload for (family, point, rep)
is derived from the master seed without the algorithm name, so every policy
faces the identical job list and differences are pure policy. The algorithm
name enters only the placement-RNG seed (the randomized policy's coin).

Outputs are plain CSV, rows keyed and sorted before writing so results do
not depend on execution order, and byte-identical across runs of the same
config.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .model import Job, SimConfig
from .offline import MAX_STEPS, solve_nonpreemptive_exact
from .pricing import (
    GreenTrace,
    Tariff,
    account,
    load_solar_csv,
    normalized_values,
    onpeak_vector,
    random_fit_params,
    synthetic_solar,
)
from .schedulers import KINDS, SchedulerKind, run_online
from .workload import FAMILIES, WorkloadSpec, check_fits, generate, ingest_swf, sample_jobs


class ExperimentError(RuntimeError):
    """A sweep cell failed; the message names the cell."""


@dataclass
class ExperimentConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    tariff: Tariff = field(default_factory=Tariff)
    green: str = "synthetic"  # synthetic | zero | solar:<csv path>
    families: tuple[str, ...] = ("UE",)
    utilization: tuple[float, ...] = (0.1, 0.5, 1.0)
    job_counts: tuple[int, ...] = ()  # Real family sweep points
    swf_path: str | None = None
    fixed_p: int = WorkloadSpec.fixed_p
    fixed_q: int = WorkloadSpec.fixed_q
    day_fraction: float = WorkloadSpec.day_fraction
    span_days: int = WorkloadSpec.span_days
    deadline_factor: int = 4  # Real: deadline = release + factor * p
    algorithms: tuple[str, ...] = ("FF", "BF", "RF")
    repetitions: int = 30
    include_offline: bool = False
    offline_max_steps: int = MAX_STEPS
    output_dir: str | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        # a point is one value: stable_seed would key 1 and 1.0 apart
        self.utilization = tuple(map(float, self.utilization))
        if any(n % 1 for n in self.job_counts):  # nan and inf leave a nan remainder
            raise ValueError(f"job counts must be whole numbers, got {self.job_counts}")
        self.job_counts = tuple(map(int, self.job_counts))
        for f in self.families:
            if f not in FAMILIES and f != "Real":
                raise ValueError(f"unknown family {f!r}")
        for a in self.algorithms:
            if a not in KINDS:
                raise ValueError(f"unknown algorithm {a!r}")
        # a repeated entry would play its cells twice (1 and 1.0 are one point)
        for label, values in (
            ("family", self.families),
            ("utilization", self.utilization),
            ("job count", self.job_counts),
            ("algorithm", self.algorithms),
        ):
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"{label} {v!r} is repeated")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.offline_max_steps < 1:
            raise ValueError("offline_max_steps must be >= 1")
        onpeak_vector(self.tariff, self.sim)  # raises if the window ends past the day
        synthetic = [f for f in self.families if f != "Real"]
        if synthetic and not self.utilization:
            raise ValueError("utilization sweep must not be empty")
        if self.deadline_factor < 1:
            raise ValueError("deadline_factor must be >= 1")
        # every cell's workload knobs are checked now, not when the sweep reaches it
        for family, point in itertools.product(synthetic, self.utilization):
            cell_spec(self, family, point, 0)
        if "Real" in self.families and not self.job_counts:
            raise ValueError("Real family needs job_counts")
        if min(self.job_counts, default=1) < 1:
            raise ValueError("Real workloads need job_count >= 1")
        if "Real" in self.families and not self.swf_path:
            raise ValueError("Real workloads need swf_path")
        _solar_path(self.green)


def stable_seed(*parts) -> int:
    """Platform-stable 64-bit seed from the given key parts."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _solar_path(source: str) -> str | None:
    """The CSV path of a solar:<path> green source, None for synthetic or zero."""
    kind, _, path = source.partition(":")
    if source not in ("synthetic", "zero") and not (kind == "solar" and path):
        raise ValueError(
            f"green source must be synthetic, zero or solar:<csv path>, got {source!r}"
        )
    return path or None


def resolve_green(source: str, sim: SimConfig) -> GreenTrace:
    """The green trace named by ``source``: synthetic, zero or solar:<csv>."""
    path = _solar_path(source)
    if path:
        return load_solar_csv(path, sim)
    return synthetic_solar(sim) if source == "synthetic" else GreenTrace.zeros(sim)


def _points(cfg: ExperimentConfig, family: str) -> tuple:
    return cfg.job_counts if family == "Real" else cfg.utilization


def cell_spec(cfg: ExperimentConfig, family: str, point, seed: int) -> WorkloadSpec:
    """One synthetic sweep cell's workload at utilization ``point``."""
    knobs = cfg.fixed_p, cfg.fixed_q, cfg.day_fraction, cfg.span_days
    return WorkloadSpec(family, point, *knobs, rng_seed=seed)


def cell_jobs(cfg: ExperimentConfig, family: str, point, seed: int, trace: list[Job]) -> list[Job]:
    """One sweep cell's jobs: ``trace`` (read once) sampled at a Real job count, else generated."""
    if family == "Real":
        return sample_jobs(trace, point, seed)
    return generate(cell_spec(cfg, family, point, seed), cfg.sim, cfg.tariff)


def _kind(name: str, cfg: ExperimentConfig) -> SchedulerKind:
    if name in ("RF", "PRF"):
        params = random_fit_params(normalized_values(cfg.tariff, cfg.sim))
        return SchedulerKind(name, rf_params=params)
    return SchedulerKind(name)


def _run_row(cfg, family, point, rep, name, jobs, schedule, report) -> dict:
    total = cfg.sim.machines * cfg.sim.horizon_slots
    placed = report.green_total + report.brown_total
    return {
        "family": family,
        "point": point,
        "algorithm": name,
        "rep": rep,
        "jobs_offered": len(jobs),
        "jobs_scheduled": len(schedule.placements),
        "scheduled_workload_pct": 100.0 * placed / total,
        "revenue": report.revenue,
        "brown_cost": report.brown_cost,
        "net_profit": report.net_profit,
        "green_used": report.green_total,
        "brown_used": report.brown_total,
    }


_NUMERIC = [
    "jobs_offered",
    "jobs_scheduled",
    "scheduled_workload_pct",
    "revenue",
    "brown_cost",
    "net_profit",
    "green_used",
    "brown_used",
]

RUNS_HEADER = ["family", "point", "algorithm", "rep"] + _NUMERIC
MEANS_HEADER = ["family", "point", "algorithm"] + _NUMERIC
RATIOS_HEADER = ["family", "point", "algorithm", "mean_net_profit", "opt_prime", "ratio"]
PREEMPTION_HEADER = [
    "family",
    "point",
    "algorithm",
    "base_net_profit",
    "preemptive_net_profit",
    "ratio",
]
_HEADERS = dict(
    runs=RUNS_HEADER, means=MEANS_HEADER, ratios=RATIOS_HEADER, preemption=PREEMPTION_HEADER
)


def run_suite(cfg: ExperimentConfig, *, preemption: bool = False) -> dict[str, list[dict]]:
    """Execute the sweep; return and (if configured) write its tables.

    Three tables, four with ``preemption``. runs: one row per (family,
    point, algorithm, rep); means: averages over reps; ratios: best mean
    profit at each point (an empirical stand-in for the optimum) over each
    policy's mean. All three cover ``algorithms`` only, plus OPT (the exact
    solver, at desk-scale points) with ``include_offline``. ``preemption``
    also plays each non-P policy's P variant, every policy once per cell,
    and compares their means in the fourth table, preemption. Before any
    cell plays, the job trace and the green source are read once (Real
    cells sample the trace), and a fixed size, job count, trace or solar
    CSV that the sweep cannot use raises ExperimentError. Each cell's job
    list is ``cell_jobs``.
    """
    trace: list[Job] = []
    try:
        for family in cfg.families:
            for point in _points(cfg, family):
                where = f"{family} point {point}"
                if family == "Real":  # ingest_swf never returns an empty trace
                    trace = trace or ingest_swf(cfg.swf_path, cfg.sim, cfg.deadline_factor)
                    cell_jobs(cfg, family, point, 0, trace)  # the trace holds the count
                else:
                    check_fits(cell_spec(cfg, family, point, 0), cfg.sim)
        where = f"green {cfg.green}"
        green = resolve_green(cfg.green, cfg.sim)
    except (ValueError, OSError) as exc:
        raise ExperimentError(f"{where}: {exc}") from exc
    bases = [a for a in cfg.algorithms if not a.startswith("P")] if preemption else []
    extra = dict.fromkeys("P" + a for a in bases if "P" + a not in cfg.algorithms)
    plays = cfg.algorithms + tuple(extra)
    kinds = {name: _kind(name, cfg) for name in plays}
    runs: list[dict] = []
    for family in cfg.families:
        for point in _points(cfg, family):
            for rep in range(cfg.repetitions):
                wseed = stable_seed(cfg.master_seed, family, point, rep)
                jobs = cell_jobs(cfg, family, point, wseed, trace)
                for name in plays:
                    aseed = stable_seed(cfg.master_seed, family, point, rep, name)
                    sched, report = run_online(
                        jobs, kinds[name], green, cfg.tariff, cfg.sim, seed=aseed
                    )
                    runs.append(
                        _run_row(cfg, family, point, rep, name, jobs, sched, report)
                    )
                if cfg.include_offline:
                    try:
                        opt, osched = solve_nonpreemptive_exact(
                            jobs, green, cfg.tariff, cfg.sim, cfg.offline_max_steps
                        )
                    except ValueError as exc:
                        raise ExperimentError(
                            f"{family} point {point} rep {rep}: {exc}"
                        ) from exc
                    oreport = account(osched, green, cfg.tariff, cfg.sim)
                    runs.append(
                        _run_row(cfg, family, point, rep, "OPT", jobs, osched, oreport)
                    )
    runs.sort(key=_row_key)
    means = _mean_rows(runs)
    tables = {"runs": [r for r in runs if r["algorithm"] not in extra]}
    tables["means"] = [r for r in means if r["algorithm"] not in extra]
    tables["ratios"] = _ratio_rows(tables["means"])
    if preemption:
        tables["preemption"] = _preemption_rows(means, bases)
    if cfg.output_dir is not None:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, rows in tables.items():
            _write_csv(out / f"{name}.csv", _HEADERS[name], rows)
    return tables


def preemption_comparison(cfg: ExperimentConfig) -> list[dict]:
    """Paired sweep of each policy against its preemptive variant.

    Rows report mean profit with and without preemption and their ratio
    (preemptive over base) per family, point, and non-P policy of
    ``algorithms``. This is ``run_suite(cfg, preemption=True)["preemption"]``,
    so with ``output_dir`` set it also writes runs, means and ratios, and
    with ``include_offline`` it also solves OPT.
    """
    return run_suite(cfg, preemption=True)["preemption"]


def _preemption_rows(means: list[dict], bases: list[str]) -> list[dict]:
    """Each base policy's mean profit against its P variant's, per point."""
    profit = {(r["family"], r["point"], r["algorithm"]): r["net_profit"] for r in means}
    rows = []
    for r in means:  # already in row-key order
        if r["algorithm"] in bases:
            base = r["net_profit"]
            pre = profit[r["family"], r["point"], "P" + r["algorithm"]]
            ratio = pre / base if base > 0 else float("inf")
            cells = (r["family"], r["point"], r["algorithm"], base, pre, ratio)
            rows.append(dict(zip(PREEMPTION_HEADER, cells)))
    return rows


def _row_key(row: dict):
    return row["family"], row["point"], row["algorithm"], row.get("rep", 0)


def _mean_rows(runs: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in runs:
        groups.setdefault((row["family"], row["point"], row["algorithm"]), []).append(row)
    means = []
    for (family, point, name), rows in groups.items():
        out = {"family": family, "point": point, "algorithm": name}
        for col in _NUMERIC:
            total = 0  # not sum(): it rounds floats by Python version
            for r in rows:
                total += r[col]
            out[col] = total / len(rows)
        means.append(out)
    means.sort(key=_row_key)
    return means


def _ratio_rows(means: list[dict]) -> list[dict]:
    by_point: dict[tuple, list[dict]] = {}
    for row in means:
        by_point.setdefault((row["family"], row["point"]), []).append(row)
    out = []
    for (family, point), rows in by_point.items():
        opt_prime = max(r["net_profit"] for r in rows)
        for r in rows:
            profit = r["net_profit"]
            out.append(
                {
                    "family": family,
                    "point": point,
                    "algorithm": r["algorithm"],
                    "mean_net_profit": profit,
                    "opt_prime": opt_prime,
                    "ratio": opt_prime / profit if profit > 0 else float("inf"),
                }
            )
    out.sort(key=_row_key)
    return out


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[col]) for col in header])


# ---------------------------------------------------------------------------
# Config file parsing: flat ``key = value`` lines, '#' comments.


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_value(annotation, text: str):
    """Read ``text`` as a value of the field type ``annotation``."""
    args = [a for a in get_args(annotation) if a is not type(None)]
    if get_origin(annotation) is tuple:  # tuple[T, ...]: a comma list
        items = (s.strip() for s in text.split(","))
        return tuple(_parse_value(args[0], s) for s in items if s)
    if args:  # T | None
        annotation = args[0]
    if annotation is bool:
        return _parse_bool(text)
    return annotation(text)  # int, float, str


def _pop_fields(cls, raw: dict[str, str], skip: tuple[str, ...] = ()) -> dict:
    """Constructor arguments for the fields of ``cls`` named in ``raw``."""
    hints = get_type_hints(cls)
    return {
        f.name: _parse_value(hints[f.name], raw.pop(f.name))
        for f in fields(cls)
        if f.name in raw and f.name not in skip
    }


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse the documented key = value experiment format.

    Each key names a field of SimConfig, Tariff (except ``peak_override``)
    or ExperimentConfig, and is read by that field's type; an absent key
    keeps the field's default. Unknown and repeated keys are errors (typos
    should not silently change a sweep). Lists are comma separated.
    """
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in raw:
                raise ValueError(f"{path}:{lineno}: key {key!r} is repeated")
            raw[key] = value.strip()
    sim = SimConfig(**_pop_fields(SimConfig, raw))
    tariff = Tariff(**_pop_fields(Tariff, raw, skip=("peak_override",)))
    cfg = ExperimentConfig(
        sim=sim, tariff=tariff, **_pop_fields(ExperimentConfig, raw, skip=("sim", "tariff"))
    )
    if raw:
        raise ValueError(f"{path}: unknown keys {sorted(raw)}")
    return cfg
