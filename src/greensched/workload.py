"""Workload generation and ingestion.

A synthetic family is an arrival law and a size rule. Sizes are fixed (p =
fixed_p slots on q = fixed_q nodes) or drawn (p ~ U[1,9] capped at T, q ~
U[1, min(5, M)]). One knob, target utilization u, sets the load from the
mean p * q: the expected total demand sum(p_j * q_j) is about u * M * T
node-slots. Families:

  UU / UE    uniform arrivals, drawn / fixed sizes, loose uniform deadlines
  PU / PE    Poisson arrivals, drawn / fixed sizes, loose uniform deadlines
  Staggered  periodic day-heavy arrivals with drawn sizes, deadline a fixed
             span after release
  Real       sampled from a batch trace file (ingest_swf, then sample_jobs)

Generation is deterministic given the spec's seed. Generators never emit a
job whose window leaves the horizon.

Job files are plain text, one job per line: ``id release deadline proc_time
nodes``, whitespace separated, '#' comments. Trace files follow the classic
batch-log column order (job id, submit seconds, run seconds, requested
processors); deadlines are synthesized as release + deadline_factor * p.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Job, SimConfig, release_order
from .pricing import Tariff, onpeak_vector

FAMILIES = ("UU", "UE", "PU", "PE", "Staggered")  # synthetic; Real lists sample a trace


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to synthesize one job list of a synthetic family."""

    family: str
    target_utilization: float
    fixed_p: int = 5
    fixed_q: int = 3
    day_fraction: float = 0.75  # Staggered: share of arrivals on-peak
    span_days: int = 2  # Staggered: deadline span after release
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown synthetic workload family {self.family!r}")
        if not 0 < self.target_utilization <= 1.5:
            raise ValueError("target_utilization must lie in (0, 1.5]")
        if self.fixed_p < 1 or self.fixed_q < 1:
            raise ValueError("fixed sizes must be >= 1")
        if not 0 <= self.day_fraction <= 1:
            raise ValueError("day_fraction must lie in [0, 1]")
        if self.span_days < 1:
            raise ValueError("span_days must be >= 1")


_FIXED_SIZE = ("UE", "PE")  # families whose jobs all take fixed_p slots on fixed_q nodes


def check_fits(spec: WorkloadSpec, config: SimConfig) -> None:
    """Raise ValueError when a fixed size (UE, PE) exceeds M nodes or T slots."""
    if spec.family not in _FIXED_SIZE:
        return
    if spec.fixed_q > config.machines:
        raise ValueError(
            f"fixed node requirement {spec.fixed_q} exceeds {config.machines} machines"
        )
    if spec.fixed_p > config.horizon_slots:
        raise ValueError(
            f"fixed proc time {spec.fixed_p} exceeds the {config.horizon_slots}-slot horizon"
        )


def generate(
    spec: WorkloadSpec, config: SimConfig, tariff: Tariff | None = None
) -> list[Job]:
    """Deterministically build the synthetic job list described by the spec.

    Uniform and Staggered arrivals draw round(u * M * T / mean p*q) jobs;
    Poisson arrivals come at u * M / mean p*q per slot, and one too late to
    finish is dropped (PE) or has p cut to the slots left (PU). A Staggered
    deadline is span_days after release, later when p needs it, capped at
    the horizon. Jobs come back sorted by (release, deadline) with ids
    0..n-1 in that order. No file is read: a Real list is
    ``sample_jobs(ingest_swf(...), count, seed)``. A fixed size that cannot
    fit the cluster raises ValueError (``check_fits``).
    """
    check_fits(spec, config)
    rng = np.random.default_rng(spec.rng_seed)
    T = config.horizon_slots
    fixed = spec.family in _FIXED_SIZE
    # E[p] = 5 and E[q] = (1 + min(5, M)) / 2 for drawn sizes
    mean_pq = spec.fixed_p * spec.fixed_q if fixed else 5.0 * (1 + min(5, config.machines)) / 2
    budget = max(1, round(spec.target_utilization * config.machines * T / mean_pq))

    def size() -> tuple[int, int]:
        if fixed:
            return spec.fixed_p, spec.fixed_q
        p = min(int(rng.integers(1, 10)), T)
        return p, int(rng.integers(1, min(5, config.machines) + 1))

    raw: list[tuple[int, int, int, int]] = []  # (release, deadline, p, q)
    if spec.family in ("UU", "UE"):
        for _ in range(budget):
            p, q = size()
            r = int(rng.integers(0, T - p + 1))
            d = int(rng.integers(r + p - 1, T))
            raw.append((r, d, p, q))
    elif spec.family in ("PU", "PE"):
        lam = spec.target_utilization * config.machines / mean_pq  # jobs per slot
        for t in np.repeat(np.arange(T), rng.poisson(lam, size=T)).tolist():
            p, q = size()
            if t > T - p:  # too late to finish inside the horizon
                if fixed:
                    continue
                p = T - t
            d = int(rng.integers(t + p - 1, T))
            raw.append((t, d, p, q))
    else:  # Staggered
        peak = onpeak_vector(tariff or Tariff(), config)
        span = spec.span_days * config.slots_per_day
        on_slots = np.flatnonzero(peak)
        off_slots = np.flatnonzero(~peak)
        for _ in range(budget):
            p, q = size()
            pool = on_slots if rng.random() < spec.day_fraction else off_slots
            pool = pool[pool <= T - p]
            if pool.size == 0:
                pool = np.arange(0, T - p + 1)
            r = int(pool[rng.integers(0, pool.size)])
            d = min(r + max(span, p - 1), T - 1)
            raw.append((r, d, p, q))

    raw.sort(key=lambda row: (row[0], row[1]))
    return [
        Job(id=i, release=r, deadline=d, proc_time=p, nodes=q)
        for i, (r, d, p, q) in enumerate(raw)
    ]


SWF_FIELDS = 18  # fields per row of a Standard Workload Format trace


def _finite(text: str) -> float:
    """``float(text)``; ``nan`` and ``inf`` raise ValueError as bad text does."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite field {text!r}")
    return value


def _whole(text: str) -> int:
    """``_finite(text)`` as an int; a fraction raises ValueError as bad text does."""
    if not (value := _finite(text)).is_integer():
        raise ValueError(f"fractional field {text!r}")
    return int(value)


def ingest_swf(path: str | Path, config: SimConfig, deadline_factor: int = 4) -> list[Job]:
    """Map a batch trace onto the slot grid: every usable job, in trace order.

    Fields are whitespace or comma separated, with '#'/';' comments. The
    first data row fixes the layout, and every later row must have as many
    fields. A row of 18 fields is the Standard Workload Format: job id (1),
    submit (2) and run (4) seconds, and allocated processors (5), or the
    requested ones (8) when 5 is -1. Any other width of at least 4 reads
    job id, submit seconds, run seconds and processors from the first four
    columns. Rows whose run time or processor count is missing (-1) or not
    positive are skipped with one warning. A field that does not parse as a
    finite number (``nan`` and ``inf`` included), or a job id or processor
    count that is not a whole number (``4.0`` is), raises with its line.
    Submit times are rebased to the earliest one. Releases floor to slots,
    run times round up, node requests clamp to M with a warning, and the
    deadline is release + deadline_factor * p (a factor below 1 raises)
    capped at the horizon.
    Jobs that cannot fit the horizon are skipped with a warning. Jobs keep
    the order of their rows, which ``sample_jobs`` draws indices from.
    """
    if deadline_factor < 1:
        raise ValueError(f"deadline_factor must be >= 1, got {deadline_factor}")
    rows: list[tuple[int, float, float, int]] = []
    width = 0  # field count of the first data row
    unusable = 0
    with open(path) as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.strip()
            if not line or line.startswith("#") or line.startswith(";"):
                continue
            parts = line.replace(",", " ").split()
            if not width:
                width = len(parts)
                if width < 4:
                    raise ValueError(
                        f"{path}:{lineno}: expected at least 4 fields, got {width}"
                    )
            elif len(parts) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} fields as in the first "
                    f"row, got {len(parts)}"
                )
            try:
                jid = _whole(parts[0])
                submit = _finite(parts[1])
                if width == SWF_FIELDS:
                    run = _finite(parts[3])
                    procs = _whole(parts[4])
                    if procs == -1:
                        procs = _whole(parts[7])
                else:
                    run = _finite(parts[2])
                    procs = _whole(parts[3])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse '{line}'") from None
            if run <= 0 or procs <= 0:
                unusable += 1
                continue
            rows.append((jid, submit, run, procs))
    if unusable:
        warnings.warn(
            f"{path}: skipped {unusable} rows without a positive run time "
            "and processor count",
            stacklevel=2,
        )
    if not rows:
        raise ValueError(f"{path}: no jobs found")

    slot_seconds = config.slot_minutes * 60
    base = min(r[1] for r in rows)
    T = config.horizon_slots
    jobs: list[Job] = []
    for jid, submit, run, q in rows:
        release = int((submit - base) // slot_seconds)
        p = math.ceil(run / slot_seconds)
        if q > config.machines:
            warnings.warn(
                f"job {jid}: requested {q} nodes, clamped to {config.machines}",
                stacklevel=2,
            )
            q = config.machines
        deadline = min(release + deadline_factor * p, T - 1)
        if release >= T or release + p - 1 > deadline:
            warnings.warn(
                f"job {jid}: window does not fit the {T}-slot horizon, skipped",
                stacklevel=2,
            )
            continue
        jobs.append(Job(id=jid, release=release, deadline=deadline, proc_time=p, nodes=q))

    if not jobs:
        raise ValueError(f"{path}: selection is empty, nothing fits the horizon")
    if len({j.id for j in jobs}) != len(jobs):
        raise ValueError(f"{path}: duplicate job ids")
    return jobs


def sample_jobs(jobs: list[Job], count: int, rng_seed: int) -> list[Job]:
    """``count`` of the jobs, drawn without replacement, in release order."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > len(jobs):
        raise ValueError(f"asked for {count} jobs, only {len(jobs)} usable")
    picked = np.random.default_rng(rng_seed).choice(len(jobs), size=count, replace=False)
    return release_order([jobs[i] for i in picked])


def write_jobs(jobs: list[Job], path: str | Path) -> None:
    """Emit the plain-text job format this package also reads."""
    with open(path, "w") as fh:
        fh.write("# id release deadline proc_time nodes\n")
        for j in jobs:
            fh.write(f"{j.id} {j.release} {j.deadline} {j.proc_time} {j.nodes}\n")


def read_jobs(path: str | Path, config: SimConfig) -> list[Job]:
    """Read a job file, skipping (with a warning) jobs that cannot run.

    A job is unusable when its window cannot hold its processing time, its
    deadline leaves the horizon, or it wants more nodes than the cluster
    has. Malformed lines raise with the line number; duplicate ids raise.
    """
    jobs: list[Job] = []
    with open(path) as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
            try:
                jid, release, deadline, p, q = (int(x) for x in parts)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse '{line}'") from None
            if deadline >= config.horizon_slots:
                warnings.warn(
                    f"{path}:{lineno}: job {jid} deadline outside horizon, skipped",
                    stacklevel=2,
                )
                continue
            if q > config.machines:
                warnings.warn(
                    f"{path}:{lineno}: job {jid} wants {q} nodes on a "
                    f"{config.machines}-node cluster, skipped",
                    stacklevel=2,
                )
                continue
            try:
                job = Job(id=jid, release=release, deadline=deadline, proc_time=p, nodes=q)
            except ValueError as exc:
                warnings.warn(f"{path}:{lineno}: {exc}, skipped", stacklevel=2)
                continue
            jobs.append(job)
    if len({j.id for j in jobs}) != len(jobs):
        raise ValueError(f"{path}: duplicate job ids")
    return jobs
