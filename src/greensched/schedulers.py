"""Online placement policies.

Jobs arrive in release order and each decision is final. First-fit commits to
the earliest feasible slots, best-fit to the slots with the cheapest marginal
brown energy, and random-fit flips a biased coin between the two whenever the
visible green supply cannot cover the whole first-fit pick. Preemptive
variants (PFF, PBF, PRF) may scatter a job over non-contiguous slots.

Decisions may look at green supply only within the forecast window of the
job's release; slots past the forecast are priced as if no green existed.
Final accounting always uses the true trace.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    Job,
    Schedule,
    SimConfig,
    commit,
    nonpreemptive_starts,
    preemptive_slots,
)
from .pricing import (
    GreenTrace,
    ProfitReport,
    RandomFitParams,
    Tariff,
    account,
    brown_cost_vector,
    job_revenue,
    onpeak_vector,
)

KINDS = ("FF", "BF", "RF", "PFF", "PBF", "PRF")


@dataclass(frozen=True)
class SchedulerKind:
    """Which policy to run; RF and PRF carry their mixing probabilities."""

    kind: str
    rf_params: RandomFitParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if self.randomized and self.rf_params is None:
            raise ValueError(f"{self.kind} needs rf_params")

    @property
    def preemptive(self) -> bool:
        return self.kind.startswith("P")

    @property
    def randomized(self) -> bool:
        return self.kind in ("RF", "PRF")


@dataclass
class OnlineState:
    """Mutable run context: the schedule so far plus pricing lookups.

    green_remaining is the true residual supply; foresight masking happens at
    decision time. It always equals max(0, g - demand) for the true trace.
    """

    schedule: Schedule
    green_remaining: np.ndarray
    brown_cost: np.ndarray  # $ per node-slot, indexed by slot
    onpeak: np.ndarray  # bool per slot
    rng: np.random.Generator | None = None

    @classmethod
    def create(
        cls,
        green: GreenTrace,
        tariff: Tariff,
        config: SimConfig,
        seed: int | None = None,
    ) -> "OnlineState":
        T = config.horizon_slots
        if green.supply.size < T:
            raise ValueError("green trace shorter than horizon")
        return cls(
            schedule=Schedule(config.machines, T),
            green_remaining=green.supply[:T].astype(np.int64).copy(),
            brown_cost=brown_cost_vector(tariff, config),
            onpeak=onpeak_vector(tariff, config),
            rng=None if seed is None else np.random.default_rng(seed),
        )


@dataclass(frozen=True)
class LogEntry:
    """One admit/reject decision, with the energy drawn at commit time."""

    job_id: int
    decision: str  # "admit" or "reject"
    start_slot: int | None
    slots: tuple[int, ...]
    green_units: int
    brown_units: int
    revenue: float
    cost: float


def _visible_green(state: OnlineState, release: int, config: SimConfig) -> np.ndarray:
    """Residual green as the decision may see it: zero past the forecast."""
    limit = release + config.forecast_slots
    if limit >= state.green_remaining.size:
        return state.green_remaining
    vis = state.green_remaining.copy()
    vis[limit:] = 0
    return vis


def _ff_choice(job: Job, state: OnlineState, preemptive: bool) -> tuple[int, ...] | None:
    if preemptive:
        slots = preemptive_slots(job, state.schedule)
        if slots.size == 0:
            return None
        return tuple(int(t) for t in slots)
    starts = nonpreemptive_starts(job, state.schedule)
    if starts.size == 0:
        return None
    s = int(starts[0])
    return tuple(range(s, s + job.proc_time))


def _bf_choice(
    job: Job, state: OnlineState, config: SimConfig, preemptive: bool
) -> tuple[int, ...] | None:
    vis = _visible_green(state, job.release, config)
    # marginal $ to run q nodes at each slot, given the residual green pool
    unit = state.brown_cost * np.maximum(0, job.nodes - vis)
    if preemptive:
        spare = np.flatnonzero(
            state.schedule.demand[job.release : job.deadline + 1] + job.nodes
            <= state.schedule.machines
        )
        if spare.size < job.proc_time:
            return None
        spare = spare + job.release
        order = np.lexsort((spare, unit[spare]))  # cheapest first, then earlier
        chosen = np.sort(spare[order[: job.proc_time]])
        return tuple(int(t) for t in chosen)
    starts = nonpreemptive_starts(job, state.schedule)
    if starts.size == 0:
        return None
    csum = np.concatenate(([0.0], np.cumsum(unit)))
    window_cost = csum[starts + job.proc_time] - csum[starts]
    s = int(starts[int(np.argmin(window_cost))])  # argmin keeps earliest tie
    return tuple(range(s, s + job.proc_time))


def _rf_choice(
    job: Job,
    state: OnlineState,
    config: SimConfig,
    params: RandomFitParams,
    preemptive: bool,
) -> tuple[int, ...] | None:
    """First-fit when visible green covers it, else a biased coin.

    The coin keeps first-fit with p_on_to_off when the release slot is
    on-peak and p_off_to_on otherwise, and switches to best-fit on a miss.
    No randomness is consumed on the green path.
    """
    ff = _ff_choice(job, state, preemptive)
    if ff is None:
        return None
    vis = _visible_green(state, job.release, config)
    if all(vis[t] >= job.nodes for t in ff):
        return ff  # fully green, no coin spent
    keep_ff = params.p_on_to_off if state.onpeak[job.release] else params.p_off_to_on
    if state.rng is None:
        raise ValueError("randomized placement needs a seeded state")
    if state.rng.random() < keep_ff:
        return ff
    return _bf_choice(job, state, config, preemptive)


def _choose(
    job: Job, state: OnlineState, config: SimConfig, kind: SchedulerKind
) -> tuple[int, ...] | None:
    base = kind.kind[-2:]
    if base == "FF":
        return _ff_choice(job, state, kind.preemptive)
    if base == "BF":
        return _bf_choice(job, state, config, kind.preemptive)
    return _rf_choice(job, state, config, kind.rf_params, kind.preemptive)


def _admit(
    job: Job, slots: tuple[int, ...], state: OnlineState, tariff: Tariff, config: SimConfig
) -> LogEntry:
    """Commit the placement and draw green from the shared pool."""
    commit(job, slots, state.schedule)
    idx = list(slots)
    take = np.minimum(job.nodes, state.green_remaining[idx])
    cost = float(state.brown_cost[idx] @ (job.nodes - take))
    state.green_remaining[idx] -= take
    green_units = int(take.sum())
    return LogEntry(
        job_id=job.id,
        decision="admit",
        start_slot=slots[0],
        slots=slots,
        green_units=green_units,
        brown_units=job.proc_time * job.nodes - green_units,
        revenue=job_revenue(job, tariff, config),
        cost=cost,
    )


def place(
    job: Job, state: OnlineState, kind: SchedulerKind, tariff: Tariff, config: SimConfig
) -> LogEntry | None:
    """Offer one job to the policy; the admit entry, or None on a reject.

    First-fit takes the earliest feasible slots, best-fit the cheapest
    marginal brown energy (earliest on ties), random-fit flips the coin of
    ``kind.rf_params`` between the two (see ``_rf_choice``).
    """
    slots = _choose(job, state, config, kind)
    if slots is None:
        return None
    return _admit(job, slots, state, tariff, config)


def run_online(
    jobs: list[Job],
    kind: SchedulerKind,
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    seed: int | None = None,
) -> tuple[Schedule, ProfitReport, list[LogEntry]]:
    """Feed jobs through one policy in release order and price the result.

    Jobs are processed sorted by (release, deadline, id); commitments are
    irrevocable. The returned log holds one entry per job in processing
    order. ``seed`` feeds the RF/PRF coin only (defaults to config.rng_seed).
    """
    for job in jobs:
        if job.deadline >= config.horizon_slots:
            raise ValueError(
                f"job {job.id}: deadline {job.deadline} outside horizon "
                f"{config.horizon_slots}"
            )
    rng_seed = (config.rng_seed if seed is None else seed) if kind.randomized else None
    state = OnlineState.create(green, tariff, config, seed=rng_seed)
    log: list[LogEntry] = []
    for job in sorted(jobs, key=lambda j: (j.release, j.deadline, j.id)):
        entry = place(job, state, kind, tariff, config)
        if entry is None:
            entry = LogEntry(job.id, "reject", None, (), 0, 0, 0.0, 0.0)
        log.append(entry)
    report = account(state.schedule, green, tariff, config)
    return state.schedule, report, log


LOG_HEADER = [
    "job_id",
    "decision",
    "start_slot",
    "slots",
    "green_units",
    "brown_units",
    "revenue",
    "cost",
]


def write_log_csv(entries: list[LogEntry], path: str | Path) -> None:
    """Write the admit/reject log; slots are ';'-joined ordinals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_HEADER)
        for e in entries:
            writer.writerow(
                [
                    e.job_id,
                    e.decision,
                    "" if e.start_slot is None else e.start_slot,
                    ";".join(str(t) for t in e.slots),
                    e.green_units,
                    e.brown_units,
                    f"{e.revenue:.10g}",
                    f"{e.cost:.10g}",
                ]
            )
