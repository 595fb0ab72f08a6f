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
    slot_index,
    spare_slots,
)
from .pricing import (
    GreenTrace,
    ProfitReport,
    RandomFitParams,
    Tariff,
    account,
    brown_cost_vector,
    is_on_peak,
    job_revenue,
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

    ``green`` is the true supply and is never written; the residual pool is
    max(0, green - demand), derived where a decision or a draw needs it.
    """

    schedule: Schedule
    green: np.ndarray  # true supply per slot over the horizon, read-only
    brown_cost: np.ndarray  # $ per node-slot, indexed by slot
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
        supply = green.supply[:T]
        supply.flags.writeable = False
        return cls(
            schedule=Schedule(config.machines, T),
            green=supply,
            brown_cost=brown_cost_vector(tariff, config),
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


def _visible_green(job: Job, state: OnlineState, config: SimConfig) -> np.ndarray:
    """Residual green over slots [0, deadline] as the decision may see it.

    Slots past the forecast read zero. The vector stops at the deadline,
    since no slot after it can take the job.
    """
    end = job.deadline + 1
    vis = np.maximum(state.green[:end] - state.schedule.demand[:end], 0)
    vis[job.release + config.forecast_slots :] = 0
    return vis


def _choose(
    job: Job, state: OnlineState, kind: SchedulerKind, tariff: Tariff, config: SimConfig
) -> tuple[int, ...] | None:
    """The slots the policy picks for the job, or None when none can take it.

    One capacity scan yields the candidates: the feasible contiguous starts,
    or the spare slots for the preemptive variants. First-fit takes the
    earliest, best-fit the cheapest marginal brown energy given the visible
    green (earliest on ties). Random-fit takes first-fit's pick when visible
    green covers all of it; otherwise its coin keeps that pick with
    p_on_to_off when the release slot is on-peak and p_off_to_on otherwise,
    and takes best-fit's pick on a miss. No randomness is consumed on the
    green path.
    """
    p = job.proc_time
    if kind.preemptive:
        spare = spare_slots(job, state.schedule)
        if spare.size < p:
            return None
        first_idx = spare[:p]
        first = tuple(map(int, first_idx))
    else:
        starts = nonpreemptive_starts(job, state.schedule)
        if starts.size == 0:
            return None
        s = int(starts[0])
        first_idx = slice(s, s + p)
        first = tuple(range(s, s + p))
    base = kind.kind[-2:]
    if base == "FF":
        return first
    vis = _visible_green(job, state, config)
    if base == "RF":
        if vis[first_idx].min() >= job.nodes:
            return first  # fully green, no coin spent
        params = kind.rf_params
        on_peak = is_on_peak(job.release, tariff, config)
        keep_first = params.p_on_to_off if on_peak else params.p_off_to_on
        if state.rng is None:
            raise ValueError("randomized placement needs a seeded state")
        if state.rng.random() < keep_first:
            return first
    # marginal $ to run q nodes at each slot, given the residual green pool
    unit = state.brown_cost[: vis.size] * np.maximum(0, job.nodes - vis)
    if kind.preemptive:
        order = np.lexsort((spare, unit[spare]))  # cheapest first, then earlier
        return tuple(map(int, np.sort(spare[order[:p]])))
    # cumsum adds in slot order, so a window's cost does not depend on where
    # the priced prefix ends
    csum = np.concatenate(([0.0], np.cumsum(unit)))
    window_cost = csum[starts + p] - csum[starts]
    s = int(starts[window_cost.argmin()])  # argmin keeps earliest tie
    return tuple(range(s, s + p))


def _admit(
    job: Job, slots: tuple[int, ...], state: OnlineState, tariff: Tariff, config: SimConfig
) -> LogEntry:
    """Commit the placement and draw green from the residual pool.

    The draw is priced before ``commit``, so a CapacityError leaves the
    state untouched.
    """
    idx = slot_index(slots)
    residual = np.maximum(state.green[idx] - state.schedule.demand[idx], 0)
    take = np.minimum(job.nodes, residual)
    cost = float(state.brown_cost[idx] @ (job.nodes - take))
    commit(job, slots, state.schedule)
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
    ``kind.rf_params`` between the two (see ``_choose``).
    """
    slots = _choose(job, state, kind, tariff, config)
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
    order. ``seed`` feeds the RF/PRF coin only, and those kinds require it.
    """
    if kind.randomized and seed is None:
        raise ValueError(f"{kind.kind} needs a seed for its coin")
    for job in jobs:
        if job.deadline >= config.horizon_slots:
            raise ValueError(
                f"job {job.id}: deadline {job.deadline} outside horizon "
                f"{config.horizon_slots}"
            )
    state = OnlineState.create(
        green, tariff, config, seed=seed if kind.randomized else None
    )
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
