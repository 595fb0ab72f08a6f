"""Discrete-time cluster model.

Jobs occupy whole nodes for whole slots on a cluster of M interchangeable
machines. A Schedule tracks committed placements plus the aggregate per-slot
node demand; feasibility is purely a capacity question because nodes are
fungible (no machine identities at this layer). Slots are 0-based ordinals
into a horizon of ``horizon_slots`` slots of ``slot_minutes`` minutes each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CapacityError(RuntimeError):
    """A placement would overflow the capacity grid or its job's window."""


@dataclass(frozen=True)
class SimConfig:
    """Cluster and horizon parameters shared by every component.

    The defaults describe a 16-node cluster of 140 W machines scheduled in
    15-minute slots over 5 days, with green-supply foresight limited to the
    next 48 hours.
    """

    machines: int = 16
    horizon_slots: int = 480
    slot_minutes: int = 15
    node_power_watts: float = 140.0
    forecast_slots: int = 192

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ValueError("machines must be positive")
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be positive")
        if self.slot_minutes < 1:
            raise ValueError("slot_minutes must be positive")
        if self.node_power_watts < 0:
            raise ValueError("node_power_watts must be non-negative")
        if self.forecast_slots < 1:
            raise ValueError("forecast_slots must be positive")

    @property
    def slot_hours(self) -> float:
        return self.slot_minutes / 60.0

    @property
    def slots_per_day(self) -> int:
        return (24 * 60) // self.slot_minutes

    @property
    def node_slot_kwh(self) -> float:
        """Energy one active node draws in one slot, in kWh."""
        return self.node_power_watts / 1000.0 * self.slot_hours


@dataclass(frozen=True)
class Job:
    """One batch request: q nodes for p consecutive-or-scattered slots.

    ``release`` and ``deadline`` are inclusive slot ordinals; the window must
    be wide enough to hold ``proc_time`` slots, otherwise the job could never
    run and construction fails.
    """

    id: int
    release: int  # earliest slot the job may occupy
    deadline: int  # last slot the job may occupy (inclusive)
    proc_time: int  # number of active slots required
    nodes: int  # nodes held in every active slot

    def __post_init__(self) -> None:
        if self.proc_time < 1:
            raise ValueError(f"job {self.id}: proc_time must be >= 1")
        if self.nodes < 1:
            raise ValueError(f"job {self.id}: nodes must be >= 1")
        if self.release < 0:
            raise ValueError(f"job {self.id}: release must be >= 0")
        if self.deadline < self.release + self.proc_time - 1:
            raise ValueError(
                f"job {self.id}: window [{self.release}, {self.deadline}] "
                f"cannot hold {self.proc_time} slots"
            )


@dataclass(frozen=True)
class Placement:
    """A committed assignment of a job to concrete slots."""

    job_id: int
    active_slots: tuple[int, ...]  # sorted, distinct
    nodes: int

    @property
    def start(self) -> int:
        return self.active_slots[0]


@dataclass
class Schedule:
    """Capacity grid plus the placements that produced it.

    ``demand[t]`` is the number of busy nodes in slot t and always equals the
    sum over placements active at t. At most one placement per job id.
    """

    machines: int
    horizon: int
    placements: list[Placement] = field(init=False, default_factory=list)
    demand: np.ndarray = field(init=False)
    _placed: set[int] = field(init=False, default_factory=set, repr=False)

    def __post_init__(self) -> None:
        self.demand = np.zeros(self.horizon, dtype=np.int64)

    def has_job(self, job_id: int) -> bool:
        return job_id in self._placed


def _capacity_region(job: Job, schedule: Schedule) -> np.ndarray:
    """Bool vector over [release, deadline]: slot can take q more nodes."""
    lo, hi = job.release, job.deadline + 1
    if hi > schedule.horizon:
        raise ValueError(
            f"job {job.id}: deadline {job.deadline} outside horizon "
            f"{schedule.horizon}"
        )
    return schedule.demand[lo:hi] + job.nodes <= schedule.machines


def spare_slots(job: Job, schedule: Schedule) -> np.ndarray:
    """Slots of the job's window that can take its nodes, ascending."""
    return np.flatnonzero(_capacity_region(job, schedule)) + job.release


def nonpreemptive_starts(job: Job, schedule: Schedule) -> np.ndarray:
    """Feasible contiguous start slots, ascending (absolute ordinals)."""
    p = job.proc_time
    if p == 1:
        # every spare slot starts a window; the prefix count below would
        # cost about 4x more per call, and the adversary runs are all p == 1
        return spare_slots(job, schedule)
    region = _capacity_region(job, schedule)
    # full[k] counts the slots before offset k that cannot take the job; a
    # window holds none of them iff the count does not grow across it
    full = np.zeros(region.size + 1, dtype=np.int64)
    np.cumsum(~region, out=full[1:])
    return np.flatnonzero(full[p:] == full[:-p]) + job.release


def preemptive_slots(job: Job, schedule: Schedule) -> np.ndarray:
    """Greedy earliest proc_time spare slots, or empty if too few exist."""
    spare = spare_slots(job, schedule)
    if spare.size < job.proc_time:
        return np.empty(0, dtype=np.int64)
    return spare[: job.proc_time]


def commit(job: Job, slots: tuple[int, ...], schedule: Schedule) -> Schedule:
    """Irrevocably place the job on the given slots, updating demand.

    Defensive checks guard every schedule invariant; violations raise
    CapacityError and leave the schedule untouched.
    """
    slots = tuple(int(t) for t in slots)
    if len(slots) != job.proc_time:
        raise CapacityError(
            f"job {job.id}: {len(slots)} slots given, needs {job.proc_time}"
        )
    if len(set(slots)) != len(slots) or list(slots) != sorted(slots):
        raise CapacityError(f"job {job.id}: slots must be sorted and distinct")
    if slots[0] < job.release or slots[-1] > job.deadline:
        raise CapacityError(
            f"job {job.id}: slots {slots} leave window "
            f"[{job.release}, {job.deadline}]"
        )
    if slots[-1] >= schedule.horizon:
        raise CapacityError(f"job {job.id}: slot {slots[-1]} outside horizon")
    if schedule.has_job(job.id):
        raise CapacityError(f"job {job.id}: already placed")
    idx = list(slots)
    if (schedule.demand[idx] + job.nodes > schedule.machines).any():
        raise CapacityError(f"job {job.id}: placement exceeds {schedule.machines} nodes")
    schedule.demand[idx] += job.nodes
    schedule.placements.append(Placement(job.id, slots, job.nodes))
    schedule._placed.add(job.id)
    return schedule
