"""Discrete-time cluster model.

Jobs occupy whole nodes for whole slots on a cluster of M interchangeable
machines. A Schedule tracks committed placements plus the aggregate per-slot
node demand; feasibility is purely a capacity question because nodes are
fungible (no machine identities at this layer). Slots are 0-based ordinals
into a horizon of ``horizon_slots`` slots of ``slot_minutes`` minutes each.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
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
        if (24 * 60) % self.slot_minutes:
            # a floored day would be shorter than 24 h, and every daily
            # pattern (on-peak window, solar, releases) would drift from it
            raise ValueError(
                f"slot_minutes must divide a day of 1440 minutes, got {self.slot_minutes}"
            )
        if not 0 <= self.node_power_watts < np.inf:
            raise ValueError("node_power_watts must be finite and non-negative")
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


def release_order(jobs: list[Job]) -> list[Job]:
    """Jobs sorted by (release, deadline, id), the order policies and solvers take them in."""
    return sorted(jobs, key=lambda j: (j.release, j.deadline, j.id))


def check_jobs(jobs: list[Job], config: SimConfig) -> None:
    """Raise ValueError naming the first job whose deadline is past the
    horizon or whose id an earlier job already holds."""
    ids = set()
    for job in jobs:
        if job.deadline >= config.horizon_slots:
            raise ValueError(
                f"job {job.id}: deadline {job.deadline} outside horizon "
                f"{config.horizon_slots}"
            )
        if job.id in ids:
            raise ValueError(f"job {job.id}: id repeated")
        ids.add(job.id)


@dataclass(frozen=True)
class Placement:
    """A committed assignment of a job to concrete slots."""

    job_id: int
    active_slots: tuple[int, ...]  # sorted, distinct
    nodes: int


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
    return schedule.demand[lo:hi] <= schedule.machines - job.nodes


def spare_slots(job: Job, schedule: Schedule) -> np.ndarray:
    """Slots of the job's window that can take its nodes, ascending."""
    return _capacity_region(job, schedule).nonzero()[0] + job.release


def nonpreemptive_starts(job: Job, schedule: Schedule) -> np.ndarray:
    """Feasible contiguous start slots, ascending (absolute ordinals)."""
    p = job.proc_time
    region = _capacity_region(job, schedule)
    # full[k] counts the slots before offset k that cannot take the job; a
    # window holds none of them iff the count does not grow across it
    full = np.zeros(region.size + 1, dtype=np.int32)
    np.add.accumulate(~region, dtype=np.int32, out=full[1:])
    return (full[p:] == full[:-p]).nonzero()[0] + job.release


def first_start(job: Job, schedule: Schedule) -> int | None:
    """The earliest feasible contiguous start slot, or None when there is none.

    Equals ``nonpreemptive_starts(job, schedule)[0]``. The region is a fresh
    contiguous bool array, one byte of 0 or 1 per slot, so a byte search for
    p ones finds the window without building every start.
    """
    p = job.proc_time
    found = _capacity_region(job, schedule).tobytes().find(b"\x01" * p)
    return None if found < 0 else job.release + found


def preemptive_slots(job: Job, schedule: Schedule) -> np.ndarray:
    """Greedy earliest proc_time spare slots, or empty if too few exist."""
    spare = spare_slots(job, schedule)
    if spare.size < job.proc_time:
        return np.empty(0, dtype=np.int64)
    return spare[: job.proc_time]


def slot_index(slots: tuple[int, ...]) -> slice | list[int]:
    """Index for sorted, distinct slots: a slice when they are contiguous."""
    first, last = slots[0], slots[-1]
    return slice(first, last + 1) if last - first + 1 == len(slots) else list(slots)


def _is_whole(slot: object) -> bool:
    try:
        return int(slot) == slot
    except (TypeError, ValueError, OverflowError):
        return False


def _whole_slots(job: Job, slots: Sequence[int]) -> tuple[int, ...]:
    """The slots as a tuple of ints; a slot that is not a whole number raises.

    Whole floats (``2.0``) and numpy integers pass, since each equals its
    int; a fraction, ``nan``, ``inf`` or a string raises CapacityError
    naming the first such slot, where ``int`` alone would truncate or parse it.
    """
    given = tuple(slots)
    try:
        whole = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole != given:
        bad = next(t for t in given if not _is_whole(t))
        raise CapacityError(f"job {job.id}: slot {bad} is not a whole number")
    return whole


def commit(job: Job, slots: Sequence[int], schedule: Schedule) -> Schedule:
    """Irrevocably place the job on the given slots, updating demand.

    The slots are stored as a tuple of ints. A unit-step ``range`` is taken
    as given: it is integral, sorted and distinct by construction, so it
    skips the per-slot conversion and order scan. Every other input is
    converted to ints, where a slot that is not a whole number raises
    instead of being truncated, and scanned for order. Defensive checks
    guard every schedule invariant, in the same order and with the same
    messages on both paths; violations raise CapacityError and leave the
    schedule untouched.

    A pick holds only a few slots, where numpy's fixed cost per call
    exceeds the work, so capacity is checked and demand written in Python:
    a run through one slice view, scattered slots one by one, every slot
    checked before any is written.
    """
    given = type(slots) is range and slots.step == 1
    slots = tuple(slots) if given else _whole_slots(job, slots)
    n = len(slots)
    if n != job.proc_time:
        raise CapacityError(f"job {job.id}: {n} slots given, needs {job.proc_time}")
    if not given and not all(map(operator.lt, slots, slots[1:])):
        raise CapacityError(f"job {job.id}: slots must be sorted and distinct")
    first, last = slots[0], slots[-1]
    if first < job.release or last > job.deadline:
        raise CapacityError(
            f"job {job.id}: slots {slots} leave window "
            f"[{job.release}, {job.deadline}]"
        )
    if last >= schedule.horizon:
        raise CapacityError(f"job {job.id}: slot {last} outside horizon")
    if schedule.has_job(job.id):
        raise CapacityError(f"job {job.id}: already placed")
    demand, room = schedule.demand, schedule.machines - job.nodes
    run = last - first + 1 == n
    if run:
        busy = demand[first : last + 1]  # a view, written through
        over = max(busy.tolist()) > room
    else:
        over = False
        for t in slots:
            if demand[t] > room:
                over = True
                break
    if over:
        raise CapacityError(f"job {job.id}: placement exceeds {schedule.machines} nodes")
    if run:
        busy += job.nodes
    else:
        for t in slots:
            demand[t] += job.nodes
    schedule.placements.append(Placement(job.id, slots, job.nodes))
    schedule._placed.add(job.id)
    return schedule
