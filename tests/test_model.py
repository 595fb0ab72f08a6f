import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greensched.model import (
    CapacityError,
    Job,
    Schedule,
    SimConfig,
    commit,
    first_start,
    nonpreemptive_starts,
    preemptive_slots,
    slot_index,
)

from oracles import feasible_windows, recomputed_demand


def test_job_validation():
    Job(id=0, release=0, deadline=0, proc_time=1, nodes=1)  # tightest legal window
    with pytest.raises(ValueError):
        Job(id=1, release=0, deadline=1, proc_time=3, nodes=1)
    with pytest.raises(ValueError):
        Job(id=2, release=-1, deadline=3, proc_time=1, nodes=1)
    with pytest.raises(ValueError):
        Job(id=3, release=0, deadline=3, proc_time=0, nodes=1)
    with pytest.raises(ValueError):
        Job(id=4, release=0, deadline=3, proc_time=1, nodes=0)


def test_simconfig_validation_and_units():
    cfg = SimConfig()
    assert cfg.slots_per_day == 96
    assert cfg.slot_hours == 0.25
    assert cfg.node_slot_kwh == pytest.approx(0.035, abs=1e-15)
    with pytest.raises(ValueError):
        SimConfig(machines=0)
    with pytest.raises(ValueError):
        SimConfig(horizon_slots=0)
    for watts in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="node_power_watts must be finite"):
            SimConfig(node_power_watts=watts)


@pytest.mark.parametrize("minutes", [7, 25, 1441])
def test_simconfig_rejects_slots_that_do_not_tile_a_day(minutes):
    # 7-minute slots would floor a day to 205 slots (1,435 minutes), so the
    # on-peak window and every other daily pattern would drift 5 min a day
    with pytest.raises(ValueError, match=f"slot_minutes must divide .*got {minutes}"):
        SimConfig(slot_minutes=minutes)
    for ok in (1, 15, 30, 60, 120, 360, 1440):
        assert SimConfig(slot_minutes=ok).slots_per_day * ok == 1440


def test_starts_empty_grid_single_machine():
    sched = Schedule(machines=1, horizon=3)
    job = Job(id=0, release=0, deadline=2, proc_time=1, nodes=1)
    assert list(nonpreemptive_starts(job, sched)) == [0, 1, 2]


def test_starts_blocked_by_capacity():
    sched = Schedule(machines=1, horizon=2)
    commit(Job(id=9, release=0, deadline=0, proc_time=1, nodes=1), (0,), sched)
    job = Job(id=0, release=0, deadline=1, proc_time=2, nodes=1)
    assert list(nonpreemptive_starts(job, sched)) == []
    assert feasible_windows(job, sched) == []


def test_partial_demand_grid():
    # demand [1,2,1,0] on two machines: contiguous room only at 2, scattered at {0,2}
    sched = Schedule(machines=2, horizon=4)
    commit(Job(id=8, release=0, deadline=3, proc_time=3, nodes=1), (0, 1, 2), sched)
    commit(Job(id=9, release=1, deadline=1, proc_time=1, nodes=1), (1,), sched)
    assert list(sched.demand) == [1, 2, 1, 0]
    job = Job(id=0, release=0, deadline=3, proc_time=2, nodes=1)
    assert list(nonpreemptive_starts(job, sched)) == [2]
    assert list(preemptive_slots(job, sched)) == [0, 2]
    assert feasible_windows(job, sched) == [(2, 3)]
    assert feasible_windows(job, sched, preemptive=True) == [(0, 2)]


def test_commit_updates_demand_by_nodes():
    sched = Schedule(machines=4, horizon=5)
    job = Job(id=0, release=1, deadline=3, proc_time=2, nodes=3)
    commit(job, (1, 2), sched)
    assert list(sched.demand) == [0, 3, 3, 0, 0]
    assert sched.placements[0].active_slots[0] == 1


def test_commit_capacity_boundary():
    sched = Schedule(machines=16, horizon=2)
    commit(Job(id=0, release=0, deadline=1, proc_time=1, nodes=8), (0,), sched)
    commit(Job(id=1, release=0, deadline=1, proc_time=1, nodes=8), (0,), sched)
    with pytest.raises(CapacityError):
        commit(Job(id=2, release=0, deadline=1, proc_time=1, nodes=8), (0,), sched)
    # the failed commit left nothing behind
    assert list(sched.demand) == [16, 0]
    assert len(sched.placements) == 2


def test_commit_scattered_leaves_gap_untouched():
    sched = Schedule(machines=2, horizon=4)
    job = Job(id=0, release=0, deadline=3, proc_time=2, nodes=1)
    commit(job, (0, 2), sched)
    assert sched.demand[1] == 0


def test_commit_rejects_bad_slot_sets():
    job = Job(id=0, release=1, deadline=4, proc_time=2, nodes=1)
    with pytest.raises(CapacityError):
        commit(job, (1,), Schedule(2, 6))  # wrong count
    with pytest.raises(CapacityError):
        commit(job, (2, 2), Schedule(2, 6))  # duplicate slot
    with pytest.raises(CapacityError):
        commit(job, (3, 2), Schedule(2, 6))  # unsorted
    with pytest.raises(CapacityError):
        commit(job, (0, 2), Schedule(2, 6))  # before release
    with pytest.raises(CapacityError):
        commit(job, (4, 5), Schedule(2, 6))  # past deadline
    sched = Schedule(2, 6)
    commit(job, (1, 2), sched)
    with pytest.raises(CapacityError):
        commit(job, (3, 4), sched)  # same job twice


# (id, message, contiguous slots, scattered slots, unit-step range): each
# breaks one check. A range cannot be unsorted or repeat a slot, so it takes
# only the checks it can break, and commit trusts its order
_BAD_SLOTS = [
    ("count", "needs 3", (2, 3, 4, 5), (1, 3, 5, 6), range(2, 6)),
    ("empty", "needs 3", None, None, range(3, 3)),
    ("unsorted", "sorted and distinct", (3, 2, 4), (3, 1, 5), None),
    ("duplicate", "sorted and distinct", (2, 2, 3), (1, 3, 3), None),
    ("window", "leave window", (0, 1, 2), (0, 2, 4), range(0, 3)),
    ("horizon", "outside horizon", (7, 8, 9), (5, 7, 9), range(7, 10)),
    ("placed", "already placed", (2, 3, 4), (1, 3, 5), range(2, 5)),
    ("capacity", "exceeds 2 nodes", (4, 5, 6), (2, 4, 6), range(4, 7)),
]
_BAD_CASES = [
    pytest.param(message, slots, id=f"{case}-{path}")
    for case, message, *paths in _BAD_SLOTS
    for path, slots in zip(("slice", "list", "range"), paths)
    if slots is not None
]


@pytest.mark.parametrize("message, slots", _BAD_CASES)
def test_commit_keeps_every_check_on_both_index_paths(message, slots):
    sched = Schedule(machines=2, horizon=8)
    commit(Job(id=7, release=0, deadline=7, proc_time=1, nodes=2), (6,), sched)
    job_id = 7 if message == "already placed" else 0
    deadline = 9 if message == "outside horizon" else 6
    job = Job(id=job_id, release=1, deadline=deadline, proc_time=3, nodes=1)
    demand, placements, placed = sched.demand.copy(), list(sched.placements), set(sched._placed)
    with pytest.raises(CapacityError, match=message):
        commit(job, slots, sched)
    assert np.array_equal(sched.demand, demand)
    assert sched.placements == placements
    assert sched._placed == placed


def test_commit_takes_only_unit_step_ranges_as_given():
    job = Job(id=0, release=1, deadline=6, proc_time=3, nodes=1)
    with pytest.raises(CapacityError, match="sorted and distinct"):
        commit(job, range(4, 1, -1), Schedule(2, 8))
    # a step of 2 is scattered: it commits slot by slot
    sched = Schedule(2, 8)
    commit(job, range(1, 6, 2), sched)
    assert sched.demand.tolist() == [0, 1, 0, 1, 0, 1, 0, 0]
    assert sched.placements[0].active_slots == (1, 3, 5)
    # a range, with numpy bounds or not, and whole floats or numpy integers
    # are stored as the tuple of the same slots, in ints
    stored = []
    for slots in (
        range(2, 5),
        range(np.int64(2), np.int64(5)),
        (2, 3, 4),
        [2.0, 3.0, 4.0],
        np.array([2.0, 3.0, 4.0]),
        (np.int32(2), 3, np.int64(4)),
    ):
        sched = Schedule(2, 8)
        commit(job, slots, sched)
        stored.append((sched.placements[0].active_slots, sched.demand.tolist()))
    assert all(s == stored[0] for s in stored)
    for active, _ in stored:
        assert type(active) is tuple and all(type(t) is int for t in active)


@pytest.mark.parametrize(
    "slots, bad",
    [
        ([1.5, 2.7], "1.5"),
        (np.array([1.0, 3.9]), "3.9"),
        ([2, math.nan], "nan"),
        ((2.0, math.inf), "inf"),
        (("2", "3"), "2"),
    ],
)
def test_commit_rejects_a_slot_that_is_not_a_whole_number(slots, bad):
    # int() alone would truncate 1.5 to 1 and 3.9 to 3, or parse "2"
    sched = Schedule(machines=2, horizon=8)
    commit(Job(id=7, release=0, deadline=7, proc_time=1, nodes=1), (6,), sched)
    job = Job(id=0, release=1, deadline=6, proc_time=2, nodes=1)
    demand, placements, placed = sched.demand.copy(), list(sched.placements), set(sched._placed)
    with pytest.raises(CapacityError, match=rf"job 0: slot {bad} is not a whole number"):
        commit(job, slots, sched)
    assert np.array_equal(sched.demand, demand)
    assert sched.placements == placements
    assert sched._placed == placed


def test_commit_indexes_runs_by_slice_and_scattered_slots_by_list():
    assert slot_index((2, 3, 4)) == slice(2, 5)
    assert slot_index((1, 3, 5)) == [1, 3, 5]
    for slots in ((2, 3, 4), (1, 3, 5)):
        sched = Schedule(machines=2, horizon=8)
        commit(Job(id=0, release=1, deadline=6, proc_time=3, nodes=2), slots, sched)
        assert np.array_equal(sched.demand, recomputed_demand(sched))


def test_deadline_outside_horizon_raises():
    sched = Schedule(machines=2, horizon=4)
    job = Job(id=0, release=0, deadline=4, proc_time=1, nodes=1)
    with pytest.raises(ValueError):
        nonpreemptive_starts(job, sched)


def test_first_start_edges():
    # an empty grid: p == 1, and p equal to the window's length
    sched = Schedule(machines=3, horizon=10)
    assert first_start(Job(id=0, release=2, deadline=7, proc_time=1, nodes=3), sched) == 2
    whole = Job(id=1, release=2, deadline=7, proc_time=6, nodes=1)
    assert first_start(whole, sched) == 2
    # a job wider than the cluster fits nowhere, even on an empty grid
    assert first_start(Job(id=2, release=0, deadline=9, proc_time=1, nodes=4), sched) is None
    # busy slots 3 and 7 leave windows [0, 2] (from release) and [8, 9] (to deadline)
    sched.demand[[3, 7]] = 3
    assert first_start(Job(id=3, release=0, deadline=9, proc_time=3, nodes=1), sched) == 0
    assert first_start(Job(id=4, release=1, deadline=9, proc_time=2, nodes=1), sched) == 1
    assert first_start(Job(id=5, release=1, deadline=9, proc_time=3, nodes=1), sched) == 4
    assert first_start(Job(id=6, release=4, deadline=9, proc_time=2, nodes=1), sched) == 4
    assert first_start(Job(id=7, release=5, deadline=9, proc_time=2, nodes=1), sched) == 5
    assert first_start(Job(id=8, release=6, deadline=9, proc_time=2, nodes=1), sched) == 8
    assert first_start(Job(id=9, release=4, deadline=9, proc_time=4, nodes=1), sched) is None
    assert first_start(whole, sched) is None
    # a full grid takes nothing; a slot with room again takes p == 1
    sched.demand[:] = 3
    assert first_start(Job(id=10, release=0, deadline=9, proc_time=1, nodes=1), sched) is None
    sched.demand[9] = 2
    assert first_start(Job(id=11, release=0, deadline=9, proc_time=1, nodes=1), sched) == 9
    assert first_start(Job(id=12, release=0, deadline=9, proc_time=1, nodes=2), sched) is None


def test_first_start_rejects_a_deadline_past_the_horizon():
    sched = Schedule(machines=2, horizon=4)
    job = Job(id=0, release=0, deadline=4, proc_time=1, nodes=1)
    with pytest.raises(ValueError, match="outside horizon"):
        first_start(job, sched)


small_grids = st.tuples(
    st.integers(min_value=1, max_value=3),  # machines
    st.integers(min_value=2, max_value=12),  # horizon
)


@st.composite
def grid_and_jobs(draw):
    machines, horizon = draw(small_grids)
    n = draw(st.integers(min_value=1, max_value=6))
    jobs = []
    for i in range(n):
        p = draw(st.integers(min_value=1, max_value=min(3, horizon)))
        r = draw(st.integers(min_value=0, max_value=horizon - p))
        d = draw(st.integers(min_value=r + p - 1, max_value=horizon - 1))
        q = draw(st.integers(min_value=1, max_value=machines))
        jobs.append(Job(id=i, release=r, deadline=d, proc_time=p, nodes=q))
    return machines, horizon, jobs


@given(grid_and_jobs())
def test_demand_roundtrip_after_commits(data):
    machines, horizon, jobs = data
    sched = Schedule(machines, horizon)
    for job in jobs:
        windows = feasible_windows(job, sched)
        if windows:
            commit(job, windows[0], sched)
    assert np.array_equal(sched.demand, recomputed_demand(sched))
    assert (sched.demand <= machines).all()


@st.composite
def grid_and_picks(draw):
    """A grid and sorted slot picks with their node counts, some overlapping."""
    machines, horizon = draw(small_grids)
    picks = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        slots = draw(st.sets(st.integers(0, horizon - 1), min_size=1, max_size=min(5, horizon)))
        nodes = draw(st.integers(min_value=1, max_value=machines))
        picks.append((sorted(slots), nodes, draw(st.booleans())))
    return machines, horizon, picks


@given(grid_and_picks())
def test_commit_of_any_sorted_slots_keeps_demand_or_the_schedule(data):
    # scattered picks commit slot by slot and runs through one view; a pick
    # over capacity anywhere, first slot or last, must write nothing
    machines, horizon, picks = data
    sched = Schedule(machines, horizon)
    for i, (slots, nodes, as_range) in enumerate(picks):
        job = Job(id=i, release=slots[0], deadline=slots[-1], proc_time=len(slots), nodes=nodes)
        run = slots[-1] - slots[0] + 1 == len(slots)
        given = range(slots[0], slots[-1] + 1) if run and as_range else tuple(slots)
        fits = (recomputed_demand(sched)[slots] + nodes <= machines).all()
        demand, placements, placed = sched.demand.copy(), list(sched.placements), set(sched._placed)
        if fits:
            commit(job, given, sched)
            assert sched.placements[-1].active_slots == tuple(slots)
            assert np.array_equal(sched.demand, recomputed_demand(sched))
        else:
            with pytest.raises(CapacityError, match=f"exceeds {machines} nodes"):
                commit(job, given, sched)
            assert np.array_equal(sched.demand, demand)
            assert sched.placements == placements
            assert sched._placed == placed


@given(grid_and_jobs())
def test_starts_match_bruteforce(data):
    machines, horizon, jobs = data
    sched = Schedule(machines, horizon)
    for job in jobs[:-1]:
        windows = feasible_windows(job, sched)
        if windows:
            commit(job, windows[0], sched)
    probe = jobs[-1]
    expect = []
    for s in range(probe.release, probe.deadline - probe.proc_time + 2):
        if all(
            sched.demand[t] + probe.nodes <= machines
            for t in range(s, s + probe.proc_time)
        ):
            expect.append(s)
    got = [] if sched.has_job(probe.id) else list(nonpreemptive_starts(probe, sched))
    if not sched.has_job(probe.id):
        assert got == expect
        assert first_start(probe, sched) == (expect[0] if expect else None)
        # every reported window respects release, deadline, and capacity
        for win in feasible_windows(probe, sched):
            assert win[0] >= probe.release and win[-1] <= probe.deadline
            for t in win:
                assert sched.demand[t] + probe.nodes <= machines


@given(grid_and_jobs())
def test_preemptive_slots_are_earliest_spares(data):
    machines, horizon, jobs = data
    sched = Schedule(machines, horizon)
    for job in jobs[:-1]:
        windows = feasible_windows(job, sched, preemptive=True)
        if windows:
            commit(job, windows[0], sched)
    probe = jobs[-1]
    if sched.has_job(probe.id):
        return
    spare = [
        t
        for t in range(probe.release, probe.deadline + 1)
        if sched.demand[t] + probe.nodes <= machines
    ]
    got = list(preemptive_slots(probe, sched))
    if len(spare) < probe.proc_time:
        assert got == []
    else:
        assert got == spare[: probe.proc_time]
