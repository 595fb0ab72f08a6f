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
    assert sched.placements[0].start == 1


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


# (message, contiguous slots, scattered slots): each breaks one check
_BAD_SLOTS = [
    ("needs 3", (2, 3, 4, 5), (1, 3, 5, 6)),
    ("sorted and distinct", (3, 2, 4), (3, 1, 5)),  # unsorted
    ("sorted and distinct", (2, 2, 3), (1, 3, 3)),  # duplicate
    ("leave window", (0, 1, 2), (0, 2, 4)),
    ("outside horizon", (7, 8, 9), (5, 7, 9)),
    ("already placed", (2, 3, 4), (1, 3, 5)),
    ("exceeds 2 nodes", (4, 5, 6), (2, 4, 6)),
]
_BAD_IDS = ["count", "unsorted", "duplicate", "window", "horizon", "placed", "capacity"]


@pytest.mark.parametrize("contiguous", [True, False], ids=["slice", "list"])
@pytest.mark.parametrize("message, run, scattered", _BAD_SLOTS, ids=_BAD_IDS)
def test_commit_keeps_every_check_on_both_index_paths(message, run, scattered, contiguous):
    sched = Schedule(machines=2, horizon=8)
    commit(Job(id=7, release=0, deadline=7, proc_time=1, nodes=2), (6,), sched)
    job_id = 7 if message == "already placed" else 0
    deadline = 9 if message == "outside horizon" else 6
    job = Job(id=job_id, release=1, deadline=deadline, proc_time=3, nodes=1)
    demand, placements, placed = sched.demand.copy(), list(sched.placements), set(sched._placed)
    with pytest.raises(CapacityError, match=message):
        commit(job, run if contiguous else scattered, sched)
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
