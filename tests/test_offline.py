import gc
import hashlib
import itertools
import math
import sys
import time

import numpy as np
import pytest

from greensched import offline
from greensched.model import Job, Schedule, SimConfig, commit
from greensched.offline import (
    SearchBudgetError,
    _ceiling,
    _ceiling_margins,
    _contiguous_options,
    _cost_floor,
    _job_bound,
    _prepared,
    _scattered_options,
    _slot_costs,
    _window_costs,
    emit_lp,
    node_assignment,
    solve_nonpreemptive_exact,
    solve_preemptive_exact,
)
from greensched.experiment import stable_seed
from greensched.pricing import (
    GreenTrace,
    Tariff,
    account,
    brown_cost_vector,
    job_revenue,
    normalized_values,
    random_fit_params,
    synthetic_solar,
)
from greensched.schedulers import SchedulerKind, run_online
from greensched.workload import WorkloadSpec, generate

from lputil import solve_lp_text
from oracles import (
    backtrack_node_assignment,
    counted_nodes,
    enumerate_nonpreemptive,
    enumerate_preemptive,
    incremental_leaves,
    marginal_cost,
    profit_of,
    random_instance,
)

TARIFF = Tariff()


def cfg_of(machines, horizon):
    return SimConfig(machines=machines, horizon_slots=horizon, forecast_slots=horizon)


def zeros(T):
    return GreenTrace(np.zeros(T, dtype=np.int64))


def test_two_slot_dilemma_takes_both_jobs():
    # one machine pool, on-peak then off-peak: hindsight runs one job in each
    cfg = SimConfig(machines=16, horizon_slots=2, forecast_slots=2)
    tariff = Tariff(peak_override=(True, False))
    jobs = [
        Job(id=0, release=0, deadline=1, proc_time=1, nodes=16),
        Job(id=1, release=1, deadline=1, proc_time=1, nodes=16),
    ]
    profit, sched = solve_nonpreemptive_exact(jobs, zeros(2), tariff, cfg)
    nv = normalized_values(tariff, cfg)
    unit = tariff.charge_rate * cfg.slot_hours * 16
    assert profit == pytest.approx(unit * (nv.v_on + nv.v_off), abs=1e-12)
    starts = {p.job_id: p.active_slots[0] for p in sched.placements}
    assert starts == {0: 0, 1: 1}


def test_single_job_uniform_price_earliest_start():
    cfg = cfg_of(2, 6)
    tariff = Tariff(peak_override=tuple([False] * 6))
    job = Job(id=0, release=1, deadline=5, proc_time=2, nodes=1)
    _, sched = solve_nonpreemptive_exact([job], zeros(6), tariff, cfg)
    assert sched.placements[0].active_slots == (1, 2)


def test_rejecting_everything_when_nothing_pays():
    # brown so expensive every placement loses money: optimum is empty
    cfg = cfg_of(2, 4)
    tariff = Tariff(onpeak_price=9.0, offpeak_price=8.0)
    jobs = [Job(id=0, release=0, deadline=3, proc_time=2, nodes=1)]
    profit, sched = solve_nonpreemptive_exact(jobs, zeros(4), tariff, cfg)
    assert profit == 0.0
    assert sched.placements == []


def test_oversized_job_is_rejected_not_fatal():
    cfg = cfg_of(2, 4)
    jobs = [
        Job(id=0, release=0, deadline=3, proc_time=1, nodes=5),  # wider than M
        Job(id=1, release=0, deadline=3, proc_time=1, nodes=1),
    ]
    profit, sched = solve_nonpreemptive_exact(jobs, zeros(4), TARIFF, cfg)
    assert [p.job_id for p in sched.placements] == [1]
    assert profit > 0


def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        jobs, green, tariff, config = random_instance(rng)
        expect, assign, order = enumerate_nonpreemptive(jobs, green, tariff, config)
        got, sched = solve_nonpreemptive_exact(jobs, green, tariff, config)
        assert got == expect
        got_starts = {p.job_id: p.active_slots[0] for p in sched.placements}
        expect_starts = {
            order[i].id: s for i, s in enumerate(assign) if s is not None
        }
        assert got_starts == expect_starts  # lexicographic tie rule agrees


def crowded_instance(rng):
    """Four to six jobs of two shapes on two machines and four to six slots,
    so many branches reach the same demand and the dominance memo cuts."""
    T = int(rng.integers(4, 7))
    config = cfg_of(2, T)
    shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 3))) for _ in range(2)]
    jobs = []
    for i in range(int(rng.integers(4, 7))):
        p, q = shapes[int(rng.integers(0, 2))]
        r = int(rng.integers(0, T - p + 1))
        d = int(rng.integers(r + p - 1, T))
        jobs.append(Job(id=i, release=r, deadline=d, proc_time=p, nodes=q))
    green = GreenTrace(rng.integers(0, 3, size=T))
    tariff = Tariff(peak_override=tuple(bool(x) for x in rng.random(T) < 0.5))
    return jobs, green, tariff, config


@pytest.mark.parametrize(
    "solver, oracle",
    [
        (solve_nonpreemptive_exact, enumerate_nonpreemptive),
        (solve_preemptive_exact, enumerate_preemptive),
    ],
)
def test_matches_enumeration_on_crowded_instances(solver, oracle):
    # Placements are not compared: on rounding ties the solver and the
    # oracle can pick different optima (see the tie-rule xfail below).
    rng = np.random.default_rng(5)
    for _ in range(150):
        jobs, green, tariff, config = crowded_instance(rng)
        expect, _, order = oracle(jobs, green, tariff, config)
        got, sched = solver(jobs, green, tariff, config)
        assert abs(got - expect) <= 1e-12
        placed = {p.job_id for p in sched.placements}
        picked = [job_revenue(j, tariff, config) for j in order if j.id in placed]
        g = [int(v) for v in green.supply]
        b = [float(v) for v in brown_cost_vector(tariff, config)]
        assert profit_of(picked, sched.demand, g, b) == got


def test_memo_key_covers_every_remaining_job():
    # Catches a memo keyed on job i's own window instead of every remaining
    # job's: at job 2 (window [3, 3]) that key cuts job 0 on (1, 5) against
    # job 0 on (1, 4), same demand in slot 3 at the same value, although job
    # 1 still needs slot 4. That cut returns 0.014649999999999998 with job 0
    # on (1, 2).
    cfg = cfg_of(1, 6)
    jobs = [Job(*row) for row in [(0, 1, 5, 2, 1), (1, 3, 4, 2, 1), (2, 3, 3, 1, 1)]]
    green = GreenTrace(np.array([0, 1, 0, 0, 1, 1]))
    tariff = Tariff(peak_override=(True, False, True, False, True, True))
    got, sched = solve_preemptive_exact(jobs, green, tariff, cfg)
    expect, assign, order = enumerate_preemptive(jobs, green, tariff, cfg)
    assert got == expect == 0.0192
    expect_slots = {job.id: a for job, a in zip(order, assign) if a is not None}
    assert {p.job_id: p.active_slots for p in sched.placements} == expect_slots
    assert expect_slots == {0: (1, 5), 1: (3, 4)}


def test_solves_leave_no_reference_cycles():
    # The searches and the node witness recurse through closures; one that
    # leaves them in a reference cycle keeps its whole state alive until a
    # full GC.
    cfg = cfg_of(2, 5)
    jobs = [Job(id=i, release=0, deadline=4, proc_time=2, nodes=1) for i in range(4)]
    green = GreenTrace(np.array([1, 0, 2, 0, 1]))
    gc.collect()
    gc.disable()
    try:
        solve_nonpreemptive_exact(jobs, green, TARIFF, cfg)
        _, sched = solve_preemptive_exact(jobs, green, TARIFF, cfg)
        assert sched.placements  # so node_assignment searches
        assert node_assignment(sched) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_solve_that_raises_frees_its_search(monkeypatch):
    # An error or interrupt mid-search must unlink the search closure too,
    # or it and its memo wait for the cyclic collector.
    priced = offline._slot_costs
    calls = 0

    def failing(*args):
        nonlocal calls
        calls += 1
        if calls > 12:
            raise RuntimeError("stopped mid-search")
        return priced(*args)

    cfg = cfg_of(2, 5)
    jobs = [Job(id=i, release=0, deadline=4, proc_time=2, nodes=1) for i in range(4)]
    green = GreenTrace(np.array([1, 0, 2, 0, 1]))
    monkeypatch.setattr(offline, "_slot_costs", failing)
    gc.collect()
    gc.disable()
    try:
        for solve in (solve_nonpreemptive_exact, solve_preemptive_exact):
            calls = 0
            with pytest.raises(RuntimeError, match="mid-search"):
                solve(jobs, green, TARIFF, cfg)
        alive = [
            f
            for f in gc.get_objects()
            if getattr(f, "__qualname__", None) == "_solve.<locals>.expand"
        ]
    finally:
        gc.enable()
    assert calls > 12
    assert alive == []


def test_dominance_memo_cuts_a_later_placement_with_more_demand():
    # Job 0 is as cheap in green slot 0, before jobs 1-3 are released, as in
    # green slot 2 or 3 inside their window, and leaves them more room, so
    # the branches that place it in slot 2 or 3 are cut unentered. The
    # exact-demand memo alone enters 8 nodes here.
    cfg = cfg_of(1, 4)
    rows = [(0, 0, 3, 1, 1), (1, 2, 3, 1, 1), (2, 2, 3, 1, 1), (3, 3, 3, 1, 1)]
    jobs = [Job(*row) for row in rows]
    green = GreenTrace(np.array([1, 0, 1, 1]))
    (value, sched), nodes = counted_nodes(solve_nonpreemptive_exact, jobs, green, TARIFF, cfg)
    expect, assign, order = enumerate_nonpreemptive(jobs, green, TARIFF, cfg)
    assert value == expect
    starts = {p.job_id: p.active_slots[0] for p in sched.placements}
    assert starts == {job.id: s for job, s in zip(order, assign) if s is not None}
    assert starts == {0: 0, 1: 2, 2: 3}
    assert nodes <= 5


def test_acceptance_six_instance_is_solved_in_few_nodes():
    # UE p=4 q=2 at 40% load on 4x42 with synthetic green: many branches
    # tie on value while one holds pointwise less demand. The exact-demand
    # memo alone enters 776 nodes.
    sim = SimConfig(machines=4, horizon_slots=42, forecast_slots=42)
    spec = WorkloadSpec(
        family="UE", target_utilization=0.4, fixed_p=4, fixed_q=2, rng_seed=stable_seed(6, 1)
    )
    jobs = generate(spec, sim, Tariff())
    (value, sched), nodes = counted_nodes(
        solve_nonpreemptive_exact, jobs, synthetic_solar(sim), Tariff(), sim
    )
    assert nodes == 187
    assert repr(value) == "0.21059999999999993"
    starts = [(0, 11), (1, 30), (2, 16), (3, 18), (4, 26), (5, 25), (6, 34), (7, 36)]
    assert [(p.job_id, p.active_slots) for p in sched.placements] == [
        (j, tuple(range(s, s + 4))) for j, s in starts
    ]


# Desk solves whose node counts the README quotes, with acc6-r1 and pre-r9
# pinned above: label -> (nodes entered, repr of the value, first slot of
# each placement in job order). Any change to the search's node set shows.
PINNED_SOLVES = {
    "acc6-r2": (87, "0.22529999999999994", [2, 5, 8, 13, 29, 34, 33, 38]),
    "acc6-r3": (464, "0.2231999999999999", [37, 5, 20, 21, 27, 27, 31, 33]),
    "ident11": (243, "0.021599999999999987", [0, 0, 1, 1, 2, 2, 3, 3]),
    "pre-r2": (6, "0.09720000000000004", [0, 1, 3, 4, 8, 16]),
}


def pinned_instance(label):
    """(solver, proc_time, jobs, green, tariff, sim) of a PINNED_SOLVES label."""
    if label == "ident11":  # 11 identical one-slot jobs on 2x4, no green
        sim = cfg_of(2, 4)
        jobs = [Job(id=i, release=0, deadline=3, proc_time=1, nodes=1) for i in range(11)]
        return solve_nonpreemptive_exact, 1, jobs, zeros(4), Tariff(), sim
    # UE q=2 at 40% load with synthetic green: p=4 on 4x42, or p=3 on 4x24
    # searched preemptively
    family, r = label.split("-r")
    preemptive = family == "pre"
    p, T, seed = (3, 24, ("bench-exact-p", int(r))) if preemptive else (4, 42, (6, int(r)))
    sim = cfg_of(4, T)
    spec = WorkloadSpec(
        family="UE", target_utilization=0.4, fixed_p=p, fixed_q=2, rng_seed=stable_seed(*seed)
    )
    solver = solve_preemptive_exact if preemptive else solve_nonpreemptive_exact
    return solver, p, generate(spec, sim, Tariff()), synthetic_solar(sim), Tariff(), sim


@pytest.mark.parametrize("label", sorted(PINNED_SOLVES))
def test_desk_solves_enter_their_pinned_node_counts(label):
    solver, p, *inst = pinned_instance(label)
    (value, sched), nodes = counted_nodes(solver, *inst)
    want_nodes, want_value, starts = PINNED_SOLVES[label]
    assert nodes == want_nodes
    assert repr(value) == want_value
    assert [(pl.job_id, pl.active_slots) for pl in sched.placements] == [
        (j, tuple(range(s, s + p))) for j, s in enumerate(starts)
    ]


def test_six_jobs_wider_grid_matches_enumeration():
    rng = np.random.default_rng(77)
    cfg = cfg_of(2, 16)
    jobs = []
    for i in range(6):
        p = int(rng.integers(1, 4))
        r = int(rng.integers(0, 16 - p + 1))
        d = min(int(rng.integers(r + p - 1, r + p + 3)), 15)
        jobs.append(Job(id=i, release=r, deadline=d, proc_time=p, nodes=int(rng.integers(1, 3))))
    green = GreenTrace(rng.integers(0, 3, size=16))
    expect, _, _ = enumerate_nonpreemptive(jobs, green, TARIFF, cfg)
    got, _ = solve_nonpreemptive_exact(jobs, green, TARIFF, cfg)
    assert got == expect


def test_preemptive_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        jobs, green, tariff, config = random_instance(
            rng, max_jobs=4, max_slots=7, max_machines=2
        )
        expect, _, _ = enumerate_preemptive(jobs, green, tariff, config)
        got, _ = solve_preemptive_exact(jobs, green, tariff, config)
        assert got == expect


def test_preemptive_equals_nonpreemptive_for_unit_jobs():
    rng = np.random.default_rng(8)
    for _ in range(25):
        jobs, green, tariff, config = random_instance(
            rng, max_jobs=4, max_slots=8, max_machines=2
        )
        unit = [
            Job(id=j.id, release=j.release, deadline=j.deadline, proc_time=1, nodes=j.nodes)
            for j in jobs
        ]
        a, sa = solve_preemptive_exact(unit, green, tariff, config)
        b, sb = solve_nonpreemptive_exact(unit, green, tariff, config)
        assert a == b
        assert sa.placements == sb.placements


def test_preemption_strictly_wins_on_split_green():
    # green at slots 0 and 2 only; contiguous placements must buy the gap
    cfg = cfg_of(1, 3)
    tariff = Tariff(peak_override=(True, True, True))
    green = GreenTrace(np.array([1, 0, 1]))
    jobs = [Job(id=0, release=0, deadline=2, proc_time=2, nodes=1)]
    pre, psched = solve_preemptive_exact(jobs, green, tariff, cfg)
    non, _ = solve_nonpreemptive_exact(jobs, green, tariff, cfg)
    assert psched.placements[0].active_slots == (0, 2)
    assert pre == pytest.approx(job_revenue(jobs[0], tariff, cfg), abs=1e-15)
    assert pre > non


def test_preemptive_empty_job_list():
    cfg = cfg_of(2, 4)
    profit, sched = solve_preemptive_exact([], zeros(4), TARIFF, cfg)
    assert profit == 0.0 and sched.placements == []


def test_more_green_never_hurts():
    rng = np.random.default_rng(13)
    for _ in range(20):
        jobs, green, tariff, config = random_instance(rng)
        base, _ = solve_nonpreemptive_exact(jobs, green, tariff, config)
        richer = GreenTrace(green.supply + rng.integers(0, 2, size=green.supply.size))
        more, _ = solve_nonpreemptive_exact(jobs, richer, tariff, config)
        assert more >= base - 1e-12


def test_online_never_beats_offline():
    rng = np.random.default_rng(99)
    for trial in range(15):
        jobs, green, tariff, config = random_instance(rng)
        opt, _ = solve_nonpreemptive_exact(jobs, green, tariff, config)
        for kind in ("FF", "BF"):
            _, report = run_online(jobs, SchedulerKind(kind), green, tariff, config)
            assert opt >= report.net_profit - 1e-9


def test_limits_are_enforced():
    # one budget, counted in options priced: 13 identical jobs price 1,485
    # of them, so a budget one short stops the solve and an exact one does not
    cfg = cfg_of(2, 4)
    many = [Job(id=i, release=0, deadline=3, proc_time=1, nodes=1) for i in range(13)]
    profit, sched = solve_nonpreemptive_exact(many, zeros(4), TARIFF, cfg)
    assert profit > 0
    again, fitted = solve_nonpreemptive_exact(many, zeros(4), TARIFF, cfg, max_steps=1485)
    assert (again, fitted.placements) == (profit, sched.placements)
    with pytest.raises(
        SearchBudgetError, match=r"step 1485, past its budget of 1484 .*offline_max_steps"
    ):
        solve_nonpreemptive_exact(many, zeros(4), TARIFF, cfg, max_steps=1484)
    # more than 255 nodes per slot
    fleet = SimConfig(machines=300, horizon_slots=4, forecast_slots=4)
    wide_jobs = [Job(id=i, release=0, deadline=3, proc_time=2, nodes=260) for i in range(2)]
    for solver in (solve_nonpreemptive_exact, solve_preemptive_exact):
        _, sched = solver(wide_jobs, zeros(4), TARIFF, fleet)
        assert len(sched.placements) == 2


def test_a_search_deeper_than_the_recursion_limit_stops_with_a_budget_error():
    # the search nests one call per job, so more jobs than Python's
    # recursion limit cannot be searched; the solve must say so, not raise
    # a bare RecursionError
    n = sys.getrecursionlimit() + 200
    cfg = cfg_of(1, n)
    jobs = [Job(id=i, release=i, deadline=i, proc_time=1, nodes=1) for i in range(n)]
    for solver in (solve_nonpreemptive_exact, solve_preemptive_exact):
        with pytest.raises(SearchBudgetError, match=rf"search of {n} jobs needs {n} nested"):
            solver(jobs, zeros(n), TARIFF, cfg)


def test_one_job_preemptive_solve_stops_at_its_budget():
    # one machine, p = 24 of 48 slots, green in slots 24..47 only: the cheapest
    # subset is the last one listed, so the one node the search enters would
    # price all C(48, 24) ~ 3.2e13 options. A cap on nodes entered never
    # stops it; a budget on options priced does
    sim = cfg_of(1, 48)
    green = GreenTrace(np.array([0] * 24 + [1] * 24))
    job = Job(id=0, release=0, deadline=47, proc_time=24, nodes=1)

    def stopped(*args):
        with pytest.raises(SearchBudgetError, match=r"step 1001, past its budget of 1000 "):
            solve_preemptive_exact(*args, max_steps=1000)

    _, nodes = counted_nodes(stopped, [job], green, TARIFF, sim)
    assert nodes == 1


def test_seventeen_job_solve_finishes_under_the_default_budget():
    # UE p=4 q=2 at 80% load on 4x42: 17 jobs, which a 12-job cap refused,
    # priced in 94,005 steps, about 0.3 s on a 2-core Xeon (Python 3.11)
    sim = cfg_of(4, 42)
    spec = WorkloadSpec(
        family="UE", target_utilization=0.8, fixed_p=4, fixed_q=2, rng_seed=stable_seed("ue08", 0)
    )
    jobs = generate(spec, sim, Tariff())
    green = synthetic_solar(sim)
    assert len(jobs) == 17
    value, sched = solve_nonpreemptive_exact(jobs, green, Tariff(), sim)
    assert repr(value) == "0.41760000000000014"
    starts = [2, 3, 6, 7, 10, 11, 14, 18, 16, 27, 20, 22, 31, 24, 33, 28, 37]
    assert [(p.job_id, p.active_slots) for p in sched.placements] == [
        (j, tuple(range(s, s + 4))) for j, s in enumerate(starts)
    ]
    params = random_fit_params(normalized_values(Tariff(), sim))
    for kind in (SchedulerKind("FF"), SchedulerKind("BF"), SchedulerKind("RF", params)):
        _, report = run_online(jobs, kind, green, Tariff(), sim, seed=0)
        assert report.net_profit <= value


def test_job_bound_covers_every_option_on_an_empty_grid():
    # one bound serves both variants: no contiguous or scattered placement
    # may earn more than it, and it never drops below rejection's zero. The
    # bound sums its costs cheapest first and an option sums them in slot
    # order, so the two can round apart; an ulp of revenue covers that
    # until money is compared exactly (ROADMAP item 2)
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(200):
        jobs, green, tariff, config = random_instance(rng, max_slots=12)
        order, g, b, rev = _prepared(jobs, green, tariff, config)
        M = config.machines
        empty = [0] * config.horizon_slots
        for job, r in zip(order, rev):
            bound = _job_bound(job, r, _window_costs(job, g, b), M)
            assert bound >= 0.0
            for options in (_contiguous_options, _scattered_options):
                for slots, _ in options(job, 0, M):
                    cost = marginal_cost(slots, empty, g, b, job.nodes)
                    assert bound >= max(0.0, r - cost) - math.ulp(r)
                    checked += 1
    assert checked > 1000


def test_job_bound_sums_left_to_right():
    # ten 0.1 costs sum to 0.9999999999999999 left to right but to 1.0 by a
    # compensated sum (built-in sum() from Python 3.12 on); the bound must
    # not depend on the interpreter
    costs = [0.1] * 10
    assert math.fsum(costs) == 1.0
    job = Job(id=0, release=0, deadline=9, proc_time=10, nodes=1)
    assert _job_bound(job, 1.0, costs, 1) == 1.0 - 0.9999999999999999 > 0.0


def reachable_demand(rng, order, M, T):
    """Demand left by placing a random subset of the jobs on spare slots."""
    demand = [0] * T
    for job in order:
        spare = [t for t in range(job.release, job.deadline + 1) if demand[t] + job.nodes <= M]
        if rng.random() < 0.6 and len(spare) >= job.proc_time:
            for t in rng.choice(spare, size=job.proc_time, replace=False):
                demand[int(t)] += job.nodes
    return demand


def pack(demand, M):
    """A demand list as the search holds it: one int, M.bit_length() + 1
    bits per slot, slot t's field at bit w * t."""
    w = M.bit_length() + 1
    return sum(d << (w * t) for t, d in enumerate(demand))


def added(slots, add):
    """The packed demand an option adds, given as an int, or as the per-slot
    parts a scattered option sums over its slots once its child passes the
    bound."""
    return add if isinstance(add, int) else sum(add[t] for t in slots)


def test_cost_floor_is_below_every_option_to_the_bit():
    # every option's cost, summed left to right as the search sums it, is at
    # least its job's floor, on any demand the search can reach: exactly,
    # with no ulp slack
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(400):
        jobs, green, tariff, config = random_instance(rng, max_jobs=4, max_slots=12)
        order, g, b, _ = _prepared(jobs, green, tariff, config)
        M = config.machines
        packed = pack(reachable_demand(rng, order, M, config.horizon_slots), M)
        for job in order:
            floor = _cost_floor(job, _window_costs(job, g, b), M)
            assert (floor == math.inf) == (job.nodes > M)
            costs = _slot_costs(job, packed, M.bit_length() + 1, g, b)
            for options in (_contiguous_options, _scattered_options):
                for slots, _ in options(job, packed, M):
                    mc = 0.0
                    for t in slots:
                        mc += costs[t]
                    assert mc >= floor
                    checked += 1
    assert checked > 1000


def flat_instance(rng):
    """A random instance with one brown price and no green, where many
    schedules tie in exact arithmetic and round apart."""
    jobs, _, _, config = random_instance(rng, max_jobs=5, max_slots=8)
    T = config.horizon_slots
    return jobs, zeros(T), Tariff(peak_override=(False,) * T), config


@pytest.mark.parametrize("preemptive", [False, True], ids=["contiguous", "scattered"])
def test_ceiling_covers_every_leaf_below_it(preemptive):
    # every node's ceiling is at least every leaf below it, each leaf valued
    # in the search's own order of floating-point steps: exactly, no slack
    rng = np.random.default_rng(31)
    leaves = 0
    met = 0
    below = 0
    for k in range(1000):
        if k % 2:
            jobs, green, tariff, config = flat_instance(rng)
        else:
            jobs, green, tariff, config = random_instance(rng, max_jobs=5, max_slots=8)
        order, g, b, rev = _prepared(jobs, green, tariff, config)
        M = config.machines
        costs = [_window_costs(j, g, b) for j in order]
        pairs = [(r, _cost_floor(j, c, M)) for j, r, c in zip(order, rev, costs)]
        suffix = [0.0] * (len(order) + 1)
        for i in range(len(order) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + _job_bound(order[i], rev[i], costs[i], M)
        margins = _ceiling_margins(order, rev, b)
        best = -math.inf
        for path, value in incremental_leaves(jobs, green, tariff, config, preemptive):
            for i, cur in enumerate(path):
                top = _ceiling(cur, pairs[i:])
                assert top >= value
                # the search sums the ceiling only past this point
                reach = cur + suffix[i]
                assert top > reach - margins[i]
                below += top < reach
            best = max(best, value)
            leaves += 1
        met += _ceiling(0.0, pairs) == best
    assert leaves > 5000
    assert met > 300  # on many instances the best leaf meets the root ceiling
    assert below > 100  # and on many nodes the ceiling rounds below the bound sum


def test_preemptive_search_stops_at_a_leaf_that_meets_its_ceiling():
    # UE p=3 q=2 at 40% load on 4x24: no green and one brown price, so many
    # schedules tie. The first optimal leaf sums to 0.09719999999999998 in
    # the search's steps (0.09720000000000001 as reported), but the bound
    # sum at the nodes after it reads 0.0972, an ulp above, and cuts none of
    # them. The ceiling cut stops the search there (4,766 nodes without it)
    sim = SimConfig(machines=4, horizon_slots=24, forecast_slots=24)
    spec = WorkloadSpec(
        family="UE",
        target_utilization=0.4,
        fixed_p=3,
        fixed_q=2,
        rng_seed=stable_seed("bench-exact-p", 9),
    )
    jobs = generate(spec, sim, Tariff())
    (value, sched), nodes = counted_nodes(
        solve_preemptive_exact, jobs, synthetic_solar(sim), Tariff(), sim
    )
    assert nodes == 6
    assert repr(value) == "0.09720000000000001"
    assert [(p.job_id, p.active_slots) for p in sched.placements] == [
        (0, (1, 2, 3)),
        (1, (6, 7, 8)),
        (2, (9, 10, 11)),
        (3, (10, 11, 12)),
        (4, (12, 13, 14)),
        (5, (13, 14, 15)),
    ]


@pytest.mark.parametrize("solver", [solve_nonpreemptive_exact, solve_preemptive_exact])
def test_ceiling_margin_skips_only_sums_that_cannot_cut(solver, monkeypatch):
    # summing the ceiling at every node must enter the same nodes and return
    # the same answers as summing it only within the margin
    rng = np.random.default_rng(12)
    instances = [
        flat_instance(rng) if k % 2 else random_instance(rng, max_jobs=6, max_slots=10)
        for k in range(300)
    ]
    summed = 0
    ceiling = offline._ceiling

    def counting(*args):
        nonlocal summed
        summed += 1
        return ceiling(*args)

    def answers():
        out = []
        for inst in instances:
            (value, sched), nodes = counted_nodes(solver, *inst)
            out.append((repr(value), [(p.job_id, p.active_slots) for p in sched.placements], nodes))
        return out

    monkeypatch.setattr(offline, "_ceiling", counting)
    near = answers()
    near_sums = summed
    monkeypatch.setattr(offline, "_ceiling_margins", lambda order, rev, b: [math.inf] * len(order))
    summed = 0
    assert answers() == near
    assert 0 < near_sums < summed / 4


def test_slot_costs_sum_to_the_marginal_cost_on_loaded_grids():
    # a node reads its window's demand from the packed int and prices each
    # slot once. Every option, contiguous or scattered, must be one a scan
    # of the demand list finds, add q to each of its slots' fields, and cost
    # what the slot-by-slot oracle charges, to the bit. Field widths 2 to 6:
    # M at and next to powers of two, q up to one wider than the cluster,
    # and every demand from 0 to M, so a lift or guard one field off fails
    rng = np.random.default_rng(15)
    T = 8
    checked = 0
    branches = set()
    for M in (1, 2, 3, 4, 7, 8, 15, 16):
        w = M.bit_length() + 1
        loads = set()
        for _ in range(40):
            demand = [int(v) for v in rng.integers(0, M + 1, size=T)]
            g = [int(v) for v in rng.integers(0, M + 1, size=T)]
            b = [float(v) for v in rng.random(T)]
            packed = pack(demand, M)
            for q in range(1, M + 2):
                p = int(rng.integers(1, 4))
                r = int(rng.integers(0, T - p + 1))
                d = int(rng.integers(r + p - 1, T))
                job = Job(id=0, release=r, deadline=d, proc_time=p, nodes=q)
                costs = _slot_costs(job, packed, w, g, b)
                assert costs[:r] == [0.0] * r and len(costs) == d + 1
                for t in range(r, d + 1):
                    loads.add(demand[t])
                    over = demand[t] + q - g[t]
                    branches.add("none" if over <= 0 else "part" if over <= q else "full")
                spare = [t for t in range(r, d + 1) if demand[t] + q <= M]
                scans = {
                    _contiguous_options: [
                        tuple(range(s, s + p))
                        for s in range(r, d - p + 2)
                        if all(t in spare for t in range(s, s + p))
                    ],
                    _scattered_options: list(itertools.combinations(spare, p)),
                }
                for options, scan in scans.items():
                    listed = [(tuple(s), added(s, add)) for s, add in options(job, packed, M)]
                    assert [slots for slots, _ in listed] == scan
                    for slots, add in listed:
                        assert add == pack([q * (t in slots) for t in range(T)], M)
                        mc = 0.0
                        for t in slots:
                            mc += costs[t]
                        assert repr(mc) == repr(marginal_cost(slots, demand, g, b, q))
                        checked += 1
        assert loads == set(range(M + 1))
    assert checked > 5000
    assert branches == {"none", "part", "full"}


def test_lexicographic_tie_rule():
    # two jobs, symmetric costs: both (0,1) and (1,0) start vectors optimal;
    # the lexicographically smaller one in release order must come back
    cfg = cfg_of(1, 2)
    tariff = Tariff(peak_override=(False, False))
    jobs = [
        Job(id=0, release=0, deadline=1, proc_time=1, nodes=1),
        Job(id=1, release=0, deadline=1, proc_time=1, nodes=1),
    ]
    _, sched = solve_nonpreemptive_exact(jobs, zeros(2), tariff, cfg)
    starts = {p.job_id: p.active_slots[0] for p in sched.placements}
    assert starts == {0: 0, 1: 1}


# Both searches compare leaves on their incrementally summed profit, which
# rounds differently for schedules of equal profit, so they can return an
# optimum other than the lexicographically smallest one the oracles (and the
# solver docstrings) pick. The values still agree.
_F, _T = False, True
TIE_RULE_CASES = {
    "preemptive": (
        solve_preemptive_exact,
        enumerate_preemptive,
        cfg_of(1, 7),
        [(0, 0, 5, 4, 1), (1, 3, 5, 1, 1), (2, 0, 2, 2, 1)],
        [0, 1, 1, 0, 1, 1, 0],
        (_F, _T, _F, _F, _T, _T, _T),
    ),
    "nonpreemptive": (
        solve_nonpreemptive_exact,
        enumerate_nonpreemptive,
        cfg_of(2, 3),
        [(0, 1, 2, 1, 1), (1, 0, 2, 2, 2), (2, 0, 2, 3, 1), (3, 1, 2, 1, 2), (4, 0, 2, 3, 2)],
        [0, 0, 1],
        (_F, _F, _F),
    ),
}


@pytest.mark.xfail(strict=True, reason="incumbents accepted on incremental, not canonical, profit")
@pytest.mark.parametrize("case", sorted(TIE_RULE_CASES))
def test_tie_rule_matches_oracle_on_rounding_ties(case):
    solver, oracle, cfg, rows, supply, peak = TIE_RULE_CASES[case]
    jobs = [Job(*row) for row in rows]
    green = GreenTrace(np.array(supply))
    tariff = Tariff(peak_override=peak)
    got, sched = solver(jobs, green, tariff, cfg)
    expect, assign, order = oracle(jobs, green, tariff, cfg)
    assert got == expect
    expect_slots = {}
    for job, a in zip(order, assign):
        if a is not None:  # the non-preemptive oracle gives starts
            expect_slots[job.id] = a if isinstance(a, tuple) else tuple(range(a, a + job.proc_time))
    assert {p.job_id: p.active_slots for p in sched.placements} == expect_slots


# The answers both searches return today, value by repr and placements, on
# the tie-rule cases and on seeded instances with tied optima: crowded ones
# (13 has 79 optima) and random ones where a search that also accepts equal
# leaves, or that sums an option's costs in reverse, returns another answer.
# Comparing money exactly (ROADMAP item 2) will re-pin these.
PINNED_ANSWERS = {
    ("tie", None, "nonpreemptive"): ("0.019", {4: (0, 1, 2)}),
    ("tie", None, "preemptive"): ("0.0274", {0: (0, 3, 4, 5), 2: (1, 2)}),
    ("crowded", 13, "nonpreemptive"): ("0.045000000000000005", {1: (3, 4, 5), 3: (0, 1, 2), 4: (0, 1, 2)}),
    ("crowded", 13, "preemptive"): ("0.045000000000000005", {1: (3, 4, 5), 3: (0, 1, 2), 4: (0, 1, 2)}),
    ("crowded", 26, "nonpreemptive"): ("0.030199999999999994", {0: (4, 5), 1: (3,), 2: (3,)}),
    ("crowded", 26, "preemptive"): ("0.030199999999999994", {0: (4, 5), 1: (3,), 2: (3,)}),
    ("random", 0, "nonpreemptive"): ("0.0431", {0: (3, 4), 1: (2,), 3: (5, 6, 7)}),
    ("random", 0, "preemptive"): ("0.04765", {0: (3, 4), 1: (2,), 3: (6, 7, 9)}),
    ("random", 10, "nonpreemptive"): ("0.01745", {0: (7,), 1: (8,)}),
    ("random", 10, "preemptive"): ("0.01745", {0: (7,), 1: (8,)}),
    ("random", 44, "nonpreemptive"): ("0.0329", {2: (0, 1, 2, 3), 4: (4, 5, 6)}),
    ("random", 44, "preemptive"): ("0.03655", {0: (6, 7), 2: (0, 1, 2, 3), 4: (4, 5, 8)}),
    ("random", 114, "nonpreemptive"): ("0.03555", {1: (1, 2, 3), 5: (0,)}),
    ("random", 114, "preemptive"): ("0.03555", {1: (1, 2, 3), 5: (0,)}),
}


@pytest.mark.parametrize("case", list(PINNED_ANSWERS), ids=lambda c: "-".join(map(str, c)))
def test_exact_answers_are_pinned(case):
    source, seed, variant = case
    if source == "tie":
        solver, _, cfg, rows, supply, peak = TIE_RULE_CASES[variant]
        args = [Job(*row) for row in rows], GreenTrace(np.array(supply)), Tariff(peak_override=peak), cfg
    else:
        solver = {"nonpreemptive": solve_nonpreemptive_exact, "preemptive": solve_preemptive_exact}[variant]
        rng = np.random.default_rng(seed)
        args = crowded_instance(rng) if source == "crowded" else random_instance(rng, max_jobs=6, max_slots=12)
    value, sched = solver(*args)
    assert (repr(value), {p.job_id: p.active_slots for p in sched.placements}) == PINNED_ANSWERS[case]


def test_node_assignment_contiguous_always_succeeds():
    sched = Schedule(3, 6)
    commit(Job(id=0, release=0, deadline=3, proc_time=3, nodes=2), (0, 1, 2), sched)
    commit(Job(id=1, release=1, deadline=4, proc_time=2, nodes=1), (1, 2), sched)
    commit(Job(id=2, release=3, deadline=5, proc_time=2, nodes=3), (3, 4), sched)
    nodes = node_assignment(sched)
    assert nodes is not None
    assert len(nodes[0]) == 2 and len(nodes[1]) == 1 and len(nodes[2]) == 3
    assert not (set(nodes[0]) & set(nodes[1]))  # overlapping jobs share nothing


def test_node_assignment_odd_cycle_has_none():
    # five unit jobs on two machines, active-slot pairs forming a 5-cycle:
    # capacity never exceeded (each slot hosts 2 jobs) but fixed node sets
    # would 2-color an odd cycle
    sched = Schedule(2, 5)
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    for i, pair in enumerate(pairs):
        slots = tuple(sorted(pair))
        commit(Job(id=i, release=0, deadline=4, proc_time=2, nodes=1), slots, sched)
    assert (sched.demand == 2).all()
    assert node_assignment(sched) is None


@pytest.mark.filterwarnings("error")
def test_preemptive_solver_returns_an_optimum_without_a_witness():
    # five two-slot jobs on two nodes: jobs 0..3 must take exactly their two
    # window slots, and full packing leaves job 4 slots 0 and 4, so the
    # active slot pairs form a 5-cycle that fixed node sets would have to
    # 2-color. The solver searches fungible capacity only, so it returns
    # that optimum and warns of nothing.
    rows = [(0, 0, 1, 2, 1), (1, 1, 2, 2, 1), (2, 2, 3, 2, 1), (3, 3, 4, 2, 1), (4, 0, 4, 2, 1)]
    tariff = Tariff(peak_override=tuple([False] * 5))
    green = GreenTrace(np.array([2, 2, 2, 2, 2]))
    _, sched = solve_preemptive_exact([Job(*row) for row in rows], green, tariff, cfg_of(2, 5))
    assert {p.job_id: p.active_slots for p in sched.placements} == {
        0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (0, 4)
    }
    assert node_assignment(sched) is None


def random_scattered_schedule(rng):
    """Up to 12 jobs of 1 to 3 scattered slots on 2 to 6 nodes and 2 to 6
    slots, half of them M // 2 nodes wide (so odd overlaps leave no witness);
    a job that does not fit is left out."""
    M, T = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    sched = Schedule(M, T)
    for i in range(int(rng.integers(1, 13))):
        p = int(rng.integers(1, min(3, T) + 1))
        q = M // 2 if rng.random() < 0.5 else int(rng.integers(1, M + 1))
        slots = tuple(sorted(int(t) for t in rng.choice(T, size=p, replace=False)))
        if all(sched.demand[t] + q <= M for t in slots):
            commit(Job(id=i, release=0, deadline=T - 1, proc_time=p, nodes=q), slots, sched)
    return sched


def test_node_assignment_matches_plain_backtracking():
    # same dict, or None alike, as trying every combinations() pick in turn
    rng = np.random.default_rng(33)
    found = missing = 0
    for _ in range(1500):
        sched = random_scattered_schedule(rng)
        got = node_assignment(sched)
        assert got == backtrack_node_assignment(sched)
        found += got is not None and len(sched.placements) > 2
        missing += got is None
    assert found > 700 and missing > 50  # 815 and 67 of 1,500


def test_node_assignment_answers_an_odd_triangle_of_wide_jobs_fast():
    # an 8-node job alone in slot 0, then three 8-node jobs pairwise sharing
    # slots 1..3 on 16 nodes: plain backtracking tries all C(16, 8) picks
    # for the first job before it can answer None
    sched = Schedule(16, 4)
    for i, slots in enumerate([(0,), (1, 2), (1, 3), (2, 3)]):
        commit(Job(id=i, release=0, deadline=3, proc_time=len(slots), nodes=8), slots, sched)
    start = time.perf_counter()
    assert node_assignment(sched) is None
    assert time.perf_counter() - start < 1.0


# --- model emission -------------------------------------------------------


def test_emit_lp_is_byte_stable():
    # sha256 over every emitted byte: 200 random models in both variants
    # (jobs wider than the cluster among them, and wrapped lines), then a
    # zero-job model whose green of 10**12 must print through %.12g as 1e+12
    digest = hashlib.sha256()
    rng = np.random.default_rng(5)
    wide = wrapped = 0
    for _ in range(200):
        jobs, green, tariff, config = random_instance(rng)
        wide += any(j.nodes > config.machines for j in jobs)
        for variant in ("nonpreemptive", "preemptive"):
            text = emit_lp(jobs, green, tariff, config, variant=variant)
            wrapped += any(line.startswith("   ") for line in text.splitlines())
            digest.update(text.encode())
    green = GreenTrace(np.array([0, 10**12, 1]))
    for variant in ("nonpreemptive", "preemptive"):
        text = emit_lp([], green, TARIFF, cfg_of(2, 3), variant=variant)
        assert "Binaries" not in text and " energy_1: e_1 - aux_1 <= 1e+12\n" in text
        digest.update(text.encode())
    assert wide > 0 and wrapped > 0
    assert digest.hexdigest() == (
        "914c05545f4e1e9677965cf9147bac255f9a90152d4df118f06ae4ae66908534"
    )


def test_emit_lp_smallest_model_shape():
    cfg = cfg_of(1, 2)
    job = Job(id=0, release=0, deadline=1, proc_time=1, nodes=1)
    text = emit_lp([job], zeros(2), TARIFF, cfg, variant="preemptive")
    assert "y_0" in text and "aux_0" in text and "aux_1" in text
    assert "Maximize" in text and "Binaries" in text
    assert "w_0_0" in text and "w_0_1" in text and "e_0" in text
    contiguous = emit_lp([job], zeros(2), TARIFF, cfg)  # nonpreemptive by default
    assert "s_0_0" in contiguous and "s_0_1" in contiguous and "w_0" not in contiguous


def test_emit_lp_rejects_unknown_variant_and_accepts_mixed_shapes():
    cfg = cfg_of(2, 4)
    jobs = [Job(id=0, release=0, deadline=3, proc_time=1, nodes=1)]
    with pytest.raises(ValueError, match="nonpreemptive or preemptive"):
        emit_lp(jobs, zeros(4), TARIFF, cfg, variant="equal_jobs")
    mixed = jobs + [
        Job(id=1, release=0, deadline=3, proc_time=2, nodes=2),
        Job(id=2, release=1, deadline=3, proc_time=1, nodes=3),  # wider than M
    ]
    native, _ = solve_nonpreemptive_exact(mixed, zeros(4), TARIFF, cfg)
    text = emit_lp(mixed, zeros(4), TARIFF, cfg, variant="nonpreemptive")
    assert "s_2_" not in text  # no options, so no activity variables
    lp_value, assignment = solve_lp_text(text)
    assert lp_value == pytest.approx(native, abs=1e-9)
    assert assignment["y_2"] == 0


def lp_parity(variant, solve, seed):
    """The scipy re-solve of the emitted model equals the native optimum on
    300 small random problems, some with jobs wider than the cluster."""
    rng = np.random.default_rng(seed)
    wide = 0
    for _ in range(300):
        jobs, green, tariff, config = random_instance(
            rng, max_jobs=5, max_slots=8, max_machines=3
        )
        wide += any(j.nodes > config.machines for j in jobs)
        native, _ = solve(jobs, green, tariff, config)
        text = emit_lp(jobs, green, tariff, config, variant=variant)
        lp_value, _ = solve_lp_text(text)
        assert lp_value == pytest.approx(native, abs=1e-9)
    assert wide > 0


def test_preemptive_lp_matches_native_solver():
    lp_parity("preemptive", solve_preemptive_exact, 6)
    # no fixed per-job node set realizes this optimum; the LP, like the
    # solver, treats capacity as fungible and reaches the same value
    cfg = cfg_of(3, 5)
    jobs = [
        Job(id=0, release=3, deadline=4, proc_time=2, nodes=1),
        Job(id=1, release=2, deadline=3, proc_time=2, nodes=2),
        Job(id=2, release=1, deadline=4, proc_time=3, nodes=1),
        Job(id=3, release=2, deadline=4, proc_time=1, nodes=1),
    ]
    green = GreenTrace(np.array([2, 1, 3, 0, 2]))
    tariff = Tariff(peak_override=(False, True, True, True, True))
    native, sched = solve_preemptive_exact(jobs, green, tariff, cfg)
    assert node_assignment(sched) is None
    lp_value, _ = solve_lp_text(emit_lp(jobs, green, tariff, cfg, variant="preemptive"))
    assert native == pytest.approx(0.0368, abs=1e-12)
    assert lp_value == pytest.approx(native, abs=1e-9)


def test_nonpreemptive_lp_matches_native_solver():
    lp_parity("nonpreemptive", solve_nonpreemptive_exact, 16)


def test_lp_roundtrip_parse_and_solution_consistency():
    # the parsed-and-resolved optimum prices the same schedule the native
    # solver found, confirming objective and constraints encode profit
    cfg = cfg_of(2, 4)
    tariff = Tariff(peak_override=(True, False, True, False))
    jobs = [
        Job(id=0, release=0, deadline=3, proc_time=2, nodes=1),
        Job(id=1, release=0, deadline=3, proc_time=2, nodes=1),
    ]
    green = GreenTrace(np.array([1, 1, 0, 0]))
    native, sched = solve_nonpreemptive_exact(jobs, green, tariff, cfg)
    report = account(sched, green, tariff, cfg)
    lp_value, assignment = solve_lp_text(
        emit_lp(jobs, green, tariff, cfg, variant="nonpreemptive")
    )
    assert lp_value == pytest.approx(report.net_profit, abs=1e-9)
    picked = [k for k, v in assignment.items() if k.startswith("y_") and v > 0.5]
    assert len(picked) == len(sched.placements)
