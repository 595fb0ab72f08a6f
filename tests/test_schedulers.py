import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greensched import schedulers
from greensched.experiment import ExperimentConfig, run_suite, stable_seed
from greensched.model import Job, Schedule, SimConfig, commit, release_order
from greensched.offline import solve_nonpreemptive_exact, solve_preemptive_exact
from greensched.pricing import (
    GreenTrace,
    RandomFitParams,
    Tariff,
    account,
    normalized_values,
    random_fit_params,
    synthetic_solar,
)
from greensched.schedulers import (
    KINDS,
    OnlineState,
    SchedulerKind,
    decision_log,
    expected_profit,
    place,
    run_online,
    run_trials,
)
from greensched.workload import WorkloadSpec, generate

from oracles import (
    decision_time_log,
    enumerated_expected_profit,
    full_horizon_choice,
    per_seed_profits,
    random_instance,
)


def small_cfg(machines=2, horizon=10):
    return SimConfig(machines=machines, horizon_slots=horizon, forecast_slots=horizon)


TARIFF = Tariff()
PARAMS = random_fit_params(normalized_values(TARIFF, SimConfig()))
FF, BF, RF = SchedulerKind("FF"), SchedulerKind("BF"), SchedulerKind("RF", PARAMS)


def fresh_state(cfg, green=None, tariff=TARIFF, seed=None):
    g = GreenTrace(np.zeros(cfg.horizon_slots, dtype=np.int64)) if green is None else green
    state = OnlineState.create(g, tariff, cfg)
    if seed is not None:
        state.coin = schedulers._seeded_coin(seed)
    return state


def counting(coin, asked):
    """The coin, appending each flip's keep threshold to ``asked``."""

    def flip(keep_first):
        asked.append(keep_first)
        return coin(keep_first)

    return flip


def test_state_rejects_an_onpeak_window_past_the_day():
    hourly = SimConfig(machines=2, horizon_slots=48, slot_minutes=60)
    g = GreenTrace(np.zeros(48, dtype=np.int64))
    with pytest.raises(ValueError, match="a day has 24 slots of 60 minutes"):
        OnlineState.create(g, Tariff(), hourly)
    state = OnlineState.create(g, Tariff(onpeak_start_slot=9, onpeak_end_slot=23), hourly)
    assert state.brown_cost[23] > state.brown_cost[24]  # 23:00 on-peak, then midnight


def test_kind_validation():
    with pytest.raises(ValueError):
        SchedulerKind("XX")
    with pytest.raises(ValueError):
        SchedulerKind("RF")  # params missing
    assert SchedulerKind("PRF", PARAMS).randomized


def test_ff_takes_earliest():
    cfg = small_cfg()
    state = fresh_state(cfg)
    placed = place(Job(id=0, release=3, deadline=9, proc_time=2, nodes=1), state, FF)
    assert placed == (3, 4)


def test_ff_rejects_when_full():
    cfg = small_cfg(machines=1, horizon=4)
    state = fresh_state(cfg)
    place(Job(id=0, release=0, deadline=3, proc_time=4, nodes=1), state, FF)
    assert place(Job(id=1, release=0, deadline=3, proc_time=1, nodes=1), state, FF) is None


def test_bf_chases_green_slot():
    # green covers the job only at slot 5; every other start costs brown
    cfg = small_cfg(machines=2, horizon=10)
    g = np.zeros(10, dtype=np.int64)
    g[5] = 2
    state = fresh_state(cfg, GreenTrace(g))
    placed = place(Job(id=0, release=0, deadline=9, proc_time=1, nodes=2), state, BF)
    assert placed == (5,)


def test_bf_tie_breaks_earliest():
    cfg = small_cfg(machines=2, horizon=8)
    state = fresh_state(cfg)  # no green anywhere: all windows cost the same
    placed = place(Job(id=0, release=2, deadline=7, proc_time=2, nodes=1), state, BF)
    assert placed == (2, 3)


def test_bf_ignores_green_past_forecast():
    # forecast ends at slot 2; the rich green at slot 3 must not attract BF
    cfg = SimConfig(machines=2, horizon_slots=5, forecast_slots=2)
    g = np.array([0, 1, 0, 2, 0])
    tariff = Tariff(peak_override=(False, True, False, False, False))
    state = OnlineState.create(GreenTrace(g), tariff, cfg)
    # visible costs for q=2: slot0 2*b_off=0.0056, slot1 1*b_on=0.00455,
    # slots 2..4 2*b_off; with foresight slot 3 would be free, but blinded
    # best-fit settles for the half-green on-peak slot
    placed = place(Job(id=0, release=0, deadline=4, proc_time=1, nodes=2), state, BF)
    assert placed == (1,)
    wide = SimConfig(machines=2, horizon_slots=5, forecast_slots=4)
    state2 = OnlineState.create(GreenTrace(g), tariff, wide)
    placed2 = place(Job(id=0, release=0, deadline=4, proc_time=1, nodes=2), state2, BF)
    assert placed2 == (3,)


def test_bf_sees_green_inside_forecast():
    cfg = SimConfig(machines=2, horizon_slots=5, forecast_slots=4)
    g = np.array([0, 0, 0, 2, 0])
    state = OnlineState.create(GreenTrace(g), TARIFF, cfg)
    placed = place(Job(id=0, release=0, deadline=4, proc_time=1, nodes=2), state, BF)
    assert placed == (3,)


def test_pff_scatters_greedily():
    cfg = small_cfg(machines=2, horizon=4)
    state = fresh_state(cfg)
    place(Job(id=9, release=0, deadline=3, proc_time=4, nodes=2), state, FF)
    # grid full except nothing; next job must fail non-preemptively
    assert place(Job(id=1, release=0, deadline=3, proc_time=1, nodes=1), state, FF) is None
    cfg2 = small_cfg(machines=2, horizon=4)
    state2 = fresh_state(cfg2)
    place(Job(id=9, release=1, deadline=1, proc_time=1, nodes=2), state2, FF)
    placed = place(
        Job(id=1, release=0, deadline=3, proc_time=2, nodes=1),
        state2, SchedulerKind("PFF"),
    )
    assert placed == (0, 2)


def test_pbf_picks_cheapest_slots_tie_earlier():
    cfg = SimConfig(machines=1, horizon_slots=6, forecast_slots=6)
    tariff = Tariff(peak_override=(True, False, True, False, True, False))
    state = OnlineState.create(GreenTrace(np.zeros(6, dtype=np.int64)), tariff, cfg)
    placed = place(
        Job(id=0, release=0, deadline=5, proc_time=3, nodes=1),
        state, SchedulerKind("PBF"),
    )
    assert placed == (1, 3, 5)  # the three off-peak slots


def test_pbf_prefers_visible_green_over_offpeak():
    cfg = SimConfig(machines=1, horizon_slots=4, forecast_slots=4)
    tariff = Tariff(peak_override=(True, False, False, False))
    g = np.array([1, 0, 0, 0])
    state = OnlineState.create(GreenTrace(g), tariff, cfg)
    placed = place(
        Job(id=0, release=0, deadline=3, proc_time=2, nodes=1),
        state, SchedulerKind("PBF"),
    )
    # slot 0 is free thanks to green despite being on-peak; then earliest off-peak
    assert placed == (0, 1)


def test_rf_green_path_spends_no_randomness():
    cfg = small_cfg(machines=2, horizon=6)
    g = np.full(6, 2, dtype=np.int64)
    state = fresh_state(cfg, GreenTrace(g), seed=123)
    asked = []
    state.coin = counting(state.coin, asked)
    placed = place(Job(id=0, release=0, deadline=5, proc_time=2, nodes=2), state, RF)
    assert placed == (0, 1)  # deterministic first-fit
    assert asked == []


def test_rf_flips_only_when_green_short():
    cfg = small_cfg(machines=2, horizon=6)
    state = fresh_state(cfg, seed=123)
    asked = []
    state.coin = counting(state.coin, asked)
    place(Job(id=0, release=0, deadline=5, proc_time=1, nodes=1), state, RF)
    assert asked == [PARAMS.p_off_to_on]  # slot 0 is off-peak under the stock tariff


def test_rf_unseeded_coin_raises():
    cfg = small_cfg()
    state = fresh_state(cfg)  # no rng
    with pytest.raises(ValueError, match="seeded"):
        place(Job(id=0, release=0, deadline=9, proc_time=1, nodes=1), state, RF)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**64 - 1])
def test_state_coin_stream_equals_default_rng(seed):
    # one uniform draw per flip, compared with the flip's keep threshold
    state = fresh_state(small_cfg(), seed=seed)
    keep = np.random.default_rng(99).random(1000)
    flips = [state.coin(float(k)) for k in keep]
    assert flips == (np.random.default_rng(seed).random(1000) < keep).tolist()


def _random_jobs(rng, T, M, n):
    jobs = []
    for i in range(n):
        p = int(rng.integers(1, 4))
        r = int(rng.integers(0, T - p + 1))
        d = int(rng.integers(r + p - 1, T))
        q = int(rng.integers(1, M + 1))
        jobs.append(Job(id=i, release=r, deadline=d, proc_time=p, nodes=q))
    return jobs


@pytest.mark.parametrize("preemptive", [False, True])
def test_rf_degenerate_coins_match_parents(preemptive):
    # force the coin: p=1 reproduces first-fit, p=0 reproduces best-fit
    always_ff = RandomFitParams(1.0, 1.0, 0.0, 0.0)
    always_bf = RandomFitParams(0.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(42)
    for trial in range(100):
        T = int(rng.integers(4, 12))
        M = int(rng.integers(1, 4))
        jobs = _random_jobs(rng, T, M, int(rng.integers(1, 7)))
        cfg = SimConfig(machines=M, horizon_slots=T, forecast_slots=T)
        green = GreenTrace(rng.integers(0, M + 1, size=T))
        base = "PFF" if preemptive else "FF"
        kind_rf = SchedulerKind("PRF" if preemptive else "RF", always_ff)
        s_rf, _ = run_online(jobs, kind_rf, green, TARIFF, cfg, seed=trial)
        s_ff, _ = run_online(jobs, SchedulerKind(base), green, TARIFF, cfg)
        assert s_rf.placements == s_ff.placements
        kind_rf0 = SchedulerKind("PRF" if preemptive else "RF", always_bf)
        base_bf = "PBF" if preemptive else "BF"
        s_rf0, _ = run_online(jobs, kind_rf0, green, TARIFF, cfg, seed=trial)
        s_bf, _ = run_online(jobs, SchedulerKind(base_bf), green, TARIFF, cfg)
        assert s_rf0.placements == s_bf.placements


def test_rf_expected_profit_on_dilemma():
    # one job, on-peak now vs off-peak later with no second chance: keeping
    # first-fit with probability p earns p*v_on + (1-p)*v_off of the unit value
    cfg = SimConfig(machines=1, horizon_slots=2, forecast_slots=2)
    tariff = Tariff(peak_override=(True, False))
    job = Job(id=0, release=0, deadline=1, proc_time=1, nodes=1)
    green = GreenTrace(np.zeros(2, dtype=np.int64))
    nv = normalized_values(tariff, cfg)
    params = random_fit_params(nv)
    unit = tariff.charge_rate * cfg.slot_hours
    kind = SchedulerKind("RF", params)
    trials = 40_000
    # per-seed profits, bit for bit (see test_run_trials_equals_per_seed_runs)
    mean = run_trials([job], kind, green, tariff, cfg, range(trials)).mean()
    p = params.p_on_to_off
    expect = unit * (p * nv.v_on + (1 - p) * nv.v_off)
    # binomial noise: sigma = unit * |v_off - v_on| * sqrt(p(1-p)/n)
    sigma = unit * (nv.v_off - nv.v_on) * (p * (1 - p) / trials) ** 0.5
    assert abs(mean - expect) < 4 * sigma
    # the coin-path enumeration has no sampling noise
    exact = expected_profit([job], kind, green, tariff, cfg)
    assert exact == pytest.approx(expect, rel=1e-12)


def test_run_online_sorts_arrivals_and_logs_every_job():
    cfg = small_cfg(machines=1, horizon=6)
    jobs = [
        Job(id=2, release=4, deadline=5, proc_time=1, nodes=1),
        Job(id=0, release=0, deadline=1, proc_time=2, nodes=1),
        Job(id=1, release=0, deadline=2, proc_time=2, nodes=1),  # blocked
    ]
    green = GreenTrace(np.zeros(6, dtype=np.int64))
    sched, report = run_online(jobs, SchedulerKind("FF"), green, TARIFF, cfg)
    log = decision_log(jobs, sched, green, TARIFF, cfg)
    assert [e.job_id for e in log] == [0, 1, 2]
    assert [e.decision for e in log] == ["admit", "reject", "admit"]
    # committed placements never moved: the log's slots are the final ones
    by_id = {p.job_id: p for p in sched.placements}
    for e in log:
        if e.decision == "admit":
            assert by_id[e.job_id].active_slots == e.slots
    assert report.revenue == pytest.approx(0.0055 * 3, abs=1e-15)


@pytest.mark.parametrize("name", KINDS)
def test_admit_draws_true_residual_green(name):
    # forecast shorter than the horizon: decisions are blinded past it, but
    # the draw at commit time still takes the true residual of every slot
    cfg = SimConfig(machines=3, horizon_slots=8, forecast_slots=3)
    rng = np.random.default_rng(5)
    jobs = _random_jobs(rng, 8, 3, 8)
    green = GreenTrace(rng.integers(0, 4, size=8))
    kind = SchedulerKind(name, PARAMS if name in ("RF", "PRF") else None)
    sched, _ = run_online(jobs, kind, green, TARIFF, cfg, seed=7)
    nodes = {job.id: job.nodes for job in jobs}
    demand = np.zeros(8, dtype=np.int64)
    admitted = 0
    for entry in decision_log(jobs, sched, green, TARIFF, cfg):
        if entry.decision == "reject":
            continue
        admitted += 1
        q = nodes[entry.job_id]
        residual = np.maximum(0, green.supply - demand)
        assert entry.green_units == sum(min(q, residual[t]) for t in entry.slots)
        demand[list(entry.slots)] += q
    assert admitted > 1


@pytest.mark.parametrize("name", KINDS)
def test_choice_priced_to_the_deadline_matches_full_horizon(name):
    # the engine prices [0, deadline] only; the slots and the coins it draws
    # must equal pricing over the whole horizon, with the forecast ending
    # before, inside or after the horizon
    kind = SchedulerKind(name, PARAMS if name in ("RF", "PRF") else None)
    rng = np.random.default_rng(17)
    forecasts = set()
    decisions = 0
    for _ in range(120):
        T = int(rng.integers(4, 25))
        M = int(rng.integers(1, 4))
        forecast = int(rng.integers(1, 2 * T))
        forecasts.add(forecast < T)
        cfg = SimConfig(machines=M, horizon_slots=T, forecast_slots=forecast)
        tariff = Tariff(peak_override=tuple(bool(x) for x in rng.random(T) < 0.5))
        green = GreenTrace(rng.integers(0, M + 1, size=T))
        state = fresh_state(cfg, green, tariff)
        jobs = _random_jobs(rng, T, M, int(rng.integers(1, 10)))
        for job in sorted(jobs, key=lambda j: (j.release, j.deadline, j.id)):
            seed = int(rng.integers(2**32))
            drawn, asked = [], []
            state.coin = counting(schedulers._seeded_coin(seed), drawn)
            want = full_horizon_choice(job, state, kind, tariff)
            state.coin = counting(schedulers._seeded_coin(seed), asked)
            got = schedulers._choose(job, state, kind)
            # a contiguous pick comes back as a range; the oracle gives a tuple
            assert (None if got is None else tuple(got)) == want
            assert asked == drawn
            if got is not None:
                commit(job, got, state.schedule)
                decisions += 1
    assert forecasts == {True, False}
    assert decisions > 300


@pytest.mark.parametrize("name", KINDS)
def test_contiguous_picks_reach_commit_as_unit_step_ranges(name, monkeypatch):
    # place returns the stored tuple, while commit is handed every
    # contiguous pick as a range, so it skips the per-slot scan; a change
    # that rebuilds tuples on the way fails here
    handed = []

    def recorded(job, slots, schedule):
        handed.append(slots)
        return commit(job, slots, schedule)

    monkeypatch.setattr(schedulers, "commit", recorded)
    kind = SchedulerKind(name, PARAMS if name in ("RF", "PRF") else None)
    rng = np.random.default_rng(5)
    cfg = small_cfg(machines=3, horizon=16)
    green = GreenTrace(rng.integers(0, 4, size=16))
    state = fresh_state(cfg, green, seed=11)
    placed = []
    for job in release_order(_random_jobs(rng, 16, 3, 40)):
        slots = place(job, state, kind)
        if slots is not None:
            assert type(slots) is tuple
            assert slots is state.schedule.placements[-1].active_slots
            placed.append(slots)
    assert len(handed) == len(placed) > 10
    runs = 0
    for sent, slots in zip(handed, placed):
        assert tuple(sent) == slots
        if slots[-1] - slots[0] + 1 == len(slots):
            assert type(sent) is range and sent.step == 1
            runs += 1
        else:
            assert type(sent) is tuple
    if not kind.kind.startswith("P"):
        assert runs == len(placed)
    else:
        assert 0 < runs < len(placed)


def count_scans(monkeypatch):
    """Job ids passed to the engine's two window scans, by scan name."""
    calls = {"first_start": [], "nonpreemptive_starts": []}
    for name, calls_of in calls.items():
        def counted(job, schedule, scan=getattr(schedulers, name), calls_of=calls_of):
            calls_of.append(job.id)
            return scan(job, schedule)

        monkeypatch.setattr(schedulers, name, counted)
    return calls


def test_rf_scans_capacity_once_per_job(monkeypatch):
    # zero green and a coin that never keeps first-fit: every job takes the
    # best-fit branch. Its first pick comes from one byte search, and the
    # full scan of every start runs once, only to price the best-fit pick
    calls = count_scans(monkeypatch)
    cfg = small_cfg(machines=2, horizon=10)
    jobs = [Job(id=i, release=i, deadline=9, proc_time=2, nodes=1) for i in range(4)]
    always_bf = RandomFitParams(0.0, 0.0, 0.0, 0.0)
    green = GreenTrace(np.zeros(10, dtype=np.int64))
    sched, _ = run_online(jobs, SchedulerKind("RF", always_bf), green, TARIFF, cfg, seed=1)
    log = decision_log(jobs, sched, green, TARIFF, cfg)
    assert [e.decision for e in log] == ["admit"] * 4
    assert calls == {"first_start": [0, 1, 2, 3], "nonpreemptive_starts": [0, 1, 2, 3]}


def test_ff_finds_its_window_without_the_full_scan(monkeypatch):
    # first-fit needs only the earliest window: one byte search per job,
    # also for the job that fits nowhere, and never the list of every start
    calls = count_scans(monkeypatch)
    cfg = small_cfg(machines=1, horizon=10)
    sizes = (4, 4, 4, 2)
    jobs = [Job(id=i, release=i, deadline=9, proc_time=p, nodes=1) for i, p in enumerate(sizes)]
    green = GreenTrace(np.zeros(10, dtype=np.int64))
    sched, _ = run_online(jobs, FF, green, TARIFF, cfg)
    log = decision_log(jobs, sched, green, TARIFF, cfg)
    assert [e.decision for e in log] == ["admit", "admit", "reject", "admit"]
    assert calls == {"first_start": [0, 1, 2, 3], "nonpreemptive_starts": []}


def count_pricing(monkeypatch):
    """Job ids passed to ``_visible_green``, the horizon-length pricing."""
    calls = []
    visible_green = schedulers._visible_green

    def counted(job, state):
        calls.append(job.id)
        return visible_green(job, state)

    monkeypatch.setattr(schedulers, "_visible_green", counted)
    return calls


ALWAYS_FF = RandomFitParams(1.0, 1.0, 0.0, 0.0)
ALWAYS_BF = RandomFitParams(0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "name, params, supply, priced",
    [
        pytest.param("BF", None, 0, True, id="BF"),
        pytest.param("PBF", None, 0, True, id="PBF"),
        pytest.param("BF", None, 1, True, id="BF-green"),
        pytest.param("RF", ALWAYS_FF, 0, False, id="RF-keeps"),
        pytest.param("PRF", ALWAYS_FF, 0, False, id="PRF-keeps"),
        pytest.param("RF", PARAMS, 1, False, id="RF-green"),
        pytest.param("PRF", PARAMS, 1, False, id="PRF-green"),
        pytest.param("RF", ALWAYS_BF, 0, True, id="RF-switches"),
        pytest.param("PRF", ALWAYS_BF, 0, True, id="PRF-switches"),
    ],
)
def test_visible_green_is_built_only_to_price_a_best_fit_pick(name, params, supply, priced, monkeypatch):
    # best-fit prices every job the scan finds room for; random-fit builds
    # the prices only after its coin switches, never when it keeps first-fit
    # or when green covers the pick. A job with no room is never priced
    calls = count_pricing(monkeypatch)
    cfg = small_cfg(machines=1, horizon=10)
    sizes = (4, 4, 4, 2, 3)
    jobs = [Job(id=i, release=i, deadline=9, proc_time=p, nodes=1) for i, p in enumerate(sizes)]
    green = GreenTrace(np.full(10, supply, dtype=np.int64))
    sched, _ = run_online(jobs, SchedulerKind(name, params), green, TARIFF, cfg, seed=3)
    admitted = [e.job_id for e in decision_log(jobs, sched, green, TARIFF, cfg) if e.decision == "admit"]
    assert 0 < len(admitted) < len(jobs)
    assert calls == (admitted if priced else [])


@pytest.mark.parametrize("name, pick", [("RF", (3, 4, 5)), ("PRF", (1, 3, 4))])
def test_random_fit_sees_green_up_to_the_forecast_edge(name, pick):
    # green covers the pick. It is visible, and the decision spends no coin,
    # while its last slot is before release + forecast_slots; one slot
    # further, the forecast ends on the pick and the coin is flipped
    kind = SchedulerKind(name, PARAMS)
    job = Job(id=0, release=1, deadline=7, proc_time=3, nodes=1)
    for forecast, flips in ((pick[-1] - job.release + 1, 0), (pick[-1] - job.release, 1)):
        cfg = SimConfig(machines=2, horizon_slots=8, forecast_slots=forecast)
        state = fresh_state(cfg, GreenTrace(np.full(8, 2, dtype=np.int64)))
        # a full slot 2: the window starts after it, the spare slots skip it
        commit(Job(id=9, release=2, deadline=2, proc_time=1, nodes=2), (2,), state.schedule)
        asked = []
        state.coin = counting(lambda keep_first: True, asked)
        assert tuple(schedulers._choose(job, state, kind)) == pick
        assert len(asked) == flips


def test_run_online_needs_seed_for_randomized_kinds():
    cfg = small_cfg()
    jobs = [Job(id=0, release=0, deadline=9, proc_time=1, nodes=1)]
    green = GreenTrace(np.zeros(10, dtype=np.int64))
    for kind in (RF, SchedulerKind("PRF", PARAMS)):
        with pytest.raises(ValueError, match="seed"):
            run_online(jobs, kind, green, TARIFF, cfg)


@pytest.mark.parametrize("supply", [2, 0], ids=["all_green", "no_green"])
def test_run_online_rejects_a_negative_seed_before_any_play(supply, engine_plays):
    # all green never flips the coin; no green flips it on the first job
    cfg = small_cfg(machines=2, horizon=6)
    jobs = [Job(id=0, release=0, deadline=5, proc_time=2, nodes=1)]
    green = GreenTrace(np.full(6, supply, dtype=np.int64))
    with pytest.raises(ValueError, match="seed must be non-negative"):
        run_online(jobs, RF, green, TARIFF, cfg, seed=-1)
    with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
        run_online(jobs, RF, green, TARIFF, cfg, seed=2**64)
    assert engine_plays == []


def test_sequential_green_draw_sums_to_pooled_usage():
    cfg = small_cfg(machines=3, horizon=8)
    rng = np.random.default_rng(9)
    jobs = _random_jobs(rng, 8, 3, 7)
    green = GreenTrace(rng.integers(0, 4, size=8))
    sched, report = run_online(jobs, SchedulerKind("BF"), green, TARIFF, cfg)
    log = decision_log(jobs, sched, green, TARIFF, cfg)
    assert sum(e.green_units for e in log) == report.green_total
    assert sum(e.brown_units for e in log) == report.brown_total
    assert sum(e.cost for e in log) == pytest.approx(report.brown_cost, abs=1e-12)
    assert sum(e.revenue for e in log) == pytest.approx(report.revenue, abs=1e-12)


@pytest.mark.parametrize("name", KINDS)
def test_decision_log_equals_decision_time_pricing(name):
    # forecast shorter than the horizon and random green: the log rebuilt
    # from the schedule equals, by repr, the log priced as each job was
    # decided
    kind = SchedulerKind(name, PARAMS if name in ("RF", "PRF") else None)
    rng = np.random.default_rng(61)
    admits = 0
    for seed in range(15):
        T = int(rng.integers(6, 30))
        M = int(rng.integers(1, 5))
        cfg = SimConfig(machines=M, horizon_slots=T, forecast_slots=int(rng.integers(1, T)))
        tariff = Tariff(peak_override=tuple(bool(x) for x in rng.random(T) < 0.5))
        green = GreenTrace(rng.integers(0, M + 1, size=T))
        jobs = _random_jobs(rng, T, M, int(rng.integers(1, 12)))
        want, want_sched = decision_time_log(jobs, kind, green, tariff, cfg, seed)
        sched, _ = run_online(jobs, kind, green, tariff, cfg, seed=seed)
        assert sched.placements == want_sched.placements
        got = decision_log(jobs, sched, green, tariff, cfg)
        assert repr(got) == repr(want)
        admits += len(sched.placements)
    assert admits > 40


@pytest.mark.parametrize("preemptive", [False, True])
def test_decision_log_of_an_exact_schedule_matches_account(preemptive):
    solver = solve_preemptive_exact if preemptive else solve_nonpreemptive_exact
    size = dict(max_jobs=4, max_slots=7, max_machines=2) if preemptive else {}
    rng = np.random.default_rng(71)
    admits = 0
    for _ in range(40):
        jobs, green, tariff, cfg = random_instance(rng, **size)
        _, sched = solver(jobs, green, tariff, cfg)
        log = decision_log(jobs, sched, green, tariff, cfg)
        report = account(sched, green, tariff, cfg)
        assert sum(e.green_units for e in log) == report.green_total
        assert sum(e.brown_units for e in log) == report.brown_total
        admits += sum(e.decision == "admit" for e in log)
    assert admits > 40


def test_decision_log_rejects_placements_out_of_commit_order():
    cfg = small_cfg(machines=2, horizon=6)
    jobs = [Job(id=i, release=i, deadline=5, proc_time=1, nodes=1) for i in range(2)]
    green = GreenTrace(np.zeros(6, dtype=np.int64))
    swapped = Schedule(2, 6)
    commit(jobs[1], (1,), swapped)
    commit(jobs[0], (0,), swapped)
    with pytest.raises(ValueError, match="placement of job 0 is out of order"):
        decision_log(jobs, swapped, green, TARIFF, cfg)
    both = Schedule(2, 6)
    commit(jobs[0], (0,), both)
    commit(jobs[1], (1,), both)
    with pytest.raises(ValueError, match="placement of job 1"):
        decision_log(jobs[:1], both, green, TARIFF, cfg)


def test_engine_plays_build_no_log(monkeypatch):
    # the sweep and Monte Carlo only read schedules and profits, so no play
    # may build a log entry; decision_log builds them on request
    built = []
    entry = schedulers.LogEntry

    def counted(*args, **kwargs):
        built.append(None)
        return entry(*args, **kwargs)

    monkeypatch.setattr(schedulers, "LogEntry", counted)
    cfg = ExperimentConfig(
        sim=SimConfig(machines=4, horizon_slots=48, forecast_slots=24),
        families=("UE", "UU"),
        utilization=(0.6,),
        fixed_p=3,
        fixed_q=2,
        algorithms=("FF", "BF", "RF"),
        repetitions=2,
    )
    tables = run_suite(cfg, preemption=True)
    assert len(tables["runs"]) == 12 and built == []
    rng = np.random.default_rng(4)
    jobs, green, tariff, sim = random_instance(rng, max_jobs=6)
    run_trials(jobs, RF, green, tariff, sim, range(50))
    assert built == []
    sched, _ = run_online(jobs, RF, green, tariff, sim, seed=0)
    decision_log(jobs, sched, green, tariff, sim)
    assert len(built) == len(jobs)


def test_run_online_rejects_horizon_violations():
    cfg = small_cfg(machines=1, horizon=4)
    bad = Job(id=0, release=0, deadline=4, proc_time=1, nodes=1)
    green = GreenTrace(np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="horizon"):
        run_online([bad], SchedulerKind("FF"), green, TARIFF, cfg)


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


def write_log_csv(entries, path) -> None:
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


def test_log_csv_format(tmp_path):
    cfg = small_cfg(machines=1, horizon=4)
    jobs = [Job(id=0, release=0, deadline=3, proc_time=2, nodes=1)]
    green = GreenTrace(np.array([1, 0, 0, 0]))
    sched, _ = run_online(jobs, SchedulerKind("FF"), green, TARIFF, cfg)
    log = decision_log(jobs, sched, green, TARIFF, cfg)
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(LOG_HEADER)
    assert lines[1].startswith("0,admit,0,0;1,1,1,")


@pytest.mark.parametrize("name", ["RF", "PRF"])
def test_run_trials_equals_per_seed_runs(name, engine_plays):
    kind = SchedulerKind(name, PARAMS)
    rng = np.random.default_rng(31)
    seeds = range(40, 140)
    most_paths = 0
    for _ in range(60):
        jobs, green, tariff, cfg = random_instance(rng, max_jobs=6)
        want = per_seed_profits(jobs, kind, green, tariff, cfg, seeds)
        engine_plays.clear()
        got = run_trials(jobs, kind, green, tariff, cfg, seeds)
        assert got.tobytes() == want.tobytes()
        most_paths = max(most_paths, len(engine_plays))
        # a range of any step is read by its ends: every third seed, the
        # seeds descending and no seed at all
        for part in (slice(None, None, 3), slice(None, None, -1), slice(0)):
            got = run_trials(jobs, kind, green, tariff, cfg, seeds[part])
            assert got.tobytes() == want[part].tobytes(), part
    # the instances flip several coins per run, so trials do share paths
    assert 4 <= most_paths < len(seeds)


def seed_flips(jobs, kind, green, tariff, cfg, seeds, monkeypatch):
    """Each seed's per-seed ``run_online`` flips, as (keep_first, outcome) lists."""
    seeded = schedulers._seeded_coin
    runs = []
    for seed in seeds:
        flips = []

        def recording(keep_first, coin=seeded(seed)):
            flips.append((keep_first, coin(keep_first)))
            return flips[-1][1]

        monkeypatch.setattr(schedulers, "_seeded_coin", lambda _: recording)
        run_online(jobs, kind, green, tariff, cfg, seed=seed)
        runs.append(flips)
    monkeypatch.setattr(schedulers, "_seeded_coin", seeded)
    return runs


def seed_paths(jobs, kind, green, tariff, cfg, seeds, monkeypatch):
    """The distinct coin-outcome paths of per-seed ``run_online`` runs."""
    runs = seed_flips(jobs, kind, green, tariff, cfg, seeds, monkeypatch)
    return {tuple(outcome for _, outcome in flips) for flips in runs}


@pytest.mark.parametrize("name", ["RF", "PRF"])
def test_each_trial_group_plays_its_first_seeds_own_run(name, monkeypatch):
    # a group's play is the whole run of its lowest-index seed, flip 0 on,
    # with the same probabilities and outcomes as that seed's run_online
    kind = SchedulerKind(name, PARAMS)
    rng = np.random.default_rng(97)
    seeds = range(11, 71)
    rows, plays = [], []
    coin, play = schedulers._SeedDraws.coin, schedulers._play
    split = 0
    for _ in range(25):
        jobs, green, tariff, cfg = random_instance(rng, max_jobs=6)
        want = seed_flips(jobs, kind, green, tariff, cfg, seeds, monkeypatch)
        rows.clear()
        plays.clear()
        monkeypatch.setattr(
            schedulers._SeedDraws, "coin", lambda self, row: rows.append(row) or coin(self, row)
        )
        monkeypatch.setattr(schedulers, "_play", lambda *a: plays.append(play(*a)) or plays[-1])
        run_trials(jobs, kind, green, tariff, cfg, seeds)
        monkeypatch.setattr(schedulers, "_play", play)
        monkeypatch.setattr(schedulers._SeedDraws, "coin", coin)
        # seeds with one path always share a group, whose first seed is the
        # lowest of them: one play per path, by its lowest seed
        firsts = {}
        for row, flips in enumerate(want):
            firsts.setdefault(tuple(outcome for _, outcome in flips), row)
        assert sorted(rows) == sorted(firsts.values()) and len(plays) == len(rows)
        for row, (_, _, flips) in zip(rows, plays):
            assert flips == want[row], row
        split += len(rows) - 1
    assert split >= 10  # many plays belong to a group split off a deeper run


@pytest.mark.parametrize("name", ["RF", "PRF"])
@pytest.mark.parametrize("n_seeds", [1, 5, 100])
def test_run_trials_plays_only_the_paths_its_seeds_take(
    name, n_seeds, monkeypatch, engine_plays
):
    # neither playing every path up front nor playing the untaken branches
    # ahead of need may pass: one run per distinct path among the seeds
    kind = SchedulerKind(name, PARAMS)
    rng = np.random.default_rng(53)
    seeds = range(7, 7 + n_seeds)
    flipped = 0
    for _ in range(25):
        jobs, green, tariff, cfg = random_instance(rng, max_jobs=6)
        paths = seed_paths(jobs, kind, green, tariff, cfg, seeds, monkeypatch)
        engine_plays.clear()
        run_trials(jobs, kind, green, tariff, cfg, seeds)
        assert len(engine_plays) == len(paths)
        flipped += paths != {()}
    assert flipped >= 10


def test_run_trials_on_all_green_builds_no_generator(monkeypatch, engine_plays):
    cfg = small_cfg(machines=2, horizon=6)
    green = GreenTrace(np.full(6, 2, dtype=np.int64))
    jobs = [
        Job(id=0, release=0, deadline=3, proc_time=2, nodes=1),
        Job(id=1, release=1, deadline=5, proc_time=3, nodes=1),
        Job(id=2, release=2, deadline=5, proc_time=2, nodes=1),
    ]
    want = per_seed_profits(jobs, RF, green, TARIFF, cfg, range(50))
    schedulers._shared_draws.cache_clear()  # no column is left from an earlier test
    built = []
    generator = np.random.Generator
    monkeypatch.setattr(np.random, "Generator", lambda *a: built.append(a) or generator(*a))
    drawn = []
    draw = schedulers._SeedDraws._draw
    monkeypatch.setattr(
        schedulers._SeedDraws, "_draw", lambda self: drawn.append(1) or draw(self)
    )
    engine_plays.clear()
    got = run_trials(jobs, RF, green, TARIFF, cfg, range(50))
    assert got.tobytes() == want.tobytes()
    assert built == []
    assert drawn == []  # no draw column is computed for runs that never flip
    assert len(engine_plays) == 1


def test_run_trials_plays_a_deterministic_kind_once(engine_plays):
    cfg = small_cfg()
    jobs = [Job(id=0, release=0, deadline=9, proc_time=2, nodes=1)]
    green = GreenTrace(np.zeros(10, dtype=np.int64))
    seeds = range(7, 0, -3)
    got = run_trials(jobs, BF, green, TARIFF, cfg, seeds)
    assert len(engine_plays) == 1
    want = per_seed_profits(jobs, BF, green, TARIFF, cfg, seeds)
    assert got.tobytes() == want.tobytes()
    assert run_trials(jobs, BF, green, TARIFF, cfg, range(0)).size == 0


def flipping_instance():
    """One job, no green: every run of RF or PRF flips its coin once."""
    cfg = small_cfg()
    jobs = [Job(id=0, release=0, deadline=9, proc_time=2, nodes=1)]
    return jobs, GreenTrace(np.zeros(10, dtype=np.int64)), TARIFF, cfg


def counted_seedings(monkeypatch) -> list:
    """A list of each seeding's seed count, from an emptied cache of shared draws."""
    seeded = []
    seed = schedulers._pcg64_seeded
    monkeypatch.setattr(schedulers, "_pcg64_seeded", lambda a: seeded.append(a.size) or seed(a))
    schedulers._shared_draws.cache_clear()
    return seeded


def test_run_trials_seeds_a_range_once(monkeypatch):
    # calls on one range share its draws; a deterministic call in between
    # leaves them, and another range seeds anew
    jobs, green, tariff, cfg = flipping_instance()
    seeded = counted_seedings(monkeypatch)
    seeds = range(7, 57)
    first = run_trials(jobs, RF, green, tariff, cfg, seeds)
    assert seeded == [50]
    run_trials(jobs, BF, green, tariff, cfg, range(3))
    run_trials(jobs, BF, green, tariff, cfg, seeds)
    again = run_trials(jobs, SchedulerKind("PRF", PARAMS), green, tariff, cfg, range(7, 57))
    assert seeded == [50] and again.tobytes() == first.tobytes()
    run_trials(jobs, RF, green, tariff, cfg, range(7, 57, 2))
    assert seeded == [50, 25]
    run_trials(jobs, RF, green, tariff, cfg, seeds)
    assert seeded == [50, 25, 50]


@pytest.mark.parametrize("name", ["RF", "PRF"])
def test_shared_draws_equal_per_seed_runs_cold_or_warm(name, monkeypatch):
    # overlapping ranges of other steps or lengths share no column; every
    # call equals the per-seed runs, on a cold cache or on one that holds
    # the columns another instance drew on the same range
    kind = SchedulerKind(name, PARAMS)
    rng = np.random.default_rng(71)
    cases = []
    for _ in range(12):
        jobs, green, tariff, cfg = random_instance(rng, max_jobs=6)
        want = per_seed_profits(jobs, kind, green, tariff, cfg, range(7, 57))
        cases.append((jobs, green, tariff, cfg, want))
    ranges = (range(7, 57), range(7, 57, 2), range(7, 57), range(7, 40), range(56, 6, -1))
    seeded = counted_seedings(monkeypatch)
    warm_misses = 0
    for seeds in ranges:
        rows = [s - 7 for s in seeds]
        for jobs, green, tariff, cfg, want in cases:
            before = schedulers._shared_draws.cache_info().misses
            warm = run_trials(jobs, kind, green, tariff, cfg, seeds)
            warm_misses += schedulers._shared_draws.cache_info().misses - before
            schedulers._shared_draws.cache_clear()
            cold = run_trials(jobs, kind, green, tariff, cfg, seeds)
            assert warm.tobytes() == cold.tobytes() == want[rows].tobytes(), seeds
    # a warm call builds new draws only where the range changed
    assert len(seeded) > 2 * len(ranges) and warm_misses == len(ranges)


def test_shared_draw_columns_are_read_only(monkeypatch):
    jobs, green, tariff, cfg = flipping_instance()
    counted_seedings(monkeypatch)
    seeds = range(5, 25)
    run_trials(jobs, RF, green, tariff, cfg, seeds)
    draws = schedulers._shared_draws(seeds)
    assert draws.columns
    for column in draws.columns:
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 2.0


def test_a_draw_that_raises_shifts_no_later_column(monkeypatch):
    # a column that fails after its step must not advance the stored state,
    # or every later column of the shared object is one flip off
    seeds = range(3, 40, 5)
    draws = schedulers._SeedDraws(seeds)
    output = schedulers._pcg64_output
    calls = []

    def failing_once(state):
        calls.append(None)
        if len(calls) == 3:
            raise MemoryError("column 2")
        return output(state)

    monkeypatch.setattr(schedulers, "_pcg64_output", failing_once)
    draws.column(1)
    with pytest.raises(MemoryError):
        draws.column(2)
    assert len(draws.columns) == 2
    want = np.array([np.random.default_rng(s).random(6) for s in seeds])
    for d in range(6):
        assert draws.column(d).tobytes() == want[:, d].tobytes(), d


def assert_draws_equal_default_rng(seeds, depth):
    draws = schedulers._SeedDraws(seeds)
    want = np.array([np.random.default_rng(s).random(depth + 1) for s in seeds])
    for d in range(depth + 1):
        assert draws.column(d).tobytes() == want[:, d].tobytes()


@given(st.data())
def test_seed_draws_equal_default_rng(data):
    # a range of 1 to 12 seeds, of any nonzero step, with every seed in [0, 2**64)
    n = data.draw(st.integers(1, 12))
    start = data.draw(st.integers(0, 2**64 - 1))
    span = max(n - 1, 1)
    step = data.draw(st.integers(-(start // span), (2**64 - 1 - start) // span).filter(bool))
    seeds = range(start, start + n * step, step)
    assert len(seeds) == n
    assert_draws_equal_default_rng(seeds, depth=8)


def test_seed_draws_equal_default_rng_at_word_edges():
    edges = (
        range(0, 2**64, 2**62),  # 0 and 2**63 among words with a zero low half
        range(2**64 - 1, 2**32 - 2, -(2**64 - 2**32)),  # 2**64 - 1, then 2**32 - 1
        range(2**32 - 1, 2**32 + 2),  # across the high word's change
        range(2**64 - 1, 2**64 - 7, -1),  # the top words, descending
        range(2, -1, -1),  # the lowest words, descending
    )
    for seeds in edges:
        assert_draws_equal_default_rng(seeds, depth=8)
    # thousands of seeds across the high word's change, either way round
    wide = range(2**32 - 1500, 2**32 + 1500)
    assert_draws_equal_default_rng(wide, depth=2)
    assert_draws_equal_default_rng(wide[::-1], depth=2)


def test_run_trials_equals_per_seed_runs_at_and_above_2_64(engine_plays):
    # seeds up to the top 64-bit word: strided down from it, across the
    # high word's change and in a range that ends there. A range that
    # reaches 2**64, from either end, raises before any play
    seed_sets = (
        range(2**64 - 1, 0, -(2**61 + 3)),
        range(2**32 - 3, 2**32 + 3),
        range(2**64 - 6, 2**64),
    )
    rng = np.random.default_rng(61)
    for name in ("RF", "PRF"):
        kind = SchedulerKind(name, PARAMS)
        plays = [0] * len(seed_sets)
        for _ in range(20):
            jobs, green, tariff, cfg = random_instance(rng, max_jobs=6)
            for i, seeds in enumerate(seed_sets):
                want = per_seed_profits(jobs, kind, green, tariff, cfg, seeds)
                engine_plays.clear()
                got = run_trials(jobs, kind, green, tariff, cfg, seeds)
                plays[i] += len(engine_plays)
                assert got.tobytes() == want.tobytes(), seeds
        assert min(plays) > 20  # some instances split the seeds
    engine_plays.clear()
    for seeds in (range(2**64, 0, -(2**63)), range(2**64 - 3, 2**64 + 3)):
        with pytest.raises(ValueError, match=r"seeds must be below 2\*\*64"):
            run_trials(jobs, kind, green, tariff, cfg, seeds)
    assert engine_plays == []


def test_run_trials_equals_per_seed_runs_on_a_deep_tree(monkeypatch, engine_plays):
    # no green, so every placed job flips: each run is at least 6 flips deep
    cfg = SimConfig(machines=4, horizon_slots=16, forecast_slots=16)
    tariff = Tariff(peak_override=tuple(t % 3 == 0 for t in range(16)))
    green = GreenTrace(np.zeros(16, dtype=np.int64))
    jobs = [
        Job(id=i, release=i, deadline=min(i + 7, 15), proc_time=2, nodes=1 + i % 2)
        for i in range(8)
    ]
    seeds = range(300)
    for name in ("RF", "PRF"):
        kind = SchedulerKind(name, PARAMS)
        paths = seed_paths(jobs, kind, green, tariff, cfg, seeds, monkeypatch)
        assert min(map(len, paths)) >= 6
        want = per_seed_profits(jobs, kind, green, tariff, cfg, seeds)
        engine_plays.clear()
        got = run_trials(jobs, kind, green, tariff, cfg, seeds)
        assert got.tobytes() == want.tobytes()
        assert len(engine_plays) == len(paths)


def test_run_trials_rejects_a_negative_seed_before_any_play(engine_plays):
    cfg = small_cfg()
    jobs = [Job(id=0, release=0, deadline=9, proc_time=2, nodes=1)]
    green = GreenTrace(np.zeros(10, dtype=np.int64))
    # a range is checked by its lowest end, whichever way it runs
    with pytest.raises(ValueError, match="non-negative, got -1$"):
        run_trials(jobs, RF, green, TARIFF, cfg, range(3, -2, -2))
    with pytest.raises(ValueError, match="non-negative, got -2$"):
        run_trials(jobs, RF, green, TARIFF, cfg, range(-2, 5))
    assert engine_plays == []


def test_run_trials_takes_only_a_range(engine_plays):
    cfg = small_cfg()
    jobs = [Job(id=0, release=0, deadline=9, proc_time=2, nodes=1)]
    green = GreenTrace(np.zeros(10, dtype=np.int64))
    for seeds in ([3, 1, 4], (0, 1), iter(range(5)), np.arange(3)):
        with pytest.raises(TypeError, match="seeds must be a range"):
            run_trials(jobs, RF, green, TARIFF, cfg, seeds)
    assert engine_plays == []


def test_run_trials_without_seeds_plays_nothing(engine_plays):
    cfg = small_cfg()
    jobs = [Job(id=0, release=0, deadline=9, proc_time=2, nodes=1)]
    green = GreenTrace(np.zeros(10, dtype=np.int64))
    # an empty range has no seed to check, wherever it starts
    for seeds in (range(0), range(-5, -5), range(2**64, 2**64 + 9, -1)):
        got = run_trials(jobs, RF, green, TARIFF, cfg, seeds)
        assert got.shape == (0,)
    assert engine_plays == []


@pytest.mark.parametrize("preemptive", [False, True])
def test_expected_profit_with_sure_coins_is_the_parent_policy(preemptive):
    always_ff = RandomFitParams(1.0, 1.0, 0.0, 0.0)
    always_bf = RandomFitParams(0.0, 0.0, 0.0, 0.0)
    prefix = "P" if preemptive else ""
    rng = np.random.default_rng(8)
    for _ in range(40):
        jobs, green, tariff, cfg = random_instance(rng, max_jobs=6)
        for params, parent in ((always_ff, "FF"), (always_bf, "BF")):
            parent_kind = SchedulerKind(prefix + parent)
            _, report = run_online(jobs, parent_kind, green, tariff, cfg)
            kind = SchedulerKind(prefix + "RF", params)
            assert expected_profit(jobs, kind, green, tariff, cfg) == report.net_profit


def test_expected_profit_on_desk_instances(engine_plays):
    # acceptance 6's instances: eight jobs, so at most 2^8 coin paths, and
    # OPT over the exact expectation with no Monte Carlo noise; the ratios
    # are pinned by repr, and the expectation equals the oracle's
    sim = SimConfig(machines=4, horizon_slots=42, forecast_slots=42)
    tariff = Tariff()
    green = synthetic_solar(sim)
    rf = SchedulerKind("RF", random_fit_params(normalized_values(tariff, sim)))
    ratios = []
    for rep in range(4):
        spec = WorkloadSpec(
            family="UE", target_utilization=0.4, fixed_p=4, fixed_q=2,
            rng_seed=stable_seed(6, rep),
        )
        jobs = generate(spec, sim, tariff)
        opt, _ = solve_nonpreemptive_exact(jobs, green, tariff, sim)
        want, paths = enumerated_expected_profit(jobs, rf, green, tariff, sim)
        engine_plays.clear()
        mean = expected_profit(jobs, rf, green, tariff, sim)
        assert mean == want and len(engine_plays) == paths <= 2 ** len(jobs)
        ratios.append(opt / mean)
    assert list(map(repr, ratios)) == [
        "1.0968516278807545", "1.147776566196672", "1.0616471986508673", "1.1416977950167764",
    ]


@pytest.mark.parametrize("name", ["RF", "PRF"])
def test_expected_profit_equals_the_path_enumeration(name, engine_plays):
    # the oracle scripts every outcome sequence through place; the engine
    # must match it exactly and play each of its paths once
    kind = SchedulerKind(name, PARAMS)
    rng = np.random.default_rng(83)
    most_paths = 0
    for _ in range(20):
        jobs, green, tariff, cfg = random_instance(rng, max_jobs=8, max_slots=14)
        want, paths = enumerated_expected_profit(jobs, kind, green, tariff, cfg)
        engine_plays.clear()
        assert expected_profit(jobs, kind, green, tariff, cfg) == want
        assert len(engine_plays) == paths
        most_paths = max(most_paths, paths)
    assert most_paths >= 8
