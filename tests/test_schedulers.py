import numpy as np
import pytest

from greensched import schedulers
from greensched.model import Job, SimConfig, commit, nonpreemptive_starts
from greensched.pricing import (
    GreenTrace,
    RandomFitParams,
    Tariff,
    normalized_values,
    random_fit_params,
)
from greensched.schedulers import (
    KINDS,
    LOG_HEADER,
    OnlineState,
    SchedulerKind,
    place,
    run_online,
    write_log_csv,
)

from oracles import full_horizon_choice


def small_cfg(machines=2, horizon=10):
    return SimConfig(machines=machines, horizon_slots=horizon, forecast_slots=horizon)


TARIFF = Tariff()
PARAMS = random_fit_params(normalized_values(TARIFF, SimConfig()))
FF, BF, RF = SchedulerKind("FF"), SchedulerKind("BF"), SchedulerKind("RF", PARAMS)


def fresh_state(cfg, green=None, tariff=TARIFF, seed=None):
    g = GreenTrace(np.zeros(cfg.horizon_slots, dtype=np.int64)) if green is None else green
    return OnlineState.create(g, tariff, cfg, seed=seed)


def test_kind_validation():
    with pytest.raises(ValueError):
        SchedulerKind("XX")
    with pytest.raises(ValueError):
        SchedulerKind("RF")  # params missing
    assert SchedulerKind("PBF").preemptive
    assert not SchedulerKind("BF").preemptive
    assert SchedulerKind("PRF", PARAMS).randomized


def test_ff_takes_earliest():
    cfg = small_cfg()
    state = fresh_state(cfg)
    placed = place(Job(id=0, release=3, deadline=9, proc_time=2, nodes=1), state, FF, TARIFF, cfg)
    assert placed.slots == (3, 4)


def test_ff_rejects_when_full():
    cfg = small_cfg(machines=1, horizon=4)
    state = fresh_state(cfg)
    place(Job(id=0, release=0, deadline=3, proc_time=4, nodes=1), state, FF, TARIFF, cfg)
    assert place(Job(id=1, release=0, deadline=3, proc_time=1, nodes=1), state, FF, TARIFF, cfg) is None


def test_bf_chases_green_slot():
    # green covers the job only at slot 5; every other start costs brown
    cfg = small_cfg(machines=2, horizon=10)
    g = np.zeros(10, dtype=np.int64)
    g[5] = 2
    state = fresh_state(cfg, GreenTrace(g))
    placed = place(Job(id=0, release=0, deadline=9, proc_time=1, nodes=2), state, BF, TARIFF, cfg)
    assert placed.slots == (5,)


def test_bf_tie_breaks_earliest():
    cfg = small_cfg(machines=2, horizon=8)
    state = fresh_state(cfg)  # no green anywhere: all windows cost the same
    placed = place(Job(id=0, release=2, deadline=7, proc_time=2, nodes=1), state, BF, TARIFF, cfg)
    assert placed.slots == (2, 3)


def test_bf_ignores_green_past_forecast():
    # forecast ends at slot 2; the rich green at slot 3 must not attract BF
    cfg = SimConfig(machines=2, horizon_slots=5, forecast_slots=2)
    g = np.array([0, 1, 0, 2, 0])
    tariff = Tariff(peak_override=(False, True, False, False, False))
    state = OnlineState.create(GreenTrace(g), tariff, cfg)
    # visible costs for q=2: slot0 2*b_off=0.0056, slot1 1*b_on=0.00455,
    # slots 2..4 2*b_off; with foresight slot 3 would be free, but blinded
    # best-fit settles for the half-green on-peak slot
    placed = place(Job(id=0, release=0, deadline=4, proc_time=1, nodes=2), state, BF, tariff, cfg)
    assert placed.slots == (1,)
    wide = SimConfig(machines=2, horizon_slots=5, forecast_slots=4)
    state2 = OnlineState.create(GreenTrace(g), tariff, wide)
    placed2 = place(Job(id=0, release=0, deadline=4, proc_time=1, nodes=2), state2, BF, tariff, wide)
    assert placed2.slots == (3,)


def test_bf_sees_green_inside_forecast():
    cfg = SimConfig(machines=2, horizon_slots=5, forecast_slots=4)
    g = np.array([0, 0, 0, 2, 0])
    state = OnlineState.create(GreenTrace(g), TARIFF, cfg)
    placed = place(Job(id=0, release=0, deadline=4, proc_time=1, nodes=2), state, BF, TARIFF, cfg)
    assert placed.slots == (3,)


def test_pff_scatters_greedily():
    cfg = small_cfg(machines=2, horizon=4)
    state = fresh_state(cfg)
    place(Job(id=9, release=0, deadline=3, proc_time=4, nodes=2), state, FF, TARIFF, cfg)
    # grid full except nothing; next job must fail non-preemptively
    assert place(Job(id=1, release=0, deadline=3, proc_time=1, nodes=1), state, FF, TARIFF, cfg) is None
    cfg2 = small_cfg(machines=2, horizon=4)
    state2 = fresh_state(cfg2)
    place(Job(id=9, release=1, deadline=1, proc_time=1, nodes=2), state2, FF, TARIFF, cfg2)
    placed = place(
        Job(id=1, release=0, deadline=3, proc_time=2, nodes=1),
        state2, SchedulerKind("PFF"), TARIFF, cfg2,
    )
    assert placed.slots == (0, 2)


def test_pbf_picks_cheapest_slots_tie_earlier():
    cfg = SimConfig(machines=1, horizon_slots=6, forecast_slots=6)
    tariff = Tariff(peak_override=(True, False, True, False, True, False))
    state = OnlineState.create(GreenTrace(np.zeros(6, dtype=np.int64)), tariff, cfg)
    placed = place(
        Job(id=0, release=0, deadline=5, proc_time=3, nodes=1),
        state, SchedulerKind("PBF"), tariff, cfg,
    )
    assert placed.slots == (1, 3, 5)  # the three off-peak slots


def test_pbf_prefers_visible_green_over_offpeak():
    cfg = SimConfig(machines=1, horizon_slots=4, forecast_slots=4)
    tariff = Tariff(peak_override=(True, False, False, False))
    g = np.array([1, 0, 0, 0])
    state = OnlineState.create(GreenTrace(g), tariff, cfg)
    placed = place(
        Job(id=0, release=0, deadline=3, proc_time=2, nodes=1),
        state, SchedulerKind("PBF"), tariff, cfg,
    )
    # slot 0 is free thanks to green despite being on-peak; then earliest off-peak
    assert placed.slots == (0, 1)


def test_rf_green_path_spends_no_randomness():
    cfg = small_cfg(machines=2, horizon=6)
    g = np.full(6, 2, dtype=np.int64)
    state = fresh_state(cfg, GreenTrace(g), seed=123)
    before = state.rng.bit_generator.state
    placed = place(
        Job(id=0, release=0, deadline=5, proc_time=2, nodes=2),
        state, RF, TARIFF, cfg,
    )
    assert placed.slots == (0, 1)  # deterministic first-fit
    assert state.rng.bit_generator.state == before


def test_rf_flips_only_when_green_short():
    cfg = small_cfg(machines=2, horizon=6)
    state = fresh_state(cfg, seed=123)
    before = state.rng.bit_generator.state
    place(Job(id=0, release=0, deadline=5, proc_time=1, nodes=1), state, RF, TARIFF, cfg)
    assert state.rng.bit_generator.state != before


def test_rf_unseeded_coin_raises():
    cfg = small_cfg()
    state = fresh_state(cfg)  # no rng
    with pytest.raises(ValueError, match="seeded"):
        place(Job(id=0, release=0, deadline=9, proc_time=1, nodes=1), state, RF, TARIFF, cfg)


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
    always_ff = RandomFitParams(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    always_bf = RandomFitParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(42)
    for trial in range(100):
        T = int(rng.integers(4, 12))
        M = int(rng.integers(1, 4))
        jobs = _random_jobs(rng, T, M, int(rng.integers(1, 7)))
        cfg = SimConfig(machines=M, horizon_slots=T, forecast_slots=T)
        green = GreenTrace(rng.integers(0, M + 1, size=T))
        base = "PFF" if preemptive else "FF"
        kind_rf = SchedulerKind("PRF" if preemptive else "RF", always_ff)
        s_rf, _, _ = run_online(jobs, kind_rf, green, TARIFF, cfg, seed=trial)
        s_ff, _, _ = run_online(jobs, SchedulerKind(base), green, TARIFF, cfg)
        assert s_rf.placements == s_ff.placements
        kind_rf0 = SchedulerKind("PRF" if preemptive else "RF", always_bf)
        base_bf = "PBF" if preemptive else "BF"
        s_rf0, _, _ = run_online(jobs, kind_rf0, green, TARIFF, cfg, seed=trial)
        s_bf, _, _ = run_online(jobs, SchedulerKind(base_bf), green, TARIFF, cfg)
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
    total = 0.0
    for t in range(trials):
        _, report, _ = run_online([job], kind, green, tariff, cfg, seed=t)
        total += report.net_profit
    mean = total / trials
    p = params.p_on_to_off
    expect = unit * (p * nv.v_on + (1 - p) * nv.v_off)
    # binomial noise: sigma = unit * |v_off - v_on| * sqrt(p(1-p)/n)
    sigma = unit * (nv.v_off - nv.v_on) * (p * (1 - p) / trials) ** 0.5
    assert abs(mean - expect) < 4 * sigma


def test_run_online_sorts_arrivals_and_logs_every_job():
    cfg = small_cfg(machines=1, horizon=6)
    jobs = [
        Job(id=2, release=4, deadline=5, proc_time=1, nodes=1),
        Job(id=0, release=0, deadline=1, proc_time=2, nodes=1),
        Job(id=1, release=0, deadline=2, proc_time=2, nodes=1),  # blocked
    ]
    green = GreenTrace(np.zeros(6, dtype=np.int64))
    sched, report, log = run_online(jobs, SchedulerKind("FF"), green, TARIFF, cfg)
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
    state = fresh_state(cfg, green, seed=7)
    admitted = 0
    for job in sorted(jobs, key=lambda j: (j.release, j.deadline, j.id)):
        before = state.schedule.demand.copy()
        entry = place(job, state, kind, TARIFF, cfg)
        if entry is None:
            continue
        admitted += 1
        residual = np.maximum(0, green.supply - before)
        assert entry.green_units == sum(min(job.nodes, residual[t]) for t in entry.slots)
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
            coin = int(rng.integers(2**32))
            state.rng = np.random.default_rng(coin)
            want = full_horizon_choice(job, state, kind, tariff, cfg)
            drawn = state.rng.bit_generator.state
            state.rng = np.random.default_rng(coin)
            got = schedulers._choose(job, state, kind, tariff, cfg)
            assert got == want
            assert state.rng.bit_generator.state == drawn
            if got is not None:
                commit(job, got, state.schedule)
                decisions += 1
    assert forecasts == {True, False}
    assert decisions > 300


def test_rf_scans_capacity_once_per_job(monkeypatch):
    # zero green and a coin that never keeps first-fit: every job takes the
    # best-fit branch, which must reuse first-fit's scan
    calls = []

    def counting(job, schedule):
        calls.append(job.id)
        return nonpreemptive_starts(job, schedule)

    monkeypatch.setattr(schedulers, "nonpreemptive_starts", counting)
    cfg = small_cfg(machines=2, horizon=10)
    jobs = [Job(id=i, release=i, deadline=9, proc_time=2, nodes=1) for i in range(4)]
    always_bf = RandomFitParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    green = GreenTrace(np.zeros(10, dtype=np.int64))
    _, _, log = run_online(jobs, SchedulerKind("RF", always_bf), green, TARIFF, cfg, seed=1)
    assert [e.decision for e in log] == ["admit"] * 4
    assert calls == [0, 1, 2, 3]


def test_run_online_needs_seed_for_randomized_kinds():
    cfg = small_cfg()
    jobs = [Job(id=0, release=0, deadline=9, proc_time=1, nodes=1)]
    green = GreenTrace(np.zeros(10, dtype=np.int64))
    for kind in (RF, SchedulerKind("PRF", PARAMS)):
        with pytest.raises(ValueError, match="seed"):
            run_online(jobs, kind, green, TARIFF, cfg)


def test_sequential_green_draw_sums_to_pooled_usage():
    cfg = small_cfg(machines=3, horizon=8)
    rng = np.random.default_rng(9)
    jobs = _random_jobs(rng, 8, 3, 7)
    green = GreenTrace(rng.integers(0, 4, size=8))
    sched, report, log = run_online(jobs, SchedulerKind("BF"), green, TARIFF, cfg)
    assert sum(e.green_units for e in log) == report.green_total
    assert sum(e.brown_units for e in log) == report.brown_total
    assert sum(e.cost for e in log) == pytest.approx(report.brown_cost, abs=1e-12)
    assert sum(e.revenue for e in log) == pytest.approx(report.revenue, abs=1e-12)


def test_run_online_rejects_horizon_violations():
    cfg = small_cfg(machines=1, horizon=4)
    bad = Job(id=0, release=0, deadline=4, proc_time=1, nodes=1)
    green = GreenTrace(np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="horizon"):
        run_online([bad], SchedulerKind("FF"), green, TARIFF, cfg)


def test_log_csv_format(tmp_path):
    cfg = small_cfg(machines=1, horizon=4)
    jobs = [Job(id=0, release=0, deadline=3, proc_time=2, nodes=1)]
    green = GreenTrace(np.array([1, 0, 0, 0]))
    _, _, log = run_online(jobs, SchedulerKind("FF"), green, TARIFF, cfg)
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(LOG_HEADER)
    assert lines[1].startswith("0,admit,0,0;1,1,1,")
