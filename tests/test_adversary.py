import dataclasses

import numpy as np
import pytest

from greensched import adversary
from greensched.adversary import (
    AdversarialInstance,
    bf_lower_bound_instance,
    expected_ratio,
    ff_lower_bound_instance,
    measure_ratio,
    rf_worst_case_suite,
    standard_suite,
)
from greensched.model import Job, SimConfig
from greensched.offline import solve_nonpreemptive_exact, solve_preemptive_exact
from greensched.pricing import (
    GreenTrace,
    Tariff,
    coin_bias,
    normalized_values,
    random_fit_params,
)
from greensched.schedulers import SchedulerKind, expected_profit, run_online, run_trials

from oracles import per_seed_profits

# hand-reduced targets for the default tariff, kept here so a silent change
# in the constructions cannot pass unnoticed
V_ON = 19 / 110
V_OFF = 27 / 55
FF_GREEN_RATIO = 110 / 19
FF_OFFPEAK_RATIO = 54 / 19
BF_ON_TO_OFF_RATIO = 73 / 54
BF_OFF_TO_ON_RATIO = 82 / 55
RF_RATIO_ON = 3581 / 2916
RF_RATIO_OFF = 3781 / 3025

NV = normalized_values(Tariff(), SimConfig())


def by_name(instances):
    return {inst.name: inst for inst in instances}


def test_formula_ratios_on_default_tariff():
    suite = by_name(standard_suite())
    assert suite["ff_green_next"].formula_ratio == pytest.approx(FF_GREEN_RATIO, rel=1e-12)
    assert suite["ff_offpeak_next"].formula_ratio == pytest.approx(FF_OFFPEAK_RATIO, rel=1e-12)
    assert suite["bf_on_to_off"].formula_ratio == pytest.approx(BF_ON_TO_OFF_RATIO, rel=1e-12)
    assert suite["bf_off_to_on"].formula_ratio == pytest.approx(BF_OFF_TO_ON_RATIO, rel=1e-12)
    for name in ("rf_on_to_off_single", "rf_on_to_off_pair"):
        assert suite[name].formula_ratio == pytest.approx(RF_RATIO_ON, rel=1e-12)
    for name in ("rf_off_to_on_single", "rf_off_to_on_pair"):
        assert suite[name].formula_ratio == pytest.approx(RF_RATIO_OFF, rel=1e-12)


def test_deterministic_measurements_hit_formula_exactly():
    for inst in standard_suite():
        if inst.target.randomized:
            continue
        m = measure_ratio(inst, trials=1)
        assert m.ratio == pytest.approx(inst.formula_ratio, abs=1e-9), inst.name
        assert m.stderr == 0.0


def test_ff_construction_mechanics():
    inst = ff_lower_bound_instance("green_next", NV)
    unit = inst.unit_value
    # the baited policy earns only the on-peak brown value
    _, report = run_online(
        list(inst.jobs), inst.target, inst.green, inst.tariff, inst.config
    )
    assert report.net_profit == pytest.approx(unit * V_ON, abs=1e-12)
    # hindsight waits a slot and runs the job on free green
    opt, sched = solve_nonpreemptive_exact(
        list(inst.jobs), inst.green, inst.tariff, inst.config
    )
    assert opt == pytest.approx(unit, abs=1e-12)
    assert sched.placements[0].active_slots[0] == 1


def test_ff_offpeak_variant_mechanics():
    inst = ff_lower_bound_instance("offpeak_next", NV)
    _, report = run_online(
        list(inst.jobs), inst.target, inst.green, inst.tariff, inst.config
    )
    assert report.net_profit == pytest.approx(inst.unit_value * V_ON, abs=1e-12)
    opt, _ = solve_nonpreemptive_exact(
        list(inst.jobs), inst.green, inst.tariff, inst.config
    )
    assert opt == pytest.approx(inst.unit_value * V_OFF, abs=1e-12)


def test_bf_constructions_mechanics():
    # greed strands the late job, leaving only the better slot's value
    for variant, alg_value in (("on_to_off", V_OFF), ("off_to_on", 1.0)):
        inst = bf_lower_bound_instance(variant, NV)
        sched, report = run_online(
            list(inst.jobs), inst.target, inst.green, inst.tariff, inst.config
        )
        assert report.net_profit == pytest.approx(
            inst.unit_value * alg_value, abs=1e-12
        ), variant
        assert len(sched.placements) == 1  # the late job found the slot taken
        assert sched.placements[0].active_slots[0] == 1


def test_expected_entries_match_solver_and_policy():
    for inst in standard_suite():
        opt, _ = solve_nonpreemptive_exact(
            list(inst.jobs), inst.green, inst.tariff, inst.config
        )
        assert opt == pytest.approx(
            inst.unit_value * inst.expected_opt, rel=1e-12
        ), inst.name
        if not inst.target.randomized:
            _, report = run_online(
                list(inst.jobs), inst.target, inst.green, inst.tariff, inst.config
            )
            assert report.net_profit == pytest.approx(
                inst.unit_value * inst.expected_alg, rel=1e-12
            ), inst.name


def test_rf_measured_ratio_converges_to_formula():
    for inst in rf_worst_case_suite(NV):
        m = measure_ratio(inst, trials=6000, base_seed=5)
        assert m.stderr > 0
        assert abs(m.ratio - inst.formula_ratio) < 4 * m.stderr + 1e-6, (
            inst.name,
            m.ratio,
            inst.formula_ratio,
        )


def test_measure_ratio_reports_components():
    inst = ff_lower_bound_instance("green_next", NV)
    m = measure_ratio(inst, trials=3)
    assert m.trials == 3
    assert m.opt_profit == pytest.approx(inst.unit_value * inst.expected_opt, abs=1e-12)
    assert m.mean_alg_profit == pytest.approx(
        inst.unit_value * inst.expected_alg, abs=1e-12
    )
    assert not np.isinf(m.ratio)


def test_loss_making_tariff_flags_infinite_ratio():
    # price on-peak brown above the service charge: the hasty policy now
    # loses money on its placement while hindsight still profits on green
    inst = ff_lower_bound_instance("green_next", NV)
    dear = Tariff(
        onpeak_price=0.16, offpeak_price=0.0, peak_override=(True, True)
    )
    degenerate = AdversarialInstance(
        name="loss_making",
        jobs=inst.jobs,
        green=inst.green,
        tariff=dear,
        config=inst.config,
        target=inst.target,
        expected_opt=1.0,
        expected_alg=0.0,
        formula_ratio=float("inf"),
    )
    m = measure_ratio(degenerate, trials=1)
    assert m.mean_alg_profit < 0
    assert m.opt_profit == pytest.approx(inst.unit_value, abs=1e-12)
    assert np.isinf(m.ratio)
    assert np.isnan(m.stderr)


def test_every_instance_carries_its_exact_optimum(monkeypatch):
    # solved once when made, by a builder, directly or by replace, with the
    # solver's default budget; the ratios read it and solve nothing
    solves = []
    solve = adversary.solve_nonpreemptive_exact
    monkeypatch.setattr(
        adversary, "solve_nonpreemptive_exact", lambda *a: solves.append(a) or solve(*a)
    )
    suite = standard_suite()
    assert len(solves) == len(suite)
    for inst in suite:
        want, _ = solve(list(inst.jobs), inst.green, inst.tariff, inst.config)
        assert inst.opt_profit == want, inst.name
        measure_ratio(inst, trials=3)
        expected_ratio(inst)
    assert len(solves) == len(suite)
    inst = suite[0]  # ff_green_next: without its green, OPT pays on-peak brown
    dark = dataclasses.replace(inst, green=GreenTrace(np.zeros(2, dtype=int)))
    assert len(solves) == len(suite) + 1
    assert dark.opt_profit == solve(list(inst.jobs), dark.green, inst.tariff, inst.config)[0]
    assert dark.opt_profit == pytest.approx(inst.unit_value * V_ON, abs=1e-12)


def test_machine_count_scales_units_not_ratios():
    narrow = by_name(standard_suite(machines=4))
    wide = by_name(standard_suite(machines=16))
    for name in narrow:
        assert narrow[name].formula_ratio == pytest.approx(
            wide[name].formula_ratio, rel=1e-12
        )
        assert narrow[name].expected_opt == pytest.approx(
            wide[name].expected_opt, rel=1e-12
        )
        assert narrow[name].unit_value == pytest.approx(
            wide[name].unit_value * 4 / 16, rel=1e-12
        )


def test_unknown_variants_rejected():
    with pytest.raises(ValueError, match="variant"):
        ff_lower_bound_instance("nope", NV)
    with pytest.raises(ValueError, match="variant"):
        bf_lower_bound_instance("nope", NV)


def test_constructions_keep_jobs_inside_two_slot_grid():
    for inst in standard_suite():
        assert inst.config.horizon_slots == 2
        for job in inst.jobs:
            assert 0 <= job.release <= job.deadline < 2
            assert job.nodes <= inst.config.machines


def test_measure_ratio_rejects_fewer_than_one_trial():
    inst = rf_worst_case_suite(NV)[0]
    for trials in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            measure_ratio(inst, trials=trials)


def test_measure_ratio_takes_plain_integers(engine_plays):
    # a bool or a non-integer is refused by name before any play; a numpy
    # integer is taken and reported as an int
    inst = rf_worst_case_suite(NV)[0]
    for bad in (True, 2.0, "3", None):
        with pytest.raises(TypeError, match=f"^trials must be an integer, got {type(bad).__name__}$"):
            measure_ratio(inst, trials=bad)
        with pytest.raises(TypeError, match=f"^base_seed must be an integer, got {type(bad).__name__}$"):
            measure_ratio(inst, trials=3, base_seed=bad)
    assert engine_plays == []
    m = measure_ratio(inst, trials=np.int64(40), base_seed=np.uint32(9))
    assert type(m.trials) is int and m == measure_ratio(inst, trials=40, base_seed=9)


def test_measure_ratio_rejects_a_negative_base_seed(monkeypatch):
    # the seeds base_seed .. base_seed + trials - 1 are checked as one
    # range; the optimum was solved when the instance was made, so no call
    # solves, valid or not
    inst = rf_worst_case_suite(NV)[0]
    solves = []
    solve = adversary.solve_nonpreemptive_exact
    monkeypatch.setattr(
        adversary, "solve_nonpreemptive_exact", lambda *a: solves.append(a) or solve(*a)
    )
    with pytest.raises(ValueError, match="seeds must be non-negative, got -2$"):
        measure_ratio(inst, trials=3, base_seed=-2)
    with pytest.raises(ValueError, match=rf"seeds must be below 2\*\*64, got {2**64}$"):
        measure_ratio(inst, trials=3, base_seed=2**64 - 2)
    assert solves == []
    measure_ratio(inst, trials=3, base_seed=2**64 - 3)
    assert solves == []


@pytest.mark.parametrize("machines", [1, 3, 16])
def test_run_trials_equals_per_seed_runs_on_the_suite(machines):
    rf = SchedulerKind("RF")
    for inst in standard_suite(machines):
        jobs = list(inst.jobs)
        for kind in (inst.target, rf):
            for trials, base in ((1, 0), (3, 5), (2000, 2000), (777, 12345)):
                seeds = range(base, base + trials)
                got = run_trials(jobs, kind, inst.green, inst.tariff, inst.config, seeds)
                want = per_seed_profits(
                    jobs, kind, inst.green, inst.tariff, inst.config, seeds
                )
                assert got.tobytes() == want.tobytes(), (inst.name, kind.kind, trials)


@pytest.mark.parametrize("machines", [1, 2, 3, 4, 16, 200, 100_000])
def test_rebuilt_tariffs_return_the_stock_ladder_exactly(machines):
    # a run takes RF's coin bias from its instance's two-slot tariff, whose
    # prices are rebuilt from nv: on the stock ladder that is nv's bias to
    # the last bit, so the closed forms and the recorded Monte Carlo ratios
    # describe the coin the runs flip
    nv = normalized_values(Tariff(), SimConfig(machines=machines))
    for inst in rf_worst_case_suite(nv, machines):
        assert normalized_values(inst.tariff, inst.config) == nv, inst.name
        assert coin_bias(inst.tariff, inst.config) == random_fit_params(nv), inst.name


def test_monte_carlo_plays_each_coin_path_once(engine_plays):
    inst = next(i for i in rf_worst_case_suite(NV) if i.name == "rf_on_to_off_pair")
    m = measure_ratio(inst, trials=2000, base_seed=3)
    assert m.trials == 2000 and m.stderr > 0
    assert 2 <= len(engine_plays) <= 3


@pytest.mark.parametrize("machines", [3, 16])
def test_expected_ratio_equals_formula(machines):
    nv = normalized_values(Tariff(), SimConfig(machines=machines))
    for inst in rf_worst_case_suite(nv, machines):
        assert abs(expected_ratio(inst) - inst.formula_ratio) <= 1e-12, inst.name


def test_expected_ratio_of_a_deterministic_policy_is_its_one_run():
    for inst in standard_suite():
        if not inst.target.randomized:
            assert expected_ratio(inst) == measure_ratio(inst).ratio, inst.name


def on_peak_instance(green, jobs):
    """The stock ladder on M=2, every slot on-peak; jobs as (r, d, p, q)."""
    horizon = len(green)
    jobs = [
        Job(id=i, release=r, deadline=d, proc_time=p, nodes=q)
        for i, (r, d, p, q) in enumerate(jobs)
    ]
    tariff = Tariff(peak_override=(True,) * horizon)
    return jobs, GreenTrace(np.array(green)), tariff, SimConfig(2, horizon)


def online_profit(jobs, kind, green, tariff, config):
    """The policy's net profit; random-fit's exact expectation over its coin."""
    if kind.randomized:
        return expected_profit(jobs, kind, green, tariff, config)
    return run_online(jobs, kind, green, tariff, config)[1].net_profit


NV2 = normalized_values(Tariff(), SimConfig(machines=2))
RF2 = SchedulerKind("RF")
P_ON2 = random_fit_params(NV2).p_on_to_off


def test_best_fit_trap_on_three_slots_beats_the_two_slot_forms():
    # job 0 may use any of slots 0-2, job 1 only slot 1; green fills slots
    # 1 and 2. FF burns on-peak brown in slot 0, BF parks job 0 on the
    # earlier green slot and turns job 1 away, and OPT runs both on green.
    jobs, green, tariff, config = on_peak_instance([0, 2, 2], [(0, 2, 1, 2), (1, 1, 1, 2)])
    opt, _ = solve_nonpreemptive_exact(jobs, green, tariff, config)
    for kind, closed_form in (
        (SchedulerKind("FF"), 2 / (1 + NV2.v_on)),
        (SchedulerKind("BF"), 2.0),
        (RF2, 2 / (1 + P_ON2 * NV2.v_on)),
    ):
        ratio = opt / online_profit(jobs, kind, green, tariff, config)
        assert abs(ratio - closed_form) <= 1e-12, kind.kind
    assert round(2 / (1 + NV2.v_on), 5) == 1.70543
    assert round(2 / (1 + P_ON2 * NV2.v_on), 5) == 1.90569
    # BF's 2 is above both two-slot BF forms
    assert 2.0 > max(BF_ON_TO_OFF_RATIO, BF_OFF_TO_ON_RATIO)


def test_random_fit_on_a_lone_on_peak_job_with_green_next():
    # the coin keys on the release period, so RF keeps first-fit's on-peak
    # brown slot with p_on although slot 1 is green: worse than the 1.228
    # that RF's on-peak dilemmas force
    jobs, green, tariff, config = on_peak_instance([0, 2], [(0, 1, 1, 2)])
    opt, _ = solve_nonpreemptive_exact(jobs, green, tariff, config)
    ratio = opt / online_profit(jobs, RF2, green, tariff, config)
    closed_form = 1 / (1 - P_ON2 * (1 - NV2.v_on))
    assert abs(ratio - closed_form) <= 1e-12
    assert round(closed_form, 5) == 1.31066
    assert ratio > random_fit_params(NV2).ratio_on


def test_mixed_sizes_break_every_closed_form():
    # a 1-node job takes one of the two nodes of slot 0 that the 2-node,
    # 2-slot job released with it needs: every policy admits the small job
    # and turns the large one away, which OPT runs instead. The ratio is the
    # large job's 4 node-slots over the small job's 1.
    jobs, green, tariff, config = on_peak_instance([0, 0], [(0, 0, 1, 1), (0, 1, 2, 2)])
    opt, schedule = solve_nonpreemptive_exact(jobs, green, tariff, config)
    assert [pl.job_id for pl in schedule.placements] == [1]
    assert solve_preemptive_exact(jobs, green, tariff, config)[0] == opt
    for kind in ("FF", "BF", "PFF", "PBF"):
        schedule, report = run_online(jobs, SchedulerKind(kind), green, tariff, config)
        assert [pl.job_id for pl in schedule.placements] == [0], kind
        assert abs(opt / report.net_profit - 4.0) <= 1e-12, kind
    assert abs(opt / online_profit(jobs, RF2, green, tariff, config) - 4.0) <= 1e-12
