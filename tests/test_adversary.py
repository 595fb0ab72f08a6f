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
from greensched.model import SimConfig
from greensched.offline import solve_nonpreemptive_exact
from greensched.pricing import Tariff, normalized_values, random_fit_params
from greensched.schedulers import SchedulerKind, run_online, run_trials

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
    assert not m.infinite


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
        unit_value=inst.unit_value,
    )
    m = measure_ratio(degenerate, trials=1)
    assert m.mean_alg_profit < 0
    assert m.opt_profit == pytest.approx(inst.unit_value, abs=1e-12)
    assert m.infinite
    assert np.isinf(m.ratio)
    assert np.isnan(m.stderr)


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


def test_measure_ratio_rejects_a_negative_base_seed(monkeypatch):
    # the seeds base_seed .. base_seed + trials - 1 are checked as one
    # range, before the exact solve
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
    assert len(solves) == 1


@pytest.mark.parametrize("machines", [1, 3, 16])
def test_run_trials_equals_per_seed_runs_on_the_suite(machines):
    nv = normalized_values(Tariff(), SimConfig(machines=machines))
    rf = SchedulerKind("RF", random_fit_params(nv))
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
