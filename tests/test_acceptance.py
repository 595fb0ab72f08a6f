"""Acceptance gate: nine checks covering the package's headline claims.

Each test prints one ``ACCEPTANCE n name: PASS/FAIL (...)`` line on real
stdout (past pytest's capture) so a plain ``pytest -v`` run leaves a
readable scorecard. The checks are ordered cheap to expensive; the
statistical ones pin their seeds so reruns are stable. The last test holds
the README's scorecard quotes to the lines printed.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from greensched.adversary import (
    bf_lower_bound_instance,
    ff_lower_bound_instance,
    measure_ratio,
    rf_worst_case_suite,
    standard_suite,
)
from greensched.experiment import (
    ExperimentConfig,
    preemption_comparison,
    resolve_green,
    run_suite,
    stable_seed,
)
from greensched.model import Job, Schedule, SimConfig, commit, preemptive_slots
from greensched.offline import solve_nonpreemptive_exact
from greensched.pricing import (
    GreenTrace,
    Tariff,
    account,
    normalized_values,
    random_fit_params,
    synthetic_solar,
)
from greensched.schedulers import SchedulerKind, expected_profit, run_online
from greensched.workload import WorkloadSpec, generate

from oracles import enumerate_nonpreemptive, random_instance

V_ON = 19 / 110
V_OFF = 27 / 55


README = Path(__file__).resolve().parents[1] / "README.md"

# each check's scorecard line, as printed in this session
SCORECARD: dict[int, str] = {}


def announce(capfd, num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    SCORECARD[num] = line
    with capfd.disabled():
        print(line)


def test_01_worst_case_formulas(capfd):
    nv = normalized_values(Tariff(), SimConfig())
    targets = {
        "ff_green_next": 1.0 / V_ON,
        "ff_offpeak_next": V_OFF / V_ON,
        "bf_on_to_off": 1.0 + V_ON / V_OFF,
        "bf_off_to_on": 1.0 + V_OFF,
    }
    instances = [ff_lower_bound_instance(v, nv) for v in ("green_next", "offpeak_next")]
    instances += [bf_lower_bound_instance(v, nv) for v in ("on_to_off", "off_to_on")]
    errors = {}
    for inst in instances:
        m = measure_ratio(inst, trials=1)
        errors[inst.name] = abs(m.ratio - targets[inst.name])
    worst = max(errors.values())
    announce(capfd, 1, "worst_case_formulas", worst <= 1e-9, f"max error {worst:.3g}")
    assert worst <= 1e-9, errors


def test_02_randomized_bound(capfd):
    nv = normalized_values(Tariff(), SimConfig())
    results = []
    for inst in rf_worst_case_suite(nv):
        m = measure_ratio(inst, trials=100_000, base_seed=17)
        results.append((inst.name, m.ratio, inst.formula_ratio))
    worst_err = max(abs(r - f) for _, r, f in results)
    peak = max(r for _, r, _ in results)
    ok = worst_err <= 0.01 and peak <= 1.26
    announce(
        capfd, 2, "randomized_bound", ok,
        f"max |measured-formula| {worst_err:.4f}, peak ratio {peak:.4f}",
    )
    assert worst_err <= 0.01, results
    assert peak <= 1.26, results


def test_03_randomized_dominance(capfd):
    # on each deterministic policy's own trap, the coin policy must come
    # out strictly ahead of that policy, beyond Monte Carlo noise
    nv = normalized_values(Tariff(), SimConfig())
    rf = SchedulerKind("RF", rf_params=random_fit_params(nv))
    lines = []
    ok = True
    for inst in standard_suite():
        if inst.target.randomized:
            continue
        det = measure_ratio(inst, trials=1)
        rand = measure_ratio(dataclasses.replace(inst, target=rf), trials=20_000, base_seed=23)
        margin = det.ratio - (rand.ratio + 3 * rand.stderr)
        ok = ok and margin > 0
        lines.append(f"{inst.name} {rand.ratio:.3f}+3se < {det.ratio:.3f}")
    announce(capfd, 3, "randomized_dominance", ok, "; ".join(lines))
    assert ok, lines


def test_04_solver_oracle_equivalence(capfd):
    rng = np.random.default_rng(42)
    start = time.monotonic()
    for i in range(200):
        jobs, green, tariff, config = random_instance(rng)
        expect, _, _ = enumerate_nonpreemptive(jobs, green, tariff, config)
        got, _ = solve_nonpreemptive_exact(jobs, green, tariff, config)
        assert got == expect, f"instance {i}: solver {got} enumeration {expect}"
    elapsed = time.monotonic() - start
    announce(
        capfd, 4, "solver_oracle_equivalence", elapsed < 60.0,
        f"200 instances equal exactly in {elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_05_profit_orderings(capfd):
    cfg = ExperimentConfig(
        green="synthetic",
        families=("UE",),
        utilization=(0.1, 1.0),
        algorithms=("FF", "BF", "RF"),
        repetitions=30,
        master_seed=0,
    )
    means = {
        (row["point"], row["algorithm"]): row["net_profit"]
        for row in run_suite(cfg)["means"]
    }
    light = all(
        (
            means[(0.1, "BF")] > means[(0.1, "RF")],
            means[(0.1, "RF")] > means[(0.1, "FF")],
        )
    )
    heavy = all(
        (
            means[(1.0, "FF")] > means[(1.0, "RF")],
            means[(1.0, "RF")] > means[(1.0, "BF")],
        )
    )
    detail = (
        "10%: BF {:.3f} RF {:.3f} FF {:.3f}; 100%: FF {:.3f} RF {:.3f} BF {:.3f}"
    ).format(
        means[(0.1, "BF")], means[(0.1, "RF")], means[(0.1, "FF")],
        means[(1.0, "FF")], means[(1.0, "RF")], means[(1.0, "BF")],
    )
    announce(capfd, 5, "profit_orderings", light and heavy, detail)
    assert light, detail
    assert heavy, detail


def test_06_offline_ceiling(capfd):
    # desk-scale instances with uniform job shape: the exact optimum must
    # dominate every online run, and its lead over the coin policy's exact
    # expected profit stays under the 1.25 guarantee
    sim = SimConfig(machines=4, horizon_slots=42, forecast_slots=42)
    tariff = Tariff()
    green = synthetic_solar(sim)
    nv = normalized_values(tariff, sim)
    kinds = {
        "FF": SchedulerKind("FF"),
        "BF": SchedulerKind("BF"),
        "RF": SchedulerKind("RF", rf_params=random_fit_params(nv)),
    }
    worst_ratio = 0.0
    dominance = True
    for rep in range(4):
        spec = WorkloadSpec(
            family="UE",
            target_utilization=0.4,
            fixed_p=4,
            fixed_q=2,
            rng_seed=stable_seed(6, rep),
        )
        jobs = generate(spec, sim, tariff)
        assert len(jobs) <= 12
        opt, _ = solve_nonpreemptive_exact(jobs, green, tariff, sim)
        for name, kind in kinds.items():
            _, report = run_online(jobs, kind, green, tariff, sim, seed=rep)
            dominance = dominance and opt >= report.net_profit - 1e-9
        ratio = opt / expected_profit(jobs, kinds["RF"], green, tariff, sim)
        worst_ratio = max(worst_ratio, ratio)
    ok = dominance and worst_ratio <= 1.25
    announce(
        capfd, 6, "offline_ceiling", ok,
        f"dominance {dominance}, worst OPT/E[RF] {worst_ratio:.5f}",
    )
    assert dominance
    assert worst_ratio <= 1.25


def test_07_accounting_identities(capfd):
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(10_000):
        T = int(rng.integers(2, 9))
        M = int(rng.integers(1, 5))
        config = SimConfig(machines=M, horizon_slots=T, forecast_slots=T)
        tariff = Tariff(peak_override=tuple(bool(x) for x in rng.random(T) < 0.5))
        green = GreenTrace(rng.integers(0, M + 2, size=T))
        schedule = Schedule(M, T)
        for j in range(int(rng.integers(1, 4))):
            p = int(rng.integers(1, T + 1))
            r = int(rng.integers(0, T - p + 1))
            job = Job(
                id=j, release=r, deadline=int(rng.integers(r + p - 1, T)),
                proc_time=p, nodes=int(rng.integers(1, M + 1)),
            )
            slots = preemptive_slots(job, schedule)
            if len(slots) == p:
                commit(job, tuple(int(s) for s in slots), schedule)
        report = account(schedule, green, tariff, config)
        assert (report.green_used + report.brown_used == schedule.demand).all()
        assert (report.green_used <= green.supply[:T]).all()
        assert report.net_profit == report.revenue - report.brown_cost
        assert report.green_total == int(report.green_used.sum())
        checked += 1
    announce(
        capfd, 7, "accounting_identities", checked == 10_000,
        f"{checked} random schedules, all identities exact",
    )
    assert checked == 10_000


def test_08_reproducibility(tmp_path, capfd):
    blobs = []
    for sub in ("first", "second"):
        cfg = ExperimentConfig(
            sim=SimConfig(machines=4, horizon_slots=48, forecast_slots=48),
            green="synthetic",
            families=("UE", "UU"),
            utilization=(0.3, 0.8),
            fixed_p=3,
            fixed_q=2,
            algorithms=("FF", "BF", "RF"),
            repetitions=3,
            master_seed=8,
            output_dir=str(tmp_path / sub),
        )
        run_suite(cfg)
        preemption_comparison(cfg)
        blobs.append(
            {
                name: (tmp_path / sub / name).read_bytes()
                for name in ("runs.csv", "means.csv", "ratios.csv", "preemption.csv")
            }
        )
    ok = blobs[0] == blobs[1]
    size = sum(len(v) for v in blobs[0].values())
    announce(
        capfd, 8, "reproducibility", ok,
        f"four tables, {size} bytes, byte-identical across runs",
    )
    assert ok


def test_09_preemption_direction(capfd):
    # at heavy load, splitting runs across spare slots is expected to leave
    # the eager policy no better off and the cost-chasing policy better off
    cfg = ExperimentConfig(
        green="synthetic",
        families=("UU",),
        utilization=(1.2,),
        algorithms=("FF", "BF"),
        repetitions=30,
        master_seed=0,
    )
    rows = {row["algorithm"]: row for row in preemption_comparison(cfg)}
    ratio_ff = rows["FF"]["ratio"]
    ratio_bf = rows["BF"]["ratio"]
    ok = ratio_ff <= 1.0 and ratio_bf >= 1.0
    announce(
        capfd, 9, "preemption_direction", ok,
        f"PFF/FF {ratio_ff:.5f} (want <= 1), PBF/BF {ratio_bf:.5f} (want >= 1)",
    )
    # under this profit model every admitted node-slot carries positive
    # margin, so the scatter placement's extra admissions lift FF's profit;
    # the first clause states the intended direction and is knowingly red
    assert ratio_bf >= 1.0
    assert ratio_ff <= 1.0


def test_readme_quotes_the_printed_scorecard():
    # defined last, so it runs after the checks: each README line starting
    # "ACCEPTANCE n" must be check n's printed line, or its prefix up to a
    # closing "; ...)"; a check that did not run (say, under -k) is skipped
    quotes = [
        line for line in README.read_text().splitlines() if line.startswith("ACCEPTANCE ")
    ]
    assert quotes
    compared = 0
    for quote in quotes:
        printed = SCORECARD.get(int(quote.split()[1]))
        if printed is None:
            continue
        if quote.endswith("; ...)"):
            head = quote[: -len(" ...)")]
            assert printed.startswith(head), (quote, printed)
        else:
            assert printed == quote
        compared += 1
    if not compared:
        pytest.skip("no quoted check ran in this session")
