import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from greensched import experiment
from greensched.experiment import (
    ExperimentConfig,
    ExperimentError,
    MEANS_HEADER,
    RUNS_HEADER,
    load_config,
    parse_limits,
    preemption_comparison,
    resolve_green,
    run_suite,
    stable_seed,
)
from greensched.model import SimConfig
from greensched.offline import NONPREEMPTIVE_LIMITS, SolveLimits
from greensched.pricing import GreenTrace, synthetic_solar
from greensched.schedulers import KINDS

SMALL = SimConfig(machines=4, horizon_slots=48, forecast_slots=48)


def small_cfg(**kw):
    defaults = dict(
        sim=SMALL,
        green="zero",
        families=("UE",),
        utilization=(0.3, 0.6),
        fixed_p=3,
        fixed_q=2,
        algorithms=("FF", "BF", "RF"),
        repetitions=3,
        master_seed=11,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown family"):
        small_cfg(families=("XX",))
    with pytest.raises(ValueError, match="unknown algorithm"):
        small_cfg(algorithms=("FF", "QQ"))
    with pytest.raises(ValueError, match="repetitions"):
        small_cfg(repetitions=0)
    with pytest.raises(ValueError, match="utilization"):
        small_cfg(utilization=())
    with pytest.raises(ValueError, match="job_counts"):
        small_cfg(families=("Real",), job_counts=())


def test_config_rejects_a_repeated_algorithm(tmp_path):
    # a repeat would play the policy twice per cell and duplicate its rows
    with pytest.raises(ValueError, match="algorithm 'FF' is repeated"):
        small_cfg(algorithms=("FF", "BF", "FF"))
    path = tmp_path / "twice.cfg"
    path.write_text("algorithms = FF, FF\n")
    with pytest.raises(ValueError, match="algorithm 'FF' is repeated"):
        load_config(path)


def test_stable_seed_is_deterministic_and_keyed():
    assert stable_seed(0, "UE", 0.5, 3) == stable_seed(0, "UE", 0.5, 3)
    seen = {
        stable_seed(0, "UE", 0.5, 3),
        stable_seed(1, "UE", 0.5, 3),
        stable_seed(0, "UU", 0.5, 3),
        stable_seed(0, "UE", 0.6, 3),
        stable_seed(0, "UE", 0.5, 4),
    }
    assert len(seen) == 5
    assert all(0 <= s < 2**64 for s in seen)


def test_resolve_green_sources(tmp_path):
    zero = resolve_green("zero", SMALL)
    assert not zero.supply.any()
    syn = resolve_green("synthetic", SMALL)
    assert (syn.supply == synthetic_solar(SMALL).supply).all()
    csv_path = tmp_path / "trace.csv"
    lines = ["timestamp,watts"]
    for k in range(48):
        lines.append(f"{900 * k},{560 if 10 <= k < 20 else 0}")
    csv_path.write_text("\n".join(lines) + "\n")
    solar = resolve_green(f"solar:{csv_path}", SMALL)
    assert solar.supply.max() == 3  # peak rescaled to 0.75 * 4 nodes
    with pytest.raises(ValueError, match="green source"):
        resolve_green("wind", SMALL)


def test_run_suite_shape_and_pairing():
    cfg = small_cfg()
    tables = run_suite(cfg)
    runs, means, ratios = tables["runs"], tables["means"], tables["ratios"]
    assert len(runs) == 2 * 3 * 3  # points x algorithms x reps
    assert len(means) == 2 * 3
    assert len(ratios) == 2 * 3
    # paired workloads: every policy saw the same job list in a given cell
    for point in (0.3, 0.6):
        offered = {
            r["jobs_offered"] for r in runs if r["point"] == point and r["rep"] == 1
        }
        assert len(offered) == 1
    assert runs == sorted(
        runs, key=lambda r: (r["family"], r["point"], r["algorithm"], r["rep"])
    )
    for row in runs:
        assert row["net_profit"] == pytest.approx(
            row["revenue"] - row["brown_cost"], abs=1e-12
        )


def test_ratio_table_tracks_best_mean():
    tables = run_suite(small_cfg())
    means = {(r["point"], r["algorithm"]): r["net_profit"] for r in tables["means"]}
    for row in tables["ratios"]:
        best = max(v for (pt, _), v in means.items() if pt == row["point"])
        assert row["opt_prime"] == pytest.approx(best, abs=1e-12)
        assert row["ratio"] == pytest.approx(
            best / row["mean_net_profit"], abs=1e-12
        )
    best_rows = [r for r in tables["ratios"] if r["ratio"] == pytest.approx(1.0)]
    assert len(best_rows) >= 2  # one champion per point


def test_means_sum_left_to_right():
    # ten 0.1 values sum to 0.9999999999999999 left to right but to 1.0 by a
    # compensated sum (built-in sum() from Python 3.12 on); means.csv must
    # not depend on the interpreter
    assert math.fsum([0.1] * 10) == 1.0
    rows = [
        {"family": "UE", "point": 0.3, "algorithm": "FF", "rep": rep,
         **{col: 0.1 for col in experiment._NUMERIC}}
        for rep in range(10)
    ]
    (mean,) = experiment._mean_rows(rows)
    for col in experiment._NUMERIC:
        assert mean[col] == 0.9999999999999999 / 10 != 0.1


def test_csv_outputs_are_byte_identical(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        cfg = small_cfg(repetitions=2, output_dir=str(tmp_path / sub))
        run_suite(cfg)
        blobs.append(
            {
                name: (tmp_path / sub / name).read_bytes()
                for name in ("runs.csv", "means.csv", "ratios.csv")
            }
        )
    assert blobs[0] == blobs[1]
    header = blobs[0]["runs.csv"].split(b"\n", 1)[0].decode()
    assert header == ",".join(RUNS_HEADER)
    assert blobs[0]["means.csv"].split(b"\n", 1)[0].decode() == ",".join(MEANS_HEADER)


def test_master_seed_changes_results(tmp_path):
    a = run_suite(small_cfg(repetitions=2, master_seed=1))
    b = run_suite(small_cfg(repetitions=2, master_seed=2))
    assert a["runs"] != b["runs"]


def test_include_offline_adds_dominating_rows():
    cfg = small_cfg(
        utilization=(0.2,),
        fixed_p=5,
        fixed_q=3,
        repetitions=2,
        include_offline=True,
    )
    tables = run_suite(cfg)
    names = {r["algorithm"] for r in tables["runs"]}
    assert "OPT" in names
    by_rep = {}
    for r in tables["runs"]:
        by_rep.setdefault(r["rep"], {})[r["algorithm"]] = r["net_profit"]
    for rep, cell in by_rep.items():
        for alg in ("FF", "BF", "RF"):
            assert cell["OPT"] >= cell[alg] - 1e-9, (rep, alg)
    opt_ratio = [r for r in tables["ratios"] if r["algorithm"] == "OPT"]
    assert all(r["ratio"] == pytest.approx(1.0) for r in opt_ratio)


def test_offline_failure_names_the_cell():
    cfg = small_cfg(
        utilization=(1.0,), fixed_p=5, fixed_q=3, repetitions=1, include_offline=True
    )
    # 4 * 48 slots at full load wants 13 jobs, one past the search limit
    with pytest.raises(ExperimentError, match=r"UE point 1\.0 rep 0"):
        run_suite(cfg)


def test_workload_failure_names_the_cell():
    cfg = small_cfg(fixed_q=9, repetitions=1)  # wider than the 4-node cluster
    with pytest.raises(ExperimentError, match="UE point 0.3 rep 0"):
        run_suite(cfg)


@pytest.mark.parametrize(
    "algorithms, plays",
    [(("FF", "BF", "RF"), 6), (KINDS, 6), (("BF",), 2), (("FF", "PBF"), 3)],
    ids=["FF-BF-RF", "all-six", "BF", "FF-PBF"],
)
def test_preemption_sweep_plays_each_cell_policy_once(monkeypatch, algorithms, plays):
    calls = Counter()
    play = experiment.run_online

    def counted(jobs, kind, *args, seed):
        calls[kind.kind, seed] += 1
        return play(jobs, kind, *args, seed=seed)

    monkeypatch.setattr(experiment, "run_online", counted)
    cfg = small_cfg(algorithms=algorithms, repetitions=2)
    run_suite(cfg, preemption=True)
    union = set(algorithms) | {"P" + a for a in algorithms if not a.startswith("P")}
    assert len(union) == plays
    assert calls == Counter(
        {
            (name, stable_seed(cfg.master_seed, "UE", point, rep, name)): 1
            for point in cfg.utilization
            for rep in range(cfg.repetitions)
            for name in union
        }
    )


@pytest.mark.parametrize(
    "overrides",
    [
        dict(algorithms=("FF", "BF", "RF")),
        dict(algorithms=("BF",)),
        dict(algorithms=("FF", "PBF")),
        dict(utilization=(0.2,), fixed_p=5, fixed_q=3, repetitions=1, include_offline=True),
    ],
    ids=["FF-BF-RF", "BF", "FF-PBF", "UE-OPT"],
)
def test_preemption_sweep_keeps_the_plain_tables(tmp_path, overrides):
    cfg = small_cfg(**{"repetitions": 2, **overrides})
    plain = run_suite(replace(cfg, output_dir=str(tmp_path / "plain")))
    both = run_suite(replace(cfg, output_dir=str(tmp_path / "both")), preemption=True)
    assert plain.keys() == {"runs", "means", "ratios"}
    assert both.keys() == plain.keys() | {"preemption"}
    for name in ("runs", "means", "ratios"):
        assert both[name] == plain[name]
        csv = f"{name}.csv"
        assert (tmp_path / "both" / csv).read_bytes() == (tmp_path / "plain" / csv).read_bytes()
    # the rows a separate sweep of the bases and their P variants gives
    bases = tuple(a for a in cfg.algorithms if not a.startswith("P"))
    sweep = replace(cfg, algorithms=bases + tuple("P" + a for a in bases))
    means = run_suite(sweep)["means"]
    profit = {(r["family"], r["point"], r["algorithm"]): r["net_profit"] for r in means}
    want = []
    for r in means:
        if r["algorithm"] in bases:
            base = r["net_profit"]
            pre = profit[r["family"], r["point"], "P" + r["algorithm"]]
            want.append(
                {
                    "family": r["family"],
                    "point": r["point"],
                    "algorithm": r["algorithm"],
                    "base_net_profit": base,
                    "preemptive_net_profit": pre,
                    "ratio": pre / base if base > 0 else float("inf"),
                }
            )
    assert want and both["preemption"] == want
    assert preemption_comparison(cfg) == want
    assert (tmp_path / "both" / "preemption.csv").exists()


def test_preemption_comparison_unit_jobs_change_nothing(tmp_path):
    # with single-slot jobs the preemptive variants make identical choices
    cfg = small_cfg(
        fixed_p=1,
        fixed_q=2,
        utilization=(0.4,),
        algorithms=("FF", "BF"),
        repetitions=2,
        output_dir=str(tmp_path),
    )
    rows = preemption_comparison(cfg)
    assert [r["algorithm"] for r in rows] == ["BF", "FF"]
    for r in rows:
        assert r["preemptive_net_profit"] == pytest.approx(
            r["base_net_profit"], abs=1e-12
        )
        assert r["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "preemption.csv").exists()


def test_preemption_comparison_longer_jobs_diverge():
    cfg = small_cfg(
        fixed_p=4, fixed_q=2, utilization=(0.8,), algorithms=("BF",), repetitions=2
    )
    rows = preemption_comparison(cfg)
    assert len(rows) == 1
    assert rows[0]["ratio"] != pytest.approx(1.0, abs=1e-9)


def test_preemption_comparison_failure_names_the_cell(tmp_path):
    cfg = small_cfg(
        families=("Real",),
        job_counts=(4,),
        swf_path=str(tmp_path / "missing.swf"),
        utilization=(),
        repetitions=1,
    )
    with pytest.raises(ExperimentError, match="Real point 4 rep 0"):
        preemption_comparison(cfg)


def test_real_family_sweep(tmp_path):
    swf = tmp_path / "trace.swf"
    lines = ["; header comment"]
    for i in range(12):
        lines.append(f"{i + 1} {i * 600} {600 + 60 * i} {1 + i % 3}")
    swf.write_text("\n".join(lines) + "\n")
    cfg = small_cfg(
        families=("Real",),
        job_counts=(4, 8),
        swf_path=str(swf),
        utilization=(),
        repetitions=2,
    )
    tables = run_suite(cfg)
    offered = {r["point"]: r["jobs_offered"] for r in tables["runs"]}
    assert offered == {4: 4, 8: 8}


# --- config files ---------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    text = """\
# sweep description
machines = 4
horizon_slots = 48          # short grid
forecast_slots = 24
master_seed = 7
onpeak_price = 0.14
offpeak_price = 0.07
charge_rate = 0.03
green = zero
families = UU, UE
utilization = 0.25, 0.75
fixed_p = 2
fixed_q = 2
algorithms = FF, BF
repetitions = 4
include_offline = false
offline_limits = jobs=6,slots=48
"""
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.sim.machines == 4
    assert cfg.sim.horizon_slots == 48
    assert cfg.sim.forecast_slots == 24
    assert cfg.master_seed == 7
    assert cfg.tariff.onpeak_price == 0.14
    assert cfg.tariff.charge_rate == 0.03
    assert cfg.families == ("UU", "UE")
    assert cfg.utilization == (0.25, 0.75)
    assert cfg.algorithms == ("FF", "BF")
    assert cfg.repetitions == 4
    assert cfg.offline_limits == SolveLimits(6, 48, 16)
    assert cfg.green == "zero"
    assert cfg.output_dir is None


def test_load_config_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing but comments\n\n")
    cfg = load_config(path)
    assert cfg.sim == SimConfig()
    assert cfg.families == ("UE",)
    assert cfg.utilization == (0.1, 0.5, 1.0)
    assert cfg.algorithms == ("FF", "BF", "RF")
    assert cfg.repetitions == 30


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("machnes = 4\n")
    with pytest.raises(ValueError, match="machnes"):
        load_config(path)
    # fields that are not settings: nested configs and the code-only override
    path.write_text("sim = 1\ntariff = 2\npeak_override = true\nmachines = 4\n")
    with pytest.raises(ValueError, match=r"\['peak_override', 'sim', 'tariff'\]"):
        load_config(path)


def test_load_config_rejects_repeated_keys(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("machines = 4\nrepetitions = 2\nmachines = 8\n")
    with pytest.raises(ValueError, match=r"twice\.cfg:3: key 'machines' is repeated"):
        load_config(path)


def test_load_config_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("machines = 4\njust words\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2"):
        load_config(path)


def test_load_config_rejects_bad_bool(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("include_offline = maybe\n")
    with pytest.raises(ValueError, match="true/false"):
        load_config(path)


def test_load_config_rejects_real_family_without_trace(tmp_path):
    # fails at load time, before any cell of the other families runs
    path = tmp_path / "real.cfg"
    path.write_text("families = UE, Real\njob_counts = 3\n")
    with pytest.raises(ValueError, match="swf_path"):
        load_config(path)


def test_load_config_rejects_an_onpeak_window_past_the_day(tmp_path):
    # hourly slots make a 24-slot day: the default window 36..91 marks no
    # slot on-peak, so every slot would be billed off-peak
    path = tmp_path / "hourly.cfg"
    path.write_text("slot_minutes = 60\n")
    with pytest.raises(ValueError, match="onpeak_end_slot must be below 24"):
        load_config(path)
    path.write_text("slot_minutes = 60\nonpeak_start_slot = 9\nonpeak_end_slot = 23\n")
    assert load_config(path).tariff.onpeak_end_slot == 23


def test_load_config_rejects_slots_that_do_not_tile_a_day(tmp_path):
    path = tmp_path / "odd.cfg"
    path.write_text("slot_minutes = 7\n")
    with pytest.raises(ValueError, match="slot_minutes must divide .*got 7"):
        load_config(path)


@pytest.mark.parametrize("source", ["whatever", "solar:", "solar", "Zero"])
def test_load_config_rejects_unknown_green_source(tmp_path, source):
    path = tmp_path / "green.cfg"
    path.write_text(f"green = {source}\n")
    with pytest.raises(ValueError, match="green"):
        load_config(path)
    # a solar path is checked only when the trace is read
    path.write_text(f"green = solar:{tmp_path / 'missing.csv'}\n")
    assert load_config(path).green.startswith("solar:")


def test_parse_limits():
    assert parse_limits("jobs=3", NONPREEMPTIVE_LIMITS) == SolveLimits(3, 48, 16)
    assert parse_limits("slots=20, machines=4", NONPREEMPTIVE_LIMITS) == SolveLimits(
        12, 20, 4
    )
    with pytest.raises(ValueError, match="bad limits entry"):
        parse_limits("widgets=3", NONPREEMPTIVE_LIMITS)
    with pytest.raises(ValueError, match="bad limits entry"):
        parse_limits("jobs=soon", NONPREEMPTIVE_LIMITS)
