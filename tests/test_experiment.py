import hashlib
import itertools
import math
import re
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from greensched import experiment, workload
from greensched.experiment import (
    ExperimentConfig,
    ExperimentError,
    MEANS_HEADER,
    RUNS_HEADER,
    cell_jobs,
    load_config,
    preemption_comparison,
    resolve_green,
    run_suite,
    stable_seed,
)
from greensched.model import SimConfig
from greensched.offline import MAX_STEPS
from greensched.pricing import GreenTrace, synthetic_solar
from greensched.schedulers import KINDS
from greensched.workload import FAMILIES, ingest_swf, sample_jobs

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


@pytest.mark.parametrize(
    "knobs, text, message",
    [
        (dict(utilization=(0.5, 2.0)), "utilization = 0.5, 2.0", "target_utilization"),
        (dict(fixed_p=0), "fixed_p = 0", "fixed sizes"),
        (dict(day_fraction=2.0), "day_fraction = 2.0", "day_fraction"),
        (
            dict(families=("UE", "Real"), job_counts=(4, 0), swf_path="t.swf"),
            "families = UE, Real\njob_counts = 4, 0\nswf_path = t.swf",
            "job_count",
        ),
        (
            dict(families=("Real",), job_counts=(4,), swf_path=""),
            "families = Real\njob_counts = 4\nswf_path =",
            "swf_path",
        ),
    ],
    ids=["utilization", "fixed_p", "day_fraction", "job_count", "empty_swf_path"],
)
def test_config_checks_every_cell_up_front(tmp_path, knobs, text, message):
    # a knob no cell's workload accepts fails at construction, before any
    # cell of the sweep has run
    with pytest.raises(ValueError, match=message):
        small_cfg(**knobs)
    path = tmp_path / "sweep.cfg"
    path.write_text(text + "\n")
    with pytest.raises(ValueError, match=message):
        load_config(path)


def test_config_rejects_a_repeated_algorithm(tmp_path):
    # a repeat would play the policy twice per cell and duplicate its rows
    with pytest.raises(ValueError, match="algorithm 'FF' is repeated"):
        small_cfg(algorithms=("FF", "BF", "FF"))
    path = tmp_path / "twice.cfg"
    path.write_text("algorithms = FF, FF\n")
    with pytest.raises(ValueError, match="algorithm 'FF' is repeated"):
        load_config(path)


@pytest.mark.parametrize(
    "knobs, text, message",
    [
        (dict(families=("UE", "UE")), "families = UE, UE", "family 'UE' is repeated"),
        (dict(utilization=(0.3, 0.3)), "utilization = 0.3, 0.3", "utilization 0.3 is repeated"),
        (dict(utilization=(1, 1.0)), "utilization = 1, 1.0", "utilization 1.0 is repeated"),
        (
            dict(families=("Real",), job_counts=(4, 4), swf_path="t.swf"),
            "families = Real\njob_counts = 4, 4\nswf_path = t.swf",
            "job count 4 is repeated",
        ),
    ],
    ids=["families", "utilization", "int-and-float", "job_counts"],
)
def test_config_rejects_repeated_sweep_entries(tmp_path, knobs, text, message):
    # a repeated point or family would play each of its cells twice and
    # average the copies into one means row
    with pytest.raises(ValueError, match=message):
        small_cfg(**knobs)
    path = tmp_path / "twice.cfg"
    path.write_text(text + "\n")
    with pytest.raises(ValueError, match=message):
        load_config(path)


def test_a_sweep_point_is_one_value():
    # 1 and 1.0 are one point, so they must key the same workloads: the
    # seeds hash the point's text, and both rows are labelled 1
    cfg = small_cfg(families=("UU",), utilization=(1,), algorithms=("FF",), repetitions=2)
    assert cfg.utilization == (1.0,) and type(cfg.utilization[0]) is float
    as_float = replace(cfg, utilization=(1.0,))
    assert run_suite(cfg)["runs"] == run_suite(as_float)["runs"]
    # a job count is a whole number; 2.5 would label rows that sample 2 jobs
    real = dict(families=("Real",), swf_path="t.swf", utilization=())
    cfg = small_cfg(job_counts=(4.0, 8), **real)
    assert cfg.job_counts == (4, 8) and all(type(n) is int for n in cfg.job_counts)
    for counts in ((2.5,), (4, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match="job counts must be whole numbers"):
            small_cfg(job_counts=counts, **real)


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
        utilization=(1.0,),
        fixed_p=5,
        fixed_q=3,
        repetitions=1,
        include_offline=True,
        offline_max_steps=1,
    )
    # the first job's first option is the search's only step
    with pytest.raises(ExperimentError, match=r"UE point 1\.0 rep 0: .*offline_max_steps"):
        run_suite(cfg)


def test_offline_search_too_deep_names_the_cell():
    # UE p=1 q=1 at 100% load on 1x1500 offers 1,500 jobs, one nested search
    # call each: past the recursion limit, which must fail like a budget stop
    cfg = small_cfg(
        sim=SimConfig(machines=1, horizon_slots=1500, forecast_slots=1500),
        utilization=(1.0,),
        fixed_p=1,
        fixed_q=1,
        algorithms=("FF",),
        repetitions=1,
        include_offline=True,
    )
    assert len(cell_jobs(cfg, "UE", 1.0, 0, [])) > sys.getrecursionlimit()
    with pytest.raises(ExperimentError, match=r"UE point 1\.0 rep 0: .*recursion limit"):
        run_suite(cfg)


def _counted_plays(monkeypatch) -> list:
    calls = []
    play = experiment.run_online

    def counted(jobs, kind, *args, seed):
        calls.append(kind.kind)
        return play(jobs, kind, *args, seed=seed)

    monkeypatch.setattr(experiment, "run_online", counted)
    return calls


def test_workload_failure_names_the_cell(monkeypatch):
    # a fixed size wider than the 4-node cluster fails before the UU cells
    # ahead of it play
    calls = _counted_plays(monkeypatch)
    cfg = small_cfg(families=("UU", "UE"), utilization=(0.3,), fixed_q=9, repetitions=1)
    with pytest.raises(ExperimentError, match="UE point 0.3: fixed node requirement 9"):
        run_suite(cfg)
    assert calls == []


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
    # the trace is read before any cell, so the message names no rep
    with pytest.raises(ExperimentError, match="Real point 4: .*missing.swf"):
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


def _write_trace(path, rows):
    path.write_text("\n".join(" ".join(str(x) for x in row) for row in rows) + "\n")
    return str(path)


def _parity_traces(tmp_path) -> list[str]:
    """Four traces: in submit order, shuffled, with unusable and late rows, 18-field."""
    rows = [(i + 1, 1000 + 700 * i, 600 + 900 * (i % 5), 1 + i % 6) for i in range(36)]
    late = [(100 + i, 1000 + 900 * (96 + 20 * i), 1800, 2) for i in range(4)]  # past 96 slots
    unusable = [(200, 5000, -1, 2), (201, 6000, 900, 0)]
    return [
        _write_trace(tmp_path / "ordered.swf", rows),
        _write_trace(tmp_path / "shuffled.swf", [rows[(7 * i) % 36] for i in range(36)]),
        _write_trace(tmp_path / "mixed.swf", rows[:10] + late + unusable + rows[10:]),
        _write_trace(
            tmp_path / "swf18.swf",
            [
                (jid, sub, 0, run, -1 if jid % 4 == 0 else q, -1, -1, q) + (-1,) * 10
                for jid, sub, run, q in rows
            ],
        ),
    ]


def test_real_sweeps_are_pinned(tmp_path):
    # how often the trace is read must not change a Real table or a
    # sampled job list by one byte
    digest = hashlib.sha256()
    grids = [SimConfig(machines=4, horizon_slots=96, forecast_slots=96), SimConfig()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped, skipped and unusable rows
        for t, swf in enumerate(_parity_traces(tmp_path)):
            for g, sim in enumerate(grids):
                for count, seed in itertools.product((1, 4, 10), range(4)):
                    jobs = sample_jobs(ingest_swf(swf, sim), count, seed)
                    digest.update(repr(jobs).encode())
                for families in (("Real",), ("UE", "Real")):
                    out = tmp_path / f"out-{t}-{g}-{len(families)}"
                    cfg = ExperimentConfig(
                        sim=sim,
                        families=families,
                        utilization=(0.1,),
                        job_counts=(4, 10),
                        swf_path=swf,
                        deadline_factor=2 + t % 2,
                        repetitions=3,
                        master_seed=t,
                        output_dir=str(out),
                    )
                    run_suite(cfg, preemption=True)
                    for name in ("runs", "means", "ratios", "preemption"):
                        digest.update((out / f"{name}.csv").read_bytes())
    assert digest.hexdigest() == "f4b732cf93c8e66d957e3dff7635a704778268e1b69d3168a70a869add28ec12"


def test_synthetic_sweeps_are_pinned(tmp_path):
    # every synthetic family under all six policies, with a forecast that
    # cuts the visible green: a change to how the engine finds or prices a
    # pick must not move a table by one byte
    grids = [
        SimConfig(machines=8, horizon_slots=96, forecast_slots=24),
        SimConfig(machines=16, horizon_slots=192, forecast_slots=48),
    ]
    digests = []
    for g, sim in enumerate(grids):
        digest = hashlib.sha256()
        for green in ("synthetic", "zero"):
            out = tmp_path / f"out-{g}-{green}"
            cfg = ExperimentConfig(
                sim=sim,
                green=green,
                families=FAMILIES,
                utilization=(0.4, 1.2),
                algorithms=KINDS,
                repetitions=2,
                master_seed=7,
                output_dir=str(out),
            )
            run_suite(cfg, preemption=True)
            for name in ("runs", "means", "ratios", "preemption"):
                digest.update((out / f"{name}.csv").read_bytes())
        digests.append(digest.hexdigest())
    assert digests == [
        "7db33df26efa56fc20d2f619448147f8ba2c6006a3ea6b20185f8a87549aa3cd",
        "f8de3ec6662a3484df92b00fc92e8e08d45eb12207d2a25495221234a87bdd4e",
    ]


def test_real_sweep_reads_its_trace_once(tmp_path, monkeypatch):
    swf = _write_trace(tmp_path / "t.swf", [(i + 1, 600 * i, 900, 1 + i % 3) for i in range(12)])
    opened = []

    def counted_open(path, *args, **kw):
        opened.append(str(path))
        return open(path, *args, **kw)

    monkeypatch.setattr(workload, "open", counted_open, raising=False)
    cfg = small_cfg(families=("Real",), job_counts=(4, 8), swf_path=swf, utilization=())
    run_suite(cfg)
    assert opened == [swf]


def test_a_trace_warning_is_raised_once_per_sweep(tmp_path):
    # job 1 asks for 9 nodes on a 4-node cluster
    swf = _write_trace(tmp_path / "t.swf", [(i + 1, 600 * i, 900, 9 if i == 0 else 2) for i in range(12)])
    cfg = small_cfg(families=("Real",), job_counts=(4, 8), swf_path=swf, utilization=())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_suite(cfg)
    assert [str(w.message) for w in caught] == ["job 1: requested 9 nodes, clamped to 4"]


@pytest.mark.parametrize(
    "trace_rows, job_counts, message",
    [
        (None, (4,), r"Real point 4: .*No such file"),
        (12, (4, 50), "Real point 50: asked for 50 jobs, only 12 usable"),
        (1, (4,), r"Real point 4: .*t\.swf:1: expected at least 4 fields"),
    ],
    ids=["missing", "too-few-jobs", "unreadable"],
)
def test_a_bad_trace_stops_the_sweep_before_its_first_play(
    tmp_path, monkeypatch, trace_rows, job_counts, message
):
    swf = tmp_path / "t.swf"
    if trace_rows == 1:
        swf.write_text("1 0 900\n")
    elif trace_rows:
        _write_trace(swf, [(i + 1, 600 * i, 900, 2) for i in range(trace_rows)])
    calls = _counted_plays(monkeypatch)
    cfg = small_cfg(
        families=("UE", "Real"),
        utilization=(0.3,),
        job_counts=job_counts,
        swf_path=str(swf),
        algorithms=("FF",),
    )
    with pytest.raises(ExperimentError, match=message):
        run_suite(cfg)
    assert calls == []


@pytest.mark.parametrize(
    "rows, message",
    [(None, "No such file"), (5, "step of 1800 s differs")],
    ids=["missing", "irregular"],
)
def test_a_bad_solar_csv_stops_the_sweep_before_its_first_play(
    tmp_path, monkeypatch, rows, message
):
    path = tmp_path / "solar.csv"
    if rows:  # quarter-hour samples, then one half-hour step
        stamps = [900 * k for k in range(rows)] + [900 * (rows + 1 + k) for k in range(48)]
        path.write_text("timestamp,watts\n" + "".join(f"{t},100\n" for t in stamps))
    calls = _counted_plays(monkeypatch)
    cfg = small_cfg(green=f"solar:{path}", algorithms=("FF",))
    source = re.escape(f"green solar:{path}: ")
    with pytest.raises(ExperimentError, match=f"{source}.*{message}"):
        run_suite(cfg)
    assert calls == []


def test_config_rejects_a_deadline_factor_below_one(tmp_path):
    # checked for every sweep, with or without a Real family
    with pytest.raises(ValueError, match="deadline_factor"):
        small_cfg(deadline_factor=0)
    path = tmp_path / "factor.cfg"
    path.write_text("deadline_factor = 0\n")
    with pytest.raises(ValueError, match="deadline_factor"):
        load_config(path)


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
offline_max_steps = 5000
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
    assert cfg.offline_max_steps == 5000
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
    with pytest.raises(ValueError, match="green source"):
        resolve_green(source, SMALL)
    # a solar path is checked only when the trace is read
    path.write_text(f"green = solar:{tmp_path / 'missing.csv'}\n")
    assert load_config(path).green.startswith("solar:")


def test_load_config_reads_offline_max_steps(tmp_path):
    assert ExperimentConfig().offline_max_steps == MAX_STEPS
    path = tmp_path / "budget.cfg"
    path.write_text("offline_max_steps = 2500\n")
    assert load_config(path).offline_max_steps == 2500
    path.write_text("offline_max_steps = 0\n")
    with pytest.raises(ValueError, match="offline_max_steps must be >= 1"):
        load_config(path)
    path.write_text("offline_max_steps = soon\n")
    with pytest.raises(ValueError, match="soon"):
        load_config(path)
