import hashlib
from pathlib import Path

import numpy as np
import pytest

from greensched.model import SimConfig
from greensched.pricing import Tariff, onpeak_vector
from greensched.workload import (
    WorkloadSpec,
    check_fits,
    generate,
    ingest_swf,
    read_jobs,
    sample_jobs,
    write_jobs,
)

CFG = SimConfig()


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(family="XX", target_utilization=0.5)
    with pytest.raises(TypeError):
        WorkloadSpec(family="UU")  # utilization missing
    with pytest.raises(ValueError):
        WorkloadSpec(family="UU", target_utilization=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(family="UU", target_utilization=1.6)
    with pytest.raises(ValueError):
        WorkloadSpec(family="Real", target_utilization=0.5)  # sampled, not synthesized


def test_ue_job_count_at_ten_percent():
    # round(0.1 * 16 * 480 / (5*3)) = 51 jobs, derived by hand
    spec = WorkloadSpec(family="UE", target_utilization=0.1)
    jobs = generate(spec, CFG)
    assert len(jobs) == 51
    assert all(j.proc_time == 5 and j.nodes == 3 for j in jobs)


def test_job_lists_are_pinned():
    # sha256 over the reprs of 60 job lists: any change to a family's draws,
    # their order or the resulting jobs moves it
    digest = hashlib.sha256()
    for T in (12, 96, 480):
        for family in ("UU", "UE", "PU", "PE", "Staggered"):
            for seed in range(4):
                spec = WorkloadSpec(family=family, target_utilization=1.0, rng_seed=seed)
                digest.update(repr(generate(spec, SimConfig(horizon_slots=T))).encode())
    assert digest.hexdigest() == (
        "45bd6c1a54e43fe686bb080b9cd4c1308442b6310aceb20415d0118f57c083a9"
    )


def test_generation_deterministic_and_seed_sensitive():
    a = generate(WorkloadSpec(family="UU", target_utilization=0.3, rng_seed=7), CFG)
    b = generate(WorkloadSpec(family="UU", target_utilization=0.3, rng_seed=7), CFG)
    c = generate(WorkloadSpec(family="UU", target_utilization=0.3, rng_seed=8), CFG)
    assert a == b
    assert a != c


def test_jobs_sorted_with_dense_ids():
    jobs = generate(WorkloadSpec(family="PU", target_utilization=0.5, rng_seed=3), CFG)
    assert [j.id for j in jobs] == list(range(len(jobs)))
    keys = [(j.release, j.deadline) for j in jobs]
    assert keys == sorted(keys)


@pytest.mark.parametrize("family", ["UU", "UE", "PU", "PE", "Staggered"])
def test_families_respect_window_invariants(family):
    total = 0
    for seed in range(4):
        spec = WorkloadSpec(family=family, target_utilization=1.0, rng_seed=seed)
        jobs = generate(spec, CFG)
        total += len(jobs)
        for j in jobs:
            assert 0 <= j.release <= j.deadline < CFG.horizon_slots
            assert j.release + j.proc_time - 1 <= j.deadline
            assert 1 <= j.nodes <= CFG.machines
            assert j.proc_time >= 1
    assert total > 100


@pytest.mark.parametrize("family", ["UU", "Staggered"])
def test_short_horizons_cap_drawn_proc_times(family):
    # p ~ U[1,9] on a 6-slot horizon: a draw past T is capped at T
    cfg = SimConfig(machines=4, horizon_slots=6)
    capped = 0
    for seed in range(40):
        spec = WorkloadSpec(family=family, target_utilization=1.0, rng_seed=seed)
        for j in generate(spec, cfg):
            assert 0 <= j.release <= j.release + j.proc_time - 1 <= j.deadline < 6
            assert 1 <= j.nodes <= 4
            capped += j.proc_time == 6
    assert capped > 0


def test_uu_hits_target_utilization():
    cap = CFG.machines * CFG.horizon_slots
    ratios = []
    for seed in range(30):
        jobs = generate(
            WorkloadSpec(family="UU", target_utilization=0.6, rng_seed=seed), CFG
        )
        ratios.append(sum(j.proc_time * j.nodes for j in jobs) / cap)
    mean = float(np.mean(ratios))
    assert abs(mean - 0.6) < 0.06  # within 10% of the target on average


def test_poisson_mean_job_count():
    counts = [
        len(generate(WorkloadSpec(family="PE", target_utilization=0.5, rng_seed=s), CFG))
        for s in range(30)
    ]
    # lambda * T = 0.5 * 16 * 480 / 15 jobs in expectation, minus a small
    # loss from arrivals too close to the horizon edge to fit p=5
    expect = 0.5 * 16 * 480 / 15
    assert abs(float(np.mean(counts)) - expect) < 0.1 * expect


def test_staggered_day_bias_and_spans():
    peak = onpeak_vector(Tariff(), CFG)
    spd = CFG.slots_per_day
    hits = 0
    total = 0
    for seed in range(6):
        jobs = generate(
            WorkloadSpec(family="Staggered", target_utilization=1.0, rng_seed=seed), CFG
        )
        for j in jobs:
            total += 1
            hits += bool(peak[j.release])
            assert j.deadline == min(j.release + 2 * spd, CFG.horizon_slots - 1)
    share = hits / total
    assert abs(share - 0.75) < 0.05


def test_staggered_deadline_holds_a_job_longer_than_the_span():
    # 3 slots a day: a one-day span is shorter than most drawn p, so the
    # deadline stretches to r + p - 1 (still capped at the horizon)
    cfg = SimConfig(machines=4, horizon_slots=20, slot_minutes=480)
    tariff = Tariff(onpeak_start_slot=1, onpeak_end_slot=2)
    stretched = 0
    for seed in range(40):
        spec = WorkloadSpec(
            family="Staggered", target_utilization=0.5, span_days=1, rng_seed=seed
        )
        for j in generate(spec, cfg, tariff):
            assert j.release + j.proc_time - 1 <= j.deadline < cfg.horizon_slots
            assert j.deadline == min(j.release + max(3, j.proc_time - 1), 19)
            stretched += j.proc_time - 1 > 3
    assert stretched > 0


def test_staggered_respects_custom_tariff():
    # a tariff whose peak covers slots 0..9 of each day shifts the arrivals
    tariff = Tariff(onpeak_start_slot=0, onpeak_end_slot=9)
    jobs = generate(
        WorkloadSpec(family="Staggered", target_utilization=0.8, day_fraction=1.0,
                     rng_seed=1),
        CFG,
        tariff,
    )
    assert all(j.release % CFG.slots_per_day <= 9 for j in jobs)


def test_equal_families_reject_oversized_fixtures():
    with pytest.raises(ValueError):
        generate(
            WorkloadSpec(family="UE", target_utilization=0.5, fixed_q=17), CFG
        )
    small = SimConfig(machines=4, horizon_slots=10, forecast_slots=10)
    with pytest.raises(ValueError, match="fixed proc time 11"):
        generate(
            WorkloadSpec(family="PE", target_utilization=0.5, fixed_p=11), small
        )
    # drawn sizes never read the fixed ones
    check_fits(WorkloadSpec(family="PU", target_utilization=0.5, fixed_p=11), small)


def test_mass_invariants_ten_thousand_jobs():
    seen = 0
    seed = 0
    while seen < 10_000:
        family = ["UU", "PU", "Staggered"][seed % 3]
        jobs = generate(
            WorkloadSpec(family=family, target_utilization=1.5, rng_seed=seed), CFG
        )
        for j in jobs:
            assert j.release + j.proc_time - 1 <= j.deadline < CFG.horizon_slots
            assert 1 <= j.nodes <= min(5, CFG.machines)
            assert 1 <= j.proc_time <= 9
        seen += len(jobs)
        seed += 1
    assert seen >= 10_000


# --- trace ingestion ------------------------------------------------------


def _write_trace(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_swf_mapping(tmp_path):
    trace = _write_trace(
        tmp_path / "trace.swf",
        [
            "; header comment",
            "# another comment",
            "1 1000 900 4",  # earliest submit: rebased to slot 0, p = 1
            "2 4600 901 2",  # one hour later: slot 4, p = ceil(901/900) = 2
            "3, 10000, 10, 1",  # comma separated, run rounds up to 1 slot
        ],
    )
    jobs = ingest_swf(trace, CFG)
    by_id = {j.id: j for j in jobs}
    assert by_id[1].release == 0 and by_id[1].proc_time == 1 and by_id[1].nodes == 4
    assert by_id[1].deadline == 4  # release + 4 * p
    assert by_id[2].release == 4 and by_id[2].proc_time == 2
    assert by_id[2].deadline == 4 + 8
    assert by_id[3].release == 10 and by_id[3].proc_time == 1


def test_swf_clamps_wide_jobs_with_warning(tmp_path):
    trace = _write_trace(tmp_path / "t.swf", ["1 0 900 40", "2 900 900 2"])
    with pytest.warns(UserWarning, match="clamped"):
        jobs = ingest_swf(trace, CFG)
    assert {j.id: j.nodes for j in jobs}[1] == 16


def test_swf_skips_jobs_past_horizon(tmp_path):
    beyond = CFG.horizon_slots * CFG.slot_minutes * 60 + 1000
    trace = _write_trace(tmp_path / "t.swf", ["1 0 900 1", f"2 {beyond} 900 1"])
    with pytest.warns(UserWarning, match="skipped"):
        jobs = ingest_swf(trace, CFG)
    assert [j.id for j in jobs] == [1]


def test_swf_sampling_is_deterministic(tmp_path):
    lines = [f"{i} {i * 900} 900 1" for i in range(1, 21)]
    trace = _write_trace(tmp_path / "t.swf", lines)
    full = ingest_swf(trace, CFG)
    a = sample_jobs(full, 5, 11)
    b = sample_jobs(full, 5, 11)
    c = sample_jobs(full, 5, 12)
    assert a == b and len(a) == 5
    assert a != c
    assert {j.id for j in a} <= {j.id for j in full}
    with pytest.raises(ValueError, match="only"):
        sample_jobs(full, 21, 11)


def test_swf_parse_errors(tmp_path):
    short = _write_trace(tmp_path / "a.swf", ["1 0 900"])
    with pytest.raises(ValueError, match="a.swf:1"):
        ingest_swf(short, CFG)
    garbled = _write_trace(tmp_path / "b.swf", ["1 0 900 2", "2 x 900 2"])
    with pytest.raises(ValueError, match="b.swf:2"):
        ingest_swf(garbled, CFG)
    dup = _write_trace(tmp_path / "c.swf", ["1 0 900 2", "1 900 900 2"])
    with pytest.raises(ValueError, match="duplicate"):
        ingest_swf(dup, CFG)
    # nan and inf fail at their line, as any other unreadable field: an inf
    # run time no longer overflows math.ceil, a nan submit no longer fails
    # in the slot arithmetic, and both 18-field processor fields are checked
    def swf18(submit, run, alloc, requested="4"):
        fields = ["1"] * 18
        fields[1], fields[3], fields[4], fields[7] = submit, run, alloc, requested
        return " ".join(fields)

    for name, good, bad in (
        ("run_inf", "7 0 900 2", "1 0 inf 2"),
        ("run_nan", "7 0 900 2", "1 0 nan 2"),
        ("submit_nan", "7 0 900 2", "1 nan 900 2"),
        ("submit_inf", "7 0 900 2", "1 -inf 900 2"),
        ("procs_inf", "7 0 900 2", "1 0 900 inf"),
        ("alloc_nan", swf18("0", "900", "2"), swf18("0", "900", "nan")),
        ("requested_inf", swf18("0", "900", "2"), swf18("0", "900", "-1", "inf")),
        # a job id or processor count must be whole, not truncated
        ("procs_frac", "7 0 900 2", "1 0 900 2.7"),
        ("id_frac", "2 0 900 2", "2.9 900 900 2"),
        ("alloc_frac", swf18("0", "900", "2"), swf18("0", "900", "2.5")),
        ("requested_frac", swf18("0", "900", "2"), swf18("0", "900", "-1", "3.5")),
    ):
        trace = _write_trace(tmp_path / f"{name}.swf", [good, bad])
        with pytest.raises(ValueError, match=rf"{name}.swf:2: cannot parse"):
            ingest_swf(trace, CFG)
    # whole numbers written with a fraction part stay accepted
    trace = _write_trace(tmp_path / "whole.swf", ["7.0 0 900 2", "8 0 900 4.0"])
    assert [(j.id, j.nodes) for j in ingest_swf(trace, CFG)] == [(7, 2), (8, 4)]


SWF_18 = Path(__file__).parent / "data" / "standard_18_field.swf"


def test_swf_standard_18_field_rows():
    # job 1 runs 3600 s on 8 processors after a 10 s wait; job 2 has no
    # allocated count, so its 4 requested processors stand in; jobs 3, 5
    # and 6 (cancelled, zero run time, no processor count) are skipped
    with pytest.warns(UserWarning, match="skipped 3 rows") as caught:
        jobs = ingest_swf(SWF_18, CFG)
    assert len(caught) == 1
    assert [(j.id, j.release, j.deadline, j.proc_time, j.nodes) for j in jobs] == [
        (1, 0, 16, 4, 8),
        (2, 1, 9, 2, 4),
        (4, 3, 7, 1, 2),
    ]


def test_swf_rows_must_keep_the_first_rows_width(tmp_path):
    rows = SWF_18.read_text().splitlines()
    mixed = _write_trace(tmp_path / "mixed.swf", rows[:9] + ["7 5400 900 2"])
    with pytest.raises(ValueError, match="mixed.swf:10: expected 18 fields"):
        ingest_swf(mixed, CFG)
    short = _write_trace(tmp_path / "short.swf", ["1 0 900 2", "2 900 900 2 7"])
    with pytest.raises(ValueError, match="short.swf:2: expected 4 fields"):
        ingest_swf(short, CFG)


def test_real_family_via_generate(tmp_path):
    lines = [f"{i} {i * 1800} 1800 2" for i in range(12)]
    trace = _write_trace(tmp_path / "t.swf", lines)
    # generate takes synthetic specs only: a Real list samples the trace
    jobs = sample_jobs(ingest_swf(trace, CFG), 6, 2)
    assert len(jobs) == 6
    assert all(j.proc_time == 2 and j.nodes == 2 for j in jobs)


def test_ingest_swf_rejects_a_deadline_factor_below_one(tmp_path):
    # a factor of 0 would give every multi-slot job a window too short
    # to hold it, and skip it as if it left the horizon
    trace = _write_trace(tmp_path / "t.swf", [f"{i} {i * 900} {900 * (i + 1)} 2" for i in range(3)])
    with pytest.raises(ValueError, match="deadline_factor must be >= 1, got 0"):
        ingest_swf(trace, CFG, deadline_factor=0)
    assert len(ingest_swf(trace, CFG, deadline_factor=1)) == 3


# --- job files ------------------------------------------------------------


def test_job_file_roundtrip(tmp_path):
    jobs = generate(WorkloadSpec(family="UU", target_utilization=0.2, rng_seed=5), CFG)
    path = tmp_path / "jobs.txt"
    write_jobs(jobs, path)
    assert read_jobs(path, CFG) == jobs


def test_read_jobs_skips_unusable_rows(tmp_path):
    path = tmp_path / "jobs.txt"
    path.write_text(
        "# id release deadline proc_time nodes\n"
        "0 0 10 2 1\n"
        "1 0 9999 2 1   # deadline outside horizon\n"
        "2 0 10 2 99    # too wide\n"
        "3 5 5 3 1      # window cannot hold p\n"
    )
    with pytest.warns(UserWarning):
        jobs = read_jobs(path, CFG)
    assert [j.id for j in jobs] == [0]


def test_read_jobs_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 10 2\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        read_jobs(bad, CFG)
    dup = tmp_path / "dup.txt"
    dup.write_text("0 0 10 2 1\n0 1 10 2 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_jobs(dup, CFG)
