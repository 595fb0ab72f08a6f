import shlex
import sys
from pathlib import Path

import pytest

from greensched import adversary, cli, experiment
from greensched.cli import build_parser, main
from greensched.experiment import cell_jobs, cell_spec, load_config, resolve_green
from greensched.model import SimConfig
from greensched.offline import LP_VARIANTS, solve_nonpreemptive_exact
from greensched.pricing import Tariff
from greensched.workload import generate, ingest_swf, read_jobs

from lputil import solve_lp_text

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def small(tmp_path):
    """``--config`` for a two-machine, eight-slot grid without green supply."""
    path = tmp_path / "small.cfg"
    path.write_text("machines = 2\nhorizon_slots = 8\ngreen = zero\n")
    return ["--config", str(path)]


def write_job_file(path, rows):
    lines = ["# id release deadline proc_time nodes"]
    lines += [" ".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_gen_writes_readable_jobs(tmp_path, capsys):
    out = tmp_path / "jobs.txt"
    rc = main(["gen", "--family", "UU", "--point", "0.05", "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert f"-> {out}" in capsys.readouterr().out
    jobs = read_jobs(out, SimConfig())
    assert jobs
    again = tmp_path / "again.txt"
    main(["gen", "--family", "UU", "--point", "0.05", "--seed", "3", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_gen_real_family(tmp_path):
    swf = tmp_path / "trace.swf"
    swf.write_text("".join(f"{i} {i * 900} 1200 2\n" for i in range(6)))
    cfg = tmp_path / "real.cfg"
    cfg.write_text(f"swf_path = {swf}\n")
    out = tmp_path / "jobs.txt"
    rc = main(
        ["gen", "--config", str(cfg), "--family", "Real", "--point", "4", "--out", str(out)]
    )
    assert rc == 0
    assert len(read_jobs(out, SimConfig())) == 4


def test_gen_real_family_with_an_inf_run_time_names_its_line(tmp_path, capsys):
    # an inf run time used to escape main as a bare OverflowError
    swf = tmp_path / "t.swf"
    swf.write_text("1 0 inf 2\n2 900 1200 2\n")
    cfg = tmp_path / "real.cfg"
    cfg.write_text(f"swf_path = {swf}\n")
    out = tmp_path / "jobs.txt"
    rc = main(
        ["gen", "--config", str(cfg), "--family", "Real", "--point", "1", "--out", str(out)]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "t.swf:1: cannot parse '1 0 inf 2'" in captured.err
    assert not out.exists()


def test_gen_real_family_without_a_trace_names_swf_path(tmp_path, capsys):
    out = tmp_path / "jobs.txt"
    rc = main(["gen", "--family", "Real", "--point", "4", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "swf_path" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "family, point, want",
    [("Real", "4.0", "a job count"), ("UU", "abc", "a utilization")],
)
def test_gen_names_point_when_it_does_not_parse(tmp_path, capsys, family, point, want):
    swf = tmp_path / "trace.swf"
    swf.write_text("".join(f"{i} {i * 900} 1200 2\n" for i in range(6)))
    cfg = tmp_path / "real.cfg"
    cfg.write_text(f"swf_path = {swf}\n")
    out = tmp_path / "jobs.txt"
    rc = main(["gen", "--config", str(cfg), "--family", family, "--point", point, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: --point for {family} must be {want}, got {point!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("family, point", [("Staggered", "0.3"), ("Real", "5")])
def test_gen_config_matches_the_sweep_cell(tmp_path, family, point):
    swf = tmp_path / "trace.swf"
    swf.write_text("".join(f"{i} {i * 600} {300 * (i % 4 + 1)} {i % 3 + 1}\n" for i in range(9)))
    path = tmp_path / "gen.cfg"
    path.write_text(
        "machines = 4\nhorizon_slots = 96\nslot_minutes = 30\n"
        "onpeak_start_slot = 10\nonpeak_end_slot = 30\nspan_days = 1\n"
        f"deadline_factor = 2\nswf_path = {swf}\n"
    )
    cfg = load_config(path)
    out = tmp_path / "jobs.txt"
    rc = main(
        ["gen", "--config", str(path), "--family", family, "--point", point]
        + ["--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    trace = ingest_swf(swf, cfg.sim, cfg.deadline_factor)
    value = int(point) if family == "Real" else float(point)  # as the sweep holds it
    expected = cell_jobs(cfg, family, value, 5, trace)
    assert read_jobs(out, cfg.sim) == expected
    if family == "Staggered":  # the config's tariff decides the release slots
        stock_hours = Tariff(onpeak_start_slot=18, onpeak_end_slot=45)  # 9:00-23:00
        assert generate(cell_spec(cfg, family, value, 5), cfg.sim, stock_hours) != expected


def test_opt_solve_prints_schedule(tmp_path, capsys, small):
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(0, 0, 5, 2, 1), (1, 1, 6, 3, 2)])
    rc = main(["opt", "solve", "--jobs", str(jf)] + small)
    captured = capsys.readouterr().out
    assert rc == 0
    assert "optimal net profit" in captured
    assert "scheduled 2/2 jobs" in captured
    assert "job 0: slots 0..1 on 1 nodes" in captured


def test_opt_solve_prices_with_the_config(tmp_path, capsys):
    path = tmp_path / "priced.cfg"
    path.write_text(
        "machines = 3\nhorizon_slots = 48\nslot_minutes = 30\n"
        "onpeak_start_slot = 18\nonpeak_end_slot = 45\n"
        "onpeak_price = 0.3\nnode_power_watts = 200\ngreen = synthetic\n"
    )
    cfg = load_config(path)
    rows = [(0, 8, 20, 4, 2), (1, 14, 30, 3, 3), (2, 30, 47, 5, 1), (3, 0, 47, 2, 3)]
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, rows)
    jobs = read_jobs(jf, cfg.sim)
    green = resolve_green(cfg.green, cfg.sim)
    profit, _ = solve_nonpreemptive_exact(jobs, green, cfg.tariff, cfg.sim)
    stock_prices = Tariff(onpeak_start_slot=18, onpeak_end_slot=45)
    stock, _ = solve_nonpreemptive_exact(jobs, green, stock_prices, SimConfig(3, 48, 30))
    assert f"{profit:.10g}" != f"{stock:.10g}"
    rc = main(["opt", "solve", "--config", str(path), "--jobs", str(jf)])
    assert rc == 0
    assert f"optimal net profit {profit:.10g}\n" in capsys.readouterr().out


def test_opt_solve_preemptive_lists_node_witness(tmp_path, capsys, small):
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(0, 0, 5, 2, 1), (1, 1, 6, 3, 2)])
    rc = main(["opt", "solve", "--jobs", str(jf), "--variant", "preemptive"] + small)
    captured = capsys.readouterr().out
    assert rc == 0
    assert "job 1: slots 2..4 on 2 nodes [0, 1]" in captured


def test_opt_solve_prints_split_placement(tmp_path, capsys):
    # one node, slots 1..2 on-peak, no green: the preemptive optimum skips
    # the peak, the contiguous one takes the earliest window
    path = tmp_path / "split.cfg"
    path.write_text(
        "machines = 1\nhorizon_slots = 4\nslot_minutes = 360\n"
        "onpeak_start_slot = 1\nonpeak_end_slot = 2\ngreen = zero\n"
    )
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(0, 0, 3, 2, 1)])
    args = ["opt", "solve", "--config", str(path), "--jobs", str(jf)]
    assert main(args + ["--variant", "preemptive"]) == 0
    out = capsys.readouterr().out
    assert "optimal net profit 0.1296\n" in out
    assert "job 0: slots 0,3 on 1 nodes [0]\n" in out
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "optimal net profit 0.0876\n" in out
    assert "job 0: slots 0..1 on 1 nodes\n" in out


def test_opt_solve_respects_step_budget(tmp_path, capsys):
    path = tmp_path / "budget.cfg"
    path.write_text("machines = 2\nhorizon_slots = 8\ngreen = zero\noffline_max_steps = 2\n")
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(i, 0, 7, 1, 1) for i in range(3)])
    args = ["opt", "solve", "--config", str(path), "--jobs", str(jf)]
    for variant in LP_VARIANTS:
        assert main(args + ["--variant", variant]) == 1
        err = capsys.readouterr().err
        assert "budget of 2 options priced" in err and "offline_max_steps" in err


def test_opt_solve_of_too_many_jobs_fails_with_the_job_count(tmp_path, capsys):
    # more jobs than Python's recursion limit: exit code 1 and a message
    # that names the job count, not a bare recursion error
    n = sys.getrecursionlimit() + 200
    path = tmp_path / "deep.cfg"
    path.write_text(f"machines = 1\nhorizon_slots = {n}\ngreen = zero\n")
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(i, i, i, 1, 1) for i in range(n)])
    args = ["opt", "solve", "--config", str(path), "--jobs", str(jf)]
    for variant in LP_VARIANTS:
        assert main(args + ["--variant", variant]) == 1
        err = capsys.readouterr().err
        assert f"search of {n} jobs" in err and "recursion limit" in err


def test_opt_solve_on_default_grid(tmp_path, capsys):
    # without --config the grid has 480 slots, which no size cap stops
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(0, 0, 5, 2, 1), (1, 1, 6, 3, 2)])
    assert main(["opt", "solve", "--jobs", str(jf)]) == 0
    assert "scheduled 2/2 jobs" in capsys.readouterr().out


def test_opt_emit_to_file_and_stdout(tmp_path, capsys, small):
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(0, 0, 3, 2, 1)])
    model = tmp_path / "model.lp"
    rc = main(["opt", "emit", "--jobs", str(jf), "--out", str(model)] + small)
    assert rc == 0
    text = model.read_text()
    assert text.startswith("\\") and "Maximize" in text and text.endswith("End\n")
    assert "s_0_0" in text  # nonpreemptive by default, as for opt solve
    rc = main(["opt", "emit", "--jobs", str(jf), "--variant", "preemptive"] + small)
    captured = capsys.readouterr().out
    assert rc == 0
    assert "w_0_0" in captured and captured.endswith("End\n")


@pytest.mark.parametrize("variant", ["nonpreemptive", "preemptive"])
def test_opt_emit_and_opt_solve_agree(tmp_path, capsys, variant):
    # mixed job shapes under a config that moves every price input
    path = tmp_path / "desk.cfg"
    path.write_text(
        "machines = 3\nhorizon_slots = 12\nslot_minutes = 120\n"
        "onpeak_start_slot = 4\nonpeak_end_slot = 9\nonpeak_price = 0.2\n"
        "node_power_watts = 300\ngreen = synthetic\n"
    )
    jf = tmp_path / "jobs.txt"
    rows = [(0, 0, 5, 2, 1), (1, 1, 8, 3, 2), (2, 3, 11, 1, 3), (3, 2, 9, 4, 1)]
    write_job_file(jf, rows + [(4, 6, 11, 2, 2), (5, 0, 11, 5, 3)])
    args = ["--config", str(path), "--jobs", str(jf), "--variant", variant]
    model = tmp_path / "model.lp"
    assert main(["opt", "emit", "--out", str(model)] + args) == 0
    assert main(["opt", "solve"] + args) == 0
    solved = capsys.readouterr().out.split("optimal net profit ", 1)[1].split()[0]
    lp_value, _ = solve_lp_text(model.read_text())
    assert f"{lp_value:.10g}" == solved


def test_adversary_table(capsys):
    rc = main(["adversary", "--trials", "50", "--machines", "4"])
    captured = capsys.readouterr().out
    assert rc == 0
    lines = captured.strip().splitlines()
    assert len(lines) == 9  # header plus eight constructions
    assert lines[0].split() == [
        "construction", "policy", "formula", "exact", "measured", "stderr"
    ]
    assert any(line.startswith("ff_green_next") for line in lines)
    assert any(line.startswith("rf_off_to_on_pair") for line in lines)


ADVERSARY_TABLE_4_MACHINES = """\
construction           policy    formula      exact   measured    stderr
ff_green_next          FF       5.789474   5.789474   5.789474         0
ff_offpeak_next        FF       2.842105   2.842105   2.842105         0
bf_on_to_off           BF       1.351852   1.351852   1.351852         0
bf_off_to_on           BF       1.490909   1.490909   1.490909         0
rf_on_to_off_single    RF       1.228052   1.228052   1.184211     0.055
rf_on_to_off_pair      RF       1.228052   1.228052   1.246585     0.025
rf_off_to_on_single    RF       1.249917   1.249917   1.224399     0.052
rf_off_to_on_pair      RF       1.249917   1.249917   1.266996     0.036
"""


def test_adversary_solves_each_optimum_once_before_printing(capsys, monkeypatch):
    # one exact solve per construction and every exact ratio taken before
    # the header; the table's bytes are pinned
    solves, events = [], []
    solve = adversary.solve_nonpreemptive_exact
    monkeypatch.setattr(
        adversary, "solve_nonpreemptive_exact", lambda *a: solves.append(a) or solve(*a)
    )
    exact = cli.expected_ratio
    monkeypatch.setattr(cli, "expected_ratio", lambda *a: events.append("exact") or exact(*a))
    monkeypatch.setattr(
        cli, "print", lambda *a: events.append("print") or print(*a), raising=False
    )
    assert main(["adversary", "--trials", "50", "--machines", "4"]) == 0
    assert len(solves) == 8
    assert events == ["exact"] * 8 + ["print"] * 9
    assert capsys.readouterr().out == ADVERSARY_TABLE_4_MACHINES


def test_adversary_rejects_fewer_than_one_trial(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adversary", "--trials", "0"])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, floor", [("--seed", "-1", 0), ("--machines", "0", 1)]
)
def test_adversary_rejects_bad_integers_before_any_row(flag, value, floor, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adversary", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"at least {floor}" in captured.err


def test_adversary_seeds_stay_below_2_64(capsys):
    # the Monte Carlo seeds run from --seed to --seed + --trials - 1
    rc = main(["adversary", "--seed", str(2**64 - 2), "--trials", "3", "--machines", "4"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "seeds must be below 2**64, got 18446744073709551616" in captured.err
    assert captured.out == ""  # checked before the header and the deterministic rows
    # the top seed itself is allowed
    rc = main(["adversary", "--seed", str(2**64 - 3), "--trials", "3", "--machines", "4"])
    assert rc == 0
    assert capsys.readouterr().out.count("\n") == 9


def test_gen_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "j.txt"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "UE", "--point", "0.5", "--seed", "-3", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 0" in captured.err
    assert not out.exists()


def test_run_sweep_end_to_end(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "machines = 4\nhorizon_slots = 48\ngreen = zero\nfamilies = UE\n"
        "utilization = 0.3\nfixed_p = 3\nfixed_q = 2\nalgorithms = FF,BF\n"
        "repetitions = 2\n"
    )
    plays = []
    play = experiment.run_online

    def counted(jobs, kind, *args, **kwargs):
        plays.append(kind.kind)
        return play(jobs, kind, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_online", counted)
    out = tmp_path / "results"
    rc = main(
        ["run", "--config", str(cfg), "--output-dir", str(out), "--preemption"]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    for name in ("runs.csv", "means.csv", "ratios.csv", "preemption.csv"):
        assert (out / name).exists(), name
    assert "profit" in captured
    assert captured.count("preemptive/base") == 2  # one line per base policy
    assert f"tables written to {out}/" in captured
    # 2 reps, each playing FF, BF, PFF and PBF once
    assert sorted(plays) == sorted(["FF", "BF", "PFF", "PBF"] * 2)
    plain = tmp_path / "plain"
    assert main(["run", "--config", str(cfg), "--output-dir", str(plain)]) == 0
    assert "preemptive/base" not in capsys.readouterr().out
    for name in ("runs.csv", "means.csv", "ratios.csv"):
        assert (out / name).read_bytes() == (plain / name).read_bytes(), name
    assert not (plain / "preemption.csv").exists()


def test_missing_config_is_a_clean_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, field",
    [("charge_rate = nan", "charge_rate"), ("node_power_watts = inf", "node_power_watts")],
)
def test_run_rejects_non_finite_money_and_power(tmp_path, capsys, line, field):
    # a nan or inf here would price every run and print a table of nan profits
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "machines = 4\nhorizon_slots = 48\ngreen = zero\nutilization = 0.3\n"
        f"fixed_p = 3\nfixed_q = 2\nrepetitions = 1\n{line}\n"
    )
    out = tmp_path / "results"
    rc = main(["run", "--config", str(cfg), "--output-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} must be finite" in captured.err
    assert not out.exists()


def test_bad_job_file_is_a_clean_error(tmp_path, capsys, small):
    jf = tmp_path / "jobs.txt"
    jf.write_text("0 0 5 2\n")  # four fields, not five
    rc = main(["opt", "solve", "--jobs", str(jf)] + small)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_readme_command_lines_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("greensched ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
