import shlex
from pathlib import Path

import pytest

from greensched.cli import build_parser, main
from greensched.experiment import cell_spec, load_config, resolve_green
from greensched.model import SimConfig
from greensched.offline import solve_nonpreemptive_exact
from greensched.pricing import Tariff
from greensched.workload import generate, read_jobs

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
    expected = generate(cell_spec(cfg, family, point, 5), cfg.sim, cfg.tariff)
    assert read_jobs(out, cfg.sim) == expected
    if family == "Staggered":  # the config's tariff decides the release slots
        assert generate(cell_spec(cfg, family, point, 5), cfg.sim, Tariff()) != expected


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
        "onpeak_price = 0.3\nnode_power_watts = 200\ngreen = synthetic\n"
    )
    cfg = load_config(path)
    rows = [(0, 8, 20, 4, 2), (1, 14, 30, 3, 3), (2, 30, 47, 5, 1), (3, 0, 47, 2, 3)]
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, rows)
    jobs = read_jobs(jf, cfg.sim)
    green = resolve_green(cfg.green, cfg.sim)
    profit, _ = solve_nonpreemptive_exact(jobs, green, cfg.tariff, cfg.sim)
    stock, _ = solve_nonpreemptive_exact(jobs, green, Tariff(), SimConfig(3, 48, 30))
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


def test_opt_solve_respects_limit_flag(tmp_path, capsys, small):
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(i, 0, 7, 1, 1) for i in range(3)])
    rc = main(["opt", "solve", "--jobs", str(jf), "--limits", "jobs=2"] + small)
    assert rc == 1
    assert "2 jobs" in capsys.readouterr().err


def test_opt_solve_on_default_grid_names_the_fix(tmp_path, capsys):
    # without --config the grid has 480 slots, past the exact search's cap
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(0, 0, 5, 2, 1), (1, 1, 6, 3, 2)])
    rc = main(["opt", "solve", "--jobs", str(jf)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "limited to 48 slots, got 480" in err
    assert "horizon_slots" in err and "--config" in err and "--limits" in err


def test_opt_emit_to_file_and_stdout(tmp_path, capsys, small):
    jf = tmp_path / "jobs.txt"
    write_job_file(jf, [(0, 0, 3, 2, 1)])
    model = tmp_path / "model.lp"
    rc = main(["opt", "emit", "--jobs", str(jf), "--out", str(model)] + small)
    assert rc == 0
    text = model.read_text()
    assert text.startswith("\\") and "Maximize" in text and text.endswith("End\n")
    rc = main(["opt", "emit", "--jobs", str(jf), "--variant", "equal-jobs"] + small)
    captured = capsys.readouterr().out
    assert rc == 0
    assert "s_0_0" in captured and captured.endswith("End\n")


def test_adversary_table(capsys):
    rc = main(["adversary", "--trials", "50", "--machines", "4"])
    captured = capsys.readouterr().out
    assert rc == 0
    lines = captured.strip().splitlines()
    assert len(lines) == 9  # header plus eight constructions
    assert lines[0].split()[:2] == ["construction", "policy"]
    assert any(line.startswith("ff_green_next") for line in lines)
    assert any(line.startswith("rf_off_to_on_pair") for line in lines)


def test_run_sweep_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "machines = 4\nhorizon_slots = 48\ngreen = zero\nfamilies = UE\n"
        "utilization = 0.3\nfixed_p = 3\nfixed_q = 2\nalgorithms = FF,BF\n"
        "repetitions = 2\n"
    )
    out = tmp_path / "results"
    rc = main(
        ["run", "--config", str(cfg), "--output-dir", str(out), "--preemption"]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    for name in ("runs.csv", "means.csv", "ratios.csv", "preemption.csv"):
        assert (out / name).exists(), name
    assert "profit" in captured
    assert "preemptive/base" in captured
    assert f"tables written to {out}/" in captured


def test_missing_config_is_a_clean_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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
