"""The demo scripts still run against the package's public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import greensched

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(greensched.__file__).resolve().parents[1]

SMOKE = [
    "01_online_policies.py",
    "02_worst_case_instances.py",
    "03_exact_solver_and_lp.py",
    "04_workload_families.py",
    "05_experiment_sweep.py",
]


@pytest.mark.parametrize("name", SMOKE)
def test_demo_runs(name, tmp_path):
    # the sweep demo writes sweep_out/ into its working directory
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
