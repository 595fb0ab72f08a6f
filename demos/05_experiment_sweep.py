#!/usr/bin/env python3
"""A small end-to-end sweep: families x load points x policies, to CSV.

Workload seeds are paired, so at a given (family, point, repetition) every
policy faces the same job list; profit differences are pure policy. The
same config run twice writes byte-identical tables.
"""

from greensched.experiment import ExperimentConfig, run_suite
from greensched.model import SimConfig

cfg = ExperimentConfig(
    sim=SimConfig(machines=8, horizon_slots=96, forecast_slots=96),
    green="synthetic",
    families=("UE", "UU"),
    utilization=(0.2, 0.7, 1.2),
    fixed_p=4,
    fixed_q=2,
    algorithms=("FF", "BF", "RF"),
    repetitions=10,
    master_seed=123,
    output_dir="sweep_out",
)

# one pass plays FF, BF, RF and their preemptive variants on each cell
tables = run_suite(cfg, preemption=True)
print(f"{'family':>7} {'load':>5} {'alg':>4} {'net profit':>11} {'sched':>7}")
for row in tables["means"]:
    print(
        f"{row['family']:>7} {row['point']:>5} {row['algorithm']:>4} "
        f"{row['net_profit']:>11.4f} "
        f"{row['jobs_scheduled']:>4.1f}/{row['jobs_offered']:.0f}"
    )

print("\nbest-policy ratio per point (1.0 marks the winner):")
for row in tables["ratios"]:
    print(f"{row['family']:>7} {row['point']:>5} {row['algorithm']:>4} "
          f"{row['ratio']:.4f}")

# preemptive variants on the same paired seeds
print("\npreemptive over base profit:")
for row in tables["preemption"]:
    print(f"{row['family']:>7} {row['point']:>5} {row['algorithm']:>4} "
          f"{row['ratio']:.4f}")

print("\ntables in sweep_out/: runs.csv means.csv ratios.csv preemption.csv")
