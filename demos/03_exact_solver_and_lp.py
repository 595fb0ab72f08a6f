#!/usr/bin/env python3
# Exact offline solving at desk scale, with and without preemption, and
# the same model exported as LP text for an external solver.
import numpy as np

from greensched.model import Job, SimConfig
from greensched.offline import (
    emit_lp,
    node_assignment,
    solve_nonpreemptive_exact,
    solve_preemptive_exact,
)
from greensched.pricing import GreenTrace, Tariff

sim = SimConfig(machines=2, horizon_slots=8, forecast_slots=8)
tariff = Tariff(peak_override=(False, False, True, True, True, False, False, False))
green = GreenTrace(np.array([1, 0, 0, 0, 0, 2, 2, 0]))

jobs = [
    Job(id=0, release=0, deadline=6, proc_time=3, nodes=1),
    Job(id=1, release=1, deadline=7, proc_time=2, nodes=2),
    Job(id=2, release=2, deadline=7, proc_time=2, nodes=1),
]

profit, sched = solve_nonpreemptive_exact(jobs, green, tariff, sim)
print(f"contiguous optimum: net {profit:.6f}")
for pl in sched.placements:
    print(f"  job {pl.job_id}: slots {pl.active_slots} on {pl.nodes} nodes")

# allowing a job to pause lets it dodge the on-peak block in the middle
profit_p, sched_p = solve_preemptive_exact(jobs, green, tariff, sim)
print(f"preemptive optimum: net {profit_p:.6f}")
nodes = node_assignment(sched_p)
for pl in sched_p.placements:
    where = f" on nodes {list(nodes[pl.job_id])}" if nodes else ""
    print(f"  job {pl.job_id}: slots {pl.active_slots}{where}")
print(f"preemption gain: {profit_p - profit:.6f}")

# the identical decision problem as a solver-neutral integer program: its
# optimum equals the preemptive solver's above
text = emit_lp(jobs, green, tariff, sim, variant="preemptive")
head = text.splitlines()[:12]
print()
print("LP export, first lines:")
for line in head:
    print(f"  {line}")
print(f"  ... ({len(text.splitlines())} lines total)")
