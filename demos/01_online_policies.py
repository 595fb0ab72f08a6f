#!/usr/bin/env python3
# Run the three online placement policies on one small day and compare
# what they pay for electricity.
import numpy as np

from greensched.model import Job, SimConfig
from greensched.pricing import Tariff, normalized_values, random_fit_params, synthetic_solar
from greensched.schedulers import SchedulerKind, decision_log, run_online

# a 4-node cluster over one day of 15-minute slots
sim = SimConfig(machines=4, horizon_slots=96, forecast_slots=96)
tariff = Tariff()
green = synthetic_solar(sim)
print(f"green supply peaks at {green.supply.max()} nodes around midday")

# a morning batch with afternoon deadlines, so policies can wait for sun
rng = np.random.default_rng(3)
jobs = []
for i in range(10):
    p = int(rng.integers(2, 7))
    r = int(rng.integers(0, 40))
    jobs.append(Job(id=i, release=r, deadline=min(r + p + 30, 95), proc_time=p,
                    nodes=int(rng.integers(1, 3))))

nv = normalized_values(tariff, sim)
kinds = [
    SchedulerKind("FF"),
    SchedulerKind("BF"),
    SchedulerKind("RF", rf_params=random_fit_params(nv)),
]

for kind in kinds:
    sched, report = run_online(jobs, kind, green, tariff, sim, seed=0)
    log = decision_log(jobs, sched, green, tariff, sim)
    admitted = sum(1 for e in log if e.decision == "admit")
    print(
        f"{kind.kind}: {admitted}/{len(jobs)} jobs, "
        f"revenue {report.revenue:.4f}, brown cost {report.brown_cost:.4f}, "
        f"net {report.net_profit:.4f}, "
        f"green/brown node-slots {report.green_total}/{report.brown_total}"
    )

# the cost chaser parks work under the solar curve; show its busiest slots
sched, _ = run_online(jobs, kinds[1], green, tariff, sim, seed=0)
busy = np.flatnonzero(sched.demand == sched.demand.max())
print(f"BF load peaks in slots {busy.tolist()} (supply there: "
      f"{green.supply[busy].tolist()})")
