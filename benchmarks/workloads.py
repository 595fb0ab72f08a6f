"""The benchmark's three workloads: inputs, the operations of one pass, checks.

Each workload builds its inputs from the seed in ``__init__`` (set-up),
offers ``warm_up`` to let lazy work finish before timing, and lists the
operations of one pass in ``ops``. A pass runs the same inputs every time,
so passes are replicates and their timings can be summarised by a median.

All calls into greensched go through module attributes (``experiment.run_suite``
rather than a name imported here), so the tracer in ``spans.py`` sees them.
Why each workload exists is written down in RATIONALE.md.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from functools import partial
from pathlib import Path

from greensched import adversary, experiment, model, offline, pricing, schedulers, workload

# One sweep pass runs run_suite + preemption_comparison at this many
# repetitions; one Monte Carlo pass runs this many trials per instance.
SWEEP_REPETITIONS = 2
MC_TRIALS = 2000
# reference.json holds the sweep digests and Monte Carlo ratios of seeds
# 0..REFERENCE_SEEDS-1.
REFERENCE_SEEDS = 128
# measure_ratio's estimate must sit within this many standard errors of the
# closed form for any seed.
MC_STDERR_TOLERANCE = 4.0
# Online profits may exceed an optimum only by float summation noise.
PROFIT_SLACK = 1e-9
SWEEP_TABLES = ("runs.csv", "means.csv", "ratios.csv", "preemption.csv")


def tables_digest(directory: Path) -> str:
    """SHA-256 over the four sweep tables, in a fixed order, names included."""
    h = hashlib.sha256()
    for name in SWEEP_TABLES:
        h.update(name.encode() + b"\0")
        h.update((directory / name).read_bytes())
    return h.hexdigest()


class SweepHeavy:
    """``greensched run --preemption`` on UU at 120% load, all six policies."""

    name = "sweep_heavy"
    metric = "sweep_jobs_per_s"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.out = scratch / "sweep_tables"
        self.cfg = experiment.ExperimentConfig(
            green="synthetic",
            families=("UU",),
            utilization=(1.2,),
            algorithms=schedulers.KINDS,
            repetitions=SWEEP_REPETITIONS,
            output_dir=str(self.out),
            master_seed=seed,
        )

    def warm_up(self) -> None:
        experiment.run_suite(replace(self.cfg, algorithms=("FF",), repetitions=1, output_dir=None))

    def ops(self):
        return [("sweep", self._sweep)]

    def _sweep(self):
        tables = experiment.run_suite(self.cfg)
        preemption = experiment.preemption_comparison(self.cfg)
        return tables, preemption

    def work(self, output) -> int:
        """Jobs offered times policies: one decision per job per policy run."""
        return sum(row["jobs_offered"] for row in output[0]["runs"])

    def summary(self, output) -> dict:
        return {"sha256": tables_digest(self.out)}

    def check(self, label, output, ref: dict) -> list[str]:
        tables, preemption = output
        problems = []
        if ref["repetitions"] != SWEEP_REPETITIONS:
            problems.append(
                f"reference recorded at {ref['repetitions']} repetitions, "
                f"benchmark runs {SWEEP_REPETITIONS}"
            )
        digest = tables_digest(self.out)
        want = ref["sha256"].get(str(self.seed))
        if want is not None and digest != want:
            problems.append(f"tables sha256 {digest} != recorded {want}")
        for row in tables["runs"]:
            if not 0 <= row["jobs_scheduled"] <= row["jobs_offered"]:
                problems.append(f"runs row {row['algorithm']} rep {row['rep']}: bad counts")
        # preemption_comparison reruns the same seeded cells, so its means must
        # equal run_suite's to the last bit
        mean_profit = {row["algorithm"]: row["net_profit"] for row in tables["means"]}
        for row in preemption:
            base, pre = row["algorithm"], "P" + row["algorithm"]
            if row["base_net_profit"] != mean_profit[base]:
                problems.append(f"{base}: preemption base mean differs from means.csv")
            if row["preemptive_net_profit"] != mean_profit[pre]:
                problems.append(f"{pre}: preemption mean differs from means.csv")
        return problems

    def wrong_reference(self, ref: dict) -> dict:
        return {**ref, "sha256": {**ref["sha256"], str(self.seed): "0" * 64}}


class RfMonteCarlo:
    """measure_ratio on the four RF dilemmas under the stock tariff."""

    name = "rf_mc"
    metric = "mc_trials_per_s"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        # measure_ratio seeds trial i with base_seed + i; spacing the seeds by
        # MC_TRIALS keeps the trials of different benchmark seeds disjoint
        self.base_seed = seed * MC_TRIALS
        nv = pricing.normalized_values(pricing.Tariff(), model.SimConfig())
        self.instances = adversary.rf_worst_case_suite(nv)

    def warm_up(self) -> None:
        for inst in self.instances:
            adversary.measure_ratio(inst, trials=10, base_seed=self.base_seed)

    def ops(self):
        return [
            (inst.name, partial(self._measure, inst)) for inst in self.instances
        ]

    def _measure(self, inst):
        return adversary.measure_ratio(inst, trials=MC_TRIALS, base_seed=self.base_seed)

    def work(self, output) -> int:
        return output.trials

    def summary(self, output) -> dict:
        return {"ratio": output.ratio}

    def check(self, label, output, ref: dict) -> list[str]:
        inst = next(i for i in self.instances if i.name == label)
        problems = []
        if ref["trials"] != MC_TRIALS:
            problems.append(f"reference recorded at {ref['trials']} trials, benchmark runs {MC_TRIALS}")
        want = ref["ratio"].get(str(self.seed), {}).get(label)
        if want is not None and output.ratio != want:
            problems.append(f"{label}: ratio {output.ratio!r} != recorded {want!r}")
        if output.trials != MC_TRIALS:
            problems.append(f"{label}: {output.trials} trials, asked {MC_TRIALS}")
        gap = abs(output.ratio - inst.formula_ratio)
        if not gap <= MC_STDERR_TOLERANCE * output.stderr:
            problems.append(
                f"{label}: ratio {output.ratio:.5f} is {gap:.5f} from formula "
                f"{inst.formula_ratio:.5f}, over {MC_STDERR_TOLERANCE} stderr ({output.stderr:.5f})"
            )
        opt_units = output.opt_profit / inst.unit_value
        if not math.isclose(opt_units, inst.expected_opt, rel_tol=1e-9):
            problems.append(f"{label}: optimum {opt_units} units != constructed {inst.expected_opt}")
        return problems

    def wrong_reference(self, ref: dict) -> dict:
        ratios = {inst.name: inst.formula_ratio + 1.0 for inst in self.instances}
        return {**ref, "ratio": {**ref["ratio"], str(self.seed): ratios}}


def _ue_jobs(sim, p, seed):
    spec = workload.WorkloadSpec(
        family="UE", target_utilization=0.4, fixed_p=p, fixed_q=2, rng_seed=seed
    )
    return workload.generate(spec, sim, pricing.Tariff())


def exact_instances() -> list[tuple[str, bool, list, object, object, object]]:
    """The pinned exact solves: (label, preemptive, jobs, green, tariff, sim).

    Pinned rather than drawn from the seed because solve time is heavy-tailed
    per instance (RATIONALE.md gives the measurements).
    """
    tariff = pricing.Tariff()
    acc6 = model.SimConfig(machines=4, horizon_slots=42, forecast_slots=42)
    ident = model.SimConfig(machines=2, horizon_slots=4, forecast_slots=4)
    pre = model.SimConfig(machines=4, horizon_slots=24, forecast_slots=24)
    out = []
    for r in (1, 2, 3):
        jobs = _ue_jobs(acc6, 4, experiment.stable_seed(6, r))
        out.append((f"acc6-r{r}", False, jobs, pricing.synthetic_solar(acc6), tariff, acc6))
    same = [model.Job(id=i, release=0, deadline=3, proc_time=1, nodes=1) for i in range(11)]
    out.append(("ident11", False, same, pricing.GreenTrace.zeros(ident), tariff, ident))
    for r in (2, 9):
        jobs = _ue_jobs(pre, 3, experiment.stable_seed("bench-exact-p", r))
        out.append((f"pre-r{r}", True, jobs, pricing.synthetic_solar(pre), tariff, pre))
    return out


class ExactDesk:
    """One pass solves the pinned list exactly once; the seed is not used."""

    name = "exact_desk"
    metric = "exact_pass_s"

    def __init__(self, seed: int, scratch: Path):
        self.instances = {inst[0]: inst for inst in exact_instances()}
        self._floors: dict[str, float] = {}

    def warm_up(self) -> None:
        _, _, jobs, green, tariff, sim = self.instances["ident11"]
        offline.solve_nonpreemptive_exact(jobs[:3], green, tariff, sim)
        offline.solve_preemptive_exact(jobs[:3], green, tariff, sim)

    def ops(self):
        return [(label, partial(self._solve, label)) for label in self.instances]

    def _solve(self, label):
        _, preemptive, jobs, green, tariff, sim = self.instances[label]
        solver = offline.solve_preemptive_exact if preemptive else offline.solve_nonpreemptive_exact
        return solver(jobs, green, tariff, sim)

    def work(self, output) -> int:
        return 1

    def summary(self, output) -> dict:
        value, schedule = output
        return {
            "value": value,
            "placements": [[p.job_id, list(p.active_slots)] for p in schedule.placements],
        }

    def online_floor(self, label: str) -> float:
        """Best full-foresight FF/BF profit (and PFF/PBF when preemptive)."""
        if label not in self._floors:
            _, preemptive, jobs, green, tariff, sim = self.instances[label]
            seen = replace(sim, forecast_slots=sim.horizon_slots)
            kinds = ("FF", "BF", "PFF", "PBF") if preemptive else ("FF", "BF")
            self._floors[label] = max(
                schedulers.run_online(jobs, schedulers.SchedulerKind(k), green, tariff, seen)[1].net_profit
                for k in kinds
            )
        return self._floors[label]

    def check(self, label, output, ref: dict) -> list[str]:
        got = self.summary(output)
        want = ref[label]
        problems = []
        if got["value"] != want["value"]:
            problems.append(f"{label}: optimum {got['value']!r} != recorded {want['value']!r}")
        if got["placements"] != want["placements"]:
            problems.append(f"{label}: placements differ from the recorded schedule")
        floor = self.online_floor(label)
        if got["value"] < floor - PROFIT_SLACK:
            problems.append(f"{label}: optimum {got['value']} below online profit {floor}")
        return problems

    def wrong_reference(self, ref: dict) -> dict:
        return {label: {**want, "value": want["value"] + 1.0} for label, want in ref.items()}


WORKLOADS = {w.name: w for w in (SweepHeavy, RfMonteCarlo, ExactDesk)}
