"""Command line front end.

Four subcommands: ``run`` executes a sweep config, ``gen`` emits a workload
file, ``opt`` solves or exports an exact model, ``adversary`` prints the
worst-case construction table. All of them are thin wrappers over the
library; anything scriptable here is scriptable in Python.
"""

from __future__ import annotations

import argparse
import sys

from .adversary import measure_ratio, standard_suite
from .experiment import (
    load_config,
    parse_limits,
    preemption_comparison,
    resolve_green,
    run_suite,
)
from .model import SimConfig
from .offline import (
    NONPREEMPTIVE_LIMITS,
    PREEMPTIVE_LIMITS,
    emit_lp,
    node_assignment,
    solve_nonpreemptive_exact,
    solve_preemptive_exact,
)
from .pricing import Tariff, account
from .workload import WorkloadSpec, generate, read_jobs, write_jobs


def _sim_from(args: argparse.Namespace) -> SimConfig:
    return SimConfig(
        machines=args.machines,
        horizon_slots=args.horizon,
        slot_minutes=args.slot_minutes,
    )


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machines", type=int, default=16)
    parser.add_argument("--horizon", type=int, default=480, help="slots")
    parser.add_argument("--slot-minutes", type=int, default=15)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    result = run_suite(cfg)
    for row in result["means"]:
        print(
            f"{row['family']:>9} {row['point']!s:>6} {row['algorithm']:>4} "
            f"profit {row['net_profit']:12.4f} "
            f"sched {row['jobs_scheduled']:7.2f}/{row['jobs_offered']:.0f}"
        )
    if args.preemption:
        for row in preemption_comparison(cfg):
            print(
                f"{row['family']:>9} {row['point']!s:>6} {row['algorithm']:>4} "
                f"preemptive/base {row['ratio']:.6f}"
            )
    if cfg.output_dir:
        print(f"tables written to {cfg.output_dir}/")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    sim = _sim_from(args)
    spec = WorkloadSpec(
        family=args.family,
        target_utilization=args.utilization,
        fixed_p=args.fixed_p,
        fixed_q=args.fixed_q,
        job_count=args.count,
        swf_path=args.swf,
        day_fraction=args.day_fraction,
        span_days=args.span_days,
        deadline_factor=args.deadline_factor,
        rng_seed=args.seed,
    )
    jobs = generate(spec, sim)
    write_jobs(jobs, args.out)
    print(f"{len(jobs)} jobs -> {args.out}")
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    sim = _sim_from(args)
    jobs = read_jobs(args.jobs, sim)
    green = resolve_green(args.green, sim)
    tariff = Tariff()
    if args.action == "emit":
        variant = args.variant.replace("-", "_")
        text = emit_lp(jobs, green, tariff, sim, variant=variant)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
            print(f"model -> {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    preemptive = args.variant == "preemptive"
    defaults = PREEMPTIVE_LIMITS if preemptive else NONPREEMPTIVE_LIMITS
    limits = parse_limits(args.limits, defaults) if args.limits else defaults
    if preemptive:
        profit, schedule = solve_preemptive_exact(jobs, green, tariff, sim, limits)
    else:
        profit, schedule = solve_nonpreemptive_exact(jobs, green, tariff, sim, limits)
    report = account(schedule, green, tariff, sim)
    print(f"optimal net profit {profit:.10g}")
    print(
        f"scheduled {len(schedule.placements)}/{len(jobs)} jobs, "
        f"revenue {report.revenue:.10g}, brown cost {report.brown_cost:.10g}"
    )
    nodes = node_assignment(schedule) if preemptive else None
    for pl in sorted(schedule.placements, key=lambda p: p.job_id):
        span = f"slots {pl.active_slots[0]}..{pl.active_slots[-1]}"
        if len(pl.active_slots) != pl.active_slots[-1] - pl.active_slots[0] + 1:
            span = "slots " + ",".join(str(s) for s in pl.active_slots)
        line = f"  job {pl.job_id}: {span} on {pl.nodes} nodes"
        if nodes is not None:
            line += f" {list(nodes[pl.job_id])}"
        print(line)
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    print(f"{'construction':<22} {'policy':<6} {'formula':>10} {'measured':>10} {'stderr':>9}")
    for inst in standard_suite(machines=args.machines):
        trials = args.trials if inst.target.randomized else 1
        m = measure_ratio(inst, trials=trials, base_seed=args.seed)
        print(
            f"{inst.name:<22} {inst.target.kind:<6} {inst.formula_ratio:>10.6f} "
            f"{m.ratio:>10.6f} {m.stderr:>9.2g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greensched",
        description="Profit scheduling for green data centers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep config, write CSV tables")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None, help="override the config's output_dir")
    p_run.add_argument(
        "--preemption", action="store_true", help="also compare preemptive variants"
    )
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate a workload file")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--utilization", type=float, default=None)
    p_gen.add_argument("--count", type=int, default=None, help="jobs to draw (Real)")
    p_gen.add_argument("--swf", default=None, help="trace file (Real)")
    p_gen.add_argument("--fixed-p", type=int, default=5)
    p_gen.add_argument("--fixed-q", type=int, default=3)
    p_gen.add_argument("--day-fraction", type=float, default=0.75)
    p_gen.add_argument("--span-days", type=int, default=2)
    p_gen.add_argument("--deadline-factor", type=int, default=4)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    _add_sim_args(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_opt = sub.add_parser("opt", help="exact solver / model export")
    opt_sub = p_opt.add_subparsers(dest="action", required=True)
    p_solve = opt_sub.add_parser("solve", help="branch and bound to optimality")
    p_solve.add_argument("--jobs", required=True, help="job file from gen")
    p_solve.add_argument(
        "--variant", choices=["nonpreemptive", "preemptive"], default="nonpreemptive"
    )
    p_solve.add_argument("--green", default="zero", help="zero | synthetic | solar:<csv>")
    p_solve.add_argument("--limits", default=None, help="jobs=..,slots=..,machines=..")
    _add_sim_args(p_solve)
    p_solve.set_defaults(func=_cmd_opt)
    p_emit = opt_sub.add_parser("emit", help="write the integer program as LP text")
    p_emit.add_argument("--jobs", required=True)
    p_emit.add_argument(
        "--variant", choices=["preemptive", "equal-jobs"], default="preemptive"
    )
    p_emit.add_argument("--green", default="zero")
    p_emit.add_argument("--out", default=None, help="default stdout")
    _add_sim_args(p_emit)
    p_emit.set_defaults(func=_cmd_opt)

    p_adv = sub.add_parser("adversary", help="worst-case constructions and measured ratios")
    p_adv.add_argument("--trials", type=int, default=20000)
    p_adv.add_argument("--seed", type=int, default=0)
    p_adv.add_argument("--machines", type=int, default=16)
    p_adv.set_defaults(func=_cmd_adversary)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
