"""Command line front end.

Four subcommands: ``run`` executes a sweep config, ``gen`` emits a workload
file, ``opt`` solves or exports an exact model, ``adversary`` prints the
worst-case construction table. All of them are thin wrappers over the
library; anything scriptable here is scriptable in Python. ``run``, ``gen``
and ``opt`` take their settings from one config file (see ``load_config``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from dataclasses import replace

from .adversary import expected_ratio, measure_ratio, standard_suite
from .experiment import (
    ExperimentConfig,
    cell_jobs,
    load_config,
    resolve_green,
    run_suite,
)
from .offline import (
    LP_VARIANTS,
    emit_lp,
    node_assignment,
    solve_nonpreemptive_exact,
    solve_preemptive_exact,
)
from .pricing import account
from .workload import ingest_swf, read_jobs, write_jobs


_CONFIG_HELP = "sweep config file; without it every setting takes its default"


def _config(path: str | None) -> ExperimentConfig:
    """The settings in the config file at ``path``, or all defaults."""
    return load_config(path) if path else ExperimentConfig()


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config(args.config)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    result = run_suite(cfg, preemption=args.preemption)
    for row in result["means"]:
        print(
            f"{row['family']:>9} {row['point']!s:>6} {row['algorithm']:>4} "
            f"profit {row['net_profit']:12.4f} "
            f"sched {row['jobs_scheduled']:7.2f}/{row['jobs_offered']:.0f}"
        )
    if args.preemption:
        for row in result["preemption"]:
            print(
                f"{row['family']:>9} {row['point']!s:>6} {row['algorithm']:>4} "
                f"preemptive/base {row['ratio']:.6f}"
            )
    if cfg.output_dir:
        print(f"tables written to {cfg.output_dir}/")
    return 0


def _point(family: str, text: str) -> int | float:
    """``--point`` as a sweep reads it: a job count for Real, else a utilization."""
    kind, parse = ("a job count", int) if family == "Real" else ("a utilization", float)
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"--point for {family} must be {kind}, got {text!r}") from None


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = _config(args.config)
    point = _point(args.family, args.point)
    trace = []
    if args.family == "Real":  # checked and read as a one-point Real sweep's
        cfg = replace(cfg, families=("Real",), job_counts=(point,))
        trace = ingest_swf(cfg.swf_path, cfg.sim, cfg.deadline_factor)
    jobs = cell_jobs(cfg, args.family, point, args.seed, trace)
    write_jobs(jobs, args.out)
    print(f"{len(jobs)} jobs -> {args.out}")
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    cfg = _config(args.config)
    sim, tariff = cfg.sim, cfg.tariff
    jobs = read_jobs(args.jobs, sim)
    green = resolve_green(cfg.green, sim)
    if args.action == "emit":
        text = emit_lp(jobs, green, tariff, sim, variant=args.variant)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
            print(f"model -> {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    preemptive = args.variant == "preemptive"
    solve = solve_preemptive_exact if preemptive else solve_nonpreemptive_exact
    profit, schedule = solve(jobs, green, tariff, sim, cfg.offline_max_steps)
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
    # every row is measured before the header, so a bad seed prints nothing
    rows = []
    for inst in standard_suite(machines=args.machines):
        trials = args.trials if inst.target.randomized else 1
        m = measure_ratio(inst, trials=trials, base_seed=args.seed)
        rows.append((inst, expected_ratio(inst), m))
    print(
        f"{'construction':<22} {'policy':<6} {'formula':>10} {'exact':>10} "
        f"{'measured':>10} {'stderr':>9}"
    )
    for inst, exact, m in rows:
        print(
            f"{inst.name:<22} {inst.target.kind:<6} {inst.formula_ratio:>10.6f} "
            f"{exact:>10.6f} {m.ratio:>10.6f} {m.stderr:>9.2g}"
        )
    return 0


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


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
    p_gen.add_argument("--config", default=None, help=_CONFIG_HELP)
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument(
        "--point", required=True, help="target utilization, or job count for Real"
    )
    p_gen.add_argument("--seed", type=_int_at_least(0), default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_opt = sub.add_parser("opt", help="exact solver / model export")
    opt_sub = p_opt.add_subparsers(dest="action", required=True)
    p_solve = opt_sub.add_parser("solve", help="branch and bound to optimality")
    p_emit = opt_sub.add_parser("emit", help="write the same problem as LP text")
    for p_action in (p_solve, p_emit):
        p_action.add_argument("--config", default=None, help=_CONFIG_HELP)
        p_action.add_argument("--jobs", required=True, help="job file from gen")
        p_action.add_argument("--variant", choices=LP_VARIANTS, default="nonpreemptive")
        p_action.set_defaults(func=_cmd_opt)
    p_emit.add_argument("--out", default=None, help="default stdout")

    p_adv = sub.add_parser("adversary", help="worst-case constructions and measured ratios")
    p_adv.add_argument("--trials", type=_int_at_least(1), default=20000)
    p_adv.add_argument("--seed", type=_int_at_least(0), default=0)
    p_adv.add_argument("--machines", type=_int_at_least(1), default=16)
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
