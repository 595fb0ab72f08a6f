"""Compare two result sets of the benchmark, workload by workload.

    python3 benchmarks/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds result records as run.py appends them to
benchmarks/out/results.jsonl; traced records are ignored. For every
workload and end-to-end metric in BENCHMARK.json this prints each side's
median and quartiles, the share of seed-matched pairs the change wins, and
a verdict:

  improved    the change wins at least 9 in 10 pairs and its median is
              better by more than the parent's own quartile spread
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound
  worse       it is worse by more than the bound
  unresolved  the parent's spread is wider than the bound, and not every
              change run beats every parent run
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                by_workload[rec["workload"]].append(rec)
    return by_workload


def pairs(parent: list[dict], change: list[dict], name: str) -> list[tuple[float, float]]:
    """Parent and change values of the same seed, in the order they ran."""
    by_seed: dict[int, list[float]] = defaultdict(list)
    for rec in parent:
        by_seed[rec["seed"]].append(rec["metrics"][name][0])
    out = []
    for rec in change:
        if by_seed.get(rec["seed"]):
            out.append((by_seed[rec["seed"]].pop(0), rec["metrics"][name][0]))
    return out


def verdict(p: list[float], c: list[float], matched, higher: bool, bound: float) -> tuple[str, float]:
    sign = 1.0 if higher else -1.0
    wins = sum(1 for a, b in matched if sign * (b - a) > 0)
    share = wins / len(matched) if matched else 0.0
    p1, pmed, p3 = quartiles(p)
    cmed = statistics.median(c)
    if share >= WIN_SHARE and sign * (cmed - pmed) > p3 - p1:
        return "improved", share
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    if (p3 - p1) / abs(pmed) > bound and not all_better:
        return "unresolved", share
    worse_by = sign * (pmed - cmed) / abs(pmed)
    return ("no worse" if worse_by <= bound else "worse"), share


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<12} {'metric':<12} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'won':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name][0] for r in parent[workload]]
            c = [r["metrics"][name][0] for r in change[workload]]
            matched = pairs(parent[workload], change[workload], name)
            word, share = verdict(p, c, matched, metric["better"] == "higher", metric["bound"])
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(
                f"{workload:<12} {name:<12} {fmt(quartiles(p)):>32} {fmt(quartiles(c)):>32} "
                f"{share:>5.0%}  {word} (n={len(p)}/{len(c)}, pairs={len(matched)})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
