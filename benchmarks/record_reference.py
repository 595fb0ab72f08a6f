"""Record the outputs the benchmark checks against, into reference.json.

    python3 benchmarks/record_reference.py

Records, for seeds 0..REFERENCE_SEEDS-1 (see workloads.py), the SHA-256 of
the sweep tables and the four RF Monte Carlo ratios, plus the value and
placements of every pinned exact solve. Every output first goes through its
workload's checks with the recorded-value comparison switched off; if any
check fails, nothing is written and the exit code is 1. Run it only on the
commit whose outputs are the reference; a change that claims a speed-up must
reproduce these outputs, not re-record them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def first_pass(w, blank: dict | None) -> tuple[dict, list[str]]:
    """Summaries of one pass, and the problems its checks report.

    ``blank`` is a reference with no recorded values for this seed; None
    means each output is compared with its own summary (exact_desk).
    """
    summaries, problems = {}, []
    for label, fn in w.ops():
        out = fn()
        summaries[label] = w.summary(out)
        ref = blank if blank is not None else {label: summaries[label]}
        problems += w.check(label, out, ref)
    return summaries, problems


def main() -> int:
    (BENCH / "out").mkdir(exist_ok=True)
    sweep = {"repetitions": workloads.SWEEP_REPETITIONS, "sha256": {}}
    mc = {"trials": workloads.MC_TRIALS, "ratio": {}}
    problems = []
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        for seed in range(workloads.REFERENCE_SEEDS):
            got, bad = first_pass(workloads.SweepHeavy(seed, Path(tmp)), sweep)
            sweep["sha256"][str(seed)] = got["sweep"]["sha256"]
            problems += [f"seed {seed}: {p}" for p in bad]
            got, bad = first_pass(workloads.RfMonteCarlo(seed, Path(tmp)), mc)
            mc["ratio"][str(seed)] = {label: s["ratio"] for label, s in got.items()}
            problems += [f"seed {seed}: {p}" for p in bad]
            print(f"seed {seed} recorded, {len(problems)} problems so far", file=sys.stderr)
        exact, bad = first_pass(workloads.ExactDesk(0, Path(tmp)), None)
        problems += bad
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    if problems:
        print("reference.json not written", file=sys.stderr)
        return 1
    ref = {"sweep_heavy": sweep, "rf_mc": mc, "exact_desk": exact}
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
