"""greensched benchmark: one workload, one process, one thread, closed loop.

    python3 benchmarks/run.py --workload sweep_heavy --seed 1 --seconds 30 --trace 0

Runs passes of the chosen workload (see workloads.py and RATIONALE.md)
back to back until --seconds have passed, checks every operation's output,
and prints the metrics by name and unit, then one JSON line:
end-to-end metrics with --trace 0, per-layer metrics from a traced run with
--trace 1. End-to-end times are rescaled to a reference host speed (see
reference_loop). Each run also appends its record to benchmarks/out/results.jsonl,
which compare.py reads. Exits 2 without a result when the package source
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Single-threaded BLAS, set before numpy is imported here or in a probe.
BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 5
MIN_PASSES = 3
WORKLOAD_NAMES = ("sweep_heavy", "rf_mc", "exact_desk")
# The speed of this shared 2-core host drifts by up to 2x over minutes, in
# CPU time as much as in wall time, so raw rates of runs minutes apart are
# not comparable. Every operation and every set-up probe is therefore
# bracketed by reference_loop(), and its time is rescaled to what it would
# have been with the loop taking REF_NOMINAL_S: the loop's median time on the
# quiet host the benchmark was defined on (Intel Xeon, Python 3.11).
REF_NOMINAL_S = 0.0165
REF_PROBE_LOOPS = 3

# A probe times, in a fresh interpreter, what a user pays before the first
# operation: imports, building the workload's inputs, and its warm-up.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from pathlib import Path
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), Path(sys.argv[5])).warm_up()
seconds = time.perf_counter() - t0
import statistics
from run import REF_PROBE_LOOPS, reference_loop
print(seconds, statistics.median(reference_loop() for _ in range(REF_PROBE_LOOPS)))
"""


def reference_loop() -> float:
    """Seconds a fixed mix of interpreter and small-array numpy work takes.

    It is benchmark code that no change to greensched touches, and its mix
    resembles the package's (dict and integer bytecode, numpy calls on
    horizon-sized arrays), so it slows down with the host as they do.
    """
    import numpy as np

    base = np.arange(480.0)
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(40_000):
        acc += i * i % 7
        seen[i & 255] = acc
    x = base
    for _ in range(600):
        x = np.minimum(x + 1.0, base[::-1]).cumsum() % 97.0
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def setup_seconds(workload: str, seed: int, scratch: Path) -> list[tuple[float, float]]:
    """(raw, rescaled) set-up seconds of each fresh-interpreter probe."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload, str(seed), str(scratch)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref = map(float, done.stdout.split()[-2:])
        times.append((seconds, seconds * REF_NOMINAL_S / ref))
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Deadline:
    """Loop guard: at least MIN_PASSES steps, then stop once the next step,
    as long as the last one, would overrun the measuring time by more than
    half its length."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.mark = time.perf_counter()

    def more(self, done: int) -> bool:
        now = time.perf_counter()
        last, self.mark = now - self.mark, now
        return done < MIN_PASSES or now - self.start + last / 2 < self.seconds


class Runner:
    """Runs passes, checks each operation, and counts failures."""

    def __init__(self, w, ref: dict):
        self.w = w
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.last_output = None

    def run_pass(self, call) -> tuple[float, float, int]:
        """One pass of every op through ``call(label, fn)``.

        Returns (seconds, rescaled seconds, work). Each op's rescaled time
        uses the mean of the reference loops run just before and after it.
        """
        results = []
        refs = [reference_loop()]
        for label, fn in self.w.ops():
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = call(label, fn)
            except Exception:
                self.failed += 1
                traceback.print_exc()
                out = None
            results.append((label, out, time.perf_counter() - t0))
            refs.append(reference_loop())
        seconds = sum(t for _, _, t in results)
        rescaled = sum(
            t * REF_NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for i, (_, _, t) in enumerate(results)
        )
        work = 0
        for label, out, _ in results:  # checks run outside the timed region
            if out is None:
                continue
            try:
                problems = self.w.check(label, out, self.ref)
            except Exception:
                traceback.print_exc()
                problems = [f"{label}: output check raised"]
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"CHECK FAILED {p}", file=sys.stderr)
            work += self.w.work(out)
            self.last_output = (label, out)
        return seconds, rescaled, work

    def self_check(self) -> bool:
        """A wrong reference must be reported as a failed check, not crash."""
        if self.last_output is None:
            return False
        label, out = self.last_output
        try:
            return bool(self.w.check(label, out, self.w.wrong_reference(self.ref)))
        except Exception:
            traceback.print_exc()
            return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "greensched" / "__init__.py").is_file():
        print(f"greensched source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(BENCH)]
    env = environment()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        setups = [] if args.trace else setup_seconds(args.workload, args.seed, scratch)

        import workloads  # noqa: E402 - needs the paths above

        refs = json.loads((BENCH / "reference.json").read_text())
        w = workloads.WORKLOADS[args.workload](args.seed, scratch)
        w.warm_up()
        runner = Runner(w, refs[args.workload])
        if args.trace:
            record = traced_run(runner, args)
        else:
            record = plain_run(runner, args, setups)
        self_check_ok = runner.self_check()
    correct = runner.failed == 0 and self_check_ok
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace, env=env,
        attempted=runner.attempted, failed=runner.failed, self_check=self_check_ok,
    )
    print(f"env {json.dumps(env)}")
    print(f"ops attempted {runner.attempted} failed {runner.failed} "
          f"failed_share {runner.failed / max(runner.attempted, 1)} self_check {'ok' if self_check_ok else 'FAILED'}")
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


def plain_run(runner: Runner, args, setups: list[tuple[float, float]]) -> dict:
    """Metrics from untraced passes. ops_per_s and setup_s are rescaled to
    the reference speed; the raw figures are printed beside them."""
    w = runner.w
    passes = []  # (seconds, rescaled seconds, work)
    clock = Deadline(args.seconds)
    while clock.more(len(passes)):
        passes.append(runner.run_pass(lambda label, fn: fn()))
    raw_rates = [work / sec for sec, _, work in passes if sec > 0]
    rates = [work / scaled for _, scaled, work in passes if scaled > 0]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q1, med, q3 = quartiles(rates)
    r1, rmed, r3 = quartiles(raw_rates)
    p1, pmed, p3 = quartiles([sec for sec, _, _ in passes])
    s1, smed, s3 = quartiles([scaled for _, scaled in setups])
    raw_setup = statistics.median(raw for raw, _ in setups)
    print(f"workload {w.name} seed {args.seed} passes {len(passes)} (closed loop, 1 thread)")
    if w.metric == "exact_pass_s":
        print(f"exact_pass_s {pmed:.6g} s  q1 {p1:.6g} q3 {p3:.6g}  (raw)")
    else:
        print(f"{w.metric} {rmed:.6g} 1/s  q1 {r1:.6g} q3 {r3:.6g}  (raw)")
    print(f"ops_per_s {med:.6g} 1/s  q1 {q1:.6g} q3 {q3:.6g}  (work units per second, at reference speed)")
    print(f"setup_s {smed:.6g} s  q1 {s1:.6g} q3 {s3:.6g}  (at reference speed; raw {raw_setup:.6g} s)"
          f" over {len(setups)} fresh interpreters")
    print(f"peak_rss_mb {peak_mb:.6g} MB")
    return {
        "metrics": {
            "ops_per_s": (med, "1/s"),
            "setup_s": (smed, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        },
    }


def traced_run(runner: Runner, args) -> dict:
    """Alternate untraced and traced passes; layer metrics from the traced.

    The overhead compares pass times at reference speed, like ops_per_s.
    """
    import spans  # noqa: E402 - needs the paths set in main

    tracer = spans.Tracer()
    plain, traced = [], []
    clock = Deadline(args.seconds)
    while clock.more(len(traced)):
        plain.append(runner.run_pass(lambda label, fn: fn())[1])
        n = len(traced)
        tracer.install()
        try:
            traced.append(runner.run_pass(lambda label, fn: tracer.run_op(label, n, fn))[1])
        finally:
            tracer.uninstall()
    metrics = tracer.layer_metrics(len(traced))
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / statistics.median(plain), "share")
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    print(f"workload {runner.w.name} seed {args.seed} traced passes {len(traced)} untraced {len(plain)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {"metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
