"""Outside-in span tracing of greensched's public functions.

``Tracer.install`` wraps each traced function at every place a greensched
module binds it (the defining module, each module that imports it, and the
package namespace), so calls across modules and within one are both seen.
``uninstall`` puts the original objects back; the program is not modified.

Spans live in flat in-memory arrays (name, start, end, parent span,
operation id) and are written out once, when the run ends. Per-layer
metrics are derived from the spans afterwards: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter

import numpy as np

import greensched

# Traced functions as (layer module, attribute path inside it).
TRACED = (
    ("model", "nonpreemptive_starts"),
    ("model", "preemptive_slots"),
    ("model", "commit"),
    ("pricing", "account"),
    ("pricing", "brown_cost_vector"),
    ("pricing", "onpeak_vector"),
    ("schedulers", "OnlineState.create"),
    ("schedulers", "run_online"),
    ("offline", "solve_nonpreemptive_exact"),
    ("offline", "solve_preemptive_exact"),
    ("adversary", "measure_ratio"),
    ("workload", "generate"),
    ("experiment", "run_suite"),
    ("experiment", "preemption_comparison"),
)
OP_SPAN = "bench.op"


def _count_scan(counts: Counter, args, out) -> None:
    counts["scans"] += 1
    counts["scan_hits"] += int(out.size > 0)


def _count_run(counts: Counter, args, out) -> None:
    counts["jobs_offered"] += len(args[0])
    counts["jobs_scheduled"] += len(out[0].placements)


def _count_cells(counts: Counter, args, out) -> None:
    counts["cells"] += len(out["runs"])


# Counts taken at the same boundaries as the spans.
HOOKS = {
    "model.nonpreemptive_starts": _count_scan,
    "schedulers.run_online": _count_run,
    "experiment.run_suite": _count_cells,
}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in TRACED] + [OP_SPAN]
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_labels: list[str] = []
        self.op_pass: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._current_op = -1
        self._restore: list[tuple[object, str, object]] = []
        self._root = self._wrap(len(TRACED), lambda fn: fn())

    def _wrap(self, nid: int, fn, hook=None):
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end
        stack, counts = self._stack, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self._current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "greensched" or n.startswith("greensched.")]
        for nid, (mod_name, attr) in enumerate(TRACED):
            mod = getattr(greensched, mod_name)
            hook = HOOKS.get(self.names[nid])
            if "." in attr:  # a classmethod: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(nid, original.__func__, hook)))
                self._restore.append((cls, meth, original))
                continue
            fn = getattr(mod, attr)
            traced = self._wrap(nid, fn, hook)
            for m in modules:
                if vars(m).get(attr) is fn:
                    setattr(m, attr, traced)
                    self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def run_op(self, label: str, traced_pass: int, fn):
        """Call fn under a root span; every span below it shares its op id."""
        self._current_op = len(self.op_labels)
        self.op_labels.append(label)
        self.op_pass.append(traced_pass)
        try:
            return self._root(fn)
        finally:
            self._current_op = -1

    def _columns(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return nid, parent, op, dur

    def layer_metrics(self, n_passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced passes, as (value, unit).

        calls and self_s are per pass (median over the traced passes);
        us_per_call is the mean inclusive time of one call.
        """
        nid, parent, op, dur = self._columns()
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        span_pass = np.asarray(self.op_pass, dtype=np.int64)[op]
        out: dict[str, tuple[float, str]] = {}
        for k, name in enumerate(self.names[:-1]):
            mask = nid == k
            n_calls = int(mask.sum())
            calls = np.bincount(span_pass[mask], minlength=n_passes)
            busy = np.bincount(span_pass[mask], weights=self_time[mask], minlength=n_passes)
            out[f"{name}.calls"] = (float(statistics.median(calls)), "count")
            out[f"{name}.self_s"] = (float(statistics.median(busy)), "s")
            us = float(dur[mask].sum()) / n_calls * 1e6 if n_calls else 0.0
            out[f"{name}.us_per_call"] = (us, "us")
        c = self.counts
        runs = int((nid == self.names.index("schedulers.run_online")).sum())
        out["model.nonpreemptive_starts.hit_share"] = (_share(c["scan_hits"], c["scans"]), "share")
        out["experiment.run_online_per_cell"] = (_share(runs, c["cells"]), "ratio")
        out["sweep.admit_share"] = (_share(c["jobs_scheduled"], c["jobs_offered"]), "share")
        return out

    def write(self, path: Path) -> None:
        nid, parent, op, _ = self._columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=nid,
            parent=parent,
            op=op,
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            op_label=np.array(self.op_labels),
            op_pass=np.array(self.op_pass, dtype=np.int64),
        )
