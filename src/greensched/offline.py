"""Exact offline optimization at desk scale, plus model-file emission.

With hindsight (all jobs and the whole green trace known), profit
maximization is solved exactly by depth-first branch and bound: each job
either runs at one of its feasible placements or is rejected. Costs are the
same pooled green-then-brown accounting the online engine uses, so online
profits are always comparable lower bounds.

The searches are exponential in the worst case; hard instance-size limits
keep them at desk scale and can be loosened explicitly by callers who accept
the wait. For anything larger, ``emit_lp`` writes the profit model in the
industry LP text format for an external mixed-integer solver.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

from .model import Job, Schedule, SimConfig, commit
from .pricing import GreenTrace, Tariff, brown_cost_vector, job_revenue
from .schedulers import SchedulerKind, run_online


class InstanceLimitError(ValueError):
    """The instance exceeds the configured exact-search limits."""


@dataclass(frozen=True)
class SolveLimits:
    max_jobs: int
    max_slots: int
    max_machines: int


NONPREEMPTIVE_LIMITS = SolveLimits(max_jobs=12, max_slots=48, max_machines=16)
PREEMPTIVE_LIMITS = SolveLimits(max_jobs=8, max_slots=24, max_machines=8)


def _check_limits(
    n_jobs: int, config: SimConfig, limits: SolveLimits, label: str
) -> None:
    if n_jobs > limits.max_jobs:
        raise InstanceLimitError(
            f"{label} exact search limited to {limits.max_jobs} jobs, got {n_jobs}"
        )
    if config.horizon_slots > limits.max_slots:
        raise InstanceLimitError(
            f"{label} exact search limited to {limits.max_slots} slots, "
            f"got {config.horizon_slots}"
        )
    if config.machines > limits.max_machines:
        raise InstanceLimitError(
            f"{label} exact search limited to {limits.max_machines} machines, "
            f"got {config.machines}"
        )


def _prepared(
    jobs: list[Job], green: GreenTrace, tariff: Tariff, config: SimConfig
) -> tuple[list[Job], list[int], list[float], list[float]]:
    """Jobs in release order, plus per-slot green g, per-slot brown price b
    and per-job revenue rev as plain Python numbers."""
    for job in jobs:
        if job.deadline >= config.horizon_slots:
            raise ValueError(
                f"job {job.id}: deadline {job.deadline} outside horizon "
                f"{config.horizon_slots}"
            )
    order = sorted(jobs, key=lambda j: (j.release, j.deadline, j.id))
    T = config.horizon_slots
    if green.supply.size < T:
        raise ValueError("green trace shorter than horizon")
    g = [int(v) for v in green.supply[:T]]
    b = [float(v) for v in brown_cost_vector(tariff, config)]
    rev = [job_revenue(j, tariff, config) for j in order]
    return order, g, b, rev


def _canonical_profit(
    rev_selected: list[float], demand, g: list[int], b: list[float]
) -> float:
    """Profit of a complete assignment in one fixed summation order.

    Revenue in job order, then brown cost in slot order. Search code reports
    values through this function only, so equal schedules price equally to
    the last bit.
    """
    revenue = 0.0
    for v in rev_selected:
        revenue += v
    cost = 0.0
    for t in range(len(b)):
        over = int(demand[t]) - g[t]
        if over > 0:
            cost += b[t] * over
    return revenue - cost


def _greedy_seed(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    preemptive: bool,
) -> float:
    """Incumbent value from the online policies given full foresight."""
    cfg = replace(config, forecast_slots=config.horizon_slots)
    best = 0.0
    for kind in ("PFF", "PBF") if preemptive else ("FF", "BF"):
        _, report, _ = run_online(jobs, SchedulerKind(kind), green, tariff, cfg)
        if report.net_profit > best:
            best = report.net_profit
    return best


def _marginal_cost(slots, demand, g, b, q) -> float:
    mc = 0.0
    for t in slots:
        over_new = demand[t] + q - g[t]
        if over_new > 0:
            over_old = demand[t] - g[t]
            mc += b[t] * (over_new - over_old if over_old > 0 else over_new)
    return mc


# Each variant of the search is one option generator plus one empty-grid
# bound. A generator lists the job's placements under the current demand in
# ascending lexicographic order; a bound is the best profit the job could add
# on an empty grid, never below zero (rejection).


def _contiguous_options(job: Job, demand: list[int], M: int):
    """Every window of proc_time consecutive slots with q spare nodes each."""
    p, q = job.proc_time, job.nodes
    if q > M:
        return
    for s in range(job.release, job.deadline - p + 2):
        end = s + p
        for t in range(s, end):
            if demand[t] + q > M:
                break
        else:
            yield range(s, end)


def _scattered_options(job: Job, demand: list[int], M: int):
    """Every proc_time-subset of the slots with q spare nodes."""
    q = job.nodes
    if q > M:
        return ()
    spare = [t for t in range(job.release, job.deadline + 1) if demand[t] + q <= M]
    return itertools.combinations(spare, job.proc_time)


def _contiguous_bound(job: Job, rev: float, g: list[int], b: list[float], M: int) -> float:
    """Best single window's profit."""
    best = 0.0
    if job.nodes > M:
        return best
    for s in range(job.release, job.deadline - job.proc_time + 2):
        c = 0.0
        for t in range(s, s + job.proc_time):
            short = job.nodes - g[t]
            if short > 0:
                c += b[t] * short
        if rev - c > best:
            best = rev - c
    return best


def _scattered_bound(job: Job, rev: float, g: list[int], b: list[float], M: int) -> float:
    """Revenue less the proc_time cheapest slots in the window."""
    if job.nodes > M:
        return 0.0
    costs = sorted(
        b[t] * max(0, job.nodes - g[t]) for t in range(job.release, job.deadline + 1)
    )
    return max(0.0, rev - sum(costs[: job.proc_time]))


def _solve(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    limits: SolveLimits,
    preemptive: bool,
    options,
    bound,
) -> tuple[float, Schedule]:
    """Depth-first branch and bound shared by both exact solvers.

    Job i branches over ``options`` in order, then rejection; a subtree is
    cut when its value so far plus the remaining jobs' ``bound`` sum cannot
    beat the incumbent, and only strict improvements replace it. A subtree
    is also cut when an earlier one at the same depth saw the same demand
    over the slots the remaining jobs can use, at no lower value: each of
    its leaves is then no better than a leaf already searched, so the
    returned optimum and its tie rule are the same as without the cut.
    """
    _check_limits(
        len(jobs), config, limits, "preemptive" if preemptive else "non-preemptive"
    )
    order, g, b, rev = _prepared(jobs, green, tariff, config)
    n = len(order)
    T = config.horizon_slots
    M = config.machines
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bound(order[i], rev[i], g, b, M)

    # Seeding the incumbent value just below the greedy profit keeps pruning
    # strong without ever discarding the lexicographically first optimum.
    best_value = _greedy_seed(order, green, tariff, config, preemptive) - 1e-9
    best_assign: list | None = None
    demand = [0] * T
    chosen: list = [None] * n
    # Jobs are in release order, so jobs i.. only touch slots in window[i]:
    # their options and marginal costs depend on the demand there alone.
    window = [
        slice(order[i].release, max(j.deadline for j in order[i:]) + 1)
        for i in range(n)
    ]
    memo: list[dict] = [{} for _ in range(n)]  # demand in window[i] -> best cur
    pack = bytes if M < 256 else tuple  # demand never exceeds M

    def dfs(i: int, cur: float) -> None:
        nonlocal best_value, best_assign
        if cur + suffix[i] <= best_value:
            return
        if i == n:
            best_value = cur
            best_assign = chosen.copy()
            return
        key = pack(demand[window[i]])
        seen = memo[i].get(key)
        if seen is not None and seen >= cur:
            return
        memo[i][key] = cur
        job = order[i]
        q = job.nodes
        for slots in options(job, demand, M):
            # a deeper leaf may have raised the incumbent since the check above
            if cur + suffix[i] <= best_value:
                break
            mc = _marginal_cost(slots, demand, g, b, q)
            for t in slots:
                demand[t] += q
            chosen[i] = slots
            dfs(i + 1, cur + rev[i] - mc)
            for t in slots:
                demand[t] -= q
        chosen[i] = None
        dfs(i + 1, cur)

    dfs(0, 0.0)
    dfs = None  # dfs reaches itself through its closure; unlink to free the search
    if best_assign is None:
        raise RuntimeError("search lost its incumbent (internal error)")

    schedule = Schedule(M, T)
    rev_selected = []
    for i, slots in enumerate(best_assign):
        if slots is not None:
            commit(order[i], slots, schedule)
            rev_selected.append(rev[i])
    return _canonical_profit(rev_selected, schedule.demand, g, b), schedule


def solve_nonpreemptive_exact(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    limits: SolveLimits | None = None,
) -> tuple[float, Schedule]:
    """Maximize net profit over contiguous placements, exactly.

    Branches per job over rejection and every start in its window, bounded
    by the remaining jobs' best-case marginal profits on an empty grid. Of
    all profit-maximal assignments, the one whose start vector (rejection
    sorting last) is lexicographically smallest in release order is returned.
    """
    limits = NONPREEMPTIVE_LIMITS if limits is None else limits
    return _solve(
        jobs, green, tariff, config, limits, False, _contiguous_options, _contiguous_bound
    )


def solve_preemptive_exact(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    limits: SolveLimits | None = None,
) -> tuple[float, Schedule]:
    """Maximize net profit over scattered placements, exactly.

    Branches per job over rejection and every proc_time-subset of its spare
    slots (lexicographic order, so ties resolve to the smallest slot
    vector). Node identities are not part of the search: capacity is
    fungible, and a concrete node assignment is emitted afterwards as a
    witness via ``node_assignment`` (a warning fires in the rare case no
    fixed per-job node set exists).
    """
    limits = PREEMPTIVE_LIMITS if limits is None else limits
    profit, schedule = _solve(
        jobs, green, tariff, config, limits, True, _scattered_options, _scattered_bound
    )
    if node_assignment(schedule) is None:
        warnings.warn(
            "no fixed per-job node assignment exists for the optimal schedule",
            stacklevel=2,
        )
    return profit, schedule


def node_assignment(
    schedule: Schedule, machines: int | None = None
) -> dict[int, tuple[int, ...]] | None:
    """Concrete node sets realizing a fungible-capacity schedule.

    Each job gets a fixed set of node ids it holds in every active slot,
    with no two time-overlapping jobs sharing a node. Backtracking search;
    returns None when no such assignment exists (possible only for
    scattered placements with odd overlap structure, never for contiguous
    ones).
    """
    M = schedule.machines if machines is None else machines
    order = sorted(schedule.placements, key=lambda p: (p.active_slots[0], p.job_id))
    slot_sets = [set(p.active_slots) for p in order]
    overlaps = [
        [j for j in range(i) if slot_sets[i] & slot_sets[j]] for i in range(len(order))
    ]
    assign: dict[int, tuple[int, ...]] = {}

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        taken: set[int] = set()
        for j in overlaps[i]:
            taken.update(assign[order[j].job_id])
        free = [m for m in range(M) if m not in taken]
        if len(free) < order[i].nodes:
            return False
        for combo in itertools.combinations(free, order[i].nodes):
            assign[order[i].job_id] = combo
            if rec(i + 1):
                return True
        del assign[order[i].job_id]
        return False

    found = rec(0)
    rec = None  # rec reaches itself through its closure; unlink to free it
    return assign if found else None


# ---------------------------------------------------------------------------
# LP text emission


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _term_strings(terms: list[tuple[float, str]]) -> list[str]:
    """One string per term, signs attached, ready for wrapping."""
    parts: list[str] = []
    for coef, name in terms:
        sign = "-" if coef < 0 else ("+" if parts else "")
        mag = abs(coef)
        body = name if mag == 1 else f"{_fmt(mag)} {name}"
        parts.append(f"{sign} {body}".strip())
    return parts


def _wrap_terms(head: str, parts: list[str], tail: str = "", width: int = 76) -> list[str]:
    """Wrap at term boundaries; continuation lines are indented deeper."""
    out: list[str] = []
    cur = " " + head
    for part in parts:
        if len(cur) + 1 + len(part) > width and cur.strip() != head:
            out.append(cur)
            cur = "   " + part
        else:
            cur = f"{cur} {part}"
    if tail:
        cur = f"{cur} {tail}"
    out.append(cur)
    return out


class _LpWriter:
    def __init__(self, title: str) -> None:
        self.lines: list[str] = [f"\\ {title}"]
        self.constraints: list[str] = []
        self.binaries: list[str] = []

    def comment(self, text: str) -> None:
        self.lines.append(f"\\ {text}")

    def objective(self, terms: list[tuple[float, str]]) -> None:
        self.lines.append("Maximize")
        self.lines.extend(_wrap_terms("obj:", _term_strings(terms)))

    def constraint(
        self, name: str, terms: list[tuple[float, str]], op: str, rhs: float
    ) -> None:
        self.constraints.extend(
            _wrap_terms(f"{name}:", _term_strings(terms), f"{op} {_fmt(rhs)}")
        )

    def binary(self, name: str) -> None:
        self.binaries.append(name)

    def render(self) -> str:
        out = list(self.lines)
        out.append("Subject To")
        out.extend(self.constraints)
        if self.binaries:
            out.append("Binaries")
            for i in range(0, len(self.binaries), 8):
                out.append(" " + " ".join(self.binaries[i : i + 8]))
        out.append("End")
        return "\n".join(out) + "\n"


def emit_lp(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    variant: str = "preemptive",
) -> str:
    """Write the offline profit model as LP text for an external MIP solver.

    ``variant="preemptive"``: binary y (job counted), x_j_m_t (job j on node
    m in slot t), z_j_m (node m serves j), w_j_t (j active in t); nodes are
    exclusive per slot, every used node carries the job its whole processing
    time, every active slot uses exactly the job's node count, and the grand
    total ties to y. ``variant="equal_jobs"``: all jobs share one p and q;
    binary start indicators s_j_t plus per-slot counters n_t (starts) and
    e_t (busy nodes) with capacity e_t <= M.

    Both variants price brown energy through aux_t >= busy(t) - green(t),
    aux_t >= 0, with objective -b(t) * aux_t (the objective presses aux to
    the shortfall). Output is deterministic byte-for-byte given equal input.
    """
    order, g, b, rev = _prepared(jobs, green, tariff, config)
    T = config.horizon_slots
    M = config.machines
    if variant == "preemptive":
        return _emit_preemptive(order, g, b, rev, T, M)
    if variant == "equal_jobs":
        return _emit_equal_jobs(order, g, b, rev, T, M)
    raise ValueError(f"unknown variant {variant!r} (preemptive or equal_jobs)")


def _emit_preemptive(order, g, b, rev, T: int, M: int) -> str:
    w = _LpWriter(f"offline profit model, preemptive, {len(order)} jobs, {T} slots, {M} nodes")
    for i, job in enumerate(order):
        w.comment(
            f"job {i}: id={job.id} window=[{job.release},{job.deadline}] "
            f"p={job.proc_time} q={job.nodes}"
        )
    obj = [(rev[i], f"y_{i}") for i in range(len(order))]
    obj += [(-b[t], f"aux_{t}") for t in range(T) if b[t] != 0]
    w.objective(obj)

    window = [range(j.release, j.deadline + 1) for j in order]
    for m in range(M):
        for t in range(T):
            terms = [
                (1.0, f"x_{i}_{m}_{t}") for i in range(len(order)) if t in window[i]
            ]
            if terms:
                w.constraint(f"excl_{m}_{t}", terms, "<=", 1)
    for i, job in enumerate(order):
        for m in range(M):
            terms = [(1.0, f"x_{i}_{m}_{t}") for t in window[i]]
            terms.append((-float(job.proc_time), f"z_{i}_{m}"))
            w.constraint(f"node_{i}_{m}", terms, "=", 0)
        for t in window[i]:
            terms = [(1.0, f"x_{i}_{m}_{t}") for m in range(M)]
            terms.append((-float(job.nodes), f"w_{i}_{t}"))
            w.constraint(f"active_{i}_{t}", terms, "=", 0)
        terms = [(1.0, f"x_{i}_{m}_{t}") for m in range(M) for t in window[i]]
        terms.append((-float(job.proc_time * job.nodes), f"y_{i}"))
        w.constraint(f"total_{i}", terms, "=", 0)
    for t in range(T):
        terms = [
            (1.0, f"x_{i}_{m}_{t}")
            for i in range(len(order))
            if t in window[i]
            for m in range(M)
        ]
        terms.append((-1.0, f"aux_{t}"))
        w.constraint(f"energy_{t}", terms, "<=", g[t])

    for i in range(len(order)):
        w.binary(f"y_{i}")
    for i in range(len(order)):
        for m in range(M):
            w.binary(f"z_{i}_{m}")
    for i in range(len(order)):
        for t in window[i]:
            w.binary(f"w_{i}_{t}")
    for i in range(len(order)):
        for m in range(M):
            for t in window[i]:
                w.binary(f"x_{i}_{m}_{t}")
    return w.render()


def _emit_equal_jobs(order, g, b, rev, T: int, M: int) -> str:
    ps = {j.proc_time for j in order}
    qs = {j.nodes for j in order}
    if len(ps) != 1 or len(qs) != 1:
        raise ValueError("equal_jobs variant needs identical p and q across jobs")
    p = ps.pop()
    q = qs.pop()
    if q > M:
        raise ValueError(f"node requirement {q} exceeds {M} machines")
    w = _LpWriter(
        f"offline profit model, equal jobs, {len(order)} jobs, p={p}, q={q}, "
        f"{T} slots, {M} nodes"
    )
    for i, job in enumerate(order):
        w.comment(f"job {i}: id={job.id} window=[{job.release},{job.deadline}]")
    obj = [(rev[i], f"y_{i}") for i in range(len(order))]
    obj += [(-b[t], f"aux_{t}") for t in range(T) if b[t] != 0]
    w.objective(obj)

    # start variables only where the run also finishes inside the window
    starts = [range(j.release, min(j.deadline - p + 1, T - p) + 1) for j in order]
    for t in range(T):
        terms = [(-1.0, f"s_{i}_{t}") for i in range(len(order)) if t in starts[i]]
        terms.insert(0, (1.0, f"n_{t}"))
        w.constraint(f"startdef_{t}", terms, "=", 0)
    for t in range(T):
        terms = [(1.0, f"e_{t}")]
        for k in range(max(0, t - p + 1), t + 1):
            terms.append((-float(q), f"n_{k}"))
        w.constraint(f"loaddef_{t}", terms, "=", 0)
        w.constraint(f"cap_{t}", [(1.0, f"e_{t}")], "<=", M)
    for i in range(len(order)):
        terms = [(1.0, f"s_{i}_{t}") for t in starts[i]]
        terms.append((-1.0, f"y_{i}"))
        w.constraint(f"once_{i}", terms, "=", 0)
    for t in range(T):
        w.constraint(
            f"energy_{t}", [(1.0, f"e_{t}"), (-1.0, f"aux_{t}")], "<=", g[t]
        )

    for i in range(len(order)):
        w.binary(f"y_{i}")
    for i in range(len(order)):
        for t in starts[i]:
            w.binary(f"s_{i}_{t}")
    return w.render()
