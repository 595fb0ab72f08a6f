"""Exact offline optimization at desk scale, plus model-file emission.

With hindsight (all jobs and the whole green trace known), profit
maximization is solved exactly by depth-first branch and bound: each job
either runs at one of its feasible placements or is rejected. Costs are the
same pooled green-then-brown accounting the online engine uses, so online
profits are always comparable lower bounds.

The searches are exponential in the worst case; hard instance-size limits
keep them at desk scale and can be loosened explicitly by callers who accept
the wait. For anything larger, ``emit_lp`` writes the problem either search
solves, with the same fungible capacity and the same per-job options, as LP
text for an external mixed-integer solver.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

from .model import Job, Schedule, SimConfig, check_deadlines, commit, release_order
from .pricing import GreenTrace, Tariff, brown_cost_vector, horizon_supply, job_revenue


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
    check_deadlines(jobs, config)
    order = release_order(jobs)
    g = [int(v) for v in horizon_supply(green, config)]
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


def _slot_costs(job: Job, demand: list[int], g: list[int], b: list[float]) -> list[float]:
    """Marginal cost of the job's nodes in each slot up to its deadline:
    b[t] times the shortfall they add (never more than q), 0.0 before its
    release. An option's cost is its slots' costs added left to right from 0.0.
    """
    q = job.nodes
    costs = [0.0] * job.release
    for t in range(job.release, job.deadline + 1):
        over = demand[t] + q - g[t]
        costs.append(b[t] * (q if over > q else over) if over > 0 else 0.0)
    return costs


# Each variant of the search is one option generator: it lists the job's
# placements under the current demand in ascending lexicographic order.


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


def _window_costs(job: Job, g: list[int], b: list[float]) -> list[float]:
    """The job's slot costs over its window [release, deadline] on an empty
    grid, cheapest first. On a loaded grid a slot's marginal cost is never
    below its empty-grid cost."""
    return sorted(_slot_costs(job, [0] * len(b), g, b)[job.release :])


def _job_bound(job: Job, rev: float, costs: list[float], M: int) -> float:
    """Best profit the job could add on an empty grid, never below zero.

    Revenue less the proc_time cheapest of its ``_window_costs``. Any
    placement, contiguous or not, costs at least that much.
    """
    if job.nodes > M:
        return 0.0
    cheapest = 0.0
    for c in costs[: job.proc_time]:  # not sum(): it rounds by Python version
        cheapest += c
    return max(0.0, rev - cheapest)


def _cost_floor(job: Job, costs: list[float], M: int) -> float:
    """No placement of the job, on any grid, sums to less: proc_time copies
    of its cheapest ``_window_costs`` entry, added left to right from 0.0 as
    an option's costs are. IEEE addition is monotone in each operand, so the
    floor holds to the bit. ``math.inf`` for a job wider than the cluster,
    which has no placement, so ``_ceiling`` never adds it.
    """
    if job.nodes > M:
        return math.inf
    floor = 0.0
    for _ in range(job.proc_time):
        floor += costs[0]
    return floor


def _ceiling(cur: float, rest: list[tuple[float, float]]) -> float:
    """No leaf below a node at value ``cur`` is worth more, as the search
    sums it: each remaining (revenue, cost floor) pair is added in the
    leaf's own steps, ``v + rev - floor``, or skipped as a rejection would.
    """
    top = cur
    for gain, floor in rest:
        v = top + gain - floor
        if v > top:
            top = v
    return top


def _ceiling_margins(order: list[Job], rev: list[float], b: list[float]) -> list[float]:
    """Per depth i, how far below ``cur + suffix[i]`` the node's ``_ceiling``
    can sit, as both are computed.

    In exact arithmetic the ceiling is never below the bound sum: a job's
    cost floor is never above its cheapest proc_time slots. Each side takes
    proc_time + 1 rounded steps per job left, plus one for ``cur +
    suffix[i]``, and each step is off by at most ulp(H)/2, where H bounds
    every partial sum: the revenues plus, per job, proc_time * nodes times
    the top brown price. So the ceiling is at least the bound sum less
    (2 * sum(proc_time + 1) + 1) * ulp(H)/2. The margin counts whole ulps,
    which also covers the rounding of H, and one more step for the
    subtraction that applies it.
    """
    top = max(b, default=0.0)
    H = 0.0
    for job, r in zip(order, rev):
        H += abs(r) + job.proc_time * job.nodes * top
    ulp = math.ulp(H)
    margins = [0.0] * len(order)
    steps = 2
    for i in range(len(order) - 1, -1, -1):
        steps += 2 * (order[i].proc_time + 1)
        margins[i] = steps * ulp
    return margins


_REJECT = ((),)  # rejection, the last option of every job: no slots


def _solve(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    limits: SolveLimits,
    label: str,
    options,
) -> tuple[float, Schedule]:
    """Depth-first branch and bound shared by both exact solvers.

    Job i branches over ``options`` in order, then rejection. There is no
    starting incumbent: the first leaf sets it and only strict improvements
    replace it. A subtree is cut when its value so far plus the remaining
    jobs' ``_job_bound`` sum cannot beat the incumbent. A subtree is also
    cut when an earlier one at the same depth held, over the slots the
    remaining jobs can use, the same demand at no lower value, or pointwise
    no more demand at the same value. Marginal slot costs never fall as
    demand rises, and IEEE sums are monotone in each operand, so each of
    its leaves is then, to the bit, no better than a leaf already searched:
    the returned optimum and its tie rule are the same as without the cut.
    Both cuts run in the parent, before a child is entered, and a node
    prices each slot of its job's window once for all its options.

    The bound sum is tight but rounds apart from the leaves, so it can sit
    an ulp above an optimum already found. So a node also stops once its
    ``_ceiling``, summed in the leaves' own steps, cannot beat the
    incumbent: no leaf it cuts would have replaced the incumbent. The
    ceiling is summed only once the incumbent is within the node's
    ``_ceiling_margins`` entry of the bound sum; short of that it cannot cut.
    """
    _check_limits(len(jobs), config, limits, label)
    order, g, b, rev = _prepared(jobs, green, tariff, config)
    n = len(order)
    T = config.horizon_slots
    M = config.machines
    suffix = [0.0] * (n + 1)
    floors = [0.0] * n
    for i in range(n - 1, -1, -1):
        costs = _window_costs(order[i], g, b)
        suffix[i] = suffix[i + 1] + _job_bound(order[i], rev[i], costs, M)
        floors[i] = _cost_floor(order[i], costs, M)
    rests = [list(zip(rev[i:], floors[i:])) for i in range(n)]
    margins = _ceiling_margins(order, rev, b)

    best_value = -math.inf
    best_assign: list = []
    demand = [0] * T
    chosen: list = [()] * n
    # Jobs are in release order, so jobs i.. only touch slots in window[i]:
    # their options and marginal costs depend on the demand there alone.
    window = [
        slice(order[i].release, max(j.deadline for j in order[i:]) + 1)
        for i in range(n)
    ]
    # Demand is also packed into one int, w bits per slot with the top one
    # spare, so masking out window[i] gives the memo key, and one subtraction
    # tests two keys pointwise: no field borrows, and each field of
    # (key | guard) - peer keeps its guard bit exactly where peer's is no larger.
    w = M.bit_length() + 1
    unit = [1 << (w * t) for t in range(T)]
    fields = [sum(unit[window[i]]) for i in range(n)]
    key_masks = [f * ((1 << w) - 1) for f in fields]
    guards = [f << (w - 1) for f in fields]
    memo: list[dict] = [{} for _ in range(n)]  # demand in window[i] -> best cur
    peers: list[dict] = [{} for _ in range(n)]  # cur -> demands in window[i] entered at cur

    def expand(i: int, cur: float, packed: int) -> None:
        # Search job i's options, then its rejection. The caller has cut this
        # node by bound and by memo; each child is cut here before it is
        # entered, and a child at depth n sets the incumbent directly.
        nonlocal best_value, best_assign
        job = order[i]
        q = job.nodes
        gain = rev[i]
        reach = cur + suffix[i]
        near = reach - margins[i]
        ceiled = False
        costs = _slot_costs(job, demand, g, b)
        nxt = i + 1
        rest = suffix[nxt]
        leaf = nxt == n
        if not leaf:
            seen_at = memo[nxt]
            peers_at = peers[nxt]
            mask = key_masks[nxt]
            guard = guards[nxt]
        for slots in itertools.chain(options(job, demand, M), _REJECT):
            # a deeper leaf may have raised the incumbent since the parent's cut
            if best_value >= near:
                if not ceiled:
                    reach = min(reach, _ceiling(cur, rests[i]))
                    ceiled = True
                if reach <= best_value:
                    break
            if slots:
                mc = 0.0
                for t in slots:
                    mc += costs[t]
                value = cur + gain - mc
            else:
                value = cur
            if value + rest <= best_value:
                continue
            chosen[i] = slots
            if leaf:
                best_value = value
                best_assign = chosen.copy()
                continue
            span = 0
            for t in slots:
                demand[t] += q
                span += unit[t]
            child = packed + q * span
            key = child & mask
            seen = seen_at.get(key)
            if seen is None or seen < value:
                # kept if a peer cuts it: its leaves are no better than searched ones
                seen_at[key] = value
                same = peers_at.get(value)
                if same is None:
                    peers_at[value] = [key]
                    expand(nxt, value, child)
                else:
                    above = key | guard
                    for peer in same:
                        if (above - peer) & guard == guard:
                            break  # no more demand in any slot, at the same value
                    else:
                        same.append(key)
                        expand(nxt, value, child)
            for t in slots:
                demand[t] -= q

    try:
        if n:
            expand(0, 0.0, 0)
    finally:
        expand = None  # expand reaches itself through its closure; unlink to free the search

    schedule = Schedule(M, T)
    rev_selected = []
    for i, slots in enumerate(best_assign):
        if slots:
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
        jobs, green, tariff, config, limits, "non-preemptive", _contiguous_options
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
        jobs, green, tariff, config, limits, "preemptive", _scattered_options
    )
    if node_assignment(schedule) is None:
        warnings.warn(
            "no fixed per-job node assignment exists for the optimal schedule",
            stacklevel=2,
        )
    return profit, schedule


def node_assignment(schedule: Schedule) -> dict[int, tuple[int, ...]] | None:
    """Concrete node sets realizing a fungible-capacity schedule.

    Each job gets a fixed set of node ids it holds in every active slot,
    with no two time-overlapping jobs sharing a node. Backtracking search;
    returns None when no such assignment exists (possible only for
    scattered placements with odd overlap structure, never for contiguous
    ones).
    """
    M = schedule.machines
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


LP_VARIANTS = ("nonpreemptive", "preemptive")


def emit_lp(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    variant: str = "nonpreemptive",
) -> str:
    """Write the problem an exact solver searches as LP text for a MIP solver.

    Binary y_i counts job i. The variants differ only in job i's activity
    binaries, one per option the matching solver's generator gives on an
    empty grid: ``nonpreemptive`` has a start s_i_s per contiguous window,
    busy in slots s..s+p-1, with sum_s s_i_s = y_i; ``preemptive`` has
    w_i_t per window slot, with sum_t w_i_t = p * y_i. A job wider than the
    cluster has none, so its y_i is 0. Both share, per slot, the busy nodes
    e_t = sum of q_i times job i's activity in t, capacity e_t <= M, and
    brown energy through e_t - aux_t <= g_t, aux_t >= 0, with objective
    sum rev_i y_i - sum b_t aux_t (the objective presses aux to the
    shortfall). Capacity is fungible, as in the solvers, so the LP optimum
    equals theirs. Output is byte-for-byte deterministic given equal input.
    """
    if variant not in LP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r} (nonpreemptive or preemptive)")
    order, g, b, rev = _prepared(jobs, green, tariff, config)
    T = config.horizon_slots
    M = config.machines
    preemptive = variant == "preemptive"
    prefix = "w" if preemptive else "s"
    w = _LpWriter(f"offline profit model, {variant}, {len(order)} jobs, {T} slots, {M} nodes")
    for i, job in enumerate(order):
        w.comment(
            f"job {i}: id={job.id} window=[{job.release},{job.deadline}] "
            f"p={job.proc_time} q={job.nodes}"
        )
    obj = [(rev[i], f"y_{i}") for i in range(len(order))]
    obj += [(-b[t], f"aux_{t}") for t in range(T) if b[t] != 0]
    w.objective(obj)

    empty = [0] * T
    busy: list[list[tuple[float, str]]] = [[(1.0, f"e_{t}")] for t in range(T)]
    activity: list[str] = []
    for i, job in enumerate(order):
        # a preemptive job runs as proc_time one-slot pieces, a contiguous one as one
        piece = replace(job, proc_time=1) if preemptive else job
        names = []
        for slots in _contiguous_options(piece, empty, M):
            name = f"{prefix}_{i}_{slots[0]}"
            names.append(name)
            for t in slots:
                busy[t].append((-float(job.nodes), name))
        count = float(job.proc_time if preemptive else 1)
        w.constraint(
            f"once_{i}", [(1.0, v) for v in names] + [(-count, f"y_{i}")], "=", 0
        )
        activity += names
    for t in range(T):
        w.constraint(f"load_{t}", busy[t], "=", 0)
        w.constraint(f"cap_{t}", [(1.0, f"e_{t}")], "<=", M)
        w.constraint(f"energy_{t}", [(1.0, f"e_{t}"), (-1.0, f"aux_{t}")], "<=", g[t])

    for i in range(len(order)):
        w.binary(f"y_{i}")
    for name in activity:
        w.binary(name)
    return w.render()
