"""Exact offline optimization at desk scale, plus model-file emission.

With hindsight (all jobs and the whole green trace known), profit
maximization is solved exactly by depth-first branch and bound: each job
either runs at one of its feasible placements or is rejected. Costs are the
same pooled green-then-brown accounting the online engine uses, so online
profits are always comparable lower bounds.

The searches are exponential in the worst case, so each one stops at a step
budget: past ``max_steps`` options priced it raises ``SearchBudgetError``,
which carries the best schedule found so far.
Steps are counted, not seconds, so an input gives the same answer or the
same error on any host. For anything larger,
``emit_lp`` writes the problem either search solves, with the same fungible
capacity and the same per-job options, as LP text for an external
mixed-integer solver.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from .model import Job, Schedule, SimConfig, check_jobs, commit, release_order
from .pricing import GreenTrace, Tariff, brown_cost_vector, horizon_supply, job_revenue


MAX_STEPS = 1_000_000  # options priced; see README for the time it takes


class SearchBudgetError(ValueError):
    """The exact search priced more options than its step budget allows, or
    holds more jobs than Python's recursion limit lets it nest.

    ``incumbent`` is the best complete assignment found before the stop, as
    ``(value, Schedule)`` priced as a returned optimum is, so a feasible
    lower bound on the optimum; None when the search reached no leaf.
    """

    def __init__(self, message: str, incumbent: tuple[float, Schedule] | None = None):
        super().__init__(message)
        self.incumbent = incumbent


def _prepared(
    jobs: list[Job], green: GreenTrace, tariff: Tariff, config: SimConfig
) -> tuple[list[Job], list[int], list[float], list[float]]:
    """Jobs in release order, plus per-slot green g, per-slot brown price b
    and per-job revenue rev as plain Python numbers."""
    check_jobs(jobs, config)
    order = release_order(jobs)
    g = [int(v) for v in horizon_supply(green, config)]
    b = [float(v) for v in brown_cost_vector(tariff, config)]
    rev = [job_revenue(j, tariff, config) for j in order]
    return order, g, b, rev


def _canonical_profit(
    rev_selected: list[float], demand: np.ndarray, g: list[int], b: list[float]
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
    for d, gt, bt in zip(demand.tolist(), g, b):
        over = d - gt
        if over > 0:
            cost += bt * over
    return revenue - cost


def _fields(n: int, w: int) -> int:
    """n consecutive w-bit fields that each hold 1."""
    return ((1 << (w * n)) - 1) // ((1 << w) - 1)


def _field_width(M: int) -> int:
    """Bits per slot of the packed demand: whole bytes, a power of two of
    them, with the top bit spare as the guard (see ``_window``). That is 8
    while M <= 127, then 16, 32 or 64, so a window decodes with one
    ``int.to_bytes`` and, past one byte, a ``memoryview.cast``."""
    w = 8
    while M >> (w - 1):
        w *= 2
    if w > 64:
        raise ValueError(f"{M} machines do not fit a 64-bit demand field")
    return w


def _cost_row(q: int, g: int, b: float, M: int) -> tuple[float, ...]:
    """The marginal cost of q more nodes in a slot with green g and brown
    price b, at each demand d = 0..M already there: b * min(q - g + d, q)
    where that shortfall is positive, else 0.0. Built as its three runs
    (0.0, the part shortfalls, b * q), so a wide cluster's rows stay cheap."""
    none = min(max(g - q + 1, 0), M + 1)  # d <= g - q
    part = min(g + 1, M + 1)  # d <= g
    return (
        (0.0,) * none
        + tuple([b * over for over in range(q - g + none, q - g + part)])
        + (b * q,) * (M + 1 - part)
    )


class _CostRows:
    """One solve's cost rows, shared by every slot and job with equal
    (q, g[t], b[t]): a job's rows hold one row per window slot, so slot
    release + k at demand x costs ``rows[k][x]``. An option's cost is its
    slots' costs added left to right from 0.0."""

    def __init__(self, g: list[int], b: list[float], M: int):
        self._pairs = list(zip(g, b))
        self._by_nodes: dict[int, list[tuple[float, ...]]] = {}
        self._M = M

    def of(self, job: Job) -> list[tuple[float, ...]]:
        """The job's rows, one per window slot."""
        q = job.nodes
        rows = self._by_nodes.get(q)
        if rows is None:  # every slot's row for q nodes
            rows = self._by_nodes[q] = []
            shared: dict[tuple[int, float], tuple[float, ...]] = {}
            for gb in self._pairs:
                row = shared.get(gb)
                if row is None:
                    row = shared[gb] = _cost_row(q, *gb, self._M)
                rows.append(row)
        return rows[job.release : job.deadline + 1]


_CASTS = {16: "H", 32: "I", 64: "Q"}  # memoryview formats of the wider fields
_STEP = 1 if sys.byteorder == "little" else -1  # native-order fields, in slot order
_REJECT = ((),)  # rejection, the last option of every job: no slots


class _Window(NamedTuple):
    """How a node reads one job's window of L slots out of the packed
    demand; ``_solve`` builds it on its first entry at the job's depth.

    Adding ``lift``, 2**(w-1) - 1 - (M - q) in each field, to a field of at
    most M demand sets its top (guard) bit exactly where demand + q > M,
    and never carries into the next field. A job wider than the cluster
    gets no lift and no guard bits, so no slot has room for it.
    """

    shift: int  # bit of the release slot's field
    mask: int  # the window's L fields
    size: int  # bytes the window's fields fill
    lift: int  # window-relative, as is guard
    guard: int
    width: int  # bytes per field
    code: str | None  # memoryview format of a field wider than a byte
    proc_time: int
    runs: list[int]  # contiguous: shifts that AND runs of room up to proc_time slots
    spans: list[tuple[int, ...]] | None  # contiguous: the offsets of the start at each offset
    block: int  # contiguous: q in each of proc_time fields


def _window(job: Job, M: int, w: int, contiguous: bool) -> _Window:
    p, q = job.proc_time, job.nodes
    L = job.deadline - job.release + 1
    mask = (1 << w * L) - 1
    ones = mask // ((1 << w) - 1)
    fits = q <= M
    runs = []  # a run of `have` slots with room, ANDed with itself `step` slots on
    have = 1
    while have < p:
        step = min(have, p - have)
        runs.append(w * step)
        have += step
    return _Window(
        w * job.release,
        mask,
        w * L // 8,
        ((1 << w - 1) - 1 - (M - q)) * ones if fits else 0,
        ones << w - 1 if fits else 0,
        w // 8,
        _CASTS.get(w),
        p,
        runs,
        [tuple(range(o, o + p)) for o in range(L - p + 1)] if contiguous else None,
        q * _fields(p, w),
    )


def _decode(packed: int, window: _Window) -> tuple[bytes | memoryview, list | Iterator]:
    """One node's read of its job's window under the packed demand: the
    demand of each window slot, index k for slot release + k, and the job's
    options as window offsets, rejection ``()`` last.

    The window's fields are one shift and one mask, and its demand one
    ``int.to_bytes``. The room int holds a guard bit in each slot where q
    more nodes fit. A scattered option is any proc_time-subset of those
    slots, in lexicographic order. A contiguous one is a start-table span:
    ANDing the room int with itself shifted leaves a guard bit at each start
    of proc_time slots with room, read as bytes.
    """
    shift, mask, size, lift, guard, width, code, p, runs, spans, _ = window
    d = packed >> shift & mask
    room = (d + lift & guard) ^ guard
    if code is None:
        demand = d.to_bytes(size, "little")
    else:
        demand = memoryview(d.to_bytes(size, sys.byteorder)).cast(code)[::_STEP]
    if spans is None:
        spare = room.to_bytes(size, "little")[width - 1 :: width]
        return demand, itertools.chain(
            itertools.combinations(itertools.compress(range(len(spare)), spare), p), _REJECT
        )
    for s in runs:
        room &= room >> s
    starts = room.to_bytes(size, "little")[width - 1 :: width]
    options = list(itertools.compress(spans, starts))
    options.append(())
    return demand, options


def _job_bounds(
    job: Job, rev: float, rows: list[tuple[float, ...]], M: int
) -> tuple[float, float]:
    """The job's bound and cost floor, from its cost rows at demand 0 (its
    slot costs over its window on an empty grid), cheapest first. On a
    loaded grid a slot's marginal cost is never below its empty-grid cost.

    The bound is the best profit the job could add, never below zero:
    revenue less its proc_time cheapest costs. Any placement, contiguous
    or not, costs at least that much. The floor is proc_time copies of the
    cheapest cost; no placement, on any grid, sums to less. Both are added
    left to right from 0.0 as an option's costs are (not sum(): it rounds
    by Python version), and IEEE addition is monotone in each operand, so
    the floor holds to the bit. A job wider than the cluster has no
    placement: its bound is 0.0 and its floor ``math.inf``, so
    ``_ceiling`` never adds it.
    """
    if job.nodes > M:
        return 0.0, math.inf
    costs = sorted([row[0] for row in rows])
    cheapest = floor = 0.0
    for c in costs[: job.proc_time]:  # the window holds proc_time slots
        cheapest += c
        floor += costs[0]
    return max(0.0, rev - cheapest), floor


def _ceiling(cur: float, rest: Iterable[tuple[float, float]]) -> float:
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


def _solve(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    max_steps: int,
    contiguous: bool,
) -> tuple[float, Schedule]:
    """Depth-first branch and bound shared by both exact solvers.

    Job i branches over its options in ``_decode``'s order, then rejection.
    There is no starting incumbent: the first leaf sets it and only strict
    improvements replace it. A subtree is cut when its value so far plus the
    remaining jobs' ``_job_bounds`` sum cannot beat the incumbent. A subtree
    is also cut when an earlier one at the same depth held, over the slots the
    remaining jobs can use, the same demand at no lower value, or pointwise
    no more demand at the same value. Marginal slot costs never fall as
    demand rises, and IEEE sums are monotone in each operand, so each of
    its leaves is then, to the bit, no better than a leaf already searched:
    the returned optimum and its tie rule are the same as without the cut.
    Both cuts run in the parent, before a child is entered, and a node
    reads its job's window once, with one ``_decode``, for all its options.

    The bound sum is tight but rounds apart from the leaves, so it can sit
    an ulp above an optimum already found. So a node also stops once its
    ``_ceiling``, summed in the leaves' own steps, cannot beat the
    incumbent: no leaf it cuts would have replaced the incumbent. The
    ceiling is summed only once the incumbent is within the node's
    ``_ceiling_margins`` entry of the bound sum; short of that it cannot cut.

    Each pass of a node's option loop is one step, whether its child is
    entered, cut or a leaf. Past ``max_steps`` steps the search raises
    ``SearchBudgetError``, which carries the incumbent. Set-up is one pass
    over the jobs, linear in jobs times window length; a depth's window
    table and memo masks are built on the search's first entry there. The
    memo and peer lists grow by at most one key per step, so the budget bounds
    memory; a step's time is not fixed, as it scans the child's same-value
    peers. The search nests one call per job, so more jobs than Python's
    recursion limit allows raise ``SearchBudgetError`` too. Jobs that
    share an id raise ValueError before the search starts.
    """
    label = "non-preemptive" if contiguous else "preemptive"
    order, g, b, rev = _prepared(jobs, green, tariff, config)
    n = len(order)
    T = config.horizon_slots
    M = config.machines
    # A node's demand is one int, w bits per slot (``_field_width``) with the
    # top one spare.
    # Jobs are in release order, so jobs i.. only touch slots from order[i]'s
    # release to the last deadline of jobs i..: their options and marginal
    # costs depend on the demand there alone. Masking out those slots gives
    # the memo key, and one subtraction tests two keys pointwise: no field
    # borrows, and each field of (key | guard) - peer keeps its guard bit
    # exactly where peer's is no larger. A child is its parent's int plus
    # its option's, so a child cut unentered writes nothing.
    w = _field_width(M)
    costs = _CostRows(g, b, M)
    rows = [costs.of(job) for job in order]
    suffix = [0.0] * (n + 1)
    floors = [0.0] * n
    ends = [-1] * (n + 1)  # the last deadline of jobs i..
    for i in range(n - 1, -1, -1):
        job = order[i]
        bound, floors[i] = _job_bounds(job, rev[i], rows[i], M)
        suffix[i] = suffix[i + 1] + bound
        ends[i] = max(ends[i + 1], job.deadline)
    margins = _ceiling_margins(order, rev, b)
    # built on the search's first entry at depth i: job i's window, and the
    # memo key mask and guard bits of the nodes at depth i + 1
    windows: list[_Window | None] = [None] * n
    key_masks = [0] * n
    guards = [0] * n

    best_value = -math.inf
    best_assign: list = []
    steps = 0
    chosen: list = [()] * n  # window offsets of each job's option
    memo: list[dict] = [{} for _ in range(n)]  # masked demand -> best cur
    peers: list[dict] = [{} for _ in range(n)]  # cur -> masked demands entered at cur

    def priced(assign: list) -> tuple[float, Schedule]:
        # a complete assignment's schedule, valued in the canonical order
        schedule = Schedule(M, T)
        rev_selected = []
        for job, offsets, r in zip(order, assign, rev):
            if offsets:
                slots = [job.release + k for k in offsets]
                commit(job, range(slots[0], slots[-1] + 1) if contiguous else slots, schedule)
                rev_selected.append(r)
        return _canonical_profit(rev_selected, schedule.demand, g, b), schedule

    def expand(i: int, cur: float, packed: int) -> None:
        # Search job i's options, then its rejection. The caller has cut this
        # node by bound and by memo; each child is cut here before it is
        # entered, and a child at depth n sets the incumbent directly.
        nonlocal best_value, best_assign, steps
        nxt = i + 1
        leaf = nxt == n
        window = windows[i]
        if window is None:
            window = windows[i] = _window(order[i], M, w, contiguous)
            if not leaf:
                r = order[nxt].release
                ones = _fields(ends[nxt] + 1 - r, w) << w * r
                key_masks[nxt] = ones * ((1 << w) - 1)
                guards[nxt] = ones << w - 1
        demand, options = _decode(packed, window)
        cost = rows[i]  # slot release + k costs cost[k][demand[k]]
        if not contiguous:
            # subsets share their slots: read each slot's cost once for all
            cost = list(map(operator.getitem, cost, demand))
        gain = rev[i]
        reach = cur + suffix[i]
        near = reach - margins[i]
        ceiled = False
        rest = suffix[nxt]
        if not leaf:
            seen_at = memo[nxt]
            peers_at = peers[nxt]
            mask = key_masks[nxt]
            guard = guards[nxt]
            shift = window.shift
            block = window.block
            q = order[i].nodes
        for offsets in options:
            steps += 1
            if steps > max_steps:
                raise SearchBudgetError(
                    f"{label} exact search stopped at step {steps}, past its "
                    f"budget of {max_steps} options priced; raise "
                    "offline_max_steps to search longer"
                )
            # a deeper leaf may have raised the incumbent since the parent's cut
            if best_value >= near:
                if not ceiled:
                    reach = min(reach, _ceiling(cur, zip(rev[i:], floors[i:])))
                    ceiled = True
                if reach <= best_value:
                    break
            if offsets:
                mc = 0.0
                if contiguous:
                    for k in offsets:
                        mc += cost[k][demand[k]]
                else:
                    for k in offsets:
                        mc += cost[k]
                value = cur + gain - mc
            else:
                value = cur
            if value + rest <= best_value:
                continue
            chosen[i] = offsets
            if leaf:
                best_value = value
                best_assign = chosen.copy()
                continue
            if not offsets:
                child = packed
            elif contiguous:
                child = packed + (block << shift + w * offsets[0])
            else:
                add = 0
                for k in offsets:
                    add += q << w * k
                child = packed + (add << shift)
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

    try:
        if n:
            expand(0, 0.0, 0)
    except SearchBudgetError as stop:
        # priced here, off the search's deep stack
        stop.incumbent = priced(best_assign) if best_assign else None
        raise
    except RecursionError:
        # one frame per job, so the depth is the job count
        raise SearchBudgetError(
            f"{label} exact search of {n} jobs needs {n} nested calls, past "
            f"Python's recursion limit of {sys.getrecursionlimit()}; solve "
            "fewer jobs at once",
            priced(best_assign) if best_assign else None,
        ) from None
    finally:
        expand = None  # expand reaches itself through its closure; unlink to free the search
    return priced(best_assign)


def solve_nonpreemptive_exact(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    max_steps: int = MAX_STEPS,
) -> tuple[float, Schedule]:
    """Maximize net profit over contiguous placements, exactly.

    Branches per job over rejection and every start in its window, bounded
    by the remaining jobs' best-case marginal profits on an empty grid. Of
    all profit-maximal assignments, the one whose start vector (rejection
    sorting last) is lexicographically smallest in release order is returned.
    Raises ``SearchBudgetError`` past ``max_steps`` options priced.
    """
    return _solve(jobs, green, tariff, config, max_steps, contiguous=True)


def solve_preemptive_exact(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    max_steps: int = MAX_STEPS,
) -> tuple[float, Schedule]:
    """Maximize net profit over scattered placements, exactly.

    Branches per job over rejection and every proc_time-subset of its spare
    slots (lexicographic order, so ties resolve to the smallest slot
    vector). Node identities are not part of the search: capacity is
    fungible, so the optimum holds slots and node counts only.
    ``node_assignment`` finds fixed node ids for it where they exist.
    Raises ``SearchBudgetError`` past ``max_steps`` options priced.
    """
    return _solve(jobs, green, tariff, config, max_steps, contiguous=False)


def _picks(free: list[int], group: dict[int, int], q: int) -> Iterator[tuple[int, ...]]:
    """The q-subsets of ``free`` (ascending ids) that hold a prefix of every
    group (the nodes of one ``group`` value), in ``combinations`` order."""
    if q == 0:
        yield ()
    elif len(free) >= q:
        m, rest = free[0], free[1:]
        for tail in _picks(rest, group, q - 1):
            yield (m, *tail)
        yield from _picks([n for n in rest if group[n] != group[m]], group, q)


def node_assignment(schedule: Schedule) -> dict[int, tuple[int, ...]] | None:
    """Concrete node sets realizing a fungible-capacity schedule.

    Each job gets a fixed set of node ids it holds in every active slot,
    with no two time-overlapping jobs sharing a node; returns None when no
    such assignment exists (possible only for scattered placements with
    odd overlap structure, never for contiguous ones). Of all assignments,
    the first in ``itertools.combinations`` order per job, taken in order
    of first active slot, is returned.

    Backtracking search in which each node holds a bitmask of the later
    jobs it is barred from. Free nodes with equal masks are interchangeable,
    so a job branches only over how many it takes from each such group,
    lowest ids first: swapping a pick's node for a lower free one of its
    group gives a smaller pick that works whenever the first one does.
    """
    order = sorted(schedule.placements, key=lambda p: (p.active_slots[0], p.job_id))
    slot_sets = [set(p.active_slots) for p in order]
    later = [
        sum(1 << j for j in range(i + 1, len(order)) if slot_sets[i] & slot_sets[j])
        for i in range(len(order))
    ]
    assign: dict[int, tuple[int, ...]] = {}

    def rec(i: int, barred: list[int]) -> bool:
        if i == len(order):
            return True
        group = {m: mask >> i for m, mask in enumerate(barred) if not mask >> i & 1}
        for pick in _picks(list(group), group, order[i].nodes):
            assign[order[i].job_id] = pick
            after = [mask | later[i] if m in pick else mask for m, mask in enumerate(barred)]
            if rec(i + 1, after):
                return True
        return False

    found = rec(0, [0] * schedule.machines)
    rec = None  # rec reaches itself through its closure; unlink to free it
    return assign if found else None


# ---------------------------------------------------------------------------
# LP text emission


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _wrap_terms(head: str, terms: list[tuple[float, str]], tail: str = "") -> list[str]:
    """One LP row: the signed terms after head, then tail, wrapped at term
    boundaries to 76 columns onto deeper-indented continuation lines."""
    out: list[str] = []
    cur = " " + head
    for k, (coef, name) in enumerate(terms):
        body = name if abs(coef) == 1 else f"{_fmt(abs(coef))} {name}"
        sign = "-" if coef < 0 else ("+" if k else "")
        part = f"{sign} {body}" if sign else body
        if len(cur) + 1 + len(part) > 76 and cur.strip() != head:
            out.append(cur)
            cur = "   " + part
        else:
            cur = f"{cur} {part}"
    if tail:
        cur = f"{cur} {tail}"
    out.append(cur)
    return out


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
    lines = [f"\\ offline profit model, {variant}, {len(order)} jobs, {T} slots, {M} nodes"]
    lines += [
        f"\\ job {i}: id={job.id} window=[{job.release},{job.deadline}] "
        f"p={job.proc_time} q={job.nodes}"
        for i, job in enumerate(order)
    ]
    obj = [(rev[i], f"y_{i}") for i in range(len(order))]
    obj += [(-b[t], f"aux_{t}") for t in range(T) if b[t] != 0]
    lines += ["Maximize", *_wrap_terms("obj:", obj), "Subject To"]

    busy = [[(1.0, f"e_{t}")] for t in range(T)]
    binaries = [f"y_{i}" for i in range(len(order))]
    for i, job in enumerate(order):
        # a preemptive job runs as proc_time one-slot pieces, a contiguous one as one
        p = 1 if preemptive else job.proc_time
        once = []
        for s in range(job.release, job.deadline - p + 2) if job.nodes <= M else ():
            name = f"{prefix}_{i}_{s}"
            once.append((1.0, name))
            binaries.append(name)
            for t in range(s, s + p):
                busy[t].append((-float(job.nodes), name))
        count = float(job.proc_time if preemptive else 1)
        lines += _wrap_terms(f"once_{i}:", once + [(-count, f"y_{i}")], "= 0")
    for t in range(T):
        lines += _wrap_terms(f"load_{t}:", busy[t], "= 0")
        lines += _wrap_terms(f"cap_{t}:", [(1.0, f"e_{t}")], f"<= {_fmt(M)}")
        energy = [(1.0, f"e_{t}"), (-1.0, f"aux_{t}")]
        lines += _wrap_terms(f"energy_{t}:", energy, f"<= {_fmt(g[t])}")
    if binaries:
        lines.append("Binaries")
        lines += [" " + " ".join(binaries[k : k + 8]) for k in range(0, len(binaries), 8)]
    lines.append("End")
    return "\n".join(lines) + "\n"
