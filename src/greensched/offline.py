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
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace

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


def _fields(n: int, w: int) -> int:
    """n consecutive w-bit fields that each hold 1."""
    return ((1 << (w * n)) - 1) // ((1 << w) - 1)


def _slot_costs(job: Job, packed: int, w: int, g: list[int], b: list[float]) -> list[float]:
    """Marginal cost of the job's nodes in each slot up to its deadline:
    b[t] times the shortfall they add (never more than q), 0.0 before its
    release. Slot t's demand is the w-bit field of ``packed`` at bit w * t.
    An option's cost is its slots' costs added left to right from 0.0.
    """
    q = job.nodes
    field = (1 << w) - 1
    # the window's fields alone: d is 0 from its last loaded slot on
    d = packed >> (w * job.release) & (1 << (w * (job.deadline - job.release + 1))) - 1
    costs = [0.0] * job.release
    for t in range(job.release, job.deadline + 1):
        over = q - g[t]
        if d:
            over += d & field
            d >>= w
        costs.append(b[t] * (q if over > q else over) if over > 0 else 0.0)
    return costs


# Each variant of the search is one option generator: it lists the job's
# placements under the packed demand in ascending lexicographic order, each
# with the packed demand it adds. That is an int, or for a scattered option
# the node's dict of per-slot parts, summed over the option's slots only for
# a child past the bound.


def _short(job: Job, packed: int, M: int) -> tuple[int, int]:
    """The field width w, and the guard bits of the job's window slots that
    lack room for its q nodes: slot release + k's is bit w * k + w - 1.

    Fields are M.bit_length() + 1 bits wide, so adding 2**(w-1) - 1 - (M - q)
    to a field of at most M demand sets its top (guard) bit exactly where
    demand + q > M, and never carries into the next field.
    """
    w = M.bit_length() + 1
    top = 1 << (w - 1)
    ones = _fields(job.deadline - job.release + 1, w)
    lifted = (packed >> (w * job.release)) + (top - 1 - (M - job.nodes)) * ones
    return w, lifted & ones * top


def _contiguous_options(job: Job, packed: int, M: int):
    """Every window of proc_time consecutive slots with q spare nodes each."""
    p, q = job.proc_time, job.nodes
    if q > M:
        return
    w, short = _short(job, packed, M)
    block = _fields(p, w)
    need = block << (w - 1)
    block *= q
    for s in range(job.release, job.deadline - p + 2):
        if not short & need:
            yield range(s, s + p), block << (w * s)
        short >>= w


def _scattered_options(job: Job, packed: int, M: int):
    """Every proc_time-subset of the slots with q spare nodes."""
    q = job.nodes
    if q > M:
        return ()
    w, short = _short(job, packed, M)
    top = 1 << (w - 1)
    parts = {}  # spare slot -> the packed demand q nodes add there, in slot order
    for t in range(job.release, job.deadline + 1):
        if not short & top:
            parts[t] = q << (w * t)
        short >>= w
    return zip(itertools.combinations(parts, job.proc_time), itertools.repeat(parts))


def _job_bounds(
    job: Job, rev: float, g: list[int], b: list[float], M: int
) -> tuple[float, float]:
    """The job's bound and cost floor, from its slot costs over its window
    [release, deadline] on an empty grid, cheapest first. On a loaded grid
    a slot's marginal cost is never below its empty-grid cost.

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
    costs = sorted(_slot_costs(job, 0, 1, g, b)[job.release :])  # empty at any field width
    if job.nodes > M:
        return 0.0, math.inf
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


_REJECT = (((), 0),)  # rejection, the last option of every job: no slots


def _solve(
    jobs: list[Job],
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    max_steps: int,
    label: str,
    options,
) -> tuple[float, Schedule]:
    """Depth-first branch and bound shared by both exact solvers.

    Job i branches over ``options`` in order, then rejection. There is no
    starting incumbent: the first leaf sets it and only strict improvements
    replace it. A subtree is cut when its value so far plus the remaining
    jobs' ``_job_bounds`` sum cannot beat the incumbent. A subtree is also
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

    Each pass of a node's option loop is one step, whether its child is
    entered, cut or a leaf. Past ``max_steps`` steps the search raises
    ``SearchBudgetError``, which carries the incumbent. Set-up is one pass
    over the jobs, linear in jobs times window length, and the memo and
    peer lists grow by at most one key per step, so the budget bounds
    memory; a step's time is not fixed, as it scans the child's same-value
    peers. The search nests one call per job, so more jobs than Python's
    recursion limit allows raise ``SearchBudgetError`` too. Jobs that
    share an id raise ValueError before the search starts.
    """
    order, g, b, rev = _prepared(jobs, green, tariff, config)
    n = len(order)
    T = config.horizon_slots
    M = config.machines
    # A node's demand is one int, w bits per slot with the top one spare.
    # Jobs are in release order, so jobs i.. only touch slots from order[i]'s
    # release to the last deadline of jobs i..: their options and marginal
    # costs depend on the demand there alone. Masking out those slots gives
    # the memo key, and one subtraction tests two keys pointwise: no field
    # borrows, and each field of (key | guard) - peer keeps its guard bit
    # exactly where peer's is no larger. A child is its parent's int plus
    # its option's, so a child cut unentered writes nothing.
    w = M.bit_length() + 1
    suffix = [0.0] * (n + 1)
    floors = [0.0] * n
    key_masks = [0] * n
    guards = [0] * n
    end = -1
    for i in range(n - 1, -1, -1):
        job = order[i]
        bound, floors[i] = _job_bounds(job, rev[i], g, b, M)
        suffix[i] = suffix[i + 1] + bound
        end = max(end, job.deadline)
        ones = _fields(end + 1 - job.release, w) << (w * job.release)
        key_masks[i] = ones * ((1 << w) - 1)
        guards[i] = ones << (w - 1)
    margins = _ceiling_margins(order, rev, b)

    best_value = -math.inf
    best_assign: list = []
    steps = 0
    chosen: list = [()] * n
    memo: list[dict] = [{} for _ in range(n)]  # masked demand -> best cur
    peers: list[dict] = [{} for _ in range(n)]  # cur -> masked demands entered at cur

    def priced(assign: list) -> tuple[float, Schedule]:
        # a complete assignment's schedule, valued in the canonical order
        schedule = Schedule(M, T)
        rev_selected = []
        for i, slots in enumerate(assign):
            if slots:
                commit(order[i], slots, schedule)
                rev_selected.append(rev[i])
        return _canonical_profit(rev_selected, schedule.demand, g, b), schedule

    def expand(i: int, cur: float, packed: int) -> None:
        # Search job i's options, then its rejection. The caller has cut this
        # node by bound and by memo; each child is cut here before it is
        # entered, and a child at depth n sets the incumbent directly.
        nonlocal best_value, best_assign, steps
        job = order[i]
        gain = rev[i]
        reach = cur + suffix[i]
        near = reach - margins[i]
        ceiled = False
        costs = _slot_costs(job, packed, w, g, b)
        nxt = i + 1
        rest = suffix[nxt]
        leaf = nxt == n
        if not leaf:
            seen_at = memo[nxt]
            peers_at = peers[nxt]
            mask = key_masks[nxt]
            guard = guards[nxt]
        for slots, add in itertools.chain(options(job, packed, M), _REJECT):
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
            child = packed + (add if add.__class__ is int else sum(map(add.__getitem__, slots)))
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
    return _solve(
        jobs, green, tariff, config, max_steps, "non-preemptive", _contiguous_options
    )


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
    return _solve(jobs, green, tariff, config, max_steps, "preemptive", _scattered_options)


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
        piece = replace(job, proc_time=1) if preemptive else job
        once = []
        for slots, _ in _contiguous_options(piece, 0, M):
            name = f"{prefix}_{i}_{slots[0]}"
            once.append((1.0, name))
            binaries.append(name)
            for t in slots:
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
