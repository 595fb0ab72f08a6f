"""Reference implementations the fast code is checked against.

Everything here favors obviousness over speed: plain loops, full
enumeration, no bounding. The enumerators mirror the solvers' fixed
profit-summation order (revenue in job order, then brown cost in slot
order) so equality assertions can be exact rather than approximate.
"""

import itertools
import math

import numpy as np

from greensched import offline
from greensched.model import (
    Job,
    SimConfig,
    nonpreemptive_starts,
    preemptive_slots,
    slot_index,
    spare_slots,
)
from greensched.pricing import (
    GreenTrace,
    Tariff,
    account,
    brown_cost_vector,
    job_revenue,
    normalized_values,
    random_fit_params,
)
from greensched.schedulers import LogEntry, OnlineState, _seeded_coin, place, run_online


def profit_of(rev_selected, demand, g, b) -> float:
    revenue = 0.0
    for v in rev_selected:
        revenue += v
    cost = 0.0
    for t in range(len(b)):
        over = int(demand[t]) - g[t]
        if over > 0:
            cost += b[t] * over
    return revenue - cost


def marginal_cost(slots, demand, g, b, q) -> float:
    """Brown cost that q more nodes in slots add, summed in slot order."""
    mc = 0.0
    for t in slots:
        over_new = demand[t] + q - g[t]
        if over_new > 0:
            over_old = demand[t] - g[t]
            mc += b[t] * (over_new - over_old if over_old > 0 else over_new)
    return mc


def recomputed_demand(schedule) -> np.ndarray:
    """Demand rebuilt from placements alone."""
    demand = np.zeros(schedule.horizon, dtype=np.int64)
    for p in schedule.placements:
        for t in p.active_slots:
            demand[t] += p.nodes
    return demand


def backtrack_node_assignment(schedule):
    """``offline.node_assignment`` by plain backtracking: every
    ``itertools.combinations`` of a job's free nodes, in order, with no
    grouping of interchangeable nodes."""
    M = schedule.machines
    order = sorted(schedule.placements, key=lambda p: (p.active_slots[0], p.job_id))
    slot_sets = [set(p.active_slots) for p in order]
    overlaps = [
        [j for j in range(i) if slot_sets[i] & slot_sets[j]] for i in range(len(order))
    ]
    assign = {}

    def rec(i):
        if i == len(order):
            return True
        taken = set()
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

    return assign if rec(0) else None


def feasible_windows(job, schedule, preemptive=False) -> list[tuple[int, ...]]:
    """All placements open to the job under current demand.

    Non-preemptive: every contiguous window of proc_time slots inside
    [release, deadline] with spare capacity at each slot, ordered by start.
    Preemptive: the single greedy earliest set of proc_time spare slots
    (one candidate or none).
    """
    if preemptive:
        slots = preemptive_slots(job, schedule)
        if slots.size == 0:
            return []
        return [tuple(int(t) for t in slots)]
    p = job.proc_time
    return [
        tuple(range(int(s), int(s) + p)) for s in nonpreemptive_starts(job, schedule)
    ]


def _prepared(jobs, green, tariff, config):
    order = sorted(jobs, key=lambda j: (j.release, j.deadline, j.id))
    g = [int(v) for v in green.supply[: config.horizon_slots]]
    b = [float(v) for v in brown_cost_vector(tariff, config)]
    rev = [job_revenue(j, tariff, config) for j in order]
    return order, g, b, rev


def enumerate_nonpreemptive(jobs, green, tariff, config):
    """Best (profit, start-per-job) over every start vector, by recursion.

    Options per job are tried starts-ascending with rejection last, and only
    strict improvements replace the incumbent, so of all optimal vectors the
    lexicographically smallest (None sorting last) is the one returned.
    """
    order, g, b, rev = _prepared(jobs, green, tariff, config)
    T, M = config.horizon_slots, config.machines
    n = len(order)
    demand = [0] * T
    chosen: list[int | None] = [None] * n
    best = {"value": float("-inf"), "assign": None}

    def options(job: Job):
        opts: list[int | None] = []
        if job.nodes <= M:
            for s in range(job.release, job.deadline - job.proc_time + 2):
                if all(demand[t] + job.nodes <= M for t in range(s, s + job.proc_time)):
                    opts.append(s)
        opts.append(None)
        return opts

    def rec(i: int) -> None:
        if i == n:
            rev_selected = [rev[k] for k in range(n) if chosen[k] is not None]
            value = profit_of(rev_selected, demand, g, b)
            if value > best["value"]:
                best["value"] = value
                best["assign"] = chosen.copy()
            return
        job = order[i]
        for s in options(job):
            if s is not None:
                for t in range(s, s + job.proc_time):
                    demand[t] += job.nodes
            chosen[i] = s
            rec(i + 1)
            if s is not None:
                for t in range(s, s + job.proc_time):
                    demand[t] -= job.nodes
            chosen[i] = None

    rec(0)
    return best["value"], best["assign"], order


def enumerate_preemptive(jobs, green, tariff, config):
    """Best (profit, slot-subset-per-job) over every subset vector."""
    order, g, b, rev = _prepared(jobs, green, tariff, config)
    T, M = config.horizon_slots, config.machines
    n = len(order)
    demand = [0] * T
    chosen: list[tuple[int, ...] | None] = [None] * n
    best = {"value": float("-inf"), "assign": None}

    def rec(i: int) -> None:
        if i == n:
            rev_selected = [rev[k] for k in range(n) if chosen[k] is not None]
            value = profit_of(rev_selected, demand, g, b)
            if value > best["value"]:
                best["value"] = value
                best["assign"] = chosen.copy()
            return
        job = order[i]
        opts: list[tuple[int, ...] | None] = []
        if job.nodes <= M:
            spare = [
                t
                for t in range(job.release, job.deadline + 1)
                if demand[t] + job.nodes <= M
            ]
            opts.extend(itertools.combinations(spare, job.proc_time))
        opts.append(None)
        for slots in opts:
            if slots is not None:
                for t in slots:
                    demand[t] += job.nodes
            chosen[i] = slots
            rec(i + 1)
            if slots is not None:
                for t in slots:
                    demand[t] -= job.nodes
            chosen[i] = None

    rec(0)
    return best["value"], best["assign"], order


def incremental_leaves(jobs, green, tariff, config, preemptive):
    """Every leaf of the exact search, valued as the search sums it.

    Jobs go in release order; each is rejected or placed on one of its
    options (contiguous windows, or any proc_time spare slots when
    ``preemptive``), adding ``value + revenue - cost`` with the cost summed
    in slot order. Yields (value at each depth along the path, leaf value).
    """
    order, g, b, rev = _prepared(jobs, green, tariff, config)
    M = config.machines
    demand = [0] * config.horizon_slots
    path: list[float] = []

    def options(job):
        if job.nodes > M:
            return []
        window = range(job.release, job.deadline + 1)
        if preemptive:
            spare = [t for t in window if demand[t] + job.nodes <= M]
            return list(itertools.combinations(spare, job.proc_time))
        starts = range(job.release, job.deadline - job.proc_time + 2)
        return [
            tuple(range(s, s + job.proc_time))
            for s in starts
            if all(demand[t] + job.nodes <= M for t in range(s, s + job.proc_time))
        ]

    def rec(i, value):
        if i == len(order):
            yield list(path), value
            return
        job = order[i]
        path.append(value)
        for slots in options(job):
            placed = value + rev[i] - marginal_cost(slots, demand, g, b, job.nodes)
            for t in slots:
                demand[t] += job.nodes
            yield from rec(i + 1, placed)
            for t in slots:
                demand[t] -= job.nodes
        yield from rec(i + 1, value)
        path.pop()

    return rec(0, 0.0)


def counted_nodes(solve, *args):
    """A solve's result and the number of search nodes it entered.

    ``offline._solve`` reads each node's window through one
    ``offline._decode`` call, and nothing else calls it during a solve, so
    the nodes are the calls.
    """
    calls = 0
    decode = offline._decode

    def counting(*a):
        nonlocal calls
        calls += 1
        return decode(*a)

    offline._decode = counting
    try:
        result = solve(*args)
    finally:
        offline._decode = decode
    return result, calls


def per_seed_profits(jobs, kind, green, tariff, config, seeds) -> np.ndarray:
    """Net profit of one full ``run_online`` per seed, trial by trial."""
    return np.array(
        [
            run_online(list(jobs), kind, green, tariff, config, seed=s)[1].net_profit
            for s in seeds
        ]
    )


class _Unscripted(Exception):
    """A coin flip past the end of the scripted outcomes."""


def enumerated_expected_profit(jobs, kind, green, tariff, config):
    """A randomized policy's exact expected net profit, and its coin paths.

    Every coin-outcome sequence is enumerated depth first. A run offers the
    jobs through ``place`` with a coin that replays a script of outcomes; a
    flip past the script abandons the run and explores the script extended
    by a keep and by a switch. A finished run's profit is weighted by the
    product, in flip order, of its outcomes' probabilities, and the terms
    are summed with ``math.fsum``. Returns (expectation, number of paths).
    """
    terms = []

    def explore(script):
        state = OnlineState.create(green, tariff, config)
        asked = []

        def coin(keep_first):
            if len(asked) == len(script):
                raise _Unscripted
            asked.append(keep_first)
            return script[len(asked) - 1]

        state.coin = coin
        try:
            for job in sorted(jobs, key=lambda j: (j.release, j.deadline, j.id)):
                place(job, state, kind)
        except _Unscripted:
            explore(script + (True,))
            explore(script + (False,))
            return
        assert len(asked) == len(script)
        weight = 1.0
        for keep_first, keep in zip(asked, script):
            weight *= keep_first if keep else 1.0 - keep_first
        terms.append(weight * account(state.schedule, green, tariff, config).net_profit)

    explore(())
    return math.fsum(terms), len(terms)


def decision_time_log(jobs, kind, green, tariff, config, seed=None):
    """The per-job log priced as each job is decided, and the run's schedule.

    Jobs are offered through ``place`` in (release, deadline, id) order. An
    admit draws green from the residual the jobs before it left, read from
    a demand snapshot taken before the offer, and pays brown for the rest.
    """
    state = OnlineState.create(green, tariff, config)
    if kind.randomized:
        state.coin = _seeded_coin(seed)
    log = []
    for job in sorted(jobs, key=lambda j: (j.release, j.deadline, j.id)):
        before = state.schedule.demand.copy()
        slots = place(job, state, kind)
        if slots is None:
            log.append(LogEntry(job.id, "reject", None, (), 0, 0, 0.0, 0.0))
            continue
        idx = slot_index(slots)
        residual = np.maximum(state.green[idx] - before[idx], 0)
        take = np.minimum(job.nodes, residual)
        cost = float(state.brown_cost[idx] @ (job.nodes - take))
        green_units = int(take.sum())
        log.append(
            LogEntry(
                job_id=job.id,
                decision="admit",
                start_slot=slots[0],
                slots=slots,
                green_units=green_units,
                brown_units=job.proc_time * job.nodes - green_units,
                revenue=job_revenue(job, tariff, config),
                cost=cost,
            )
        )
    return log, state.schedule


def random_instance(rng, max_jobs=5, max_slots=10, max_machines=3, min_machines=1):
    """A small random problem: (jobs, green, tariff, config)."""
    T = int(rng.integers(3, max_slots + 1))
    M = int(rng.integers(min_machines, max_machines + 1))
    n = int(rng.integers(1, max_jobs + 1))
    config = SimConfig(machines=M, horizon_slots=T, forecast_slots=T)
    jobs = []
    for i in range(n):
        p = int(rng.integers(1, min(4, T) + 1))
        r = int(rng.integers(0, T - p + 1))
        d = int(rng.integers(r + p - 1, T))
        q = int(rng.integers(1, M + 2))  # sometimes infeasible on purpose
        jobs.append(Job(id=i, release=r, deadline=d, proc_time=p, nodes=q))
    green = GreenTrace(rng.integers(0, M + 1, size=T))
    # random day pattern so on/off peak structure varies per instance
    override = rng.random(T) < 0.5
    tariff = Tariff(peak_override=tuple(bool(x) for x in override))
    return jobs, green, tariff, config


def is_on_peak(t, tariff, config):
    """Whether slot t is billed at the on-peak price, decided for t alone.

    The override's flag where it reaches slot t, else whether t's slot of
    the day lies in the inclusive window; ``onpeak_vector`` must agree.
    """
    if tariff.peak_override is not None and t < len(tariff.peak_override):
        return bool(tariff.peak_override[t])
    s = t % config.slots_per_day
    return tariff.onpeak_start_slot <= s <= tariff.onpeak_end_slot


def full_horizon_choice(job, state, kind, tariff):
    """The online policies' slot choice, priced over the whole horizon.

    A plain restatement of the decision rule: residual green is computed for
    every slot and zeroed past the forecast, best-fit prices every slot, and
    random-fit tests its green path slot by slot and takes the release
    slot's peak flag from ``is_on_peak`` and its coin bias from the value
    ladder of ``tariff``, the one the state was created with. The engine
    prices only [0, deadline]; both must pick the same slots and draw the
    same coins.
    """
    p = job.proc_time
    preemptive = kind.kind.startswith("P")
    if preemptive:
        spare = spare_slots(job, state.schedule)
        if spare.size < p:
            return None
        first = tuple(int(t) for t in spare[:p])
    else:
        starts = nonpreemptive_starts(job, state.schedule)
        if starts.size == 0:
            return None
        s = int(starts[0])
        first = tuple(range(s, s + p))
    base = kind.kind[-2:]
    if base == "FF":
        return first
    vis = np.maximum(state.green - state.schedule.demand, 0)
    vis[job.release + state.config.forecast_slots :] = 0
    if base == "RF":
        if all(vis[t] >= job.nodes for t in first):
            return first
        params = random_fit_params(normalized_values(tariff, state.config))
        on_peak = is_on_peak(job.release, tariff, state.config)
        keep_first = params.p_on_to_off if on_peak else params.p_off_to_on
        if state.coin(keep_first):
            return first
    unit = state.brown_cost * np.maximum(0, job.nodes - vis)
    if preemptive:
        order = np.lexsort((spare, unit[spare]))
        return tuple(int(t) for t in np.sort(spare[order[:p]]))
    csum = np.concatenate(([0.0], np.cumsum(unit)))
    window_cost = csum[starts + p] - csum[starts]
    s = int(starts[int(np.argmin(window_cost))])
    return tuple(range(s, s + p))
