"""Online placement policies.

Jobs arrive in release order and each decision is final. First-fit commits to
the earliest feasible slots, best-fit to the slots with the cheapest marginal
brown energy, and random-fit flips a biased coin between the two whenever the
visible green supply cannot cover the whole first-fit pick. Preemptive
variants (PFF, PBF, PRF) may scatter a job over non-contiguous slots.

Decisions may look at green supply only within the forecast window of the
job's release; slots past the forecast are priced as if no green existed.
Final accounting always uses the true trace. ``place`` and ``run_online``
decide and commit only; ``decision_log`` derives the log from a schedule.
A contiguous pick travels to ``commit`` as a unit-step ``range``, which it
checks without a per-slot scan, and ``place`` returns the stored tuple.
Numpy's fixed cost per call exceeds the work on a pick's few slots, so
random-fit tests green on its pick's own slots with one subtraction read
out by ``tolist``, and ``commit`` checks and writes a pick's slots in
Python. The horizon-length visible green and prices are built only where
best-fit prices a pick: every BF and PBF decision, and a random-fit
decision whose coin switches.

An ``OnlineState`` holds the per-slot prices and on-peak flags of the
tariff it was created under, and its config; every decision on it uses
them. The coin is random-fit's only randomness, so a run is fixed by its
coin path, the outcomes of its flips.
``_play`` is the one place a run is played: it plays with the coin it is
given and reports every flip. ``run_online`` plays one seed's coin.
``run_trials`` draws every seed's coins in one batched numpy pass, bit-equal
to ``np.random.default_rng(seed)``, and keeps groups of trials whose coins
agree up to a split depth: a group plays its first seed's own run, and at
each flip from that depth on, the trials whose draw comes out the other way
leave as a new group one flip deeper. ``expected_profit`` alone replays
paths: every flip past a played path's end queues the path that switches
there, so each coin path is played once.
``run_trials`` takes its seeds as one ``range`` of any step, and only
``_check_seeds`` states that a seed is a 64-bit word, in [0, 2**64);
``run_online`` checks its seed as a one-seed range. The seeding reads the
range through ``np.arange`` and hashes every seed's words in stacked
arrays, so no Python step runs per seed.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    Job,
    Schedule,
    SimConfig,
    check_deadlines,
    commit,
    first_start,
    nonpreemptive_starts,
    release_order,
    slot_index,
    spare_slots,
)
from .pricing import (
    GreenTrace,
    ProfitReport,
    RandomFitParams,
    Tariff,
    account,
    brown_cost_vector,
    horizon_supply,
    job_revenue,
    onpeak_vector,
)

KINDS = ("FF", "BF", "RF", "PFF", "PBF", "PRF")

# random-fit's coin: given keep_first, True keeps first-fit's pick
Coin = Callable[[float], bool]


@dataclass(frozen=True)
class SchedulerKind:
    """Which policy to run; RF and PRF carry their mixing probabilities."""

    kind: str
    rf_params: RandomFitParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if self.randomized and self.rf_params is None:
            raise ValueError(f"{self.kind} needs rf_params")

    @property
    def randomized(self) -> bool:
        return self.kind in ("RF", "PRF")


@dataclass
class OnlineState:
    """Mutable run context: the schedule so far plus pricing lookups.

    ``green`` is the true supply and is never written; the residual pool is
    max(0, green - demand), derived where a decision or a draw needs it.
    ``brown_cost`` and ``on_peak`` are the shared per-slot vectors of the
    tariff the state was created under, and ``config`` its config, so every
    decision on it prices with them. ``coin(keep_first)`` is
    random-fit's coin: it returns True to keep first-fit's pick, which a
    fair draw does with probability ``keep_first``.
    """

    schedule: Schedule
    green: np.ndarray  # true supply per slot over the horizon, read-only
    brown_cost: np.ndarray  # $ per node-slot, indexed by slot, read-only
    on_peak: np.ndarray  # tariff's on-peak flag per slot, read-only
    config: SimConfig
    coin: Coin | None = None

    @classmethod
    def create(
        cls, green: GreenTrace, tariff: Tariff, config: SimConfig
    ) -> "OnlineState":
        supply = horizon_supply(green, config)
        supply.flags.writeable = False
        return cls(
            schedule=Schedule(config.machines, config.horizon_slots),
            green=supply,
            brown_cost=brown_cost_vector(tariff, config),
            on_peak=onpeak_vector(tariff, config),
            config=config,
        )


def _seeded_coin(seed: int) -> Coin:
    """The coin of a run seeded with ``seed``: one uniform draw per flip.

    The stream is ``np.random.default_rng(seed)``'s; the generator is built
    at the first flip, so a run that never flips never pays for it.
    """
    rng = None

    def coin(keep_first: float) -> bool:
        nonlocal rng
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(seed))
        return rng.random() < keep_first

    return coin


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 (XSL-RR output),
# restated on arrays so that many seeds are set up and drawn at once: a word
# per row, a seed per column
_M32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of n successive SeedSequence hashes.

    Each is an (n, 1) uint32 column, so hash i applies to row i of a word array.
    """
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & _M32
        mults.append(init)
    xor, mul = np.array([xors, mults], dtype=np.uint32)[..., None]
    return xor, mul


_HASH_XOR, _HASH_MULT = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # 4 fills + 12 mixes
_FILL = (_HASH_XOR[:4], _HASH_MULT[:4])
# (source, targets, hashes): the source word is hashed once per other word,
# with the next three constants in target order
_MIX_STEPS = [
    (src, np.array([d for d in range(4) if d != src]), (_HASH_XOR[k], _HASH_MULT[k]))
    for src, k in enumerate(slice(i, i + 3) for i in range(4, 16, 3))
]
# generate_state(4, uint64) hashes the 4 pool words twice over, in order:
# shaped (2, 4, 1) to broadcast against the (4, n) pool
_STATE = tuple(c.reshape(2, 4, 1) for c in _hash_consts(0x8B51F9DD, 0x58F38DED, 8))
_MIX_A, _MIX_B, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
# uint64 scalars for shifts and masks, built once: each np.uint64() call
# costs a third of a small array operation
_U64 = {k: np.uint64(k) for k in (1, 11, 32, 58, 63, 64, _M32)}
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO_LIMBS = (_PCG_MULT_LO & _U64[_M32], _PCG_MULT_LO >> _U64[32])


def _hashmix(value: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """A new array: ``value`` hashed with the broadcast (xor, multiply) pairs."""
    value = value ^ consts[0]
    value *= consts[1]
    value ^= value >> _XSHIFT
    return value


def _mulhi_mult_lo(a: np.ndarray) -> np.ndarray:
    """The high 64 bits of a * PCG64's low multiplier word, from 32-bit limbs."""
    low, half = _U64[_M32], _U64[32]
    b0, b1 = _PCG_MULT_LO_LIMBS
    a0, a1 = a & low, a >> half
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> half) + (p01 & low) + (p10 & low)
    return a1 * b1 + (p01 >> half) + (p10 >> half) + (mid >> half)


def _pcg_step(state: list[np.ndarray]) -> None:
    """state = state * multiplier + inc (mod 2**128), on (hi, lo) pairs."""
    hi, lo, inc_hi, inc_lo = state
    hi = _mulhi_mult_lo(lo) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    lo = lo * _PCG_MULT_LO + inc_lo
    state[:2] = hi + inc_hi + (lo < inc_lo), lo


def _pcg64_seeded(seeds: np.ndarray) -> list[np.ndarray]:
    """[hi, lo, inc_hi, inc_lo] of ``PCG64(s)`` for each uint64 seed s."""
    # SeedSequence: hash the seed's two 32-bit words into the pool (padding
    # to 4 words hashes as entropy 0 does), then mix every word into the
    # rest; a source word is not written while it is mixed, so its three
    # targets update together
    words = np.zeros((4, seeds.size), dtype=np.uint32)
    words[0] = seeds  # the cast keeps the low 32 bits
    words[1] = seeds >> _U64[32]
    pool = _hashmix(words, _FILL)
    for src, targets, consts in _MIX_STEPS:
        hashed = _hashmix(pool[src], consts)
        hashed *= _MIX_B
        mixed = pool[targets]
        mixed *= _MIX_A
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        pool[targets] = mixed
    # generate_state(4, uint64): 8 hashed pool words, paired little-endian
    out = _hashmix(pool, _STATE).reshape(4, 2, -1).astype(np.uint64)
    w0, w1, w2, w3 = out[:, 0] | out[:, 1] << _U64[32]
    # PCG64: inc = (w2:w3 << 1) | 1; state = 0, step (which leaves inc),
    # += w0:w1, step
    one = _U64[1]
    inc_hi, inc_lo = w2 << one | w3 >> _U64[63], w3 << one | one
    lo = inc_lo + w1
    state = [inc_hi + w0 + (lo < w1), lo, inc_hi, inc_lo]
    _pcg_step(state)
    return state


def _check_seeds(seeds: range, noun: str) -> None:
    """Raise unless ``seeds`` is a range of 64-bit words, in [0, 2**64).

    Anything but a ``range`` raises TypeError; a seed out of bounds raises
    ValueError. The check reads the range's two ends, whatever its step.
    """
    if not isinstance(seeds, range):
        raise TypeError(f"{noun} must be a range, got {type(seeds).__name__}")
    lowest, highest = sorted((seeds[0], seeds[-1])) if seeds else (0, 0)
    if lowest < 0:
        raise ValueError(f"{noun} must be non-negative, got {lowest}")
    if highest >> 64:
        raise ValueError(f"{noun} must be below 2**64, got {highest}")


class _SeedDraws:
    """``np.random.default_rng(s).random()`` for every seed s, a column per draw.

    ``column(d)`` holds each seed's (d+1)-th draw, bit for bit. The seeds
    are a range of 64-bit words (``_check_seeds`` checks), so all of them
    are set up from ``np.arange`` and stepped together on uint64 arrays. A
    column is computed the first time it is asked for, so seeds that never
    flip cost nothing.
    """

    def __init__(self, seeds: range):
        self.seeds = seeds
        self.columns: list[np.ndarray] = []
        self._pcg: list[np.ndarray] | None = None

    def column(self, depth: int) -> np.ndarray:
        while len(self.columns) <= depth:
            self.columns.append(self._draw())
        return self.columns[depth]

    def coin(self, row: int) -> Coin:
        """The coin of seed ``row``: its run's (d+1)-th flip reads ``column(d)``."""
        draws = (self.column(d)[row] for d in itertools.count())
        return lambda keep_first: bool(next(draws) < keep_first)

    def _draw(self) -> np.ndarray:
        """The next column: one PCG64 step and output per seed."""
        if self._pcg is None:
            # i * step + first wraps mod 2**64 onto each seed, whatever the step's sign
            seeds = self.seeds
            steps = np.arange(len(seeds), dtype=np.uint64)
            self._pcg = _pcg64_seeded(steps * np.uint64(seeds.step % 2**64) + np.uint64(seeds[0]))
        _pcg_step(self._pcg)
        hi, lo = self._pcg[:2]
        x, rot = hi ^ lo, hi >> _U64[58]
        x = x >> rot | x << (_U64[64] - rot & _U64[63])
        return (x >> _U64[11]).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class LogEntry:
    """One admit/reject decision, with the energy drawn at commit time."""

    job_id: int
    decision: str  # "admit" or "reject"
    start_slot: int | None
    slots: tuple[int, ...]
    green_units: int
    brown_units: int
    revenue: float
    cost: float


def _visible_green(job: Job, state: OnlineState) -> np.ndarray:
    """Residual green over slots [0, deadline] as the decision may see it.

    Slots past the forecast read zero. The vector stops at the deadline,
    since no slot after it can take the job.
    """
    end = job.deadline + 1
    vis = np.maximum(state.green[:end] - state.schedule.demand[:end], 0)
    vis[job.release + state.config.forecast_slots :] = 0
    return vis


def _run_or_slots(picked: np.ndarray) -> Sequence[int]:
    """Ascending distinct slots as ``commit`` takes them: a range when contiguous."""
    slots = picked.tolist()
    first, last = slots[0], slots[-1]
    return range(first, last + 1) if last - first + 1 == len(slots) else tuple(slots)


def _choose(job: Job, state: OnlineState, kind: SchedulerKind) -> Sequence[int] | None:
    """The slots the policy picks for the job, or None when none can take it.

    A capacity scan yields the candidates: the spare slots for the
    preemptive variants; otherwise the earliest feasible window, or every
    feasible start where best-fit prices them all. First-fit takes the
    earliest, best-fit the cheapest marginal brown energy given the visible
    green (earliest on ties). Random-fit takes first-fit's pick when visible
    green covers all of it; otherwise its coin keeps that pick with
    p_on_to_off when the release slot is on-peak and p_off_to_on otherwise,
    and takes best-fit's pick on a miss. No randomness is consumed on the
    green path.

    Random-fit tests the green on the pick's own slots: they are visible
    when the last lies inside the forecast, and each must hold q nodes of
    residual green (q >= 1, so a slot with none fails).

    A contiguous pick is returned as ``range(s, s + p)``, which ``commit``
    takes without a per-slot scan; that is every first-fit, best-fit and
    random-fit pick, and a preemptive pick whose slots happen to be
    adjacent. Any other pick is an ascending tuple.
    """
    p = job.proc_time
    name = kind.kind
    base, preemptive = name[-2:], name[0] == "P"
    if preemptive:
        spare = spare_slots(job, state.schedule)
        if spare.size < p:
            return None
        if base != "BF":
            first_idx = spare[:p]
            first = _run_or_slots(first_idx)
    elif base == "BF":
        starts = nonpreemptive_starts(job, state.schedule)
        if starts.size == 0:
            return None
    else:
        s = first_start(job, state.schedule)
        if s is None:
            return None
        first_idx = slice(s, s + p)
        first = range(s, s + p)
    if base == "FF":
        return first
    if base == "RF":
        if first[-1] < job.release + state.config.forecast_slots and min(
            (state.green[first_idx] - state.schedule.demand[first_idx]).tolist()
        ) >= job.nodes:
            return first  # fully green, no coin spent
        params = kind.rf_params
        on_peak = state.on_peak[job.release]
        keep_first = params.p_on_to_off if on_peak else params.p_off_to_on
        if state.coin is None:
            raise ValueError("randomized placement needs a seeded state")
        if state.coin(keep_first):
            return first
        if not preemptive:
            starts = nonpreemptive_starts(job, state.schedule)
    vis = _visible_green(job, state)
    # marginal $ to run q nodes at each slot, given the residual green pool
    unit = state.brown_cost[: vis.size] * np.maximum(0, job.nodes - vis)
    if preemptive:
        # cheapest first; the stable sort keeps ascending spare slots in order on ties
        picked = spare[unit[spare].argsort(kind="stable")[:p]]
        picked.sort()
        return _run_or_slots(picked)
    # the prefix sums add in slot order from slot 0, so a window's cost does
    # not depend on where the priced prefix ends
    csum = np.zeros(unit.size + 1)
    np.add.accumulate(unit, out=csum[1:])
    window_cost = (csum[p:] - csum[:-p])[starts]
    s = int(starts[window_cost.argmin()])  # argmin keeps earliest tie
    return range(s, s + p)


def place(job: Job, state: OnlineState, kind: SchedulerKind) -> tuple[int, ...] | None:
    """Offer one job to the policy; the committed slots, or None on a reject.

    First-fit takes the earliest feasible slots, best-fit the cheapest
    marginal brown energy (earliest on ties), random-fit flips the coin of
    ``kind.rf_params`` between the two (see ``_choose``). Prices and on-peak
    flags come from the state's tariff vectors, the forecast from its config.
    The slots returned are the committed placement's ``active_slots``, an
    ascending tuple, whatever form ``_choose`` picked them in.
    """
    slots = _choose(job, state, kind)
    if slots is None:
        return None
    return commit(job, slots, state.schedule).placements[-1].active_slots


def _play(
    jobs: list[Job],
    kind: SchedulerKind,
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    coin: Coin | None,
) -> tuple[Schedule, ProfitReport, list[tuple[float, bool]]]:
    """Play one run and price it; every engine run goes through here.

    Jobs are offered in (release, deadline, id) order and random-fit flips
    ``coin``. Returns the schedule, its report and every flip, in order, as
    (keep_first, outcome).
    """
    flips: list[tuple[float, bool]] = []

    def recorded(keep_first: float) -> bool:
        outcome = coin(keep_first)
        flips.append((keep_first, outcome))
        return outcome

    state = OnlineState.create(green, tariff, config)
    state.coin = recorded
    for job in release_order(jobs):
        place(job, state, kind)
    return state.schedule, account(state.schedule, green, tariff, config), flips


def run_online(
    jobs: list[Job],
    kind: SchedulerKind,
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    seed: int | None = None,
) -> tuple[Schedule, ProfitReport]:
    """Feed jobs through one policy in release order and price the result.

    Jobs are processed sorted by (release, deadline, id); commitments are
    irrevocable. ``decision_log`` derives the per-job log from the returned
    schedule. ``seed`` feeds the RF/PRF coin only, and those kinds require
    it. A seed outside [0, 2**64) raises ValueError before any play.
    """
    if kind.randomized and seed is None:
        raise ValueError(f"{kind.kind} needs a seed for its coin")
    if seed is not None:
        _check_seeds(range(seed, seed + 1), "seed")
    check_deadlines(jobs, config)
    coin = _seeded_coin(seed) if kind.randomized else None
    schedule, report, _ = _play(jobs, kind, green, tariff, config, coin)
    return schedule, report


def decision_log(
    jobs: list[Job],
    schedule: Schedule,
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
) -> list[LogEntry]:
    """One entry per job, in (release, deadline, id) order, as it was decided.

    Placements replay in commit order over an empty grid, so each admit
    draws the residual green its commit saw. A job is admitted when the next
    placement is its own; a placement left over raises ValueError.
    """
    supply = horizon_supply(green, config)
    brown_cost = brown_cost_vector(tariff, config)
    demand = np.zeros(config.horizon_slots, dtype=np.int64)
    placements = iter(schedule.placements)
    placement = next(placements, None)
    log: list[LogEntry] = []
    for job in release_order(jobs):
        if placement is None or placement.job_id != job.id:
            log.append(LogEntry(job.id, "reject", None, (), 0, 0, 0.0, 0.0))
            continue
        slots = placement.active_slots
        idx = slot_index(slots)
        residual = np.maximum(supply[idx] - demand[idx], 0)
        take = np.minimum(job.nodes, residual)
        demand[idx] += job.nodes
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
                cost=float(brown_cost[idx] @ (job.nodes - take)),
            )
        )
        placement = next(placements, None)
    if placement is not None:
        raise ValueError(f"placement of job {placement.job_id} is out of order or not offered")
    return log


def run_trials(
    jobs: list[Job],
    kind: SchedulerKind,
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
    seeds: range,
) -> np.ndarray:
    """Net profit of ``run_online(..., seed=s)`` for each seed, bit for bit.

    The coin is random-fit's only randomness, so trials whose coins agree
    share one run. Every seed's draws come from one batched pass
    (``_SeedDraws``), a column per flip depth. Trials are grouped with a
    split depth, before which every trial of the group flips alike; a group
    plays its lowest-index seed's own run, which is therefore every
    member's run up to that depth. At each flip from the split depth on,
    the trials whose draw comes out the other way leave as a new group, one
    flip deeper. So each distinct path is played once, no column is drawn
    before a play needs it, and a deterministic kind plays once.

    ``seeds`` is a ``range`` of any step, read by its ends: anything else
    raises TypeError, and a seed outside [0, 2**64) ValueError, before any
    play. No Python step runs per seed.
    """
    check_deadlines(jobs, config)
    _check_seeds(seeds, "seeds")
    draws = _SeedDraws(seeds)
    profits = np.empty(len(seeds))
    # (split depth, trials): the trials, ascending, whose coins agree on
    # every flip before the split depth
    pending = [(0, np.arange(len(seeds)))] if seeds else []
    while pending:
        split, trials = pending.pop()
        _, report, flips = _play(jobs, kind, green, tariff, config, draws.coin(int(trials[0])))
        for depth, (keep_first, outcome) in enumerate(flips[split:], split):
            agree = (draws.column(depth)[trials] < keep_first) == outcome
            if not agree.all():
                pending.append((depth + 1, trials[~agree]))
                trials = trials[agree]
        profits[trials] = report.net_profit
    return profits


def expected_profit(
    jobs: list[Job],
    kind: SchedulerKind,
    green: GreenTrace,
    tariff: Tariff,
    config: SimConfig,
) -> float:
    """The policy's exact expected net profit over its coin.

    Each play replays its path, then keeps first-fit's pick at every flip
    past it and queues the path that switches there, so each coin path is
    played once. Its profit is weighted by the product, in flip order, of
    its outcomes' probabilities (keep_first for a keep, 1 - keep_first for
    a switch). A run flips at most one coin per job, so n jobs give at most
    2^n paths.
    """
    check_deadlines(jobs, config)
    terms = []
    pending: list[tuple[tuple[bool, ...], float]] = [((), 1.0)]
    while pending:
        path, weight = pending.pop()
        replay = iter(path)
        _, report, flips = _play(
            jobs, kind, green, tariff, config, lambda _: next(replay, True)
        )
        for keep_first, _ in flips[len(path) :]:
            pending.append(((*path, False), weight * (1.0 - keep_first)))
            path += (True,)
            weight *= keep_first
        terms.append(weight * report.net_profit)
    return math.fsum(terms)
