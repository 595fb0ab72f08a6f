"""Executable worst-case instances for the online policies.

Each builder returns a tiny two-slot instance on which a named policy earns
the floor of its construction, together with the closed-form profit ratio
the construction forces. Profits quote in normalized units (profit divided by
one full-cluster slot of revenue); the instances carry the dollar value of
one normalized unit so measured runs compare exactly, and the exact offline
optimum in dollars, solved once when the instance is made.

First-fit is trapped by what it ignores: a later slot that is greener or
cheaper. Best-fit is trapped by what it chases: the cheap slot it grabs is
exactly the one a later job needed. The randomized policy mixes the two and
caps the damage on every such dilemma; its four suite instances realize the
two-slot worst cases for both arrival periods. The closed forms bound only
these constructions: longer windows and mixed job sizes push every policy's
ratio past them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import Job, SimConfig
from .offline import solve_nonpreemptive_exact
from .pricing import (
    GreenTrace,
    NormalizedValues,
    Tariff,
    normalized_values,
    random_fit_params,
)
from .schedulers import SchedulerKind, expected_profit, run_trials

FF_VARIANTS = ("green_next", "offpeak_next")
BF_VARIANTS = ("on_to_off", "off_to_on")


@dataclass(frozen=True)
class AdversarialInstance:
    """A runnable construction plus the profits it is engineered to force.

    ``opt_profit`` is not passed in: every instance, however it is made
    (a builder, a direct call, ``dataclasses.replace``), solves its own
    offline optimum exactly once, with the exact solver's default budget.
    """

    name: str
    jobs: tuple[Job, ...]
    green: GreenTrace
    tariff: Tariff
    config: SimConfig
    target: SchedulerKind
    expected_opt: float  # offline optimum, normalized units
    expected_alg: float  # target policy's (expected) profit, normalized units
    formula_ratio: float  # expected_opt / expected_alg in closed form
    opt_profit: float = field(init=False)  # exact offline optimum, dollars

    def __post_init__(self) -> None:
        opt, _ = solve_nonpreemptive_exact(
            list(self.jobs), self.green, self.tariff, self.config
        )
        object.__setattr__(self, "opt_profit", opt)

    @property
    def unit_value(self) -> float:
        """Dollars per normalized unit: one full-cluster slot of revenue."""
        return self.tariff.charge_rate * self.config.slot_hours * self.config.machines


@dataclass(frozen=True)
class RatioMeasurement:
    """Outcome of running a policy against its construction."""

    ratio: float
    stderr: float
    opt_profit: float
    mean_alg_profit: float
    trials: int


def _build(
    name: str,
    nv: NormalizedValues,
    machines: int,
    peak_pattern: tuple[bool, bool],
    green_units: list[int],
    jobs: tuple[Job, ...],
    target: SchedulerKind,
    expected_opt: float,
    expected_alg: float,
    formula_ratio: float,
) -> AdversarialInstance:
    """A two-slot instance whose prices reproduce the given value ladder.

    Prices are reconstructed from the normalized values so the tariff and nv
    cannot drift apart: price = (1 - v) * slot revenue / node-slot energy.
    """
    config = SimConfig(machines=machines, horizon_slots=2, forecast_slots=192)
    per_slot_revenue = Tariff().charge_rate * config.slot_hours  # the stock charge rate
    kwh = config.node_slot_kwh
    tariff = Tariff(
        onpeak_price=(1.0 - nv.v_on) * per_slot_revenue / kwh,
        offpeak_price=(1.0 - nv.v_off) * per_slot_revenue / kwh,
        peak_override=peak_pattern,
    )
    return AdversarialInstance(
        name=name,
        jobs=jobs,
        green=GreenTrace(np.array(green_units)),
        tariff=tariff,
        config=config,
        target=target,
        expected_opt=expected_opt,
        expected_alg=expected_alg,
        formula_ratio=formula_ratio,
    )


def _full_job(jid: int, release: int, machines: int) -> Job:
    return Job(id=jid, release=release, deadline=1, proc_time=1, nodes=machines)


def ff_lower_bound_instance(
    variant: str, nv: NormalizedValues, machines: int = 16
) -> AdversarialInstance:
    """Make first-fit pay for its haste.

    ``green_next``: both slots on-peak, all the green arrives in slot 1; one
    cluster-wide job is released at 0 with a slot of slack. First-fit burns
    brown now (v_on) where waiting was free (v_g). ``offpeak_next``: no
    green, slot 0 on-peak, slot 1 off-peak; same job, same haste, v_on
    against v_off.
    """
    if variant not in FF_VARIANTS:
        raise ValueError(f"variant must be one of {FF_VARIANTS}")
    if variant == "green_next":
        peak, green, opt, alg = (True, True), [0, machines], nv.v_g, nv.v_on
    else:
        peak, green, opt, alg = (True, False), [0, 0], nv.v_off, nv.v_on
    jobs = (_full_job(0, 0, machines),)
    return _build(
        f"ff_{variant}", nv, machines, peak, green, jobs, SchedulerKind("FF"),
        opt, alg, opt / alg,
    )


def bf_lower_bound_instance(
    variant: str, nv: NormalizedValues, machines: int = 16
) -> AdversarialInstance:
    """Make best-fit pay for its greed.

    Two cluster-wide jobs: one released at 0 with slack, one released at 1
    with none. Best-fit parks the first job on the better slot 1 (cheaper
    brown in ``on_to_off``, free green in ``off_to_on``), so the second job
    finds the cluster full and dies at its deadline. Waiting algorithms keep
    both.
    """
    if variant not in BF_VARIANTS:
        raise ValueError(f"variant must be one of {BF_VARIANTS}")
    if variant == "on_to_off":
        peak, green, opt, alg = (True, False), [0, 0], nv.v_on + nv.v_off, nv.v_off
    else:
        peak, green, opt, alg = (False, True), [0, machines], nv.v_off + nv.v_g, nv.v_g
    jobs = (_full_job(0, 0, machines), _full_job(1, 1, machines))
    return _build(
        f"bf_{variant}", nv, machines, peak, green, jobs, SchedulerKind("BF"),
        opt, alg, opt / alg,
    )


def rf_worst_case_suite(
    nv: NormalizedValues, machines: int = 16
) -> list[AdversarialInstance]:
    """The four two-slot dilemmas that pin the randomized policy's ratio.

    For each arrival period (on-peak with off-peak next, off-peak with green
    next) there are two cases: a lone job, where hasty placement loses, and
    a job pair, where patient placement loses. With the tuned coin both
    cases of a period share one expected ratio (1 + k - k^2 for the period's
    value ratio k), the worst case of these constructions.
    """
    params = random_fit_params(nv)
    p_on, p_off = params.p_on_to_off, params.p_off_to_on
    rf = SchedulerKind("RF")
    one = (_full_job(0, 0, machines),)
    two = (_full_job(0, 0, machines), _full_job(1, 1, machines))
    return [
        _build(
            "rf_on_to_off_single", nv, machines, (True, False), [0, 0], one, rf,
            nv.v_off, p_on * nv.v_on + (1 - p_on) * nv.v_off, params.ratio_on,
        ),
        _build(
            "rf_on_to_off_pair", nv, machines, (True, False), [0, 0], two, rf,
            nv.v_on + nv.v_off, p_on * nv.v_on + nv.v_off, params.ratio_on,
        ),
        _build(
            "rf_off_to_on_single", nv, machines, (False, True), [0, machines], one, rf,
            nv.v_g, p_off * nv.v_off + (1 - p_off) * nv.v_g, params.ratio_off,
        ),
        _build(
            "rf_off_to_on_pair", nv, machines, (False, True), [0, machines], two, rf,
            nv.v_off + nv.v_g, p_off * nv.v_off + nv.v_g, params.ratio_off,
        ),
    ]


def _plain_int(value, name: str) -> int:
    """``value`` as an ``int``; a bool or a non-integer raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def measure_ratio(
    instance: AdversarialInstance,
    trials: int = 1,
    base_seed: int = 0,
) -> RatioMeasurement:
    """Run the instance's target policy on it and report OPT over its mean profit.

    The optimum is the instance's own ``opt_profit``, so nothing is solved
    here. Deterministic policies need one trial; randomized ones get seeds
    base_seed + i, which ``run_trials`` checks before any play. It draws
    every seed's coins in one batched pass and plays each distinct coin
    path once: a group of trials plays its first seed's own run, and the
    trials whose draw comes out the other way at a flip leave as a new
    group. So trials whose coins come out alike share one run, and the
    engine's cost grows with the distinct coin paths, not with ``trials``.
    The seeds' draws are seeded once per range for the process, so a suite
    measured under one ``trials`` and ``base_seed`` draws each coin once.
    ``trials`` and ``base_seed`` must be integers, not bools: anything else
    raises TypeError before any play, and a numpy integer is taken as an
    ``int``. A policy that earns nothing on every trial reports an infinite
    ratio; the standard error follows the delta method.
    """
    trials = _plain_int(trials, "trials")
    base_seed = _plain_int(base_seed, "base_seed")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    profits = run_trials(
        list(instance.jobs),
        instance.target,
        instance.green,
        instance.tariff,
        instance.config,
        range(base_seed, base_seed + trials),
    )
    opt = instance.opt_profit
    mean = float(profits.mean())
    se_mean = float(profits.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    if mean <= 0:
        return RatioMeasurement(math.inf, math.nan, opt, mean, trials)
    return RatioMeasurement(
        ratio=opt / mean,
        stderr=opt * se_mean / (mean * mean),
        opt_profit=opt,
        mean_alg_profit=mean,
        trials=trials,
    )


def expected_ratio(instance: AdversarialInstance) -> float:
    """OPT over the target policy's exact expected profit on the construction.

    OPT is the instance's own ``opt_profit``. The expectation enumerates
    every coin path (``expected_profit``), up to 2^n for n jobs. A policy
    whose expected profit is not positive gives an infinite ratio.
    """
    mean = expected_profit(
        list(instance.jobs), instance.target, instance.green, instance.tariff, instance.config
    )
    return instance.opt_profit / mean if mean > 0 else math.inf


def standard_suite(machines: int = 16) -> list[AdversarialInstance]:
    """All constructions under the stock tariff's value ladder."""
    nv = normalized_values(Tariff(), SimConfig(machines=machines))
    out = [ff_lower_bound_instance(v, nv, machines) for v in FF_VARIANTS]
    out += [bf_lower_bound_instance(v, nv, machines) for v in BF_VARIANTS]
    out += rf_worst_case_suite(nv, machines)
    return out
