"""Tariffs, green supply, and profit accounting.

Money flows per node-slot. A scheduled job pays nothing for green energy and
the time-of-use brown price for every node-slot the green pool cannot cover;
it earns the flat charge rate for every node-hour sold. The normalized value
of a node-slot (profit divided by its revenue) drives the randomized
scheduler's mixing probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from .model import Job, Schedule, SimConfig


@dataclass(frozen=True)
class Tariff:
    """Two-level time-of-use electricity pricing plus the service charge rate.

    Prices are $/kWh; ``charge_rate`` is $ per node-hour billed to users.
    ``onpeak_start_slot`` and ``onpeak_end_slot`` are inclusive slot-of-day
    ordinals (the defaults mark 9:00 through 23:00 in 15-minute slots).
    ``peak_override``, when set, fixes the peak flag per absolute slot and is
    meant for tiny hand-built instances; slots past its end fall back to the
    daily pattern.
    """

    onpeak_price: float = 0.13
    offpeak_price: float = 0.08
    onpeak_start_slot: int = 36
    onpeak_end_slot: int = 91
    charge_rate: float = 0.022
    peak_override: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.offpeak_price <= self.onpeak_price:
            raise ValueError("prices must satisfy 0 <= offpeak <= onpeak")
        if not 0 <= self.onpeak_start_slot <= self.onpeak_end_slot:
            raise ValueError("onpeak window must satisfy 0 <= start <= end")
        if self.charge_rate < 0:
            raise ValueError("charge_rate must be non-negative")


def is_on_peak(t: int, tariff: Tariff, config: SimConfig) -> bool:
    """Whether slot t is billed at the on-peak price."""
    if tariff.peak_override is not None and t < len(tariff.peak_override):
        return bool(tariff.peak_override[t])
    s = t % config.slots_per_day
    return tariff.onpeak_start_slot <= s <= tariff.onpeak_end_slot


# The two vectors below are built once per (tariff, config) and shared: a
# Monte Carlo pass prices thousands of runs under one tariff. The cache is
# bounded, and the arrays are read-only so no caller can alter another's.
_VECTOR_CACHE = 32


@lru_cache(maxsize=_VECTOR_CACHE)
def onpeak_vector(tariff: Tariff, config: SimConfig) -> np.ndarray:
    """Per-slot on-peak flag over the horizon (shared, read-only)."""
    n = config.horizon_slots
    peak = np.array([is_on_peak(t, tariff, config) for t in range(n)], dtype=bool)
    peak.flags.writeable = False
    return peak


@lru_cache(maxsize=_VECTOR_CACHE)
def brown_cost_vector(tariff: Tariff, config: SimConfig) -> np.ndarray:
    """Per-slot brown cost of one node-slot, over the horizon (shared, read-only)."""
    peak = onpeak_vector(tariff, config)
    cost = np.where(peak, tariff.onpeak_price, tariff.offpeak_price) * config.node_slot_kwh
    cost.flags.writeable = False
    return cost


def job_revenue(job: Job, tariff: Tariff, config: SimConfig) -> float:
    """Revenue earned when the job completes by its deadline."""
    return tariff.charge_rate * config.slot_hours * job.proc_time * job.nodes


@dataclass(frozen=True)
class GreenTrace:
    """Free renewable supply per slot, in whole node-slots."""

    supply: np.ndarray

    def __post_init__(self) -> None:
        supply = np.asarray(self.supply, dtype=np.int64)
        if supply.ndim != 1:
            raise ValueError("supply must be one-dimensional")
        if (supply < 0).any():
            raise ValueError("supply must be non-negative")
        object.__setattr__(self, "supply", supply)

    @classmethod
    def zeros(cls, config: SimConfig) -> "GreenTrace":
        return cls(np.zeros(config.horizon_slots, dtype=np.int64))


# Share of the cluster that the brightest slot of a solar trace can power.
SOLAR_PEAK_FRACTION = 0.75


def synthetic_solar(config: SimConfig) -> GreenTrace:
    """Day-shaped synthetic supply: a half sine over 6:00-18:00 each day.

    The per-day peak is SOLAR_PEAK_FRACTION of the cluster (floor), matching
    the convention used when real traces are rescaled.
    """
    spd = config.slots_per_day
    day_start = (6 * 60) // config.slot_minutes
    n_day = (12 * 60) // config.slot_minutes
    shape = np.sin(np.pi * (np.arange(n_day) + 0.5) / n_day)
    # scale so the brightest slot sits exactly at the peak fraction
    scaled = shape * (SOLAR_PEAK_FRACTION * config.machines / shape.max())
    day = np.zeros(spd, dtype=np.int64)
    day[day_start : day_start + n_day] = np.floor(scaled).astype(np.int64)
    reps = config.horizon_slots // spd + 1
    return GreenTrace(np.tile(day, reps)[: config.horizon_slots])


def _parse_timestamp(text: str) -> float:
    """Epoch seconds from either a number or an ISO date-time (UTC if naive)."""
    try:
        return float(text)
    except ValueError:
        stamp = datetime.fromisoformat(text)
    if stamp.tzinfo is None:
        # local time would repeat or skip an hour at a daylight-saving switch
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def load_solar_csv(path: str | Path, config: SimConfig) -> GreenTrace:
    """Ingest a ``timestamp,watts`` sample file into per-slot node units.

    Consecutive samples are summed in groups covering one slot, the series is
    rescaled so its peak equals SOLAR_PEAK_FRACTION of the cluster's power
    draw, and each slot is converted to whole node-slots (floor). Naive ISO
    timestamps are read as UTC. The sample period is the step between the
    first two timestamps, and every later step must equal it (to the
    millisecond), so a gap or a repeated stamp raises instead of shifting
    the slots after it. Raises if the trace is shorter
    than the horizon; longer traces are truncated.
    """
    if config.node_power_watts <= 0:
        raise ValueError("node_power_watts must be positive to scale a solar trace")
    times: list[float] = []
    watts: list[float] = []
    step = 0.0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'timestamp,watts'")
            try:
                stamp = _parse_timestamp(parts[0])
                value = float(parts[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: cannot parse '{line}'") from None
            if len(times) == 1:
                step = stamp - times[0]
                if step <= 0:
                    raise ValueError(f"{path}:{lineno}: timestamps must increase")
            elif times and abs(stamp - times[-1] - step) > 1e-3:
                raise ValueError(
                    f"{path}:{lineno}: step of {stamp - times[-1]:g} s differs "
                    f"from the sample period of {step:g} s"
                )
            times.append(stamp)
            watts.append(max(0.0, value))
    if len(times) < 2:
        raise ValueError(f"{path}: need at least two samples")
    group = max(1, round(config.slot_minutes * 60 / step))
    n_slots = len(watts) // group
    if n_slots < config.horizon_slots:
        raise ValueError(
            f"{path}: trace covers {n_slots} slots, horizon needs "
            f"{config.horizon_slots}"
        )
    arr = np.asarray(watts[: n_slots * group], dtype=float).reshape(n_slots, group)
    slotted = arr.sum(axis=1)
    top = slotted.max()
    if top <= 0:
        raise ValueError(f"{path}: trace is all zeros")
    peak_watts = SOLAR_PEAK_FRACTION * config.machines * config.node_power_watts
    scaled = slotted * (peak_watts / top)
    units = np.floor(scaled / config.node_power_watts).astype(np.int64)
    return GreenTrace(units[: config.horizon_slots])


@dataclass(frozen=True)
class ProfitReport:
    """Pooled accounting for one schedule against one green trace."""

    revenue: float
    brown_cost: float
    net_profit: float
    green_used: np.ndarray  # per-slot node-slots covered by green
    brown_used: np.ndarray  # per-slot node-slots bought at the tariff

    @property
    def green_total(self) -> int:
        return int(self.green_used.sum())

    @property
    def brown_total(self) -> int:
        return int(self.brown_used.sum())


def account(
    schedule: Schedule, green: GreenTrace, tariff: Tariff, config: SimConfig
) -> ProfitReport:
    """Price a schedule: pooled green first, brown for the remainder.

    Green is free and allocated slot-wide (no per-job ownership). Every
    placement finishes inside its deadline by construction, so all placements
    earn revenue.
    """
    T = config.horizon_slots
    if green.supply.size < T:
        raise ValueError("green trace shorter than horizon")
    demand = schedule.demand
    g = green.supply[:T]
    green_used = np.minimum(demand, g)
    brown_used = demand - green_used
    b = brown_cost_vector(tariff, config)
    brown_cost = float(brown_used @ b)
    node_slots = sum(len(p.active_slots) * p.nodes for p in schedule.placements)
    revenue = tariff.charge_rate * config.slot_hours * node_slots
    return ProfitReport(
        revenue=revenue,
        brown_cost=brown_cost,
        net_profit=revenue - brown_cost,
        green_used=green_used,
        brown_used=brown_used,
    )


@dataclass(frozen=True)
class NormalizedValues:
    """Profit of one node-slot divided by its revenue, per energy source.

    v_g is 1 by definition (green is free). The constructor in
    ``normalized_values`` guarantees 0 < v_on < v_off < v_g.
    """

    v_on: float
    v_off: float
    v_g: float = 1.0


def normalized_values(tariff: Tariff, config: SimConfig) -> NormalizedValues:
    """Derive normalized node-slot values, rejecting degenerate tariffs.

    The scheduling theory needs a strict ordering 0 < v_on < v_off < 1:
    serving on brown on-peak energy must still profit, off-peak must beat
    on-peak, and brown must never beat free green. Configurations violating
    any of these raise ValueError.
    """
    per_slot_revenue = tariff.charge_rate * config.slot_hours
    if per_slot_revenue <= 0:
        raise ValueError("charge rate must make a node-slot worth selling")
    v_on = 1.0 - tariff.onpeak_price * config.node_slot_kwh / per_slot_revenue
    v_off = 1.0 - tariff.offpeak_price * config.node_slot_kwh / per_slot_revenue
    if v_on <= 0:
        raise ValueError("on-peak brown cost exceeds the charge rate (v_on <= 0)")
    if v_on >= v_off:
        raise ValueError("tariff must price on-peak strictly above off-peak")
    if v_off >= 1.0:
        raise ValueError("off-peak energy must cost something (v_off < 1 required)")
    return NormalizedValues(v_on=v_on, v_off=v_off, v_g=1.0)


@dataclass(frozen=True)
class RandomFitParams:
    """Mixing probabilities for the randomized scheduler.

    ``p_on_to_off`` is the chance of keeping the first-fit window when the
    job arrives on-peak; ``p_off_to_on`` the same for off-peak arrivals.
    ``ratio_on``/``ratio_off`` are the worst-case profit ratios these
    probabilities guarantee on two-slot dilemmas. Values built by
    ``random_fit_params`` satisfy 0 < p < 1 and 1 < ratio <= 1.25; the
    dataclass itself stays unvalidated so degenerate probabilities (0 or 1)
    can be forced in equivalence checks.
    """

    p_on_to_off: float
    p_off_to_on: float
    ratio_on: float
    ratio_off: float
    x: float  # v_on / v_off
    y: float  # v_off / v_g


def random_fit_params(nv: NormalizedValues) -> RandomFitParams:
    """Optimal mixing probabilities from the normalized value ladder.

    For a value ratio k in (0,1) the best coin bias is k/(1+k-k^2) and the
    guaranteed worst-case ratio is 1+k-k^2, which peaks at 1.25 when k=1/2.
    """
    x = nv.v_on / nv.v_off
    y = nv.v_off / nv.v_g
    ratio_on = 1.0 + x - x * x
    ratio_off = 1.0 + y - y * y
    return RandomFitParams(
        p_on_to_off=x / ratio_on,
        p_off_to_on=y / ratio_off,
        ratio_on=ratio_on,
        ratio_off=ratio_off,
        x=x,
        y=y,
    )
