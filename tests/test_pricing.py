import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greensched.model import Job, Schedule, SimConfig, commit
from greensched.pricing import (
    GreenTrace,
    Tariff,
    account,
    brown_cost_vector,
    is_on_peak,
    job_revenue,
    load_solar_csv,
    normalized_values,
    onpeak_vector,
    random_fit_params,
    synthetic_solar,
)

CFG = SimConfig()
TARIFF = Tariff()

# Frozen reference constants for the stock configuration (140 W nodes,
# 15-minute slots, $0.13/$0.08 per kWh, $0.022 per node-hour). Derived by
# hand as exact fractions before any implementation existed:
#   brown on-peak  = 0.13 * 0.035  = 0.00455 $/node-slot
#   brown off-peak = 0.08 * 0.035  = 0.0028  $/node-slot
#   revenue        = 0.022 * 0.25  = 0.0055  $/node-slot
#   v_on  = 1 - 0.00455/0.0055 = 19/110,  v_off = 1 - 0.0028/0.0055 = 27/55
V_ON = 19 / 110
V_OFF = 27 / 55
X = 19 / 54  # v_on / v_off
RATIO_ON = 3581 / 2916  # 1 + x - x^2
P_ON_TO_OFF = 1026 / 3581  # x / ratio_on
RATIO_OFF = 3781 / 3025
P_OFF_TO_ON = 1485 / 3781


def test_onpeak_daily_pattern():
    # slots 36..91 of each day are on-peak (9:00 to 23:00), the rest off-peak
    for t in (36, 91, 36 + 96, 91 + 2 * 96):
        assert is_on_peak(t, TARIFF, CFG)
    for t in (0, 35, 92, 95, 96, 35 + 96):
        assert not is_on_peak(t, TARIFF, CFG)
    vec = brown_cost_vector(TARIFF, CFG)
    assert vec.shape == (480,)
    assert np.isclose(vec[40], 0.00455) and np.isclose(vec[0], 0.0028)
    day = vec[:96]
    assert all(np.array_equal(day, vec[96 * k : 96 * (k + 1)]) for k in range(5))


def test_pricing_vectors_are_shared_read_only_and_priced_per_slot():
    def inputs():
        return Tariff(peak_override=(True, False, False, True)), SimConfig(horizon_slots=200)

    tariff, cfg = inputs()
    vec = brown_cost_vector(tariff, cfg)
    peak = onpeak_vector(tariff, cfg)
    # equal (tariff, config) values share one array
    assert vec is brown_cost_vector(*inputs())
    assert peak is onpeak_vector(*inputs())
    assert brown_cost_vector(Tariff(), cfg) is not vec
    for arr in (vec, peak):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    flags = [is_on_peak(t, tariff, cfg) for t in range(200)]
    assert peak.tolist() == flags
    price = {True: tariff.onpeak_price, False: tariff.offpeak_price}
    assert vec.tolist() == [price[f] * cfg.node_slot_kwh for f in flags]


def test_peak_override_wins_then_falls_back():
    t = Tariff(peak_override=(False, True))
    assert not is_on_peak(0, t, CFG)
    assert is_on_peak(1, t, CFG)
    assert is_on_peak(40, t, CFG)  # past the override: daily pattern again


def test_unit_economics():
    cost = brown_cost_vector(TARIFF, CFG)
    assert cost[40] == pytest.approx(0.00455, abs=1e-15)
    assert cost[0] == pytest.approx(0.0028, abs=1e-15)
    job = Job(id=0, release=0, deadline=9, proc_time=4, nodes=3)
    assert job_revenue(job, TARIFF, CFG) == pytest.approx(0.0055 * 12, abs=1e-15)


def test_tariff_validation():
    with pytest.raises(ValueError):
        Tariff(onpeak_price=0.05, offpeak_price=0.08)
    with pytest.raises(ValueError):
        Tariff(onpeak_start_slot=50, onpeak_end_slot=40)
    with pytest.raises(ValueError):
        Tariff(charge_rate=-1)


def test_normalized_values_frozen():
    nv = normalized_values(TARIFF, CFG)
    assert nv.v_on == pytest.approx(V_ON, abs=1e-12)
    assert nv.v_off == pytest.approx(V_OFF, abs=1e-12)
    assert nv.v_g == 1.0
    assert 0 < nv.v_on < nv.v_off < nv.v_g


def test_normalized_values_rejects_degenerate_tariffs():
    # on-peak brown costs more than the revenue it enables
    with pytest.raises(ValueError):
        normalized_values(Tariff(onpeak_price=0.16, offpeak_price=0.08), CFG)
    # equal prices destroy the strict on/off ordering
    with pytest.raises(ValueError):
        normalized_values(Tariff(onpeak_price=0.08, offpeak_price=0.08), CFG)
    # free off-peak energy would tie green
    with pytest.raises(ValueError):
        normalized_values(Tariff(onpeak_price=0.13, offpeak_price=0.0), CFG)
    with pytest.raises(ValueError):
        normalized_values(TARIFF, SimConfig(node_power_watts=0.0))


def test_random_fit_params_frozen():
    rp = random_fit_params(normalized_values(TARIFF, CFG))
    assert rp.x == pytest.approx(X, abs=1e-12)
    assert rp.ratio_on == pytest.approx(RATIO_ON, abs=1e-12)
    assert rp.p_on_to_off == pytest.approx(P_ON_TO_OFF, abs=1e-12)
    assert rp.y == pytest.approx(V_OFF, abs=1e-12)
    assert rp.ratio_off == pytest.approx(RATIO_OFF, abs=1e-12)
    assert rp.p_off_to_on == pytest.approx(P_OFF_TO_ON, abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_mixing_ratio_never_exceeds_quarter(k):
    ratio = 1 + k - k * k
    assert ratio <= 1.25 + 1e-12
    assert ratio > 1.0
    # and the guarantee beats the deterministic 1/k ratio on the same dilemma
    assert ratio < 1 / k + 1e-12


def test_mixing_ratio_peak_at_half():
    assert 1 + 0.5 - 0.25 == 1.25


@pytest.mark.parametrize("k", [X, V_OFF])
def test_optimal_bias_by_grid_search(k):
    # The coin faces two dilemmas: committing early wins k or loses the later
    # value; the worst case is the max of an increasing and a decreasing
    # ratio curve. Scan p exhaustively and compare with the closed form.
    grid = np.arange(1e-4, 1.0, 1e-4)
    single = 1.0 / (grid * k + (1.0 - grid))  # later slot only
    pair = (1.0 + k) / (grid * k + 1.0)  # both slots available
    worst = np.maximum(single, pair)
    i = int(np.argmin(worst))
    p_star = k / (1 + k - k * k)
    assert abs(grid[i] - p_star) < 2e-4
    assert worst[i] == pytest.approx(1 + k - k * k, abs=1e-4)


def test_green_trace_validation():
    with pytest.raises(ValueError):
        GreenTrace(np.array([1, -1]))
    with pytest.raises(ValueError):
        GreenTrace(np.zeros((2, 2)))
    assert GreenTrace.zeros(CFG).supply.sum() == 0


def test_synthetic_solar_shape():
    g = synthetic_solar(CFG)
    assert g.supply.shape == (480,)
    day = g.supply[:96]
    assert all(np.array_equal(day, g.supply[96 * k : 96 * (k + 1)]) for k in range(5))
    # dark outside 6:00-18:00, peak at 75% of the cluster (floored)
    assert day[:24].sum() == 0 and day[72:].sum() == 0
    assert day.max() == 12
    assert day[24:72].min() >= 0


def test_load_solar_csv_fifteen_minute_samples(tmp_path):
    cfg = SimConfig(machines=4, horizon_slots=4, forecast_slots=4)
    path = tmp_path / "solar.csv"
    rows = ["timestamp,watts"]
    for i, w in enumerate([0.0, 280.0, 560.0, 140.0]):
        rows.append(f"{i * 900},{w}")
    path.write_text("\n".join(rows) + "\n")
    g = load_solar_csv(path, cfg)
    # peak rescaled to 0.75 * 4 * 140 = 420 W, then floor-divided by 140 W
    assert list(g.supply) == [0, 1, 3, 0]


def test_load_solar_csv_groups_five_minute_samples(tmp_path):
    cfg = SimConfig(machines=2, horizon_slots=2, forecast_slots=2)
    path = tmp_path / "solar.csv"
    lines = ["# five-minute samples"]
    samples = [100, 100, 100, 0, 0, 300]  # slot sums 300 and 300
    for i, w in enumerate(samples):
        lines.append(f"{i * 300},{w}")
    path.write_text("\n".join(lines) + "\n")
    g = load_solar_csv(path, cfg)
    # equal slot sums scale to the peak 0.75 * 2 * 140 = 210 W -> 1 node each
    assert list(g.supply) == [1, 1]


def test_naive_iso_stamps_read_as_utc(tmp_path, monkeypatch):
    # five-minute samples over 2021-03-14, when New York clocks skip 02:00-03:00
    cfg = SimConfig(machines=4, horizon_slots=96, forecast_slots=96)
    start = datetime(2021, 3, 14, tzinfo=timezone.utc)
    stamps = [start + timedelta(minutes=5 * k) for k in range(288)]
    watts = [(k * 37) % 500 for k in range(288)]
    iso = tmp_path / "iso.csv"
    iso.write_text("".join(f"{t:%Y-%m-%dT%H:%M:%S},{w}\n" for t, w in zip(stamps, watts)))
    epoch = tmp_path / "epoch.csv"
    epoch.write_text("".join(f"{t.timestamp():.0f},{w}\n" for t, w in zip(stamps, watts)))
    try:
        with monkeypatch.context() as mp:
            mp.setenv("TZ", "America/New_York")
            time.tzset()
            g = load_solar_csv(iso, cfg)
    finally:
        time.tzset()
    assert np.array_equal(g.supply, load_solar_csv(epoch, cfg).supply)


def test_load_solar_csv_errors(tmp_path):
    cfg = SimConfig(machines=2, horizon_slots=8, forecast_slots=8)
    short = tmp_path / "short.csv"
    short.write_text("0,100\n900,100\n")
    with pytest.raises(ValueError, match="covers"):
        load_solar_csv(short, cfg)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,100\nnot-a-row,oops\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        load_solar_csv(bad, cfg)
    # five-minute samples, then a two-hour step after 00:10
    stamps = [300 * k for k in range(3)] + [7800 + 300 * k for k in range(100)]
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("timestamp,watts\n" + "".join(f"{t},100\n" for t in stamps))
    with pytest.raises(ValueError, match=r"gapped.csv:5: step of 7200 s differs"):
        load_solar_csv(gapped, cfg)
    backwards = tmp_path / "backwards.csv"
    backwards.write_text("900,100\n900,100\n1800,100\n")
    with pytest.raises(ValueError, match="backwards.csv:2: timestamps must increase"):
        load_solar_csv(backwards, cfg)


def test_account_pools_green_by_slot():
    cfg = SimConfig(machines=4, horizon_slots=3, forecast_slots=3)
    sched = Schedule(4, 3)
    commit(Job(id=0, release=0, deadline=2, proc_time=2, nodes=2), (0, 1), sched)
    commit(Job(id=1, release=0, deadline=2, proc_time=1, nodes=3), (2,), sched)
    g = GreenTrace(np.array([1, 4, 1]))
    rep = account(sched, g, Tariff(peak_override=(True, False, False)), cfg)
    assert list(rep.green_used) == [1, 2, 1]
    assert list(rep.brown_used) == [1, 0, 2]
    assert rep.revenue == pytest.approx(0.0055 * 7, abs=1e-15)
    assert rep.brown_cost == pytest.approx(0.00455 * 1 + 0.0028 * 2, abs=1e-15)
    assert rep.net_profit == rep.revenue - rep.brown_cost
    assert rep.green_total == 4 and rep.brown_total == 3


def test_account_requires_full_trace():
    cfg = SimConfig(machines=2, horizon_slots=4, forecast_slots=4)
    with pytest.raises(ValueError):
        account(Schedule(2, 4), GreenTrace(np.array([1, 1])), TARIFF, cfg)
