"""The column-wise simulator against the per-draw loop it replaced, by bits.

reference_simulate is simulate as it was written before its arithmetic
moved into columns: one SplitMix64 method call per quantity, one event at
a time. Both must give the same trace for any seed, channel model,
schedule, channel set and device path.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from microloc import sim
from microloc.errors import InvalidScenario
from microloc.model import TIMESTAMP_LIMIT_MS, VALID_CHANNELS, SampleColumns, Trace, clamp_rssi
from microloc.position import Anchor
from microloc.ranging import PathLossModel, distance_to_rssi
from microloc.rng import SplitMix64, derive_seed
from microloc.sim import MIN_SIM_DISTANCE_M, Scenario, SimConfig, simulate

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def reference_simulate(scenario: Scenario, config: SimConfig) -> Trace:
    """The per-draw simulator: four SplitMix64 draws per event, in event order."""
    interval = config.advertising_interval_ms
    per_beacon = -(-config.duration_ms // interval)
    starts = [s for s, _ in scenario.device_path]
    positions = [p for _, p in scenario.device_path]
    jitter = config.interval_jitter_ms
    sigma = config.shadow_sigma_db
    model = config.path_loss
    n_chan = len(config.channels)
    ts: list[int] = []
    rssi: list[float] = []
    chans: list[int] = []
    counts: list[int] = []
    for b_index, beacon in enumerate(scenario.beacons):
        rng = SplitMix64(derive_seed(config.seed, b_index))
        bx, by = beacon.position
        first = len(ts)
        last_t = 0
        for k in range(per_beacon):
            t = k * interval + rng.randint(-jitter, jitter)
            t = max(t, last_t, 0)
            lost = rng.random() < config.packet_loss_prob
            g = rng.normal()
            if not lost:
                px, py = positions[bisect_right(starts, t) - 1]
                d = max(math.hypot(px - bx, py - by), MIN_SIM_DISTANCE_M)
                ts.append(t)
                rssi.append(distance_to_rssi(d, model) + sigma * g)
                chans.append(config.channels[k % n_chan])
            last_t = t
        counts.append(len(ts) - first)
    tx_power = [math.nan if b.tx_power_dbm is None else b.tx_power_dbm for b in scenario.beacons]
    samples = SampleColumns(
        timestamp_ms=np.array(ts, dtype=np.int64),
        beacon=np.repeat(np.arange(len(counts)), counts),
        beacon_ids=[b.beacon_id for b in scenario.beacons],
        rssi_dbm=clamp_rssi(np.array(rssi, dtype=np.float64)),
        tx_power_dbm=np.repeat(np.array(tx_power, dtype=np.float64), counts),
        channel=np.array(chans, dtype=np.int64),
    )
    metadata = {
        "generator": sim.GENERATOR_ID,
        "seed": str(config.seed),
        "duration_ms": str(config.duration_ms),
        "advertising_interval_ms": str(interval),
        "interval_jitter_ms": str(jitter),
        "packet_loss_prob": repr(config.packet_loss_prob),
        "shadow_sigma_db": repr(sigma),
        "ref_power_dbm": repr(model.ref_power_dbm),
        "exponent": repr(model.exponent),
        "device_path": json.dumps(
            [[s, p[0], p[1]] for s, p in scenario.device_path], separators=(",", ":")
        ),
    }
    return Trace(samples, metadata)


def outcome(fn, *args):
    """fn's trace as bytes of each column, or the class and text of what it raised."""
    try:
        trace = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    cols = trace.samples
    return (cols.beacon_ids, trace.metadata,
            *((a.dtype.str, a.tobytes()) for a in (cols.timestamp_ms, cols.beacon, cols.rssi_dbm,
                                                   cols.tx_power_dbm, cols.channel)))


coord = st.floats(-30.0, 30.0)


@st.composite
def cases(draw):
    """(scenario, config): 1-4 beacons, up to 80 events each, paths switching on event times."""
    interval = draw(st.just(1) | st.integers(1, 400))
    jitter = draw(st.just(0) | st.integers(0, interval - 1))
    events = draw(st.integers(1, 80))
    duration = draw(st.integers((events - 1) * interval + 1, events * interval))
    n_beacons = draw(st.integers(1, 4))
    beacons = tuple(
        Anchor(f"b{i}", (draw(coord), draw(coord)),
               tx_power_dbm=draw(st.none() | st.floats(-100.0, 20.0)))
        for i in range(n_beacons)
    )
    # candidate path starts: event times as they are with no jitter and at either jitter bound
    on_events = sorted({max(0, k * interval + j) for k in range(events)
                        for j in (-jitter, 0, jitter)} - {0})
    extra = draw(st.lists(st.sampled_from(on_events) | st.integers(1, duration + interval),
                          max_size=6)) if on_events else []
    spots = st.sampled_from([b.position for b in beacons]) | st.tuples(coord, coord)
    path = tuple((start, draw(spots)) for start in [0, *sorted(set(extra))])
    config = SimConfig(
        seed=draw(st.integers(-2 ** 70, 2 ** 70)),
        path_loss=PathLossModel(draw(st.floats(-100.0, 0.0)),
                                draw(st.floats(0.5, 8.0, exclude_min=True))),
        shadow_sigma_db=draw(st.sampled_from([0.0, 4.0, 1e308]) | st.floats(0.0, 30.0)),
        advertising_interval_ms=interval,
        interval_jitter_ms=jitter,
        packet_loss_prob=draw(st.sampled_from([0.0, 0.3, 0.999])
                              | st.floats(0.0, 1.0, exclude_max=True)),
        duration_ms=duration,
        channels=tuple(draw(st.lists(st.sampled_from(VALID_CHANNELS), min_size=1, max_size=3,
                                     unique=True))),
    )
    return Scenario(beacons=beacons, device_path=path), config


@SETTINGS
@given(cases())
@example((Scenario((Anchor("b0", (0.0, 0.0)),), ((0, (1.0, 0.0)), (300, (2.0, 0.0)))),
          SimConfig(seed=3, interval_jitter_ms=0, duration_ms=1000)))
def test_columns_match_the_per_draw_reference(case):
    scenario, config = case
    assert outcome(simulate, scenario, config) == outcome(reference_simulate, scenario, config)


def test_a_beacon_that_loses_every_packet():
    beacons = tuple(Anchor(f"b{i}", (float(i), 0.0), tx_power_dbm=-59.0) for i in range(3))
    scenario = Scenario(beacons=beacons, device_path=((0, (0.5, 0.5)),))
    config = SimConfig(seed=2, packet_loss_prob=0.9, duration_ms=1000)
    trace = simulate(scenario, config)
    assert outcome(simulate, scenario, config) == outcome(reference_simulate, scenario, config)
    assert trace.samples.beacon_ids == ("b2",)  # b0 and b1 kept no sample


def test_a_lone_event_with_an_interval_past_int64():
    scenario = Scenario(beacons=(Anchor("b0", (0.0, 0.0)),), device_path=((0, (1.0, 0.0)),))
    config = SimConfig(seed=5, advertising_interval_ms=2 ** 70, interval_jitter_ms=7,
                       duration_ms=3)
    assert outcome(simulate, scenario, config) == outcome(reference_simulate, scenario, config)


def test_a_schedule_up_to_the_timestamp_limit():
    scenario = Scenario(beacons=(Anchor("b0", (0.0, 0.0)),),
                        device_path=((0, (1.0, 0.0)), (2 ** 62, (3.0, 0.0)),
                                     (2 ** 70, (9.0, 0.0))))
    config = SimConfig(seed=5, advertising_interval_ms=2 ** 62, interval_jitter_ms=2 ** 61,
                       duration_ms=TIMESTAMP_LIMIT_MS - 2 ** 61)
    trace = simulate(scenario, config)
    assert outcome(simulate, scenario, config) == outcome(reference_simulate, scenario, config)
    assert len(trace.samples) == 2 and int(trace.samples.timestamp_ms.max()) >= 2 ** 61


def test_a_schedule_past_the_timestamp_limit_is_refused_before_any_draw(monkeypatch):
    def no_generator(seed):
        raise AssertionError("simulation started")
    monkeypatch.setattr(sim, "SplitMix64", no_generator)
    scenario = Scenario(beacons=(Anchor("b0", (0.0, 0.0)),), device_path=((0, (1.0, 0.0)),))
    config = SimConfig(seed=1, advertising_interval_ms=2 ** 62, interval_jitter_ms=0,
                       duration_ms=TIMESTAMP_LIMIT_MS + 5)
    with pytest.raises(InvalidScenario, match=r"duration_ms \+ interval_jitter_ms = "
                                              r"9223372036854775813 exceeds 2\*\*63 ms"):
        simulate(scenario, config)
    at_limit = SimConfig(seed=1, advertising_interval_ms=2 ** 62, interval_jitter_ms=1,
                         duration_ms=TIMESTAMP_LIMIT_MS)
    with pytest.raises(InvalidScenario, match="exceeds 2"):
        simulate(scenario, at_limit)


def test_draws_stay_one_next_u64_call_each(monkeypatch):
    calls = []
    next_u64 = SplitMix64.next_u64

    def counted(self):
        calls.append(1)
        return next_u64(self)
    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    beacons = tuple(Anchor(f"b{i}", (float(i), 0.0)) for i in range(3))
    scenario = Scenario(beacons=beacons, device_path=((0, (0.5, 0.5)),))
    simulate(scenario, SimConfig(seed=9, packet_loss_prob=0.5, duration_ms=2050))
    assert len(calls) == 4 * 3 * 21
