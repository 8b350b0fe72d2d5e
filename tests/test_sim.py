"""Simulator: RNG vectors, event timing, noise statistics, determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from microloc.errors import InvalidScenario
from microloc.position import Anchor
from microloc.ranging import PathLossModel, distance_to_rssi, rssi_to_distance
from microloc.rng import SplitMix64, derive_seed, mix64
from microloc.sim import (
    Scenario,
    SimConfig,
    experiment_distances,
    load_scenario,
    ranging_experiment,
    scenario_from_json,
    simulate,
)


def quiet_config(**kw) -> SimConfig:
    base = dict(seed=1, shadow_sigma_db=0.0, interval_jitter_ms=0,
                duration_ms=10_000, advertising_interval_ms=100)
    base.update(kw)
    return SimConfig(**base)


def one_beacon(d: float = 1.0) -> Scenario:
    return Scenario(
        beacons=(Anchor("b0", (0.0, 0.0), tx_power_dbm=-59.0),),
        device_path=((0, (d, 0.0)),),
    )


# --- generator primitives ---

def test_splitmix64_known_answer_vectors():
    # published reference outputs for the splitmix64 stream
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    g = SplitMix64(1234567)
    assert g.next_u64() == 6457827717110365317
    assert g.next_u64() == 3203168211198807973


def test_mix64_is_pure():
    assert mix64(12345) == mix64(12345)
    assert mix64(1) != mix64(2)


def test_uniform_in_unit_interval():
    g = SplitMix64(9)
    vals = [g.random() for _ in range(20_000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(float(np.mean(vals)) - 0.5) < 0.01


def test_randint_inclusive_bounds():
    g = SplitMix64(4)
    vals = {g.randint(-3, 3) for _ in range(2000)}
    assert vals == set(range(-3, 4))
    with pytest.raises(ValueError):
        g.randint(2, 1)


def test_normal_moments_and_coverage():
    g = SplitMix64(77)
    vals = np.array([g.normal() for _ in range(50_000)])
    assert abs(vals.mean()) < 0.02
    assert abs(vals.std() - 1.0) < 0.02
    within_1sigma = float(np.mean(np.abs(vals) < 1.0))
    assert abs(within_1sigma - 0.6827) < 0.01


def test_normal_scale_and_shift():
    g1 = SplitMix64(123)
    g2 = SplitMix64(123)
    a = g1.normal()
    b = g2.normal(mu=5.0, sigma=2.0)
    assert b == pytest.approx(5.0 + 2.0 * a, rel=1e-12)


def test_derive_seed_properties():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    children = {derive_seed(42, k) for k in range(100)}
    assert len(children) == 100
    assert derive_seed(41, 0) != derive_seed(42, 0)
    with pytest.raises(ValueError):
        derive_seed(42, -1)


# --- event generation ---

def test_noise_free_rssi_is_exact_path_loss():
    trace = simulate(one_beacon(1.0), quiet_config())
    assert len(trace.samples) == 100  # nominal events 0..9900
    assert all(s.rssi_dbm == -59.0 for s in trace.samples)
    assert all(s.tx_power_dbm == -59.0 for s in trace.samples)


def test_event_count_matches_duration_over_interval():
    trace = simulate(one_beacon(), quiet_config(duration_ms=5000, advertising_interval_ms=250))
    assert len(trace.samples) == 20
    assert trace.samples[0].timestamp_ms == 0
    assert trace.samples[-1].timestamp_ms == 4750


def test_channels_rotate_with_event_index():
    trace = simulate(one_beacon(), quiet_config())
    for s in trace.samples:
        k = s.timestamp_ms // 100
        assert s.channel == (37, 38, 39)[k % 3]


def test_channel_rotation_survives_packet_loss():
    cfg = quiet_config(packet_loss_prob=0.5, duration_ms=30_000)
    trace = simulate(one_beacon(), cfg)
    assert 0 < len(trace.samples) < 300
    for s in trace.samples:
        k = s.timestamp_ms // 100  # jitter 0: timestamp identifies the event
        assert s.channel == (37, 38, 39)[k % 3]


def test_jitter_stays_within_bound_and_order():
    cfg = SimConfig(seed=3, shadow_sigma_db=0.0, interval_jitter_ms=10,
                    duration_ms=60_000)
    trace = simulate(one_beacon(), cfg)
    last = -1
    for s in trace.samples:
        k = round(s.timestamp_ms / 100)
        assert abs(s.timestamp_ms - k * 100) <= 10
        assert s.timestamp_ms >= last
        last = s.timestamp_ms


def test_packet_loss_thins_the_stream():
    full = simulate(one_beacon(), quiet_config(duration_ms=100_000))
    thin = simulate(one_beacon(), quiet_config(duration_ms=100_000, packet_loss_prob=0.5))
    assert len(full.samples) == 1000
    assert 400 <= len(thin.samples) <= 600


def test_loss_does_not_shift_surviving_events():
    # fixed draw count per event: the same events appear at the same
    # timestamps with the same rssi whether or not others are dropped
    base = simulate(one_beacon(), quiet_config(duration_ms=20_000, shadow_sigma_db=3.0))
    thin = simulate(one_beacon(), quiet_config(duration_ms=20_000, shadow_sigma_db=3.0,
                                               packet_loss_prob=0.3))
    by_ts = {s.timestamp_ms: s.rssi_dbm for s in base.samples}
    assert 0 < len(thin.samples) < len(base.samples)
    for s in thin.samples:
        assert by_ts[s.timestamp_ms] == s.rssi_dbm


def test_shadowing_statistics():
    sigma = 4.0
    cfg = quiet_config(shadow_sigma_db=sigma, duration_ms=120_000)
    trace = simulate(one_beacon(2.0), cfg)
    vals = np.array(trace.rssi_values())
    expected = distance_to_rssi(2.0)
    n = len(vals)
    assert abs(vals.mean() - expected) < 4 * sigma / math.sqrt(n)
    assert abs(vals.std() - sigma) < 0.4


def test_distance_error_grows_with_range():
    # dB scatter is distance-independent, but after inverting the path-loss
    # model the metre-scale error it induces grows with range
    errors = {1.0: [], 5.0: []}
    for run in range(200):
        for d in errors:
            cfg = quiet_config(seed=run, shadow_sigma_db=4.0, duration_ms=2_000)
            for rssi in simulate(one_beacon(d), cfg).rssi_values():
                errors[d].append(abs(rssi_to_distance(rssi) - d))
    assert float(np.median(errors[5.0])) > float(np.median(errors[1.0]))


def test_same_seed_same_trace_different_seed_differs():
    cfg = SimConfig(seed=99, duration_ms=20_000)
    t1 = simulate(one_beacon(), cfg)
    t2 = simulate(one_beacon(), cfg)
    assert t1 == t2
    t3 = simulate(one_beacon(), SimConfig(seed=100, duration_ms=20_000))
    assert [s.rssi_dbm for s in t3.samples] != [s.rssi_dbm for s in t1.samples]


def test_beacons_use_independent_substreams():
    scenario = Scenario(
        beacons=(Anchor("b0", (0.0, 0.0)), Anchor("b1", (0.0, 0.0))),
        device_path=((0, (1.0, 0.0)),),
    )
    trace = simulate(scenario, SimConfig(seed=5, duration_ms=20_000,
                                         interval_jitter_ms=0))
    r0 = [s.rssi_dbm for s in trace.for_beacon("b0")]
    r1 = [s.rssi_dbm for s in trace.for_beacon("b1")]
    assert len(r0) == len(r1) == 200
    assert r0 != r1  # identical geometry, different noise streams


def test_moving_device_changes_level_exactly():
    scenario = Scenario(
        beacons=(Anchor("b0", (0.0, 0.0)),),
        device_path=((0, (1.0, 0.0)), (5000, (4.0, 0.0))),
    )
    trace = simulate(scenario, quiet_config())
    far_level = distance_to_rssi(4.0)
    for s in trace.samples:
        if s.timestamp_ms < 5000:
            assert s.rssi_dbm == -59.0
        else:
            assert s.rssi_dbm == far_level


def test_position_at_boundary_switches_at_start_time():
    s = Scenario(beacons=(Anchor("b", (0, 0)),),
                 device_path=((0, (1.0, 0.0)), (5000, (2.0, 0.0))))
    assert s.position_at(4999) == (1.0, 0.0)
    assert s.position_at(5000) == (2.0, 0.0)


def test_coincident_device_and_beacon_hits_distance_floor():
    scenario = Scenario(beacons=(Anchor("b0", (0.0, 0.0)),),
                        device_path=((0, (0.0, 0.0)),))
    trace = simulate(scenario, quiet_config(duration_ms=1000))
    floor_level = min(0.0, distance_to_rssi(0.01))
    assert all(s.rssi_dbm == floor_level for s in trace.samples)


def test_trace_metadata_records_generator_and_seed():
    trace = simulate(one_beacon(), quiet_config(seed=1234))
    assert trace.metadata["generator"] == "splitmix64-boxmuller-v1"
    assert trace.metadata["seed"] == "1234"
    assert trace.metadata["duration_ms"] == "10000"


# --- validation ---

def test_scenario_validation():
    b = (Anchor("b0", (0.0, 0.0)),)
    with pytest.raises(InvalidScenario):
        Scenario(beacons=(), device_path=((0, (0.0, 0.0)),))
    with pytest.raises(InvalidScenario):
        Scenario(beacons=b, device_path=())
    with pytest.raises(InvalidScenario):
        Scenario(beacons=b, device_path=((100, (0.0, 0.0)),))  # must start at 0
    with pytest.raises(InvalidScenario):
        Scenario(beacons=b, device_path=((0, (0.0, 0.0)), (0, (1.0, 0.0))))
    with pytest.raises(InvalidScenario):
        Scenario(beacons=(Anchor("x", (0, 0)), Anchor("x", (1, 1))),
                 device_path=((0, (0.0, 0.0)),))


@pytest.mark.parametrize("kw", [
    dict(shadow_sigma_db=-1.0),
    dict(advertising_interval_ms=0),
    dict(interval_jitter_ms=100),   # must stay below the interval
    dict(interval_jitter_ms=-1),
    dict(packet_loss_prob=1.0),
    dict(packet_loss_prob=-0.1),
    dict(duration_ms=0),
    dict(channels=()),
    dict(channels=(36,)),
])
def test_sim_config_validation(kw):
    with pytest.raises(ValueError):
        SimConfig(seed=1, **kw)


# --- the ten-spot sweep ---

def test_experiment_distances_grid():
    assert experiment_distances() == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)


def test_ranging_experiment_shape_and_metadata():
    spots = ranging_experiment(SimConfig(seed=11))
    assert len(spots) == 10
    assert tuple(d for d, _ in spots) == experiment_distances()
    for i, (d, trace) in enumerate(spots):
        assert len(trace.samples) == 1200  # 120 s at 100 ms
        assert trace.metadata["duration_ms"] == "120000"
        assert trace.metadata["true_distance_m"] == repr(d)
        assert trace.metadata["spot_index"] == str(i)
        assert trace.metadata["experiment_seed"] == "11"
        assert trace.beacon_ids() == ("b0",)


def test_ranging_experiment_deterministic_and_spotwise_independent():
    a = ranging_experiment(SimConfig(seed=21))
    b = ranging_experiment(SimConfig(seed=21))
    assert a == b
    r0 = [s.rssi_dbm for s in a[0][1].samples[:50]]
    r1 = [s.rssi_dbm for s in a[1][1].samples[:50]]
    assert r0 != r1


def test_ranging_experiment_mean_tracks_distance():
    spots = ranging_experiment(SimConfig(seed=31, shadow_sigma_db=0.0,
                                         interval_jitter_ms=0))
    for d, trace in spots:
        level = distance_to_rssi(d)
        assert all(s.rssi_dbm == level for s in trace.samples)


# --- scenario files ---

def test_scenario_from_json_and_file(tmp_path):
    doc = {
        "beacons": [{"beacon_id": "b0", "x": 0.0, "y": 0.0, "tx_power_dbm": -59.0}],
        "device_path": [{"start_ms": 0, "x": 1.0, "y": 2.0}],
    }
    s = scenario_from_json(doc)
    assert s.beacons[0].beacon_id == "b0"
    assert s.device_path == ((0, (1.0, 2.0)),)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    assert load_scenario(str(p)) == s
    with pytest.raises(InvalidScenario):
        scenario_from_json({"beacons": []})
    with pytest.raises(InvalidScenario):
        scenario_from_json({"beacons": [{"beacon_id": "b"}], "device_path": []})


# --- device_path entries ---

PATH_BEACONS = [{"beacon_id": "b0", "x": 0.0, "y": 0.0}]
PATH_START = {"start_ms": 0, "x": 1.0, "y": 2.0}


@pytest.mark.parametrize("item, message", [
    ("[0, 1.0, 2.0]", "must be an object"),
    ('{"start_ms": 100, "y": 2.0}', "'x'"),
    ('{"x": 1.0, "y": 2.0}', "'start_ms'"),
    ('{"start_ms": 100, "x": ' + "9" * 400 + ', "y": 2.0}', "int too large to convert to float"),
])
def test_device_path_error_names_entry_index(item, message):
    doc = {"beacons": PATH_BEACONS, "device_path": [PATH_START, json.loads(item)]}
    with pytest.raises(InvalidScenario) as info:
        scenario_from_json(doc)
    assert str(info.value) == f"device_path 1: {message}"


def test_scenario_beacon_errors_keep_their_prefix():
    doc = {"beacons": PATH_BEACONS + [PATH_BEACONS[0]], "device_path": [PATH_START]}
    with pytest.raises(InvalidScenario) as info:
        scenario_from_json(doc)
    assert str(info.value) == "beacons: anchor 1: duplicate beacon_id 'b0'"


@pytest.mark.parametrize("start", [1.9, True, False, "100", None, float("inf"), float("nan")])
def test_start_ms_must_be_an_integer(start):
    doc = {"beacons": PATH_BEACONS,
           "device_path": [PATH_START, {"start_ms": start, "x": 3.0, "y": 4.0}]}
    with pytest.raises(InvalidScenario) as info:
        scenario_from_json(doc)
    assert str(info.value) == f"device_path 1: start_ms: expected an integer, got {start!r}"
    with pytest.raises(InvalidScenario, match="^device_path 1: start_ms: expected an integer"):
        Scenario(beacons=(Anchor("b0", (0.0, 0.0)),),
                 device_path=((0, (1.0, 2.0)), (start, (3.0, 4.0))))


def test_start_ms_takes_integer_valued_floats_as_ints():
    doc = {"beacons": PATH_BEACONS,
           "device_path": [{"start_ms": 0.0, "x": 1.0, "y": 2.0},
                           {"start_ms": 5000.0, "x": 3.0, "y": 4.0}]}
    scenario = scenario_from_json(doc)
    assert scenario.device_path == ((0, (1.0, 2.0)), (5000, (3.0, 4.0)))
    assert [type(start) for start, _ in scenario.device_path] == [int, int]
    doc["device_path"][1]["start_ms"] = 5000
    assert scenario_from_json(doc) == scenario


@pytest.mark.parametrize("x, y, message", [
    ('"a"', "2.0", "could not convert string to float: 'a'"),
    ("null", "2.0", "float() argument must be a string or a real number, not 'NoneType'"),
    ("9" * 400, "2.0", "int too large to convert to float"),
    ("1.0", None, "'y'"),
    ("1e999", "2.0", "non-finite position (inf, 2.0)"),
], ids=["string", "null", "400-digits", "missing-y", "1e999"])
def test_device_path_value_errors_are_pinned(x, y, message):
    y_field = "" if y is None else f', "y": {y}'
    item = json.loads(f'{{"start_ms": 100, "x": {x}{y_field}}}')
    with pytest.raises(InvalidScenario) as info:
        scenario_from_json({"beacons": PATH_BEACONS, "device_path": [PATH_START, item]})
    assert str(info.value) == f"device_path 1: {message}"


@pytest.mark.parametrize("position", [(True, 2.0), (1.0, False)])
def test_scenario_rejects_bool_coordinates(position):
    with pytest.raises(InvalidScenario) as info:
        Scenario(beacons=(Anchor("b0", (0.0, 0.0)),), device_path=((0, position),))
    assert str(info.value) == f"device_path 0: x and y must be numbers, got {position!r}"


def test_first_bad_device_path_entry_in_order_is_reported():
    doc = {"beacons": PATH_BEACONS,
           "device_path": [PATH_START, {"start_ms": 1.5, "x": 1.0, "y": 1.0},
                           {"start_ms": 200, "x": "a", "y": 1.0}]}
    with pytest.raises(InvalidScenario) as info:
        scenario_from_json(doc)
    assert str(info.value) == "device_path 1: start_ms: expected an integer, got 1.5"


@pytest.mark.parametrize("entry", [
    (0, (10 ** 400, 0.0)), (0, (0.0, "x")), (0, (1.0,)), 5, (0, (math.inf, 0.0)),
])
def test_every_scenario_entry_error_names_its_entry(entry):
    with pytest.raises(InvalidScenario, match="^device_path 0: "):
        Scenario(beacons=(Anchor("b0", (0.0, 0.0)),), device_path=(entry,))


@pytest.mark.parametrize("field", [
    "seed", "advertising_interval_ms", "interval_jitter_ms", "duration_ms"])
@pytest.mark.parametrize("value", [True, False, 100.0, "100"])
def test_sim_config_integers_must_be_ints_not_bools(field, value):
    kw = {"seed": 1, field: value}
    with pytest.raises(ValueError) as info:
        SimConfig(**kw)
    assert str(info.value) == f"{field} must be an int, got {value!r}"


def test_sim_config_stores_floats_and_rejects_bools():
    cfg = SimConfig(seed=1, shadow_sigma_db=4, packet_loss_prob=0)
    assert (cfg.shadow_sigma_db, cfg.packet_loss_prob) == (4.0, 0.0)
    assert type(cfg.shadow_sigma_db) is float and type(cfg.packet_loss_prob) is float
    with pytest.raises(ValueError, match="shadow_sigma_db must be >= 0, got True"):
        SimConfig(seed=1, shadow_sigma_db=True)
    with pytest.raises(ValueError, match=r"packet_loss_prob must be in \[0, 1\), got False"):
        SimConfig(seed=1, packet_loss_prob=False)


def test_simulated_metadata_does_not_depend_on_number_types():
    scenario = Scenario((Anchor("b0", (0.0, 0.0)),), ((0, (1.0, 0.0)),))
    ints = SimConfig(seed=3, path_loss=PathLossModel(-59, 2), shadow_sigma_db=4,
                     packet_loss_prob=0, duration_ms=1000)
    floats = SimConfig(seed=3, path_loss=PathLossModel(-59.0, 2.0), shadow_sigma_db=4.0,
                       packet_loss_prob=0.0, duration_ms=1000)
    a, b = simulate(scenario, ints), simulate(scenario, floats)
    assert a.metadata == b.metadata and a.samples == b.samples
    assert a.metadata["shadow_sigma_db"] == "4.0"


def test_sim_config_rejects_a_path_loss_that_is_not_a_model():
    with pytest.raises(ValueError, match="path_loss must be a PathLossModel"):
        SimConfig(seed=1, path_loss=(-59.0, 2.0))


def test_scenario_document_must_be_an_object():
    with pytest.raises(InvalidScenario, match="scenario must be a JSON object"):
        scenario_from_json([])
