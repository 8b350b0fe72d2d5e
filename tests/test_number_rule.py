"""The one number rule (model.real) at every public entry point.

Each public callable of ``microloc.__all__``, plus the ranging, filter and
codec functions below it, is called with a hostile scalar in place of each
number it takes: bools, numpy bools, text, bytes, None, NaN, infinities,
integers too large for a float, and numpy scalars. Every call must return
or raise ValueError or a MicrolocError; a TypeError, OverflowError or a
RuntimeWarning (an error under this suite's warning filters) fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import microloc
from microloc import codec, evaluate, filters, position, ranging, sim
from microloc.errors import MicrolocError
from microloc.model import RssiSample, Trace, real

HOSTILE = [True, False, np.bool_(True), "1", "nan", b"1", bytearray(b"1"), None,
           math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400),
           np.float64(0.5), np.float32(-3.0), np.int64(2), np.int8(-1)]

hostile_scalars = st.one_of(
    st.sampled_from(HOSTILE),
    st.booleans(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=2 ** 1024, max_value=2 ** 1100).map(lambda n: n * (1, -1)[n % 2]),
    st.builds(np.float64, st.floats(-130.0, 130.0)),
    st.builds(np.int64, st.integers(-130, 130)),
)

ANCHORS = (position.Anchor("a", (0.0, 0.0)), position.Anchor("b", (4.0, 0.0)),
           position.Anchor("c", (0.0, 4.0)))
PARAMS = filters.default_params()
STATE = filters.initial_state(-60.0, PARAMS)
WINDOW = filters.RssiWindow(3, (-60.0,))
TRACE = Trace([RssiSample(100 * t, "a", -60.0 - t % 3) for t in range(6)])
DB = position.FingerprintDb((position.Fingerprint((0.0, 0.0), {"a": -60.0}),
                             position.Fingerprint((1.0, 0.0), {"a": -70.0})))
BEACON = (position.Anchor("b0", (0.0, 0.0)),)
UUID16 = bytes(range(16))


def _with(values: list, i: int, v) -> list:
    """values with values[i] replaced by v."""
    return [v if j == i else x for j, x in enumerate(values)]


def _matrix_entry(name: str, i: int):
    """A KalmanParams whose matrix ``name`` holds v at flat index i."""
    def build(v):
        rows = [list(row) for row in getattr(PARAMS, name)]
        rows[i // 2][i % 2] = v
        return replace(PARAMS, **{name: tuple(map(tuple, rows))})
    return build


def _identity_with(i: int, v) -> tuple:
    """The 2x2 identity matrix with v at flat index i."""
    flat = _with([1.0, 0.0, 0.0, 1.0], i, v)
    return (tuple(flat[:2]), tuple(flat[2:]))


@functools.cache
def _small_sweep(config) -> tuple:
    """Two 2-second spots, in place of ranging_experiment's ten 2-minute ones."""
    return tuple((d, sim.simulate(sim.Scenario(BEACON, ((0, (d, 0.0)),)),
                                  replace(config, duration_ms=2000))) for d in (0.5, 1.0))


def _report(**kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "ranging_experiment", _small_sweep)
        return evaluate.ranging_report(sim.SimConfig(seed=1), **kwargs)


# public name -> one call per number it takes, each with v in that number's place
SLOTS = {
    "RssiSample": [lambda v: RssiSample(v, "a", -60.0), lambda v: RssiSample(0, "a", v),
                   lambda v: RssiSample(0, "a", -60.0, v),
                   lambda v: RssiSample(0, "a", -60.0, None, v)],
    "PathLossModel": [lambda v: ranging.PathLossModel(v),
                      lambda v: ranging.PathLossModel(-59.0, v)],
    "model_from_config": [lambda v: ranging.model_from_config({"ref_power_dbm": v}),
                          lambda v: ranging.model_from_config({"exponent": v})],
    "rssi_to_distance": [ranging.rssi_to_distance],
    "distance_to_rssi": [ranging.distance_to_rssi],
    "toa_to_distance": [ranging.toa_to_distance],
    "tdoa_range_difference": [ranging.tdoa_range_difference],
    "KalmanParams": [lambda v: replace(PARAMS, dt=v), lambda v: replace(PARAMS, R=v),
                     lambda v: replace(PARAMS, H=(v, 0.0)), lambda v: replace(PARAMS, H=(1.0, v)),
                     *(_matrix_entry(name, i) for name in ("F", "Q", "P0") for i in range(4))],
    "KalmanState": [lambda v: filters.KalmanState((v, 0.0), PARAMS.P0),
                    lambda v: filters.KalmanState((0.0, v), PARAMS.P0),
                    *(lambda v, i=i: filters.KalmanState((0.0, 0.0), _identity_with(i, v))
                      for i in range(4)),
                    lambda v: filters.KalmanState((0.0, 0.0), PARAMS.P0, (v, 0.0)),
                    lambda v: filters.KalmanState((0.0, 0.0), PARAMS.P0, (0.0, v))],
    "make_params": [lambda v, k=k: filters.make_params(**{k: v}) for k in ("dt", "q", "r", "p0")],
    "params_from_config": [lambda v, k=k: filters.params_from_config({k: v})
                           for k in ("dt", "q", "r", "p0")],
    "initial_state": [lambda v: filters.initial_state(v, PARAMS)],
    "update": [lambda v: filters.update(STATE, v, PARAMS)],
    "RssiWindow": [lambda v: filters.RssiWindow(v), lambda v: filters.RssiWindow(3, (v,))],
    "window_push": [lambda v: filters.window_push(WINDOW, v)],
    "smooth_trace": [lambda v: filters.smooth_trace(TRACE, PARAMS, v)],
    "smooth_trace_dynamic": [lambda v: filters.smooth_trace_dynamic(TRACE, PARAMS, v),
                             lambda v: filters.smooth_trace_dynamic(TRACE, PARAMS, 3, v),
                             lambda v: filters.smooth_trace_dynamic(TRACE, PARAMS, 3, 1.0, v)],
    "Anchor": [lambda v: position.Anchor("a", (v, 0.0)), lambda v: position.Anchor("a", (0.0, v)),
               lambda v: position.Anchor("a", (0.0, 0.0), v)],
    "PositionEstimate": [
        lambda v: position.PositionEstimate((v, 0.0), position.Method.LATERATION, 0.0),
        lambda v: position.PositionEstimate((0.0, 0.0), position.Method.LATERATION, v)],
    "classify_proximity": [position.classify_proximity,
                           lambda v: position.classify_proximity(1.0, v),
                           lambda v: position.classify_proximity(1.0, 0.5, v)],
    "proximity_region": [lambda v, i=i: position.proximity_region(ANCHORS, _with([3.0] * 3, i, v))
                         for i in range(3)],
    "trilaterate": [lambda v, i=i: position.trilaterate(ANCHORS, _with([3.0] * 3, i, v))
                    for i in range(3)],
    "triangulate": [lambda v, i=i: position.triangulate(ANCHORS[:2], _with([0.5, 2.0], i, v))
                    for i in range(2)],
    "tdoa_locate": [lambda v, i=i: position.tdoa_locate(ANCHORS, _with([0.0, 0.0], i, v))
                    for i in range(2)],
    "fingerprint_build": [lambda v: position.fingerprint_build([((v, 0.0), TRACE)]),
                          lambda v: position.fingerprint_build([((0.0, v), TRACE)])],
    "fingerprint_locate": [lambda v: position.fingerprint_locate(DB, {"a": v}),
                           lambda v: position.fingerprint_locate(DB, {"a": -60.0}, v)],
    "EddystoneTlmFrame": [lambda v, i=i: codec.EddystoneTlmFrame(*_with([3000, 20.5, 1, 2], i, v))
                          for i in range(4)],
    "IBeaconFrame": [lambda v, i=i: codec.IBeaconFrame(UUID16, *_with([1, 2, -59], i, v))
                     for i in range(3)],
    "SimConfig": [lambda v, k=k: sim.SimConfig(**{"seed": 1, k: v})
                  for k in ("seed", "shadow_sigma_db", "advertising_interval_ms",
                            "interval_jitter_ms", "packet_loss_prob", "duration_ms")]
                 + [lambda v: sim.SimConfig(seed=1, channels=(v,))],
    "Scenario": [lambda v: sim.Scenario(BEACON, ((v, (1.0, 0.0)),)),
                 lambda v: sim.Scenario(BEACON, ((0, (v, 0.0)),)),
                 lambda v: sim.Scenario(BEACON, ((0, (1.0, v)),))],
    "accuracy": [lambda v: evaluate.accuracy([v, 1.0], 1.0),
                 lambda v: evaluate.accuracy([1.0], v)],
    "precision": [lambda v: evaluate.precision([v, 1.0])],
    "error_histogram": [lambda v: evaluate.error_histogram([v, 1.0]),
                        lambda v: evaluate.error_histogram([1.0], v)],
    "ErrorReport": [lambda v: evaluate.ErrorReport((), {}, {}, {}, v)],
    "ranging_report": [lambda v: _report(window_n=v), lambda v: _report(q_scale=v),
                       lambda v: _report(bin_width_m=v), lambda v: _report(window_sizes=(v,))],
}
# public callables that take no number: paths, payloads, frames, traces, configs
NO_NUMBERS = {"MicrolocError", "Trace", "load_trace", "save_trace", "default_params", "Method",
              "Zone", "decode", "encode", "measured_power", "simulate", "ranging_experiment"}


def test_every_public_callable_is_covered():
    public = {name for name in microloc.__all__ if callable(getattr(microloc, name))}
    assert public - NO_NUMBERS <= SLOTS.keys()
    assert NO_NUMBERS <= public and not NO_NUMBERS & SLOTS.keys()


CALLS = [(name, i) for name, calls in SLOTS.items() for i in range(len(calls))]


def _examples(test):
    for value in reversed(HOSTILE):
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("name, i", CALLS, ids=[f"{name}-{i}" for name, i in CALLS])
@settings(max_examples=15, deadline=None)
@_examples
@given(value=hostile_scalars)
def test_a_hostile_scalar_returns_or_raises_value_error(name, i, value):
    try:
        SLOTS[name][i](value)
    except (ValueError, MicrolocError):
        pass


@pytest.mark.parametrize("value, message", [
    (True, "z must be a number, got True"),
    (np.bool_(False), f"z must be a number, got {np.bool_(False)!r}"),
    ("1.5", "z must be a number, got '1.5'"),
    (b"1", "z must be a number, got b'1'"),
    (bytearray(b"1"), "z must be a number, got bytearray(b'1')"),
    (None, "float() argument must be a string or a real number, not 'NoneType'"),
    (10 ** 400, "int too large to convert to float"),
], ids=["bool", "numpy-bool", "str", "bytes", "bytearray", "none", "huge-int"])
def test_real_rejects_what_is_not_a_number(value, message):
    with pytest.raises(ValueError) as info:
        real(value, "z")
    assert str(info.value) == message


def test_real_passes_every_float_and_converts_numbers():
    x = -59.5
    assert real(x, "z") is x
    assert math.isnan(real(math.nan, "z")) and real(-math.inf, "z") == -math.inf
    for value in (np.float32(0.5), np.float64(0.5), np.int64(3), 3, 2 ** 64):
        assert type(real(value, "z")) is float and real(value, "z") == float(value)


@pytest.mark.parametrize("call", [
    lambda: ranging.rssi_to_distance(True),
    lambda: ranging.rssi_to_distance("-60"),
    lambda: ranging.rssi_to_distance(10 ** 400),
    lambda: ranging.distance_to_rssi(True),
    lambda: ranging.toa_to_distance("1"),
    lambda: position.classify_proximity("1"),
    lambda: position.classify_proximity(1.0, "0.5", 3.0),
    lambda: position.trilaterate(ANCHORS, [True, 5, 5]),
    lambda: position.triangulate(ANCHORS[:2], ["0.5", 1.0]),
    lambda: position.tdoa_locate(ANCHORS, [True, 1.0]),
    lambda: position.fingerprint_locate(DB, {"a": True}),
    lambda: filters.window_push(WINDOW, True),
    lambda: filters.initial_state(True, PARAMS),
    lambda: filters.update(STATE, True, PARAMS),
    lambda: filters.update(STATE, 10 ** 400, PARAMS),
    lambda: RssiSample(0, "a", 10 ** 400),
], ids=["rssi-bool", "rssi-str", "rssi-huge", "distance-bool", "toa-str", "zone-str",
        "zone-threshold-str", "trilaterate-bool", "triangulate-str", "tdoa-bool",
        "fingerprint-bool", "window-bool", "initial-state-bool", "update-bool", "update-huge",
        "sample-huge"])
def test_a_value_that_is_not_a_number_raises_value_error(call):
    with pytest.raises(ValueError):
        call()
