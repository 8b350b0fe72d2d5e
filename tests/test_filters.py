"""Kalman filter: hand-worked steps, an independent numpy oracle, and
whole-trace smoothing semantics."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import constant_trace, make_trace
from microloc.errors import EmptyTrace, InsufficientSamples
from microloc.filters import (
    _variance,
    _window_q,
    KalmanParams,
    KalmanState,
    RssiWindow,
    default_params,
    initial_state,
    make_params,
    params_from_config,
    predict,
    smooth_trace,
    smooth_trace_dynamic,
    update,
    window_push,
    window_variance,
)
from microloc.model import RssiSample, Trace


def np_predict(x, P, F, Q):
    """Dense reference predict, straight matrix algebra."""
    return F @ x, F @ P @ F.T + Q


def np_update(x, P, z, H, R):
    """Dense reference update with explicit gain."""
    S = float(H @ P @ H + R)
    K = (P @ H) / S
    x = x + K * (z - float(H @ x))
    P = (np.eye(2) - np.outer(K, H)) @ P
    return x, P, K


def as_np(state: KalmanState):
    return np.array(state.x), np.array(state.P)


# --- parameters ---

def test_default_params_exact_values():
    p = default_params()
    assert p.dt == 0.2
    assert p.F == ((1.0, 0.2), (0.0, 1.0))
    assert p.H == (1.0, 0.0)
    assert p.Q == ((0.001, 0.0), (0.0, 0.001))
    assert p.R == 0.10
    assert p.P0 == ((100.0, 0.0), (0.0, 100.0))


def test_params_from_config_defaults_match():
    assert params_from_config({}) == default_params()
    p = params_from_config({"dt": 0.5, "q": 0.01, "r": 1.0, "p0": 9.0})
    assert p.F == ((1.0, 0.5), (0.0, 1.0))
    assert p.Q[0][0] == 0.01 and p.R == 1.0 and p.P0[1][1] == 9.0


@pytest.mark.parametrize("kwargs", [
    dict(dt=0.0), dict(dt=-1.0), dict(r=0.0), dict(r=-0.1), dict(q=-0.001), dict(p0=-1.0),
])
def test_make_params_rejects_bad_scalars(kwargs):
    with pytest.raises(ValueError):
        make_params(**kwargs)


def test_params_reject_asymmetric_or_indefinite():
    good = default_params()
    with pytest.raises(ValueError):
        KalmanParams(dt=0.2, F=good.F, H=good.H, Q=((1.0, 0.5), (0.0, 1.0)),
                     R=0.1, P0=good.P0)
    with pytest.raises(ValueError):
        KalmanParams(dt=0.2, F=good.F, H=(0.0, 0.0), Q=good.Q, R=0.1, P0=good.P0)


# --- single steps ---

def test_predict_moves_level_by_rate_times_dt():
    state = KalmanState(x=(-60.0, 5.0), P=((1.0, 0.0), (0.0, 1.0)))
    out = predict(state, make_params(dt=0.2, q=0.0001))
    assert out.x[0] == pytest.approx(-59.0, abs=0.0)  # -60 + 0.2 * 5, exact
    assert out.x[1] == 5.0


def test_predict_covariance_hand_expanded():
    # P = I, Q = 0ish: F P Ft = [[1 + dt^2, dt], [dt, 1]]
    params = make_params(dt=0.2, q=0.0)
    out = predict(KalmanState(x=(0.0, 0.0), P=((1.0, 0.0), (0.0, 1.0))), params)
    assert out.P[0][0] == pytest.approx(1.04, rel=1e-12)
    assert out.P[0][1] == pytest.approx(0.2, rel=1e-12)
    assert out.P[1][0] == pytest.approx(0.2, rel=1e-12)
    assert out.P[1][1] == pytest.approx(1.0, rel=1e-12)


def test_update_zero_innovation_leaves_estimate():
    params = default_params()
    state = KalmanState(x=(-60.0, 0.0), P=((2.0, 0.0), (0.0, 2.0)))
    out = update(state, -60.0, params)
    assert out.x[0] == -60.0
    assert out.x[1] == 0.0
    # covariance still shrinks: information arrived even with no surprise
    assert out.P[0][0] < 2.0


def test_update_hand_worked_gain():
    # P = I, R = 0.1: S = 1.1, K = [10/11, 0]; z - x0 = 2
    params = make_params(r=0.1)
    state = KalmanState(x=(-60.0, 0.0), P=((1.0, 0.0), (0.0, 1.0)))
    out = update(state, -58.0, params)
    assert out.gain[0] == pytest.approx(10.0 / 11.0, rel=1e-12)
    assert out.gain[1] == 0.0
    assert out.x[0] == pytest.approx(-60.0 + 20.0 / 11.0, rel=1e-12)
    assert out.P[0][0] == pytest.approx(1.0 / 11.0, rel=1e-12)


def test_zero_prior_covariance_ignores_measurement():
    params = default_params()
    state = KalmanState(x=(-60.0, 0.0), P=((0.0, 0.0), (0.0, 0.0)))
    out = update(state, -10.0, params)
    assert out.gain == (0.0, 0.0)
    assert out.x == (-60.0, 0.0)


def test_gain_shrinks_as_r_grows():
    gains = []
    for r in (0.01, 0.1, 1.0, 10.0, 1000.0):
        state = KalmanState(x=(-60.0, 0.0), P=((5.0, 0.0), (0.0, 5.0)))
        gains.append(update(state, -55.0, make_params(r=r)).gain[0])
    assert all(a > b for a, b in zip(gains, gains[1:]))
    assert gains[-1] < 0.01


def test_steps_match_dense_oracle_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(300):
        dt = float(rng.uniform(0.05, 1.0))
        params = make_params(dt=dt, q=float(rng.uniform(1e-5, 1.0)),
                             r=float(rng.uniform(1e-3, 10.0)),
                             p0=float(rng.uniform(0.1, 200.0)))
        # random PSD covariance: A At + eps I
        a = rng.normal(size=(2, 2))
        P = a @ a.T + 1e-6 * np.eye(2)
        x = rng.normal(size=2) * 10.0
        state = KalmanState(x=(float(x[0]), float(x[1])),
                            P=((float(P[0, 0]), float(P[0, 1])),
                               (float(P[1, 0]), float(P[1, 1]))))
        F = np.array(params.F)
        Q = np.array(params.Q)
        H = np.array(params.H)

        got = predict(state, params)
        ex, eP = np_predict(x, P, F, Q)
        assert np.allclose(got.x, ex, rtol=1e-9, atol=1e-12)
        assert np.allclose(got.P, eP, rtol=1e-9, atol=1e-12)

        z = float(rng.normal() * 20.0)
        got2 = update(got, z, params)
        ux, uP, uK = np_update(ex, eP, z, H, params.R)
        assert np.allclose(got2.x, ux, rtol=1e-9, atol=1e-12)
        assert np.allclose(got2.P, uP, rtol=1e-9, atol=1e-12)
        assert np.allclose(got2.gain, uK, rtol=1e-9, atol=1e-12)


def test_covariance_stays_symmetric_through_many_steps():
    params = default_params()
    state = initial_state(-60.0, params)
    rng = np.random.default_rng(5)
    for _ in range(500):
        state = update(predict(state, params), float(-60 + rng.normal() * 4), params)
        assert state.P[0][1] == state.P[1][0]
        assert state.P[0][0] >= 0.0


def test_update_rejects_nonfinite_measurement():
    with pytest.raises(ValueError):
        update(initial_state(-60.0, default_params()), float("nan"), default_params())


# --- window ---

def test_window_push_below_capacity_appends():
    w = RssiWindow(3)
    w = window_push(w, -60.0)
    w = window_push(w, -61.0)
    assert w.values == (-60.0, -61.0)


def test_window_push_at_capacity_evicts_oldest():
    w = RssiWindow(3, (-1.0, -2.0, -3.0))
    w = window_push(w, -4.0)
    assert w.values == (-2.0, -3.0, -4.0)
    assert w.capacity == 3


def test_window_capacity_validation():
    with pytest.raises(ValueError):
        RssiWindow(1)
    with pytest.raises(ValueError):
        RssiWindow(3, (-1.0, -2.0, -3.0, -4.0))


def test_window_variance_examples():
    assert window_variance(RssiWindow(4, (-60.0, -60.0, -60.0))) == 0.0
    # values -59, -61: mean -60, deviations 1 each, population variance 1
    assert window_variance(RssiWindow(2, (-59.0, -61.0))) == 1.0
    with pytest.raises(InsufficientSamples):
        window_variance(RssiWindow(5, (-60.0,)))
    with pytest.raises(InsufficientSamples):
        window_variance(RssiWindow(5))


def test_window_variance_squares_by_multiplication():
    # libm's pow, which d ** 2 calls, gives 2402.106784558736 here on glibc 2.36
    window = RssiWindow(3, (0.0, -56.92095298601803, -120.0))
    assert window_variance(window) == 2402.1067845587354


def test_window_variance_matches_numpy_population():
    rng = np.random.default_rng(21)
    for _ in range(200):
        vals = tuple(float(v) for v in rng.normal(-60, 5, int(rng.integers(2, 12))))
        w = RssiWindow(len(vals), vals)
        assert window_variance(w) == pytest.approx(float(np.var(vals)), rel=1e-12, abs=1e-12)


# --- whole-trace smoothing ---

def test_smooth_constant_trace_is_identity():
    t = constant_trace(-64.0, 50)
    out = smooth_trace(t, default_params())
    assert all(s.rssi_dbm == -64.0 for s in out.samples)


def test_smooth_preserves_structure():
    t = make_trace(13, n=60, beacons=("b0", "b1"))
    out = smooth_trace(t, default_params())
    assert len(out.samples) == len(t.samples)
    for a, b in zip(t.samples, out.samples):
        assert a.timestamp_ms == b.timestamp_ms
        assert a.beacon_id == b.beacon_id
        assert a.channel == b.channel
        assert a.tx_power_dbm == b.tx_power_dbm


def test_smooth_filters_beacons_independently():
    # two interleaved constant streams at different levels stay constant;
    # any cross-talk would drag estimates between the levels
    samples = tuple(
        RssiSample(
            timestamp_ms=i * 50,
            beacon_id="hi" if i % 2 == 0 else "lo",
            rssi_dbm=-50.0 if i % 2 == 0 else -90.0,
        )
        for i in range(40)
    )
    out = smooth_trace(Trace(samples), default_params())
    for s in out.samples:
        assert s.rssi_dbm == (-50.0 if s.beacon_id == "hi" else -90.0)


def test_smooth_reduces_noise_variance():
    t = make_trace(31, n=300, spread=8.0)
    out = smooth_trace(t, default_params())
    raw = np.var(t.rssi_values())
    smoothed = np.var(out.rssi_values())
    assert smoothed < 0.2 * raw


def test_smooth_explicit_initial_level():
    t = constant_trace(-60.0, 80)
    out = smooth_trace(t, default_params(), x0=-80.0)
    first = out.samples[0].rssi_dbm
    assert -80.0 < first < -60.0
    assert abs(out.samples[-1].rssi_dbm - (-60.0)) < 0.05


def test_smooth_empty_trace_raises():
    with pytest.raises(EmptyTrace):
        smooth_trace(Trace(()), default_params())
    with pytest.raises(EmptyTrace):
        smooth_trace_dynamic(Trace(()), default_params())


def test_smooth_single_sample_is_itself():
    t = constant_trace(-71.5, 1)
    out = smooth_trace(t, default_params())
    assert out.samples[0].rssi_dbm == -71.5


def test_smooth_records_filter_metadata():
    t = make_trace(2, n=10)
    out = smooth_trace(t, default_params())
    assert out.metadata["filter"] == "kalman"
    assert out.metadata["origin"] == "test-seed-2"
    dyn = smooth_trace_dynamic(t, default_params(), window_n=4)
    assert dyn.metadata["filter"] == "kalman_dynamic_q"
    assert dyn.metadata["filter_window_n"] == "4"


# --- dynamic mode ---

def test_dynamic_needs_two_samples_per_beacon():
    with pytest.raises(InsufficientSamples):
        smooth_trace_dynamic(constant_trace(-60.0, 1), default_params(), window_n=2)


def test_dynamic_rejects_bad_window_or_scale():
    t = constant_trace(-60.0, 10)
    with pytest.raises(ValueError):
        smooth_trace_dynamic(t, default_params(), window_n=1)
    with pytest.raises(ValueError):
        smooth_trace_dynamic(t, default_params(), q_scale=0.0)


def test_dynamic_constant_trace_is_identity():
    t = constant_trace(-58.0, 60)
    out = smooth_trace_dynamic(t, default_params(), window_n=10)
    assert all(s.rssi_dbm == -58.0 for s in out.samples)


def test_dynamic_full_length_window_equals_prefix_variance_filter():
    """With window_n = trace length the window never evicts, so the Q at
    step t must equal the population variance of measurements 0..t. Rebuild
    that schedule by hand with per-step params and the public step
    functions, and require identical output."""
    t = make_trace(17, n=40, spread=6.0)
    zs = [s.rssi_dbm for s in t.samples]
    params = default_params()
    got = [s.rssi_dbm for s in smooth_trace_dynamic(t, params, window_n=len(zs)).samples]

    state = initial_state(zs[0], params)
    expected = []
    for i, z in enumerate(zs):
        if i >= 1:
            v = float(np.var(zs[: i + 1]))
            step_params = replace(params, Q=((v, 0.0), (0.0, v)))
        else:
            step_params = params
        state = update(predict(state, step_params), z, step_params)
        expected.append(state.x[0])
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_dynamic_tracks_level_change_faster_than_static():
    # a sharp level shift: the variance window inflates Q so the dynamic
    # filter should close most of the gap sooner than the static one
    samples = []
    for i in range(120):
        level = -55.0 if i < 60 else -85.0
        samples.append(RssiSample(i * 100, "b0", level))
    t = Trace(tuple(samples))
    params = default_params()
    stat = [s.rssi_dbm for s in smooth_trace(t, params).samples]
    dyn = [s.rssi_dbm for s in smooth_trace_dynamic(t, params, window_n=10).samples]
    # 10 steps after the jump the dynamic estimate is much closer to -85
    assert abs(dyn[70] - (-85.0)) < abs(stat[70] - (-85.0))


def test_int_and_float_dt_serialise_identically():
    from microloc.filters import params_to_config

    as_int, as_float = make_params(dt=1), make_params(dt=1.0)
    assert type(as_int.dt) is float and as_int == as_float
    assert json.dumps(params_to_config(as_int)) == json.dumps(params_to_config(as_float))
    t = make_trace(3, n=20)
    assert smooth_trace(t, as_int).metadata == smooth_trace(t, as_float).metadata
    assert smooth_trace(t, as_int).metadata["filter_dt"] == "1.0"


@pytest.mark.parametrize("window_n", [None, 2, 7])
def test_interleaved_beacons_match_per_beacon_reference(window_n):
    """Each beacon's stream, filtered alone through the public step
    functions and RssiWindow, gives bit-identical output."""
    t = make_trace(23, n=300, beacons=("c", "a", "b", "a", "c"), spread=9.0)
    params = make_params(q=0.01)
    out = (smooth_trace(t, params) if window_n is None
           else smooth_trace_dynamic(t, params, window_n, q_scale=0.5))
    got: dict[str, list[float]] = {}
    for s in out.samples:
        got.setdefault(s.beacon_id, []).append(s.rssi_dbm)
    for beacon_id in t.beacon_ids():
        zs = [s.rssi_dbm for s in t.for_beacon(beacon_id)]
        state, win, expected = initial_state(zs[0], params), RssiWindow(window_n or 2), []
        for z in zs:
            step = params
            if window_n is not None:
                win = window_push(win, z)
                if len(win) >= 2:
                    v = 0.5 * window_variance(win)
                    step = replace(params, Q=((v, 0.0), (0.0, v)))
            state = update(predict(state, step), z, step)
            expected.append(min(0.0, max(-120.0, state.x[0])))
        assert got[beacon_id] == expected


def test_window_variance_sums_left_to_right():
    # Ten 0.1s add up to 0.9999999999999999 left to right, but to exactly 1.0
    # under a compensated sum (builtin sum() of floats from Python 3.12 on).
    values = (0.1,) * 10
    total = 0.0
    for v in values:
        total += v
    mean = total / 10
    squares = 0.0
    for v in values:
        squares += (v - mean) ** 2
    assert squares / 10 == 1.925929944387236e-34  # 0.0 with compensated sums
    assert window_variance(RssiWindow(capacity=10, values=values)) == squares / 10


@pytest.mark.parametrize("window_n", [2**63, int(1e308)], ids=["2**63", "1e308"])
def test_window_wider_than_int64_gives_prefix_variances(window_n):
    # a window wider than the stream never evicts: step i's Q comes from
    # the whole prefix zs[:i + 1], with the bits _variance gives it
    rng = np.random.default_rng(7)
    zs = (-60.0 + 4.0 * rng.standard_normal(40)).tolist()
    expected = [0.5 * _variance(zs[:i + 1]) for i in range(1, len(zs))]
    assert _window_q(zs, window_n, 0.5) == expected
    assert _window_q(zs, window_n, 0.5) == _window_q(zs, len(zs), 0.5)


def test_kalman_params_reject_wrong_shapes():
    params = default_params()
    with pytest.raises(ValueError, match="F must be a 2x2 matrix"):
        replace(params, F=((1.0, 0.0), (0.0, 1.0), (0.0, 0.0)))
    with pytest.raises(ValueError, match="H must be a finite 2-vector"):
        replace(params, H=(1.0,))


def test_window_push_rejects_nan():
    with pytest.raises(ValueError, match="window value must be finite"):
        window_push(RssiWindow(3), float("nan"))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_window_rejects_non_finite_values_as_window_push_does(value):
    with pytest.raises(ValueError) as built:
        RssiWindow(3, (value, 1.0))
    with pytest.raises(ValueError) as pushed:
        window_push(RssiWindow(3, (1.0,)), value)
    assert str(built.value) == str(pushed.value) == f"window value must be finite, got {value!r}"


def test_kalman_state_takes_its_numbers_through_the_number_rule():
    params = default_params()
    with pytest.raises(ValueError, match="^x must be a number, got 'x'$"):
        update(KalmanState(("x", 0.0), params.P0), -60.0, params)
    with pytest.raises(ValueError, match="^P must be a number, got True$"):
        KalmanState((0.0, 0.0), ((True, 0.0), (0.0, 1.0)))
    state = KalmanState((np.float32(-60.0), 0), ((1, np.int64(0)), (0, 1)), (np.float64(0.5), 0))
    assert state == KalmanState((-60.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), (0.5, 0.0))
    assert all(type(v) is float for v in (*state.x, *state.P[0], *state.P[1], *state.gain))


@pytest.mark.parametrize("x, P, gain, message", [
    ((0.0,), ((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), "x must be a pair of numbers"),
    (None, ((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), "x must be a pair of numbers"),
    ((0.0, 0.0), ((1.0, 0.0),), (0.0, 0.0), "P must be a 2x2 matrix"),
    ((0.0, 0.0), ((1.0, 0.0, 0.0), (0.0, 1.0)), (0.0, 0.0), "P must be a 2x2 matrix"),
    ((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0, 0.0), "gain must be a pair of numbers"),
])
def test_kalman_state_rejects_wrong_shapes(x, P, gain, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        KalmanState(x, P, gain)


def test_a_step_that_overflows_returns_its_state():
    params = default_params()
    state = predict(KalmanState((1.7e308, 1e308), params.P0), params)
    assert state.x[0] == math.inf
    assert math.isnan(update(state, -60.0, params).x[0])


@pytest.mark.parametrize("key", ["dt", "q", "r", "p0"])
def test_params_from_config_leaves_each_value_to_the_number_rule(key):
    with pytest.raises(ValueError) as info:
        params_from_config({key: True})
    assert str(info.value) == f"{key} must be a number, got True"
    with pytest.raises(ValueError) as info:
        make_params(**{key: "1"})
    assert str(info.value) == f"{key} must be a number, got '1'"
