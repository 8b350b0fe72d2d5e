"""Property and resource tests of smoothing: bit-identity of both modes with
a loop over the public predict/update steps and the per-step RssiWindow
reference, the steps at which the filter loop stops recomputing P, and the
memory the Q sequence takes."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from itertools import repeat

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_trace
from microloc import filters
from microloc.errors import InsufficientSamples
from microloc.filters import (
    _SYM_TOL,
    KalmanParams,
    KalmanState,
    RssiWindow,
    _kalman,
    default_params,
    initial_state,
    make_params,
    predict,
    smooth_trace,
    smooth_trace_dynamic,
    update,
    window_push,
    window_variance,
)
from microloc.model import RSSI_MAX_DBM, RSSI_MIN_DBM, RssiSample, Trace

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

rssi = st.floats(-120.0, 0.0)


@st.composite
def streams(draw, n: int) -> list[float]:
    """n RSSI values: single draws, runs of one value and 0.1 dB ladders."""
    values: list[float] = []
    while len(values) < n:
        kind = draw(st.sampled_from(("value", "run", "ladder")))
        if kind == "value":
            values.append(draw(rssi))
        elif kind == "run":
            values += [draw(rssi)] * draw(st.integers(2, 40))
        else:
            start = draw(st.floats(-120.0, -10.0))
            values += [start + 0.1 * i for i in range(draw(st.integers(2, 40)))]
    return values[:n]


@st.composite
def dynamic_cases(draw):
    """(trace, each beacon's stream, window_n, q_scale) with 1-4 interleaved beacons."""
    window_n = draw(st.integers(2, 60))
    near = [n for n in (window_n - 1, window_n, window_n + 1) if n >= 2]
    lengths = draw(st.lists(st.integers(2, 200) | st.sampled_from(near), min_size=1, max_size=4))
    zs = {f"b{k}": draw(streams(n)) for k, n in enumerate(lengths)}
    rows = []
    for beacon_id, values in zs.items():
        step, offset = draw(st.integers(1, 5)), draw(st.integers(0, 4))
        rows += [RssiSample(offset + i * step, beacon_id, v) for i, v in enumerate(values)]
    q_scale = draw(st.floats(0.0, 1e6, exclude_min=True))
    return Trace(rows), zs, window_n, q_scale


def reference_stream(zs: list[float], params, window_n: int, q_scale: float) -> list[float]:
    """One beacon filtered step by step through RssiWindow and the public step functions."""
    state, win, out = initial_state(zs[0], params), RssiWindow(window_n), []
    for z in zs:
        step = params
        win = window_push(win, z)
        if len(win) >= 2:
            v = q_scale * window_variance(win)
            step = replace(params, Q=((v, 0.0), (0.0, v)))
        state = update(predict(state, step), z, step)
        out.append(min(0.0, max(-120.0, state.x[0])))
    return out


@SETTINGS
@given(dynamic_cases())
def test_dynamic_matches_per_step_window_reference(case):
    trace, zs, window_n, q_scale = case
    params = make_params(q=0.01)
    got: dict[str, list[float]] = {}
    for s in smooth_trace_dynamic(trace, params, window_n, q_scale).samples:
        got.setdefault(s.beacon_id, []).append(s.rssi_dbm)
    assert got == {b: reference_stream(values, params, window_n, q_scale)
                   for b, values in zs.items()}


def test_dynamic_q_memory_is_linear_in_stream_length():
    # An n x window_n matrix of deviations would take 5000 * 500 * 8 B = 20 MB.
    trace = make_trace(11, n=5000)
    params = make_params()
    tracemalloc.start()
    try:
        smooth_trace_dynamic(trace, params, window_n=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


# --- both modes against a loop over the public steps ---

def reference_outcome(trace: Trace, params: KalmanParams, x0: float | None,
                      window_n: int | None, q_scale: float = 1.0):
    """The filtered RSSI column's bytes, or the class and beacon of what filtering raises.

    Each beacon's rows run through initial_state, then predict and update
    once per measurement; window_n None is static Q, otherwise Q follows
    the RssiWindow variance once the window holds two values.
    """
    streams: dict[str, list[int]] = {}
    for row, sample in enumerate(trace.samples):
        streams.setdefault(sample.beacon_id, []).append(row)
    rssi = trace.samples.rssi_dbm.tolist()
    h0, h1 = params.H
    out = np.empty(len(rssi))
    for beacon_id, rows in streams.items():
        zs = [rssi[i] for i in rows]
        if window_n is not None and len(zs) < 2:
            return InsufficientSamples, beacon_id
        state = initial_state(zs[0], params)
        if x0 is not None:
            state = KalmanState((x0, 0.0), params.P0)
        win, ests = RssiWindow(window_n or 2), []
        for z in zs:
            step = params
            if window_n is not None:
                win = window_push(win, z)
                if len(win) >= 2:
                    v = q_scale * window_variance(win)
                    step = replace(params, Q=((v, 0.0), (0.0, v)))
            state = update(predict(state, step), z, step)
            ests.append(h0 * state.x[0] + h1 * state.x[1])
        if not all(map(np.isfinite, ests)):
            return ValueError, beacon_id
        out[rows] = [min(RSSI_MAX_DBM, max(RSSI_MIN_DBM, v)) for v in ests]
    return out.tobytes()


def outcome(fn, *args):
    try:
        return fn(*args).samples.rssi_dbm.tobytes()
    except (ValueError, InsufficientSamples) as exc:
        return type(exc), str(exc).split("'")[1]


entry = st.floats(-2.0, 2.0)


@st.composite
def covariances(draw, asymmetric: bool):
    """A positive semi-definite 2x2 matrix; asymmetric, within _SYM_TOL, when asked."""
    a, d = draw(st.floats(0.0, 100.0)), draw(st.floats(0.0, 100.0))
    b = draw(st.floats(-0.99, 0.99)) * (a * d) ** 0.5
    c = b
    if asymmetric:
        c = b + draw(st.floats(-0.5, 0.5)) * _SYM_TOL * max(1.0, abs(b))
    return (a, b), (c, d)


@st.composite
def kalman_params(draw):
    """The defaults, make_params sets, or any F, H, Q, R and P0 (P0 maybe asymmetric)."""
    kind = draw(st.sampled_from(("default", "isotropic", "any")))
    if kind == "default":
        return default_params()
    if kind == "isotropic":
        return make_params(dt=draw(st.floats(1e-3, 5.0)), q=draw(st.floats(0.0, 10.0)),
                           r=draw(st.floats(1e-3, 100.0)), p0=draw(st.floats(0.0, 1e4)))
    h = draw(st.tuples(entry, entry).filter(lambda v: v != (0.0, 0.0)))
    return KalmanParams(dt=draw(st.floats(1e-3, 5.0)),
                        F=((draw(entry), draw(entry)), (draw(entry), draw(entry))), H=h,
                        Q=draw(covariances(False)), R=draw(st.floats(1e-3, 100.0)),
                        P0=draw(covariances(True)))


@st.composite
def filter_cases(draw):
    """(trace, params, x0): 1-4 interleaved beacons of unequal lengths, one-sample ones too."""
    lengths = draw(st.lists(st.just(1) | st.integers(1, 400), min_size=1, max_size=4))
    rows = []
    for k, n in enumerate(lengths):
        step, offset = draw(st.integers(1, 5)), draw(st.integers(0, 4))
        rows += [RssiSample(offset + i * step, f"b{k}", v)
                 for i, v in enumerate(draw(streams(n)))]
    return Trace(rows), draw(kalman_params()), draw(st.none() | st.floats(-150.0, 50.0))


@SETTINGS
@given(filter_cases())
def test_static_matches_the_public_steps(case):
    trace, params, x0 = case
    assert outcome(smooth_trace, trace, params, x0) == reference_outcome(trace, params, x0, None)


@SETTINGS
@given(filter_cases(), st.integers(2, 60), st.floats(1e-3, 100.0))
def test_dynamic_matches_the_public_steps(case, window_n, q_scale):
    trace, params, x0 = case
    assert (outcome(smooth_trace_dynamic, trace, params, window_n, q_scale, x0)
            == reference_outcome(trace, params, x0, window_n, q_scale))


def counted_packs(monkeypatch) -> list[tuple]:
    """The covariances filters._pack is called with from now on."""
    calls, pack = [], filters._pack

    def counting(*p):
        calls.append(p)
        return pack(*p)
    monkeypatch.setattr(filters, "_pack", counting)
    return calls


def public_states(zs: list[float], params_of) -> list[KalmanState]:
    """The state after each step from initial_state(zs[0]), step i using params_of(i)."""
    state, out = initial_state(zs[0], params_of(0)), []
    for i, z in enumerate(zs):
        state = update(predict(state, params_of(i)), z, params_of(i))
        out.append(state)
    return out


def test_static_gains_stop_at_the_fixed_point(monkeypatch):
    # each step from 1 on predicts with the Q object of the step before, so
    # P is packed before and after it; under the defaults the P after step
    # 173 has the bits of the P before it, and every later step keeps P
    # and the gain: P's half runs for steps 0 to 173 alone
    params = default_params()
    zs = np.random.default_rng(5).uniform(-80.0, -50.0, 1000).tolist()
    packs = counted_packs(monkeypatch)
    estimates = _kalman(zs, repeat((*params.Q[0], *params.Q[1])), params, None)
    assert len(packs) == 2 * 173
    assert packs[-2] == packs[-1] and packs[-4] != packs[-3]
    h0, h1 = params.H
    assert estimates == [h0 * s.x[0] + h1 * s.x[1] for s in public_states(zs, lambda i: params)]


def test_static_gains_run_to_the_end_when_p_never_settles(monkeypatch):
    # the rate is unobserved and F doubles it: P's lower corner grows every step
    params = KalmanParams(dt=0.2, F=((1.0, 0.0), (0.0, 2.0)), H=(1.0, 0.0),
                          Q=((0.001, 0.0), (0.0, 0.001)), R=0.1, P0=((100.0, 0.0), (0.0, 100.0)))
    packs = counted_packs(monkeypatch)
    _kalman([-60.0] * 500, repeat((*params.Q[0], *params.Q[1])), params, None)
    assert len(packs) == 2 * 499  # before and after each step from 1 on
    trace = make_trace(3, n=300)
    assert outcome(smooth_trace, trace, params, None) == reference_outcome(trace, params, None,
                                                                           None)


def test_dynamic_steps_recompute_p_when_q_changes_after_it_settles(monkeypatch):
    # a window of 2 holds a variance of 1 dB^2 for 400 steps, long enough
    # for P to keep its bits from one step to the next, then 9 dB^2: the
    # gain must follow the new Q, though P had settled under the old one
    zs = [-62.0, -60.0] * 200 + [-66.0, -60.0] * 200
    trace = Trace([RssiSample(i, "b0", z) for i, z in enumerate(zs)])
    params = default_params()
    window = [params] + [replace(params, Q=((v, 0.0), (0.0, v)))
                         for v in (1.0 if i < 400 else 9.0 for i in range(1, 800))]
    states = public_states(zs, window.__getitem__)
    assert len({filters._pack(*s.P[0], *s.P[1]) for s in states[300:400]}) == 1
    packs = counted_packs(monkeypatch)
    assert (outcome(smooth_trace_dynamic, trace, params, 2, 1.0, None)
            == reference_outcome(trace, params, None, 2, 1.0))
    assert packs == []  # each step's Q is a new object: P's bits are never compared
