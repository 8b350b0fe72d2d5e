"""Property and resource tests of dynamic smoothing: bit-identity with the
per-step RssiWindow reference, and the memory the Q sequence takes."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_trace
from microloc.filters import (
    RssiWindow,
    initial_state,
    make_params,
    predict,
    smooth_trace_dynamic,
    update,
    window_push,
    window_variance,
)
from microloc.model import RssiSample, Trace

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
