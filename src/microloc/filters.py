"""Kalman smoothing of RSSI streams.

The filter tracks a two-component state, received power and its rate of
change, under a constant-velocity transition:

    x = [rssi, d(rssi)/dt]      F = [[1, dt], [0, 1]]      H = [1, 0]

Each step is the standard predict/update pair:

    predict:  x- = F x,  P- = F P Ft + Q
    update:   K = P- Ht / (H P- Ht + R)
              x = x- + K (z - H x-),  P = (I - K H) P-

Two smoothing modes are provided. The static mode uses a fixed Q. The
dynamic mode recomputes Q before every step from the variance of a sliding
window of recent measurements, scaled by q_scale: when the signal is quiet
the window variance shrinks and the filter trusts its model; when the
environment shifts, variance grows and the filter re-converges faster.
A window holds measurements only, never filter state, so each stream's Q
for every step is computed from its measurements before the filter loop
starts, with numpy, its sums running left to right across the window's
columns. RssiWindow and window_variance remain the reference: the Q of
each step has the bits window_variance gives for the window RssiWindow
holds at that step.

Timestamps are not consulted during filtering. The transition matrix uses
the configured dt throughout, which models a nominally periodic
advertising stream and keeps results independent of jitter bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyTrace, InsufficientSamples
from .model import SampleColumns, Trace, clamp_rssi, left_to_right_sum

Mat2 = tuple[tuple[float, float], tuple[float, float]]
Vec2 = tuple[float, float]

_SYM_TOL = 1e-9

DEFAULT_WINDOW_N = 10
DEFAULT_Q_SCALE = 1.0


def _as_mat2(m, name: str) -> Mat2:
    try:
        (a, b), (c, d) = m
        out = ((float(a), float(b)), (float(c), float(d)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a 2x2 matrix") from exc
    if not all(math.isfinite(v) for row in out for v in row):
        raise ValueError(f"{name} must be finite")
    return out


def _check_cov(m: Mat2, name: str) -> None:
    (a, b), (c, d) = m
    if abs(b - c) > _SYM_TOL * max(1.0, abs(b), abs(c)):
        raise ValueError(f"{name} must be symmetric, got {m}")
    if a < 0.0 or d < 0.0 or a * d - b * c < -1e-12:
        raise ValueError(f"{name} must be positive semi-definite, got {m}")


@dataclass(frozen=True)
class KalmanParams:
    """Fixed filter parameters; covariances are plain nested tuples."""

    dt: float
    F: Mat2
    H: Vec2
    Q: Mat2
    R: float
    P0: Mat2

    def __post_init__(self):
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "F", _as_mat2(self.F, "F"))
        object.__setattr__(self, "Q", _as_mat2(self.Q, "Q"))
        object.__setattr__(self, "P0", _as_mat2(self.P0, "P0"))
        h = tuple(float(v) for v in self.H)
        if len(h) != 2 or not all(math.isfinite(v) for v in h):
            raise ValueError(f"H must be a finite 2-vector, got {self.H!r}")
        if h == (0.0, 0.0):
            raise ValueError("H must not be the zero vector")
        object.__setattr__(self, "H", h)
        _check_cov(self.Q, "Q")
        _check_cov(self.P0, "P0")
        if not math.isfinite(self.R) or self.R <= 0.0:
            raise ValueError(f"R must be positive, got {self.R!r}")
        object.__setattr__(self, "R", float(self.R))


@dataclass(frozen=True)
class KalmanState:
    """Filter state after a step: estimate, covariance, last gain used."""

    x: Vec2
    P: Mat2
    gain: Vec2 = (0.0, 0.0)


def make_params(dt: float = 0.2, q: float = 0.001, r: float = 0.10,
                p0: float = 100.0) -> KalmanParams:
    """Isotropic parameter set: Q = q*I, P0 = p0*I, standard F and H."""
    return KalmanParams(
        dt=dt,
        F=((1.0, float(dt)), (0.0, 1.0)),
        H=(1.0, 0.0),
        Q=((float(q), 0.0), (0.0, float(q))),
        R=float(r),
        P0=((float(p0), 0.0), (0.0, float(p0))),
    )


def default_params() -> KalmanParams:
    """The stock configuration: dt 0.2 s, Q 0.001*I, R 0.10, P0 100*I."""
    return make_params()


def params_from_config(config: Mapping[str, object]) -> KalmanParams:
    """Read dt/p0/q/r from a config mapping; missing keys take make_params' defaults."""
    return make_params(**{k: float(config[k]) for k in ("dt", "q", "r", "p0") if k in config})


def params_to_config(params: KalmanParams) -> dict[str, float]:
    """The dt/q/r/p0 entries params_from_config reads, taken from a parameter set."""
    return {"dt": params.dt, "q": params.Q[0][0], "r": params.R, "p0": params.P0[0][0]}


def initial_state(z0: float, params: KalmanParams) -> KalmanState:
    """Start a stream at the first measurement with zero rate and P0."""
    return KalmanState(x=(float(z0), 0.0), P=params.P0)


def _predict_xp(x0, x1, p00, p01, p10, p11, f00, f01, f10, f11, q00, q01, q10, q11):
    """One predict step on scalar components. Returns (x0, x1, p00, p01, p10, p11)."""
    nx0 = f00 * x0 + f01 * x1
    nx1 = f10 * x0 + f11 * x1
    a = f00 * p00 + f01 * p10
    b = f00 * p01 + f01 * p11
    c = f10 * p00 + f11 * p10
    d = f10 * p01 + f11 * p11
    np00 = a * f00 + b * f01 + q00
    np01 = a * f10 + b * f11 + q01
    np10 = c * f00 + d * f01 + q10
    np11 = c * f10 + d * f11 + q11
    off = 0.5 * (np01 + np10)  # keep P numerically symmetric
    return nx0, nx1, np00, off, off, np11


def _update_xp(x0, x1, p00, p01, p10, p11, z, h0, h1, r):
    """One measurement update. Returns (x0, x1, p00, p01, p10, p11, k0, k1)."""
    ph0 = p00 * h0 + p01 * h1
    ph1 = p10 * h0 + p11 * h1
    s = h0 * ph0 + h1 * ph1 + r
    k0 = ph0 / s
    k1 = ph1 / s
    innov = z - (h0 * x0 + h1 * x1)
    nx0 = x0 + k0 * innov
    nx1 = x1 + k1 * innov
    m00 = 1.0 - k0 * h0
    m01 = -k0 * h1
    m10 = -k1 * h0
    m11 = 1.0 - k1 * h1
    np00 = m00 * p00 + m01 * p10
    np01 = m00 * p01 + m01 * p11
    np10 = m10 * p00 + m11 * p10
    np11 = m10 * p01 + m11 * p11
    off = 0.5 * (np01 + np10)
    return nx0, nx1, np00, off, off, np11, k0, k1


def predict(state: KalmanState, params: KalmanParams) -> KalmanState:
    """Propagate the state one step through F, inflating P by Q."""
    (f00, f01), (f10, f11) = params.F
    (q00, q01), (q10, q11) = params.Q
    x0, x1 = state.x
    (p00, p01), (p10, p11) = state.P
    x0, x1, p00, p01, p10, p11 = _predict_xp(
        x0, x1, p00, p01, p10, p11, f00, f01, f10, f11, q00, q01, q10, q11
    )
    return KalmanState(x=(x0, x1), P=((p00, p01), (p10, p11)), gain=state.gain)


def update(state: KalmanState, z: float, params: KalmanParams) -> KalmanState:
    """Fold one measurement into the state; the gain used is recorded."""
    if not math.isfinite(z):
        raise ValueError(f"measurement must be finite, got {z!r}")
    h0, h1 = params.H
    x0, x1 = state.x
    (p00, p01), (p10, p11) = state.P
    x0, x1, p00, p01, p10, p11, k0, k1 = _update_xp(
        x0, x1, p00, p01, p10, p11, float(z), h0, h1, params.R
    )
    return KalmanState(x=(x0, x1), P=((p00, p01), (p10, p11)), gain=(k0, k1))


@dataclass(frozen=True)
class RssiWindow:
    """Bounded FIFO of recent measurements for variance tracking."""

    capacity: int
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if not isinstance(self.capacity, int) or self.capacity < 2:
            raise ValueError(f"capacity must be an int >= 2, got {self.capacity!r}")
        if len(self.values) > self.capacity:
            raise ValueError(f"window holds {len(self.values)} values, capacity {self.capacity}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)


def window_push(window: RssiWindow, value: float) -> RssiWindow:
    """Append a value, evicting the oldest when the window is full."""
    if not math.isfinite(value):
        raise ValueError(f"window value must be finite, got {value!r}")
    values = window.values
    if len(values) == window.capacity:
        values = values[1:]
    return RssiWindow(capacity=window.capacity, values=values + (float(value),))


def _variance(values) -> float:
    """Two-pass population variance: the mean first, then the mean squared deviation.

    Squares are d * d, one IEEE multiply: ``d ** 2`` goes through libm's
    pow, which is not correctly rounded, so its last bit depends on the
    platform.
    """
    n = len(values)
    mean = left_to_right_sum(values) / n
    return left_to_right_sum(d * d for d in [v - mean for v in values]) / n


def window_variance(window: RssiWindow) -> float:
    """Population variance (divide by n) of the window contents."""
    n = len(window.values)
    if n < 2:
        raise InsufficientSamples(f"variance needs at least 2 samples, window has {n}")
    return _variance(window.values)


def _window_q(zs: list[float], window_n: int, q_scale: float) -> list[float]:
    """q_scale times each step's window variance, for steps 1 to len(zs) - 1.

    Step i's window holds zs[max(0, i - window_n + 1):i + 1], the last
    window_n measurements, as RssiWindow holds them after window_push. The
    warm-up windows, shorter than window_n, go through _variance. The full
    ones are computed together, one column of the sliding window view at a
    time, so that no array holds more than one value per full window. Each
    sum starts at 0.0 and adds the columns left to right, as
    left_to_right_sum does, and each square is d * d, so every q has the
    bits _variance would give it.
    """
    qs = [q_scale * _variance(zs[:i + 1]) for i in range(1, min(window_n - 1, len(zs)))]
    if len(zs) >= window_n:
        columns = sliding_window_view(np.array(zs), window_n).T
        total = np.zeros(len(zs) - window_n + 1)
        for column in columns:
            total += column
        mean = total / window_n
        squares = np.zeros_like(total)
        for column in columns:
            d = column - mean
            squares += d * d
        with np.errstate(over="ignore", invalid="ignore"):
            qs.extend((float(q_scale) * (squares / window_n)).tolist())
    return qs


def _smooth_stream(zs: list[float], params: KalmanParams, x0: float | None,
                   window_n: int | None, q_scale: float) -> list[float]:
    """Run the filter over one beacon's measurements, returning estimates.

    window_n None selects the static-Q mode. Otherwise the first step uses
    the static Q and every later one q_scale * variance * I of its window
    (the last window_n measurements, as RssiWindow holds them). All of
    those Qs are computed from the measurements before the loop starts, by
    _window_q, with sums that run left to right across the window's
    columns; RssiWindow and window_variance remain the reference they match
    bit for bit.
    """
    (f00, f01), (f10, f11) = params.F
    (q00, q01), (q10, q11) = params.Q
    h0, h1 = params.H
    r = params.R
    steps = zip(zs, repeat(q00), repeat(q01), repeat(q10), repeat(q11))
    if window_n is not None:
        qs = _window_q(zs, window_n, q_scale)
        steps = chain([(zs[0], q00, q01, q10, q11)],
                      zip(zs[1:], qs, repeat(0.0), repeat(0.0), qs))
    sx0 = float(zs[0]) if x0 is None else float(x0)
    sx1 = 0.0
    (p00, p01), (p10, p11) = params.P0
    out = []
    for z, cq00, cq01, cq10, cq11 in steps:
        sx0, sx1, p00, p01, p10, p11 = _predict_xp(
            sx0, sx1, p00, p01, p10, p11, f00, f01, f10, f11, cq00, cq01, cq10, cq11
        )
        sx0, sx1, p00, p01, p10, p11, _, _ = _update_xp(
            sx0, sx1, p00, p01, p10, p11, z, h0, h1, r
        )
        out.append(h0 * sx0 + h1 * sx1)
    return out


def _smooth(trace: Trace, params: KalmanParams, x0: float | None,
            window_n: int | None, q_scale: float, meta: dict[str, str]) -> Trace:
    cols = trace.samples
    if len(cols) == 0:
        raise EmptyTrace("cannot filter an empty trace")
    order, counts = cols.by_beacon()
    zs = cols.rssi_dbm[order].tolist()
    ests: list[float] = []
    for beacon_id, n in zip(cols.beacon_ids, counts):
        if window_n is not None and n < 2:
            raise InsufficientSamples(
                f"dynamic filtering needs at least 2 samples per beacon; "
                f"beacon {beacon_id!r} has {n}"
            )
        stream = _smooth_stream(zs[len(ests):len(ests) + n], params, x0, window_n, q_scale)
        if not all(map(math.isfinite, stream)):
            raise ValueError(f"filter diverged on beacon {beacon_id!r}: its state overflowed")
        ests.extend(stream)
    filtered = np.empty(len(cols))
    filtered[order] = ests
    samples = SampleColumns(cols.timestamp_ms, cols.beacon, cols.beacon_ids,
                            clamp_rssi(filtered), cols.tx_power_dbm, cols.channel)
    return Trace(samples, {**trace.metadata, **meta})


def smooth_trace(trace: Trace, params: KalmanParams, x0: float | None = None) -> Trace:
    """Filter every beacon's stream with a fixed Q.

    Each beacon is filtered independently in timestamp order. The state
    starts at (first measurement, 0) unless x0 overrides the level. The
    result keeps timestamps, beacon ids and channels; only rssi_dbm
    changes (clamped to the representable range). Raises EmptyTrace on an
    empty input, and ValueError when a beacon's estimate overflows to a
    non-finite value.
    """
    meta = {
        "filter": "kalman",
        "filter_dt": repr(params.dt),
        "filter_q": repr(params.Q[0][0]),
        "filter_r": repr(params.R),
        "filter_p0": repr(params.P0[0][0]),
    }
    return _smooth(trace, params, x0, None, 1.0, meta)


def smooth_trace_dynamic(trace: Trace, params: KalmanParams, window_n: int = DEFAULT_WINDOW_N,
                         q_scale: float = DEFAULT_Q_SCALE, x0: float | None = None) -> Trace:
    """Filter with Q tied to the sliding-window measurement variance.

    Before each predict the newest measurement enters a per-beacon window
    of size window_n; once the window holds two or more values, Q becomes
    q_scale * variance * I. Until then the static Q applies. Every beacon
    needs at least two samples, otherwise InsufficientSamples is raised.
    """
    if not isinstance(window_n, int) or window_n < 2:
        raise ValueError(f"window_n must be an int >= 2, got {window_n!r}")
    if not math.isfinite(q_scale) or q_scale <= 0.0:
        raise ValueError(f"q_scale must be positive, got {q_scale!r}")
    meta = {
        "filter": "kalman_dynamic_q",
        "filter_dt": repr(params.dt),
        "filter_r": repr(params.R),
        "filter_p0": repr(params.P0[0][0]),
        "filter_window_n": str(window_n),
        "filter_q_scale": repr(q_scale),
    }
    return _smooth(trace, params, x0, window_n, q_scale, meta)
