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
A window holds measurements only, never filter state, so _window_q
computes every step's Q before the filter loop starts, with the bits
window_variance gives for the window RssiWindow holds at that step.

Both modes run one loop per beacon, _kalman, with the bits of predict
then update at every step: static mode gives it one Q object for every
step, dynamic mode a new one each step (the static Q, then _window_q's).
P and K never read x or z, so a step that predicts with the Q object of
the step before, when that step left P with the bits it found, would get
the same P and gain, bit for bit: the loop keeps them instead. Only
static mode gets there, from step 174 of each beacon under the defaults.

Timestamps are not consulted during filtering. The transition matrix uses
the configured dt throughout, which models a nominally periodic
advertising stream and keeps results independent of jitter bookkeeping.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyTrace, InsufficientSamples
from .model import SampleColumns, Trace, clamp_rssi, left_to_right_sum, real, real_pair

Mat2 = tuple[tuple[float, float], tuple[float, float]]
Vec2 = tuple[float, float]

_SYM_TOL = 1e-9

_pack = struct.Struct("4d").pack  # a covariance's bits, for the fixed-point test

DEFAULT_WINDOW_N = 10
DEFAULT_Q_SCALE = 1.0


def _as_mat2(m, name: str) -> Mat2:
    """m as a 2x2 tuple of floats through model.real; any other shape raises ValueError."""
    try:
        (a, b), (c, d) = m
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a 2x2 matrix") from exc
    return ((real(a, name), real(b, name)), (real(c, name), real(d, name)))


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
        dt = real(self.dt, "dt")
        if not math.isfinite(dt) or dt <= 0.0:
            raise ValueError(f"dt must be a positive number, got {self.dt!r}")
        object.__setattr__(self, "dt", dt)
        for name in ("F", "Q", "P0"):
            m = _as_mat2(getattr(self, name), name)
            if not all(math.isfinite(v) for row in m for v in row):
                raise ValueError(f"{name} must hold finite numbers, got {getattr(self, name)!r}")
            object.__setattr__(self, name, m)
        h = tuple(real(v, "H") for v in self.H)
        if len(h) != 2 or not all(math.isfinite(v) for v in h):
            raise ValueError(f"H must be a finite 2-vector, got {self.H!r}")
        if h == (0.0, 0.0):
            raise ValueError("H must not be the zero vector")
        object.__setattr__(self, "H", h)
        _check_cov(self.Q, "Q")
        _check_cov(self.P0, "P0")
        r = real(self.R, "R")
        if not math.isfinite(r) or r <= 0.0:
            raise ValueError(f"R must be a positive number, got {self.R!r}")
        object.__setattr__(self, "R", r)


@dataclass(frozen=True)
class KalmanState:
    """Filter state after a step: estimate, covariance, last gain used; infinities allowed."""

    x: Vec2
    P: Mat2
    gain: Vec2 = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "x", real_pair(self.x, "x"))
        object.__setattr__(self, "P", _as_mat2(self.P, "P"))
        object.__setattr__(self, "gain", real_pair(self.gain, "gain"))


def make_params(dt: float = 0.2, q: float = 0.001, r: float = 0.10,
                p0: float = 100.0) -> KalmanParams:
    """Isotropic parameter set: Q = q*I, P0 = p0*I, standard F and H."""
    dt, q, r, p0 = real(dt, "dt"), real(q, "q"), real(r, "r"), real(p0, "p0")
    return KalmanParams(
        dt=dt,
        F=((1.0, dt), (0.0, 1.0)),
        H=(1.0, 0.0),
        Q=((q, 0.0), (0.0, q)),
        R=r,
        P0=((p0, 0.0), (0.0, p0)),
    )


def default_params() -> KalmanParams:
    """The stock configuration: dt 0.2 s, Q 0.001*I, R 0.10, P0 100*I."""
    return make_params()


def params_from_config(config: Mapping[str, object]) -> KalmanParams:
    """Read dt/p0/q/r from a config mapping; missing keys take make_params' defaults."""
    return make_params(**{k: config[k] for k in ("dt", "q", "r", "p0") if k in config})


def params_to_config(params: KalmanParams) -> dict[str, float]:
    """The dt/q/r/p0 entries params_from_config reads, taken from a parameter set."""
    return {"dt": params.dt, "q": params.Q[0][0], "r": params.R, "p0": params.P0[0][0]}


def initial_state(z0: float, params: KalmanParams) -> KalmanState:
    """Start a stream at the first measurement with zero rate and P0."""
    return KalmanState(x=(real(z0, "z0"), 0.0), P=params.P0)


def predict(state: KalmanState, params: KalmanParams) -> KalmanState:
    """Propagate the state one step through F, inflating P by Q."""
    (f00, f01), (f10, f11) = params.F
    (q00, q01), (q10, q11) = params.Q
    x0, x1 = state.x
    (p00, p01), (p10, p11) = state.P
    a = f00 * p00 + f01 * p10
    b = f00 * p01 + f01 * p11
    c = f10 * p00 + f11 * p10
    d = f10 * p01 + f11 * p11
    off = 0.5 * ((a * f10 + b * f11 + q01) + (c * f00 + d * f01 + q10))  # keep P symmetric
    return KalmanState(x=(f00 * x0 + f01 * x1, f10 * x0 + f11 * x1),
                       P=((a * f00 + b * f01 + q00, off), (off, c * f10 + d * f11 + q11)),
                       gain=state.gain)


def update(state: KalmanState, z: float, params: KalmanParams) -> KalmanState:
    """Fold one measurement into the state; the gain used is recorded."""
    zf = real(z, "measurement")
    if not math.isfinite(zf):
        raise ValueError(f"measurement must be finite, got {z!r}")
    h0, h1 = params.H
    x0, x1 = state.x
    (p00, p01), (p10, p11) = state.P
    ph0 = p00 * h0 + p01 * h1
    ph1 = p10 * h0 + p11 * h1
    s = h0 * ph0 + h1 * ph1 + params.R
    k0 = ph0 / s
    k1 = ph1 / s
    innov = zf - (h0 * x0 + h1 * x1)
    m00 = 1.0 - k0 * h0
    m01 = -k0 * h1
    m10 = -k1 * h0
    m11 = 1.0 - k1 * h1
    off = 0.5 * ((m00 * p01 + m01 * p11) + (m10 * p00 + m11 * p10))
    return KalmanState(x=(x0 + k0 * innov, x1 + k1 * innov),
                       P=((m00 * p00 + m01 * p10, off), (off, m10 * p01 + m11 * p11)),
                       gain=(k0, k1))


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
        values = tuple(real(v, "window value") for v in self.values)
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"window value must be finite, got {v!r}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def window_push(window: RssiWindow, value: float) -> RssiWindow:
    """Append a value, evicting the oldest when the window is full."""
    values = window.values
    if len(values) == window.capacity:
        values = values[1:]
    return RssiWindow(capacity=window.capacity, values=values + (value,))


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
    window_n measurements, as RssiWindow holds them after window_push.
    Every window, the warm-up ones shorter than window_n included, is
    computed at once, one lag at a time from the oldest: lag k adds zs[i - k]
    to window i, for every i >= k. Each sum starts at 0.0 and adds its
    window's values oldest first, as left_to_right_sum does, and each
    square is d * d, so every q has the bits _variance would give it.
    """
    z = np.array(zs)
    n = len(z)
    widest = min(window_n, n)  # no window is longer than the stream
    count = np.minimum(np.arange(1, n + 1), widest)
    lags = range(widest - 1, -1, -1)
    total = np.zeros(n)
    squares = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lag in lags:
            total[lag:] += z[:n - lag]
        mean = total / count
        for lag in lags:
            d = z[:n - lag] - mean[lag:]
            squares[lag:] += d * d
        return (q_scale * (squares[1:] / count[1:])).tolist()


def _kalman(zs: list[float], qs: Iterable[tuple[float, float, float, float]],
            params: KalmanParams, x0: float | None) -> list[float]:
    """The estimates of one beacon's stream, step i predicting with Q = qs[i] flattened row-wise.

    The arithmetic is predict's then update's, on P and on x, from (zs[0],
    0), or (x0, 0) when x0 is given, and P0. While Q repeats, P is compared
    with the P before it by bits, not ==, which holds for 0.0 and -0.0;
    settled and previous hold their Q, so no other object takes its id.
    """
    (f00, f01), (f10, f11) = params.F
    h0, h1 = params.H
    r = params.R
    (p00, p01), (p10, p11) = params.P0
    pack = _pack
    settled = previous = None  # the last step's Q if that step kept P's bits; the last step's Q
    x0 = float(zs[0]) if x0 is None else x0
    x1 = 0.0
    out: list[float] = []
    append = out.append
    for z, q in zip(zs, qs):
        if q is not settled:
            before = pack(p00, p01, p10, p11) if q is previous else None
            previous = q
            q00, q01, q10, q11 = q
            a = f00 * p00 + f01 * p10
            b = f00 * p01 + f01 * p11
            c = f10 * p00 + f11 * p10
            d = f10 * p01 + f11 * p11
            p00 = a * f00 + b * f01 + q00
            p01 = p10 = 0.5 * ((a * f10 + b * f11 + q01) + (c * f00 + d * f01 + q10))
            p11 = c * f10 + d * f11 + q11
            ph0 = p00 * h0 + p01 * h1
            ph1 = p10 * h0 + p11 * h1
            s = h0 * ph0 + h1 * ph1 + r
            k0 = ph0 / s
            k1 = ph1 / s
            m00 = 1.0 - k0 * h0
            m01 = -k0 * h1
            m10 = -k1 * h0
            m11 = 1.0 - k1 * h1
            p00, p01, p11 = (m00 * p00 + m01 * p10,
                             0.5 * ((m00 * p01 + m01 * p11) + (m10 * p00 + m11 * p10)),
                             m10 * p01 + m11 * p11)
            p10 = p01
            settled = q if before is not None and before == pack(p00, p01, p10, p11) else None
        x0, x1 = f00 * x0 + f01 * x1, f10 * x0 + f11 * x1
        innov = z - (h0 * x0 + h1 * x1)
        x0 = x0 + k0 * innov
        x1 = x1 + k1 * innov
        append(h0 * x0 + h1 * x1)
    return out


def _smooth(trace: Trace, params: KalmanParams, x0: float | None,
            window_n: int | None, q_scale: float, **meta: str) -> Trace:
    """The filtered trace; its metadata adds dt, R and P0, then meta, to the input's."""
    cols = trace.samples
    if len(cols) == 0:
        raise EmptyTrace("cannot filter an empty trace")
    x0 = None if x0 is None else real(x0, "x0")
    order, streams = cols.by_beacon(cols.rssi_dbm)
    q = (*params.Q[0], *params.Q[1])
    ests: list[float] = []
    for beacon_id, zs in zip(cols.beacon_ids, streams):
        if window_n is None:
            qs = repeat(q)
        elif len(zs) < 2:
            raise InsufficientSamples(
                f"dynamic filtering needs at least 2 samples per beacon; "
                f"beacon {beacon_id!r} has {len(zs)}"
            )
        else:  # the static Q first, then each window's
            window = _window_q(zs, window_n, q_scale)
            qs = chain([q], zip(window, repeat(0.0), repeat(0.0), window))
        stream = _kalman(zs, qs, params, x0)
        if not all(map(math.isfinite, stream)):
            raise ValueError(f"filter diverged on beacon {beacon_id!r}: its state overflowed")
        ests.extend(stream)
    filtered = np.empty(len(cols))
    filtered[order] = ests
    samples = SampleColumns(cols.timestamp_ms, cols.beacon, cols.beacon_ids,
                            clamp_rssi(filtered), cols.tx_power_dbm, cols.channel)
    metadata = {
        **trace.metadata,
        "filter_dt": repr(params.dt),
        "filter_r": repr(params.R),
        "filter_p0": repr(params.P0[0][0]),
        **meta,
    }
    return Trace(samples, metadata)


def smooth_trace(trace: Trace, params: KalmanParams, x0: float | None = None) -> Trace:
    """Filter every beacon's stream with a fixed Q.

    Each beacon is filtered independently in timestamp order. The state
    starts at (first measurement, 0) unless x0 overrides the level. The
    result keeps timestamps, beacon ids and channels; only rssi_dbm
    changes (clamped to the representable range). Raises EmptyTrace on an
    empty input, and ValueError when a beacon's estimate overflows to a
    non-finite value.
    """
    return _smooth(trace, params, x0, None, 1.0, filter="kalman",
                   filter_q=repr(params.Q[0][0]))


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
    q_scale = real(q_scale, "q_scale")
    if not math.isfinite(q_scale) or q_scale <= 0.0:
        raise ValueError(f"q_scale must be positive, got {q_scale!r}")
    return _smooth(trace, params, x0, window_n, q_scale, filter="kalman_dynamic_q",
                   filter_window_n=str(window_n), filter_q_scale=repr(q_scale))
