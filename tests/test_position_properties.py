"""Property and cost tests of the TDoA solver: bit-identity with a reference
start loop that runs every start to its last iteration, the number of cost
evaluations a stalling fix takes, and the rejection of a far-off fix."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from microloc import position
from microloc.errors import ArityError, InvalidDistance, NoConvergence
from microloc.position import Anchor, Method, PositionEstimate, tdoa_locate

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def A(x, y, name=None):
    return Anchor(name or f"r{x},{y}", (float(x), float(y)))


def reference_tdoa_locate(receivers, range_diffs_m) -> PositionEstimate:
    """tdoa_locate without the repeated-iterate stop: every start that does
    not converge runs all _GN_MAX_ITER iterations."""
    if len(receivers) < 3:
        raise ArityError(f"time-difference fix requires at least three receivers, got {len(receivers)}")
    if len(range_diffs_m) != len(receivers) - 1:
        raise ArityError(
            f"expected {len(receivers) - 1} range differences for {len(receivers)} receivers, "
            f"got {len(range_diffs_m)}"
        )
    diffs = np.asarray([float(v) for v in range_diffs_m], dtype=float)
    if not np.all(np.isfinite(diffs)):
        raise InvalidDistance("range differences must be finite")
    pts = position._anchor_points(receivers)
    position._check_spread(pts)

    centroid = pts.mean(axis=0)
    spread = float(np.max(np.linalg.norm(pts - centroid, axis=1)))
    offset = np.array([0.37, 0.23]) * max(spread, 1.0)
    starts = [centroid] + [pt + offset for pt in pts]
    max_range = position._TDOA_MAX_RANGE_SPREADS * max(spread, 1.0)

    best = None
    for start in starts:
        p = start.copy()
        resid, cost = position._tdoa_cost(p, pts, diffs)
        converged = False
        for _ in range(position._GN_MAX_ITER):
            ranges = np.maximum(np.linalg.norm(p - pts, axis=1), 1e-12)
            units = (p - pts) / ranges[:, None]
            step = position._gn_step(units[1:] - units[0], resid)
            scale = 1.0
            for _ in range(25):
                trial = p + scale * step
                t_resid, t_cost = position._tdoa_cost(trial, pts, diffs)
                if t_cost <= cost:
                    break
                scale *= 0.5
            else:
                break
            p = trial
            resid, cost = t_resid, t_cost
            if float(np.linalg.norm(step)) < position._GN_STEP_TOL or cost < 1e-24:
                converged = float(np.linalg.norm(p - centroid)) <= max_range
                break
        if converged and (best is None or cost < best[0]):
            best = (cost, p)
    if best is None:
        raise NoConvergence(position._GN_MAX_ITER)
    cost, p = best
    return PositionEstimate(position=(float(p[0]), float(p[1])), method=Method.TDOA,
                            residual=math.sqrt(cost / len(diffs)))


def outcome(fn, receivers, diffs):
    """The estimate, or the exception's class and message."""
    try:
        return fn(receivers, diffs)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@st.composite
def tdoa_cases(draw):
    """Receivers in a square of side `scale`, a source inside or outside
    their hull, and exact, slightly noisy or badly noisy range differences."""
    n = draw(st.integers(3, 8))
    scale = draw(st.floats(0.1, 1000.0))
    unit = st.floats(0.0, 1.0)
    pts = np.array([[draw(unit), draw(unit)] for _ in range(n)]) * scale
    src = np.array([draw(st.floats(-3.0, 4.0)), draw(st.floats(-3.0, 4.0))]) * scale
    ranges = np.linalg.norm(src - pts, axis=1)
    noise = draw(st.sampled_from((0.0, 1e-3, 0.05, 0.3))) * scale
    jitter = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(n - 1)])
    diffs = (ranges[1:] - ranges[0]) + noise * jitter
    receivers = [A(x, y, f"r{i}") for i, (x, y) in enumerate(pts)]
    return receivers, [float(d) for d in diffs]


@SETTINGS
@given(tdoa_cases())
def test_tdoa_locate_equals_full_length_reference(case):
    receivers, diffs = case
    assert outcome(tdoa_locate, receivers, diffs) == outcome(reference_tdoa_locate, receivers, diffs)


def test_stalled_fix_takes_few_cost_evaluations(monkeypatch):
    receivers = [A(0, 0), A(10, 0), A(0, 10), A(10, 10)]
    diffs = [1.0, 2.0, -3.0]
    expected = reference_tdoa_locate(receivers, diffs)
    calls = 0
    cost = position._tdoa_cost

    def counted(*args):
        nonlocal calls
        calls += 1
        return cost(*args)

    monkeypatch.setattr(position, "_tdoa_cost", counted)
    est = tdoa_locate(receivers, diffs)
    assert calls <= 1000
    assert est == expected
    assert est.position == pytest.approx((5.66987, 5.11955), abs=1e-5)
    assert est.residual == pytest.approx(1.99601, abs=1e-5)


def test_fix_along_an_asymptote_is_not_converged():
    receivers = [A(0, 0), A(10, 0), A(0, 10), A(10, 10), A(5, 5)]
    diffs = [2.0, -1.0, 4.0, 0.3]
    # without the far-point rule, a start "converges" near (-9.85e17, -1.01e18)
    with pytest.raises(NoConvergence):
        tdoa_locate(receivers, diffs)

