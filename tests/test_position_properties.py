"""Property and cost tests of the solvers.

TDoA: bit-identity with a reference start loop that runs every start to its
last iteration, the number of cost evaluations a stalling fix takes, and the
rejection of a far-off fix. Fingerprinting: bit-identity of the per-beacon
index search with a per-entry reference. The norm helpers: the bits of
np.linalg.norm. The solver bound: a value past it is refused before any
arithmetic can overflow.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from typing import Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from microloc import position
from microloc.errors import ArityError, InvalidDistance, NoComparableEntries, NoConvergence
from microloc.model import left_to_right_sum
from microloc.position import (MISSING_RSSI_DBM, SOLVER_MAX_M, Anchor, Fingerprint, FingerprintDb,
                               Method, PositionEstimate, db_to_json, fingerprint_locate,
                               proximity_region, tdoa_locate, trilaterate)

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



# --- fingerprinting ---

def _signature_distance(a: Mapping[str, float], b: Mapping[str, float], metric: str) -> float:
    keys = sorted(a.keys() | b.keys())
    diffs = [a.get(k, MISSING_RSSI_DBM) - b.get(k, MISSING_RSSI_DBM) for k in keys]
    if metric == "euclidean":
        return math.sqrt(left_to_right_sum(d * d for d in diffs))
    return left_to_right_sum(map(abs, diffs))


def reference_fingerprint_locate(db: FingerprintDb, observation: Mapping[str, float],
                                 k: int) -> PositionEstimate:
    """fingerprint_locate before the signature matrix: one sorted key union
    and one left-to-right sum per database entry."""
    if not observation:
        raise ValueError("observation must be non-empty")
    obs = {str(b): float(v) for b, v in observation.items()}
    for b, v in obs.items():
        if not math.isfinite(v):
            raise ValueError(f"observation rssi for {b!r} must be finite")
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= len(db.entries):
        raise ArityError(f"k must be in [1, {len(db.entries)}], got {k!r}")
    scored = sorted((_signature_distance(entry.signature, obs, db.metric), idx)
                    for idx, entry in enumerate(db.entries)
                    if not obs.keys().isdisjoint(entry.signature))
    if not scored:
        raise NoComparableEntries("observation shares no beacon with any database entry")
    if k > len(scored):
        raise ArityError(f"k={k} but only {len(scored)} comparable entries")
    chosen = scored[:k]
    xs, ys = zip(*(db.entries[i].position for _, i in chosen))
    residual = left_to_right_sum(d for d, _ in chosen) / k
    return PositionEstimate(position=(left_to_right_sum(xs) / k, left_to_right_sum(ys) / k),
                            method=Method.FINGERPRINT, residual=residual)


def _bits(est):
    """An estimate's floats by float.hex (so -0.0 and 0.0 differ), or the exception."""
    if not isinstance(est, PositionEstimate):
        return est
    return est.method, tuple(map(float.hex, est.position)), est.residual.hex()


# eight ids, so signatures overlap, tie and leave gaps, and a sum taken in
# another order than sorted ids would round differently; "x", "y" and "z"
# only ever appear in observations
DB_IDS = tuple("abcdefgh")
rssi_values = (st.sampled_from((-60.0, -70.0, -100.0, 0.0, -0.0))
               | st.floats(-120.0, 0.0)
               | st.floats(-1e200, 1e200, allow_nan=False))
signatures = st.dictionaries(st.sampled_from(DB_IDS), rssi_values, min_size=1, max_size=8)


@st.composite
def fingerprint_cases(draw):
    grid = st.integers(-3, 3).map(float)
    sigs = draw(st.lists(signatures, min_size=1, max_size=7))
    if draw(st.booleans()):  # a tied copy of some entry, surveyed elsewhere
        sigs.append(dict(draw(st.sampled_from(sigs))))
    entries = tuple(Fingerprint((draw(grid), draw(grid)), sig) for sig in sigs)
    db = FingerprintDb(entries, metric=draw(st.sampled_from(("euclidean", "manhattan"))))
    observation = draw(st.dictionaries(st.sampled_from(DB_IDS + ("x", "y", "z")), rssi_values,
                                       max_size=8))
    k = draw(st.integers(0, len(entries) + 1))
    return db, observation, k


@SETTINGS
@given(fingerprint_cases())
def test_fingerprint_locate_equals_per_entry_reference(case):
    db, observation, k = case
    got = outcome(lambda d, o: fingerprint_locate(d, o, k), db, observation)
    want = outcome(lambda d, o: reference_fingerprint_locate(d, o, k), db, observation)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_fingerprint_sums_that_overflow_match_the_reference(metric, k):
    db = FingerprintDb((Fingerprint((0.0, 0.0), {"a": 1e200, "b": -60.0}),
                        Fingerprint((1.0, 0.0), {"a": -1e200}),
                        Fingerprint((2.0, 0.0), {"b": -1.7e308, "c": 1.7e308})), metric)
    for observation in ({"a": -1e200}, {"b": 1e200, "z": -60.0}, {"c": -1.7e308, "a": 0.0}):
        got = outcome(lambda d, o: fingerprint_locate(d, o, k), db, observation)
        want = outcome(lambda d, o: reference_fingerprint_locate(d, o, k), db, observation)
        assert _bits(got) == _bits(want)


def test_fingerprint_sums_run_in_sorted_id_order():
    # eight terms whose sums round differently in almost any other order
    values = [-9.769421, -53.20572, -3.894172, -0.353074, -8.298788, -0.129498, -0.930006,
              -55.282503]
    entry = dict(zip(reversed(DB_IDS), values))
    observation = {b: -0.0 for b in DB_IDS}
    for metric in ("euclidean", "manhattan"):
        db = FingerprintDb((Fingerprint((0.0, 0.0), entry),), metric)
        got = fingerprint_locate(db, observation, 1)
        assert _bits(got) == _bits(reference_fingerprint_locate(db, observation, 1))


def test_signature_matrix_stays_out_of_eq_repr_and_json():
    entries = (Fingerprint((0.0, 0.0), {"b": -60.0, "a": -70.0}),
               Fingerprint((1.0, 0.0), {"c": -100.0}))
    db = FingerprintDb(entries)
    assert db == FingerprintDb(entries)
    assert db != FingerprintDb(entries, metric="manhattan")
    assert repr(db) == f"FingerprintDb(entries={entries!r}, metric='euclidean')"
    assert set(db_to_json(db)) == {"metric", "entries"}
    assert [f.name for f in dataclasses.fields(db) if f.compare] == ["entries", "metric"]
    # each id: the entries that hold it, in database order, and their values
    want = {"a": ([0], [-70.0]), "b": ([0], [-60.0]), "c": ([1], [-100.0])}
    assert {b: (rows.tolist(), values.tolist()) for b, (rows, values) in db._by_id.items()} == want
    assert all(rows.dtype == np.intp and values.dtype == np.float64
               for rows, values in db._by_id.values())
    rebuilt = dataclasses.replace(db, metric="manhattan")
    assert {b: (rows.tolist(), values.tolist())
            for b, (rows, values) in rebuilt._by_id.items()} == want


# --- the norm helpers ---

norm_values = (st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                                math.inf, -math.inf))
               | st.floats(allow_nan=False))


@SETTINGS
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(norm_values, min_size=n, max_size=n), max_size=6))))
def test_row_norms_have_the_bits_of_linalg_norm(case):
    n, rows = case
    d = np.array(rows, dtype=float).reshape(len(rows), n)
    with np.errstate(over="ignore"):
        got, want = position._row_norms(d), np.linalg.norm(d, axis=1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@SETTINGS
@given(st.lists(norm_values, max_size=9))
def test_vector_norm_has_the_bits_of_linalg_norm(values):
    v = np.array(values, dtype=float)
    with np.errstate(over="ignore"):
        got, want = position._norm(v), float(np.linalg.norm(v))
    assert type(got) is float and got.hex() == want.hex()


def test_norms_of_points_have_the_bits_of_linalg_norm():
    # the solvers' case: 2-D points, at every scale and at the specials
    rng = np.random.default_rng(0)
    scaled = rng.standard_normal((2000, 2)) * 10.0 ** rng.uniform(-150.0, 150.0, (2000, 1))
    specials = np.array(list(itertools.product(
        (0.0, -0.0, 5e-324, 2.2e-308, 1.0, 1e300, -1e300, math.inf, -math.inf), repeat=2)))
    d = np.concatenate([scaled, specials])
    with np.errstate(over="ignore"):
        assert position._row_norms(d).tobytes() == np.linalg.norm(d, axis=1).tobytes()
        assert [position._norm(v).hex() for v in d] == [float(np.linalg.norm(v)).hex() for v in d]


# --- the solver bound ---

SOLVERS = {"lateration": trilaterate, "tdoa": tdoa_locate, "proximity": proximity_region}


@st.composite
def past_the_bound(draw):
    """(solver, anchor coordinates, values) with one coordinate, distance or
    range difference SOLVER_MAX_M or more in magnitude, the rest moderate."""
    solver = draw(st.sampled_from(sorted(SOLVERS)))
    n = draw(st.integers(3, 6))
    moderate = st.floats(-100.0, 100.0)
    coords = [[draw(moderate), draw(moderate)] for _ in range(n)]
    values = [abs(draw(moderate)) + 1.0 for _ in range(n - (solver == "tdoa"))]
    huge = draw(st.floats(SOLVER_MAX_M, 1.7e308))
    which = draw(st.integers(0, 2 * n + len(values) - 1))
    if which < 2 * n:
        coords[which // 2][which % 2] = draw(st.sampled_from([huge, -huge]))
    else:  # distances are non-negative; a range difference may be either sign
        values[which - 2 * n] = draw(st.sampled_from([huge, -huge])) if solver == "tdoa" else huge
    return solver, coords, values


@SETTINGS
@given(past_the_bound())
def test_a_value_past_the_solver_bound_is_refused_without_a_warning(case):
    solver, coords, values = case
    anchors = [A(x, y, f"a{i}") for i, (x, y) in enumerate(coords)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((InvalidDistance, ValueError), match=r" must be below 1e\+150 m in magnitude$"):
            SOLVERS[solver](anchors, values)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_values_just_below_the_solver_bound_run_without_a_warning(solver):
    big = np.nextafter(SOLVER_MAX_M, 0.0)
    anchors = [A(0.0, 0.0), A(big, 0.0), A(0.0, -big), A(-big, big)]
    values = [big] * (len(anchors) - (solver == "tdoa"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            SOLVERS[solver](anchors, values)
        except NoConvergence:  # a fix may fail, but only in a documented way
            pass
