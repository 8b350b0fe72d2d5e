"""Positioning: zones, region intersection, solvers, fingerprinting."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import microloc
from microloc import ranging
from microloc.errors import (
    ArityError,
    DegenerateGeometry,
    EmptyTrace,
    InvalidDistance,
    NoAnchors,
    NoComparableEntries,
    NoIntersection,
    NoSurveys,
)
from microloc.model import RssiSample, Trace
from microloc.position import (
    Anchor,
    Circle,
    FingerprintDb,
    Fingerprint,
    Method,
    PositionEstimate,
    Zone,
    anchors_from_json,
    classify_proximity,
    db_from_json,
    db_to_json,
    fingerprint_build,
    fingerprint_locate,
    load_anchors,
    load_fingerprint_db,
    proximity_region,
    save_fingerprint_db,
    tdoa_locate,
    triangulate,
    trilaterate,
)


def A(x, y, name="a", tx=None):
    return Anchor(name, (float(x), float(y)), tx)


# --- proximity zones ---

@pytest.mark.parametrize("d,zone", [
    (0.0, Zone.IMMEDIATE),
    (0.3, Zone.IMMEDIATE),
    (0.5, Zone.NEAR),      # boundary belongs to the farther zone
    (2.0, Zone.NEAR),
    (4.0, Zone.NEAR),      # boundary inclusive
    (4.0000001, Zone.FAR),
    (250.0, Zone.FAR),
])
def test_zone_thresholds(d, zone):
    out = classify_proximity(d)
    assert out.zone is zone
    assert out.distance_m == d


def test_zone_nan_is_unknown():
    out = classify_proximity(float("nan"))
    assert out.zone is Zone.UNKNOWN
    assert math.isnan(out.distance_m)


def test_zone_invalid_distances():
    with pytest.raises(InvalidDistance):
        classify_proximity(-0.1)
    with pytest.raises(InvalidDistance):
        classify_proximity(float("inf"))


def test_zone_custom_thresholds():
    assert classify_proximity(0.8, immediate_m=1.0, near_m=3.0).zone is Zone.IMMEDIATE
    assert classify_proximity(3.5, immediate_m=1.0, near_m=3.0).zone is Zone.FAR
    with pytest.raises(ValueError):
        classify_proximity(1.0, immediate_m=3.0, near_m=1.0)


def test_zone_is_monotone_in_distance():
    order = {Zone.IMMEDIATE: 0, Zone.NEAR: 1, Zone.FAR: 2}
    last = 0
    for d in np.linspace(0.0, 10.0, 400):
        cur = order[classify_proximity(float(d)).zone]
        assert cur >= last
        last = cur


# --- proximity region ---

def test_region_single_circle_centre():
    est = proximity_region([A(2, 3)], [1.5])
    assert est.position == (2.0, 3.0)
    assert est.method is Method.PROXIMITY
    assert est.residual == 0.0
    assert est.region == (Circle((2.0, 3.0), 1.5),)


def test_region_overlapping_pair_point_in_both():
    anchors = [A(0, 0, "a"), A(3, 0, "b")]
    radii = [2.0, 2.0]
    est = proximity_region(anchors, radii)
    assert est.position is not None
    for (cx, cy), r in [((0, 0), 2.0), ((3, 0), 2.0)]:
        assert math.hypot(est.position[0] - cx, est.position[1] - cy) <= r + 1e-9


def test_region_found_point_verified_against_grid():
    # brute-force membership: the grid must agree a common point exists,
    # and the reported point must lie inside every circle
    anchors = [A(0, 0, "a"), A(2, 0, "b"), A(1, 1.5, "c")]
    radii = [1.8, 1.8, 1.6]
    est = proximity_region(anchors, radii)
    xs = np.linspace(-2, 4, 121)
    ys = np.linspace(-2, 3, 101)
    grid_has_point = any(
        all(math.hypot(x - a.position[0], y - a.position[1]) <= r
            for a, r in zip(anchors, radii))
        for x in xs for y in ys
    )
    assert grid_has_point
    assert est.position is not None
    for a, r in zip(anchors, radii):
        assert math.hypot(est.position[0] - a.position[0],
                          est.position[1] - a.position[1]) <= r + 1e-9


def test_region_disjoint_circles_infeasible():
    est = proximity_region([A(0, 0, "a"), A(10, 0, "b")], [1.0, 1.0])
    assert est.position is None
    assert est.residual > 0.0
    assert len(est.region) == 2


def test_region_pairwise_touching_but_no_common_point():
    # three circles each pair overlaps, yet no point is in all three
    r = 1.05
    anchors = [A(0, 0, "a"), A(2, 0, "b"), A(1, 1.9, "c")]
    est = proximity_region(anchors, [r, r, r])
    assert est.position is None


def test_region_errors():
    with pytest.raises(NoAnchors):
        proximity_region([], [])
    with pytest.raises(ArityError):
        proximity_region([A(0, 0)], [1.0, 2.0])
    with pytest.raises(InvalidDistance):
        proximity_region([A(0, 0)], [0.0])
    with pytest.raises(InvalidDistance):
        proximity_region([A(0, 0)], [-1.0])


# --- trilateration ---

def test_trilaterate_worked_example():
    anchors = [A(0, 0, "a"), A(4, 0, "b"), A(0, 4, "c")]
    dists = [math.sqrt(2.0), math.sqrt(10.0), math.sqrt(10.0)]
    est = trilaterate(anchors, dists)
    assert est.method is Method.LATERATION
    assert est.position == pytest.approx((1.0, 1.0), abs=1e-9)
    assert est.residual <= 1e-9


def test_trilaterate_exact_recovery_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 6))
        pts = rng.uniform(0, 10, (n, 2))
        while np.linalg.eigvalsh((pts - pts.mean(0)).T @ (pts - pts.mean(0)))[0] < 1.0:
            pts = rng.uniform(0, 10, (n, 2))
        truth = rng.uniform(0, 10, 2)
        anchors = [A(x, y, f"a{i}") for i, (x, y) in enumerate(pts)]
        dists = np.linalg.norm(pts - truth, axis=1)
        est = trilaterate(anchors, list(dists))
        assert est.position == pytest.approx(tuple(truth), abs=1e-8)


def test_trilaterate_permutation_invariant():
    anchors = [A(0, 0, "a"), A(5, 1, "b"), A(2, 6, "c"), A(7, 7, "d")]
    truth = (3.0, 2.5)
    dists = [math.hypot(truth[0] - a.position[0], truth[1] - a.position[1]) for a in anchors]
    p1 = trilaterate(anchors, dists).position
    order = [2, 0, 3, 1]
    p2 = trilaterate([anchors[i] for i in order], [dists[i] for i in order]).position
    assert p1 == pytest.approx(p2, abs=1e-9)


def test_trilaterate_noise_grows_error_monotonically():
    rng = np.random.default_rng(8)
    anchors = [A(0, 0, "a"), A(8, 0, "b"), A(0, 8, "c"), A(8, 8, "d")]
    pts = np.array([a.position for a in anchors])
    truth = np.array([3.0, 4.0])
    base = np.linalg.norm(pts - truth, axis=1)
    mean_err = []
    for sigma in (0.0, 0.1, 0.5, 1.0):
        errs = []
        for _ in range(200):
            noisy = np.maximum(base + rng.normal(0, sigma, base.shape), 0.01)
            est = trilaterate(anchors, list(noisy))
            errs.append(math.hypot(est.position[0] - truth[0], est.position[1] - truth[1]))
        mean_err.append(np.mean(errs))
    assert all(a <= b + 1e-9 for a, b in zip(mean_err, mean_err[1:]))
    assert mean_err[0] < 1e-8


def test_trilaterate_arity_and_degeneracy():
    with pytest.raises(ArityError, match="at least three anchors"):
        trilaterate([A(0, 0), A(1, 0)], [1.0, 1.0])
    with pytest.raises(ArityError):
        trilaterate([A(0, 0), A(1, 0), A(0, 1)], [1.0, 1.0])
    with pytest.raises(DegenerateGeometry):
        trilaterate([A(0, 0), A(1, 0), A(2, 0)], [1.0, 1.0, 1.0])
    with pytest.raises(DegenerateGeometry):
        trilaterate([A(1, 1), A(1, 1), A(1, 1)], [1.0, 1.0, 1.0])
    with pytest.raises(InvalidDistance):
        trilaterate([A(0, 0), A(4, 0), A(0, 4)], [1.0, -2.0, 1.0])


# --- triangulation ---

def test_triangulate_worked_example():
    est = triangulate([A(0, 0), A(4, 0)], [math.radians(45), math.radians(135)])
    assert est.method is Method.ANGULATION
    assert est.position == pytest.approx((2.0, 2.0), rel=1e-12)
    assert est.residual == 0.0


def test_triangulate_random_recovery():
    rng = np.random.default_rng(14)
    for _ in range(200):
        a1 = rng.uniform(-5, 5, 2)
        a2 = rng.uniform(-5, 5, 2)
        truth = rng.uniform(-5, 5, 2)
        b1 = math.atan2(truth[1] - a1[1], truth[0] - a1[0])
        b2 = math.atan2(truth[1] - a2[1], truth[0] - a2[0])
        if np.linalg.norm(a1 - a2) < 0.5 or abs(math.sin(b1 - b2)) < 0.05:
            continue
        est = triangulate([A(*a1), A(*a2, "b")], [b1, b2])
        assert est.position == pytest.approx(tuple(truth), abs=1e-8)


def test_triangulate_parallel_rays():
    with pytest.raises(NoIntersection):
        triangulate([A(0, 0), A(0, 3)], [0.0, 0.0])


def test_triangulate_intersection_behind_anchor():
    # rays point away from each other: the line crossing is behind one ray
    with pytest.raises(NoIntersection):
        triangulate([A(0, 0), A(4, 0)], [math.radians(90), math.radians(-45)])


def test_triangulate_errors():
    with pytest.raises(ArityError):
        triangulate([A(0, 0)], [0.0])
    with pytest.raises(ArityError):
        triangulate([A(0, 0), A(1, 0)], [0.0])
    with pytest.raises(DegenerateGeometry):
        triangulate([A(1, 2), A(1, 2)], [0.0, 1.0])
    with pytest.raises(ValueError):
        triangulate([A(0, 0), A(1, 0)], [float("nan"), 0.0])


# --- time difference ---

def test_tdoa_worked_example():
    anchors = [A(0, 0, "a"), A(4, 0, "b"), A(0, 4, "c")]
    truth = (1.0, 1.0)
    d = [math.hypot(truth[0] - a.position[0], truth[1] - a.position[1]) for a in anchors]
    est = tdoa_locate(anchors, [d[1] - d[0], d[2] - d[0]])
    assert est.method is Method.TDOA
    assert est.position == pytest.approx(truth, abs=1e-6)
    assert est.residual <= 1e-9


def test_tdoa_equidistant_point_zero_diffs():
    # equilateral receivers, query at the circumcentre: all diffs vanish
    anchors = [A(0, 0, "a"), A(2, 0, "b"), A(1, math.sqrt(3.0), "c")]
    est = tdoa_locate(anchors, [0.0, 0.0])
    d = [math.hypot(est.position[0] - a.position[0], est.position[1] - a.position[1])
         for a in anchors]
    assert max(d) - min(d) <= 1e-8


def test_tdoa_random_recovery():
    rng = np.random.default_rng(23)
    for _ in range(100):
        L, W = rng.uniform(4, 15, 2)
        pts = np.array([[0, 0], [L, 0], [L, W], [0, W]], float) + rng.uniform(-0.4, 0.4, (4, 2))
        truth = np.array([rng.uniform(0.2 * L, 0.8 * L), rng.uniform(0.2 * W, 0.8 * W)])
        d = np.linalg.norm(pts - truth, axis=1)
        anchors = [A(x, y, f"r{i}") for i, (x, y) in enumerate(pts)]
        est = tdoa_locate(anchors, list(d[1:] - d[0]))
        assert est.position == pytest.approx(tuple(truth), abs=1e-6)


def test_tdoa_errors():
    with pytest.raises(ArityError):
        tdoa_locate([A(0, 0), A(1, 0)], [0.1])
    with pytest.raises(ArityError):
        tdoa_locate([A(0, 0), A(4, 0), A(0, 4)], [0.1])
    with pytest.raises(DegenerateGeometry):
        tdoa_locate([A(0, 0), A(1, 0), A(2, 0)], [0.1, 0.2])
    with pytest.raises(InvalidDistance):
        tdoa_locate([A(0, 0), A(4, 0), A(0, 4)], [0.1, float("nan")])


# --- fingerprinting ---

def survey_trace(levels: dict[str, float], n=4) -> Trace:
    samples = []
    for i in range(n):
        for b, level in levels.items():
            samples.append(RssiSample(i * 100, b, level))
    return Trace(tuple(samples))


def test_build_averages_signatures():
    tr = Trace(tuple([
        RssiSample(0, "b0", -58.0), RssiSample(100, "b0", -62.0),
        RssiSample(50, "b1", -70.0),
    ]))
    db = fingerprint_build([((0.0, 0.0), tr)])
    assert db.entries[0].signature == {"b0": -60.0, "b1": -70.0}
    assert db.entries[0].position == (0.0, 0.0)


def test_build_errors():
    with pytest.raises(NoSurveys):
        fingerprint_build([])
    with pytest.raises(EmptyTrace):
        fingerprint_build([((0.0, 0.0), Trace(()))])


def test_locate_exact_match_k1():
    db = fingerprint_build([
        ((0.0, 0.0), survey_trace({"a": -50.0, "b": -70.0})),
        ((5.0, 0.0), survey_trace({"a": -70.0, "b": -50.0})),
    ])
    est = fingerprint_locate(db, {"a": -50.0, "b": -70.0}, k=1)
    assert est.position == (0.0, 0.0)
    assert est.residual == 0.0
    assert est.method is Method.FINGERPRINT


def test_locate_k2_midpoint_on_tie():
    db = fingerprint_build([
        ((0.0, 0.0), survey_trace({"a": -50.0})),
        ((2.0, 0.0), survey_trace({"a": -70.0})),
    ])
    est = fingerprint_locate(db, {"a": -60.0}, k=2)
    assert est.position == (1.0, 0.0)
    assert est.residual == 10.0  # both neighbours sit 10 dB away


def test_missing_beacon_imputed_at_floor():
    db = FingerprintDb((Fingerprint((0.0, 0.0), {"b1": -60.0}),))
    est = fingerprint_locate(db, {"b1": -60.0, "b2": -70.0}, k=1)
    # union distance: b1 contributes 0, b2 compares -70 against the -100 floor
    assert est.residual == pytest.approx(30.0, rel=1e-12)


def test_metric_choice_changes_distance():
    db = FingerprintDb((Fingerprint((0.0, 0.0), {"a": -60.0, "b": -60.0}),))
    obs = {"a": -57.0, "b": -56.0}
    eu = fingerprint_locate(db, obs, k=1).residual
    db_m = FingerprintDb(db.entries, metric="manhattan")
    man = fingerprint_locate(db_m, obs, k=1).residual
    assert eu == pytest.approx(5.0, rel=1e-12)   # sqrt(9 + 16)
    assert man == pytest.approx(7.0, rel=1e-12)  # 3 + 4


def test_grid_db_nearest_cell(tmp_path):
    # forward-generate signatures from the path loss model on a 3x3 grid
    model = ranging.PathLossModel()
    beacons = {"nw": (0.0, 2.0), "ne": (2.0, 2.0), "s": (1.0, 0.0)}
    surveys = []
    for gx in range(3):
        for gy in range(3):
            levels = {}
            for b, (bx, by) in beacons.items():
                d = max(math.hypot(gx - bx, gy - by), 0.01)
                levels[b] = round(ranging.distance_to_rssi(d, model), 4)
            surveys.append(((float(gx), float(gy)), survey_trace(levels)))
    db = fingerprint_build(surveys)
    # querying with each grid point's own signature returns that point
    for (pos, tr) in surveys:
        obs = {b: tr.for_beacon(b)[0].rssi_dbm for b in ("nw", "ne", "s")}
        assert fingerprint_locate(db, obs, k=1).position == pos
    # round trip through json keeps behaviour
    p = str(tmp_path / "db.json")
    save_fingerprint_db(db, p)
    db2 = load_fingerprint_db(p)
    assert db2 == db


def test_locate_errors():
    db = FingerprintDb((Fingerprint((0.0, 0.0), {"a": -60.0}),))
    with pytest.raises(ValueError):
        fingerprint_locate(db, {}, k=1)
    with pytest.raises(ArityError):
        fingerprint_locate(db, {"a": -60.0}, k=2)
    with pytest.raises(ArityError):
        fingerprint_locate(db, {"a": -60.0}, k=0)
    with pytest.raises(NoComparableEntries):
        fingerprint_locate(db, {"zz": -60.0}, k=1)


def test_tie_breaks_by_database_order():
    # two entries equally far from the observation: k=1 must take the first
    db = FingerprintDb((
        Fingerprint((0.0, 0.0), {"a": -55.0}),
        Fingerprint((9.0, 9.0), {"a": -65.0}),
    ))
    est = fingerprint_locate(db, {"a": -60.0}, k=1)
    assert est.position == (0.0, 0.0)


def test_db_validation_and_json():
    with pytest.raises(ValueError):
        FingerprintDb(())
    with pytest.raises(ValueError):
        FingerprintDb((Fingerprint((0, 0), {"a": -60.0}),), metric="cosine")
    doc = db_to_json(FingerprintDb((Fingerprint((1.0, 2.0), {"a": -60.0}),)))
    assert doc["entries"][0] == {"x": 1.0, "y": 2.0, "signature": {"a": -60.0}}
    assert db_from_json(doc).entries[0].signature == {"a": -60.0}
    with pytest.raises(ValueError):
        db_from_json({"entries": []})
    with pytest.raises(ValueError):
        db_from_json({"entries": [{"x": 0.0}]})


# --- anchors and estimates ---

def test_anchor_validation():
    with pytest.raises(ValueError):
        Anchor("", (0.0, 0.0))
    with pytest.raises(ValueError):
        Anchor("a", (float("inf"), 0.0))
    with pytest.raises(ValueError):
        Anchor("a", (0.0, 0.0), tx_power_dbm=50.0)


@pytest.mark.parametrize("beacon_id", [5, None, b"a", ("a",)])
def test_anchor_beacon_id_must_be_a_str(beacon_id):
    with pytest.raises(ValueError) as info:
        Anchor(beacon_id, (0.0, 0.0))
    assert str(info.value) == f"beacon_id must be a str, got {beacon_id!r}"
    assert Anchor("r0,0", (0.0, 0.0)).beacon_id == "r0,0"  # commas are allowed in anchor ids


@pytest.mark.parametrize("beacon_id", [None, 5, 1.5, True, ["a"]])
def test_anchors_file_beacon_id_reaches_anchor_unconverted(beacon_id):
    with pytest.raises(ValueError) as info:
        anchors_from_json([{"beacon_id": beacon_id, "x": 0.0, "y": 0.0}])
    assert str(info.value) == f"anchor 0: beacon_id must be a str, got {beacon_id!r}"


def test_fingerprint_locate_rejects_an_observation_that_is_not_a_mapping():
    db = FingerprintDb((Fingerprint((0.0, 0.0), {"a": -60.0}),))
    with pytest.raises(ValueError) as info:
        fingerprint_locate(db, [("a", -60.0)])
    assert str(info.value) == "observation must be a mapping, got [('a', -60.0)]"


def test_fingerprint_rejects_a_signature_that_is_not_a_mapping():
    with pytest.raises(ValueError) as info:
        Fingerprint((0, 0), [("a", -60.0)])
    assert str(info.value) == "signature must be a mapping, got [('a', -60.0)]"


@pytest.mark.parametrize("key, message", [
    (5, "must be a str, got 5"), (None, "must be a str, got None"),
    (b"a", "must be a str, got b'a'"), ("", "must be non-empty"),
])
def test_beacon_id_keys_are_not_converted(key, message):
    with pytest.raises(ValueError) as info:
        Fingerprint((0, 0), {key: -60.0})
    assert str(info.value) == f"signature key {message}"
    db = FingerprintDb((Fingerprint((0.0, 0.0), {"5": -60.0}),))
    with pytest.raises(ValueError) as info:
        fingerprint_locate(db, {key: -60.0})
    assert str(info.value) == f"observation key {message}"


def test_fingerprint_db_rejects_an_entry_that_is_not_a_fingerprint():
    good = Fingerprint((0.0, 0.0), {"a": -60.0})
    with pytest.raises(TypeError) as info:
        FingerprintDb(("x",))
    assert str(info.value) == "entry 0 must be a Fingerprint, got 'x'"
    with pytest.raises(TypeError, match="^entry 1 must be a Fingerprint, got None$"):
        FingerprintDb((good, None))


@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_not_numbers_in_positions(flag):
    with pytest.raises(ValueError, match="tx_power_dbm must be a number"):
        Anchor("a", (0.0, 0.0), tx_power_dbm=flag)
    with pytest.raises(ValueError, match=f"^position must be a number, got {flag}$"):
        Anchor("a", (flag, 0.0))
    with pytest.raises(ValueError, match=f"^center must be a number, got {flag}$"):
        Circle((0.0, flag), 1.0)
    with pytest.raises(ValueError, match=f"^position must be a number, got {flag}$"):
        PositionEstimate(position=(flag, 0.0), method=Method.LATERATION, residual=0.0)
    with pytest.raises(ValueError, match=f"^position must be a number, got {flag}$"):
        Fingerprint((0.0, flag), {"a": -60.0})
    with pytest.raises(ValueError) as info:
        Fingerprint((0.0, 0.0), {"a": flag})
    assert str(info.value) == f"signature entry 'a' must be a number, got {flag!r}"


def test_anchors_json(tmp_path):
    doc = [
        {"beacon_id": "a", "x": 0.0, "y": 1.0, "tx_power_dbm": -59.0},
        {"beacon_id": "b", "x": 2.0, "y": 3.0},
    ]
    anchors = anchors_from_json(doc)
    assert anchors[0] == Anchor("a", (0.0, 1.0), -59.0)
    assert anchors[1].tx_power_dbm is None
    with pytest.raises(ValueError, match="duplicate"):
        anchors_from_json(doc + [{"beacon_id": "a", "x": 9.0, "y": 9.0}])
    p = tmp_path / "anchors.json"
    p.write_text(__import__("json").dumps(doc))
    assert load_anchors(str(p)) == anchors


def test_position_estimate_validation():
    with pytest.raises(ValueError):
        PositionEstimate(position=(0.0, 0.0), method="lateration", residual=0.0)
    with pytest.raises(ValueError):
        PositionEstimate(position=(0.0, 0.0), method=Method.LATERATION, residual=-1.0)
    est = PositionEstimate(position=None, method=Method.PROXIMITY, residual=1.0)
    assert est.position is None


_HASH_ORDER_SCRIPT = """
from microloc.position import Fingerprint, FingerprintDb, fingerprint_locate
ids = [f"beacon-{i}" for i in range(40)]
entry = Fingerprint((0.0, 0.0), {b: -40.0 - 1.37 * i for i, b in enumerate(ids)})
obs = {b: -45.0 - 0.91 * i for i, b in enumerate(ids[5:])}
print(repr(fingerprint_locate(FingerprintDb((entry,)), obs).residual))
"""


def test_fingerprint_residual_independent_of_string_hashing():
    src = os.path.dirname(os.path.dirname(os.path.abspath(microloc.__file__)))
    outs = set()
    for seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _HASH_ORDER_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1, outs


# --- JSON object arrays: the first bad item is named by its index ---

HUGE_NUMBER = "9" * 400  # a valid JSON integer that overflows float()
GOOD_ITEMS = {
    "anchor": '{"beacon_id": "a", "x": 0.0, "y": 1.0}',
    "entry": '{"x": 0.0, "y": 1.0, "signature": {"a": -60.0}}',
}
BAD_ITEMS = {
    "anchor": {"non-object": ('["a"]', "must be an object"),
               "missing key": ('{"beacon_id": "b", "y": 1.0}', "'x'"),
               "huge number": ('{"beacon_id": "b", "x": @, "y": 1.0}',
                               "int too large to convert to float")},
    "entry": {"non-object": ("7", "must be an object"),
              "missing key": ('{"x": 0.0, "y": 1.0}', "'signature'"),
              "huge number": ('{"x": 0.0, "y": 1.0, "signature": {"a": @}}',
                              "int too large to convert to float")},
}


def _parse_array(label: str, text: str):
    items = json.loads(text)
    return anchors_from_json(items) if label == "anchor" else db_from_json({"entries": items})


@pytest.mark.parametrize("kind", ["non-object", "missing key", "huge number"])
@pytest.mark.parametrize("label", ["anchor", "entry"])
def test_json_array_error_names_item_index(label, kind):
    item, message = BAD_ITEMS[label][kind]
    text = f"[{GOOD_ITEMS[label]}, {item.replace('@', HUGE_NUMBER)}]"
    with pytest.raises(ValueError) as info:
        _parse_array(label, text)
    assert str(info.value) == f"{label} 1: {message}"


FLOAT_TYPE_ERROR = "float() argument must be a string or a real number, not "
VALUE_MESSAGES = {  # JSON value text: the message for any numeric field of an item
    '"a"': "{name} must be a number, got 'a'",
    "null": FLOAT_TYPE_ERROR + "'NoneType'",
    "[1]": FLOAT_TYPE_ERROR + "'list'",
    '{"a": 1}': FLOAT_TYPE_ERROR + "'dict'",
    "@": "int too large to convert to float",
    '"nan"': "{name} must be a number, got 'nan'",
}
FIELD_NAMES = {  # the {name} a field's number message gives
    "x": "position", "y": "position", "tx_power_dbm": "tx_power_dbm",
    "signature": "signature entry 'a'",
}
FIELD_MESSAGES = {  # (label, field, JSON value text): a message only that field gives
    ("anchor", "tx_power_dbm", "1" + "0" * 30): "tx_power_dbm out of range: 1e+30",
    ("anchor", "tx_power_dbm", "null"): None,  # null tx power means unknown
}
VALUE_FIELDS = [("anchor", "x"), ("anchor", "y"), ("anchor", "tx_power_dbm"),
                ("entry", "x"), ("entry", "y"), ("entry", "signature")]


def _item_with(label: str, field: str, text: str) -> dict:
    """GOOD_ITEMS[label] with field (for "signature", its value for beacon "a") set to text."""
    item = json.loads(GOOD_ITEMS[label])
    value = json.loads(text.replace("@", HUGE_NUMBER))
    if field == "signature":
        item["signature"]["a"] = value
    else:
        item[field] = value
    return item


@pytest.mark.parametrize("text", [*VALUE_MESSAGES, "1" + "0" * 30])
@pytest.mark.parametrize("label, field", VALUE_FIELDS)
def test_json_array_value_messages_are_pinned(label, field, text):
    message = FIELD_MESSAGES.get((label, field, text), VALUE_MESSAGES.get(text))
    doc = json.dumps([_item_with(label, field, text)])
    if message is None:  # 1e30 is a valid coordinate and RSSI
        _parse_array(label, doc)
        return
    with pytest.raises(ValueError) as info:
        _parse_array(label, doc)
    assert str(info.value) == f"{label} 0: {message.format(name=FIELD_NAMES[field])}"


@pytest.mark.parametrize("text, message", [
    ("5", "'int' object is not iterable"),
    ("null", "'NoneType' object is not iterable"),
    ('"ab"', "dictionary update sequence element #0 has length 1; 2 is required"),
    ("[1]", "cannot convert dictionary update sequence element #0 to a sequence"),
    ("{}", "signature must be non-empty"),
])
def test_signature_that_is_not_an_object_message_is_pinned(text, message):
    item = {"x": 0.0, "y": 1.0, "signature": json.loads(text)}
    with pytest.raises(ValueError) as info:
        db_from_json({"entries": [item]})
    assert str(info.value) == f"entry 0: {message}"


@pytest.mark.parametrize("label, field", VALUE_FIELDS)
@pytest.mark.parametrize("text", ["true", "false"])
def test_json_array_rejects_bool_values(label, field, text):
    doc = json.dumps([_item_with(label, field, text)])
    with pytest.raises(ValueError) as info:
        _parse_array(label, doc)
    assert str(info.value).startswith(f"{label} 0: ")
    assert text.capitalize() in str(info.value)


def test_duplicate_anchor_is_reported_before_a_later_malformed_anchor():
    doc = json.loads(f"[{GOOD_ITEMS['anchor']}, {GOOD_ITEMS['anchor']}, [1], "
                     f'{{"beacon_id": "c", "x": {HUGE_NUMBER}, "y": 0}}]')
    with pytest.raises(ValueError) as info:
        anchors_from_json(doc)
    assert str(info.value) == "anchor 1: duplicate beacon_id 'a'"


@pytest.mark.parametrize("k", [True, False, 1.0, "1"])
def test_fingerprint_k_must_be_an_int_not_a_bool(k):
    db = FingerprintDb((Fingerprint((0.0, 0.0), {"a": -60.0}),
                        Fingerprint((1.0, 0.0), {"a": -70.0})))
    with pytest.raises(ArityError) as info:
        fingerprint_locate(db, {"a": -60.0}, k=k)
    assert str(info.value) == f"k must be in [1, 2], got {k!r}"


@pytest.mark.parametrize("value, message", [
    (True, "must be a number, got True"),
    (None, "float() argument must be a string or a real number, not 'NoneType'"),
    (10 ** 400, "int too large to convert to float"),
    ("wide", "must be a number, got 'wide'"),
], ids=["bool", "none", "huge-int", "text"])
def test_radius_and_residual_must_be_numbers(value, message):
    with pytest.raises(ValueError) as info:
        Circle((0.0, 0.0), value)
    assert str(info.value).endswith(message)
    with pytest.raises(ValueError) as info:
        PositionEstimate(None, Method.PROXIMITY, value)
    assert str(info.value).endswith(message)


def test_bool_radius_and_residual_name_the_field():
    with pytest.raises(ValueError, match="^radius_m must be a number, got False$"):
        Circle((0.0, 0.0), False)
    with pytest.raises(ValueError, match="^residual must be a number, got True$"):
        PositionEstimate((0.0, 0.0), Method.LATERATION, True)
    assert Circle((0.0, 0.0), np.float32(2.5)).radius_m == 2.5


def test_proximity_region_that_does_not_settle_has_no_position():
    # three disks that overlap pairwise but share no point: the projections cycle
    anchors = [Anchor("a", (0.0, 0.0)), Anchor("b", (2.0, 0.0)), Anchor("c", (1.0, math.sqrt(3.0)))]
    est = proximity_region(anchors, [1.05] * 3)
    assert est.position is None
    assert est.residual == pytest.approx(0.2063, abs=1e-4)


def test_fingerprint_locate_rejects_nonfinite_observation_and_too_large_k():
    db = FingerprintDb((Fingerprint((0.0, 0.0), {"a": -60.0}), Fingerprint((1.0, 0.0), {"b": -60.0})))
    with pytest.raises(ValueError, match="observation rssi for 'a' must be finite"):
        fingerprint_locate(db, {"a": float("nan")})
    with pytest.raises(ArityError, match="k=2 but only 1 comparable entries"):
        fingerprint_locate(db, {"a": -60.0}, 2)


def test_fingerprint_build_takes_only_the_surveys():
    trace = Trace((RssiSample(0, "a", -60.0),))
    assert fingerprint_build([((0.0, 0.0), trace)]).metric == "euclidean"
    with pytest.raises(TypeError):
        fingerprint_build([((0.0, 0.0), trace)], "manhattan")


def test_json_documents_of_the_wrong_type_are_rejected():
    with pytest.raises(ValueError, match="must be an object with an 'entries' array"):
        db_from_json([])
    with pytest.raises(ValueError, match="anchors document must be a JSON array"):
        anchors_from_json({"beacon_id": "a", "x": 0, "y": 0})


def test_no_convergence_message_names_the_iterations():
    from microloc.errors import NoConvergence

    exc = NoConvergence(100)
    assert exc.iterations == 100
    assert str(exc) == "no convergence after 100 iterations"
