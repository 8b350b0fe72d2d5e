"""Position estimation from per-beacon measurements.

Five strategies, one result type:

* proximity: classify a distance into zones, or intersect anchor-centred
  disks to bound where the device can be.
* lateration: Gauss-Newton fit of a point to anchor distances.
* angulation: intersect bearing rays from two anchors.
* time-difference: Gauss-Newton fit to range differences between receiver
  pairs (hyperbolic positioning).
* fingerprinting: k-nearest-neighbour lookup against surveyed signal
  signatures.

All solvers work in a 2-D metric coordinate frame (metres).
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ArityError,
    DegenerateGeometry,
    EmptyTrace,
    InvalidDistance,
    NoAnchors,
    NoComparableEntries,
    NoConvergence,
    NoIntersection,
    NoSurveys,
)
from .model import (TX_POWER_MAX_DBM, TX_POWER_MIN_DBM, Trace, atomic_write_text,
                    json_objects, left_to_right_sum, read_json)

MISSING_RSSI_DBM = -100.0  # imputed for beacons absent from a signature

IMMEDIATE_THRESHOLD_M = 0.5
NEAR_THRESHOLD_M = 4.0
DEFAULT_FINGERPRINT_K = 1

_COLLINEAR_SCATTER_M2 = 1e-9
_PROXIMITY_MAX_ITER = 200
_PROXIMITY_TOL_M = 1e-9  # a disk violated by no more than this counts as satisfied
_GN_MAX_ITER = 100
_GN_STEP_TOL = 1e-10
_TDOA_MAX_RANGE_SPREADS = 100.0  # a TDoA fix farther out is an asymptote, not a fix


class Method(enum.Enum):
    PROXIMITY = "proximity"
    LATERATION = "lateration"
    ANGULATION = "angulation"
    FINGERPRINT = "fingerprint"
    TDOA = "tdoa"


class Zone(enum.Enum):
    IMMEDIATE = "immediate"
    NEAR = "near"
    FAR = "far"
    UNKNOWN = "unknown"


def _check_number(v, name: str) -> float:
    """v as a float; a bool, or a value float() cannot convert, raises ValueError."""
    if type(v) is bool:
        raise ValueError(f"{name} must be a number, got {v!r}")
    try:
        return float(v)
    except (TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from exc


def _check_point(p, name: str) -> tuple[float, float]:
    """p as two floats; a coordinate float() cannot convert raises ValueError with its text."""
    try:
        x, y = p
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an (x, y) pair") from exc
    if type(x) is bool or type(y) is bool:
        raise ValueError(f"{name} must be an (x, y) pair of numbers, got {p!r}")
    x, y = _check_number(x, name), _check_number(y, name)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name} must be finite, got {(x, y)!r}")
    return (x, y)


@dataclass(frozen=True)
class Anchor:
    """A beacon with a known position and optional calibrated power."""

    beacon_id: str
    position: tuple[float, float]
    tx_power_dbm: float | None = None

    def __post_init__(self):
        if not isinstance(self.beacon_id, str) or not self.beacon_id:
            raise ValueError("beacon_id must be non-empty" if isinstance(self.beacon_id, str)
                             else f"beacon_id must be a str, got {self.beacon_id!r}")
        object.__setattr__(self, "position", _check_point(self.position, "position"))
        if self.tx_power_dbm is not None:
            tx = _check_number(self.tx_power_dbm, "tx_power_dbm")
            if not math.isfinite(tx) or not TX_POWER_MIN_DBM <= tx <= TX_POWER_MAX_DBM:
                raise ValueError(f"tx_power_dbm out of range: {tx!r}")
            object.__setattr__(self, "tx_power_dbm", tx)


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius_m: float

    def __post_init__(self):
        object.__setattr__(self, "center", _check_point(self.center, "center"))
        r = _check_number(self.radius_m, "radius_m")
        if not math.isfinite(r) or r <= 0.0:
            raise ValueError(f"radius_m must be positive, got {self.radius_m!r}")
        object.__setattr__(self, "radius_m", r)


@dataclass(frozen=True)
class ProximityZone:
    zone: Zone
    distance_m: float


@dataclass(frozen=True)
class PositionEstimate:
    """Solver output: a point (or None when infeasible) plus fit quality.

    residual is method specific: RMS range misfit for lateration and
    time-difference, worst circle violation for proximity regions, mean
    neighbour signature distance for fingerprinting, zero for exact ray
    intersections.
    """

    position: tuple[float, float] | None
    method: Method
    residual: float
    region: tuple[Circle, ...] = ()

    def __post_init__(self):
        if not isinstance(self.method, Method):
            raise ValueError(f"method must be a Method, got {self.method!r}")
        if self.position is not None:
            object.__setattr__(self, "position", _check_point(self.position, "position"))
        r = _check_number(self.residual, "residual")
        if not math.isfinite(r) or r < 0.0:
            raise ValueError(f"residual must be finite and non-negative, got {self.residual!r}")
        object.__setattr__(self, "residual", r)
        object.__setattr__(self, "region", tuple(self.region))


def classify_proximity(distance_m: float, immediate_m: float = IMMEDIATE_THRESHOLD_M,
                       near_m: float = NEAR_THRESHOLD_M) -> ProximityZone:
    """Bucket a ranged distance into immediate/near/far zones.

    Zone boundaries belong to the farther zone: exactly immediate_m is
    near, exactly near_m is still near. NaN distances give Zone.UNKNOWN
    rather than an error, since a failed ranging upstream should degrade
    rather than crash a pipeline.
    """
    if not (0.0 < immediate_m < near_m) or not math.isfinite(near_m):
        raise ValueError(f"need 0 < immediate_m < near_m, got {immediate_m!r}, {near_m!r}")
    d = float(distance_m)
    if math.isnan(d):
        return ProximityZone(Zone.UNKNOWN, d)
    if d < 0.0 or math.isinf(d):
        raise InvalidDistance(f"distance_m must be non-negative and finite, got {distance_m!r}")
    if d < immediate_m:
        return ProximityZone(Zone.IMMEDIATE, d)
    if d <= near_m:
        return ProximityZone(Zone.NEAR, d)
    return ProximityZone(Zone.FAR, d)


def _as_distances(values: Sequence[float], n: int) -> np.ndarray:
    if len(values) != n:
        raise ArityError(f"distances_m: expected {n} values, got {len(values)}")
    arr = np.asarray([float(v) for v in values], dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InvalidDistance("distances_m must be finite and non-negative")
    return arr


def _anchor_points(anchors: Sequence[Anchor]) -> np.ndarray:
    return np.asarray([a.position for a in anchors], dtype=float)


def proximity_region(anchors: Sequence[Anchor], distances_m: Sequence[float]) -> PositionEstimate:
    """Find a point consistent with "within distance d_i of anchor i".

    Runs cyclic projection onto the anchor disks: starting from the
    centroid, repeatedly project onto the disk currently violated most.
    For disks with a common point this converges to one; if the disks are
    pairwise disjoint or the projections fail to settle, position is None
    and the residual reports the worst remaining violation in metres.
    """
    if len(anchors) == 0:
        raise NoAnchors("proximity region needs at least one anchor")
    dists = _as_distances(distances_m, len(anchors))
    if np.any(dists <= 0.0):
        raise InvalidDistance("distances_m must be strictly positive")
    centers = _anchor_points(anchors)
    region = tuple(Circle(a.position, d) for a, d in zip(anchors, dists))

    gaps = ((np.linalg.norm(centers[i] - centers[j]), dists[i] + dists[j])
            for i, j in itertools.combinations(range(len(anchors)), 2))
    # infeasible at the first two disks that cannot both contain the point
    feasible = not any(gap > reach + _PROXIMITY_TOL_M for gap, reach in gaps)
    p = centers.mean(axis=0)
    if feasible:
        for _ in range(_PROXIMITY_MAX_ITER):
            sep = np.linalg.norm(p - centers, axis=1) - dists
            worst = int(np.argmax(sep))
            if sep[worst] <= _PROXIMITY_TOL_M:
                break
            # project onto the most-violated disk
            v = p - centers[worst]
            p = centers[worst] + v * (dists[worst] / float(np.linalg.norm(v)))
        else:
            feasible = False
    violation = float(np.max(np.linalg.norm(p - centers, axis=1) - dists))
    residual = max(0.0, violation)
    return PositionEstimate(
        position=p if feasible else None,
        method=Method.PROXIMITY,
        residual=residual,
        region=region,
    )


def _check_spread(points: np.ndarray) -> None:
    """Reject anchor sets that are collinear (or coincident)."""
    centered = points - points.mean(axis=0)
    scatter = centered.T @ centered
    eigvals = np.linalg.eigvalsh(scatter)
    if float(eigvals[0]) < _COLLINEAR_SCATTER_M2:
        raise DegenerateGeometry("anchors are collinear or coincident")


def _gn_step(jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """Gauss-Newton step: solve (JᵀJ) step = -Jᵀr, least squares if JᵀJ is singular."""
    jtj = jac.T @ jac
    rhs = -(jac.T @ resid)
    try:
        return np.linalg.solve(jtj, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(jtj, rhs, rcond=None)[0]


def trilaterate(anchors: Sequence[Anchor], distances_m: Sequence[float]) -> PositionEstimate:
    """Least-squares point from three or more anchor distances.

    Starts from the linearized solution (subtracting the first anchor's
    circle equation) and refines with Gauss-Newton until the step shrinks
    below 1e-10 m. The residual is the RMS distance misfit; with exact
    inputs it is ~0 and the true point is recovered to solver precision.
    """
    if len(anchors) < 3:
        raise ArityError(f"trilateration requires at least three anchors, got {len(anchors)}")
    dists = _as_distances(distances_m, len(anchors))
    pts = _anchor_points(anchors)
    _check_spread(pts)

    # linear initialization: difference of squared circle equations
    a_mat = 2.0 * (pts[1:] - pts[0])
    b_vec = (
        dists[0] ** 2
        - dists[1:] ** 2
        + np.sum(pts[1:] ** 2, axis=1)
        - np.sum(pts[0] ** 2)
    )
    p, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)

    converged = False
    for _ in range(_GN_MAX_ITER):
        diff = p - pts
        ranges = np.linalg.norm(diff, axis=1)
        ranges = np.maximum(ranges, 1e-12)
        resid = ranges - dists
        step = _gn_step(diff / ranges[:, None], resid)
        p = p + step
        if float(np.linalg.norm(step)) < _GN_STEP_TOL:
            converged = True
            break
    if not converged:
        raise NoConvergence(_GN_MAX_ITER)
    resid = np.linalg.norm(p - pts, axis=1) - dists
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return PositionEstimate(position=p, method=Method.LATERATION, residual=rms)


def triangulate(anchors: Sequence[Anchor], bearings_rad: Sequence[float]) -> PositionEstimate:
    """Intersect two bearing rays, one from each anchor.

    Bearings are absolute angles in radians (atan2 convention: 0 along
    +x, counter-clockwise positive). Parallel rays, or an intersection
    that lies behind either anchor, raise NoIntersection.
    """
    if len(anchors) != 2 or len(bearings_rad) != 2:
        raise ArityError(
            f"triangulation takes exactly two anchors and two bearings, "
            f"got {len(anchors)} and {len(bearings_rad)}"
        )
    th1, th2 = (float(b) for b in bearings_rad)
    if not (math.isfinite(th1) and math.isfinite(th2)):
        raise ValueError("bearings must be finite")
    a1 = np.asarray(anchors[0].position, dtype=float)
    a2 = np.asarray(anchors[1].position, dtype=float)
    if float(np.linalg.norm(a2 - a1)) < 1e-12:
        raise DegenerateGeometry("anchors coincide")
    u1 = np.array([math.cos(th1), math.sin(th1)])
    u2 = np.array([math.cos(th2), math.sin(th2)])
    cross = float(u1[0] * u2[1] - u1[1] * u2[0])
    if abs(cross) < 1e-12:
        raise NoIntersection("bearing rays are parallel")
    rhs = a2 - a1
    # solve a1 + t1*u1 == a2 + t2*u2 for ray parameters t1, t2
    t1 = (rhs[0] * u2[1] - rhs[1] * u2[0]) / cross
    t2 = (rhs[0] * u1[1] - rhs[1] * u1[0]) / cross
    if t1 < -1e-12 or t2 < -1e-12:
        raise NoIntersection("rays meet behind an anchor")
    p = a1 + t1 * u1
    return PositionEstimate(position=p, method=Method.ANGULATION, residual=0.0)


def _tdoa_cost(p: np.ndarray, pts: np.ndarray, diffs: np.ndarray) -> tuple[np.ndarray, float]:
    ranges = np.maximum(np.linalg.norm(p - pts, axis=1), 1e-12)
    resid = (ranges[1:] - ranges[0]) - diffs
    return resid, float(resid @ resid)


def tdoa_locate(receivers: Sequence[Anchor], range_diffs_m: Sequence[float]) -> PositionEstimate:
    """Hyperbolic positioning from range differences.

    range_diffs_m[i] is distance(p, receivers[i+1]) - distance(p,
    receivers[0]), i.e. each later receiver paired against the first.
    Gauss-Newton with backtracking runs from several starting points
    (receiver centroid, then perturbed receiver sites) and the best
    converged fit wins; the residual is the RMS range-difference misfit.

    An iteration is a deterministic map of the iterate alone, so a start
    whose iterate repeats (bit for bit) is in a cycle that can only run
    out of iterations; it ends there, unconverged. A start that converges
    more than _TDOA_MAX_RANGE_SPREADS receiver spreads from the receivers'
    centroid (running off along a hyperbola's asymptote) does not count as
    converged. NoConvergence is raised when no start converges.
    """
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
    pts = _anchor_points(receivers)
    _check_spread(pts)

    centroid = pts.mean(axis=0)
    spread = float(np.max(np.linalg.norm(pts - centroid, axis=1)))
    offset = np.array([0.37, 0.23]) * max(spread, 1.0)
    starts = [centroid] + [pt + offset for pt in pts]
    max_range = _TDOA_MAX_RANGE_SPREADS * max(spread, 1.0)

    best: tuple[float, np.ndarray] | None = None
    for start in starts:
        p = start.copy()
        resid, cost = _tdoa_cost(p, pts, diffs)
        converged = False
        seen: set[bytes] = set()
        for _ in range(_GN_MAX_ITER):
            key = p.tobytes()
            if key in seen:
                break  # a cycle: it would replay until _GN_MAX_ITER
            seen.add(key)
            ranges = np.maximum(np.linalg.norm(p - pts, axis=1), 1e-12)
            units = (p - pts) / ranges[:, None]
            step = _gn_step(units[1:] - units[0], resid)
            # backtrack until the squared misfit stops growing
            scale = 1.0
            for _ in range(25):
                trial = p + scale * step
                t_resid, t_cost = _tdoa_cost(trial, pts, diffs)
                if t_cost <= cost:
                    break
                scale *= 0.5
            else:
                break  # no productive step from here
            p = trial
            resid, cost = t_resid, t_cost
            if float(np.linalg.norm(step)) < _GN_STEP_TOL or cost < 1e-24:
                converged = float(np.linalg.norm(p - centroid)) <= max_range
                break
        if converged and (best is None or cost < best[0]):
            best = (cost, p)
    if best is None:
        raise NoConvergence(_GN_MAX_ITER)
    cost, p = best
    rms = math.sqrt(cost / len(diffs))
    return PositionEstimate(position=p, method=Method.TDOA, residual=rms)


# --- fingerprinting ---

@dataclass(frozen=True)
class Fingerprint:
    """One surveyed location and its mean per-beacon signal signature."""

    position: tuple[float, float]
    signature: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "position", _check_point(self.position, "position"))
        if not self.signature:
            raise ValueError("signature must be non-empty")
        sig = {}
        for k, v in self.signature.items():
            if type(v) is bool:
                raise ValueError(f"bad signature entry {k!r}: {v!r}")
            fv = float(v)
            if not k or not math.isfinite(fv):
                raise ValueError(f"bad signature entry {k!r}: {fv!r}")
            sig[str(k)] = fv
        object.__setattr__(self, "signature", sig)


@dataclass(frozen=True)
class FingerprintDb:
    entries: tuple[Fingerprint, ...]
    metric: str = "euclidean"

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) == 0:
            raise ValueError("fingerprint database must have at least one entry")
        if self.metric not in ("euclidean", "manhattan"):
            raise ValueError(f"metric must be euclidean or manhattan, got {self.metric!r}")


def fingerprint_build(surveys: Sequence[tuple[tuple[float, float], Trace]]) -> FingerprintDb:
    """Average each survey trace into a per-beacon signature.

    surveys pairs a known position with the trace recorded there. Every
    trace must be non-empty; an empty survey list raises NoSurveys.
    """
    if len(surveys) == 0:
        raise NoSurveys("need at least one survey point")
    entries = []
    for position, trace in surveys:
        if len(trace.samples) == 0:
            raise EmptyTrace(f"survey at {position!r} has an empty trace")
        entries.append(Fingerprint(position=tuple(position),
                                   signature=trace.mean_rssi_by_beacon()))
    return FingerprintDb(entries=tuple(entries))


def _signature_distance(a: Mapping[str, float], b: Mapping[str, float], metric: str) -> float:
    keys = sorted(a.keys() | b.keys())  # fixed order: the sum must not depend on string hashing
    diffs = [a.get(k, MISSING_RSSI_DBM) - b.get(k, MISSING_RSSI_DBM) for k in keys]
    if metric == "euclidean":
        return math.sqrt(left_to_right_sum(d * d for d in diffs))  # d * d: see filters._variance
    return left_to_right_sum(map(abs, diffs))


def fingerprint_locate(db: FingerprintDb, observation: Mapping[str, float],
                       k: int = DEFAULT_FINGERPRINT_K) -> PositionEstimate:
    """k-nearest-neighbour position against the survey database.

    Signature distance runs over the union of beacon ids, with absent
    beacons imputed at -100 dBm. Entries sharing no beacon with the
    observation are not comparable and are skipped; if none remain,
    NoComparableEntries is raised. Ties rank by database order, and the
    estimate is the plain centroid of the k nearest survey positions.
    """
    if not observation:
        raise ValueError("observation must be non-empty")
    obs = {str(b): float(v) for b, v in observation.items()}
    for b, v in obs.items():
        if not math.isfinite(v):
            raise ValueError(f"observation rssi for {b!r} must be finite")
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= len(db.entries):
        raise ArityError(f"k must be in [1, {len(db.entries)}], got {k!r}")
    # (distance, index) tuples sort by distance, then database order
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
    return PositionEstimate(
        position=(left_to_right_sum(xs) / k, left_to_right_sum(ys) / k),
        method=Method.FINGERPRINT,
        residual=residual,
    )


# --- serialization ---

def db_to_json(db: FingerprintDb) -> dict:
    return {
        "metric": db.metric,
        "entries": [
            {
                "x": e.position[0],
                "y": e.position[1],
                "signature": {k: e.signature[k] for k in sorted(e.signature)},
            }
            for e in db.entries
        ],
    }


def _fingerprint_from_json(item: dict) -> Fingerprint:
    return Fingerprint(position=(item["x"], item["y"]), signature=dict(item["signature"]))


def db_from_json(doc: dict) -> FingerprintDb:
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError("fingerprint database must be an object with an 'entries' array")
    entries = json_objects(doc["entries"], "entry", _fingerprint_from_json)
    return FingerprintDb(entries=tuple(entries), metric=str(doc.get("metric", "euclidean")))


def save_fingerprint_db(db: FingerprintDb, path: str) -> None:
    atomic_write_text(path, json.dumps(db_to_json(db), indent=2) + "\n")


def load_fingerprint_db(path: str) -> FingerprintDb:
    return db_from_json(read_json(path))


def anchors_from_json(doc: list) -> tuple[Anchor, ...]:
    """Parse an anchor list: [{"beacon_id", "x", "y", "tx_power_dbm"?}, ...]."""
    if not isinstance(doc, list):
        raise ValueError("anchors document must be a JSON array")
    seen = set()

    def build(item: dict) -> Anchor:
        anchor = Anchor(str(item["beacon_id"]), (item["x"], item["y"]), item.get("tx_power_dbm"))
        if anchor.beacon_id in seen:
            raise ValueError(f"duplicate beacon_id {anchor.beacon_id!r}")
        seen.add(anchor.beacon_id)
        return anchor

    return tuple(json_objects(doc, "anchor", build))


def load_anchors(path: str) -> tuple[Anchor, ...]:
    return anchors_from_json(read_json(path))
