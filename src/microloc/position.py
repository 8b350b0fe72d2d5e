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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (ArityError, DegenerateGeometry, EmptyTrace, InvalidDistance, NoAnchors,
                     NoComparableEntries, NoConvergence, NoIntersection, NoSurveys)
from .model import (TX_POWER_MAX_DBM, TX_POWER_MIN_DBM, Trace, atomic_write_text,
                    json_objects, left_to_right_sum, read_json, real, real_pair)

MISSING_RSSI_DBM = -100.0  # imputed for beacons absent from a signature
_NO_ENTRIES = (np.empty(0, dtype=np.intp), np.empty(0))  # an id no fingerprint holds

IMMEDIATE_THRESHOLD_M = 0.5
NEAR_THRESHOLD_M = 4.0
DEFAULT_FINGERPRINT_K = 1

_COLLINEAR_SCATTER_M2 = 1e-9
_PROXIMITY_MAX_ITER = 200
_PROXIMITY_TOL_M = 1e-9  # a disk violated by no more than this counts as satisfied
_GN_MAX_ITER = 100
_GN_STEP_TOL = 1e-10
_TDOA_MAX_RANGE_SPREADS = 100.0  # a TDoA fix farther out is an asymptote, not a fix
_TDOA_BLOCK_PAIRS = 2048  # (start, receiver) pairs run in lockstep at once: bounds a round's memory
_BACKTRACK_SCALES = np.cumprod(np.full(24, 0.5))[:, None]  # 0.5 ... 2**-24: the halvings after a full step


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


def _check_beacon_id(b, name: str) -> str:
    """b, which must be a non-empty str: the rule for every beacon id."""
    if not isinstance(b, str) or not b:
        raise ValueError(f"{name} must be non-empty" if isinstance(b, str)
                         else f"{name} must be a str, got {b!r}")
    return b


def _check_point(p, name: str) -> tuple[float, float]:
    """p as two finite floats, through model.real_pair."""
    x, y = real_pair(p, name)
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
        _check_beacon_id(self.beacon_id, "beacon_id")
        object.__setattr__(self, "position", _check_point(self.position, "position"))
        if self.tx_power_dbm is not None:
            tx = real(self.tx_power_dbm, "tx_power_dbm")
            if not TX_POWER_MIN_DBM <= tx <= TX_POWER_MAX_DBM:  # NaN fails
                raise ValueError(f"tx_power_dbm out of range: {tx!r}")
            object.__setattr__(self, "tx_power_dbm", tx)


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius_m: float

    def __post_init__(self):
        object.__setattr__(self, "center", _check_point(self.center, "center"))
        r = real(self.radius_m, "radius_m")
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
        r = real(self.residual, "residual")
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
    rather than crash a pipeline. A distance or threshold that is not a
    number raises ValueError.
    """
    immediate_m, near_m = real(immediate_m, "immediate_m"), real(near_m, "near_m")
    if not (0.0 < immediate_m < near_m) or not math.isfinite(near_m):
        raise ValueError(f"need 0 < immediate_m < near_m, got {immediate_m!r}, {near_m!r}")
    d = real(distance_m, "distance_m")
    if math.isnan(d):
        return ProximityZone(Zone.UNKNOWN, d)
    if d < 0.0 or math.isinf(d):
        raise InvalidDistance(f"distance_m must be non-negative and finite, got {distance_m!r}")
    if d < immediate_m:
        return ProximityZone(Zone.IMMEDIATE, d)
    if d <= near_m:
        return ProximityZone(Zone.NEAR, d)
    return ProximityZone(Zone.FAR, d)


def _row_norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d, axis=-1) for real d, without its dispatch: the same squares,
    sums and square roots. For points the sum is written out: numpy's reduction
    over two values is that one addition, and slow on a last axis that short."""
    sq = d * d
    return np.sqrt(sq[..., 0] + sq[..., 1] if d.shape[-1] == 2 else np.add.reduce(sq, axis=-1))


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) for a real 1-D v, as a float: the same dot product and square root."""
    return math.sqrt(v.dot(v))


def _as_distances(values: Sequence[float], n: int) -> np.ndarray:
    if len(values) != n:
        raise ArityError(f"distances_m: expected {n} values, got {len(values)}")
    arr = np.asarray([real(v, "distances_m") for v in values], dtype=float)
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

    gaps = ((_norm(centers[i] - centers[j]), dists[i] + dists[j])
            for i, j in itertools.combinations(range(len(anchors)), 2))
    # infeasible at the first two disks that cannot both contain the point
    feasible = not any(gap > reach + _PROXIMITY_TOL_M for gap, reach in gaps)
    p = centers.mean(axis=0)
    if feasible:
        for _ in range(_PROXIMITY_MAX_ITER):
            sep = _row_norms(p - centers) - dists
            worst = int(np.argmax(sep))
            if sep[worst] <= _PROXIMITY_TOL_M:
                break
            # project onto the most-violated disk
            v = p - centers[worst]
            p = centers[worst] + v * (dists[worst] / _norm(v))
        else:
            feasible = False
    violation = float(np.max(_row_norms(p - centers) - dists))
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
        ranges = np.maximum(_row_norms(diff), 1e-12)
        resid = ranges - dists
        step = _gn_step(diff / ranges[:, None], resid)
        p = p + step
        if _norm(step) < _GN_STEP_TOL:
            converged = True
            break
    if not converged:
        raise NoConvergence(_GN_MAX_ITER)
    resid = _row_norms(p - pts) - dists
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
    th1, th2 = (real(b, "bearings_rad") for b in bearings_rad)
    if not (math.isfinite(th1) and math.isfinite(th2)):
        raise ValueError("bearings must be finite")
    a1 = np.asarray(anchors[0].position, dtype=float)
    a2 = np.asarray(anchors[1].position, dtype=float)
    if _norm(a2 - a1) < 1e-12:
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


def _tdoa_cost(p: np.ndarray, pts: np.ndarray, diffs: np.ndarray):
    """The range-difference residuals at p and their squared sum: a float for
    one point, an array for a stack (..., 2) of points.

    Each residual row starts 16-byte aligned, as a fresh 1-D array does (an
    odd length is padded by one): OpenBLAS's Prescott-class ddot rounds
    differently for a vector at 8 mod 16 bytes.
    """
    ranges = np.maximum(_row_norms(p[..., None, :] - pts), 1e-12)
    m = len(diffs)
    resid = np.empty(ranges.shape[:-1] + (m + m % 2,))[..., :m]
    np.subtract(ranges[..., 1:] - ranges[..., :1], diffs, out=resid)
    cost = np.matmul(resid[..., None, :], resid[..., :, None])[..., 0, 0]
    return resid, float(cost) if p.ndim == 1 else cost


def _gn_steps(jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """_gn_step for a stack of Jacobians and of residual rows that start 16-byte
    aligned. Stacked matmul and solve call BLAS/LAPACK once per matrix, so
    each step has the bits _gn_step gives it alone."""
    jac_t = jac.transpose(0, 2, 1)
    try:
        return np.linalg.solve(jac_t @ jac, -(jac_t @ resid[..., None]))[..., 0]
    except np.linalg.LinAlgError:  # a singular JᵀJ somewhere in the stack
        return np.array([_gn_step(j, r) for j, r in zip(jac, resid)])


def _tdoa_fits(starts: np.ndarray, pts: np.ndarray, diffs: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Gauss-Newton with backtracking from each start, all starts in lockstep:
    (cost, point) of each start that meets the step or cost stop, in start order.

    A round takes one iteration of every running start. Each start's
    iterates are bit for bit those of running it alone: every misfit
    evaluation goes through _tdoa_cost, and every BLAS/LAPACK call sees the
    operands a lone start would give it. The backtracking scales 0.5 ... 2**-24
    are tried all at once, for the starts whose full step raised the misfit.
    """
    m = len(diffs)
    ids, p = np.arange(len(starts)), starts
    resid, cost = _tdoa_cost(p, pts, diffs)
    seen: list[set[bytes]] = [set() for _ in ids]
    going = np.ones(len(ids), dtype=bool)
    fits: dict[int, tuple[float, np.ndarray]] = {}
    for _ in range(_GN_MAX_ITER):
        keys = [row.tobytes() for row in p]
        going &= [key not in s for key, s in zip(keys, seen)]  # a repeated iterate: a cycle
        if not going.all():
            rows = np.flatnonzero(going)
            ids, p, cost, going = ids[rows], p[rows], cost[rows], going[rows]
            kept, resid = resid[rows], np.empty((len(rows), m + m % 2))[:, :m]
            resid[:] = kept  # rows start aligned again, as _tdoa_cost makes them
            seen, keys = [seen[i] for i in rows], [keys[i] for i in rows]
            if len(ids) == 0:
                break
        for key, s in zip(keys, seen):
            s.add(key)
        diff = p[:, None, :] - pts
        units = diff / np.maximum(_row_norms(diff), 1e-12)[..., None]
        step = _gn_steps(units[:, 1:] - units[:, :1], resid)
        trial = p + step
        t_resid, t_cost = _tdoa_cost(trial, pts, diffs)
        back = np.flatnonzero(~(t_cost <= cost))
        if len(back):
            halved = p[back, None] + _BACKTRACK_SCALES * step[back, None]
            h_resid, h_cost = _tdoa_cost(halved, pts, diffs)
            ok = h_cost <= cost[back, None]
            first = ok.argmax(axis=1)  # the largest scale that does not raise the misfit
            rows = np.arange(len(back))
            trial[back], t_resid[back], t_cost[back] = (
                halved[rows, first], h_resid[rows, first], h_cost[rows, first])
            going[back] = ok[rows, first]  # no productive step from here: not converged
        p, resid, cost = trial, t_resid, t_cost
        norms = np.sqrt(np.matmul(step[:, None, :], step[:, :, None])[:, 0, 0])
        stop = going & ((norms < _GN_STEP_TOL) | (cost < 1e-24))
        fits.update((i, (float(cost[j]), p[j])) for j, i in zip(np.flatnonzero(stop), ids[stop]))
        going &= ~stop
    return [fits[i] for i in sorted(fits)]


def tdoa_locate(receivers: Sequence[Anchor], range_diffs_m: Sequence[float]) -> PositionEstimate:
    """Hyperbolic positioning from range differences.

    range_diffs_m[i] is distance(p, receivers[i+1]) - distance(p,
    receivers[0]), i.e. each later receiver paired against the first.
    Gauss-Newton with backtracking runs from several starting points
    (receiver centroid, then perturbed receiver sites) and the best
    converged fit wins: the first, in start order, of the lowest cost. The
    residual is the RMS range-difference misfit.

    The starts run in lockstep, in blocks of at most _TDOA_BLOCK_PAIRS
    (start, receiver) pairs, and each start's bits are those of running it
    alone. An iteration is a deterministic map of the iterate alone, so a
    start whose iterate repeats (bit for bit) is in a cycle that can only
    run out of iterations; it ends there, unconverged. A start that
    converges more than _TDOA_MAX_RANGE_SPREADS receiver spreads from the
    receivers' centroid (running off along a hyperbola's asymptote) does
    not count as converged. NoConvergence is raised when no start converges.
    """
    if len(receivers) < 3:
        raise ArityError(f"time-difference fix requires at least three receivers, got {len(receivers)}")
    if len(range_diffs_m) != len(receivers) - 1:
        raise ArityError(
            f"expected {len(receivers) - 1} range differences for {len(receivers)} receivers, "
            f"got {len(range_diffs_m)}"
        )
    diffs = np.asarray([real(v, "range_diffs_m") for v in range_diffs_m], dtype=float)
    if not np.all(np.isfinite(diffs)):
        raise InvalidDistance("range differences must be finite")
    pts = _anchor_points(receivers)
    _check_spread(pts)

    centroid = pts.mean(axis=0)
    spread = float(np.max(_row_norms(pts - centroid)))
    offset = np.array([0.37, 0.23]) * max(spread, 1.0)
    starts = np.vstack((centroid, pts + offset))
    max_range = _TDOA_MAX_RANGE_SPREADS * max(spread, 1.0)

    block = max(1, _TDOA_BLOCK_PAIRS // len(pts))
    best: tuple[float, np.ndarray] | None = None
    for first in range(0, len(starts), block):
        for cost, p in _tdoa_fits(starts[first:first + block], pts, diffs):
            if _norm(p - centroid) <= max_range and (best is None or cost < best[0]):
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
        if not isinstance(self.signature, Mapping):
            raise ValueError(f"signature must be a mapping, got {self.signature!r}")
        object.__setattr__(self, "position", _check_point(self.position, "position"))
        if not self.signature:
            raise ValueError("signature must be non-empty")
        sig = {}
        for k, v in self.signature.items():
            fv = real(v, f"signature entry {_check_beacon_id(k, 'signature key')!r}")
            if not math.isfinite(fv):
                raise ValueError(f"bad signature entry {k!r}: {fv!r}")
            sig[k] = fv
        object.__setattr__(self, "signature", sig)


@dataclass(frozen=True)
class FingerprintDb:
    """Survey entries and the distance metric fingerprint_locate ranks them by.

    Construction also indexes the signatures once by beacon id: for each id,
    the entries that hold it (an intp array, in database order) and their
    values (float64). The index takes no part in ==, repr or db_to_json.
    """

    entries: tuple[Fingerprint, ...]
    metric: str = "euclidean"
    _by_id: dict[str, tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) == 0:
            raise ValueError("fingerprint database must have at least one entry")
        if self.metric not in ("euclidean", "manhattan"):
            raise ValueError(f"metric must be euclidean or manhattan, got {self.metric!r}")
        by_id: dict[str, tuple[list[int], list[float]]] = {}
        for i, e in enumerate(self.entries):
            if not isinstance(e, Fingerprint):
                raise TypeError(f"entry {i} must be a Fingerprint, got {e!r}")
            for b, v in e.signature.items():
                rows, values = by_id.setdefault(b, ([], []))
                rows.append(i)
                values.append(v)
        object.__setattr__(self, "_by_id", {b: (np.array(rows, dtype=np.intp), np.array(values))
                                            for b, (rows, values) in by_id.items()})


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


def fingerprint_locate(db: FingerprintDb, observation: Mapping[str, float],
                       k: int = DEFAULT_FINGERPRINT_K) -> PositionEstimate:
    """k-nearest-neighbour position against the survey database.

    Signature distance runs over the union of beacon ids, with absent
    beacons imputed at -100 dBm. Entries sharing no beacon with the
    observation are not comparable and are skipped; if none remain,
    NoComparableEntries is raised. Ties rank by database order, and the
    estimate is the plain centroid of the k nearest survey positions.
    """
    if not isinstance(observation, Mapping):
        raise ValueError(f"observation must be a mapping, got {observation!r}")
    if not observation:
        raise ValueError("observation must be non-empty")
    obs = {_check_beacon_id(b, "observation key"): real(v, f"observation rssi for {b!r}")
           for b, v in observation.items()}
    for b, v in obs.items():
        if not math.isfinite(v):
            raise ValueError(f"observation rssi for {b!r} must be finite")
    n = len(db.entries)
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n:
        raise ArityError(f"k must be in [1, {n}], got {k!r}")
    # Each entry's terms, one beacon id at a time in sorted order (no sum may
    # depend on string hashing). An observed id adds a term to every entry, at
    # -100 dBm where the entry lacks it; any other id only to the entries that
    # hold it, as its term for the rest, -100 - -100 = 0.0, leaves a sum's bits
    # as they are. Python's d * d overflows to inf silently, and so does this.
    euclidean = db.metric == "euclidean"
    total = np.zeros(n)
    shared = np.zeros(n, dtype=bool)  # the entries holding an observed id
    with np.errstate(over="ignore"):
        for b in sorted(db._by_id.keys() | obs.keys()):
            rows, values = db._by_id.get(b, _NO_ENTRIES)
            if b in obs:
                shared[rows] = True
                column = np.full(n, MISSING_RSSI_DBM)
                column[rows] = values
                rows, values = slice(None), column
            d = values - obs.get(b, MISSING_RSSI_DBM)
            total[rows] += d * d if euclidean else abs(d)
    comparable = np.flatnonzero(shared)
    if len(comparable) == 0:
        raise NoComparableEntries("observation shares no beacon with any database entry")
    if k > len(comparable):
        raise ArityError(f"k={k} but only {len(comparable)} comparable entries")
    distances = (np.sqrt(total) if euclidean else total)[comparable]
    # (distance, index) tuples sort by distance, then database order
    chosen = sorted(zip(distances.tolist(), comparable.tolist()))[:k]
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
    return FingerprintDb(entries=tuple(entries), metric=doc.get("metric", "euclidean"))


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
        anchor = Anchor(item["beacon_id"], (item["x"], item["y"]), item.get("tx_power_dbm"))
        if anchor.beacon_id in seen:
            raise ValueError(f"duplicate beacon_id {anchor.beacon_id!r}")
        seen.add(anchor.beacon_id)
        return anchor

    return tuple(json_objects(doc, "anchor", build))


def load_anchors(path: str) -> tuple[Anchor, ...]:
    return anchors_from_json(read_json(path))
