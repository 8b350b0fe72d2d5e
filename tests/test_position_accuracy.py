"""End-to-end position accuracy: a seeded table of each locate method's
error, pinned at today's values.

Eight anchors stand on the edge of a 20 x 15 m room. At each of 16 spots
on a grid inside it, the device stands still for 5 s while the simulator
records every anchor at seed 1000 + spot; the trace goes through the
static filter, a mean per beacon and rssi_to_distance. From those
distances:

- lateration is trilaterate on the ranges;
- proximity is proximity_region on disks 1.5 times the ranges;
- TDoA is tdoa_locate on each range minus anchor 0's;
- fingerprinting is fingerprint_locate of the filtered means against a
  database surveyed the same way (5 s at seed 2000 + point) on a 2.5 m
  grid, offset from the spots.

A fix is a failure when its solver raises a MicrolocError or returns no
position; the error of any other is its distance from the spot. Each
condition (shadowing sigma and packet loss) pins, per method, the median
and p90 error over the spots (numpy's linear quantiles) and the failure
count. The errors are held to TOLERANCE_M, 1 mm: the solvers' last bits
depend on the host's BLAS kernel, which moves these quantiles by far less
(at most 2.2e-11 m between the SkylakeX, Haswell and Prescott kernels),
while a change to the pipeline's accuracy moves them by centimetres. At
6 dB of shadowing, one TDoA fix (spot 13, 30% loss) converges under
SkylakeX and Prescott but raises NoConvergence under Haswell, so a
failure count there would pin the host's BLAS, not the pipeline; the
table stops at 5 dB. A change that alters positions on purpose re-pins
this table and gives the old and new tables side by side.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from microloc.errors import MicrolocError
from microloc.filters import default_params, smooth_trace
from microloc.position import (Anchor, fingerprint_build, fingerprint_locate, proximity_region,
                               tdoa_locate, trilaterate)
from microloc.model import Trace
from microloc.ranging import rssi_to_distance
from microloc.sim import Scenario, SimConfig, simulate

TOLERANCE_M = 1e-3

ANCHORS = tuple(Anchor(f"a{i}", (x, y), -59.0) for i, (x, y) in enumerate(
    [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (20.0, 7.5),
     (20.0, 15.0), (10.0, 15.0), (0.0, 15.0), (0.0, 7.5)]))
SPOTS = tuple((x, y) for y in (2.0, 5.5, 9.5, 13.0) for x in (2.5, 7.5, 12.5, 17.5))
SURVEY = tuple((1.25 + 2.5 * i, 1.25 + 2.5 * j) for j in range(6) for i in range(8))
METHODS = ("lateration", "proximity", "tdoa", "fingerprint")
DURATION_MS = 5000

# condition -> (shadowing sigma in dB, packet loss probability)
CONDITIONS = {
    "sigma-2": (2.0, 0.0),
    "sigma-2-loss-0.3": (2.0, 0.3),
    "sigma-5-loss-0.3": (5.0, 0.3),
}

# condition -> method -> (median error m, p90 error m, failures of 16)
PINNED = {
    "sigma-2": {
        "lateration": (0.327148, 0.543939, 0),
        "proximity": (3.185961, 3.788093, 0),
        "tdoa": (0.427980, 0.836692, 0),
        "fingerprint": (1.457738, 2.150581, 0),
    },
    "sigma-2-loss-0.3": {
        "lateration": (0.365134, 0.575746, 0),
        "proximity": (3.190120, 3.702445, 0),
        "tdoa": (0.453746, 0.920946, 0),
        "fingerprint": (1.457738, 1.457738, 0),
    },
    "sigma-5-loss-0.3": {
        "lateration": (0.884452, 1.531615, 0),
        "proximity": (2.759221, 3.501057, 0),
        "tdoa": (1.069402, 2.686251, 1),
        "fingerprint": (1.457738, 2.150581, 0),
    },
}


def _filtered(position: tuple[float, float], seed: int, sigma: float, loss: float) -> Trace:
    """DURATION_MS of every anchor with the device still at position, through the static filter."""
    config = SimConfig(seed=seed, shadow_sigma_db=sigma, packet_loss_prob=loss,
                       duration_ms=DURATION_MS)
    return smooth_trace(simulate(Scenario(ANCHORS, ((0, position),)), config), default_params())


def _fix(locate) -> tuple[float, float] | None:
    """The position locate() gives, or None when it raises or finds none."""
    try:
        return locate().position
    except MicrolocError:
        return None


def accuracy_table(sigma: float, loss: float) -> dict[str, tuple[float, float, int]]:
    """method -> (median error, p90 error, failures) over SPOTS under one condition."""
    db = fingerprint_build([(p, _filtered(p, 2000 + j, sigma, loss)) for j, p in enumerate(SURVEY)])
    errors: dict[str, list[float]] = {m: [] for m in METHODS}
    failures = dict.fromkeys(METHODS, 0)
    for k, spot in enumerate(SPOTS):
        means = _filtered(spot, 1000 + k, sigma, loss).mean_rssi_by_beacon()
        ranges = [rssi_to_distance(means[a.beacon_id]) for a in ANCHORS]
        fixes = {
            "lateration": _fix(lambda: trilaterate(ANCHORS, ranges)),
            "proximity": _fix(lambda: proximity_region(ANCHORS, [1.5 * r for r in ranges])),
            "tdoa": _fix(lambda: tdoa_locate(ANCHORS, [r - ranges[0] for r in ranges[1:]])),
            "fingerprint": _fix(lambda: fingerprint_locate(db, means)),
        }
        for method, p in fixes.items():
            if p is None:
                failures[method] += 1
            else:
                errors[method].append(math.dist(p, spot))
    return {m: (float(np.quantile(e, 0.5)), float(np.quantile(e, 0.9)), failures[m])
            for m, e in errors.items()}


@pytest.mark.parametrize("condition", CONDITIONS)
def test_accuracy_table_holds_its_pinned_values(condition):
    table = accuracy_table(*CONDITIONS[condition])
    for method, (median, p90, failures) in PINNED[condition].items():
        got_median, got_p90, got_failures = table[method]
        assert got_failures == failures, (method, table)
        assert abs(got_median - median) <= TOLERANCE_M, (method, table)
        assert abs(got_p90 - p90) <= TOLERANCE_M, (method, table)
    assert table.keys() == PINNED[condition].keys()
