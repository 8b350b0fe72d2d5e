"""RSSI-to-distance conversion and time-of-flight helpers.

Distance follows the log-distance path loss model

    rssi(d) = ref_power - 10 * n * log10(d / 1 m)

where ref_power is the received power at one metre and n the path loss
exponent (2 in free space, larger indoors). Inverting:

    d(rssi) = 10 ** ((ref_power - rssi) / (10 * n))

Both directions are exact inverses of each other up to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidDistance, InvalidTime

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by definition

MIN_EXPONENT = 0.5
MAX_EXPONENT = 8.0


@dataclass(frozen=True)
class PathLossModel:
    """Calibration pair for the log-distance model.

    ref_power_dbm: expected RSSI at one metre, in [-100, 0].
    exponent: path loss exponent, in (0.5, 8].
    """

    ref_power_dbm: float = -59.0
    exponent: float = 2.0

    def __post_init__(self):
        if (type(self.ref_power_dbm) is bool or not math.isfinite(self.ref_power_dbm)
                or not -100.0 <= self.ref_power_dbm <= 0.0):
            raise ValueError(f"ref_power_dbm out of range [-100, 0]: {self.ref_power_dbm!r}")
        if (type(self.exponent) is bool or not math.isfinite(self.exponent)
                or not MIN_EXPONENT < self.exponent <= MAX_EXPONENT):
            raise ValueError(f"exponent out of range ({MIN_EXPONENT}, {MAX_EXPONENT}]: "
                             f"{self.exponent!r}")
        object.__setattr__(self, "ref_power_dbm", float(self.ref_power_dbm))
        object.__setattr__(self, "exponent", float(self.exponent))


def model_from_config(config: Mapping[str, object]) -> PathLossModel:
    """Build a PathLossModel from a config mapping; missing keys take its defaults."""
    return PathLossModel(**{k: float(config[k]) for k in ("ref_power_dbm", "exponent")
                            if k in config})


def rssi_to_distance(rssi_dbm: float, model: PathLossModel = PathLossModel()) -> float:
    """Estimated distance in metres for a received power level.

    The result is strictly positive and strictly decreasing in rssi_dbm.
    """
    if not math.isfinite(rssi_dbm):
        raise ValueError(f"rssi_dbm must be finite, got {rssi_dbm!r}")
    return 10.0 ** ((model.ref_power_dbm - rssi_dbm) / (10.0 * model.exponent))


def distance_to_rssi(distance_m: float, model: PathLossModel = PathLossModel()) -> float:
    """Expected RSSI at a given distance. Requires distance_m > 0."""
    if not math.isfinite(distance_m) or distance_m <= 0.0:
        raise InvalidDistance(f"distance_m must be positive and finite, got {distance_m!r}")
    return model.ref_power_dbm - 10.0 * model.exponent * math.log10(distance_m)


def toa_to_distance(seconds: float) -> float:
    """One-way time of flight to metres. Requires a non-negative time."""
    if not math.isfinite(seconds) or seconds < 0.0:
        raise InvalidTime(f"time of flight must be non-negative and finite, got {seconds!r}")
    return seconds * SPEED_OF_LIGHT


def tdoa_range_difference(delta_seconds: float) -> float:
    """Arrival time difference to a signed range difference in metres."""
    if not math.isfinite(delta_seconds):
        raise InvalidTime(f"time difference must be finite, got {delta_seconds!r}")
    return delta_seconds * SPEED_OF_LIGHT
