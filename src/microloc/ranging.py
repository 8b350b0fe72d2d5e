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
from .model import real

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
        ref, exponent = real(self.ref_power_dbm, "ref_power_dbm"), real(self.exponent, "exponent")
        if not -100.0 <= ref <= 0.0:  # NaN fails
            raise ValueError(f"ref_power_dbm out of range [-100, 0]: {self.ref_power_dbm!r}")
        if not MIN_EXPONENT < exponent <= MAX_EXPONENT:
            raise ValueError(f"exponent out of range ({MIN_EXPONENT}, {MAX_EXPONENT}]: "
                             f"{self.exponent!r}")
        object.__setattr__(self, "ref_power_dbm", ref)
        object.__setattr__(self, "exponent", exponent)


def model_from_config(config: Mapping[str, object]) -> PathLossModel:
    """Build a PathLossModel from a config mapping; missing keys take its defaults."""
    return PathLossModel(**{k: config[k] for k in ("ref_power_dbm", "exponent") if k in config})


def rssi_to_distance(rssi_dbm: float, model: PathLossModel = PathLossModel()) -> float:
    """Estimated distance in metres for a received power level.

    The result is strictly positive and strictly decreasing in rssi_dbm.
    An rssi_dbm that is not a finite number raises ValueError.
    """
    rssi = real(rssi_dbm, "rssi_dbm")
    if not math.isfinite(rssi):
        raise ValueError(f"rssi_dbm must be finite, got {rssi_dbm!r}")
    return 10.0 ** ((model.ref_power_dbm - rssi) / (10.0 * model.exponent))


def distance_to_rssi(distance_m: float, model: PathLossModel = PathLossModel()) -> float:
    """Expected RSSI at a given distance. Requires a finite distance_m > 0,
    else InvalidDistance; a distance_m that is not a number raises ValueError."""
    d = real(distance_m, "distance_m")
    if not math.isfinite(d) or d <= 0.0:
        raise InvalidDistance(f"distance_m must be positive and finite, got {distance_m!r}")
    return model.ref_power_dbm - 10.0 * model.exponent * math.log10(d)


def toa_to_distance(seconds: float) -> float:
    """One-way time of flight to metres. Requires a finite time >= 0, else
    InvalidTime; a time that is not a number raises ValueError."""
    t = real(seconds, "seconds")
    if not math.isfinite(t) or t < 0.0:
        raise InvalidTime(f"time of flight must be non-negative and finite, got {seconds!r}")
    return t * SPEED_OF_LIGHT


def tdoa_range_difference(delta_seconds: float) -> float:
    """Arrival time difference to a signed range difference in metres."""
    t = real(delta_seconds, "delta_seconds")
    if not math.isfinite(t):
        raise InvalidTime(f"time difference must be finite, got {delta_seconds!r}")
    return t * SPEED_OF_LIGHT
