"""Path loss conversions against high-precision references."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from microloc.errors import InvalidDistance, InvalidTime
from microloc.ranging import (
    SPEED_OF_LIGHT,
    PathLossModel,
    distance_to_rssi,
    model_from_config,
    rssi_to_distance,
    tdoa_range_difference,
    toa_to_distance,
)


def mp_distance(rssi, ref=-59.0, n=2.0) -> float:
    """Reference conversion at 50 decimal digits via mpmath."""
    with mpmath.workdps(50):
        return float(mpmath.power(10, (mpmath.mpf(ref) - mpmath.mpf(rssi)) / (10 * n)))


def test_reference_point_one_metre():
    # at exactly the calibration power the distance is exactly 1 m
    assert rssi_to_distance(-59.0) == 1.0
    assert distance_to_rssi(1.0) == -59.0


def test_twenty_db_per_decade_at_exponent_two():
    assert rssi_to_distance(-79.0) == pytest.approx(10.0, rel=1e-12)
    assert rssi_to_distance(-99.0) == pytest.approx(100.0, rel=1e-12)
    assert rssi_to_distance(-39.0) == pytest.approx(0.1, rel=1e-12)


def test_against_mpmath_reference_grid():
    model = PathLossModel()
    for rssi in np.linspace(-110.0, -10.0, 101):
        assert rssi_to_distance(float(rssi), model) == pytest.approx(
            mp_distance(float(rssi)), rel=1e-12)


def test_known_value_six_db():
    # -65 dBm with ref -59, n=2: 10^(6/20), frozen from a 30-digit evaluation
    assert rssi_to_distance(-65.0) == pytest.approx(1.9952623149688795, rel=1e-14)


def test_inverse_roundtrip():
    model = PathLossModel(-70.0, 2.7)
    for d in (0.05, 0.5, 1.0, 2.0, 5.0, 42.0):
        assert rssi_to_distance(distance_to_rssi(d, model), model) == pytest.approx(d, rel=1e-12)
    for rssi in (-30.0, -59.0, -88.5):
        assert distance_to_rssi(rssi_to_distance(rssi, model), model) == pytest.approx(
            rssi, rel=1e-12, abs=1e-10)


def test_strictly_monotone_decreasing():
    model = PathLossModel(-59.0, 2.0)
    grid = np.linspace(-120.0, 0.0, 1000)
    dists = [rssi_to_distance(float(r), model) for r in grid]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert all(d > 0.0 for d in dists)


def test_exponent_scales_decade_width():
    # one decade of distance costs 10 * n dB
    for n in (1.5, 2.0, 4.0):
        model = PathLossModel(-59.0, n)
        r1 = distance_to_rssi(2.0, model)
        r2 = distance_to_rssi(20.0, model)
        assert r1 - r2 == pytest.approx(10.0 * n, rel=1e-12)


def test_higher_exponent_means_shorter_distance_for_same_drop():
    d_free = rssi_to_distance(-79.0, PathLossModel(-59.0, 2.0))
    d_indoor = rssi_to_distance(-79.0, PathLossModel(-59.0, 3.5))
    assert d_indoor < d_free


def test_distance_errors():
    with pytest.raises(InvalidDistance):
        distance_to_rssi(0.0)
    with pytest.raises(InvalidDistance):
        distance_to_rssi(-1.0)
    with pytest.raises(InvalidDistance):
        distance_to_rssi(float("inf"))
    with pytest.raises(ValueError):
        rssi_to_distance(float("nan"))


def test_model_validation():
    with pytest.raises(ValueError):
        PathLossModel(ref_power_dbm=1.0)
    with pytest.raises(ValueError):
        PathLossModel(ref_power_dbm=-101.0)
    with pytest.raises(ValueError):
        PathLossModel(exponent=0.5)  # open lower bound
    with pytest.raises(ValueError):
        PathLossModel(exponent=8.5)
    PathLossModel(exponent=8.0)  # closed upper bound


def test_model_from_config_defaults_and_overrides():
    assert model_from_config({}) == PathLossModel(-59.0, 2.0)
    assert model_from_config({"ref_power_dbm": -63, "exponent": 3}) == PathLossModel(-63.0, 3.0)


def test_time_of_flight():
    assert toa_to_distance(0.0) == 0.0
    assert toa_to_distance(1.0) == SPEED_OF_LIGHT
    assert toa_to_distance(1e-9) == pytest.approx(0.299792458, rel=1e-12)
    assert tdoa_range_difference(-1e-9) == pytest.approx(-0.299792458, rel=1e-12)
    assert tdoa_range_difference(0.0) == 0.0


def test_time_errors():
    with pytest.raises(InvalidTime):
        toa_to_distance(-1e-12)
    with pytest.raises(InvalidTime):
        toa_to_distance(float("nan"))
    with pytest.raises(InvalidTime):
        tdoa_range_difference(float("inf"))


def test_speed_of_light_is_exact():
    assert SPEED_OF_LIGHT == 299_792_458.0


def test_path_loss_model_stores_floats_and_rejects_bools():
    model = PathLossModel(-59, 2)
    assert type(model.ref_power_dbm) is float and type(model.exponent) is float
    assert model == PathLossModel(-59.0, 2.0)
    assert PathLossModel(np.float32(-59.0), np.int64(2)) == model
    with pytest.raises(ValueError, match="^ref_power_dbm must be a number, got False$"):
        PathLossModel(ref_power_dbm=False)
    with pytest.raises(ValueError, match="^exponent must be a number, got True$"):
        PathLossModel(exponent=True)


@pytest.mark.parametrize("key", ["ref_power_dbm", "exponent"])
def test_model_from_config_leaves_each_value_to_the_number_rule(key):
    with pytest.raises(ValueError) as info:
        model_from_config({key: True})
    assert str(info.value) == f"{key} must be a number, got True"
