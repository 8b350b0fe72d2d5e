"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from microloc import codec
from microloc.model import RssiSample, Trace

# Every property draws the same examples on every run, and keeps none
# between runs: each test module's settings() is built after this loads,
# so it inherits both and sets only its own max_examples and checks.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


def make_trace(seed: int, n: int = 50, beacons: tuple[str, ...] = ("b0",),
               level: float = -65.0, spread: float = 8.0,
               interval_ms: int = 100) -> Trace:
    """Random but reproducible trace; rssi quantized to 4 decimals.

    Quantizing at generation time means CSV round trips are bit exact.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        beacon = beacons[i % len(beacons)]
        rssi = float(np.clip(level + rng.uniform(-spread, spread), -120.0, 0.0))
        samples.append(RssiSample(
            timestamp_ms=i * interval_ms,
            beacon_id=beacon,
            rssi_dbm=round(rssi, 4),
            tx_power_dbm=-59.0,
            channel=(37, 38, 39)[i % 3],
        ))
    return Trace(tuple(samples), {"origin": f"test-seed-{seed}"})


def constant_trace(level: float, n: int, beacon: str = "b0") -> Trace:
    samples = tuple(
        RssiSample(timestamp_ms=i * 100, beacon_id=beacon, rssi_dbm=level)
        for i in range(n)
    )
    return Trace(samples)


FRAME_VARIANTS = ("ibeacon", "altbeacon", "uid", "url", "tlm", "eid")

_URL_WORDS = ("a", "io", "map", "blue", "probe", "sensor", "beacons1", "x9")


def random_frame(rng: np.random.Generator, variant: str):
    """Draw a random valid frame of the given variant."""
    def i8() -> int:
        return int(rng.integers(-128, 128))

    if variant == "ibeacon":
        return codec.IBeaconFrame(
            uuid=bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
            major=int(rng.integers(0, 1 << 16)),
            minor=int(rng.integers(0, 1 << 16)),
            power=i8(),
        )
    if variant == "altbeacon":
        return codec.AltBeaconFrame(
            beacon_id=bytes(rng.integers(0, 256, 20, dtype=np.uint8)),
            ref_rssi=i8(),
            mfg_reserved=int(rng.integers(0, 256)),
        )
    if variant == "uid":
        return codec.EddystoneUidFrame(
            tx_power=i8(),
            namespace=bytes(rng.integers(0, 256, 10, dtype=np.uint8)),
            instance=bytes(rng.integers(0, 256, 6, dtype=np.uint8)),
        )
    if variant == "url":
        scheme = codec.URL_SCHEMES[int(rng.integers(0, 4))]
        url = scheme + str(rng.choice(_URL_WORDS))
        if rng.random() < 0.7:
            url += codec.URL_EXPANSIONS[int(rng.integers(0, 14))]
        if rng.random() < 0.5:
            url += str(rng.choice(_URL_WORDS))
        return codec.EddystoneUrlFrame(tx_power=i8(), url=url)
    if variant == "tlm":
        return codec.EddystoneTlmFrame(
            battery_mv=int(rng.integers(0, 1 << 16)),
            temperature_c=int(rng.integers(-32768, 32768)) / 256.0,
            adv_count=int(rng.integers(0, 1 << 32)),
            uptime_ds=int(rng.integers(0, 1 << 32)),
        )
    if variant == "eid":
        return codec.EddystoneEidFrame(
            tx_power=i8(),
            eid=bytes(rng.integers(0, 256, 8, dtype=np.uint8)),
        )
    raise ValueError(variant)
