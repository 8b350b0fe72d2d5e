"""Deterministic advertisement-stream simulator.

Generates the trace a scanner would record from fixed beacons while the
device follows a piecewise-constant path. All randomness comes from one
master seed through per-beacon derived substreams, so a (scenario, config)
pair maps to exactly one trace, byte for byte, on any platform.

Per advertisement event the generator consumes exactly four 64-bit draws,
in a fixed order, whether or not the packet survives:

    1. timing jitter        (one draw)
    2. packet loss gate     (one draw)
    3. shadowing deviate    (two draws)

Keeping the draw count fixed means toggling the loss probability or the
noise level never shifts the random sequence of later events.

Draws stay one SplitMix64.next_u64 call each, in that order, so a beacon's
stream is the per-draw generator's. Everything after the draws is
column-wise over a beacon's events, with the bits the per-draw methods
give: jitter, loss and the uniforms in exact uint64 arithmetic, the
timestamps as a running maximum, and one path loss level per device path
entry. Box-Muller's log and cos stay libm's (Python's math), since
numpy's transcendentals need not round as libm does.

Received power is log-distance path loss plus zero-mean Gaussian
shadowing, clamped to the representable RSSI range. Advertising channels
rotate 37, 38, 39 per event, matching how a beacon hops between the three
advertising channels.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidScenario
from .model import (TIMESTAMP_LIMIT_MS, SampleColumns, Trace, VALID_CHANNELS, as_int,
                    clamp_rssi, json_objects, read_json, real)
from .position import Anchor, anchors_from_json
from .ranging import PathLossModel, distance_to_rssi
from .rng import _DOUBLE_UNIT, SplitMix64, derive_seed

GENERATOR_ID = "splitmix64-boxmuller-v1"

MIN_SIM_DISTANCE_M = 0.01  # floor keeps the path loss model finite at contact

EXPERIMENT_SPOT_COUNT = 10
EXPERIMENT_SPOT_STEP_M = 0.5
EXPERIMENT_DURATION_MS = 120_000

# Most advertisement events (beacons x events per beacon) one simulate call
# may generate: about 17 times the 20-beacon, 5-minute site scenario's 60k.
# The whole trace is built in memory, so a larger request is refused up
# front rather than left to exhaust memory.
MAX_SIM_EVENTS = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    """Channel model and timing parameters for a simulation run."""

    seed: int
    path_loss: PathLossModel = PathLossModel()
    shadow_sigma_db: float = 4.0
    advertising_interval_ms: int = 100
    interval_jitter_ms: int = 10
    packet_loss_prob: float = 0.0
    duration_ms: int = 120_000
    channels: tuple[int, ...] = VALID_CHANNELS

    def __post_init__(self):
        for name in ("seed", "advertising_interval_ms", "interval_jitter_ms", "duration_ms"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.path_loss, PathLossModel):
            raise ValueError("path_loss must be a PathLossModel")
        sigma, loss = (real(getattr(self, k), k) for k in ("shadow_sigma_db", "packet_loss_prob"))
        if not math.isfinite(sigma) or sigma < 0.0:
            raise ValueError(f"shadow_sigma_db must be >= 0, got {self.shadow_sigma_db!r}")
        if self.advertising_interval_ms <= 0:
            raise ValueError("advertising_interval_ms must be a positive int")
        if not 0 <= self.interval_jitter_ms < self.advertising_interval_ms:
            raise ValueError("interval_jitter_ms must be in [0, advertising_interval_ms)")
        if not 0.0 <= loss < 1.0:  # NaN fails
            raise ValueError(f"packet_loss_prob must be in [0, 1), got {self.packet_loss_prob!r}")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be a positive int")
        chans = tuple(self.channels)
        if not chans or any(c not in VALID_CHANNELS for c in chans):
            raise ValueError(f"channels must be a non-empty subset of {VALID_CHANNELS}")
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "shadow_sigma_db", sigma)
        object.__setattr__(self, "packet_loss_prob", loss)


@dataclass(frozen=True)
class Scenario:
    """Beacon placement plus the device's piecewise-constant path.

    device_path lists (start_ms, (x, y)) entries; the device sits at the
    entry whose start time is the latest one not after the current time.
    The first entry must start at 0 and starts must strictly increase.
    """

    beacons: tuple[Anchor, ...]
    device_path: tuple[tuple[int, tuple[float, float]], ...]

    def __post_init__(self):
        beacons = tuple(self.beacons)
        if not beacons:
            raise InvalidScenario("scenario needs at least one beacon")
        ids = [b.beacon_id for b in beacons]
        if len(set(ids)) != len(ids):
            raise InvalidScenario(f"duplicate beacon ids in scenario: {ids}")
        object.__setattr__(self, "beacons", beacons)
        path = []
        for i, entry in enumerate(self.device_path):
            try:
                start, (x, y) = entry
                pos = (real(x, "x"), real(y, "y"))
            except (TypeError, ValueError) as exc:
                raise InvalidScenario(f"device_path {i}: {exc}") from None
            try:
                start = as_int(start)
            except ValueError as exc:
                raise InvalidScenario(f"device_path {i}: start_ms: {exc}") from None
            if not (math.isfinite(pos[0]) and math.isfinite(pos[1])):
                raise InvalidScenario(f"device_path {i}: non-finite position {pos!r}")
            path.append((start, pos))
        if not path:
            raise InvalidScenario("device_path must have at least one entry")
        if path[0][0] != 0:
            raise InvalidScenario(f"device_path must start at 0 ms, got {path[0][0]}")
        for a, b in zip(path, path[1:]):
            if b[0] <= a[0]:
                raise InvalidScenario("device_path start times must strictly increase")
        object.__setattr__(self, "device_path", tuple(path))

    def position_at(self, t_ms: int) -> tuple[float, float]:
        starts = [s for s, _ in self.device_path]
        return self.device_path[bisect_right(starts, t_ms) - 1][1]


def _uniform(draws: np.ndarray) -> np.ndarray:
    """SplitMix64.random() of each draw: its top 53 bits times 2**-53, both steps exact."""
    return (draws >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """fn (a math function) of each value: the platform libm's bits, which numpy's need not be."""
    return np.fromiter(map(fn, values.tolist()), np.float64, len(values))


def simulate(scenario: Scenario, config: SimConfig) -> Trace:
    """Generate the advertisement trace for a scenario.

    Each beacon advertises on its own schedule: event k is nominally at
    k * advertising_interval_ms, shifted by uniform jitter and clamped so
    per-beacon timestamps never run backwards. Events whose nominal time
    reaches duration_ms are not generated. Lost packets leave no sample
    but still consume their draws. More than MAX_SIM_EVENTS events in all,
    or a duration_ms + interval_jitter_ms past 2**63 ms, the timestamp
    limit of a trace, raises InvalidScenario before anything is generated.
    """
    interval = config.advertising_interval_ms
    jitter = config.interval_jitter_ms
    per_beacon = -(-config.duration_ms // interval)
    if len(scenario.beacons) * per_beacon > MAX_SIM_EVENTS:
        raise InvalidScenario(
            f"{len(scenario.beacons)} beacons x {per_beacon} events exceeds the cap of "
            f"{MAX_SIM_EVENTS} simulated advertisements; shorten duration_ms"
        )
    if config.duration_ms + jitter > TIMESTAMP_LIMIT_MS:
        raise InvalidScenario(
            f"duration_ms + interval_jitter_ms = {config.duration_ms + jitter} exceeds 2**63 ms, "
            f"past the timestamps a trace can hold; shorten duration_ms"
        )
    # every timestamp is below 2**63, so a later path entry is never reached
    path = [(s, p) for s, p in scenario.device_path if s < TIMESTAMP_LIMIT_MS]
    starts = np.array([s for s, _ in path], dtype=np.int64)
    sigma = config.shadow_sigma_db
    model = config.path_loss
    # k * interval < duration_ms for every event k, so by the bound above
    # k * interval +- jitter stays inside int64; a lone event (k = 0) needs
    # no interval, which then may be too large for int64
    nominal = np.arange(per_beacon, dtype=np.int64) * (interval if per_beacon > 1 else 0)
    channels = np.resize(np.array(config.channels, dtype=np.int64), per_beacon)
    span = np.uint64(2 * jitter + 1)
    n_draws = 4 * per_beacon
    # each beacon's samples in turn, in beacon order; Trace's stable sort merges them
    ts: list[np.ndarray] = []
    rssi: list[np.ndarray] = []
    chans: list[np.ndarray] = []
    for b_index, beacon in enumerate(scenario.beacons):
        draw = SplitMix64(derive_seed(config.seed, b_index)).next_u64
        u = np.fromiter((draw() for _ in range(n_draws)), np.uint64, n_draws).reshape(-1, 4)
        # 1. jitter, as randint(-jitter, jitter); the running maximum keeps t >= 0 and in order
        t = nominal + ((u[:, 0] % span).astype(np.int64) - jitter)
        t = np.maximum.accumulate(np.maximum(t, 0))
        # 2. the loss gate: lost when random() < packet_loss_prob
        kept = _uniform(u[:, 1]) >= config.packet_loss_prob
        t = t[kept]
        # 3. the shadowing deviate, as normal(): its log(0) guard, then Box-Muller
        u1 = np.maximum(_uniform(u[kept, 2]), _DOUBLE_UNIT)
        u2 = _uniform(u[kept, 3])
        g = 0.0 + np.sqrt(-2.0 * _libm(math.log, u1)) * _libm(math.cos, (2.0 * math.pi) * u2)
        entry = np.searchsorted(starts, t, side="right") - 1
        level = np.zeros(len(path))
        bx, by = beacon.position
        # the entries kept samples reach, once each: another may be too far for distance_to_rssi
        for j in dict.fromkeys(entry.tolist()):
            px, py = path[j][1]
            d = max(math.hypot(px - bx, py - by), MIN_SIM_DISTANCE_M)
            level[j] = distance_to_rssi(d, model)
        ts.append(t)
        with np.errstate(over="ignore"):  # as float arithmetic: a huge sigma gives inf
            rssi.append(level[entry] + sigma * g)
        chans.append(channels[kept])
    counts = [len(t) for t in ts]
    tx_power = [math.nan if b.tx_power_dbm is None else b.tx_power_dbm for b in scenario.beacons]
    samples = SampleColumns(
        timestamp_ms=np.concatenate(ts),
        beacon=np.repeat(np.arange(len(counts)), counts),
        beacon_ids=[b.beacon_id for b in scenario.beacons],
        rssi_dbm=clamp_rssi(np.concatenate(rssi)),
        tx_power_dbm=np.repeat(np.array(tx_power, dtype=np.float64), counts),
        channel=np.concatenate(chans),
    )
    metadata = {
        "generator": GENERATOR_ID,
        "seed": str(config.seed),
        "duration_ms": str(config.duration_ms),
        "advertising_interval_ms": str(interval),
        "interval_jitter_ms": str(jitter),
        "packet_loss_prob": repr(config.packet_loss_prob),
        "shadow_sigma_db": repr(sigma),
        "ref_power_dbm": repr(model.ref_power_dbm),
        "exponent": repr(model.exponent),
        "device_path": json.dumps(
            [[s, p[0], p[1]] for s, p in scenario.device_path], separators=(",", ":")
        ),
    }
    return Trace(samples, metadata)


def experiment_distances() -> tuple[float, ...]:
    """The ten ranging spots: 0.5 m to 5.0 m in half-metre steps."""
    return tuple((i + 1) * EXPERIMENT_SPOT_STEP_M for i in range(EXPERIMENT_SPOT_COUNT))


def ranging_experiment(config: SimConfig) -> tuple[tuple[float, Trace], ...]:
    """Simulate the static ranging sweep: one trace per distance spot.

    A single beacon sits at the origin; the device holds still at each
    spot for two minutes of advertising. Every spot runs on a seed derived
    from (config.seed, spot index), so spots are independent streams and
    the whole sweep is reproducible from one number. duration_ms in the
    config is ignored here; the sweep always records 120 s per spot.
    """
    out = []
    for i, d in enumerate(experiment_distances()):
        beacon = Anchor("b0", (0.0, 0.0), tx_power_dbm=config.path_loss.ref_power_dbm)
        scenario = Scenario(beacons=(beacon,), device_path=((0, (d, 0.0)),))
        spot_cfg = replace(config, seed=derive_seed(config.seed, i),
                           duration_ms=EXPERIMENT_DURATION_MS)
        trace = simulate(scenario, spot_cfg)
        metadata = dict(trace.metadata)
        metadata["true_distance_m"] = repr(d)
        metadata["spot_index"] = str(i)
        metadata["experiment_seed"] = str(config.seed)
        out.append((d, Trace(trace.samples, metadata)))
    return tuple(out)


def _path_entry(item: dict) -> tuple:
    """One device_path entry as Scenario takes it; Scenario converts and checks its values."""
    return (item["start_ms"], (item["x"], item["y"]))


def scenario_from_json(doc: dict) -> Scenario:
    """Parse {"beacons": [...], "device_path": [{"start_ms", "x", "y"}]}."""
    if not isinstance(doc, dict):
        raise InvalidScenario("scenario must be a JSON object")
    raw_beacons = doc.get("beacons")
    raw_path = doc.get("device_path")
    if not isinstance(raw_beacons, list) or not isinstance(raw_path, list):
        raise InvalidScenario("scenario needs 'beacons' and 'device_path' arrays")
    try:
        beacons = anchors_from_json(raw_beacons)
    except ValueError as exc:
        raise InvalidScenario(f"beacons: {exc}") from exc
    path = json_objects(raw_path, "device_path", _path_entry, InvalidScenario)
    return Scenario(beacons=beacons, device_path=tuple(path))


def load_scenario(path: str) -> Scenario:
    return scenario_from_json(read_json(path, InvalidScenario))
