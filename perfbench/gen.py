"""Seeded input generators for the benchmark workloads.

Everything here is derived from the workload seed alone through the
standard library's ``random.Random`` seeded with a string, so the same seed
gives the same bytes on any platform. The generators never import
microloc: a change to the program cannot change its benchmark inputs.

    site    a scenario JSON (20 beacons, a moving device, 5 minutes) and
            the matching anchors JSON, for the CLI chain.
    fixes   a scan-record stream of (timestamp_ms, rssi_dbm, payload)
            from 8 anchors in mixed frame formats, the method to use for
            each 1 s window, the anchors, and a survey grid of per-beacon
            RSSI samples from which the client builds its fingerprint DB.
"""

from __future__ import annotations

import json
import math
import random
import struct

SITE_BEACONS = 20
SITE_DURATION_MS = 300_000
SITE_WAYPOINT_MS = 10_000

FIX_WINDOWS = 1000
FIX_WINDOW_MS = 1000
FIX_INTERVAL_MS = 100
FIX_LOSS_PROB = 0.1
FIX_SHADOW_DB = 4.0
FIX_EXPONENT = 2.0
FIX_TLM_EVERY = 10  # every 10th advertisement of an Eddystone anchor is telemetry
FIX_ROOM_M = (12.0, 10.0)
FIX_SURVEY_STEP_M = 1.0
FIX_SURVEY_SAMPLES = 10
# TDoA is the expensive solver, so it takes one window in ten; the rest split evenly.
FIX_METHOD_TENTHS = (("proximity", 3), ("lateration", 3), ("fingerprint", 3), ("tdoa", 1))
# The device follows the same Lissajous route for every seed, so every seed
# covers the room alike; its periods (s) are coprime, so the route covers
# it evenly. Noise, losses, identities and method order come from the seed.
FIX_ROUTE_PERIODS_S = (97, 131)
FRAME_KINDS = ("ibeacon", "altbeacon", "eddystone_uid", "eddystone_eid")
EDDYSTONE_0M_OFFSET_DB = 41  # Eddystone calibrates at 0 m, 41 dB above the 1 m power


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"microloc-bench:{purpose}:{seed}")


def _dump(doc, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def site_inputs(seed: int) -> tuple[dict, list]:
    """Scenario and anchors: a 5x4 beacon grid and a device walking inside it."""
    rng = _rng(seed, "site")
    beacons = []
    for i in range(SITE_BEACONS):
        row, col = divmod(i, 5)
        beacons.append({
            "beacon_id": f"s{i:02d}",
            "x": round(col * 5.0 + rng.uniform(-1.0, 1.0), 3),
            "y": round(row * 5.0 + rng.uniform(-1.0, 1.0), 3),
            "tx_power_dbm": round(-59.0 + rng.uniform(-3.0, 3.0), 1),
        })
    # The device walks between waypoints in the middle of the hall, so the
    # whole-trace mean RSSI still ranks the beacons by distance.
    x, y = 10.0, 7.5
    path = []
    for start in range(0, SITE_DURATION_MS, SITE_WAYPOINT_MS):
        path.append({"start_ms": start, "x": round(x, 3), "y": round(y, 3)})
        x = min(13.0, max(7.0, x + rng.uniform(-1.5, 1.5)))
        y = min(10.0, max(5.0, y + rng.uniform(-1.5, 1.5)))
    scenario = {"beacons": beacons, "device_path": path}
    return scenario, beacons


def write_site(seed: int, scenario_path: str, anchors_path: str) -> None:
    scenario, anchors = site_inputs(seed)
    _dump(scenario, scenario_path)
    _dump(anchors, anchors_path)


def _payload(kind: str, ident: bytes, ref_1m: int) -> bytes:
    """Wire payload of an identity frame, laid out as in microloc.codec."""
    if kind == "ibeacon":
        major, minor = struct.unpack(">HH", ident[16:20])
        return b"\x4c\x00\x02\x15" + ident[:16] + struct.pack(">HHb", major, minor, ref_1m)
    if kind == "altbeacon":
        return b"\xbe\xac" + ident[:20] + struct.pack(">bB", ref_1m, 0)
    tx_0m = ref_1m + EDDYSTONE_0M_OFFSET_DB
    if kind == "eddystone_uid":
        return b"\xaa\xfe\x00" + struct.pack(">b", tx_0m) + ident[:16] + b"\x00\x00"
    return b"\xaa\xfe\x30" + struct.pack(">b", tx_0m) + ident[:8]


def _tlm_payload(battery_mv: int, temp_raw: int, count: int, uptime_ds: int) -> bytes:
    return b"\xaa\xfe\x20" + struct.pack(">BHhII", 0, battery_mv, temp_raw, count, uptime_ds)


def beacon_key(kind: str, ident: bytes) -> str:
    """The beacon id a client derives from a decoded identity frame."""
    if kind == "ibeacon":
        major, minor = struct.unpack(">HH", ident[16:20])
        return f"ib-{ident[:16].hex()}-{major}-{minor}"
    if kind == "altbeacon":
        return f"alt-{ident[:20].hex()}"
    if kind == "eddystone_uid":
        return f"uid-{ident[:16].hex()}"
    return f"eid-{ident[:8].hex()}"


def _rssi(rng: random.Random, ref_1m: float, d: float) -> float:
    level = ref_1m - 10.0 * FIX_EXPONENT * math.log10(max(d, 0.01))
    return round(min(0.0, max(-120.0, level + rng.gauss(0.0, FIX_SHADOW_DB))), 1)


def _device_at(window: int) -> tuple[float, float]:
    w, h = FIX_ROOM_M
    tx, ty = FIX_ROUTE_PERIODS_S
    return (w / 2 + (w / 2 - 0.5) * math.sin(2 * math.pi * window / tx),
            h / 2 + (h / 2 - 0.5) * math.sin(2 * math.pi * window / ty))


def fixes_inputs(seed: int) -> tuple[dict, dict]:
    """The client's site (anchors, survey) and the scan stream with its method mix."""
    rng = _rng(seed, "fixes")
    w, h = FIX_ROOM_M
    sites = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h),
             (w / 2, 0.0), (w, h / 2), (w / 2, h), (0.0, h / 2)]
    anchors = []
    for i, (ax, ay) in enumerate(sites):
        kind = FRAME_KINDS[i % len(FRAME_KINDS)]
        ident = bytes(rng.getrandbits(8) for _ in range(20))
        anchors.append({
            "kind": kind,
            "ident": ident,
            "beacon_id": beacon_key(kind, ident),
            "x": round(ax + rng.uniform(-0.3, 0.3), 3),
            "y": round(ay + rng.uniform(-0.3, 0.3), 3),
            "ref_1m": rng.randint(-65, -55),
        })
    for a in anchors:
        a["payload"] = _payload(a["kind"], a["ident"], a["ref_1m"])

    records = []
    adv_count = [0] * len(anchors)
    for win in range(FIX_WINDOWS):
        x, y = _device_at(win)
        base = win * FIX_WINDOW_MS
        for i, a in enumerate(anchors):
            d = math.hypot(x - a["x"], y - a["y"])
            for k in range(FIX_WINDOW_MS // FIX_INTERVAL_MS):
                t = base + k * FIX_INTERVAL_MS + rng.randint(0, FIX_INTERVAL_MS - 1)
                lost = rng.random() < FIX_LOSS_PROB
                rssi = _rssi(rng, a["ref_1m"], d)
                adv_count[i] += 1
                if lost:
                    continue
                payload = a["payload"]
                if a["kind"].startswith("eddystone") and adv_count[i] % FIX_TLM_EVERY == 0:
                    payload = _tlm_payload(3000 - win // 10, rng.randint(-2560, 10240),
                                           adv_count[i], t // 100)
                records.append((t, rssi, payload.hex()))
    records.sort(key=lambda r: r[0])

    # Every block of ten windows holds each method in its exact share, in a
    # seeded order, so each seed does the same work spread over the whole path.
    block = [m for m, tenths in FIX_METHOD_TENTHS for _ in range(tenths)]
    methods = []
    while len(methods) < FIX_WINDOWS:
        rng.shuffle(block)
        methods.extend(block)
    del methods[FIX_WINDOWS:]

    survey = []
    nx = int(round(w / FIX_SURVEY_STEP_M)) + 1
    ny = int(round(h / FIX_SURVEY_STEP_M)) + 1
    for iy in range(ny):
        for ix in range(nx):
            px, py = ix * FIX_SURVEY_STEP_M, iy * FIX_SURVEY_STEP_M
            samples = []
            for a in anchors:
                d = math.hypot(px - a["x"], py - a["y"])
                samples.extend([a["beacon_id"], _rssi(rng, a["ref_1m"], d)]
                               for _ in range(FIX_SURVEY_SAMPLES))
            survey.append({"x": px, "y": py, "samples": samples})

    site = {
        "exponent": FIX_EXPONENT,
        "anchors": [{"beacon_id": a["beacon_id"], "x": a["x"], "y": a["y"],
                     "tx_power_dbm": float(a["ref_1m"])} for a in anchors],
        "survey": survey,
    }
    stream = {"window_ms": FIX_WINDOW_MS, "windows": FIX_WINDOWS, "methods": methods,
              "records": records}
    return site, stream


def write_fixes(seed: int, site_path: str, stream_path: str) -> None:
    site, stream = fixes_inputs(seed)
    _dump(site, site_path)
    _dump(stream, stream_path)
