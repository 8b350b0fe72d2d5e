"""Core data model: timestamped RSSI samples and beacon traces.

A Trace is the unit of exchange between the simulator, the filters and the
evaluation code. Two serializations are supported:

CSV (one sample per line, LF endings)::

    timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel
    0,b0,-61.4521,-59.0000,37

    rssi_dbm and tx_power_dbm carry four decimal places; an empty
    tx_power_dbm field means "unknown". Trace metadata, when present, is
    stored next to the file in ``<path>.meta.json``.

JSON::

    {"metadata": {...}, "samples": [{"timestamp_ms": 0, ...}, ...]}

    JSON preserves float values exactly and keeps metadata inline.

Loading enforces that timestamps are non-decreasing per beacon in file
order; the in-memory Trace is always globally sorted by timestamp with a
stable sort, so ties keep file order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import TraceFormatError

VALID_CHANNELS = (37, 38, 39)

CSV_HEADER = ["timestamp_ms", "beacon_id", "rssi_dbm", "tx_power_dbm", "channel"]

RSSI_MIN_DBM = -120.0
RSSI_MAX_DBM = 0.0
TX_POWER_MIN_DBM = -100.0
TX_POWER_MAX_DBM = 20.0


@dataclass(frozen=True)
class RssiSample:
    """One received advertisement: who, when, how strong.

    tx_power_dbm is the calibrated reference power carried in the frame
    (if the payload had one); channel is the BLE advertising channel the
    packet arrived on.
    """

    timestamp_ms: int
    beacon_id: str
    rssi_dbm: float
    tx_power_dbm: float | None = None
    channel: int = 37

    def __post_init__(self):
        if not isinstance(self.timestamp_ms, int) or self.timestamp_ms < 0:
            raise ValueError(f"timestamp_ms must be a non-negative int, got {self.timestamp_ms!r}")
        if not self.beacon_id:
            raise ValueError("beacon_id must be non-empty")
        if any(c in self.beacon_id for c in ",\r\n"):
            raise ValueError(f"beacon_id contains forbidden characters: {self.beacon_id!r}")
        if not math.isfinite(self.rssi_dbm) or not RSSI_MIN_DBM <= self.rssi_dbm <= RSSI_MAX_DBM:
            raise ValueError(f"rssi_dbm out of range [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}]: {self.rssi_dbm!r}")
        if self.tx_power_dbm is not None:
            if not math.isfinite(self.tx_power_dbm) or not TX_POWER_MIN_DBM <= self.tx_power_dbm <= TX_POWER_MAX_DBM:
                raise ValueError(f"tx_power_dbm out of range: {self.tx_power_dbm!r}")
        if self.channel not in VALID_CHANNELS:
            raise ValueError(f"channel must be one of {VALID_CHANNELS}, got {self.channel!r}")


@dataclass(frozen=True)
class Trace:
    """An immutable, time-sorted sequence of samples plus string metadata."""

    samples: tuple[RssiSample, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        samples = tuple(self.samples)
        # stable sort: equal timestamps keep their given order
        object.__setattr__(self, "samples", tuple(sorted(samples, key=lambda s: s.timestamp_ms)))
        meta = dict(self.metadata)
        for k, v in meta.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ValueError(f"metadata must map str to str, got {k!r}: {v!r}")
        object.__setattr__(self, "metadata", meta)

    def __len__(self) -> int:
        return len(self.samples)

    def beacon_ids(self) -> tuple[str, ...]:
        """Distinct beacon ids in order of first appearance."""
        seen: dict[str, None] = {}
        for s in self.samples:
            seen.setdefault(s.beacon_id, None)
        return tuple(seen)

    def for_beacon(self, beacon_id: str) -> tuple[RssiSample, ...]:
        return tuple(s for s in self.samples if s.beacon_id == beacon_id)

    def rssi_values(self) -> tuple[float, ...]:
        return tuple(s.rssi_dbm for s in self.samples)

    def mean_rssi_by_beacon(self) -> dict[str, float]:
        """Mean rssi_dbm per beacon id, keyed in order of first appearance."""
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for s in self.samples:
            sums[s.beacon_id] = sums.get(s.beacon_id, 0.0) + s.rssi_dbm
            counts[s.beacon_id] = counts.get(s.beacon_id, 0) + 1
        return {b: sums[b] / counts[b] for b in sums}


def clamp_rssi(v: float) -> float:
    """Clamp a power level into [RSSI_MIN_DBM, RSSI_MAX_DBM]."""
    return min(RSSI_MAX_DBM, max(RSSI_MIN_DBM, v))


def read_json(path: str, error: type[Exception] = ValueError):
    """Parse a JSON file, raising ``error`` for a malformed or too deeply nested document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: {exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a sibling temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _check_file_order(samples: Iterable[RssiSample], where: list[str]) -> None:
    """Reject files whose per-beacon timestamps go backwards."""
    last: dict[str, int] = {}
    for s, loc in zip(samples, where):
        prev = last.get(s.beacon_id)
        if prev is not None and s.timestamp_ms < prev:
            raise TraceFormatError(
                f"{loc}: timestamp {s.timestamp_ms} for beacon {s.beacon_id!r} "
                f"goes backwards (previous {prev})"
            )
        last[s.beacon_id] = s.timestamp_ms


def _sample_from_csv_row(row: list[str], lineno: int) -> RssiSample:
    if len(row) != 5:
        raise TraceFormatError(f"line {lineno}: expected 5 fields, got {len(row)}")
    ts_s, beacon_id, rssi_s, tx_s, ch_s = row
    try:
        ts = int(ts_s)
        rssi = float(rssi_s)
        tx = float(tx_s) if tx_s.strip() != "" else None
        ch = int(ch_s)
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc
    try:
        return RssiSample(ts, beacon_id, rssi, tx, ch)
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc


def _load_csv(path: str) -> Trace:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError("line 1: missing header") from None
        if header != CSV_HEADER:
            raise TraceFormatError(f"line 1: bad header {header!r}")
        samples = []
        locs = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            samples.append(_sample_from_csv_row(row, lineno))
            locs.append(f"line {lineno}")
    _check_file_order(samples, locs)
    metadata: dict[str, str] = {}
    sidecar = path + ".meta.json"
    if os.path.exists(sidecar):
        raw = read_json(sidecar, TraceFormatError)
        if not isinstance(raw, dict):
            raise TraceFormatError(f"{sidecar}: metadata must be a JSON object")
        metadata = {str(k): str(v) for k, v in raw.items()}
    return Trace(tuple(samples), metadata)


def _load_json(path: str) -> Trace:
    raw = read_json(path, TraceFormatError)
    if not isinstance(raw, dict) or "samples" not in raw:
        raise TraceFormatError("top level must be an object with a 'samples' array")
    if not isinstance(raw["samples"], list):
        raise TraceFormatError("'samples' must be an array")
    meta_raw = raw.get("metadata", {})
    if not isinstance(meta_raw, dict):
        raise TraceFormatError("'metadata' must be an object")
    samples = []
    locs = []
    for i, item in enumerate(raw["samples"]):
        loc = f"sample {i}"
        if not isinstance(item, dict):
            raise TraceFormatError(f"{loc}: must be an object")
        ts = item.get("timestamp_ms")
        rssi = item.get("rssi_dbm")
        tx = item.get("tx_power_dbm")
        ch = item.get("channel", 37)
        if isinstance(ts, bool) or not isinstance(ts, int):
            raise TraceFormatError(f"{loc}: timestamp_ms must be an integer")
        if not isinstance(rssi, (int, float)) or isinstance(rssi, bool):
            raise TraceFormatError(f"{loc}: rssi_dbm must be a number")
        if tx is not None and (not isinstance(tx, (int, float)) or isinstance(tx, bool)):
            raise TraceFormatError(f"{loc}: tx_power_dbm must be a number or null")
        if isinstance(ch, bool) or not isinstance(ch, int):
            raise TraceFormatError(f"{loc}: channel must be an integer")
        try:
            sample = RssiSample(ts, str(item.get("beacon_id", "")), float(rssi),
                                None if tx is None else float(tx), ch)
        except (ValueError, OverflowError) as exc:
            raise TraceFormatError(f"{loc}: {exc}") from exc
        samples.append(sample)
        locs.append(loc)
    _check_file_order(samples, locs)
    return Trace(tuple(samples), {str(k): str(v) for k, v in meta_raw.items()})


def load_trace(path: str, format: str = "csv") -> Trace:
    """Read a trace from disk.

    format is "csv" or "json"; anything else raises ValueError. Structural
    problems in the file raise TraceFormatError with a location in the
    message.
    """
    if format == "csv":
        return _load_csv(path)
    if format == "json":
        return _load_json(path)
    raise ValueError(f"unknown trace format {format!r}")


def _format_float(v: float | None) -> str:
    return "" if v is None else f"{v:.4f}"


def save_trace(trace: Trace, path: str, format: str = "csv") -> None:
    """Write a trace to disk atomically (temp file + rename).

    CSV quantizes rssi_dbm and tx_power_dbm to four decimal places; JSON
    keeps full float precision. For CSV, non-empty metadata goes to a
    ``<path>.meta.json`` sidecar.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for s in trace.samples:
            writer.writerow(
                [s.timestamp_ms, s.beacon_id, _format_float(s.rssi_dbm),
                 _format_float(s.tx_power_dbm), s.channel]
            )
        atomic_write_text(path, buf.getvalue())
        if trace.metadata:
            atomic_write_text(
                path + ".meta.json",
                json.dumps(trace.metadata, indent=2, sort_keys=True) + "\n",
            )
    elif format == "json":
        doc = {
            "metadata": dict(sorted(trace.metadata.items())),
            "samples": [
                {
                    "timestamp_ms": s.timestamp_ms,
                    "beacon_id": s.beacon_id,
                    "rssi_dbm": s.rssi_dbm,
                    "tx_power_dbm": s.tx_power_dbm,
                    "channel": s.channel,
                }
                for s in trace.samples
            ],
        }
        atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
    else:
        raise ValueError(f"unknown trace format {format!r}")


def trace_format_for_path(path: str) -> str:
    """Pick a serialization from a file extension (.json, else CSV)."""
    return "json" if path.lower().endswith(".json") else "csv"
