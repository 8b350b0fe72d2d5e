"""Memory at every file boundary grows with the file, and a locate's with
its anchors, not faster.

Each reader loads a file written at n, 2n and 4n items under tracemalloc.
Its peak bytes per file byte at 2n and at 4n may be at most 1.25 times
those at n: linear growth keeps the ratio flat, and anything quadratic
(an entries x ids matrix, say) doubles it at each step. Each locate method
is held to the same bound in peak bytes per receiver over one call with n,
2n and 4n receivers (a starts x receivers stack, say, would double it).
Trace files are read and written in blocks of rows: a save's peak, and a
load's peak beyond the columns it returns, may grow at most 1.25 times
from a file of 4 blocks to one of 16 (holding the file's text, or an
object per row of it, would quadruple them). A CSV or JSON trace refused
because it is not UTF-8 near its end, or a JSON trace refused for an RSSI
out of range in its last sample, a BOM, trailing data, a bad sample under
a repeated "samples" key, sample 0 without a timestamp, a syntax error
early or mid-file, or its samples as a top-level array, is held to that
bound beyond the columns, from 16 blocks to 64. Only memory is counted,
never wall time.
"""

from __future__ import annotations

import gc
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from microloc import cli, model, position
from microloc.errors import TraceFormatError
from microloc.model import RssiSample, SampleColumns, Trace, load_trace, save_trace
from microloc.position import (Anchor, Fingerprint, FingerprintDb, fingerprint_locate, load_anchors,
                               load_fingerprint_db, proximity_region, save_fingerprint_db,
                               tdoa_locate, trilaterate)
from microloc.sim import load_scenario

MAX_GROWTH = 1.25


def _write_fingerprint_db(path: str, n: int) -> None:
    """n entries, each holding its own beacon id and one id they all share."""
    save_fingerprint_db(FingerprintDb(tuple(
        Fingerprint((float(i), 0.0), {f"b{i}": -60.0 - i % 30, "shared": -70.0})
        for i in range(n))), path)


def _load_fingerprint_db(path: str) -> None:
    fingerprint_locate(load_fingerprint_db(path), {"shared": -65.0, "b3": -61.0})


def _write_trace(path: str, n: int, format: str) -> None:
    save_trace(Trace(tuple(RssiSample(100 * i, f"b{i % 20}", -60.0 - i % 40 / 4,
                                      -59.0 if i % 2 else None, (37, 38, 39)[i % 3])
                           for i in range(n))), path, format)


def _anchors(n: int) -> list[dict]:
    return [{"beacon_id": f"b{i}", "x": i / 4, "y": i % 7 / 2, "tx_power_dbm": -59.0}
            for i in range(n)]


def _write_anchors(path: str, n: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_anchors(n), fh, indent=2)


def _write_scenario(path: str, n: int) -> None:
    path_entries = [{"start_ms": 100 * i, "x": i % 50 / 5, "y": i % 11 / 3} for i in range(n)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"beacons": _anchors(n // 10), "device_path": path_entries}, fh, indent=2)


def _write_config(path: str, n: int) -> None:
    """A --config object of n keys, each config key over and over with its default."""
    keys = list(cli.DEFAULT_CONFIG.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in (keys[i % len(keys)] for i in range(n))) + "\n}\n")


# boundary -> (writer, reader, n)
BOUNDARIES = {
    "fingerprint-db": (_write_fingerprint_db, _load_fingerprint_db, 500),
    "trace-csv": (lambda p, n: _write_trace(p, n, "csv"), lambda p: load_trace(p, "csv"), 2000),
    "trace-json": (lambda p, n: _write_trace(p, n, "json"), lambda p: load_trace(p, "json"), 2000),
    "anchors": (_write_anchors, load_anchors, 500),
    "scenario": (_write_scenario, load_scenario, 1000),
    "config": (_write_config, lambda p: cli.build_config(p, None, None), 2000),
}


def _peak(call) -> int:
    gc.collect()  # each size starts from the same collector state
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_peak_memory_per_file_byte_stays_flat(boundary, tmp_path):
    write, read, n = BOUNDARIES[boundary]
    paths = []
    for scale in (1, 2, 4):
        paths.append(str(tmp_path / f"{boundary}-{scale}x"))
        write(paths[-1], scale * n)
    read(paths[0])  # once untraced, so first-call caches count at no size
    base, *larger = (_peak(lambda: read(p)) / os.path.getsize(p) for p in paths)
    assert max(larger) <= MAX_GROWTH * base, (boundary, base, larger)


def _ring(n: int) -> tuple[list[Anchor], list[float]]:
    """n receivers on a 10 m circle and their exact distances to a point inside it."""
    receivers = [Anchor(f"r{i}", (10 * math.cos(2 * math.pi * i / n),
                                  10 * math.sin(2 * math.pi * i / n))) for i in range(n)]
    return receivers, [math.dist(r.position, (1.0, 2.0)) for r in receivers]


# method -> call on (receivers, distances)
LOCATES = {
    "tdoa": lambda rs, ds: tdoa_locate(rs, [d - ds[0] for d in ds[1:]]),
    "lateration": trilaterate,
    "proximity": proximity_region,
}


@pytest.mark.parametrize("method", LOCATES)
def test_locate_peak_memory_per_receiver_stays_flat(method):
    locate, n = LOCATES[method], 60
    assert (n + 1) * n > position._TDOA_BLOCK_PAIRS  # TDoA's 1 + n starts take several blocks
    rings = [_ring(scale * n) for scale in (1, 2, 4)]
    locate(*rings[0])  # once untraced, so first-call caches count at no size
    base, *larger = (_peak(lambda: locate(rs, ds)) / len(rs) for rs, ds in rings)
    assert max(larger) <= MAX_GROWTH * base, (method, base, larger)


def _trace_rows(n: int, beacon_id: str = "b{}") -> Trace:
    """n rows of 20 interleaved beacons, as _write_trace writes, built from columns."""
    i = np.arange(n)
    return Trace(SampleColumns(100 * i, i % 20, [beacon_id.format(k) for k in range(20)],
                               -60.0 - i % 40 / 4, np.where(i % 2 == 1, -59.0, np.nan),
                               np.array([37, 38, 39])[i % 3]))


def _to_crlf(path: str) -> None:
    with open(path, "rb") as fh:
        text = fh.read()
    with open(path, "wb") as fh:
        fh.write(text.replace(b"\n", b"\r\n"))


def _to_compact(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


# format, beacon id template, and what is done to the file before it is
# loaded: CSV with CRLF line ends, CSV whose ids the writer quotes (b"k),
# and JSON re-dumped without indentation, stream as the writer's text does
TRACE_FILES = {
    "csv": ("csv", "b{}", None),
    "json": ("json", "b{}", None),
    "csv-crlf": ("csv", "b{}", _to_crlf),
    "csv-quoted-ids": ("csv", 'b"{}', None),
    "json-compact": ("json", "b{}", _to_compact),
}


@pytest.mark.parametrize("case", TRACE_FILES)
def test_trace_file_peak_memory_stays_flat_in_blocks(case, tmp_path):
    format, beacon_id, edit = TRACE_FILES[case]
    sizes = {}
    for blocks in (4, 16):
        trace = _trace_rows(blocks * model._BLOCK_ROWS, beacon_id)
        path = str(tmp_path / f"{blocks}.{format}")
        save_trace(trace, path, format)  # once untraced, so first-call caches count at no size
        load_trace(path, format)
        save = _peak(lambda: save_trace(trace, path, format))
        if edit is not None:
            edit(path)
        loaded = []
        load = _peak(lambda: loaded.append(load_trace(path, format)))
        cols = loaded[0].samples
        assert loaded[0] == trace
        columns = sum(a.nbytes for a in (cols.timestamp_ms, cols.beacon, cols.rssi_dbm,
                                         cols.tx_power_dbm, cols.channel))
        sizes[blocks] = (save, load - columns)
    (save4, load4), (save16, load16) = sizes[4], sizes[16]
    assert save16 <= MAX_GROWTH * save4, (format, "save", sizes)
    assert load16 <= MAX_GROWTH * load4, (format, "load", sizes)


def test_csv_decode_error_peak_memory_stays_flat_in_blocks(tmp_path):
    # a CSV or JSON trace that is not UTF-8 near its end is refused holding
    # the columns and one read of the file, not its text decoded whole,
    # while the error still names the byte's offset in the file; the
    # smaller file is more than one read (_READ_BYTES)
    for format in ("csv", "json"):
        sizes = {}
        for blocks in (16, 64):
            trace = _trace_rows(blocks * model._BLOCK_ROWS)
            path = str(tmp_path / f"{blocks}.{format}")
            save_trace(trace, path, format)
            bad = os.path.getsize(path) - 5
            assert bad > model._READ_BYTES
            with open(path, "r+b") as fh:
                fh.seek(bad)
                fh.write(b"\xff")
            with pytest.raises(TraceFormatError):  # once untraced, so first-call caches count at no size
                load_trace(path, format)
            errors = []

            def load():
                try:
                    load_trace(path, format)
                except TraceFormatError as exc:
                    errors.append(str(exc))
            peak = _peak(load)
            assert errors == [f"{path}: 'utf-8' codec can't decode byte 0xff in position {bad}: invalid start byte"]
            cols = trace.samples
            columns = sum(a.nbytes for a in (cols.timestamp_ms, cols.beacon, cols.rssi_dbm,
                                             cols.tx_power_dbm, cols.channel))
            sizes[blocks] = peak - columns
        assert sizes[64] <= MAX_GROWTH * sizes[16], (format, sizes)


def _json_error(path: str, text: str) -> str:
    """json.load's error for a file at path holding text, as the loader words it."""
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    return f"{path}: {exc.value}"


def _key_colon(text: str, start: int) -> str:
    """text with the colon of the first "rssi_dbm" key from start dropped: a syntax error there."""
    at = text.index('"rssi_dbm":', start) + len('"rssi_dbm"')
    return text[:at] + text[at + 1:]


def _last_rssi_5(text: str) -> str:
    head, key, tail = text.rpartition('"rssi_dbm": ')
    return head + key + "5.0" + tail[tail.index(","):]


# name -> (edit of a JSON trace's text, whether the load fills columns
# before it stops, and the message the load is then refused with, {last}
# naming the last sample; None for json.load's error)
JSON_REFUSALS = {
    "rssi-out-of-range": (_last_rssi_5, True,
                          "sample {last}: rssi_dbm out of range [-120.0, 0.0]: 5.0"),
    "bom": (lambda text: "\ufeff" + text, False, None),
    "trailing-data": (lambda text: text + "{}\n", True, None),
    "repeated-samples-key": (
        lambda text: text[:-len("\n}\n")] + ',\n  "samples": [{"timestamp_ms": 0, "beacon_id": "a", '
                                              '"rssi_dbm": 5.0}]\n}\n', True,
        "sample 0: rssi_dbm out of range [-120.0, 0.0]: 5.0"),
    "sample-0-without-timestamp": (lambda text: text.replace('"timestamp_ms": 0,\n      ', "", 1),
                                   True, "sample 0: timestamp_ms must be an integer"),
    "syntax-error-early": (lambda text: _key_colon(text, 0), True, None),
    "syntax-error-mid-file": (lambda text: _key_colon(text, len(text) // 2), True, None),
    "top-level-array": (lambda text: text[text.index("[", text.index('"samples"')):
                                          text.rindex("]") + 1] + "\n",
                        False, "top level must be an object with a 'samples' array"),
}


def test_json_rejected_value_peak_memory_stays_flat_in_blocks(tmp_path):
    # a JSON trace refused for json's own error, or for a sample a Trace
    # rejects, is refused in one pass holding the columns, one window of
    # text and one block of samples, the error named as a whole-file read
    # names it, not read again whole by json.load
    sizes = {name: {} for name in JSON_REFUSALS}
    for blocks in (16, 64):
        trace = _trace_rows(blocks * model._BLOCK_ROWS)
        path = str(tmp_path / f"{blocks}.json")
        save_trace(trace, path, "json")
        with open(path, encoding="utf-8") as fh:
            written = fh.read()
        cols = trace.samples
        columns = sum(a.nbytes for a in (cols.timestamp_ms, cols.beacon, cols.rssi_dbm,
                                         cols.tx_power_dbm, cols.channel))
        for name, (edit, fills, message) in JSON_REFUSALS.items():
            text = edit(written)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with pytest.raises(TraceFormatError):  # once untraced, so first-call caches count at no size
                load_trace(path, "json")
            errors = []

            def load():
                try:
                    load_trace(path, "json")
                except TraceFormatError as exc:
                    errors.append(str(exc))
            peak = _peak(load)
            expected = (_json_error(path, text) if message is None
                        else message.format(last=len(trace) - 1))
            assert errors == [expected], name
            sizes[name][blocks] = peak - (columns if fills else 0)
    for name, size in sizes.items():
        assert size[64] <= MAX_GROWTH * size[16], (name, size)
