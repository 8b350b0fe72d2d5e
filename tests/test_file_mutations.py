"""Mutation properties at the input boundaries: an edited input fails only as documented.

Each property starts from a valid input, a file or a hex payload, applies
one to three edits to it (delete a span, duplicate a span, flip a byte, or
insert a token) and runs the command that reads it through ``cli.main``
in-process. The command exits 0, or 2 with stderr starting ``error: ``:
never 1, a stray exception or a hang. The files are a trace (CSV with its
metadata sidecar, or JSON), a scenario, an anchors file, a fingerprint
database and a ``--config`` file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from microloc import cli
from microloc.codec import _decode, frame_to_dict
from microloc.model import RssiSample, Trace, save_trace

# tokens an edit may insert: numbers no float or int64 holds, a BOM, a byte
# that is not UTF-8, and the CSV and JSON tokens a writer puts elsewhere
TOKENS = (b"1e400", b"9" * 400, b"1" * 30, "\ufeff".encode(), b"\xff", b"NaN", b"null",
          b'"', b",", b"\r\n", b"{", b"]")

# (kind, at, what): at is taken modulo the length of the input edited, plus one
EDITS = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 4096), st.integers(1, 4096)),  # span length
    st.tuples(st.just("duplicate"), st.integers(0, 4096), st.integers(1, 4096)),
    st.tuples(st.just("flip"), st.integers(0, 4096), st.integers(1, 255)),  # xor mask
    st.tuples(st.just("insert"), st.integers(0, 4096), st.sampled_from(TOKENS)),
)

TRACE = Trace([RssiSample(i * 100, f"b{i % 3}", -60.5 - i, None if i % 4 == 3 else -59.0,
                          37 + i % 3) for i in range(12)], {"origin": "mutation"})


def _written(fmt: str, suffix: str = "") -> bytes:
    """The bytes save_trace writes for TRACE at t.{fmt}, or next to it at that path plus suffix."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"t.{fmt}")
        save_trace(TRACE, path, fmt)
        with open(path + suffix, "rb") as fh:
            return fh.read()


VALID = {fmt: _written(fmt) for fmt in ("csv", "json")}
SIDECAR = _written("csv", ".meta.json")  # the CSV's metadata
_TX = VALID["json"].index(b'"tx_power_dbm": ') + len(b'"tx_power_dbm": ')  # the first value's start


def _edited(data, edits: list[tuple]):
    """data, bytes or a str, after the edits; only bytes are flipped."""
    for kind, at, what in edits:
        at %= len(data) + 1
        if kind == "insert":
            data = data[:at] + what + data[at:]
        elif kind == "flip":
            data = data[:at] + bytes([data[at] ^ what]) + data[at + 1:] if at < len(data) else data
        else:
            span = data[at:at + what]
            data = data[:at] + span * (2 if kind == "duplicate" else 0) + data[at + len(span):]
    return data


def _file(directory: str, name: str, data: bytes) -> str:
    """The path of a new file in directory holding data."""
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _exit(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) run in-process: its exit status, 0 or 2, and stderr, starting "error: " on 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    err = err.getvalue()
    assert status in (0, 2), err
    assert status == 0 or err.startswith("error: "), err
    return status, err


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fmt=st.sampled_from(sorted(VALID)), edits=st.lists(EDITS, min_size=1, max_size=3),
       sidecar_edits=st.lists(EDITS, max_size=3))
# a tx power of 400 digits: an int float64 cannot hold
@example(fmt="json", edits=[("delete", _TX, len(b"-59.0")), ("insert", _TX, b"9" * 400)],
         sidecar_edits=[])
@example(fmt="csv", edits=[("insert", 60, b"\xff")], sidecar_edits=[])
@example(fmt="json", edits=[("insert", 60, b"\xff")], sidecar_edits=[])
# a trailing blank line, then a sidecar that is not UTF-8
@example(fmt="csv", edits=[("insert", len(VALID["csv"]), b"\r\n")], sidecar_edits=[("insert", 2, b"\xff")])
def test_edited_trace_file_filters_or_exits_2(fmt, edits, sidecar_edits):
    # a file that is not UTF-8 anywhere is refused naming its path, then the
    # offset bytes.decode gives, before any other error in it; a CSV's
    # metadata sidecar is edited too (json ignores sidecar_edits)
    data = _edited(VALID[fmt], edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = _file(tmp, f"t.{fmt}", data)
        if fmt == "csv":
            _file(tmp, "t.csv.meta.json", _edited(SIDECAR, sidecar_edits))
        status, err = _exit(["filter", path, os.path.join(tmp, "out.csv")])
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        assert (status, err) == (2, f"error: TraceFormatError: {path}: {exc}\n")


# The JSON files next to a trace: anchors for each beacon of TRACE (the last
# with no tx power), a scenario over them, a fingerprint database over their
# ids and a --config file of the keys filter reads, each as indent=2 writes it
ANCHORS = [{"beacon_id": "b0", "x": 0.0, "y": 0.0, "tx_power_dbm": -59.0},
           {"beacon_id": "b1", "x": 8.0, "y": 0.0, "tx_power_dbm": -59.0},
           {"beacon_id": "b2", "x": 0.0, "y": 8.0}]
JSON_FILES = {
    "anchors": ANCHORS,
    "scenario": {"beacons": ANCHORS, "device_path": [{"start_ms": 0, "x": 2.0, "y": 1.0},
                                                     {"start_ms": 500, "x": 3.0, "y": 2.5}]},
    "fingerprints": {"metric": "euclidean", "entries": [
        {"x": 2.0, "y": 1.0, "signature": {"b0": -62.0, "b1": -70.5, "b2": -71.0}},
        {"x": 6.0, "y": 6.0, "signature": {"b0": -72.0, "b1": -66.0}}]},
    "config": {"dt": 0.2, "q": 0.001, "r": 0.1, "p0": 100.0, "window_n": 4, "q_scale": 1.0},
}
JSON_VALID = {name: json.dumps(doc, indent=2).encode() for name, doc in JSON_FILES.items()}

JSON_EDITS = st.lists(EDITS, min_size=1, max_size=3)


def _replaced(name: str, old: bytes, new: bytes) -> list[tuple]:
    """The edits that replace the first old in file name by new."""
    at = JSON_VALID[name].index(old)
    return [("delete", at, len(old)), ("insert", at, new)]


def _edited_run(name: str, edits: list[tuple], argv) -> None:
    """argv(tmp, path, trace) run after the edits to file name; trace is TRACE as a CSV file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _file(tmp, f"{name}.json", _edited(JSON_VALID[name], edits))
        trace = _file(tmp, "t.csv", VALID["csv"])
        _exit(argv(tmp, path, trace))


@settings(max_examples=250, deadline=None)
@given(edits=JSON_EDITS)
@example(edits=_replaced("scenario", b"500", b"1" * 30))
@example(edits=_replaced("scenario", b"2.5", b"1e400"))
def test_edited_scenario_simulates_or_exits_2(edits):
    _edited_run("scenario", edits, lambda tmp, path, trace: [
        "--set", "duration_ms=1000", "simulate", path, os.path.join(tmp, "out.csv")])


@settings(max_examples=250, deadline=None)
@given(edits=JSON_EDITS, method=st.sampled_from(("lateration", "tdoa", "proximity")))
@example(edits=_replaced("anchors", b"8.0", b"1e400"), method="lateration")
@example(edits=_replaced("anchors", b"-59.0", b"1" * 30), method="proximity")
@example(edits=[("insert", 0, "\ufeff".encode())], method="tdoa")
def test_edited_anchors_locate_or_exit_2(edits, method):
    _edited_run("anchors", edits, lambda tmp, path, trace: [
        "locate", trace, path, os.path.join(tmp, "out.json"), "--method", method])


@settings(max_examples=250, deadline=None)
@given(edits=JSON_EDITS)
@example(edits=_replaced("fingerprints", b"-62.0", b"1e400"))
@example(edits=_replaced("fingerprints", b"6.0", b"1" * 30))
def test_edited_fingerprint_db_locates_or_exits_2(edits):
    _edited_run("fingerprints", edits, lambda tmp, path, trace: [
        "locate", trace, path, os.path.join(tmp, "out.json"), "--method", "fingerprint"])


@settings(max_examples=250, deadline=None)
@given(edits=JSON_EDITS, mode=st.sampled_from(("static", "dynamic")))
@example(edits=_replaced("config", b"4", b"1" * 30), mode="dynamic")
@example(edits=_replaced("config", b"0.001", b"1e400"), mode="static")
@example(edits=[("insert", 20, b"\xff")], mode="static")
def test_edited_config_filters_or_exits_2(edits, mode):
    _edited_run("config", edits, lambda tmp, path, trace: [
        "--config", path, "filter", trace, os.path.join(tmp, "out.csv"), "--mode", mode])


# one valid payload per layout: iBeacon, AltBeacon, Eddystone UID, URL, TLM, EID
PAYLOADS = ("4c00021500112233445566778899aabbccddeeff00010002c5",
            "beac00112233445566778899aabbccddeeff00112233c500",
            "aafe00ec00112233445566778899aabbccddeeff0000",
            "aafe10ec03676f6f676c6507",
            "aafe20000bb818800000001000000020",
            "aafe30ec0011223344556677")

# tokens an edit may insert: not hex, half a byte, the two separators the
# command drops, a digit that is not ASCII, a NUL, 30 more bytes, an option dash
HEX_TOKENS = ("zz", "0", " ", ":", "\u0660", "\x00", "ff" * 30, "-")

HEX_EDITS = st.one_of(
    st.tuples(st.sampled_from(("delete", "duplicate")), st.integers(0, 64), st.integers(1, 64)),
    st.tuples(st.just("insert"), st.integers(0, 64), st.sampled_from(HEX_TOKENS)),
)


@settings(max_examples=300, deadline=None)
@given(text=st.sampled_from(PAYLOADS), edits=st.lists(HEX_EDITS, min_size=1, max_size=3))
def test_edited_hex_payload_decodes_or_exits_2(text, edits):
    text = _edited(text, edits)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(["decode", "--", text])  # "--": a leading "-" is not an option
    err = err.getvalue()
    assert status in (0, 2), err
    assert status == 0 or err.startswith("error: "), err
    if status == 0:  # what a decode that keeps nothing gives for the same bytes
        fresh = _decode.__wrapped__(bytes.fromhex(text.replace(":", "").replace(" ", "")))
        assert json.loads(out.getvalue()) == frame_to_dict(fresh)
