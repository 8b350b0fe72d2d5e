"""Mutation properties at the input boundaries: an edited input fails only as documented.

Each property starts from a valid input, a file or a hex payload, applies
one to three edits to it (delete a span, duplicate a span, flip a byte, or
insert a token) and runs the command that reads it through ``cli.main``
in-process. The command exits 0, or 2 with stderr starting ``error: ``:
never 1, a stray exception or a hang.
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


def _written(fmt: str) -> bytes:
    """The bytes save_trace writes for TRACE."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"t.{fmt}")
        save_trace(TRACE, path, fmt)
        with open(path, "rb") as fh:
            return fh.read()


VALID = {fmt: _written(fmt) for fmt in ("csv", "json")}
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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fmt=st.sampled_from(sorted(VALID)), edits=st.lists(EDITS, min_size=1, max_size=3))
# a tx power of 400 digits: an int float64 cannot hold
@example(fmt="json", edits=[("delete", _TX, len(b"-59.0")), ("insert", _TX, b"9" * 400)])
@example(fmt="csv", edits=[("insert", 60, b"\xff")])
@example(fmt="json", edits=[("insert", 60, b"\xff")])
def test_edited_trace_file_filters_or_exits_2(fmt, edits):
    # a file that is not UTF-8 is refused naming its path, then the offset
    # bytes.decode gives; an edited CSV file is decoded in the text layer's
    # first read (8 KiB), so no error in its header can come first
    data = _edited(VALID[fmt], edits)
    assert fmt == "json" or len(data) < 8192
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"t.{fmt}")
        save_trace(TRACE, path, fmt)  # a CSV with its metadata sidecar
        with open(path, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(["filter", path, os.path.join(tmp, "out.csv")])
    err = err.getvalue()
    assert status in (0, 2), err
    assert status == 0 or err.startswith("error: "), err
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        assert (status, err) == (2, f"error: TraceFormatError: {path}: {exc}\n")


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
