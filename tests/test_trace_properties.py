"""Property tests at the trace file boundary: round trips and hostile files."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from microloc.errors import TraceFormatError
from microloc.model import RssiSample, Trace, load_trace, save_trace

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

beacon_ids = st.text(st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)),
                     min_size=1, max_size=6)
samples = st.builds(
    RssiSample,
    timestamp_ms=st.integers(0, 2 ** 63 - 1),
    beacon_id=beacon_ids,
    rssi_dbm=st.floats(-120.0, 0.0),
    tx_power_dbm=st.none() | st.floats(-100.0, 20.0),
    channel=st.sampled_from((37, 38, 39)),
)
traces = st.builds(Trace, st.lists(samples, max_size=30),
                   st.dictionaries(st.text(max_size=5), st.text(max_size=5), max_size=3))


def _roundtrip(trace: Trace, fmt: str) -> Trace:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"t.{fmt}")
        save_trace(trace, path, fmt)
        return load_trace(path, fmt)


@SETTINGS
@given(traces)
def test_json_roundtrip_is_exact(trace):
    assert _roundtrip(trace, "json") == trace


@SETTINGS
@given(traces)
def test_csv_roundtrip_within_quantisation(trace):
    back = _roundtrip(trace, "csv")
    a, b = trace.samples, back.samples
    assert back.metadata == trace.metadata
    assert a.timestamp_ms.tolist() == b.timestamp_ms.tolist()
    assert [s.beacon_id for s in a] == [s.beacon_id for s in b]
    assert a.channel.tolist() == b.channel.tolist()
    assert np.all(np.abs(a.rssi_dbm - b.rssi_dbm) <= 5e-5)
    assert np.array_equal(np.isnan(a.tx_power_dbm), np.isnan(b.tx_power_dbm))
    known = ~np.isnan(a.tx_power_dbm)
    assert np.all(np.abs(a.tx_power_dbm[known] - b.tx_power_dbm[known]) <= 5e-5)


def _text(trace: Trace, fmt: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"t.{fmt}")
        save_trace(trace, path, fmt)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


@st.composite
def mutated(draw, fmt: str):
    text = _text(draw(traces), fmt)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("truncate", "replace", "insert", "delete")))
        junk = draw(st.text(st.sampled_from('0123456789-.,"\n\r e:{}[]nafxNI'), max_size=4))
        if kind == "truncate":
            text = text[:pos]
        elif kind == "replace":
            text = text[:pos] + junk + text[pos + len(junk):]
        elif kind == "insert":
            text = text[:pos] + junk + text[pos:]
        else:
            text = text[:pos] + text[pos + draw(st.integers(1, 20)):]
    return text


def _load_text(text: str, fmt: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"t.{fmt}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            load_trace(path, fmt)
        except (TraceFormatError, ValueError):
            pass


@SETTINGS
@given(mutated("csv"))
def test_mutated_csv_fails_only_as_documented(text):
    _load_text(text, "csv")


@SETTINGS
@given(mutated("json"))
def test_mutated_json_fails_only_as_documented(text):
    _load_text(text, "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@SETTINGS
@given(data=st.data())
def test_mutated_file_loads_or_raises_trace_format_error(fmt, data):
    text = data.draw(mutated(fmt))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"t.{fmt}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            load_trace(path, fmt)
        except TraceFormatError:
            pass
