"""Trace and sample model: validation, ordering, serialization."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from conftest import make_trace
from microloc import model
from microloc.errors import TraceFormatError
from microloc.model import (
    CSV_HEADER,
    RssiSample,
    Trace,
    as_int,
    load_trace,
    save_trace,
    trace_format_for_path,
)


def test_sample_fields_roundtrip_values():
    s = RssiSample(timestamp_ms=12, beacon_id="abc", rssi_dbm=-61.5,
                   tx_power_dbm=-59.0, channel=38)
    assert (s.timestamp_ms, s.beacon_id, s.rssi_dbm) == (12, "abc", -61.5)
    assert s.tx_power_dbm == -59.0
    assert s.channel == 38


def test_sample_optional_tx_power_defaults_to_none():
    assert RssiSample(0, "b", -50.0).tx_power_dbm is None


@pytest.mark.parametrize("kwargs", [
    dict(timestamp_ms=-1, beacon_id="b", rssi_dbm=-50.0),
    dict(timestamp_ms=0, beacon_id="", rssi_dbm=-50.0),
    dict(timestamp_ms=0, beacon_id="a,b", rssi_dbm=-50.0),
    dict(timestamp_ms=0, beacon_id="b", rssi_dbm=-121.0),
    dict(timestamp_ms=0, beacon_id="b", rssi_dbm=0.5),
    dict(timestamp_ms=0, beacon_id="b", rssi_dbm=float("nan")),
    dict(timestamp_ms=0, beacon_id="b", rssi_dbm=-50.0, tx_power_dbm=21.0),
    dict(timestamp_ms=0, beacon_id="b", rssi_dbm=-50.0, channel=40),
])
def test_sample_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        RssiSample(**kwargs)


def test_rssi_boundaries_are_inclusive():
    RssiSample(0, "b", -120.0)
    RssiSample(0, "b", 0.0)


def test_trace_sorts_by_timestamp_stably():
    a = RssiSample(200, "b0", -60.0)
    b = RssiSample(100, "b1", -61.0)
    c = RssiSample(100, "b2", -62.0)
    t = Trace((a, b, c))
    assert [s.beacon_id for s in t.samples] == ["b1", "b2", "b0"]
    # b1 before b2: equal timestamps keep construction order
    assert t.samples[0].timestamp_ms == t.samples[1].timestamp_ms == 100


def test_trace_helpers():
    t = make_trace(1, n=9, beacons=("x", "y", "z"))
    assert t.beacon_ids() == ("x", "y", "z")
    assert len(t.for_beacon("x")) == 3
    assert len(t) == 9
    assert len(t.rssi_values()) == 9


def test_trace_metadata_must_be_strings():
    with pytest.raises(ValueError):
        Trace((RssiSample(0, "b", -50.0),), {"k": 3})


def test_csv_roundtrip_exact(tmp_path):
    t = make_trace(7, n=100, beacons=("b0", "b1"))
    p = str(tmp_path / "t.csv")
    save_trace(t, p, "csv")
    assert load_trace(p, "csv") == t


def test_csv_metadata_sidecar(tmp_path):
    t = make_trace(3, n=5)
    p = str(tmp_path / "t.csv")
    save_trace(t, p, "csv")
    assert os.path.exists(p + ".meta.json")
    with open(p + ".meta.json") as fh:
        assert json.load(fh) == {"origin": "test-seed-3"}


def test_csv_save_without_metadata_removes_stale_sidecar(tmp_path):
    p = str(tmp_path / "x.csv")
    save_trace(Trace(make_trace(1, n=5).samples, {"seed": "1"}), p, "csv")
    plain = Trace(make_trace(2, n=5).samples)
    save_trace(plain, p, "csv")
    assert not os.path.exists(p + ".meta.json")
    assert load_trace(p, "csv") == plain
    save_trace(plain, p, "csv")  # nothing left to remove
    assert load_trace(p, "csv") == plain


def test_json_roundtrip_preserves_full_precision(tmp_path):
    # values that 4-decimal CSV would truncate survive JSON unchanged
    s = RssiSample(5, "b", -61.123456789012, tx_power_dbm=-58.9999999999, channel=39)
    t = Trace((s,), {"k": "v"})
    p = str(tmp_path / "t.json")
    save_trace(t, p, "json")
    back = load_trace(p, "json")
    assert back == t
    assert back.samples[0].rssi_dbm == -61.123456789012


def test_csv_quantizes_to_four_decimals(tmp_path):
    t = Trace((RssiSample(0, "b", -61.123456789),))
    p = str(tmp_path / "t.csv")
    save_trace(t, p, "csv")
    assert load_trace(p, "csv").samples[0].rssi_dbm == -61.1235


def test_csv_writes_lf_and_pinned_header(tmp_path):
    p = str(tmp_path / "t.csv")
    save_trace(make_trace(2, n=2), p, "csv")
    with open(p, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    assert raw.split(b"\n")[0].decode() == ",".join(CSV_HEADER)


def test_csv_empty_tx_power_means_none(tmp_path):
    p = str(tmp_path / "t.csv")
    with open(p, "w") as fh:
        fh.write("timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel\n")
        fh.write("0,b0,-60.0000,,37\n")
    t = load_trace(p, "csv")
    assert t.samples[0].tx_power_dbm is None


def test_header_only_csv_is_an_empty_trace(tmp_path):
    p = str(tmp_path / "t.csv")
    with open(p, "w") as fh:
        fh.write("timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel\n")
    assert len(load_trace(p, "csv")) == 0


@pytest.mark.parametrize("row,fragment", [
    ("0,b0,-60.0,37", "line 2"),                      # missing a field
    ("x,b0,-60.0,-59.0,37", "line 2"),                # bad int
    ("0,b0,-60.0,-59.0,40", "line 2"),                # bad channel
    ("0,b0,nope,-59.0,37", "line 2"),                 # bad float
])
def test_csv_malformed_row_names_line(tmp_path, row, fragment):
    p = str(tmp_path / "t.csv")
    with open(p, "w") as fh:
        fh.write("timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel\n")
        fh.write(row + "\n")
    with pytest.raises(TraceFormatError, match=fragment):
        load_trace(p, "csv")


def test_csv_bad_header_rejected(tmp_path):
    p = str(tmp_path / "t.csv")
    with open(p, "w") as fh:
        fh.write("time,beacon,rssi\n")
    with pytest.raises(TraceFormatError, match="line 1"):
        load_trace(p, "csv")


def test_csv_backwards_timestamps_rejected_per_beacon(tmp_path):
    p = str(tmp_path / "t.csv")
    with open(p, "w") as fh:
        fh.write("timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel\n")
        fh.write("200,b0,-60.0000,,37\n")
        fh.write("100,b0,-61.0000,,37\n")
    with pytest.raises(TraceFormatError, match="line 3"):
        load_trace(p, "csv")


def test_csv_interleaved_beacons_may_jump_back(tmp_path):
    # only per-beacon order matters, not global order
    p = str(tmp_path / "t.csv")
    with open(p, "w") as fh:
        fh.write("timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel\n")
        fh.write("200,b0,-60.0000,,37\n")
        fh.write("100,b1,-61.0000,,37\n")
    t = load_trace(p, "csv")
    assert [s.beacon_id for s in t.samples] == ["b1", "b0"]


def test_json_malformed_sample_names_index(tmp_path):
    p = str(tmp_path / "t.json")
    with open(p, "w") as fh:
        json.dump({"samples": [
            {"timestamp_ms": 0, "beacon_id": "b", "rssi_dbm": -60.0, "channel": 37},
            {"timestamp_ms": "x", "beacon_id": "b", "rssi_dbm": -60.0, "channel": 37},
        ]}, fh)
    with pytest.raises(TraceFormatError, match="sample 1"):
        load_trace(p, "json")


def test_unknown_format_rejected(tmp_path):
    t = make_trace(1, n=1)
    with pytest.raises(ValueError):
        save_trace(t, str(tmp_path / "t.xml"), "xml")
    with pytest.raises(ValueError):
        load_trace(str(tmp_path / "t.xml"), "xml")


def test_save_to_unwritable_path_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        save_trace(make_trace(1, n=1), str(tmp_path / "no" / "dir" / "t.csv"), "csv")


def test_save_is_atomic_no_temp_left_behind(tmp_path):
    p = str(tmp_path / "t.csv")
    save_trace(make_trace(4, n=10), p, "csv")
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


def test_roundtrip_many_random_traces(tmp_path):
    for seed in range(10):
        t = make_trace(seed, n=40, beacons=("a", "b", "c"))
        pc = str(tmp_path / f"t{seed}.csv")
        pj = str(tmp_path / f"t{seed}.json")
        save_trace(t, pc, "csv")
        save_trace(t, pj, "json")
        assert load_trace(pc, "csv") == t
        assert load_trace(pj, "json") == t


def test_format_for_path():
    assert trace_format_for_path("x.json") == "json"
    assert trace_format_for_path("x.JSON") == "json"
    assert trace_format_for_path("x.csv") == "csv"
    assert trace_format_for_path("x.dat") == "csv"


# --- columnar trace: vectorised validation at build and load ---

def _write_csv(path, rows) -> str:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.writelines(row + "\n" for row in rows)
    return str(path)


def test_trace_stores_typed_columns():
    t = Trace((RssiSample(5, "b1", -61, None, 38), RssiSample(1, "b0", -60.5, -59.0, 37)))
    cols = t.samples
    assert cols.timestamp_ms.dtype == np.int64 and cols.timestamp_ms.tolist() == [1, 5]
    assert cols.beacon_ids == ("b0", "b1") and cols.beacon.tolist() == [0, 1]
    assert cols.rssi_dbm.dtype == np.float64 and cols.rssi_dbm.tolist() == [-60.5, -61.0]
    assert cols.tx_power_dbm[0] == -59.0 and np.isnan(cols.tx_power_dbm[1])
    assert cols.channel.dtype == np.uint8 and cols.channel.tolist() == [37, 38]
    assert not cols.rssi_dbm.flags.writeable
    assert t.samples[1] == RssiSample(5, "b1", -61.0, None, 38)


def test_sample_count_builds_no_rows(monkeypatch):
    from microloc import model

    t = make_trace(5, n=200, beacons=("a", "b"))

    def no_rows(*values):
        raise AssertionError("a row object was built")
    monkeypatch.setattr(model, "_row", no_rows)
    assert len(t.samples) == 200 and len(Trace(t.samples, t.metadata)) == 200


def test_trace_from_columns_names_first_bad_sample():
    from microloc.model import SampleColumns

    good = SampleColumns([0, 1, 2], [0, 0, 0], ["b"], [-60.0, -61.0, -62.0],
                         [np.nan] * 3, [37, 37, 37])
    assert len(Trace(good)) == 3
    bad = SampleColumns([0, 1, 2], [0, 0, 0], ["b"], [-60.0, 5.0, np.nan],
                        [np.nan] * 3, [37, 37, 40])
    with pytest.raises(ValueError, match="sample 1: rssi_dbm out of range"):
        Trace(bad)


def test_csv_first_bad_line_named_deep_in_file(tmp_path):
    rows = [f"{i},b{i % 3},-60.0000,,37" for i in range(5000)]
    rows[3999] = "3999,b0,-60.0000,,41"      # bad channel
    rows[4500] = "4500,b1,oops,,37"          # does not parse, but later
    with pytest.raises(TraceFormatError, match=r"^line 4001: channel"):
        load_trace(_write_csv(tmp_path / "t.csv", rows), "csv")


def test_json_first_bad_sample_named_deep_in_file(tmp_path):
    samples = [{"timestamp_ms": i, "beacon_id": "b", "rssi_dbm": -60.0} for i in range(5000)]
    samples[3210]["rssi_dbm"] = 3.0
    samples[4000]["timestamp_ms"] = "late"
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"samples": samples}))
    with pytest.raises(TraceFormatError, match=r"^sample 3210: rssi_dbm out of range"):
        load_trace(str(p), "json")


def test_parse_error_named_before_later_bad_values(tmp_path):
    rows = ["0,b0,-60.0000,,37", "1,b0,-60.0000,,37,9", "2,b0,5.0000,,37"]
    with pytest.raises(TraceFormatError, match=r"^line 3: expected 5 fields"):
        load_trace(_write_csv(tmp_path / "t.csv", rows), "csv")


def test_bad_values_named_before_backwards_timestamps(tmp_path):
    rows = ["200,b0,-60.0000,,37", "100,b0,-60.0000,,37", "300,b0,-130.0000,,37"]
    with pytest.raises(TraceFormatError, match=r"^line 4: rssi_dbm"):
        load_trace(_write_csv(tmp_path / "t.csv", rows), "csv")


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_csv_nonfinite_rssi_strings_rejected(tmp_path, text):
    rows = ["0,b0,-60.0000,,37", f"1,b0,{text},,37"]
    with pytest.raises(TraceFormatError, match=r"^line 3: rssi_dbm out of range"):
        load_trace(_write_csv(tmp_path / "t.csv", rows), "csv")


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_csv_nonfinite_tx_power_is_not_unknown(tmp_path, text):
    rows = ["0,b0,-60.0000,,37", f"1,b0,-60.0000,{text},37"]
    with pytest.raises(TraceFormatError, match=r"^line 3: tx_power_dbm out of range"):
        load_trace(_write_csv(tmp_path / "t.csv", rows), "csv")


def test_json_nan_tx_power_is_not_unknown(tmp_path):
    p = tmp_path / "t.json"
    p.write_text('{"samples": [{"timestamp_ms": 0, "beacon_id": "b", "rssi_dbm": -60.0,'
                 ' "tx_power_dbm": NaN}]}')
    with pytest.raises(TraceFormatError, match=r"^sample 0: tx_power_dbm out of range"):
        load_trace(str(p), "json")


def test_timestamp_beyond_int64_is_a_format_error(tmp_path):
    rows = ["0,b0,-60.0000,,37", f"{2 ** 63},b0,-60.0000,,37"]
    with pytest.raises(TraceFormatError, match=r"^line 3: timestamp_ms must be an int in \[0, 2\*\*63\)"):
        load_trace(_write_csv(tmp_path / "t.csv", rows), "csv")
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"samples": [
        {"timestamp_ms": 2 ** 70, "beacon_id": "b", "rssi_dbm": -60.0, "channel": 2 ** 64}]}))
    with pytest.raises(TraceFormatError, match=r"^sample 0: timestamp_ms must be an int"):
        load_trace(str(p), "json")
    with pytest.raises(ValueError):
        RssiSample(2 ** 63, "b", -60.0)
    assert RssiSample(2 ** 63 - 1, "b", -60.0).timestamp_ms == 2 ** 63 - 1


def test_json_writer_matches_json_dumps(tmp_path):
    samples = (RssiSample(0, 'q"uote', -61.123456789012, None, 38),
               RssiSample(0, "ünï", -50, -58.9999999999, 39),
               RssiSample(7, "b\\s", -0.0, 20.0, 37))
    for t in (Trace(samples, {"z": "1", "a": "é"}), Trace(samples), Trace((), {"k": "v"}), Trace()):
        p = tmp_path / "t.json"
        save_trace(t, str(p), "json")
        doc = {
            "metadata": dict(sorted(t.metadata.items())),
            "samples": [{"timestamp_ms": s.timestamp_ms, "beacon_id": s.beacon_id,
                         "rssi_dbm": s.rssi_dbm, "tx_power_dbm": s.tx_power_dbm,
                         "channel": s.channel} for s in t.samples],
        }
        assert p.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"
        assert load_trace(str(p), "json") == t


def test_int_rssi_serialises_as_float(tmp_path):
    p = tmp_path / "t.json"
    save_trace(Trace((RssiSample(0, "b", -50, -59),)), str(p), "json")
    doc = json.loads(p.read_text())
    assert '"rssi_dbm": -50.0' in p.read_text() and doc["samples"][0]["tx_power_dbm"] == -59.0


def test_csv_quotes_beacon_ids_like_csv_writer(tmp_path):
    t = Trace((RssiSample(0, 'a"b', -60.0), RssiSample(1, " sp ", -61.0)))
    p = tmp_path / "t.csv"
    save_trace(t, str(p), "csv")
    assert p.read_text().splitlines()[1:] == ['0,"a""b",-60.0000,,37', "1, sp ,-61.0000,,37"]
    assert load_trace(str(p), "csv") == t


def test_mean_rssi_by_beacon_sums_left_to_right():
    values = [-60.1, -70.3, -65.7, -61.9, -80.05, -62.2]
    t = Trace(tuple(RssiSample(i, "ab"[i % 2], v) for i, v in enumerate(values)))
    means = t.mean_rssi_by_beacon()
    assert list(means) == ["a", "b"]
    assert means["a"] == (((0.0 + values[0]) + values[2]) + values[4]) / 3
    assert means["b"] == (((0.0 + values[1]) + values[3]) + values[5]) / 3


def test_trace_rows_must_be_rssi_samples():
    from types import SimpleNamespace

    duck = SimpleNamespace(timestamp_ms=0, beacon_id="b", rssi_dbm=5.0, tx_power_dbm=None,
                           channel=37)
    with pytest.raises(TypeError):
        Trace((duck,))


_GOOD_JSON_SAMPLE = {"timestamp_ms": 0, "beacon_id": "b", "rssi_dbm": -60.0,
                     "tx_power_dbm": -59.0, "channel": 37}


@pytest.mark.parametrize("bad,message", [
    (5, "must be an object"),
    (dict(_GOOD_JSON_SAMPLE, rssi_dbm="-60"), "rssi_dbm must be a number"),
    (dict(_GOOD_JSON_SAMPLE, tx_power_dbm="-59"), "tx_power_dbm must be a number or null"),
    (dict(_GOOD_JSON_SAMPLE, channel=37.0), "channel must be an integer"),
    (dict(_GOOD_JSON_SAMPLE, timestamp_ms=True), "timestamp_ms must be an integer"),
])
def test_json_sample_of_wrong_type_is_named(tmp_path, bad, message):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"samples": [_GOOD_JSON_SAMPLE,
                                         dict(_GOOD_JSON_SAMPLE, timestamp_ms=100), bad]}))
    with pytest.raises(TraceFormatError) as exc:
        load_trace(str(p), "json")
    assert str(exc.value) == f"sample 2: {message}"


@pytest.mark.parametrize("beacon_id", [None, 5, 1.5, True, ["b"], {"b": 1}])
def test_json_beacon_id_that_is_not_a_string_is_named(tmp_path, beacon_id):
    p = tmp_path / "t.json"
    # the beacon id comes second in the CSV header, so its rule runs before rssi_dbm's
    bad = dict(_GOOD_JSON_SAMPLE, beacon_id=beacon_id, rssi_dbm="-60")
    p.write_text(json.dumps({"samples": [_GOOD_JSON_SAMPLE, bad]}))
    with pytest.raises(TraceFormatError) as exc:
        load_trace(str(p), "json")
    assert str(exc.value) == "sample 1: beacon_id must be a string"


def test_json_sample_without_beacon_id_is_named(tmp_path):
    p = tmp_path / "t.json"
    bad = {k: v for k, v in _GOOD_JSON_SAMPLE.items() if k != "beacon_id"}
    p.write_text(json.dumps({"samples": [bad]}))
    with pytest.raises(TraceFormatError) as exc:
        load_trace(str(p), "json")
    assert str(exc.value) == "sample 0: beacon_id must be non-empty"


def test_csv_bad_row_after_blank_lines_names_its_physical_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(",".join(CSV_HEADER) + "\n0,b,-60.0,-59.0,37\n\n\n100,b,-61.0,,38\n\n"
                 "200,b,oops,,39\n")
    with pytest.raises(TraceFormatError, match=r"^line 7: could not convert string to float"):
        load_trace(str(p), "csv")


def test_csv_bad_row_after_a_field_spanning_lines_names_its_physical_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(",".join(CSV_HEADER) + '\n0,a,-50,"-59\n",37\n1,b,-500,,37\n', newline="")
    with pytest.raises(TraceFormatError) as exc:
        load_trace(str(p), "csv")
    assert str(exc.value) == "line 4: rssi_dbm out of range [-120.0, 0.0]: -500.0"


def _column_arrays(cols):
    return (cols.timestamp_ms, cols.beacon, cols.rssi_dbm, cols.tx_power_dbm, cols.channel)


@pytest.mark.parametrize("timestamps", [[0, 1, 2], [2, 0, 1]], ids=["sorted", "unsorted"])
def test_trace_copies_callers_writeable_columns(timestamps):
    from microloc.model import SampleColumns

    given = SampleColumns(timestamps, [1, 0, 1], ["a", "b"], [-60.0, -61.0, -62.0],
                          [-59.0, np.nan, -59.0], np.array([37, 38, 39], dtype=np.uint8))
    t = Trace(given)
    before = list(t.samples)
    for a in _column_arrays(given):
        assert a.flags.writeable
        a[:] = np.roll(a, 1)
    assert list(t.samples) == before


@pytest.mark.parametrize("timestamps", [[0, 1, 2, 3], [3, 1, 2, 0]], ids=["sorted", "unsorted"])
def test_trace_from_rows_has_read_only_columns(timestamps):
    rows = [RssiSample(ts, f"b{ts % 2}", -60.0 - ts, None if ts else -59.0, 38)
            for ts in timestamps]
    cols = Trace(rows).samples
    assert [not a.flags.writeable for a in _column_arrays(cols)] == [True] * 5
    assert cols.beacon_ids[cols.beacon[0]] == cols[0].beacon_id and cols.beacon[0] == 0
    for a in _column_arrays(cols):
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("value, expected", [(3, 3), (-7, -7), (3.0, 3), (-0.0, 0), (1e308, int(1e308)),
                                             (2**70, 2**70)])
def test_as_int_takes_ints_and_integer_valued_floats(value, expected):
    got = as_int(value)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [True, False, 1.5, float("nan"), float("inf"), "3", None, [1]])
def test_as_int_rejects_everything_else(value):
    with pytest.raises(ValueError) as info:
        as_int(value)
    assert str(info.value) == f"expected an integer, got {value!r}"


@pytest.mark.parametrize("beacon_id", [0, 5, None, b"a", ("a",)])
def test_non_str_beacon_id_is_a_value_error(beacon_id):
    from microloc.model import SampleColumns

    with pytest.raises(ValueError) as info:
        RssiSample(0, beacon_id, -50.0)
    assert str(info.value) == f"beacon_id must be a str, got {beacon_id!r}"
    cols = SampleColumns([0, 1], [0, 1], ["a", beacon_id], [-50.0, -51.0], [np.nan] * 2, [37, 37])
    with pytest.raises(ValueError) as info:
        Trace(cols)
    assert str(info.value) == f"sample 1: beacon_id must be a str, got {beacon_id!r}"


@pytest.mark.parametrize("args, message", [
    ((True, "a", -50.0), "timestamp_ms must be an int in [0, 2**63), got True"),
    ((0, "a", False), "rssi_dbm must be a number, got False"),
    ((0, "a", -50.0, True), "tx_power_dbm must be a number, got True"),
    ((0, "a", -50.0, False), "tx_power_dbm must be a number, got False"),
])
def test_rssi_sample_rejects_bools(args, message):
    with pytest.raises(ValueError) as info:
        RssiSample(*args)
    assert str(info.value) == message


def test_empty_beacon_id_message_is_unchanged():
    with pytest.raises(ValueError) as info:
        RssiSample(0, "", -50.0)
    assert str(info.value) == "beacon_id must be non-empty"


@pytest.mark.parametrize("args, message", [
    ((0, "a", "-50"), "rssi_dbm must be a number, got '-50'"),
    ((0, "a", None), "float() argument must be a string or a real number, not 'NoneType'"),
    ((0, "a", [-50.0]), "float() argument must be a string or a real number, not 'list'"),
    ((0, "a", -50.0, "-59"), "tx_power_dbm must be a number, got '-59'"),
    ((0, "a", -50.0, 1j), "float() argument must be a string or a real number, not 'complex'"),
])
def test_rssi_sample_rejects_non_numbers(args, message):
    with pytest.raises(ValueError) as info:
        RssiSample(*args)
    assert str(info.value) == message


def test_rssi_sample_accepts_numpy_scalars():
    s = RssiSample(0, "a", np.float32(-50.5), np.int16(-59))
    assert s.rssi_dbm == -50.5 and s.tx_power_dbm == -59
    assert RssiSample(0, "a", np.int64(-50), np.float64(-59.0)).rssi_dbm == -50


def test_sample_index_is_checked_by_numpy():
    samples = Trace((RssiSample(0, "a", -50.0), RssiSample(1, "b", -51.0))).samples
    assert samples[-1] == samples[1] == RssiSample(1, "b", -51.0)
    assert samples[-2] == samples[0]
    for index in (2, -3, 10 ** 30):
        with pytest.raises(IndexError):
            samples[index]
    with pytest.raises(TypeError):
        samples[1.0]


def test_sample_columns_reject_unequal_lengths():
    from microloc.model import SampleColumns

    with pytest.raises(ValueError, match="same length"):
        SampleColumns([0, 1], [0], ["a"], [-50.0, -51.0], [np.nan] * 2, [37, 37])


def test_for_beacon_of_unknown_id_is_empty():
    trace = Trace((RssiSample(0, "a", -50.0),))
    assert trace.for_beacon("zz") == ()


def test_atomic_write_onto_a_directory_leaves_no_temp_file(tmp_path):
    from microloc.model import atomic_write_text

    (tmp_path / "target").mkdir()
    with pytest.raises(OSError):
        atomic_write_text(str(tmp_path / "target"), "text")
    assert os.listdir(tmp_path) == ["target"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_mode_open_gives(tmp_path, umask, mode):
    from microloc.model import atomic_write_text

    old = os.umask(umask)
    try:
        save_trace(make_trace(1, n=3), str(tmp_path / "t.csv"), "csv")  # with a sidecar
        save_trace(make_trace(1, n=3), str(tmp_path / "t.json"), "json")
        (tmp_path / "old.json").write_text("{}")
        os.chmod(tmp_path / "old.json", 0o600)
        atomic_write_text(str(tmp_path / "old.json"), "[]\n")  # replaced, as a new file
    finally:
        os.umask(old)
    names = ["t.csv", "t.csv.meta.json", "t.json", "old.json"]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    assert {n: oct(os.stat(tmp_path / n).st_mode & 0o777) for n in names} == dict.fromkeys(names, oct(mode))


def test_atomic_write_of_chunks_that_fail_leaves_the_file_as_it_was(tmp_path):
    from microloc.model import atomic_write_text

    def chunks():
        yield "new "
        raise RuntimeError("no more text")

    (tmp_path / "target").write_text("old")
    with pytest.raises(RuntimeError, match="no more text"):
        atomic_write_text(str(tmp_path / "target"), chunks())
    assert os.listdir(tmp_path) == ["target"]
    assert (tmp_path / "target").read_text() == "old"
    atomic_write_text(str(tmp_path / "target"), iter(["a", "", "b\n"]))
    assert (tmp_path / "target").read_text() == "ab\n"


# where a CSV stops being UTF-8, around the reads it is decoded in: a bad
# byte before, at and after a read boundary, after a character cut by one,
# a sequence cut by one and then broken, and a sequence the file cuts short
READ = model._READ_BYTES
DECODE_EDITS = {
    "start": (100, b"\xff"),
    "before-boundary": (READ - 1, b"\xff"),
    "at-boundary": (READ, b"\xff"),
    "after-a-cut-character": (READ - 1, b"\xc3\xa9" + b"0" * 500 + b"\xff"),
    "cut-then-broken": (READ - 2, b"\xe2\x82x"),
    "end-of-file": (-2, b"\xe2\x82"),
}


@pytest.mark.parametrize("edit", DECODE_EDITS)
def test_csv_decode_error_names_the_offset_a_whole_decode_names(tmp_path, edit):
    path = str(tmp_path / "t.csv")
    save_trace(Trace([RssiSample(i, f"b{i % 3}", -60.0 - i % 7, -59.0, 37 + i % 3)
                      for i in range(12_000)]), path)
    with open(path, "rb") as fh:
        data = fh.read()
    assert len(data) > READ + 1000
    at, text = DECODE_EDITS[edit]
    at %= len(data)
    data = data[:at] + text + data[at + len(text):]
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    with pytest.raises(UnicodeDecodeError) as got:
        load_trace(path)
    assert type(got.value).__name__ == "UnicodeDecodeError"
    assert str(got.value) == str(whole.value)
