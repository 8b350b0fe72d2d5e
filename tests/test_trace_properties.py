"""Property tests at the trace file boundary: round trips and hostile files."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from microloc import model
from microloc.errors import TraceFormatError
from microloc.model import CSV_HEADER, RssiSample, SampleColumns, Trace, load_trace, save_trace

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


def _reference_load_csv(path: str) -> Trace:
    """The CSV loader before the split path: every file read by csv.reader."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if header != CSV_HEADER:
                raise TraceFormatError(f"line 1: bad header {header!r}")
            numbered = [(reader.line_num, row) for row in reader if row]
        except StopIteration:
            raise TraceFormatError("line 1: missing header") from None
        except csv.Error as exc:
            raise TraceFormatError(f"line {reader.line_num}: {exc}") from None
    linenos = [n for n, _ in numbered]
    rows = [row for _, row in numbered]
    fields = model._csv_fields(rows)
    metadata = model._read_sidecar(path)
    if fields is not None:
        try:
            cols = model._columns(*fields)
            trace = Trace(cols, metadata)
        except (ValueError, OverflowError):
            fields = None
    if fields is None:
        for i, row in enumerate(rows):
            try:
                RssiSample(*model._csv_row(row))
            except (ValueError, OverflowError) as exc:
                raise TraceFormatError(f"line {linenos[i]}: {exc}") from None
        raise AssertionError("the columns were rejected but every row checks")
    backwards = model._first_backwards(cols)
    if backwards is not None:
        i, prev = backwards
        timestamp_ms, beacon_id = cols._values(i)[:2]
        raise TraceFormatError(f"line {linenos[i]}: timestamp {timestamp_ms} for beacon "
                               f"{beacon_id!r} goes backwards (previous {prev})")
    return trace


def _outcome(load, path: str):
    """What loading path gives: the Trace and its dtypes, or the exception's class and message."""
    try:
        trace = load(path)
    except Exception as exc:  # every exception, to compare class and message
        return type(exc), str(exc)
    cols = trace.samples
    dtypes = [a.dtype for a in (cols.timestamp_ms, cols.beacon, cols.rssi_dbm,
                                cols.tx_power_dbm, cols.channel)]
    return trace, trace.beacon_ids(), trace.metadata, dtypes


def _same_as_reference(text: str, sidecar: str | None = None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if sidecar is not None:
            with open(path + ".meta.json", "w", encoding="utf-8") as fh:
                fh.write(sidecar)
        assert _outcome(load_trace, path) == _outcome(_reference_load_csv, path)


_HEADER = ",".join(CSV_HEADER)
# Per column: the values a writer gives (timestamps count the rows up),
# then odd ones (padded, with "_", quoted, blank, out of range, running
# backwards or not numbers at all).
_FIELDS = (
    (None, st.integers(0, 30).map(str) | st.sampled_from(
        [" 5", "5 ", "1_000", "+7", "\u0663", "-1", "", " ", "x", "9223372036854775808", "0x10"])),
    (st.sampled_from(["a", "b", "c"]), st.sampled_from(
        ['"q""x"', '"a,b"', 'a"b', '"a"', "", " ", "\u00e9", "a\x00b", "\ufeff"])),
    (st.floats(-120.0, 0.0).map("{:.4f}".format), st.sampled_from(
        [" -50", "-5_0.5", "-50 ", "-0", "1e-3", "nan", "-inf", "-130", "", "x"])),
    (st.floats(-100.0, 20.0).map("{:.4f}".format) | st.just(""), st.sampled_from(
        [" ", "  ", " -59 ", "-1_0", "nan", "inf", "30", "x", '"-59"'])),
    (st.sampled_from(["37", "38", "39"]), st.sampled_from(
        [" 37", "38 ", "3_7", "40", "", "x"])),
)
_PERCENT = st.sampled_from([0] * 6 + [2, 10, 40])  # how often a text departs from the writer


@st.composite
def csv_texts(draw) -> str:
    """CSV texts near the split path's edges: some split, others go to the csv module."""
    odd, blank, width = draw(_PERCENT), draw(_PERCENT), draw(_PERCENT)
    header = draw(st.sampled_from([_HEADER] * 20 + [
        "\ufeff" + _HEADER, _HEADER + ",", '"timestamp_ms"' + _HEADER[12:], _HEADER[:-1], ""]))
    lines = [header]
    for i in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 99)) < blank:
            lines.append("")
            continue
        fields = []
        for usual, strange in _FIELDS:
            if draw(st.integers(0, 99)) < odd:
                fields.append(draw(strange))
            else:
                fields.append(str(i) if usual is None else draw(usual))
        if draw(st.integers(0, 99)) < width:
            extra = draw(st.sampled_from([-4, -1, 1, 2]))
            fields = fields[:extra] if extra < 0 else fields + ["37"] * extra
        lines.append(",".join(fields))
    if len(lines) > 2 and draw(st.integers(0, 9)) == 0:
        # move a line break back by one field: the fields in order stay the same
        i = draw(st.integers(1, len(lines) - 2))
        head, comma, last = lines[i].rpartition(",")
        if comma:
            lines[i], lines[i + 1] = head, last + "," + lines[i + 1]
    ends = draw(st.sampled_from(["\n"] * 12 + ["\r\n", "\r", "mixed"]))
    if ends == "mixed":
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                             min_size=len(lines), max_size=len(lines)))
    else:
        ends = [ends] * len(lines)
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-1]  # no newline after the last line
    for _ in range(draw(st.sampled_from([0] * 4 + [1, 2]))):
        # a NUL, CR or quote anywhere, or more often where a number ends and still parses
        ends = [i for i, c in enumerate(text) if c in ",\n"]
        at = draw(st.sampled_from(ends) if ends and draw(st.integers(0, 2))
                  else st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from('\x00\r"')) + text[at:]
    return text


_SIDECARS = st.sampled_from([None] * 4 + ['{"seed": "1"}', "{", "[1]", '{"k": 2}'])


@pytest.fixture
def field_size_limit():
    """Lets a test lower csv.field_size_limit() and puts the old limit back afterwards."""
    old = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(old)


@settings(max_examples=600, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), sidecar=_SIDECARS,
       limit=st.sampled_from([csv.field_size_limit()] * 2 + [8, 20, 30]))
def test_csv_loader_matches_reference_loader(field_size_limit, text, sidecar, limit):
    field_size_limit(limit)  # read when the loader is called: over-long fields and lines
    _same_as_reference(text, sidecar)


@SETTINGS
@given(mutated("csv"), _SIDECARS)
def test_mutated_csv_matches_reference_loader(text, sidecar):
    _same_as_reference(text, sidecar)


@pytest.mark.parametrize("text", [
    _HEADER, _HEADER + "\n", _HEADER + "\n\n", "", "\n", "\ufeff" + _HEADER + "\n0,a,-50,,37\n",
    _HEADER + "\n0,a,-50,,37", _HEADER + "\n0,a,-50,,37\n\n1,a,-50,,37\n",
    _HEADER + "\r\n0,a,-50,,37\r\n", _HEADER + '\n0,"a",-50,,37\n',
    _HEADER + "\n0,a,-50, ,37\n1,b,-50,-59,38\n", _HEADER + "\n0,a,-50,nan,37\n",
    _HEADER + "\n1,a,-50,,37\n0,a,-50,,37\n", _HEADER + "\n0,a\x00,-50,,37\n",
    _HEADER + "\n 1_0 ,a, -5_0.5 , -59 , 3_7\n", _HEADER + "\n0,a,-50,,37,\n",
    _HEADER + "\n0,a,-50\r,,37\n", _HEADER + "\n0,a,-50,\r,37\n", _HEADER + "\n0\r,a,-50,,37\n",
    _HEADER + "\n0,a,-50,-59\n37,1,a,-50,,38\n",  # 4 and 6 fields whose values regroup into 5s
])
def test_csv_edge_texts_match_reference_loader(text):
    _same_as_reference(text)


def _literal_csv_fields(rows: list[list[str]]) -> list[list] | None:
    """_csv_fields as one parser mapped over each whole column, sharing no code with _csv_columns.

    _reference_load_csv reads its columns through model._csv_fields, so this
    keeps that reference independent of the loader's column parser.
    """
    if set(map(len, rows)) <= {len(model._CSV_PARSERS)}:
        columns = list(zip(*rows)) or [()] * len(model._CSV_PARSERS)
        try:
            return [list(map(parse, col)) for parse, col in zip(model._CSV_PARSERS, columns)]
        except ValueError:
            pass
    return None


def _float_bits(values) -> list:
    return [v if v is None else np.float64(v).tobytes() for v in values]


def _load_error(rows: list[list[str]], fields) -> str:
    """The message of the TraceFormatError _file_trace raises for these rows and fields."""
    with pytest.raises(TraceFormatError) as exc:
        model._file_trace(rows, model._csv_row, fields, lambda i: f"line {i + 2}", {})
    return str(exc.value)


# Per column: the texts above, and more at the edges of the parsers and of int64.
_FIELD_TEXTS = tuple(
    (strange if usual is None else usual | strange) | st.sampled_from(extra)
    for (usual, strange), extra in zip(_FIELDS, (
        ["9223372036854775807", "-9223372036854775809", "00"], ["b"],
        ["inf", "-1e400", "\u0663"], ["", "\t-59\n", "-inf", "1_0"],
        ["+37", "\u0663\u0667", "9223372036854775808"])))
_CSV_ROWS = st.lists(st.tuples(*_FIELD_TEXTS).map(list) | st.lists(
    st.sampled_from(["0", "a", "-50", "", "37"]), max_size=7), max_size=8)


@SETTINGS
@given(_CSV_ROWS)
def test_csv_fields_matches_literal_column_parse(rows):
    fields, literal = model._csv_fields(rows), _literal_csv_fields(rows)
    if fields is not None and literal is not None:
        assert fields[0].dtype == np.int64 and fields[0].tolist() == literal[0]
        assert list(fields[1]) == literal[1]
        assert fields[2].dtype == np.float64
        assert _float_bits(fields[2].tolist()) == _float_bits(literal[2])
        assert _float_bits(fields[3]) == _float_bits(literal[3])
        assert fields[4] == literal[4]
    else:
        # a timestamp int64 cannot hold gives None one step earlier; the load fails the same
        assert _load_error(rows, fields) == _load_error(rows, literal)


_WRITER_LINES = ["2,a,-60.0000,-59.0000,37", "5,b,-61.5000,,38"]


@pytest.mark.parametrize("lines, message", [
    (_WRITER_LINES + ["9,a,-130.0000,-59.0000,39"],
     "line 4: rssi_dbm out of range [-120.0, 0.0]: -130.0"),
    (_WRITER_LINES + ["1,a,-62.2500,-59.0000,39"],
     "line 4: timestamp 1 for beacon 'a' goes backwards (previous 2)"),
], ids=["rssi-out-of-range", "timestamp-backwards"])
def test_split_text_is_diagnosed_from_its_split_fields(tmp_path, lines, message):
    path = str(tmp_path / "t.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([_HEADER] + lines) + "\n")
    with pytest.raises(TraceFormatError) as with_reader:
        _reference_load_csv(path)
    assert str(with_reader.value) == message
    with pytest.raises(TraceFormatError, match="^line 4: ") as loaded:
        load_trace(path, "csv")
    assert str(loaded.value) == message


def _reference_csv_text(trace: Trace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    four = "{:.4f}".format
    for s in trace.samples:
        tx = "" if s.tx_power_dbm is None else four(s.tx_power_dbm)
        writer.writerow([s.timestamp_ms, s.beacon_id, four(s.rssi_dbm), tx, s.channel])
    return buf.getvalue()


def _reference_json_text(trace: Trace) -> str:
    doc = {"metadata": dict(sorted(trace.metadata.items())),
           "samples": [{"timestamp_ms": s.timestamp_ms, "beacon_id": s.beacon_id,
                        "rssi_dbm": s.rssi_dbm, "tx_power_dbm": s.tx_power_dbm,
                        "channel": s.channel} for s in trace.samples]}
    return json.dumps(doc, indent=2) + "\n"


_EDGE_TRACES = [
    Trace(),
    Trace((), {"k": "v"}),
    Trace([RssiSample(0, "a", -0.0, -0.0, 37), RssiSample(1, 'q"x', -50.25, None, 38),
           RssiSample(1, "s p", 0.0, None, 39), RssiSample(2, "\u00e9", -120.0, 20.0, 37),
           RssiSample(2 ** 63 - 1, 'a"', -61.12345, -100.0, 38)], {"seed": "1"}),
]


@pytest.mark.parametrize("trace", _EDGE_TRACES, ids=["empty", "empty-metadata", "edges"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_match_reference_bytes_on_edges(trace, fmt):
    reference = _reference_csv_text if fmt == "csv" else _reference_json_text
    assert _text(trace, fmt) == reference(trace)


@SETTINGS
@given(traces)
def test_writers_match_reference_bytes(trace):
    assert _text(trace, "csv") == _reference_csv_text(trace)
    assert _text(trace, "json") == _reference_json_text(trace)


def test_csv_load_peak_memory_is_bounded(tmp_path):
    # 60,000 rows of 20 interleaved beacons, as a site trace: the loader,
    # which holds the columns and one block of rows, peaks at 3.1 MiB here,
    # as it does on the same rows with CRLF line ends.
    n = 60_000
    rng = np.random.default_rng(0)
    beacon = np.arange(n) % 20
    cols = SampleColumns(np.arange(n) * 5, beacon, [f"s{i:02d}" for i in range(20)],
                         np.round(rng.uniform(-95.0, -40.0, n), 4), -59.0 - beacon / 10.0,
                         37 + np.arange(n) % 3)
    trace = Trace(cols, {"seed": "42"})
    path = str(tmp_path / "t.csv")
    save_trace(trace, path, "csv")
    tracemalloc.start()
    try:
        loaded = load_trace(path, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == trace
    assert peak < 32 * 2 ** 20


# The JSON loader as it was before its sample types moved into one table
# (model._JSON_FIELDS): one row check and one column check, each spelling
# out the five type rules.
def _reference_json_row(item) -> tuple:
    if not isinstance(item, dict):
        raise ValueError("must be an object")
    ts = item.get("timestamp_ms")
    beacon_id = item.get("beacon_id", "")
    rssi = item.get("rssi_dbm")
    tx = item.get("tx_power_dbm")
    ch = item.get("channel", 37)
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise ValueError("timestamp_ms must be an integer")
    if not isinstance(beacon_id, str):
        raise ValueError("beacon_id must be a string")
    if not isinstance(rssi, (int, float)) or isinstance(rssi, bool):
        raise ValueError("rssi_dbm must be a number")
    if tx is not None and (not isinstance(tx, (int, float)) or isinstance(tx, bool)):
        raise ValueError("tx_power_dbm must be a number or null")
    if isinstance(ch, bool) or not isinstance(ch, int):
        raise ValueError("channel must be an integer")
    return (ts, beacon_id, float(rssi),
            None if tx is None else float(tx), ch)


def _reference_json_fields(items: list) -> list | None:
    if not set(map(type, items)) <= {dict}:
        return None
    ts = [item.get("timestamp_ms") for item in items]
    beacon_ids = [item.get("beacon_id", "") for item in items]
    rssi = [item.get("rssi_dbm") for item in items]
    tx = [item.get("tx_power_dbm") for item in items]
    ch = [item.get("channel", 37) for item in items]
    number = {int, float}
    if (set(map(type, ts)) <= {int} and set(map(type, beacon_ids)) <= {str}
            and set(map(type, rssi)) <= number
            and set(map(type, tx)) <= number | {type(None)} and set(map(type, ch)) <= {int}):
        return [ts, beacon_ids, rssi, tx, ch]
    return None


def _reference_load_json(path: str) -> Trace:
    raw = model.read_json(path, TraceFormatError)
    if not isinstance(raw, dict) or "samples" not in raw:
        raise TraceFormatError("top level must be an object with a 'samples' array")
    if not isinstance(raw["samples"], list):
        raise TraceFormatError("'samples' must be an array")
    meta_raw = raw.get("metadata", {})
    if not isinstance(meta_raw, dict):
        raise TraceFormatError("'metadata' must be an object")
    samples = raw["samples"]
    return model._file_trace(samples, _reference_json_row, _reference_json_fields(samples),
                             lambda i: f"sample {i}", {str(k): str(v) for k, v in meta_raw.items()})


def _outcome_bits(load, path: str):
    """_outcome, and every column's bytes when the load gives a Trace."""
    outcome = _outcome(load, path)
    if not isinstance(outcome[0], Trace):
        return outcome
    cols = outcome[0].samples
    return outcome + ([a.tobytes() for a in (cols.timestamp_ms, cols.beacon, cols.rssi_dbm,
                                             cols.tx_power_dbm, cols.channel)],)


def _same_as_reference_json(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        load = lambda p: load_trace(p, "json")  # noqa: E731
        assert _outcome_bits(load, path) == _outcome_bits(_reference_load_json, path)


# Values a JSON sample field may be set to; "@1e999" and "@-1e999" are
# written as those number literals, which json reads as infinities.
_JSON_VALUE_LIST = [
    True, False, None, "", "x", "37", "-50.0", 2 ** 63, 2 ** 63 - 1, -1, 10 ** 400, -10 ** 400,
    "@1e999", "@-1e999", 0, 37, 38, 40, 37.0, 1.5, -0.0, -50, -50.5, -130.0, [], {}, [37]]
_JSON_VALUES = st.sampled_from(_JSON_VALUE_LIST)
_NOT_OBJECTS = st.sampled_from([5, 1.5, "x", None, True, [], [1], [{}]])
_ONE_IN_TWENTY = st.sampled_from([False] * 19 + [True])


def _json_dumps(doc, indent: int | None = 2) -> str:
    text = json.dumps(doc, indent=indent)
    return text.replace('"@1e999"', "1e999").replace('"@-1e999"', "-1e999")


@st.composite
def json_texts(draw) -> str:
    """Trace JSON texts in the writer's form, then with fields, samples or metadata changed."""
    doc = json.loads(_text(draw(traces), "json"))
    samples = doc["samples"]
    for _ in range(draw(st.integers(0, 3)) if samples else 0):
        item = samples[draw(st.integers(0, len(samples) - 1))]
        field = draw(st.sampled_from(CSV_HEADER + ["other"]))
        if draw(st.integers(0, 3)) == 0:
            item.pop(field, None)
        else:
            item[field] = draw(_JSON_VALUES)
    if samples and draw(_ONE_IN_TWENTY):
        samples[draw(st.integers(0, len(samples) - 1))] = draw(_NOT_OBJECTS)
    if draw(_ONE_IN_TWENTY):
        doc["metadata"] = draw(_NOT_OBJECTS | st.just({"n": 1, "none": None, "list": [1]}))
    if draw(_ONE_IN_TWENTY):
        doc = draw(st.sampled_from([{"metadata": {}}, {"samples": {}}, {"samples": None}])
                   | _NOT_OBJECTS)
    return _json_dumps(doc, draw(st.sampled_from([None, 2])))


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(json_texts())
def test_json_loader_matches_reference_loader(text):
    _same_as_reference_json(text)


@SETTINGS
@given(mutated("json"))
def test_mutated_json_matches_reference_loader(text):
    _same_as_reference_json(text)


_TWO_SAMPLES = Trace([RssiSample(0, "a", -50.0, -59.0, 37), RssiSample(5, "b", -60.5, None, 38)],
                     {"seed": "1"})


@pytest.mark.parametrize("value", _JSON_VALUE_LIST, ids=lambda v: repr(v)[:12])
@pytest.mark.parametrize("field", CSV_HEADER)
def test_each_json_field_value_matches_reference_loader(field, value):
    doc = json.loads(_text(_TWO_SAMPLES, "json"))
    doc["samples"][1][field] = value
    _same_as_reference_json(_json_dumps(doc))


@pytest.mark.parametrize("field", CSV_HEADER)
def test_missing_json_field_matches_reference_loader(field):
    doc = json.loads(_text(_TWO_SAMPLES, "json"))
    del doc["samples"][1][field]
    _same_as_reference_json(_json_dumps(doc))


# Trace files are read and written model._BLOCK_ROWS rows at a time. At 1,
# 2 and 3 rows a block boundary falls on every row, and files written by
# save_trace are read block by block, not by the whole-file loaders.
BLOCK_ROWS = [1, 2, 3]
_FIXTURE_SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


def _streamed(path: str, fmt: str) -> bool:
    """Whether the JSON block reader, not json.load, gives the file's Trace (every CSV streams)."""
    assert fmt == "json"
    return model._streamed_json(path) is not None


def _written_and_read_as_reference(trace: Trace) -> None:
    """save_trace writes the reference bytes, and each load gives the reference loader's outcome.

    Every JSON text but an empty trace's is read block by block.
    """
    references = {"csv": (_reference_csv_text, _reference_load_csv),
                  "json": (_reference_json_text, _reference_load_json)}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, (reference_text, reference_load) in references.items():
            path = os.path.join(tmp, f"t.{fmt}")
            save_trace(trace, path, fmt)
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            assert text == reference_text(trace)
            load = lambda p: load_trace(p, fmt)  # noqa: E731
            assert _outcome_bits(load, path) == _outcome_bits(reference_load, path)
            if fmt == "json":
                assert _streamed(path, fmt) == (len(trace) > 0)
    assert _roundtrip(trace, "json") == trace


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@_FIXTURE_SETTINGS
@given(trace=traces)
def test_small_blocks_write_and_read_as_reference(monkeypatch, rows, trace):
    monkeypatch.setattr(model, "_BLOCK_ROWS", rows)
    _written_and_read_as_reference(trace)


def _trace_of(n: int, metadata: dict | None = None) -> Trace:
    return Trace([RssiSample(3 * i, f"b{i % 2}", -50.0 - i / 8, None if i % 3 else -59.0,
                             (37, 38, 39)[i % 3]) for i in range(n)], metadata)


@pytest.mark.parametrize("rows", BLOCK_ROWS + [model._BLOCK_ROWS])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_block_edges_write_and_read_as_reference(monkeypatch, rows, n):
    # empty, one row, a boundary just before the last row (n = k * rows + 1)
    monkeypatch.setattr(model, "_BLOCK_ROWS", rows)
    _written_and_read_as_reference(_trace_of(n))
    _written_and_read_as_reference(_trace_of(n, {"seed": "1", "é": 'q"\n'}))


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_csv_without_final_newline_matches_reference_loader(monkeypatch, rows, n):
    monkeypatch.setattr(model, "_BLOCK_ROWS", rows)
    text = _text(_trace_of(n), "csv")[:-1]
    _same_as_reference(text)


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@settings(max_examples=150, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), sidecar=_SIDECARS,
       limit=st.sampled_from([csv.field_size_limit()] * 2 + [8, 20, 30]))
def test_small_block_csv_matches_reference_loader(monkeypatch, field_size_limit, rows, text,
                                                  sidecar, limit):
    monkeypatch.setattr(model, "_BLOCK_ROWS", rows)
    field_size_limit(limit)
    _same_as_reference(text, sidecar)


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@_FIXTURE_SETTINGS
@given(text=json_texts())
def test_small_block_json_matches_reference_loader(monkeypatch, rows, text):
    monkeypatch.setattr(model, "_BLOCK_ROWS", rows)
    _same_as_reference_json(text)


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
@_FIXTURE_SETTINGS
@given(data=st.data())
def test_small_block_mutated_file_matches_reference_loader(monkeypatch, rows, fmt, data):
    monkeypatch.setattr(model, "_BLOCK_ROWS", rows)
    text = data.draw(mutated(fmt))
    if fmt == "csv":
        _same_as_reference(text, data.draw(_SIDECARS))
    else:
        _same_as_reference_json(text)


_THREE_SAMPLES = Trace([RssiSample(0, "a", -50.0, -59.0, 37), RssiSample(5, "b", -60.5, None, 38),
                        RssiSample(9, "a", -61.25, 4.5, 39)], {"seed": "1", "run": "x"})
_WRITTEN = _text(_THREE_SAMPLES, "json")


def _edit(old: str, new: str, count: int = 1) -> str:
    assert _WRITTEN.count(old) >= count, old
    return _WRITTEN.replace(old, new, count)


# One edit of the writer's text each, most of which json.load still reads:
# the block reader must refuse every one it cannot read as json would, so
# that the whole-file loader gives the Trace or the error.
_JSON_EDITS = {
    "reordered-keys": _edit('      "timestamp_ms": 0,\n      "beacon_id": "a",\n',
                            '      "beacon_id": "a",\n      "timestamp_ms": 0,\n'),
    "extra-space-after-colon": _edit('"rssi_dbm": -60.5', '"rssi_dbm":  -60.5'),
    "space-before-comma": _edit('"timestamp_ms": 5,', '"timestamp_ms": 5 ,'),
    "trailing-space": _edit('"channel": 38\n', '"channel": 38 \n'),
    "tab-indent": _edit('      "channel": 37', '\t"channel": 37'),
    "u-escaped-id": _edit('"beacon_id": "b"', '"beacon_id": "\\u0062"'),
    "u-escaped-other-id": _edit('"beacon_id": "b"', '"beacon_id": "\\u0061"'),
    "escaped-slash-id": _edit('"beacon_id": "b"', '"beacon_id": "b\\/c"'),
    "surrogate-id": _edit('"beacon_id": "b"', '"beacon_id": "\\ud800"'),
    "raw-utf8-id": _edit('"beacon_id": "b"', '"beacon_id": "é"'),
    "control-char-id": _edit('"beacon_id": "b"', '"beacon_id": "b\\u0001"'),
    "rssi-1e2": _edit('"rssi_dbm": -60.5', '"rssi_dbm": -1e2'),
    "rssi-1E+1": _edit('"rssi_dbm": -60.5', '"rssi_dbm": -1E+1'),
    "timestamp-1e2": _edit('"timestamp_ms": 5,', '"timestamp_ms": 1e2,'),
    "channel-38.0": _edit('"channel": 38', '"channel": 38.0'),
    "rssi-minus-0": _edit('"rssi_dbm": -60.5', '"rssi_dbm": -0'),
    "rssi-minus-0.0": _edit('"rssi_dbm": -60.5', '"rssi_dbm": -0.0'),
    "rssi-int": _edit('"rssi_dbm": -60.5', '"rssi_dbm": -60'),
    "tx-minus-0": _edit('"tx_power_dbm": 4.5', '"tx_power_dbm": -0'),
    "timestamp-minus-0": _edit('"timestamp_ms": 0,', '"timestamp_ms": -0,'),
    "timestamp-leading-zero": _edit('"timestamp_ms": 5,', '"timestamp_ms": 05,'),
    "timestamp-2**63": _edit('"timestamp_ms": 9,', f'"timestamp_ms": {2 ** 63},'),
    "rssi-NaN": _edit('"rssi_dbm": -60.5', '"rssi_dbm": NaN'),
    "tx-Infinity": _edit('"tx_power_dbm": 4.5', '"tx_power_dbm": Infinity'),
    "tx-minus-Infinity": _edit('"tx_power_dbm": 4.5', '"tx_power_dbm": -Infinity'),
    "rssi-1e999": _edit('"rssi_dbm": -60.5', '"rssi_dbm": -1e999'),
    "tx-null-as-channel": _edit('"channel": 38', '"channel": null'),
    "duplicate-key": _edit('      "channel": 38\n', '      "channel": 38,\n      "channel": 39\n'),
    "duplicate-key-in-place": _edit('      "rssi_dbm": -60.5,\n', '      "channel": 37,\n'),
    "crlf": _WRITTEN.replace("\n", "\r\n"),
    "bom": "\ufeff" + _WRITTEN,
    "no-final-newline": _WRITTEN[:-1],
    "trailing-whitespace": _WRITTEN + " \n",
    "second-document": _WRITTEN + "{}\n",
    "tail-closed-early": _WRITTEN[:-len("\n  ]\n}\n")] + "\n  ]}\n\n",
    "tail-not-closed": _WRITTEN[:-len("}\n")] + "]\n",
    "head-only": _WRITTEN[:_WRITTEN.index("    {")],
    "head-then-end": _WRITTEN[:_WRITTEN.index("    {")] + "  ]\n}\n",
    "channel-out-of-range": _edit('"channel": 38', '"channel": 294'),
    "timestamp-backwards": _edit('"timestamp_ms": 9,', '"timestamp_ms": 4,'),
    "metadata-unsorted": _edit('    "run": "x",\n    "seed": "1"\n', '    "seed": "1",\n    "run": "x"\n'),
    "metadata-number": _edit('"seed": "1"', '"seed": 1'),
    "metadata-u-escaped": _edit('"seed": "1"', '"seed": "\\u0031"'),
    "metadata-duplicate": _edit('    "run": "x",\n', '    "run": "x",\n    "run": "y",\n'),
    "metadata-nested": _edit('"seed": "1"', '"seed": {"a": [1]}'),
    "samples-then-metadata": _WRITTEN.replace(
        '  "metadata": {\n    "run": "x",\n    "seed": "1"\n  },\n', "").replace(
        "\n  ]\n}\n", '\n  ],\n  "metadata": {\n    "run": "x",\n    "seed": "1"\n  }\n}\n'),
    "second-samples-key": _WRITTEN.replace("\n  ]\n}\n", '\n  ],\n  "samples": []\n}\n'),
}


@pytest.mark.parametrize("rows", [1, 2, model._BLOCK_ROWS])
@pytest.mark.parametrize("edit", _JSON_EDITS)
def test_json_edits_match_reference_loader(monkeypatch, rows, edit):
    monkeypatch.setattr(model, "_BLOCK_ROWS", rows)
    _same_as_reference_json(_JSON_EDITS[edit])


def test_json_edits_start_from_a_streamed_text(tmp_path):
    path = str(tmp_path / "t.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_WRITTEN)
    assert _streamed(path, "json")


_DOC = json.loads(_WRITTEN)

# Layouts json.load reads besides the writer's: each streams, a sample at
# a time by json's own scanner, to the reference loader's Trace.
_JSON_LAYOUTS = {
    "compact": json.dumps(_DOC),
    "indent-4": json.dumps(_DOC, indent=4),
    "crlf": _WRITTEN.replace("\n", "\r\n"),
    "samples-then-metadata": json.dumps({"samples": _DOC["samples"],
                                         "metadata": _DOC["metadata"]}, indent=2),
    "extra-key": json.dumps(dict(_DOC, source={"tool": ["x", 1.5]}), indent=2),
    "escaped-key": _WRITTEN.replace('"samples"', '"sam\\u0070les"'),
    "integer-rssi": _edit('"rssi_dbm": -50.0', '"rssi_dbm": -50'),
    "no-metadata": json.dumps({"samples": _DOC["samples"]}, indent=2),
}

# Texts the stream leaves to json.load, which refuses them or, for two
# "samples" keys, keeps the last.
_JSON_FALLBACKS = {
    "duplicate-samples": _JSON_EDITS["second-samples-key"],
    "empty-samples": json.dumps({"metadata": _DOC["metadata"], "samples": []}, indent=2),
    "bom": _JSON_EDITS["bom"],
    "trailing-data": _JSON_EDITS["second-document"],
}


def _json_file(tmp_path, text: str) -> str:
    path = str(tmp_path / "t.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("layout", _JSON_LAYOUTS)
def test_json_layouts_stream_to_the_reference_trace(tmp_path, layout):
    path = _json_file(tmp_path, _JSON_LAYOUTS[layout])
    load = lambda p: load_trace(p, "json")  # noqa: E731
    assert _outcome_bits(load, path) == _outcome_bits(_reference_load_json, path)
    assert model._streamed_json(path) == _reference_load_json(path)


@pytest.mark.parametrize("text", _JSON_FALLBACKS)
def test_json_texts_the_stream_leaves_to_json_load(tmp_path, text):
    assert model._streamed_json(_json_file(tmp_path, _JSON_FALLBACKS[text])) is None
    _same_as_reference_json(_JSON_FALLBACKS[text])


@pytest.mark.parametrize("chars", [1, 2, 3, 5, 8])
def test_json_values_cut_by_a_read_stream_whole(monkeypatch, tmp_path, chars):
    # short reads cut a top-level number after each of its characters;
    # json's scanner reads "-6." as -6, "-6.125e" and "-6.125e+" as -6.125
    # and "-6.1" as -6.1, so a value that ends near the cut is read again
    monkeypatch.setattr(model, "_JSON_CHARS", chars)
    for text in [_WRITTEN, *_JSON_LAYOUTS.values()]:
        for pad in range(chars + 1):
            path = _json_file(tmp_path, '{"scale":' + " " * pad + "-6.125e+1," + text[1:])
            streamed = model._streamed_json(path)
            assert streamed is not None and streamed == _reference_load_json(path)
            assert streamed.metadata == _reference_load_json(path).metadata
