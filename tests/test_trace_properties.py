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
            rows = list(reader)
        except StopIteration:
            raise TraceFormatError("line 1: missing header") from None
        except csv.Error as exc:
            raise TraceFormatError(f"line {reader.line_num}: {exc}") from None
    linenos = [n for n, row in enumerate(rows, start=2) if row]
    if len(linenos) != len(rows):
        rows = [row for row in rows if row]
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
def test_split_text_is_diagnosed_from_its_split_fields(tmp_path, monkeypatch, lines, message):
    path = str(tmp_path / "t.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([_HEADER] + lines) + "\n")
    with pytest.raises(TraceFormatError) as with_reader:
        _reference_load_csv(path)
    assert str(with_reader.value) == message

    def no_reader(*args, **kwargs):
        raise AssertionError("a text that splits is read by csv.reader")

    monkeypatch.setattr(csv, "reader", no_reader)
    with pytest.raises(TraceFormatError, match="^line 4: ") as without_reader:
        load_trace(path, "csv")
    assert str(without_reader.value) == message


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
    # 60,000 rows of 20 interleaved beacons, as a site trace: the csv.reader
    # loader, which keeps a list per row, peaks at 37.4 MiB here, the split
    # path at 22.6 MiB.
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
