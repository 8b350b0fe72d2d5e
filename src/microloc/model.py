"""Core data model: timestamped RSSI samples and beacon traces.

A Trace is the unit of exchange between the simulator, the filters and the
evaluation code. It keeps its samples as validated columns
(``SampleColumns``): timestamps as int64, a beacon index into a table of
ids, RSSI and tx power as float64 (NaN tx power means "unknown") and the
channel as uint8. ``RssiSample`` is the row type: a Trace can be built
from rows, and ``trace.samples`` reads as a sequence of them, each row made
only when it is read.

Rows, columns and files all build a Trace through the same columns. Every
value is validated once: an RssiSample checks its own fields, and a Trace
built from columns or loaded from a file checks whole columns, vectorised.
A bad column row raises ValueError naming the first bad ``sample i``. A
file's rows are checked one at a time only after its column check fails,
so that the loader's TraceFormatError names the first bad ``line N`` (CSV)
or ``sample i`` (JSON) in file order.

Two serializations are supported:

CSV (one sample per line, LF endings)::

    timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel
    0,b0,-61.4521,-59.0000,37

    rssi_dbm and tx_power_dbm carry four decimal places; an empty
    tx_power_dbm field means "unknown". Trace metadata, when present, is
    stored next to the file in ``<path>.meta.json``.

    The loader reads the file once as text, splits it at its commas and
    newlines where ``_splits`` says that gives the csv module's fields, and
    has the csv module read any other text. Either way its fields then take
    one route: whole columns first, rows only to name a bad line.

JSON::

    {"metadata": {...}, "samples": [{"timestamp_ms": 0, ...}, ...]}

    JSON preserves float values exactly and keeps metadata inline.

Loading enforces that timestamps are non-decreasing per beacon in file
order; the in-memory Trace is always globally sorted by timestamp with a
stable sort, so ties keep file order. Timestamps must be below 2**63, the
int64 limit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping

import numpy as np

from .errors import TraceFormatError

VALID_CHANNELS = (37, 38, 39)

CSV_HEADER = ["timestamp_ms", "beacon_id", "rssi_dbm", "tx_power_dbm", "channel"]

RSSI_MIN_DBM = -120.0
RSSI_MAX_DBM = 0.0
TX_POWER_MIN_DBM = -100.0
TX_POWER_MAX_DBM = 20.0
TIMESTAMP_LIMIT_MS = 2 ** 63  # exclusive: timestamps are stored as int64


@dataclass(frozen=True, init=False)
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

    # Written by hand rather than generated: the generated frozen __init__
    # sets each field through object.__setattr__, which doubles the cost of
    # a sample that clients build once per received advertisement.
    def __init__(self, timestamp_ms: int, beacon_id: str, rssi_dbm: float,
                 tx_power_dbm: float | None = None, channel: int = 37):
        if (type(timestamp_ms) is bool or not isinstance(timestamp_ms, int)
                or not 0 <= timestamp_ms < TIMESTAMP_LIMIT_MS):
            raise ValueError(f"timestamp_ms must be an int in [0, 2**63), got {timestamp_ms!r}")
        if not isinstance(beacon_id, str) or not beacon_id:
            raise ValueError("beacon_id must be non-empty" if isinstance(beacon_id, str)
                             else f"beacon_id must be a str, got {beacon_id!r}")
        if "," in beacon_id or "\r" in beacon_id or "\n" in beacon_id:
            raise ValueError(f"beacon_id contains forbidden characters: {beacon_id!r}")
        try:  # math.isfinite raises TypeError for anything but a real number
            rssi_ok = math.isfinite(rssi_dbm) and RSSI_MIN_DBM <= rssi_dbm <= RSSI_MAX_DBM
        except TypeError:
            rssi_ok = False
        if type(rssi_dbm) is bool or not rssi_ok:
            raise ValueError(f"rssi_dbm out of range [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}]: {rssi_dbm!r}")
        if tx_power_dbm is not None:
            try:
                tx_ok = (math.isfinite(tx_power_dbm)
                         and TX_POWER_MIN_DBM <= tx_power_dbm <= TX_POWER_MAX_DBM)
            except TypeError:
                tx_ok = False
            if type(tx_power_dbm) is bool or not tx_ok:
                raise ValueError(f"tx_power_dbm out of range: {tx_power_dbm!r}")
        if channel not in VALID_CHANNELS:
            raise ValueError(f"channel must be one of {VALID_CHANNELS}, got {channel!r}")
        self.__dict__.update(timestamp_ms=timestamp_ms, beacon_id=beacon_id, rssi_dbm=rssi_dbm,
                             tx_power_dbm=tx_power_dbm, channel=channel)


_new_object = object.__new__


def _row(timestamp_ms, beacon_id, rssi_dbm, tx_power_dbm, channel) -> RssiSample:
    """An RssiSample from values a Trace has already validated (skips the checks)."""
    s = _new_object(RssiSample)
    d = s.__dict__
    d["timestamp_ms"] = timestamp_ms
    d["beacon_id"] = beacon_id
    d["rssi_dbm"] = rssi_dbm
    d["tx_power_dbm"] = tx_power_dbm
    d["channel"] = channel
    return s


def _take(table: Sequence, index: np.ndarray) -> list:
    """[table[i] for i in index], for an index array."""
    return [table[i] for i in index.tolist()]


def _optional(values: np.ndarray) -> list:
    """A float column as a list, with None where it holds NaN."""
    return [None if v != v else v for v in values.tolist()]


class SampleColumns(Sequence):
    """Samples stored column-wise, read as a sequence of RssiSample rows.

    timestamp_ms is int64; beacon indexes beacon_ids; rssi_dbm and
    tx_power_dbm are float64, with NaN tx power meaning "unknown"; channel
    holds integers (uint8 inside a Trace). Building one converts the
    columns to those dtypes but checks no value: a Trace validates the
    columns it is given. Inside a Trace the arrays are read-only and
    beacon_ids lists exactly the ids in use, in order of first appearance.
    """

    __slots__ = ("timestamp_ms", "beacon", "beacon_ids", "rssi_dbm", "tx_power_dbm", "channel")

    def __init__(self, timestamp_ms, beacon, beacon_ids: Sequence[str], rssi_dbm,
                 tx_power_dbm, channel):
        self.timestamp_ms = np.asarray(timestamp_ms, dtype=np.int64)
        self.beacon = np.asarray(beacon, dtype=np.intp)
        self.beacon_ids = tuple(beacon_ids)
        self.rssi_dbm = np.asarray(rssi_dbm, dtype=np.float64)
        self.tx_power_dbm = np.asarray(tx_power_dbm, dtype=np.float64)
        self.channel = np.asarray(channel)
        n = len(self.timestamp_ms)
        if any(len(a) != n for a in (self.beacon, self.rssi_dbm, self.tx_power_dbm, self.channel)):
            raise ValueError("sample columns must all have the same length")

    def __len__(self) -> int:
        return len(self.timestamp_ms)

    def _values(self, i: int) -> tuple:
        tx = float(self.tx_power_dbm[i])
        return (int(self.timestamp_ms[i]), self.beacon_ids[self.beacon[i]],
                float(self.rssi_dbm[i]), None if math.isnan(tx) else tx, int(self.channel[i]))

    def select(self, index) -> SampleColumns:
        """The rows a slice, boolean mask or index array picks, as columns."""
        return SampleColumns(self.timestamp_ms[index], self.beacon[index], self.beacon_ids,
                             self.rssi_dbm[index], self.tx_power_dbm[index], self.channel[index])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(index)
        return _row(*self._values(operator.index(index)))

    def __iter__(self):
        return map(_row, self.timestamp_ms.tolist(), _take(self.beacon_ids, self.beacon),
                   self.rssi_dbm.tolist(), _optional(self.tx_power_dbm), self.channel.tolist())

    def __eq__(self, other):
        if not isinstance(other, SampleColumns):
            return NotImplemented
        return (len(self) == len(other)
                and np.array_equal(self.timestamp_ms, other.timestamp_ms)
                and _take(self.beacon_ids, self.beacon) == _take(other.beacon_ids, other.beacon)
                and np.array_equal(self.rssi_dbm, other.rssi_dbm)
                and np.array_equal(self.tx_power_dbm, other.tx_power_dbm, equal_nan=True)
                and np.array_equal(self.channel, other.channel))

    __hash__ = None

    def __repr__(self) -> str:
        return f"SampleColumns({len(self)} samples, beacons {self.beacon_ids!r})"

    def by_beacon(self, values: np.ndarray) -> tuple[np.ndarray, list[list]]:
        """Group the rows by beacon: a stable permutation, and values split per beacon.

        values is one of the columns. Its groups follow beacon_ids order,
        each a list in row order.
        """
        order = np.argsort(self.beacon, kind="stable")
        grouped = values[order].tolist()
        ends = np.cumsum(np.bincount(self.beacon, minlength=len(self.beacon_ids))).tolist()
        return order, [grouped[start:end] for start, end in zip([0] + ends, ends)]


def _index(beacon_id: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ids in order of first appearance, and each row's index into them."""
    ids = tuple(dict.fromkeys(beacon_id))
    position = {b: i for i, b in enumerate(ids)}
    return ids, np.fromiter(map(position.__getitem__, beacon_id), np.intp, len(beacon_id))


def _columns(timestamp_ms: Sequence[int], beacon_id: Sequence[str], rssi_dbm: Sequence[float],
             tx_power_dbm: Sequence[float | None], channel: Sequence[int]) -> SampleColumns:
    """Columns from per-field value lists, None tx power meaning unknown.

    Nothing is checked here, but an integer int64 cannot hold raises
    OverflowError, and a NaN given as tx power becomes +inf rather than
    "unknown", so that the Trace rejects its row.
    """
    ids, beacon = _index(beacon_id)
    tx = np.array(tx_power_dbm, dtype=np.float64)
    unknown = np.isnan(tx)
    if np.count_nonzero(unknown) != tx_power_dbm.count(None):
        tx[[i for i in np.flatnonzero(unknown).tolist() if tx_power_dbm[i] is not None]] = math.inf
    return SampleColumns(np.array(timestamp_ms, dtype=np.int64), beacon, ids,
                         np.array(rssi_dbm, dtype=np.float64), tx,
                         np.array(channel, dtype=np.int64))


_fields = operator.attrgetter(*CSV_HEADER)  # the header names the row fields


def _valid_id(beacon_id) -> bool:
    return (isinstance(beacon_id, str) and beacon_id != ""
            and not ("," in beacon_id or "\r" in beacon_id or "\n" in beacon_id))


def _first_bad_row(cols: SampleColumns) -> int | None:
    """Index of the first row RssiSample would reject, or None; the same checks, vectorised."""
    rssi, tx = cols.rssi_dbm, cols.tx_power_dbm
    good_id = np.array([_valid_id(b) for b in cols.beacon_ids], dtype=bool)
    ok = ((cols.timestamp_ms >= 0) & good_id[cols.beacon]
          & (rssi >= RSSI_MIN_DBM) & (rssi <= RSSI_MAX_DBM)
          & (np.isnan(tx) | ((tx >= TX_POWER_MIN_DBM) & (tx <= TX_POWER_MAX_DBM)))
          & reduce(operator.or_, [cols.channel == c for c in VALID_CHANNELS]))
    return None if ok.all() else int(np.argmin(ok))


def _first_appearance(beacon: np.ndarray, n_ids: int) -> np.ndarray | None:
    """Old beacon indices in order of first appearance, or None if beacon already is that order."""
    seen = np.maximum.accumulate(beacon)
    if len(beacon) and beacon[0] == 0 and seen[-1] == n_ids - 1 and (np.diff(seen) <= 1).all():
        return None
    used, first = np.unique(beacon, return_index=True)
    return used[np.argsort(first)]


def _frozen(a: np.ndarray, owned: bool) -> np.ndarray:
    """a made read-only, copied first if it is writeable and a caller may still hold it."""
    if a.flags.writeable and not owned:
        a = a.copy()
    a.flags.writeable = False
    return a


def _normalised(cols: SampleColumns, owned: bool = False) -> SampleColumns:
    """Stable-sorted by timestamp, beacons renumbered by first appearance, read-only.

    owned says that cols' arrays were made for this Trace alone, by
    _columns from rows, so that they can be frozen in place rather than
    copied, and that their beacon index already numbers the ids in order
    of first appearance, as _index does. A caller's arrays are copied
    while writeable, so that changing them later cannot change the Trace.
    """
    ts, ids = cols.timestamp_ms, cols.beacon_ids
    arrays = [ts, cols.beacon, cols.rssi_dbm, cols.tx_power_dbm,
              cols.channel.astype(np.uint8, copy=False)]
    fresh = numbered = owned
    if len(ts) > 1 and not (ts[1:] >= ts[:-1]).all():
        order = np.argsort(ts, kind="stable")
        arrays = [a[order] for a in arrays]
        fresh, numbered = True, False
    used = None if numbered else _first_appearance(arrays[1], len(ids))
    if used is not None:
        renumber = np.zeros(len(ids), dtype=np.intp)
        renumber[used] = np.arange(len(used))
        arrays[1] = renumber[arrays[1]]
        ids = tuple(_take(ids, used))
    ts, beacon, rssi, tx, channel = (_frozen(a, fresh) for a in arrays)
    return SampleColumns(ts, beacon, ids, rssi, tx, channel)


@dataclass(frozen=True, init=False)
class Trace:
    """An immutable, time-sorted table of samples plus string metadata.

    samples is either RssiSample rows, which validated themselves when
    they were made, or a SampleColumns, validated here (ValueError naming
    the first bad ``sample i``). Either is stored as read-only columns,
    stable-sorted by timestamp so that equal timestamps keep their given
    order.
    """

    samples: SampleColumns
    metadata: dict[str, str]

    def __init__(self, samples: Iterable[RssiSample] | SampleColumns = (),
                 metadata: Mapping[str, str] | None = None):
        if isinstance(samples, SampleColumns):
            bad = _first_bad_row(samples)
            if bad is not None:
                try:
                    RssiSample(*samples._values(bad))
                except ValueError as exc:
                    raise ValueError(f"sample {bad}: {exc}") from None
            cols = _normalised(samples)
        else:
            rows = tuple(samples)
            if not all(isinstance(s, RssiSample) for s in rows):
                raise TypeError("Trace rows must be RssiSample instances")
            cols = _normalised(
                _columns(*(list(zip(*map(_fields, rows))) or [()] * len(CSV_HEADER))), owned=True)
        meta = dict(metadata or {})
        for k, v in meta.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ValueError(f"metadata must map str to str, got {k!r}: {v!r}")
        object.__setattr__(self, "samples", cols)
        object.__setattr__(self, "metadata", meta)

    def __len__(self) -> int:
        return len(self.samples)

    def beacon_ids(self) -> tuple[str, ...]:
        """Distinct beacon ids in order of first appearance."""
        return self.samples.beacon_ids

    def for_beacon(self, beacon_id: str) -> tuple[RssiSample, ...]:
        cols = self.samples
        if beacon_id not in cols.beacon_ids:
            return ()
        return tuple(cols.select(cols.beacon == cols.beacon_ids.index(beacon_id)))

    def rssi_values(self) -> tuple[float, ...]:
        return tuple(self.samples.rssi_dbm.tolist())

    def mean_rssi_by_beacon(self) -> dict[str, float]:
        """Mean rssi_dbm per beacon id, keyed in order of first appearance.

        Each sum runs left to right in time order, so the means do not
        depend on how the samples are stored.
        """
        cols = self.samples
        _, streams = cols.by_beacon(cols.rssi_dbm)
        return {b: left_to_right_sum(s) / len(s) for b, s in zip(cols.beacon_ids, streams)}


def left_to_right_sum(values: Iterable[float]) -> float:
    """Sum of floats added one by one, left to right.

    Builtin sum() of floats is compensated from Python 3.12 on and rounds
    differently, so every library sum of floats goes through here to give
    the same bits on every supported interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def clamp_rssi(values: np.ndarray) -> np.ndarray:
    """Clamp power levels into [RSSI_MIN_DBM, RSSI_MAX_DBM], elementwise.

    Each element is min(RSSI_MAX_DBM, max(RSSI_MIN_DBM, v)) as Python
    computes it, so -0.0 becomes 0.0 and NaN becomes RSSI_MIN_DBM.
    """
    above = np.where(values > RSSI_MIN_DBM, values, RSSI_MIN_DBM)
    return np.where(above < RSSI_MAX_DBM, above, RSSI_MAX_DBM)


def read_json(path: str, error: type[Exception] = ValueError):
    """Parse a JSON file, raising ``error`` for a malformed or too deeply nested document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: {exc}") from exc


def as_int(value) -> int:
    """An int that is not a bool, or a float with an integer value, as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_objects(items: list, label: str, build, error: type[Exception] = ValueError) -> list:
    """build(item) for each object of a parsed JSON array, in order.

    An item that is not an object, or whose build raises KeyError,
    TypeError, ValueError or OverflowError, raises ``error`` with a message
    that starts "{label} {i}: ", i being the item's index.
    """
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise error(f"{label} {i}: must be an object")
        try:
            out.append(build(item))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise error(f"{label} {i}: {exc}") from exc
    return out


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


def _first_backwards(cols: SampleColumns) -> tuple[int, int] | None:
    """First row (in given order) whose timestamp is below its beacon's previous one, with that one."""
    if (cols.timestamp_ms[1:] >= cols.timestamp_ms[:-1]).all():
        return None  # no beacon's timestamps go back when none do
    order = np.argsort(cols.beacon, kind="stable")
    ts = cols.timestamp_ms[order]
    beacon = cols.beacon[order]
    drops = np.flatnonzero((beacon[1:] == beacon[:-1]) & (ts[1:] < ts[:-1]))
    if len(drops) == 0:
        return None
    k = int(np.argmin(order[drops + 1]))
    return int(order[drops[k] + 1]), int(ts[drops[k]])


def _file_trace(rows: Iterable, parse_row, fields: list[Sequence] | None, label,
                metadata: dict[str, str]) -> Trace:
    """The Trace of a file's rows, or TraceFormatError naming the first bad row.

    fields holds every row's values column by column, or None when some
    row does not parse. A row fails, in file order, by not parsing or by
    holding a value a Trace rejects; only when every row is sound does a
    timestamp running backwards for its beacon fail. Only after the columns
    fail are the rows read, once (they may be a generator), each checked
    with parse_row (for JSON, _json_columns of the one sample) and
    RssiSample. label(i) names row i in messages.
    """
    trace = None
    if fields is not None:
        try:
            cols = _columns(*fields)
            trace = Trace(cols, metadata)
        except (ValueError, OverflowError):
            pass
    if trace is None:
        for i, row in enumerate(rows):
            try:
                RssiSample(*parse_row(row))
            except (ValueError, OverflowError) as exc:
                raise TraceFormatError(f"{label(i)}: {exc}") from None
        raise AssertionError("the columns were rejected but every row checks")
    backwards = _first_backwards(cols)
    if backwards is not None:
        i, prev = backwards
        timestamp_ms, beacon_id = cols._values(i)[:2]
        raise TraceFormatError(
            f"{label(i)}: timestamp {timestamp_ms} for beacon {beacon_id!r} "
            f"goes backwards (previous {prev})"
        )
    return trace


def _tx_field(text: str) -> float | None:
    return float(text) if text.strip() != "" else None


_CSV_PARSERS = (int, str, float, _tx_field, int)


def _csv_row(row: list[str]) -> list:
    if len(row) != len(_CSV_PARSERS):
        raise ValueError(f"expected {len(_CSV_PARSERS)} fields, got {len(row)}")
    return [parse(v) for parse, v in zip(_CSV_PARSERS, row)]


def _parse_repeated(texts: Sequence[str], parse) -> list:
    """list(map(parse, texts)), parsing each distinct text once (tx power, channel)."""
    values = {t: parse(t) for t in set(texts)}
    return list(map(values.__getitem__, texts))


def _csv_columns(ts: Sequence[str], ids: Sequence[str], rssi: Sequence[str],
                 tx: Sequence[str], ch: Sequence[str]) -> list[Sequence] | None:
    """A CSV file's field texts parsed column by column, or None if one does not parse.

    Timestamps (int64, so that one int64 cannot hold does not parse) and
    RSSI come as numpy arrays, the rest as lists.
    """
    n = len(ts)
    try:
        return [np.fromiter(map(int, ts), np.int64, n), ids,
                np.fromiter(map(float, rssi), np.float64, n),
                _parse_repeated(tx, _tx_field), _parse_repeated(ch, int)]
    except (ValueError, OverflowError):
        return None


def _csv_fields(rows: list[list[str]]) -> list[Sequence] | None:
    """Every row's values, column by column, or None if some row does not parse."""
    if set(map(len, rows)) <= {len(_CSV_PARSERS)}:
        return _csv_columns(*(list(zip(*rows)) or [()] * len(_CSV_PARSERS)))
    return None


def _read_sidecar(path: str) -> dict[str, str]:
    sidecar = path + ".meta.json"
    if not os.path.exists(sidecar):
        return {}
    raw = read_json(sidecar, TraceFormatError)
    if not isinstance(raw, dict):
        raise TraceFormatError(f"{sidecar}: metadata must be a JSON object")
    return {str(k): str(v) for k, v in raw.items()}


_CSV_HEADER_LINE = ",".join(CSV_HEADER)


_NOT_COMMA_OR_NEWLINE = bytes(sorted(set(range(256)) - set(b",\n")))


def _splits(text: str) -> bool:
    """Whether one split of text at its newlines and commas gives csv.reader's fields.

    It does when the text holds no '"', CR or NUL, line 1 is exactly the
    header, every other line has exactly four commas (so none is blank),
    and every line, the header too, is shorter than csv.field_size_limit();
    csv.reader raises no error on such a text either.
    """
    line1 = text[:len(_CSV_HEADER_LINE) + 1]
    if ('"' in text or "\r" in text or "\0" in text
            or line1 not in (_CSV_HEADER_LINE, _CSV_HEADER_LINE + "\n")):
        return False
    # Only commas and newlines, one ",,,,\n" per line: UTF-8 encodes no
    # other character with those bytes, and a line has no fewer bytes than
    # characters.
    raw = text.encode()
    shape = raw.translate(None, _NOT_COMMA_OR_NEWLINE) + (b"" if raw.endswith(b"\n") else b"\n")
    newlines = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    return (shape == b",,,,\n" * (len(shape) // 5)
            and np.diff(newlines, prepend=-1, append=len(raw)).max() <= csv.field_size_limit())


def _split_columns(text: str) -> list[list[str]]:
    """The field texts of a text that _splits, column by column, the header left out."""
    fields = text.replace("\n", ",").split(",")
    if text.endswith("\n"):
        fields.pop()  # the empty field after the newline that ends the last line
    return [fields[k::5] for k in range(5, 10)]


def _split_rows(text: str):
    """Each row's field texts, for a text that _splits; row i is on line i + 2.

    A generator: the text is split again only if the rows are read, so no
    field text needs to stay alive while the Trace is built.
    """
    yield from zip(*_split_columns(text))


def _load_csv(path: str) -> Trace:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if _splits(text):
        rows = _split_rows(text)
        columns = _csv_columns(*_split_columns(text))
        label = lambda i: f"line {i + 2}"
    else:
        reader = csv.reader(io.StringIO(text, newline=""))
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
        columns = _csv_fields(rows)
        label = lambda i: f"line {linenos[i]}"
    return _file_trace(rows, _csv_row, columns, label, _read_sidecar(path))


# A JSON sample's typed fields: (field, default, allowed JSON types, what it must be)
_JSON_FIELDS = (
    ("timestamp_ms", None, {int}, "an integer"),
    ("rssi_dbm", None, {int, float}, "a number"),
    ("tx_power_dbm", None, {int, float, type(None)}, "a number or null"),
    ("channel", 37, {int}, "an integer"),
)


def _json_columns(items: list) -> list[list]:
    """The samples' values field by field, beacon ids as str() ("" when absent).

    Raises ValueError "must be an object" if some item is not an object,
    else "{field} must be {what}" for the first field, in _JSON_FIELDS
    order, that some item holds with a type it does not allow.
    """
    if not set(map(type, items)) <= {dict}:
        raise ValueError("must be an object")
    columns = []
    for field, default, types, what in _JSON_FIELDS:
        column = [item.get(field, default) for item in items]
        if not set(map(type, column)) <= types:
            raise ValueError(f"{field} must be {what}")
        columns.append(column)
    ts, rssi, tx, ch = columns
    return [ts, [str(item.get("beacon_id", "")) for item in items], rssi, tx, ch]


def _json_row(item) -> tuple:
    ts, beacon_id, rssi, tx, ch = (column[0] for column in _json_columns([item]))
    return ts, beacon_id, float(rssi), None if tx is None else float(tx), ch


def _load_json(path: str) -> Trace:
    raw = read_json(path, TraceFormatError)
    if not isinstance(raw, dict) or "samples" not in raw:
        raise TraceFormatError("top level must be an object with a 'samples' array")
    if not isinstance(raw["samples"], list):
        raise TraceFormatError("'samples' must be an array")
    meta_raw = raw.get("metadata", {})
    if not isinstance(meta_raw, dict):
        raise TraceFormatError("'metadata' must be an object")
    samples = raw["samples"]
    try:
        fields = _json_columns(samples)
    except ValueError:
        fields = None
    return _file_trace(samples, _json_row, fields, lambda i: f"sample {i}",
                       {str(k): str(v) for k, v in meta_raw.items()})


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


def _csv_field(text: str) -> str:
    """One field as csv.writer writes it (quoted only where needed)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


# One row of each file, by whether its tx power is known. "%.4f" formats as
# "{:.4f}" does, "%r" of a float is float.__repr__ (as in json.dumps), and
# "%.0s" drops the NaN of an unknown tx power.
_CSV_ROWS = ("%d,%s,%.4f,%.4f,%d\n", "%d,%s,%.4f,%.0s,%d\n")
_JSON_ROWS = tuple('    {\n      "timestamp_ms": %d,\n      "beacon_id": %s,\n'
                   '      "rssi_dbm": %r,\n      "tx_power_dbm": ' + tx + ',\n'
                   '      "channel": %d\n    }' for tx in ("%r", "null%.0s"))


def _rows(cols: SampleColumns, templates: tuple[str, str], beacon_ids: list[str]):
    """Each row formatted by one % template: templates[0] if its tx power is known, else [1]."""
    return map(str.__mod__, _take(templates, np.isnan(cols.tx_power_dbm)),
               zip(cols.timestamp_ms.tolist(), _take(beacon_ids, cols.beacon),
                   cols.rssi_dbm.tolist(), cols.tx_power_dbm.tolist(), cols.channel.tolist()))


def _csv_text(cols: SampleColumns) -> str:
    return _CSV_HEADER_LINE + "\n" + "".join(
        _rows(cols, _CSV_ROWS, [_csv_field(b) for b in cols.beacon_ids]))


def _json_text(trace: Trace) -> str:
    """The same text as json.dumps({"metadata": ..., "samples": [...]}, indent=2) + "\\n"."""
    cols = trace.samples
    head = json.dumps({"metadata": dict(sorted(trace.metadata.items())), "samples": []}, indent=2)
    if len(cols) == 0:
        return head + "\n"
    rows = _rows(cols, _JSON_ROWS, [json.dumps(b) for b in cols.beacon_ids])
    return head[:-len("]\n}")] + "\n" + ",\n".join(rows) + "\n  ]\n}\n"


def save_trace(trace: Trace, path: str, format: str = "csv") -> None:
    """Write a trace to disk atomically (temp file + rename).

    CSV quantizes rssi_dbm and tx_power_dbm to four decimal places; JSON
    keeps full float precision. For CSV, non-empty metadata goes to a
    ``<path>.meta.json`` sidecar, and a trace without metadata removes any
    sidecar an earlier save left there.
    """
    if format == "csv":
        atomic_write_text(path, _csv_text(trace.samples))
        sidecar = path + ".meta.json"
        if trace.metadata:
            atomic_write_text(sidecar, json.dumps(trace.metadata, indent=2, sort_keys=True) + "\n")
        else:
            try:
                os.remove(sidecar)
            except FileNotFoundError:
                pass
    elif format == "json":
        atomic_write_text(path, _json_text(trace))
    else:
        raise ValueError(f"unknown trace format {format!r}")


def trace_format_for_path(path: str) -> str:
    """Pick a serialization from a file extension (.json, else CSV)."""
    return "json" if path.lower().endswith(".json") else "csv"
