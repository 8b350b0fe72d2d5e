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

    The loader reads every file, CRLF, quoted ids and blank lines
    included, with the csv module a block of rows at a time: whole columns
    first, then rows, read again one at a time, only to name a bad line.

JSON::

    {"metadata": {...}, "samples": [{"timestamp_ms": 0, ...}, ...]}

    JSON preserves float values exactly and keeps metadata inline. The
    loader reads a file in any layout once, a sample at a time, with
    json's own scanner, and raises json.load's errors, placed in the file.
    A value a Trace rejects, or a timestamp running backwards, is named
    from the columns filled, read back a block of rows at a time.

Reading and writing go _BLOCK_ROWS rows at a time, so that a load or save
holds the trace's columns and one block, never the file's text.

A byte that is not UTF-8 anywhere in a file is its first error, in either
format, found by the pass that bounds its rows: TraceFormatError with its
path, then the message ``bytes.decode`` gives for the whole file.

Loading enforces that timestamps are non-decreasing per beacon in file
order; the in-memory Trace is always globally sorted by timestamp with a
stable sort, so ties keep file order. Timestamps must be below 2**63, the
int64 limit.
"""

from __future__ import annotations

import codecs
import csv
import errno
import io
import json
import math
import operator
import os
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice
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
        rssi = real(rssi_dbm, "rssi_dbm")
        if not RSSI_MIN_DBM <= rssi <= RSSI_MAX_DBM:  # NaN fails
            raise ValueError(f"rssi_dbm out of range [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}]: {rssi_dbm!r}")
        tx = None if tx_power_dbm is None else real(tx_power_dbm, "tx_power_dbm")
        if tx is not None and not TX_POWER_MIN_DBM <= tx <= TX_POWER_MAX_DBM:
            raise ValueError(f"tx_power_dbm out of range: {tx_power_dbm!r}")
        if channel not in VALID_CHANNELS:
            raise ValueError(f"channel must be one of {VALID_CHANNELS}, got {channel!r}")
        self.__dict__.update(timestamp_ms=timestamp_ms, beacon_id=beacon_id, rssi_dbm=rssi,
                             tx_power_dbm=tx, channel=channel)


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

    timestamp_ms is int64; beacon holds indices into beacon_ids, each in
    [0, len(beacon_ids)), a Trace refusing any other; rssi_dbm and
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
        # indexing checks i; the channel comes as stored, so a Trace can refuse 37.5 or NaN
        tx = float(self.tx_power_dbm[i])
        return (int(self.timestamp_ms[i]), self.beacon_ids[self.beacon[i]],
                float(self.rssi_dbm[i]), None if math.isnan(tx) else tx, self.channel.item(i))

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


_CHANNELS = frozenset(VALID_CHANNELS)


class _ColumnFill:
    """Columns allocated for at most n rows and filled a block of field values at a time.

    The one builder of a Trace's columns, from rows and files alike. The
    arrays are made here alone, in a Trace's dtypes, and beacon numbers ids
    in order of first appearance: a Trace takes the rows filled uncopied.
    """

    def __init__(self, n: int):
        self.arrays = [np.empty(n, dtype) for dtype in
                       (np.int64, np.intp, np.float64, np.float64, np.uint8)]
        self.position: dict[str, int] = {}  # beacon id -> its index
        self.filled = 0

    def add(self, fields: list[Sequence] | None) -> bool:
        """Store the next rows' values, one sequence per field, None tx power meaning unknown.

        False if fields is None or overruns n, or holds a number int64 or
        float64 cannot hold, or a channel or a NaN tx power the Trace would
        reject (the uint8 and NaN columns could not show it).
        """
        if fields is None:
            return False
        ts, beacon_id, rssi, tx, channel = fields
        start, stop = self.filled, self.filled + len(ts)
        try:
            tx_power = np.array(tx, dtype=np.float64)  # None becomes NaN
            if (stop > len(self.arrays[0]) or not _CHANNELS.issuperset(channel)
                    or np.count_nonzero(np.isnan(tx_power)) != tx.count(None)):
                return False
            position = self.position
            for b in dict.fromkeys(beacon_id):
                position.setdefault(b, len(position))
            beacon = np.fromiter(map(position.__getitem__, beacon_id), np.intp, len(beacon_id))
            for a, values in zip(self.arrays, (ts, beacon, rssi, tx_power, channel)):
                a[start:stop] = values
        except OverflowError:
            return False
        self.filled = stop
        return True

    def columns(self) -> SampleColumns:
        """The rows filled, read-only: no one else holds them, so a Trace keeps them uncopied."""
        ts, beacon, rssi, tx, channel = arrays = [a[:self.filled] for a in self.arrays]
        for a in arrays:
            a.flags.writeable = False
        return SampleColumns(ts, beacon, tuple(self.position), rssi, tx, channel)


_fields = operator.attrgetter(*CSV_HEADER)  # the header names the row fields


def _valid_id(beacon_id) -> bool:
    return (isinstance(beacon_id, str) and beacon_id != ""
            and not ("," in beacon_id or "\r" in beacon_id or "\n" in beacon_id))


def _first_bad_row(cols: SampleColumns) -> int | None:
    """Index of the first row RssiSample would reject, or None; the same checks, vectorised."""
    rssi, tx = cols.rssi_dbm, cols.tx_power_dbm
    # one False past the ids, for a beacon index beyond them
    good_id = np.array([_valid_id(b) for b in cols.beacon_ids] + [False], dtype=bool)
    ok = ((cols.timestamp_ms >= 0) & (cols.beacon >= 0) & good_id.take(cols.beacon, mode="clip")
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

    owned says that cols come from a _ColumnFill, whose beacon index
    already numbers the ids in order of first appearance. A caller's
    arrays are copied while writeable, so that changing them later cannot
    change the Trace.
    """
    ts, ids = cols.timestamp_ms, cols.beacon_ids
    arrays = [ts, cols.beacon, cols.rssi_dbm, cols.tx_power_dbm,
              cols.channel.astype(np.uint8, copy=False)]
    fresh, numbered = False, owned
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
                beacon, n = samples.beacon[bad], len(samples.beacon_ids)
                try:
                    if not 0 <= beacon < n:
                        raise ValueError(f"beacon index {beacon} is not in [0, {n})")
                    RssiSample(*samples._values(bad))
                except ValueError as exc:
                    raise ValueError(f"sample {bad}: {exc}") from None
            cols = _normalised(samples)
        else:
            rows = tuple(samples)
            if not all(isinstance(s, RssiSample) for s in rows):
                raise TypeError("Trace rows must be RssiSample instances")
            fill = _ColumnFill(len(rows))
            if not fill.add(list(zip(*map(_fields, rows))) or [()] * len(CSV_HEADER)):
                raise ValueError("a value the columns cannot hold")
            cols = _normalised(fill.columns(), owned=True)
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


def real(value, name: str) -> float:
    """value as float() gives it, for a value that is a number.

    The one rule for numbers: a bool, numpy bool, str, bytes or bytearray
    raises ValueError("{name} must be a number, got ..."), though float()
    would take it. Any other value float() cannot convert raises ValueError
    with float()'s own text. NaN and infinities pass; each caller checks
    its own range.
    """
    if type(value) is float:
        return value
    if isinstance(value, (bool, np.bool_, str, bytes, bytearray)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from exc


def real_pair(value, name: str) -> tuple[float, float]:
    """value unpacked into two numbers, each through real; any other shape raises ValueError."""
    try:
        a, b = value
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a pair of numbers") from exc
    return (real(a, name), real(b, name))


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


def _new_file(directory: str, suffix: str) -> tuple[int, str]:
    """A new file in directory, created exclusively as tempfile.mkstemp does, and its path.

    Unlike mkstemp's 0600, its mode is what open() gives a new file: 0o666
    less the umask.
    """
    flags = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
             | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0))
    for _ in range(tempfile.TMP_MAX):
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}{suffix}")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "no unused temporary name found", directory)


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, one str or an iterable of str chunks, to path via a sibling temp file and rename.

    The file gets the mode open(path, "w") would give a new file. A write
    that fails removes the temp file and leaves path as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = _new_file(directory, os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _round12(v: float) -> float:
    """Round to 12 significant digits so serialized reports are stable."""
    return float(f"{v:.12g}")


def rounded(doc):
    """doc with every float, at any depth, rounded by _round12.

    Dicts keep their key order and tuples become lists; every other value
    is returned unchanged. Every JSON artifact is written through here.
    """
    if isinstance(doc, float):
        return _round12(doc)
    if isinstance(doc, dict):
        return {key: rounded(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [rounded(value) for value in doc]
    return doc


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


def _filled_trace(fill: _ColumnFill, parsed: bool, metadata: dict[str, str], rows: Iterable,
                  parse_row) -> Trace:
    """The Trace of a file's rows in fill, or TraceFormatError naming the first bad row.

    parsed says that fill holds every row. Only when its Trace fails, or a
    timestamp runs backwards, are rows read: each (where, row) in file
    order, where naming the row in messages. A row fails, in file order, by
    not parsing by parse_row or by holding a value a Trace rejects; only
    when every row is sound does a timestamp running backwards for its
    beacon fail. A row past fill's n says that the file grew after _count.
    """
    cols = fill.columns()
    backwards = _first_backwards(cols) if parsed else None
    if parsed and backwards is None:
        try:
            return Trace(cols, metadata)
        except ValueError:
            pass
    for i, (where, row) in enumerate(rows):
        if i == len(fill.arrays[0]):
            raise TraceFormatError(f"{where}: the file changed while it was read: more rows than counted")
        try:
            RssiSample(*parse_row(row))
        except (ValueError, OverflowError) as exc:
            raise TraceFormatError(f"{where}: {exc}") from None
        if backwards is not None and i == backwards[0]:
            timestamp_ms, beacon_id = cols._values(i)[:2]
            error = TraceFormatError(f"{where}: timestamp {timestamp_ms} for beacon {beacon_id!r} "
                                     f"goes backwards (previous {backwards[1]})")
    if backwards is None:
        raise AssertionError("the columns were rejected but every row checks")
    raise error


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


# Trace files are read and written this many rows (CSV lines, JSON
# samples) at a time, so that a load or save holds the trace's columns and
# one block, never the file's text or a Python object per row of it.
_BLOCK_ROWS = 1024
_READ_BYTES = 1 << 18  # what a binary file is read in while counting its rows
_JSON_CHARS = 1 << 16  # what a JSON trace's text is read in: a window a few hundred samples long


def _count(path: str, count) -> int:
    """count(chunk) summed over binary file path read _READ_BYTES at a time: a bound on its rows.

    Each chunk is decoded too, the one UTF-8 check of a trace file: a bad byte
    raises TraceFormatError, the path, then what bytes.decode says of the file.
    """
    decode, rows = codecs.getincrementaldecoder("utf-8")().decode, 0
    with open(path, "rb") as fh:
        try:
            for chunk in chain(iter(lambda: fh.read(_READ_BYTES), b""), [b""]):
                decode(chunk, not chunk)  # final at the empty chunk after the last
                rows += count(chunk)
        except UnicodeDecodeError as exc:  # in exc.object: bytes held back, then the chunk just read
            start, last = (fh.tell() - len(exc.object) + i for i in (exc.start, exc.end - 1))
            what = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if start == last
                    else f"bytes in position {start}-{last}")
            raise TraceFormatError(f"{path}: '{exc.encoding}' codec can't decode {what}: "
                                   f"{exc.reason}") from None
    return rows


def _csv_blocks(fh, size: int):
    """csv.reader's non-blank rows of text fh after the header, `size` at a time.

    Yields each block with the line its last row ends on (a quoted field
    may span lines). A missing or bad header, or a csv.Error, raises
    TraceFormatError naming its line.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header != CSV_HEADER:
            raise TraceFormatError("line 1: missing header" if header is None
                                   else f"line 1: bad header {header!r}")
        rows = filter(None, reader)
        while block := list(islice(rows, size)):
            yield reader.line_num, block
    except csv.Error as exc:
        raise TraceFormatError(f"line {reader.line_num}: {exc}") from None


def _csv_rows(path: str):
    """Each ("line N", row) of a CSV file, read again by csv.reader a row at a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line, [row] in _csv_blocks(fh, 1):
            yield f"line {line}", row


def _load_csv(path: str) -> Trace:
    """A CSV trace read by csv.reader _BLOCK_ROWS rows at a time, or the TraceFormatError naming its line.

    Errors come as in a whole-file read: a byte that is not UTF-8, the
    header, a csv.Error anywhere, the sidecar, the first bad row (read
    again a row at a time, once the columns fail), then a timestamp running
    backwards.
    """
    # each row, the header's too, ends at a line end, as csv.reader ends
    # lines, or at the end of the file; a CRLF cut by a read counts twice
    fill = _ColumnFill(_count(path, lambda chunk: (chunk.count(b"\n") + chunk.count(b"\r")
                                                   - chunk.count(b"\r\n"))))
    parsed = True
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for _, rows in _csv_blocks(fh, _BLOCK_ROWS):
            parsed = parsed and fill.add(_csv_fields(rows))  # read on: a later csv.Error wins
    return _filled_trace(fill, parsed, _read_sidecar(path), _csv_rows(path), _csv_row)


# A JSON sample's typed fields: (field, default, allowed JSON types, what it must be)
_JSON_FIELDS = (
    ("timestamp_ms", None, {int}, "an integer"),
    ("beacon_id", "", {str}, "a string"),
    ("rssi_dbm", None, {int, float}, "a number"),
    ("tx_power_dbm", None, {int, float, type(None)}, "a number or null"),
    ("channel", 37, {int}, "an integer"),
)


def _json_columns(items: list) -> list[list]:
    """The samples' values field by field, in CSV header order.

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
    return columns


def _json_row(item) -> tuple:
    ts, beacon_id, rssi, tx, ch = (column[0] for column in _json_columns([item]))
    return ts, beacon_id, float(rssi), None if tx is None else float(tx), ch


# One row of each file, by whether its tx power is known. "%.4f" formats as
# "{:.4f}" does, "%r" of a float is float.__repr__ (as in json.dumps), and
# "%.0s" drops the NaN of an unknown tx power.
_CSV_ROWS = ("%d,%s,%.4f,%.4f,%d\n", "%d,%s,%.4f,%.0s,%d\n")
_JSON_ROWS = tuple('    {\n      "timestamp_ms": %d,\n      "beacon_id": %s,\n'
                   '      "rssi_dbm": %r,\n      "tx_power_dbm": ' + tx + ',\n'
                   '      "channel": %d\n    }' for tx in ("%r", "null%.0s"))
_JSON_END = "  ]\n}\n"  # the lines after the last sample's


def _json_head(metadata: Mapping[str, str]) -> str:
    """A JSON trace's text before its first sample, ending '  "samples": [' and a newline."""
    text = json.dumps({"metadata": dict(sorted(metadata.items())), "samples": []}, indent=2)
    return text[:-len("]\n}")] + "\n"


class _JsonText:
    """A JSON text file read _JSON_CHARS characters at a time, its values parsed by json's own scanner.

    Its errors are json.load's, each placed by line, column and character
    in the file: the text dropped from the window is counted as it goes.
    """

    def __init__(self, fh):
        self.fh, self.text, self.pos = fh, "", 0
        # characters and "\n"s before text, and the file position where text's first line starts
        self.dropped = self.lines = self.line_start = 0
        # what json.load parses each value with, and skips whitespace with
        self.scan, self.skip = json.JSONDecoder().scan_once, json.decoder.WHITESPACE.match

    def _more(self) -> bool:
        """Read on, at least as much as is left after pos, dropping what is before; False at the end."""
        more = self.fh.read(max(_JSON_CHARS, len(self.text) - self.pos))
        if more:
            self.lines += self.text.count("\n", 0, self.pos)
            last = self.text.rfind("\n", 0, self.pos)
            self.line_start = self.line_start if last < 0 else self.dropped + last + 1
            self.dropped += self.pos
            self.text, self.pos = self.text[self.pos:] + more, 0
        return more != ""

    def char(self) -> str:
        """The next character after JSON whitespace, not consumed; "" at the end of the file."""
        while True:
            self.pos = self.skip(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos:self.pos + 1]

    def take(self, chars: str, msg: str) -> str:
        """The next character after whitespace if one of chars, consumed; else json.load's error msg."""
        char = self.char()
        if not char or char not in chars:
            raise self.error(msg, self.pos)
        self.pos += 1
        return char

    def error(self, msg: str, at: int | None = None) -> TraceFormatError:
        """json.load's error msg at text position at, placed in the file as JSONDecodeError places it.

        Nothing more is read: _count has found any byte that is not UTF-8.
        """
        if at is not None:
            last = self.text.rfind("\n", 0, at)
            start = self.line_start if last < 0 else self.dropped + last + 1
            line = self.lines + self.text.count("\n", 0, at) + 1
            msg = f"{msg}: line {line} column {self.dropped + at - start + 1} (char {self.dropped + at})"
        return TraceFormatError(f"{self.fh.name}: {msg}")

    def value(self):
        """The next value after whitespace, as json.load parses it, or json.load's error.

        A value that ends less than three characters before the text read
        is parsed again with more text: "1", "1.", "1e" and "1e+" each go
        on in "1.5e+2". So is one that fails in an unterminated string, or
        too near the text's end to hold "-Infinity", the longest token,
        where more text may mend it. Any other failure is the file's.
        """
        while True:
            self.pos = self.skip(self.text, self.pos).end()
            try:
                value, end = self.scan(self.text, self.pos)
            except StopIteration as exc:  # no value at exc.value, in json.decoder's words
                msg, at = "Expecting value", exc.value
            except json.JSONDecodeError as exc:
                msg, at = exc.msg, exc.pos
            except (ValueError, RecursionError) as exc:  # too many digits, or nested too deeply
                raise self.error(str(exc)) from None
            else:
                if end + 3 <= len(self.text) or not self._more():
                    self.pos = end
                    return value
                continue
            cut = at + len("-Infinity") > len(self.text) or msg.startswith("Unterminated string")
            if not (cut and self._more()):
                raise self.error(msg, at)


def _json_samples(doc: _JsonText, n: int) -> tuple[_ColumnFill, list | None]:
    """The items of the array at doc's "[", read into columns for n rows _BLOCK_ROWS at a time.

    Returns the columns and the first block of items they refused, or
    None; the items after that block are parsed and dropped.
    """
    fill, block, refused = _ColumnFill(n), [], None
    doc.pos += 1
    end = doc.char()
    if end == "]":
        doc.pos += 1
    while end != "]":
        block.append(doc.value())
        end = doc.take(",]", "Expecting ',' delimiter")
        if len(block) == _BLOCK_ROWS or end == "]":
            try:  # once a block is refused, no later one is filled
                refused = refused or (None if fill.add(_json_columns(block)) else block)
            except ValueError:  # an item that is not an object of its fields' types
                refused = block
            block = []
    return fill, refused


def _streamed_json(path: str) -> Trace:
    """A JSON trace in any layout, read once, its samples _BLOCK_ROWS at a time by json's scanner.

    The file is opened as json.load's is, so each value is json.load's and
    so is each error, in the order a whole-file read meets them: a byte
    that is not UTF-8 anywhere in the file (TraceFormatError, found by
    _count before any value is parsed), json's own error placed in the file,
    then the top level (an array is read a block at a time, as "samples"
    is: 1.5 MiB at peak for 60,000 samples, 2.9 MiB as written), the last
    "samples" key and "metadata". Then _filled_trace gives the Trace, or
    names the first bad sample in file order or a timestamp running
    backwards, from the columns filled and the block of samples they
    refused, if any, read back a block at a time.
    """
    n = _count(path, lambda chunk: chunk.count(b"{"))  # every sample is an object
    no_samples = samples = object()  # until a "samples" key is read
    metadata = {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = _JsonText(fh)
        if doc.char() == "\ufeff" and doc.dropped + doc.pos == 0:
            raise doc.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        is_object = doc.char() == "{"
        if not is_object:  # an array is read as "samples" is, then refused below
            _json_samples(doc, 0) if doc.char() == "[" else doc.value()
        else:
            doc.pos += 1
            end = doc.char()
            if end == "}":
                doc.pos += 1
            while end != "}":
                if doc.char() != '"':
                    raise doc.error("Expecting property name enclosed in double quotes", doc.pos)
                key = doc.value()
                doc.take(":", "Expecting ':' delimiter")
                if key != "samples":
                    value = doc.value()
                    metadata = value if key == "metadata" else metadata
                else:
                    samples = None  # the last "samples" key wins: drop what came before it
                    samples = _json_samples(doc, n) if doc.char() == "[" else doc.value()
                end = doc.take(",}", "Expecting ',' delimiter")
        if doc.char() != "":
            raise doc.error("Extra data", doc.pos)
    if not is_object or samples is no_samples:
        raise TraceFormatError("top level must be an object with a 'samples' array")
    if not isinstance(samples, tuple):  # json gives no tuple: samples is not an array
        raise TraceFormatError("'samples' must be an array")
    if not isinstance(metadata, dict):
        raise TraceFormatError("'metadata' must be an object")
    fill, refused = samples
    cols = fill.columns()
    rows = chain((row for start in range(0, len(cols), _BLOCK_ROWS)
                  for row in cols[start:start + _BLOCK_ROWS]), refused or ())
    return _filled_trace(fill, refused is None, {str(k): str(v) for k, v in metadata.items()},
                         ((f"sample {i}", row) for i, row in enumerate(rows)),
                         lambda row: _fields(row) if isinstance(row, RssiSample) else _json_row(row))


def load_trace(path: str, format: str = "csv") -> Trace:
    """Read a trace from disk.

    format is "csv" or "json"; anything else raises ValueError. Structural
    problems in the file raise TraceFormatError with a location in the
    message.

    A file is read once, _BLOCK_ROWS rows at a time, into columns
    allocated for a bound on its row count, so the load holds the Trace's
    columns and one block: a CSV file by the csv module, a JSON file in any
    layout by json's own scanner. A CSV file whose columns fail is read
    again a row at a time to name its first bad line. A JSON file names
    its first bad sample, or a timestamp running backwards, from those
    columns and the one block of samples they refused; its errors are
    those json.load and the document checks give, in the same order. In
    either format, a byte that is not UTF-8 anywhere comes first: found by
    the pass that bounds the rows, it raises TraceFormatError with the path
    and the message a whole-file decode gives.
    """
    if format == "csv":
        return _load_csv(path)
    if format != "json":
        raise ValueError(f"unknown trace format {format!r}")
    return _streamed_json(path)


def _csv_field(text: str) -> str:
    """One field as csv.writer writes it (quoted only where needed)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _rows(cols: SampleColumns, templates: tuple[str, str], beacon_ids: list[str]):
    """Each row formatted by one % template: templates[0] if its tx power is known, else [1]."""
    return map(str.__mod__, _take(templates, np.isnan(cols.tx_power_dbm)),
               zip(cols.timestamp_ms.tolist(), _take(beacon_ids, cols.beacon),
                   cols.rssi_dbm.tolist(), cols.tx_power_dbm.tolist(), cols.channel.tolist()))


def _row_blocks(cols: SampleColumns, templates: tuple[str, str], beacon_ids: list[str]):
    """_rows of each block of _BLOCK_ROWS rows in turn."""
    for start in range(0, len(cols), _BLOCK_ROWS):
        yield _rows(cols.select(slice(start, start + _BLOCK_ROWS)), templates, beacon_ids)


def _csv_chunks(cols: SampleColumns):
    yield ",".join(CSV_HEADER) + "\n"
    for rows in _row_blocks(cols, _CSV_ROWS, [_csv_field(b) for b in cols.beacon_ids]):
        yield "".join(rows)


def _json_chunks(trace: Trace):
    """The same text as json.dumps({"metadata": ..., "samples": [...]}, indent=2) + "\\n"."""
    cols = trace.samples
    head = _json_head(trace.metadata)
    if len(cols) == 0:
        yield head[:-1] + "]\n}\n"
        return
    yield head
    separator = ""
    for rows in _row_blocks(cols, _JSON_ROWS, [json.dumps(b) for b in cols.beacon_ids]):
        yield separator + ",\n".join(rows)
        separator = ",\n"
    yield "\n" + _JSON_END


def save_trace(trace: Trace, path: str, format: str = "csv") -> None:
    """Write a trace to disk atomically (temp file + rename).

    CSV quantizes rssi_dbm and tx_power_dbm to four decimal places; JSON
    keeps full float precision. For CSV, non-empty metadata goes to a
    ``<path>.meta.json`` sidecar, and a trace without metadata removes any
    sidecar an earlier save left there.

    Rows are formatted and written _BLOCK_ROWS at a time, so a save holds
    one block of text beyond the trace. The files get the mode open()
    gives a new file (0o666 less the umask).
    """
    if format == "csv":
        atomic_write_text(path, _csv_chunks(trace.samples))
        sidecar = path + ".meta.json"
        if trace.metadata:
            atomic_write_text(sidecar, json.dumps(trace.metadata, indent=2, sort_keys=True) + "\n")
        else:
            try:
                os.remove(sidecar)
            except FileNotFoundError:
                pass
    elif format == "json":
        atomic_write_text(path, _json_chunks(trace))
    else:
        raise ValueError(f"unknown trace format {format!r}")


def trace_format_for_path(path: str) -> str:
    """Pick a serialization from a file extension (.json, else CSV)."""
    return "json" if path.lower().endswith(".json") else "csv"
