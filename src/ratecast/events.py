"""Transfer-event logs: a columnar log type, CSV ingest, cleaning rules, canonical time ordering."""

from __future__ import annotations

import csv
import enum
import math
import re
from collections import deque
from dataclasses import dataclass, fields
from itertools import islice, repeat
from operator import attrgetter, index
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .artifacts import JsonArtifact

#: Fields whose values repeat across events; a log holds them as codes.
_CATEGORICAL_FIELDS = ("instrument", "experiment", "target_host", "target_fs", "source_fs", "node")
#: Fields held as codes plus a category list: the categorical ones and the stage.
_CODED_FIELDS = (*_CATEGORICAL_FIELDS, "stage")
CSV_COLUMNS = (
    "start_time", "stop_time", "file_size_gb", "transfer_rate_mbs",
    *_CATEGORICAL_FIELDS, "file_name", "stage",
)

KNOWN_INSTRUMENTS = ("cxi", "xpp", "mec", "xcs", "sxr", "mfx", "amo")

#: Files larger than this (decimal GB) are treated as misconfigured and dropped.
OVERSIZE_LIMIT_GB = 1000.0

#: Timestamps must lie within ±TIME_LIMIT_S unix seconds, which keeps every
#: derived int64 (a time zone shift, a stop-to-start difference) from overflow.
TIME_LIMIT_S = 2**61
#: Rows parsed or yielded at a time: bounds the cell strs or events alive at once.
_ROW_BLOCK = 4096


class Stage(enum.Enum):
    """Transfer stage: data-storage-subnet to fast-feedback, or fast-feedback to analysis."""

    DSS_TO_FFB = "DSS_TO_FFB"
    FFB_TO_ANA = "FFB_TO_ANA"


class CsvSchemaError(ValueError):
    """Header does not match the transfer-event CSV schema."""


class CsvRowError(ValueError):
    """A data row could not be parsed into a TransferEvent."""

    def __init__(self, row_index: int, message: str):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


@dataclass(frozen=True, slots=True)
class TransferEvent:
    """One monitored file transfer: the row type of an :class:`EventLog`.

    Units are fixed: ``file_size_gb`` is decimal gigabytes (GB = 10^9 bytes),
    ``transfer_rate_mbs`` is decimal megabytes per second (MB = 10^6 bytes).
    Timestamps are unix seconds within ±:data:`TIME_LIMIT_S`. The recorded
    rate is authoritative and is never recomputed from size and duration:
    one-second timestamp granularity makes such a recomputation disagree
    with the monitored value.
    """

    id: int
    start_time: int
    stop_time: int
    file_size_gb: float
    transfer_rate_mbs: float
    instrument: str
    experiment: str
    target_host: str
    target_fs: str
    source_fs: str
    node: str
    file_name: str
    stage: Stage

    def __post_init__(self) -> None:
        if (message := _times_error(self.start_time, self.stop_time)) is not None:
            raise ValueError(message)


def _times_error(start: int, stop: int) -> str | None:
    """What is wrong with an event's timestamps: the range, then the order; None if nothing."""
    for name, time in (("start_time", start), ("stop_time", stop)):
        if not -TIME_LIMIT_S <= time <= TIME_LIMIT_S:
            return f"{name} {time} is outside the supported range of ±2**61 s"
    if stop < start:
        return f"stop_time {stop} precedes start_time {start}"
    return None


_FIELD_NAMES = tuple(f.name for f in fields(TransferEvent))
_SLOT_SETTERS = tuple(getattr(TransferEvent, name).__set__ for name in _FIELD_NAMES)


def _rows(fields: list[Iterable]) -> list[TransferEvent]:
    """TransferEvents of per-field values, filled one field at a time without
    re-running ``__post_init__``: a log's columns were checked when it was built."""
    rows = list(map(object.__new__, repeat(TransferEvent, len(fields[0]))))
    for set_slot, values in zip(_SLOT_SETTERS, fields):
        deque(map(set_slot, rows, values), maxlen=0)
    return rows


def _factorise(values: Sequence, position: dict | None = None) -> tuple[np.ndarray, list]:
    """(codes, keys): int64 codes in order of first appearance and the distinct
    values in code order; None becomes -1 and is not a key. ``position`` (value
    to code, updated in place) continues the coding of earlier calls."""
    position = {None: -1} if position is None else position
    for value in dict.fromkeys(values):
        position.setdefault(value, len(position) - 1)
    codes = np.fromiter(map(position.__getitem__, values), np.int64, len(values))
    return codes, [value for value in position if value is not None]


class EventLog:
    """An immutable transfer-event log held as columns.

    ``ids``, ``starts`` and ``stops`` are int64 arrays, ``sizes`` and ``rates``
    float64 arrays and ``file_names`` an object array of str, all read-only.
    Each categorical field and the stage is held as ``codes[field]``, int64
    codes in order of first appearance in this log, and ``categories[field]``,
    the distinct values in code order (Stage members for the stage). A log
    made from another one (cleaned, sorted, sliced) recodes its categories,
    so a log codes exactly the values it holds.

    Iterating a log, or indexing it with an int, yields :class:`TransferEvent`
    rows; a slice gives a log, and ``from_events`` makes a log of rows. Arrays
    derived from the columns (time ranks, key codes) are computed once per log
    through :meth:`derived`.
    """

    def __init__(self, ids, starts, stops, sizes, rates, codes, categories, file_names):
        # The int64 columns are the rows of one array and the float64 ones of another.
        # With one buffer per column, a 50k-event feature pass peaked about 20 MB
        # higher: the log's buffers split the freed heap that later large ones reuse.
        ints = np.array([ids, starts, stops, *(codes[f] for f in _CODED_FIELDS)], dtype=np.int64)
        floats = np.array([sizes, rates], dtype=np.float64)
        for array in (ints, floats, file_names):
            array.flags.writeable = False
        (self.ids, self.starts, self.stops, *coded), (self.sizes, self.rates) = ints, floats
        self.codes = dict(zip(_CODED_FIELDS, coded))
        self.file_names = file_names
        self.categories = {field: list(categories[field]) for field in _CODED_FIELDS}
        self._derived: dict = {}

    @classmethod
    def _from_columns(cls, ids, starts, stops, sizes, rates, *coded) -> "EventLog":
        """The log of checked value sequences in TransferEvent field order."""
        *coded, file_names, stages = coded
        codes, categories = zip(*map(_factorise, (*coded, stages)))
        return cls(
            ids, starts, stops, sizes, rates, dict(zip(_CODED_FIELDS, codes)),
            dict(zip(_CODED_FIELDS, categories)), np.array(file_names, dtype=object).reshape(-1),
        )

    @classmethod
    def from_events(cls, events: Iterable[TransferEvent]) -> "EventLog":
        """The log of ``events``, in their order."""
        columns = list(zip(*map(attrgetter(*_FIELD_NAMES), events)))
        return cls._from_columns(*(columns or [()] * len(_FIELD_NAMES)))

    def __len__(self) -> int:
        return len(self.ids)

    def _fields(self, rows: slice) -> list[Iterable]:
        """The values of ``rows``, one iterable per field in TransferEvent order."""
        numbers = (self.ids, self.starts, self.stops, self.sizes, self.rates)
        *coded, stages = (
            map(self.categories[field].__getitem__, self.codes[field][rows].tolist())
            for field in _CODED_FIELDS
        )
        names = self.file_names[rows].tolist()
        return [*(a[rows].tolist() for a in numbers), *coded, names, stages]

    def __iter__(self) -> Iterator[TransferEvent]:
        for lo in range(0, len(self), _ROW_BLOCK):
            yield from _rows(self._fields(slice(lo, lo + _ROW_BLOCK)))

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(key)
        i = range(len(self))[index(key)]
        return _rows(self._fields(slice(i, i + 1)))[0]

    def take(self, rows) -> "EventLog":
        """The log of ``rows``: a slice, a boolean mask or an array of row indices."""
        codes, categories = {}, {}
        for field in _CODED_FIELDS:
            codes[field], held = _factorise(self.codes[field][rows].tolist())
            categories[field] = [self.categories[field][code] for code in held]
        return EventLog(
            self.ids[rows], self.starts[rows], self.stops[rows], self.sizes[rows],
            self.rates[rows], codes, categories, self.file_names[rows],
        )

    def derived(self, key, compute: Callable):
        """``compute()``, computed on the first call per ``key``: a log never changes."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]


@dataclass(frozen=True)
class CleaningReport(JsonArtifact):
    """Counts of records removed by each cleaning rule (``clean.json``)."""

    n_input: int
    n_oversize_removed: int
    n_zero_removed: int
    n_output: int

    def __post_init__(self) -> None:
        if self.n_output != self.n_input - self.n_oversize_removed - self.n_zero_removed:
            raise ValueError("cleaning report counts do not balance")


_STAGES = {stage.value: stage for stage in Stage}


def _row_error(row: list[str]) -> str | None:
    """The first check a CSV row fails, in the order field count, integer
    timestamps, numbers, finite size and rate, stage, timestamp range, time
    order; None if it passes them all."""
    if len(row) != len(CSV_COLUMNS):
        return f"expected {len(CSV_COLUMNS)} fields, got {len(row)}"
    try:
        start, stop = int(row[0]), int(row[1])
    except ValueError as exc:
        return f"bad timestamp: {exc}"
    try:
        numbers = list(map(float, row[2:4]))
    except ValueError as exc:
        return f"bad numeric field: {exc}"
    for name, value, cell in zip(CSV_COLUMNS[2:4], numbers, row[2:4]):
        if not math.isfinite(value):
            return f"non-finite {name}: {cell!r}"
    if row[-1] not in _STAGES:
        return f"unknown stage {row[-1]!r}"
    return _times_error(start, stop)


def _parse_block(row_index: list[int], rows: list[list[str]], positions: dict) -> list:
    """Ids, starts, stops, sizes, rates, the codes of ``_CODED_FIELDS`` (continuing
    ``positions``) and the file names of non-blank CSV rows. Whole columns are
    converted and checked at once; only a block that fails is walked row by row,
    to raise the first bad row's CsvRowError."""
    n = len(rows)
    cells = dict(zip(CSV_COLUMNS, list(zip(*rows)) or [()] * len(CSV_COLUMNS)))
    try:
        if set(map(len, rows)) - {len(CSV_COLUMNS)}:
            raise ValueError("a row has the wrong number of fields")
        starts, stops = (np.fromiter(map(int, cells[c]), np.int64, n) for c in CSV_COLUMNS[:2])
        sizes, rates = (np.fromiter(map(float, cells[c]), np.float64, n) for c in CSV_COLUMNS[2:4])
        stages, names = _factorise(cells["stage"], positions["stage"])
        valid = (
            np.isfinite(sizes).all() and np.isfinite(rates).all() and set(names) <= _STAGES.keys()
            and ((-TIME_LIMIT_S <= starts) & (starts <= stops) & (stops <= TIME_LIMIT_S)).all()
        )
    except (ValueError, OverflowError):  # a cell that int or float rejects, or beyond int64
        valid = False
    if not valid:
        raise next(CsvRowError(i, m) for i, row in zip(row_index, rows) if (m := _row_error(row)))
    return [
        np.array(row_index, dtype=np.int64), starts, stops, sizes, rates,
        *(_factorise(cells[field], positions[field])[0] for field in _CATEGORICAL_FIELDS),
        stages, np.array(cells["file_name"], dtype=object).reshape(-1),
    ]


def parse_event_csv(source: IO[str]) -> EventLog:
    """Parse a transfer-event CSV text stream into an :class:`EventLog`.

    The header must match :data:`CSV_COLUMNS` exactly. Event ids are assigned
    as the 0-based data-row index in order of appearance; blank lines are
    skipped but counted. Unparseable rows, including NaN or infinite sizes
    and rates and timestamps outside ±:data:`TIME_LIMIT_S`, raise
    :class:`CsvRowError` naming the first such row rather than being skipped.
    Open a file with ``newline=""``, so that quoted fields keep their line ends.
    """
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvSchemaError("empty input: missing header") from None
    if tuple(header) != CSV_COLUMNS:
        if missing := [c for c in CSV_COLUMNS if c not in header]:
            raise CsvSchemaError(f"missing column {missing[0]!r}")
        if extra := [c for c in header if c not in CSV_COLUMNS]:
            raise CsvSchemaError(f"unknown column {extra[0]!r}")
        raise CsvSchemaError(f"columns out of order: got {header!r}")
    positions = {field: {None: -1} for field in _CODED_FIELDS}
    blocks = [_parse_block([], [], positions)]
    numbered = ((i, row) for i, row in enumerate(reader) if row)
    while chunk := list(islice(numbered, _ROW_BLOCK)):
        blocks.append(_parse_block(*map(list, zip(*chunk)), positions))
    *columns, file_names = (np.concatenate(parts) for parts in zip(*blocks))
    categories = {field: [v for v in positions[field] if v is not None] for field in _CODED_FIELDS}
    categories["stage"] = list(map(_STAGES.__getitem__, categories["stage"]))
    return EventLog(*columns[:5], dict(zip(_CODED_FIELDS, columns[5:])), categories, file_names)


def load_events(path: str) -> EventLog:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_event_csv(fh)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
# 17 significant digits guarantee bit-exact float round-trips.
_EVENT_LINE = "{},{},{:.17g},{:.17g},{},{},{},{},{},{},{},{}\n".format


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, its quotes doubled, exactly when it holds
    a comma, a quote, a CR or a LF (the ``csv`` module's writer, set to LF line
    ends, leaves a CR bare, which a reader takes for a line end)."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def csv_line(texts: Iterable[str]) -> str:
    return ",".join(map(csv_field, texts)) + "\n"


def write_event_csv(log: EventLog, sink: IO[str]) -> None:
    """Write ``log`` as CSV, ``_ROW_BLOCK`` rows at a time; each category's
    field text is made once per distinct value and picked by code."""
    sink.write(csv_line(CSV_COLUMNS))
    texts = {f: list(map(csv_field, log.categories[f])) for f in _CATEGORICAL_FIELDS}
    texts["stage"] = [csv_field(stage.value) for stage in log.categories["stage"]]
    for lo in range(0, len(log), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        numbers = (a[rows].tolist() for a in (log.starts, log.stops, log.sizes, log.rates))
        *coded, stages = (
            map(texts[f].__getitem__, log.codes[f][rows].tolist()) for f in _CODED_FIELDS
        )
        names = map(csv_field, log.file_names[rows].tolist())
        sink.write("".join(map(_EVENT_LINE, *numbers, *coded, names, stages)))


def dump_events(log: EventLog, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_event_csv(log, fh)


def clean_events(log: EventLog) -> tuple[EventLog, CleaningReport]:
    """Drop oversize and zero-valued records, preserving relative order.

    Removal classes, applied per event in priority order:

    * oversize: ``file_size_gb`` > :data:`OVERSIZE_LIMIT_GB`,
    * zero: non-positive ``file_size_gb`` or ``transfer_rate_mbs``.

    An event matching both rules is counted once, under oversize, so the
    report is deterministic. A log that loses no record is returned as is.
    """
    oversize = log.sizes > OVERSIZE_LIMIT_GB
    zero = ~oversize & ((log.sizes <= 0.0) | (log.rates <= 0.0))
    kept = ~(oversize | zero)
    report = CleaningReport(len(log), int(oversize.sum()), int(zero.sum()), int(kept.sum()))
    return (log if report.n_output == len(log) else log.take(kept)), report


def sort_by_start(log: EventLog) -> EventLog:
    """Canonical time order: (start_time, stop_time, id), stable and total.
    A log already in that order is returned as is."""
    order = np.lexsort((log.ids, log.stops, log.starts))
    return log if np.array_equal(order, np.arange(len(log))) else log.take(order)
