"""Transfer-event records: CSV ingest, cleaning rules, canonical time ordering."""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

CSV_COLUMNS = (
    "start_time",
    "stop_time",
    "file_size_gb",
    "transfer_rate_mbs",
    "instrument",
    "experiment",
    "target_host",
    "target_fs",
    "source_fs",
    "node",
    "file_name",
    "stage",
)

#: Fields whose values repeat across events; one parse shares one str per value.
_CATEGORICAL_FIELDS = ("instrument", "experiment", "target_host", "target_fs", "source_fs", "node")

KNOWN_INSTRUMENTS = ("cxi", "xpp", "mec", "xcs", "sxr", "mfx", "amo")

#: Files larger than this (decimal GB) are treated as misconfigured and dropped.
OVERSIZE_LIMIT_GB = 1000.0


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
    """One monitored file transfer.

    Units are fixed: ``file_size_gb`` is decimal gigabytes (GB = 10^9 bytes),
    ``transfer_rate_mbs`` is decimal megabytes per second (MB = 10^6 bytes).
    Timestamps are unix seconds. The recorded rate is authoritative and is
    never recomputed from size and duration: one-second timestamp granularity
    makes such a recomputation disagree with the monitored value.
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
        if self.stop_time < self.start_time:
            raise ValueError(
                f"stop_time {self.stop_time} precedes start_time {self.start_time}"
            )


@dataclass(frozen=True)
class CleaningReport:
    """Counts of records removed by each cleaning rule."""

    n_input: int
    n_oversize_removed: int
    n_zero_removed: int
    n_output: int

    def __post_init__(self) -> None:
        if self.n_output != self.n_input - self.n_oversize_removed - self.n_zero_removed:
            raise ValueError("cleaning report counts do not balance")


def _parse_row(row_index: int, row: Sequence[str], shared: dict[str, str]) -> TransferEvent:
    if len(row) != len(CSV_COLUMNS):
        raise CsvRowError(
            row_index, f"expected {len(CSV_COLUMNS)} fields, got {len(row)}"
        )
    rec = dict(zip(CSV_COLUMNS, row))
    try:
        start_time = int(rec["start_time"])
        stop_time = int(rec["stop_time"])
    except ValueError as exc:
        raise CsvRowError(row_index, f"bad timestamp: {exc}") from exc
    try:
        file_size_gb = float(rec["file_size_gb"])
        transfer_rate_mbs = float(rec["transfer_rate_mbs"])
    except ValueError as exc:
        raise CsvRowError(row_index, f"bad numeric field: {exc}") from exc
    for name, value in (("file_size_gb", file_size_gb), ("transfer_rate_mbs", transfer_rate_mbs)):
        if not math.isfinite(value):
            raise CsvRowError(row_index, f"non-finite {name}: {rec[name]!r}")
    try:
        stage = Stage(rec["stage"])
    except ValueError as exc:
        raise CsvRowError(row_index, f"unknown stage {rec['stage']!r}") from exc
    try:
        return TransferEvent(
            id=row_index,
            start_time=start_time,
            stop_time=stop_time,
            file_size_gb=file_size_gb,
            transfer_rate_mbs=transfer_rate_mbs,
            **{name: shared.setdefault(rec[name], rec[name]) for name in _CATEGORICAL_FIELDS},
            file_name=rec["file_name"],
            stage=stage,
        )
    except ValueError as exc:
        raise CsvRowError(row_index, str(exc)) from exc


def parse_event_csv(source: IO[bytes] | IO[str]) -> list[TransferEvent]:
    """Parse a transfer-event CSV stream into a list of events.

    The header must match :data:`CSV_COLUMNS` exactly. Event ids are assigned
    as the 0-based data-row index in order of appearance. Unparseable rows,
    including NaN or infinite sizes and rates, raise :class:`CsvRowError`
    rather than being skipped.
    """
    if isinstance(source, io.TextIOBase):
        text = source
    elif hasattr(source, "read"):
        text = io.TextIOWrapper(source, encoding="utf-8", newline="")
    else:
        raise TypeError("source must be a readable text or byte stream")
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvSchemaError("empty input: missing header") from None
    if tuple(header) != CSV_COLUMNS:
        missing = [c for c in CSV_COLUMNS if c not in header]
        extra = [c for c in header if c not in CSV_COLUMNS]
        if missing:
            raise CsvSchemaError(f"missing column {missing[0]!r}")
        if extra:
            raise CsvSchemaError(f"unknown column {extra[0]!r}")
        raise CsvSchemaError(f"columns out of order: got {header!r}")
    events = []
    shared: dict[str, str] = {}
    for i, row in enumerate(reader):
        if not row:
            continue
        events.append(_parse_row(i, row, shared))
    return events


def load_events(path: str) -> list[TransferEvent]:
    with open(path, "rb") as fh:
        return parse_event_csv(fh)


def _fmt_float(value: float) -> str:
    # 17 significant digits guarantee bit-exact float round-trips.
    return format(value, ".17g")


def write_event_csv(events: Iterable[TransferEvent], sink: IO[str]) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in events:
        writer.writerow(
            (
                str(e.start_time),
                str(e.stop_time),
                _fmt_float(e.file_size_gb),
                _fmt_float(e.transfer_rate_mbs),
                e.instrument,
                e.experiment,
                e.target_host,
                e.target_fs,
                e.source_fs,
                e.node,
                e.file_name,
                e.stage.value,
            )
        )


def dump_events(events: Iterable[TransferEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_event_csv(events, fh)


def clean_events(
    events: Sequence[TransferEvent],
) -> tuple[list[TransferEvent], CleaningReport]:
    """Drop oversize and zero-valued records, preserving relative order.

    Removal classes, applied per event in priority order:

    * oversize: ``file_size_gb`` > :data:`OVERSIZE_LIMIT_GB`,
    * zero: non-positive ``file_size_gb`` or ``transfer_rate_mbs``.

    An event matching both rules is counted once, under oversize, so the
    report is deterministic.
    """
    kept: list[TransferEvent] = []
    n_oversize = 0
    n_zero = 0
    for e in events:
        if e.file_size_gb > OVERSIZE_LIMIT_GB:
            n_oversize += 1
        elif e.file_size_gb <= 0.0 or e.transfer_rate_mbs <= 0.0:
            n_zero += 1
        else:
            kept.append(e)
    report = CleaningReport(
        n_input=len(events),
        n_oversize_removed=n_oversize,
        n_zero_removed=n_zero,
        n_output=len(kept),
    )
    return kept, report


def sort_by_start(events: Iterable[TransferEvent]) -> list[TransferEvent]:
    """Canonical time order: (start_time, stop_time, id), stable and total."""
    return sorted(events, key=lambda e: (e.start_time, e.stop_time, e.id))
