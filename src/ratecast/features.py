"""Feature groups and matrix assembly.

Groups, in the fixed column order used by :func:`assemble_features`:

* A  - static record fields: file size, experiment code, one-hot instrument,
       source/target file system and target host.
* B  - calendar fields derived from the start time: day of week, hour of day.
* C1 - active-transfer counts on the same experiment and instrument.
* C2 - active-transfer and distinct-experiment counts on the same target
       file system, target host and node.
* D1 - lag-1 rate and time difference per instrument/experiment/source-fs/
       target-fs key, plus overall lag-1 (rate, file size) and lag-5 (rate).
* D2 - rates of lags 1-20 on the same experiment.
* D3 - lag-1 rate, file size and time difference for the D1 keys plus
       target-host, node and chunk keys.
* E  - seconds since the first transfer of the same chunk started.

Lag-style cells with no history carry the sentinel -1 and a paired 0/1
missing-indicator column (one indicator per lag block, shared by its value
columns); trees can split on the indicator directly.
"""

from __future__ import annotations

import csv
import mmap
import re
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .artifacts import JsonArtifact
from .events import EventLog, csv_line
from .lags import LagKeyKind, compute_chunk_time_offset, compute_concurrency, compute_keyed_lags
from .lags import _ranks

ALL_GROUPS = ("A", "B", "C1", "C2", "D1", "D2", "D3", "E")

MISSING_SENTINEL = -1.0

#: One-hot fields of group A (node is a lag and concurrency key, not a feature).
_ONE_HOT_FIELDS = ("instrument", "source_fs", "target_fs", "target_host")

_D1_KEYED_KINDS = (
    LagKeyKind.SAME_INSTRUMENT,
    LagKeyKind.SAME_EXPERIMENT,
    LagKeyKind.SAME_SOURCE_FS,
    LagKeyKind.SAME_TARGET_FS,
)
#: Concurrency blocks in column order: (group, kind, stats). The stats are a
#: prefix of ``compute_concurrency``'s (total, unique experiments) counts.
_CONCURRENCY_BLOCKS = (
    ("C1", LagKeyKind.SAME_EXPERIMENT, ("active_jobs",)),
    ("C1", LagKeyKind.SAME_INSTRUMENT, ("active_jobs",)),
    *(
        ("C2", kind, ("active_jobs", "unique_experiments"))
        for kind in (LagKeyKind.SAME_TARGET_FS, LagKeyKind.SAME_TARGET_HOST, LagKeyKind.SAME_NODE)
    ),
)
#: Lag blocks in column order: (group, kind, order, stats). Each block adds one
#: column per stat and one missing indicator.
_LAG_BLOCKS = (
    *(("D1", kind, 1, ("rate", "time_diff")) for kind in _D1_KEYED_KINDS),
    ("D1", LagKeyKind.OVERALL, 1, ("rate", "file_size")),
    ("D1", LagKeyKind.OVERALL, 5, ("rate",)),
    *(("D2", LagKeyKind.SAME_EXPERIMENT, order, ("rate",)) for order in range(1, 21)),
    *(
        ("D3", kind, 1, ("rate", "file_size", "time_diff"))
        for kind in _D1_KEYED_KINDS
        + (LagKeyKind.SAME_TARGET_HOST, LagKeyKind.SAME_NODE, LagKeyKind.SAME_CHUNK)
    ),
)
# Rows formatted per write: bounds the Python floats alive at once.
_CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class FeatureSpec:
    """Which feature groups to assemble. Group A is always required."""

    groups: frozenset[str]

    def __post_init__(self) -> None:
        unknown = self.groups - set(ALL_GROUPS)
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")
        if "A" not in self.groups:
            raise ValueError("group A (static fields) must be enabled")

    @classmethod
    def parse(cls, text: str) -> "FeatureSpec":
        names = [g.strip() for g in text.split(",") if g.strip()]
        return cls(groups=frozenset(names))

    def sorted_groups(self) -> list[str]:
        return [g for g in ALL_GROUPS if g in self.groups]


@dataclass(frozen=True)
class ColumnMeta:
    """Name, group tag and encoding origin of one feature column."""

    name: str
    group: str
    origin: str


@dataclass(frozen=True)
class FeaturesMeta(JsonArtifact):
    """The sidecar of a feature CSV (``features.meta.json``): its columns, as
    :class:`ColumnMeta` objects, and the options ``features`` built them with."""

    groups: list[str]
    column_meta: list[dict]
    n_rows: int | None = None
    tz_offset_hours: float | None = None
    stage: str | None = None
    format_version: int = 1


@dataclass
class FeatureMatrix:
    """Row-per-event numeric matrix with column metadata."""

    values: np.ndarray
    columns: list[ColumnMeta]
    event_ids: np.ndarray

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


def check_tz_offset(hours: float) -> None:
    """Raise ValueError unless ``hours`` is a finite UTC offset within ±24 hours."""
    if not -24.0 <= hours <= 24.0:  # NaN fails it too
        raise ValueError(f"tz_offset_hours must be finite and within ±24 hours, got {hours}")


def compute_time_features(
    log: EventLog, tz_offset_hours: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(day_of_week, hour_of_day) arrays of the start times; day 0 is Monday.

    A fixed UTC offset shifts the clock; no daylight-saving rules are applied.
    The offset must pass :func:`check_tz_offset`.
    """
    check_tz_offset(tz_offset_hours)
    shifted = log.starts + int(round(tz_offset_hours * 3600.0))
    days, seconds = np.divmod(shifted, 86400)
    day_of_week = (days + 3) % 7  # 1970-01-01 was a Thursday
    return day_of_week, seconds // 3600


def encode_categoricals(log: EventLog) -> tuple[np.ndarray, list[ColumnMeta]]:
    """Group A's encoded blocks and their column metadata, from the log's codes.

    Categories take codes in order of first appearance. The first column is
    the experiment code, then ``codes == category`` for each one-hot field.
    """
    blocks: list[np.ndarray] = [log.codes["experiment"][:, None]]
    metas = [ColumnMeta("A.experiment_code", "A", "category_code:experiment")]
    for name in _ONE_HOT_FIELDS:
        values = log.categories[name]
        blocks.append(log.codes[name][:, None] == np.arange(len(values)))
        metas += (ColumnMeta(f"A.{name}.{v}", "A", f"one_hot:{name}={v}") for v in values)
    return np.hstack(blocks, dtype=float), metas


def assemble_features(
    log: EventLog, spec: FeatureSpec, tz_offset_hours: float = 0.0
) -> FeatureMatrix:
    """Build the feature matrix for cleaned, start-sorted events.

    Row i is derived from event i's own static fields plus transfers that
    finished strictly before event i started (lags) or that had started by
    then (concurrency, chunk timing); perturbing any later-starting event
    leaves row i unchanged. The C and D columns come from
    ``_CONCURRENCY_BLOCKS`` and ``_LAG_BLOCKS``.
    """
    # Every lookup below shares the log's times, ranks and key codes, so the
    # chunk file names are parsed once.
    _ranks(log)  # checks the order up front, even when no lookup runs
    starts, stops, sizes, rates = log.starts, log.stops, log.sizes, log.rates
    encoded, encoded_metas = encode_categoricals(log)
    lag_blocks = [block for block in _LAG_BLOCKS if block[0] in spec.groups]
    # File size, the encoded block, then B, C, D and E: the matrix is filled in
    # place, column by column, and never exists twice.
    width = 1 + len(encoded_metas) + 2 * len(spec.groups & {"B", "E"})
    width += sum(len(stats) for group, _, stats in _CONCURRENCY_BLOCKS if group in spec.groups)
    width += sum(len(stats) + 1 for *_, stats in lag_blocks)
    # Its own mapping: on the malloc heap its place, and peak RSS, hang on the blocks around it.
    n = len(log) * width
    values = np.frombuffer(mmap.mmap(-1, 8 * max(1, n)), count=n).reshape(len(log), width)
    metas: list[ColumnMeta] = []

    def add(name: str, group: str, origin: str, column, missing=None) -> None:
        filled = column if missing is None else np.where(missing, MISSING_SENTINEL, column)
        values[:, len(metas)] = filled
        metas.append(ColumnMeta(name, group, origin))

    add("A.file_size", "A", "numeric:file_size_gb", sizes)
    values[:, 1 : 1 + len(encoded_metas)] = encoded
    metas.extend(encoded_metas)
    del encoded  # not held through the lag lookups, where assembly peaks

    if "B" in spec.groups:
        dows, hours = compute_time_features(log, tz_offset_hours)
        add("B.day_of_week", "B", "calendar:day_of_week", dows)
        add("B.hour_of_day", "B", "calendar:hour_of_day", hours)

    for group, kind, stats in _CONCURRENCY_BLOCKS:
        if group in spec.groups:
            counts = compute_concurrency(log, kind)
            for stat, count_name, column in zip(stats, ("total", "unique_experiments"), counts):
                origin = f"concurrency:{kind.value}:{count_name}"
                add(f"{group}.{kind.value}.{stat}", group, origin, column)

    orders: dict[LagKeyKind, set[int]] = {}
    for _, kind, order, _ in lag_blocks:
        orders.setdefault(kind, set()).add(order)
    lag_rows = {kind: compute_keyed_lags(log, kind, o) for kind, o in orders.items()}
    for group, kind, order, stats in lag_blocks:
        rows = lag_rows[kind][order]
        missing = rows < 0
        # Absent lags (-1) gather the last row; the sentinel overwrites them.
        gathered = {
            "rate": rates[rows],
            "file_size": sizes[rows],
            "time_diff": starts - stops[rows],
        }
        prefix = f"{group}.{kind.value}.lag{order}"
        for stat in stats:
            origin = f"lag:{kind.value}:{order}:{stat}"
            add(f"{prefix}.{stat}", group, origin, gathered[stat], missing)
        add(f"{prefix}.missing", group, "indicator", missing)

    if "E" in spec.groups:
        offsets, missing = compute_chunk_time_offset(log)
        add("E.chunk_time_offset", "E", "chunk_offset", offsets, missing)
        add("E.chunk_time_offset.missing", "E", "indicator", missing)

    if len(metas) != width:
        raise RuntimeError(f"assembly filled {len(metas)} of {width} feature columns")
    return FeatureMatrix(values=values, columns=metas, event_ids=log.ids)


def write_feature_csv(matrix: FeatureMatrix, targets: np.ndarray, sink: IO[str]) -> None:
    """Export the matrix as CSV; :class:`FeaturesMeta` is its sidecar.

    Layout: ``meta.event_id``, one column per feature (named ``group.feature``),
    then ``target.transfer_rate_mbs``; header fields follow :func:`events.csv_field`,
    cells are ``%d``/``%.17g``, LF line ends.
    Rows are written in blocks of ``_CSV_BLOCK_ROWS``, and each distinct float
    bit pattern of a block's features is formatted once.
    """
    n = len(matrix.values)
    targets = np.asarray(targets, dtype=np.float64)
    if len(targets) != n:
        raise ValueError("targets length does not match matrix rows")
    sink.write(csv_line(["meta.event_id", *matrix.column_names, "target.transfer_rate_mbs"]))
    for lo in range(0, n, _CSV_BLOCK_ROWS):
        block = slice(lo, lo + _CSV_BLOCK_ROWS)
        cells = _block_cells(matrix.event_ids[block], matrix.values[block], targets[block])
        sink.write("".join(cells))


def _block_cells(ids: np.ndarray, values: np.ndarray, targets: np.ndarray) -> list[str]:
    """Cell texts of one block of rows in file order, each with its separator:
    ``%d,`` for the id, ``%.17g,`` per value and ``%.17g\\n`` for the target.

    Distinct bit patterns are sorted once, formatted once and found per cell by
    binary search; the uint64 view keeps -0.0, 0.0 and every NaN payload apart,
    as formatting each cell would. The numpy temporaries die with this call,
    before the caller joins the texts: kept alive across the join, they
    fragmented the heap and raised the peak RSS of a 50k-event pass by 25 MB.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    # Not np.unique: numpy >= 2.3 hashes integers there, 6x slower than a sort here.
    patterns = np.sort(bits, axis=None)
    keep = np.ones(patterns.size, dtype=bool)
    np.not_equal(patterns[1:], patterns[:-1], out=keep[1:])
    distinct = patterns[keep]
    text = np.array(list(map("%.17g,".__mod__, distinct.view(np.float64).tolist())), dtype=object)
    cells = np.empty((len(ids), bits.shape[1] + 2), dtype=object)
    cells[:, 0] = list(map("%d,".__mod__, ids.tolist()))
    cells[:, 1:-1] = text[np.searchsorted(distinct, bits)]
    cells[:, -1] = list(map("%.17g\n".__mod__, targets.tolist()))
    return cells.ravel().tolist()


def read_feature_csv(
    source: IO[str],
) -> tuple[np.ndarray, list[str], np.ndarray, np.ndarray]:
    """Load an exported matrix: (X, feature_names, event_ids, targets).

    Ids must be integers; blank lines and CRLF line ends are accepted. The
    header is read from ``source``'s position. When that position can be
    told, the rest is first counted for line ends, so that the body is parsed
    into an array of its size and not grown by ``realloc``, and a body error
    names its line (the header is line 1); otherwise it gives ``np.loadtxt``'s
    count within the body.
    """
    try:  # a text file that next() has advanced cannot tell its position
        start = source.tell() if source.seekable() else None
    except OSError:
        start = None
    max_rows = None if start is None else _row_bound(source, start)
    header = next(csv.reader(source), [])
    if not header or header[0] != "meta.event_id" or header[-1] != "target.transfer_rate_mbs":
        raise ValueError("not a feature matrix CSV (bad header)")
    names = header[1:-1]
    dtype = [("id", np.int64), ("x", np.float64, (len(names),)), ("y", np.float64)]
    try:
        body = _load_body(source, dtype, max_rows)
    except ValueError as exc:
        detail = _body_error_at_line(source, start, dtype, len(names) + 2)
        raise ValueError(detail or str(exc)) from None
    n, k = len(body), len(names)
    ids, targets = body["id"].copy(), body["y"].copy()
    # X reuses the body's buffer: each row's cells move forward in place, never
    # past where they were read, and numpy buffers a block's overlapping copy.
    cells = body.view(np.float64).reshape(n, k + 2)
    X = cells.reshape(-1)[: n * k].reshape(n, k)
    for lo in range(0, n, _CSV_BLOCK_ROWS):
        X[lo : lo + _CSV_BLOCK_ROWS] = cells[lo : lo + _CSV_BLOCK_ROWS, 1:-1]
    return X, names, ids, targets


def _row_bound(source: IO[str], start: int) -> int:
    """One more than the LFs and CRs from ``start`` on, where ``source`` is left:
    every line end counts at least once, so this exceeds the non-blank lines left."""
    bound = 1
    while chunk := source.read(1 << 20):
        bound += chunk.count("\n") + chunk.count("\r")
    source.seek(start)
    return bound


def _load_body(source, dtype, max_rows: int | None = None) -> np.ndarray:
    with warnings.catch_warnings():
        # A header-only body is valid. Older numpy reads a "1.5" id via float and only warns.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # Blank lines are skipped, and with max_rows given numpy says so.
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(source, delimiter=",", comments=None, dtype=dtype, ndmin=1, max_rows=max_rows)


def _body_error_at_line(source: IO[str], start: int | None, dtype, width: int) -> str | None:
    """Re-read ``source`` from its header at ``start``; describe its first bad body line.

    As in ``np.loadtxt``, lines end at LF, CRLF or CR and blank lines are
    skipped. None when ``start`` is None: ``source`` cannot be re-read.
    """
    if start is None:
        return None
    source.seek(start)
    header = csv.reader(lines := iter(source))
    next(header, None)  # a quoted name may hold line ends, so the header may span lines
    for number, line in enumerate(lines, start=header.line_num + 1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        cells = line.count(",") + 1
        if cells != width:
            return f"line {number}: expected {width} cells, found {cells}"
        try:
            _load_body([line], dtype)
        except ValueError as exc:
            return f"line {number}: " + re.sub(r" at row \d+,", " at", str(exc))
    return None
