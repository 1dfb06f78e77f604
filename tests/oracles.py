"""Brute-force reference implementations for the event-log ingest, the lag and
concurrency features, the feature CSV format and the regression tree's split
search.

These follow the feature definitions literally, one event at a time, with no
shared state between queries; they are deliberately independent of the
sorted-array code they are used to check, down to their own key definition.
The event-log oracles parse, clean and sort one ``TransferEvent`` row at a
time. The CSV oracles format and parse one cell at a time with ``csv``. The
tree oracle sorts each candidate feature's float values at every node.
"""

from __future__ import annotations

import csv
import io
import math
from typing import IO, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from ratecast.events import (
    CSV_COLUMNS,
    OVERSIZE_LIMIT_GB,
    CleaningReport,
    CsvRowError,
    CsvSchemaError,
    Stage,
    TransferEvent,
)
from ratecast.filenames import FilenameParseError, parse_filename
from ratecast.lags import LagKeyKind
from ratecast.tree import RegressionTree


def _reference_row(row_index: int, row: Sequence[str]) -> TransferEvent:
    if len(row) != len(CSV_COLUMNS):
        raise CsvRowError(row_index, f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
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
        # TransferEvent checks the timestamp range and the time order.
        return TransferEvent(
            id=row_index,
            start_time=start_time,
            stop_time=stop_time,
            file_size_gb=file_size_gb,
            transfer_rate_mbs=transfer_rate_mbs,
            **{name: rec[name] for name in CSV_COLUMNS[4:11]},
            stage=stage,
        )
    except ValueError as exc:
        raise CsvRowError(row_index, str(exc)) from exc


def reference_parse_event_csv(source: IO[bytes]) -> list[TransferEvent]:
    """Transfer events parsed one ``csv.reader`` row at a time.

    This is ``ratecast.events.parse_event_csv`` as it was before the log
    became columnar: ids are the 0-based data-row index, blank lines are
    skipped but counted, and the first bad row raises ``CsvRowError``.
    """
    reader = csv.reader(io.TextIOWrapper(source, encoding="utf-8", newline=""))
    header = next(reader, None)
    if header is None:
        raise CsvSchemaError("empty input: missing header")
    if tuple(header) != CSV_COLUMNS:
        raise CsvSchemaError(f"bad header: {header!r}")
    return [_reference_row(i, row) for i, row in enumerate(reader) if row]


def reference_clean_events(
    events: Iterable[TransferEvent],
) -> tuple[list[TransferEvent], CleaningReport]:
    """Per event: oversize first, then non-positive size or rate; the rest kept in order."""
    kept: list[TransferEvent] = []
    n_input = n_oversize = n_zero = 0
    for e in events:
        n_input += 1
        if e.file_size_gb > OVERSIZE_LIMIT_GB:
            n_oversize += 1
        elif e.file_size_gb <= 0.0 or e.transfer_rate_mbs <= 0.0:
            n_zero += 1
        else:
            kept.append(e)
    return kept, CleaningReport(n_input, n_oversize, n_zero, len(kept))


def reference_sort_by_start(events: Iterable[TransferEvent]) -> list[TransferEvent]:
    """A stable sort on (start_time, stop_time, id)."""
    return sorted(events, key=lambda e: (e.start_time, e.stop_time, e.id))


class LagInfo(NamedTuple):
    """What the l-th most recently finished matching transfer looked like."""

    present: bool
    transfer_rate_mbs: float
    file_size_gb: float
    time_diff_s: float


ABSENT = LagInfo(False, float("nan"), float("nan"), float("nan"))


def lag_key(event: TransferEvent, kind: LagKeyKind) -> Hashable | None:
    """Key value of ``event`` under ``kind``; None means unkeyed.

    Only SAME_CHUNK can be unkeyed: it requires a parseable file name and
    keys on (experiment, run, chunk) so all streams of a chunk match.
    """
    if kind is LagKeyKind.OVERALL:
        return ()
    if kind is LagKeyKind.SAME_INSTRUMENT:
        return event.instrument
    if kind is LagKeyKind.SAME_EXPERIMENT:
        return event.experiment
    if kind is LagKeyKind.SAME_SOURCE_FS:
        return event.source_fs
    if kind is LagKeyKind.SAME_TARGET_FS:
        return event.target_fs
    if kind is LagKeyKind.SAME_TARGET_HOST:
        return event.target_host
    if kind is LagKeyKind.SAME_NODE:
        return event.node
    if kind is LagKeyKind.SAME_CHUNK:
        try:
            parts = parse_filename(event.file_name)
        except FilenameParseError:
            return None
        return (parts.experiment_num, parts.run_num, parts.chunk_num)
    raise ValueError(f"unknown kind {kind!r}")


def _key_codes(events: Sequence[TransferEvent], kind: LagKeyKind) -> np.ndarray:
    codes = {}
    out = np.empty(len(events), dtype=np.int64)
    for i, e in enumerate(events):
        key = lag_key(e, kind)
        if key is None:
            out[i] = -1
        else:
            out[i] = codes.setdefault(key, len(codes))
    return out


def brute_force_lags(
    events: Sequence[TransferEvent], kind: LagKeyKind, orders: Sequence[int]
) -> list[dict[int, LagInfo]]:
    """Per-event lags by scanning all other events per query."""
    events = list(events)  # rows, one per event, whatever sequence holds them
    starts = np.array([e.start_time for e in events], dtype=np.int64)
    stops = np.array([e.stop_time for e in events], dtype=np.int64)
    ids = np.array([e.id for e in events], dtype=np.int64)
    codes = _key_codes(events, kind)
    results = []
    for i, e in enumerate(events):
        per_order: dict[int, LagInfo] = {}
        if codes[i] < 0:
            for order in orders:
                per_order[order] = ABSENT
            results.append(per_order)
            continue
        candidate = np.nonzero((codes == codes[i]) & (stops < starts[i]))[0]
        # most recently finished first: stop_time descending, then id descending
        ranked = candidate[np.lexsort((-ids[candidate], -stops[candidate]))]
        for order in orders:
            if len(ranked) >= order:
                j = events[int(ranked[order - 1])]
                per_order[order] = LagInfo(
                    True,
                    j.transfer_rate_mbs,
                    j.file_size_gb,
                    float(e.start_time - j.stop_time),
                )
            else:
                per_order[order] = ABSENT
        results.append(per_order)
    return results


def assert_same_lags(
    events: Sequence[TransferEvent],
    got_indices: dict[int, np.ndarray],
    want: list[dict[int, LagInfo]],
) -> None:
    """Exact comparison of lag row indices against the oracle's lag records.

    Index -1 means absent; absent lags match regardless of the oracle's NaN
    payload. A present lag must give the oracle's rate, size and time
    difference.
    """
    events = list(events)
    assert len(want) == len(events)
    for i, w_map in enumerate(want):
        assert got_indices.keys() == w_map.keys(), f"event {i}: order sets differ"
        for order, w in w_map.items():
            assert len(got_indices[order]) == len(events)
            j = int(got_indices[order][i])
            assert (j >= 0) == w.present, f"event {i} order {order}: presence differs"
            if w.present:
                g = LagInfo(
                    True,
                    events[j].transfer_rate_mbs,
                    events[j].file_size_gb,
                    float(events[i].start_time - events[j].stop_time),
                )
                assert g == w, f"event {i} order {order}: {g} != {w}"


def brute_force_concurrency(
    events: Sequence[TransferEvent], kind: LagKeyKind
) -> tuple[np.ndarray, np.ndarray]:
    """(total, unique_experiments) by pairwise interval checks."""
    events = list(events)
    starts = np.array([e.start_time for e in events], dtype=np.int64)
    stops = np.array([e.stop_time for e in events], dtype=np.int64)
    codes = _key_codes(events, kind)
    n = len(events)
    total = np.zeros(n, dtype=np.int64)
    unique = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if codes[i] < 0:
            continue
        active = (
            (codes == codes[i])
            & (starts <= starts[i])
            & (stops > starts[i])
        )
        active[i] = False
        total[i] = int(active.sum())
        unique[i] = len({events[j].experiment for j in np.nonzero(active)[0]})
    return total, unique


def reference_feature_csv(matrix, targets, sink: IO[str]) -> None:
    """Feature CSV text written one cell at a time: ``str(int(id))`` and
    ``format(v, ".17g")`` joined by ``csv.writer`` with LF line ends."""
    if len(targets) != matrix.values.shape[0]:
        raise ValueError("targets length does not match matrix rows")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["meta.event_id", *matrix.column_names, "target.transfer_rate_mbs"])
    for i in range(matrix.values.shape[0]):
        writer.writerow(
            [
                str(int(matrix.event_ids[i])),
                *(format(v, ".17g") for v in matrix.values[i]),
                format(float(targets[i]), ".17g"),
            ]
        )


def reference_read_feature_csv(
    source: IO[str],
) -> tuple[np.ndarray, list[str], np.ndarray, np.ndarray]:
    """(X, feature_names, event_ids, targets) parsed one cell at a time with
    ``csv.reader``, ``int`` and ``float``; empty rows are skipped."""
    reader = csv.reader(source)
    header = next(reader)
    if not header or header[0] != "meta.event_id" or header[-1] != "target.transfer_rate_mbs":
        raise ValueError("not a feature matrix CSV (bad header)")
    names = header[1:-1]
    ids: list[int] = []
    rows: list[list[float]] = []
    targets: list[float] = []
    for row in reader:
        if not row:
            continue
        ids.append(int(row[0]))
        rows.append([float(v) for v in row[1:-1]])
        targets.append(float(row[-1]))
    X = np.array(rows) if rows else np.zeros((0, len(names)))
    return X, names, np.array(ids, dtype=np.int64), np.array(targets)


def _best_split_for_feature(
    xs: np.ndarray,
    ys: np.ndarray,
    parent_sse: float,
    min_samples_leaf: int,
) -> tuple[float, float] | None:
    """(gain, threshold) of the best boundary for one feature, or None."""
    n = xs.size
    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    if xs_sorted[0] == xs_sorted[-1]:
        return None
    ys_sorted = ys[order]
    csum = np.cumsum(ys_sorted)
    csq = np.cumsum(ys_sorted * ys_sorted)
    left_n = np.arange(1, n)  # rows that would go left at each cut position
    valid = xs_sorted[1:] != xs_sorted[:-1]
    valid &= left_n >= min_samples_leaf
    valid &= (n - left_n) >= min_samples_leaf
    if not valid.any():
        return None
    left_sum = csum[:-1]
    left_sq = csq[:-1]
    sse_left = left_sq - left_sum * left_sum / left_n
    right_sum = csum[-1] - left_sum
    right_sq = csq[-1] - left_sq
    sse_right = right_sq - right_sum * right_sum / (n - left_n)
    gains = parent_sse - sse_left - sse_right
    gains[~valid] = -np.inf
    best = int(np.argmax(gains))
    lo = xs_sorted[best]
    hi = xs_sorted[best + 1]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # midpoint collapsed onto the right value
        threshold = lo
    return float(gains[best]), float(threshold)


def reference_grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    *,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    n_candidate_features: int,
    rng: np.random.Generator,
) -> RegressionTree:
    """Fit one tree with a stable float argsort per candidate feature per node.

    This is ``ratecast.tree.grow_tree`` as it was before the split search
    moved to per-fit column ranks and candidate blocks; the two must agree
    bit for bit, including the generator state they leave behind.

    Each split draws ``n_candidate_features`` features without replacement
    from ``rng`` (all features, without consuming the generator, when the
    count covers them). Nodes are expanded depth-first, left child first, so
    fits are bit-reproducible for a given generator state. A node becomes a
    leaf when it is at ``max_depth``, has fewer than ``min_samples_split``
    rows, is constant in target, or no candidate cut strictly reduces the
    total squared error while leaving ``min_samples_leaf`` rows per side.
    """
    n_features = X.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    n_node_samples: list[int] = []
    gains = np.zeros(n_features)

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        n_node_samples.append(0)
        return len(feature) - 1

    stack: list[tuple[np.ndarray, int, int]] = [(np.asarray(rows), 0, new_node())]
    while stack:
        node_rows, depth, node = stack.pop()
        ys = y[node_rows]
        n = node_rows.size
        value[node] = float(ys.mean())
        n_node_samples[node] = int(n)
        if depth >= max_depth or n < min_samples_split:
            continue
        y_min = ys.min()
        y_max = ys.max()
        if y_min == y_max:
            continue
        total = float(ys.sum())
        parent_sse = float(np.add.reduce(ys * ys)) - total * total / n
        if n_candidate_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(n_features, size=n_candidate_features, replace=False)
        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for f in candidates:
            found = _best_split_for_feature(
                X[node_rows, f], ys, parent_sse, min_samples_leaf
            )
            if found is not None and found[0] > best_gain:
                best_gain, best_threshold = found
                best_feature = int(f)
        if best_feature < 0:
            continue
        goes_left = X[node_rows, best_feature] <= best_threshold
        rows_left = node_rows[goes_left]
        rows_right = node_rows[~goes_left]
        gains[best_feature] += best_gain
        feature[node] = best_feature
        threshold[node] = best_threshold
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((rows_right, depth + 1, right_id))
        stack.append((rows_left, depth + 1, left_id))

    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
        n_node_samples=np.asarray(n_node_samples, dtype=np.int64),
        feature_gains=gains,
    )
