"""Brute-force reference implementations for the lag and concurrency features
and for the feature CSV format.

These follow the feature definitions literally, one event at a time, with no
shared state between queries; they are deliberately independent of the
sorted-array code they are used to check, down to their own key definition.
The CSV oracles format and parse one cell at a time with ``csv``.
"""

from __future__ import annotations

import csv
from typing import IO, Hashable, NamedTuple, Sequence

import numpy as np

from ratecast.events import TransferEvent
from ratecast.filenames import FilenameParseError, parse_filename
from ratecast.lags import LagKeyKind


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
