"""Keyed as-of lookups over start-ordered transfer events.

Three families of dynamic features share the same machinery:

* keyed lags: the most recently *finished* transfers sharing an attribute
  with the current one (``compute_keyed_lags``),
* concurrency: how many transfers on the same resource are still running
  when the current one starts (``compute_concurrency``),
* chunk timing: seconds since the first transfer of the same chunk started
  (``compute_chunk_time_offset``).

Each function takes an :class:`~ratecast.events.EventLog`. The categorical
keys are the log's codes, the chunk key is factorised once per log, and every
count or lookup is a ``searchsorted`` into arrays sorted by (code, time). All
of them only look at information available when a transfer starts, so rows
never leak future data.
"""

from __future__ import annotations

import enum
from typing import Iterable

import numpy as np

from .events import _CATEGORICAL_FIELDS, EventLog, _factorise
from .filenames import FilenameParseError, parse_filename


class LagKeyKind(enum.Enum):
    """Attribute two transfers must share to count as lag/concurrency peers."""

    OVERALL = "overall"
    SAME_INSTRUMENT = "same_instrument"
    SAME_EXPERIMENT = "same_experiment"
    SAME_SOURCE_FS = "same_source_fs"
    SAME_TARGET_FS = "same_target_fs"
    SAME_TARGET_HOST = "same_target_host"
    SAME_NODE = "same_node"
    SAME_CHUNK = "same_chunk"


#: The log field of each categorical kind: same_<field> keys on <field>.
_KEY_FIELDS = {kind: kind.value[5:] for kind in LagKeyKind if kind.value[5:] in _CATEGORICAL_FIELDS}


def _chunk_key(file_name: str) -> tuple[int, int, int] | None:
    try:
        parts = parse_filename(file_name)
    except FilenameParseError:
        return None
    return (parts.experiment_num, parts.run_num, parts.chunk_num)


def _keys(log: EventLog, kind: LagKeyKind) -> tuple[np.ndarray, list]:
    """(codes, keys) of ``log`` under ``kind``; code -1 means unkeyed.

    The categorical kinds are the log's codes. SAME_CHUNK, made once per log,
    keys on (experiment, run, chunk) so all streams of a chunk match; only it
    can be unkeyed, when the file name does not parse.
    """
    if kind is LagKeyKind.OVERALL:
        return np.zeros(len(log), dtype=np.int64), [kind.value] if len(log) else []
    if kind is LagKeyKind.SAME_CHUNK:
        return log.derived(kind, lambda: _factorise(list(map(_chunk_key, log.file_names))))
    field = _KEY_FIELDS[kind]
    return log.codes[field], log.categories[field]


def _ranks(log: EventLog) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense ranks of every start and stop in their joint order, and the rank count.

    Raises unless the events are in sort_by_start order (start_time,
    stop_time, id). ``code * width + rank`` then orders (code, time) pairs
    as one int64 without overflowing for any timestamp range.
    """

    def compute():
        starts, stops = log.starts, log.stops
        d_start, d_stop, d_id = np.diff(starts), np.diff(stops), np.diff(log.ids)
        tie = d_start == 0
        if np.any((d_start < 0) | (tie & (d_stop < 0)) | (tie & (d_stop == 0) & (d_id < 0))):
            raise ValueError("events must be in sort_by_start order (start_time, stop_time, id)")
        values, inverse = np.unique(np.concatenate([starts, stops]), return_inverse=True)
        n = len(starts)
        return inverse[:n], inverse[n:], max(len(values), 1)

    return log.derived("ranks", compute)


def _active(
    groups: np.ndarray,
    start_ranks: np.ndarray,
    stop_ranks: np.ndarray,
    query_groups: np.ndarray,
    query_ranks: np.ndarray,
    width: int,
) -> np.ndarray:
    """Per query (g, t): intervals of group g with start <= t < stop.

    Counts #(start <= t) - #(stop <= t) within the group; the intervals of
    lower groups appear in both counts and cancel.
    """
    query = query_groups * width + query_ranks
    opened = np.searchsorted(np.sort(groups * width + start_ranks), query, side="right")
    closed = np.searchsorted(np.sort(groups * width + stop_ranks), query, side="right")
    return opened - closed


def compute_keyed_lags(
    log: EventLog, kind: LagKeyKind, orders: Iterable[int]
) -> dict[int, np.ndarray]:
    """Row indices into ``log`` of each event's lags, one array per order.

    For event i and order l, the lag is the l-th most recent event j with the
    same key that finished strictly before i started (stop_time(j) <
    start_time(i)), ranking candidates by stop_time descending with ties
    broken by larger id first. The index is -1 when there is too little
    history or event i is unkeyed.

    Events are sorted by (code, stop, id); ``searchsorted`` puts each start
    at position ``end`` of its key group, so lag l sits at ``end - l`` when
    that position is still inside the group.
    """
    order_list = sorted(set(int(o) for o in orders))
    if not order_list or order_list[0] < 1:
        raise ValueError("orders must be positive integers")
    start_ranks, stop_ranks, width = _ranks(log)
    codes, _ = _keys(log, kind)

    by_stop = np.lexsort((log.ids, log.stops, codes))
    sorted_keys = (codes * width + stop_ranks)[by_stop]
    group_start = np.searchsorted(sorted_keys, codes * width, side="left")
    end = np.searchsorted(sorted_keys, codes * width + start_ranks, side="left")
    keyed = codes >= 0
    result = {}
    for order in order_list:
        pos = end - order
        present = keyed & (pos >= group_start)
        result[order] = np.where(present, by_stop[np.where(present, pos, 0)], -1)
    return result


def compute_concurrency(log: EventLog, kind: LagKeyKind) -> tuple[np.ndarray, np.ndarray]:
    """(total, unique_experiments): other same-key transfers running at each start.

    Event j is active for event i when start_time(j) <= start_time(i) <
    stop_time(j) and j != i. ``unique_experiments`` counts distinct
    experiment values among those j. Unkeyed events get zero counts.

    ``total`` is the key's active count minus the event itself when it has a
    positive duration. Distinct experiments count the merged intervals of
    each (key, experiment) pair that cover the start, minus the event's own
    pair when the event is that pair's only active member.
    """
    start_ranks, stop_ranks, width = _ranks(log)
    codes, _ = _keys(log, kind)
    self_active = log.stops > log.starts

    total = _active(codes, start_ranks, stop_ranks, codes, start_ranks, width)
    total -= self_active

    experiments, experiment_keys = _keys(log, LagKeyKind.SAME_EXPERIMENT)
    _, pairs = np.unique((codes + 1) * len(experiment_keys) + experiments, return_inverse=True)
    pair_active = _active(pairs, start_ranks, stop_ranks, pairs, start_ranks, width)
    # Merge each pair's intervals: sorted by (pair, start), a merged interval
    # begins wherever the start exceeds every earlier stop of the pair.
    by_start = np.lexsort((start_ranks, pairs))
    base = (pairs * width)[by_start]
    sorted_starts = start_ranks[by_start]
    reach = np.maximum.accumulate(base + stop_ranks[by_start])
    begins = np.ones(len(log), dtype=bool)
    begins[1:] = base[1:] + sorted_starts[1:] > reach[:-1]
    # begins[0] is always set, so rolling it to the back marks the last run's end.
    ends = np.roll(begins, -1)
    covered = _active(
        codes[by_start][begins],
        sorted_starts[begins],
        (reach - base)[ends],
        codes,
        start_ranks,
        width,
    )
    unique = covered - (self_active & (pair_active == 1))

    unkeyed = codes < 0
    total[unkeyed] = 0
    unique[unkeyed] = 0
    return total, unique


def compute_chunk_time_offset(log: EventLog) -> tuple[np.ndarray, np.ndarray]:
    """Seconds between each event's start and its chunk's earliest start.

    Chunks are keyed by (experiment, run, chunk) from the file name. Returns
    (offsets, missing): events whose file name does not parse get a missing
    flag and a NaN offset; the chunk's first job gets 0.
    """
    codes, _ = _keys(log, LagKeyKind.SAME_CHUNK)
    keyed = codes >= 0
    starts, codes = log.starts[keyed], codes[keyed]
    first_start = np.full(codes.max(initial=-1) + 1, np.iinfo(np.int64).max)
    np.minimum.at(first_start, codes, starts)
    offsets = np.full(len(log), np.nan)
    offsets[keyed] = starts - first_start[codes]
    return offsets, ~keyed
