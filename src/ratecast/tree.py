"""Regression tree with exact greedy variance-reduction splits.

Splits are searched over every boundary between distinct sorted values of
each candidate feature (no histogram binning), which keeps fits exactly
reproducible at the data sizes this library targets. Split quality is the
reduction in total squared error, accumulated per feature for gain-based
importance reporting. Columns are ranked once per fit, so a node sorts
small integer ranks rather than floats, for all its candidates at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np


# Node-index and count fields of RegressionTree; the others are float64.
_INT_FIELDS = ("feature", "left", "right", "n_node_samples")


@dataclass
class RegressionTree:
    """Flat-array binary tree; ``feature[i] == -1`` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_node_samples: np.ndarray
    feature_gains: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        if X.shape[0] == 0:
            return out
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            goes_left = X[idx, self.feature[node]] <= self.threshold[node]
            left_idx = idx[goes_left]
            right_idx = idx[~goes_left]
            if left_idx.size:
                stack.append((int(self.left[node]), left_idx))
            if right_idx.size:
                stack.append((int(self.right[node]), right_idx))
        return out

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict, n_features: int) -> "RegressionTree":
        """Rebuild a tree over ``n_features`` columns from :meth:`to_dict`
        output; raises ValueError naming a missing or malformed field."""
        if not isinstance(payload, dict):
            raise ValueError(f"a tree must be a JSON object, got {payload!r}")
        arrays = {}
        for f in fields(cls):
            if f.name not in payload:
                raise ValueError(f"a tree lacks field {f.name!r}")
            dtype = np.int64 if f.name in _INT_FIELDS else float
            arrays[f.name] = np.asarray(payload[f.name], dtype=dtype)
        n = np.size(arrays["feature"])
        if arrays["feature"].ndim != 1 or n == 0:
            raise ValueError("field 'feature' must be a non-empty list")
        for name, values in arrays.items():
            size = n_features if name == "feature_gains" else n
            if values.shape != (size,):
                raise ValueError(f"field {name!r} must be a list of {size} numbers")
            if not np.isfinite(values).all():
                raise ValueError(f"field {name!r} holds a non-finite number")
        tree = cls(**arrays)
        if ((tree.feature < -1) | (tree.feature >= n_features)).any():
            raise ValueError(f"field 'feature' holds an index outside [-1, {n_features})")
        # children are numbered after their parent, so no path can loop
        node = np.arange(n)
        for name, child in (("left", tree.left), ("right", tree.right)):
            bad = np.where(tree.feature >= 0, (child <= node) | (child >= n), child != -1)
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"field {name!r} at node {i}: a split's child must be in ({i}, {n}), "
                    "a leaf's must be -1"
                )
        return tree


# Rank cells per candidate block: bounds the search's temporaries at big nodes.
_BLOCK_CELLS = 1 << 17


class RankedColumns(NamedTuple):
    """A training matrix laid out for split search, built once per fit.

    ``values`` is a feature-major float64 copy of ``X``. ``ranks`` holds the
    dense rank of every value within its column: equal values (``-0.0`` and
    ``0.0`` among them) share a rank, so a stable sort of ranks orders rows
    exactly as a stable sort of values would. Ranks are ``uint16``, which
    numpy's stable argsort radix-sorts, unless a column has more than 65,536
    distinct values; then they are ``uint32``.
    """

    values: np.ndarray
    ranks: np.ndarray


def rank_columns(X: np.ndarray) -> RankedColumns:
    """Feature-major values and dense column ranks of a finite 2-d ``X``."""
    values = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    ranks = np.empty(values.shape, dtype=np.uint32)
    n_distinct = 0
    for f, column in enumerate(values):
        distinct, ranks[f] = np.unique(column, return_inverse=True)
        n_distinct = max(n_distinct, distinct.size)
    if n_distinct <= 1 << 16:
        ranks = ranks.astype(np.uint16)
    return RankedColumns(values, ranks)


def _best_split(
    ranked: RankedColumns,
    candidates: np.ndarray,
    node_rows: np.ndarray,
    ys: np.ndarray,
    parent_sse: float,
    min_samples_leaf: int,
) -> tuple[float, int, float] | None:
    """(gain, feature, threshold) of the best cut over ``candidates``, or None.

    Candidates are searched in blocks of at most ``_BLOCK_CELLS`` rank cells,
    one row per candidate: one stable argsort of the block's ranks, then
    row-wise cumulative sums of the targets in that order. Each row keeps its
    first maximal gain, and a candidate wins only with a gain strictly above
    every earlier candidate's and above zero.
    """
    n = node_rows.size
    # Cut c sends sorted positions 0..c left; each side keeps at least one row
    # and at least min_samples_leaf rows.
    leaf = max(min_samples_leaf, 1)
    lo, hi = leaf - 1, n - leaf
    if lo >= hi:
        return None
    left_n = np.arange(lo + 1, hi + 1, dtype=np.float64)
    right_n = n - left_n
    best: tuple[float, int, float] | None = None
    best_gain = 0.0
    per_block = max(1, _BLOCK_CELLS // n)
    n_total = ranked.ranks.shape[1]
    for start in range(0, candidates.size, per_block):
        block = candidates[start : start + per_block]
        # Flat takes: cheaper than 2-d fancy indexing at every node size.
        block_ranks = ranked.ranks.take(block[:, None] * n_total + node_rows)
        order = np.argsort(block_ranks, axis=1, kind="stable")
        sorted_ranks = block_ranks.take(order + np.arange(0, block.size * n, n)[:, None])
        ys_sorted = ys[order]
        csum = np.cumsum(ys_sorted, axis=1)
        csq = np.cumsum(ys_sorted * ys_sorted, axis=1)
        left_sum = csum[:, lo:hi]
        left_sq = csq[:, lo:hi]
        # In place, but the same operations in the same order as
        # parent - (l2 - l*l/nl) - (r2 - r*r/nr), so gains stay bit-exact.
        right_sum = csum[:, -1:] - left_sum
        right_sq = csq[:, -1:] - left_sq
        sse_left = left_sum * left_sum
        sse_left /= left_n
        np.subtract(left_sq, sse_left, out=sse_left)
        right_sum *= right_sum
        right_sum /= right_n
        sse_right = np.subtract(right_sq, right_sum, out=right_sq)
        gains = np.subtract(parent_sse, sse_left, out=sse_left)
        gains -= sse_right
        gains[sorted_ranks[:, lo + 1 : hi + 1] == sorted_ranks[:, lo:hi]] = -np.inf
        cuts = np.argmax(gains, axis=1)
        row_gains = gains[np.arange(block.size), cuts]
        for i, gain in enumerate(row_gains.tolist()):
            if gain > best_gain:
                best_gain = gain
                f = int(block[i])
                cut = lo + int(cuts[i])
                low = ranked.values[f, node_rows[order[i, cut]]]
                high = ranked.values[f, node_rows[order[i, cut + 1]]]
                threshold = (low + high) / 2.0
                if threshold >= high:  # midpoint collapsed onto the right value
                    threshold = low
                best = (gain, f, float(threshold))
    return best


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    *,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    n_candidate_features: int,
    rng: np.random.Generator,
    ranked: RankedColumns | None = None,
) -> RegressionTree:
    """Fit one tree on ``X[rows]``/``y[rows]`` (rows may repeat for bootstraps).

    Each split draws ``n_candidate_features`` features without replacement
    from ``rng`` (all features, without consuming the generator, when the
    count covers them). Nodes are expanded depth-first, left child first, so
    fits are bit-reproducible for a given generator state. A node becomes a
    leaf when it is at ``max_depth``, has fewer than ``min_samples_split``
    rows, is constant in target, or no candidate cut strictly reduces the
    total squared error while leaving ``min_samples_leaf`` rows per side.

    ``ranked`` is ``rank_columns(X)``; a caller that grows several trees on
    one ``X`` passes it so the columns are ranked once per fit. ``X`` must
    be finite.
    """
    if ranked is None:
        ranked = rank_columns(X)
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
        parent_sse = float(ys @ ys) - total * total / n
        if n_candidate_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(n_features, size=n_candidate_features, replace=False)
        found = _best_split(ranked, candidates, node_rows, ys, parent_sse, min_samples_leaf)
        if found is None:
            continue
        best_gain, best_feature, best_threshold = found
        goes_left = ranked.values[best_feature, node_rows] <= best_threshold
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
