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
        columns = []
        for f in fields(cls):
            if f.name not in payload:
                raise ValueError(f"a tree lacks field {f.name!r}")
            raw, kinds = payload[f.name], "i" if f.name in _INT_FIELDS else "iuf"
            # numpy reads true as 1 and fails on a ragged list, so only a flat list reaches it
            flat = isinstance(raw, list) and set(map(type, raw)).isdisjoint((bool, list))
            values = np.asarray(raw) if flat else None
            if values is None or values.size and values.dtype.kind not in kinds:
                what = "int64 integers" if kinds == "i" else "numbers"
                raise ValueError(f"field {f.name!r} must be a list of {what}")
            if not np.isfinite(values).all():
                raise ValueError(f"field {f.name!r} holds a non-finite number")
            columns.append(values)
        n = columns[0].size
        if n == 0:
            raise ValueError("field 'feature' must be a non-empty list")
        for f, values in zip(fields(cls), columns):
            size = n_features if f.name == "feature_gains" else n
            if values.size != size:
                raise ValueError(f"field {f.name!r} must be a list of {size} numbers")
        tree = _tree(*columns)
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


def _tree(*columns) -> RegressionTree:
    """The tree of its field columns, in declaration order; ``_INT_FIELDS`` are int64."""
    return RegressionTree(*(
        np.asarray(column, dtype=np.int64 if f.name in _INT_FIELDS else np.float64)
        for f, column in zip(fields(RegressionTree), columns)
    ))


# Rank cells per candidate block: bounds the search's temporaries at big nodes.
_BLOCK_CELLS = 1 << 15


def rank_columns(X: np.ndarray) -> np.ndarray:
    """Dense column ranks of a finite 2-d ``X``, feature-major: row ``f`` ranks column ``f``.

    Equal values (``-0.0`` and ``0.0`` among them) share a rank, so a stable
    sort of ranks orders rows exactly as a stable sort of values would. Ranks
    are ``uint16``, which numpy's stable argsort radix-sorts, unless a column
    has more than 65,536 distinct values; then they are ``uint32``. A rank is
    below the row count, so up to 65,536 rows rank straight into ``uint16``.
    """
    X = np.asarray(X, dtype=np.float64)
    ranks = np.empty(X.shape[::-1], dtype=np.uint16 if X.shape[0] <= 1 << 16 else np.uint32)
    n_distinct = 0
    for f in range(X.shape[1]):
        distinct, ranks[f] = np.unique(X[:, f], return_inverse=True)
        n_distinct = max(n_distinct, distinct.size)
    if n_distinct <= 1 << 16:
        ranks = ranks.astype(np.uint16, copy=False)
    return ranks


def _best_split(
    X: np.ndarray,
    ranks: np.ndarray,
    candidates: np.ndarray,
    node_rows: np.ndarray,
    ys: np.ndarray,
    parent_sse: float,
    min_samples_leaf: int,
) -> tuple[float, int, float, int] | None:
    """(gain, feature, threshold, rank) of the best cut over ``candidates``, or None.

    Candidates are searched in blocks of at most ``_BLOCK_CELLS`` rank cells,
    one row per candidate. Rows constant in the node are dropped; the rest get
    a stable argsort of their ranks and row-wise cumulative target sums. Only
    cuts between distinct values are scored, in row-major order, so the first
    argmax is the first candidate's first best cut. A candidate with a NaN gain
    is skipped; one wins only with a gain above zero and every earlier one's.
    ``rank`` is the rank of the value just below the cut: in the node, a row
    has a rank at most ``rank`` exactly when its value is at most ``threshold``.
    """
    n = node_rows.size
    # Cut c sends sorted positions 0..c left; each side keeps at least one row
    # and at least min_samples_leaf rows.
    leaf = max(min_samples_leaf, 1)
    lo, hi = leaf - 1, n - leaf
    if lo >= hi:
        return None
    best: tuple[float, int, float, int] | None = None
    best_gain = 0.0
    per_block = max(1, _BLOCK_CELLS // n)
    n_total = ranks.shape[1]
    for start in range(0, candidates.size, per_block):
        block = candidates[start : start + per_block]
        # Flat takes: cheaper than 2-d fancy indexing at every node size.
        block_ranks = ranks.take(block[:, None] * n_total + node_rows)
        varies = block_ranks.min(1) != block_ranks.max(1)
        if not varies.all():
            block, block_ranks = block[varies], block_ranks[varies]
        order = np.argsort(block_ranks, axis=1, kind="stable")
        sorted_ranks = block_ranks.take(order + np.arange(0, block.size * n, n)[:, None])
        ys_sorted = ys[order]
        csum = np.cumsum(ys_sorted, axis=1)
        csq = np.cumsum(ys_sorted * ys_sorted, axis=1)
        edges = np.flatnonzero(sorted_ranks[:, lo + 1 : hi + 1] != sorted_ranks[:, lo:hi])
        if not edges.size:
            continue
        row, cut = np.divmod(edges, hi - lo)
        cut += lo
        at = row * n + cut
        left_sum = csum.take(at)
        left_sq = csq.take(at)
        right_sum = csum[:, -1].take(row) - left_sum
        right_sq = csq[:, -1].take(row) - left_sq
        left_n = cut + 1.0
        # Evaluated in this order, so gains stay bit-exact.
        sse_left = left_sq - left_sum * left_sum / left_n
        sse_right = right_sq - right_sum * right_sum / (n - left_n)
        gains = parent_sse - sse_left - sse_right
        i = int(np.argmax(gains))
        if np.isnan(gains[i]):  # argmax stops at the first NaN: rule out each row with one
            gains[np.isin(row, row[np.isnan(gains)])] = -np.inf
            i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            f, r, c = int(block[row[i]]), row[i], cut[i]
            low, high = X[node_rows[order[r, c : c + 2]], f]
            threshold = (low + high) / 2.0
            if threshold >= high:  # midpoint collapsed onto the right value
                threshold = low
            best = (best_gain, f, float(threshold), int(sorted_ranks[r, c]))
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
    ranks: np.ndarray,
) -> RegressionTree:
    """Fit one tree on ``X[rows]``/``y[rows]`` (rows may repeat for bootstraps).

    Each split draws ``n_candidate_features`` features without replacement
    from ``rng`` (all features, without consuming the generator, when the
    count covers them). Nodes are expanded depth-first, left child first, so
    fits are bit-reproducible for a given generator state. A node becomes a
    leaf when it is at ``max_depth``, has fewer than ``min_samples_split``
    rows, is constant in target, or no candidate cut strictly reduces the
    total squared error while leaving ``min_samples_leaf`` rows per side.

    ``ranks`` is ``rank_columns(X)``, so a caller that grows several trees
    on one ``X`` ranks its columns once per fit. ``X`` must be finite.
    """
    n_features = X.shape[1]
    # One [feature, threshold, left, right, value, n_node_samples] row per node.
    nodes: list[list] = [[-1, 0.0, -1, -1, 0.0, 0]]
    gains = [0.0] * n_features
    stack: list[tuple[np.ndarray, int, int]] = [(np.asarray(rows), 0, 0)]
    while stack:
        node_rows, depth, node = stack.pop()
        ys = y[node_rows]
        n = node_rows.size
        total = float(ys.sum())
        nodes[node][4:] = total / n, int(n)
        if depth >= max_depth or n < min_samples_split:
            continue
        if ys.min() == ys.max():
            continue
        # numpy's own sum, not a BLAS dot, whose summation order is the CPU's kernel's
        parent_sse = float(np.add.reduce(ys * ys)) - total * total / n
        if n_candidate_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(n_features, size=n_candidate_features, replace=False)
        found = _best_split(X, ranks, candidates, node_rows, ys, parent_sse, min_samples_leaf)
        if found is None:
            continue
        best_gain, best_feature, best_threshold, cut_rank = found
        goes_left = ranks[best_feature].take(node_rows) <= cut_rank
        gains[best_feature] += best_gain
        left = len(nodes)
        nodes[node][:4] = best_feature, best_threshold, left, left + 1
        nodes += [[-1, 0.0, -1, -1, 0.0, 0], [-1, 0.0, -1, -1, 0.0, 0]]
        stack.append((node_rows[~goes_left], depth + 1, left + 1))
        stack.append((node_rows[goes_left], depth + 1, left))
    return _tree(*zip(*nodes), gains)
