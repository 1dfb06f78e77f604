"""Gradient-boosted and random-forest regression ensembles.

Both ensembles are built from the exact-greedy regression tree in
:mod:`ratecast.tree`: boosting fits each tree to the residuals of the running
prediction with shrinkage, the forest averages trees fit on bootstrap
samples. Predictions are clamped at zero, since a negative transfer rate is
meaningless. Importances are per-feature split gains normalized to sum to 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .artifacts import JsonArtifact, read_json, write_json
from .tree import RegressionTree, grow_tree, rank_columns

MODEL_FORMAT_VERSION = 1

#: The most trees one fit grows: an int64 ``n_estimators`` could fit for ever.
MAX_ESTIMATORS = 100_000


@dataclass(frozen=True)
class HyperParams(JsonArtifact):
    """Ensemble knobs; defaults are the tuned boosting settings.

    ``max_features`` values >= 1 are rounded to a candidate-feature count per
    split; values below 1 are a fraction of the feature count. Fractional
    counts like 4.12 come out of random hyperparameter sampling.
    """

    unknown_key = "hyperparameter"  # from_dict rejects a key that names no field
    learning_rate: float = 0.1
    n_estimators: int = 600
    max_depth: int = 11
    min_samples_split: int = 700
    min_samples_leaf: int = 10
    max_features: float = 4.12
    subsample: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("n_estimators", "max_depth", "min_samples_split", "min_samples_leaf"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.n_estimators > MAX_ESTIMATORS:
            raise ValueError(f"n_estimators must be at most {MAX_ESTIMATORS}")
        if self.min_samples_leaf > self.min_samples_split:
            raise ValueError("min_samples_leaf must not exceed min_samples_split")
        if self.max_features <= 0:
            raise ValueError("max_features must be positive")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features >= 1:
            count = int(round(self.max_features))
            if count > n_features:
                raise ValueError(
                    f"max_features rounds to {count} but only {n_features} features exist"
                )
            return count
        return max(1, int(round(self.max_features * n_features)))


@dataclass
class Ensemble:
    """A fitted ensemble whose ``family`` is "gbt" (boosted) or "rf" (forest); a
    forest's ``base_prediction`` and ``train_loss`` are None."""

    family: str
    params: HyperParams
    feature_names: list[str]
    trees: list[RegressionTree]
    importances: np.ndarray
    base_prediction: float | None = None
    train_loss: list[float] | None = None


def _require_finite_features(X: np.ndarray) -> None:
    """Raise naming the first non-finite cell of ``X`` in row-major order."""
    # Exact with no n x k mask: NaN propagates through min and max, and the
    # initial 0.0 hides no infinity while letting an empty X pass.
    if not (math.isfinite(X.min(initial=0.0)) and math.isfinite(X.max(initial=0.0))):
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite feature value {float(X[row, col])} at row {row}, column {col}")


def _validate_training_input(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d array")
    if y.ndim != 1 or len(y) != X.shape[0]:
        raise ValueError("y must be 1-d with one value per row of X")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if X.shape[1] < 1:
        raise ValueError("need at least one feature column")
    _require_finite_features(X)
    finite = np.isfinite(y)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"non-finite target {float(y[row])} at row {row}")
    with np.errstate(over="ignore"):  # the error below says it
        total = y.sum()
    if not math.isfinite(total):
        raise ValueError(f"targets sum to {total}, past the float64 range")
    return X, y


def _resolve_names(feature_names: Sequence[str] | None, n_features: int) -> list[str]:
    if feature_names is None:
        return [f"f{i}" for i in range(n_features)]
    names = list(feature_names)
    if len(names) != n_features:
        raise ValueError("feature_names length does not match X columns")
    return names


def _aggregate_importances(trees: Sequence[RegressionTree], n_features: int) -> np.ndarray:
    total = np.zeros(n_features)
    for tree in trees:
        total += tree.feature_gains
    gain_sum = total.sum()
    if gain_sum <= 0:
        return np.zeros(n_features)  # no splits anywhere (constant target)
    return total / gain_sum


#: The model families: what ``fit_family``, ``model.json`` and ``--family`` accept.
FAMILIES = ("gbt", "rf")


def fit_family(
    family: str,
    X: np.ndarray,
    y: np.ndarray,
    params: HyperParams,
    feature_names: Sequence[str] | None = None,
) -> Ensemble:
    """Fit one ensemble of ``family``: "gbt" boosts least-squares trees on the
    residuals with shrinkage (with ``subsample=1`` its training loss never
    rises), "rf" averages trees grown on bootstrap draws of the rows.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown model family: {family!r}")
    X, y = _validate_training_input(X, y)
    n, n_features = X.shape
    names = _resolve_names(feature_names, n_features)
    rng = np.random.default_rng(params.seed)
    # grow_tree's keywords for every tree of the fit; X's columns are ranked once.
    grow = dict(
        max_depth=params.max_depth,
        min_samples_split=params.min_samples_split,
        min_samples_leaf=params.min_samples_leaf,
        n_candidate_features=params.resolve_max_features(n_features),
        rng=rng,
        ranks=rank_columns(X),
    )
    sample_size = max(1, int(round(params.subsample * n)))
    trees: list[RegressionTree] = []
    if family == "rf":
        for _ in range(params.n_estimators):
            rows = np.sort(rng.choice(n, size=sample_size, replace=True))
            trees.append(grow_tree(X, y, rows, **grow))
        return Ensemble("rf", params, names, trees, _aggregate_importances(trees, n_features))

    base = float(y.mean())
    current = np.full(n, base)
    train_loss: list[float] = []
    all_rows = np.arange(n)
    for _ in range(params.n_estimators):
        residual = y - current
        if params.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=sample_size, replace=False))
        else:
            rows = all_rows
        tree = grow_tree(X, residual, rows, **grow)
        current = current + params.learning_rate * tree.predict(X)
        trees.append(tree)
        train_loss.append(float(np.mean((y - current) ** 2)))
    return Ensemble("gbt", params, names, trees, _aggregate_importances(trees, n_features),
                    base_prediction=base, train_loss=train_loss)


# bench/workloads.py calls ``rc.fit_gbt``, bench/selftest.py patches
# ``ratecast.fit_gbt``, and the acceptance tests call it.
fit_gbt = functools.partial(fit_family, "gbt")


def predict_raw(model: Ensemble, X: np.ndarray) -> np.ndarray:
    """Unclamped ensemble output; prefer :func:`predict` for reporting."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d array")
    if X.shape[1] != len(model.feature_names):
        raise ValueError(
            f"feature count mismatch: model has {len(model.feature_names)}, "
            f"X has {X.shape[1]}"
        )
    if X.shape[0] == 0:
        return np.zeros(0)
    # A tree would send NaN to the right child and score it without a word.
    _require_finite_features(X)
    if model.family == "gbt":
        out = np.full(X.shape[0], model.base_prediction)
        for tree in model.trees:
            out += model.params.learning_rate * tree.predict(X)
        return out
    out = np.zeros(X.shape[0])
    for tree in model.trees:
        out += tree.predict(X)
    return out / max(1, len(model.trees))


def predict(model: Ensemble, X: np.ndarray) -> np.ndarray:
    """Predicted transfer rates, clamped at zero."""
    return np.maximum(predict_raw(model, X), 0.0)


def feature_importance(model: Ensemble) -> list[tuple[str, float]]:
    """(name, share) pairs sorted by descending gain share."""
    pairs = list(zip(model.feature_names, (float(v) for v in model.importances)))
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs


@dataclass
class ModelFile(JsonArtifact):
    """``model.json``: one fitted ensemble, as :func:`model_to_dict` writes it.

    ``base_prediction`` and ``train_loss`` belong to a boosted model; a field
    that is None is left out of the file.
    """

    format_version: int
    family: str
    params: dict
    feature_names: list[str]
    importances: list[float]
    trees: list[dict]
    base_prediction: float | None = None
    train_loss: list[float] | None = None

    def to_dict(self) -> dict:
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}


def model_to_dict(model: Ensemble) -> dict:
    return ModelFile(
        format_version=MODEL_FORMAT_VERSION,
        family=model.family,
        params=model.params.to_dict(),
        feature_names=model.feature_names,
        importances=model.importances.tolist(),
        trees=[t.to_dict() for t in model.trees],
        base_prediction=model.base_prediction,
        train_loss=model.train_loss,
    ).to_dict()


def model_from_dict(payload: dict) -> Ensemble:
    """Rebuild a model from :func:`model_to_dict` output.

    Raises ValueError naming the missing or malformed field.
    """
    # A file of another version may lay its fields out differently.
    if isinstance(payload, dict) and payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {payload.get('format_version')!r}")
    file = ModelFile.from_dict(payload)
    if file.family not in FAMILIES:
        raise ValueError(f"unknown model family: {file.family!r}")
    gbt = file.family == "gbt"
    if gbt and file.base_prediction is None:
        raise ValueError("lacks field 'base_prediction'")
    n_features = len(file.feature_names)
    if len(file.importances) != n_features:
        raise ValueError(f"field 'importances' must be a list of {n_features} numbers")
    try:
        params = HyperParams.from_dict(file.params)
    except ValueError as exc:
        raise ValueError(f"field 'params': {exc}") from None
    trees = []
    for i, tree in enumerate(file.trees):
        try:
            trees.append(RegressionTree.from_dict(tree, n_features))
        except ValueError as exc:
            raise ValueError(f"tree {i}: {exc}") from None
    # JSON integers are numbers too; predict_raw adds float trees onto the base.
    return Ensemble(file.family, params, file.feature_names, trees,
                    np.asarray(file.importances, dtype=float),
                    base_prediction=float(file.base_prediction) if gbt else None,
                    train_loss=[float(v) for v in file.train_loss or []] if gbt else None)


def save_model(model: Ensemble, path: str) -> None:
    """Write ``model.json`` on one line; a non-finite number raises ValueError naming ``path``."""
    write_json(path, model_to_dict(model), indent=None)


def load_model(path: str) -> Ensemble:
    """Read a model JSON file; a malformed file raises ValueError naming it."""
    return read_json(path, model_from_dict)
