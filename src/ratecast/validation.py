"""Time-order-preserving model selection and evaluation.

The nested cross validation here never trains on rows that come after the
rows it tests on: each fold places a contiguous training region immediately
before a contiguous test region, then samples row subsets inside each.
Because every training index precedes every test index, lag-style features
cannot leak future information into the score. Scoring always clamps
predictions at zero before computing RMSE.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .artifacts import JsonArtifact
from .models import MAX_ESTIMATORS, HyperParams, fit_family, predict
from .models import _validate_training_input


def rmse(pred: np.ndarray, actual: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ValueError("pred and actual must be 1-d arrays of equal length")
    if pred.size == 0:
        raise ValueError("rmse of empty arrays is undefined")
    diff = pred - actual
    with np.errstate(over="ignore"):  # the error below says it
        score = float(np.sqrt(np.mean(diff * diff)))
    if not math.isfinite(score):
        raise ValueError(f"RMSE is {score}: a prediction, target or squared error is not finite")
    return score


@dataclass(frozen=True)
class CvConfig:
    """Knobs for the fold generator and candidate search."""

    num_params: int = 10
    k: int = 10
    train_width: int = 20000
    test_width: int = 2000
    train_size: int = 5000
    test_size: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_params", "k", "train_width", "test_width", "train_size", "test_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.train_size > self.train_width:
            raise ValueError("train_size must not exceed train_width")
        if self.test_size > self.test_width:
            raise ValueError("test_size must not exceed test_width")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class HyperParamSpace(JsonArtifact):
    """Sampling ranges per knob: log-uniform learning rate, uniform otherwise.

    ``min_samples_leaf`` is drawn after ``min_samples_split`` and capped by it
    so every draw is a valid :class:`HyperParams`; the space requires
    ``min_samples_leaf[0] <= min_samples_split[0]`` for the cap to be sound.
    Degenerate ranges (lo == hi) pin a knob.
    """

    unknown_key = "hyperparameter"  # from_dict rejects a key that names no field
    learning_rate: tuple[float, float] = (0.02, 0.3)
    n_estimators: tuple[int, int] = (50, 400)
    max_depth: tuple[int, int] = (3, 11)
    min_samples_split: tuple[int, int] = (20, 700)
    min_samples_leaf: tuple[int, int] = (5, 20)
    max_features: tuple[float, float] = (1.0, 8.0)
    subsample: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"empty range for {name}: ({lo}, {hi})")
            if lo <= 0:
                raise ValueError(f"{name} range must be positive")
        if self.min_samples_leaf[0] > self.min_samples_split[0]:
            raise ValueError(
                "min_samples_leaf lower bound must not exceed min_samples_split lower bound"
            )
        if self.subsample[1] > 1:
            raise ValueError("subsample range must stay within (0, 1]")
        if self.n_estimators[1] > MAX_ESTIMATORS:
            raise ValueError(f"n_estimators range must stay within [1, {MAX_ESTIMATORS}]")


def _uniform_int(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    return int(rng.integers(lo, hi + 1))


def sample_hyperparams(space: HyperParamSpace, rng: np.random.Generator) -> HyperParams:
    """Draw one candidate; deterministic for a given generator state."""
    lr_lo, lr_hi = space.learning_rate
    learning_rate = float(math.exp(rng.uniform(math.log(lr_lo), math.log(lr_hi))))
    n_estimators = _uniform_int(rng, space.n_estimators)
    max_depth = _uniform_int(rng, space.max_depth)
    min_samples_split = _uniform_int(rng, space.min_samples_split)
    leaf_hi = min(space.min_samples_leaf[1], min_samples_split)
    min_samples_leaf = _uniform_int(rng, (space.min_samples_leaf[0], leaf_hi))
    max_features = float(rng.uniform(*space.max_features))
    subsample = float(rng.uniform(*space.subsample))
    seed = int(rng.integers(0, 2**31))
    return HyperParams(
        learning_rate=learning_rate, n_estimators=n_estimators, max_depth=max_depth,
        min_samples_split=min_samples_split, min_samples_leaf=min_samples_leaf,
        max_features=max_features, subsample=subsample, seed=seed,
    )


@dataclass(frozen=True)
class FoldSpec:
    """One fold: contiguous regions plus the row subsets actually used."""

    train_region: tuple[int, int]
    test_region: tuple[int, int]
    train_rows: np.ndarray
    test_rows: np.ndarray


def make_folds(n_rows: int, config: CvConfig, rng: np.random.Generator) -> list[FoldSpec]:
    """Sample ``config.k`` folds; every train row index precedes every test row index.

    The training region start is uniform over all placements that leave room
    for the adjacent test region; regions of different folds may overlap.
    """
    width = config.train_width + config.test_width
    if width > n_rows:
        raise ValueError(f"train_width + test_width = {width} exceeds {n_rows} rows")
    folds = []
    for _ in range(config.k):
        a = int(rng.integers(0, n_rows - width + 1))
        train, test = (a, a + config.train_width), (a + config.train_width, a + width)
        train_rows = subset_rows(*train, config.train_size, rng, "train_size")
        test_rows = subset_rows(*test, config.test_size, rng, "test_size")
        folds.append(FoldSpec(train, test, train_rows, test_rows))
    return folds


@dataclass
class CvResult:
    candidates: list[HyperParams]
    fold_rmse: list[list[float]]
    mean_rmse: list[float]
    best_index: int

    @property
    def best_params(self) -> HyperParams:
        return self.candidates[self.best_index]

    def to_dict(self) -> dict:
        return {**asdict(self), "best_params": self.best_params.to_dict()}


@dataclass(frozen=True)
class CvReport(JsonArtifact):
    """``cv.json``: a :class:`CvResult` with the family, config and timing of its run.

    ``train --from-cv`` reads the whole file and fits ``best_params``.
    """

    best_params: dict
    best_index: int
    mean_rmse: list[float]
    candidates: list[dict] | None = None
    fold_rmse: list[list[float]] | None = None
    family: str | None = None
    config: dict | None = None
    timing: dict[str, float] | None = None
    format_version: int = 1

    def __post_init__(self) -> None:
        best, n = self.best_index, len(self.mean_rmse)
        if not 0 <= best < n:
            raise ValueError(f"field 'best_index' must index 'mean_rmse' of {n}, got {best}")
        try:
            HyperParams.from_dict(self.best_params)
        except ValueError as exc:
            raise ValueError(f"field 'best_params': {exc}") from None


def nested_cv(
    X: np.ndarray,
    y: np.ndarray,
    config: CvConfig,
    space: HyperParamSpace | None = None,
    family: str = "gbt",
    candidates: Sequence[HyperParams] | None = None,
) -> CvResult:
    """Random-search hyperparameters with order-preserving folds.

    Rows of ``X`` must already be in chronological order. Each candidate owns
    an RNG stream derived from (config.seed, candidate index), so scores do
    not depend on evaluation order. The candidate with the lowest mean fold
    RMSE wins; on ties the earliest-sampled candidate is kept. Passing
    explicit ``candidates`` skips sampling (folds are still drawn per
    candidate from its stream).

    All of ``X`` and ``y`` is checked before any fit: folds score rows that
    no fit sees, and a NaN fold score must not win the search.
    """
    X, y = _validate_training_input(X, y)
    if space is None:
        space = HyperParamSpace()
    n_candidates = len(candidates) if candidates is not None else config.num_params

    sampled: list[HyperParams] = []
    fold_rmse: list[list[float]] = []
    mean_rmse: list[float] = []
    best_index = 0
    for c in range(n_candidates):
        rng = np.random.default_rng((config.seed, c))
        params = candidates[c] if candidates is not None else sample_hyperparams(space, rng)
        scores = []
        for fold in make_folds(X.shape[0], config, rng):
            model = fit_family(family, X[fold.train_rows], y[fold.train_rows], params)
            preds = predict(model, X[fold.test_rows])
            scores.append(rmse(preds, y[fold.test_rows]))
        sampled.append(params)
        fold_rmse.append(scores)
        mean_rmse.append(float(np.mean(scores)))
        if mean_rmse[c] < mean_rmse[best_index]:
            best_index = c
    return CvResult(sampled, fold_rmse, mean_rmse, best_index)


def chronological_split(n_rows: int, split: float) -> int:
    """Rows in the training side of a chronological ``split`` fraction."""
    if not 0 < split < 1:
        raise ValueError("split must be in (0, 1)")
    if n_rows < 2:
        raise ValueError(f"a chronological split needs at least 2 rows, got {n_rows}")
    n_train = int(n_rows * split + 1e-9)
    return min(max(n_train, 1), n_rows - 1)


def subset_rows(
    lo: int, hi: int, size: int | None, rng: np.random.Generator, name: str
) -> np.ndarray:
    """Rows ``lo..hi-1``, or a sorted uniform draw of ``size`` of them without replacement.

    ``name`` labels the error raised when ``size`` exceeds the side.
    """
    if size is None:
        return np.arange(lo, hi)
    if size > hi - lo:
        raise ValueError(f"{name} {size} exceeds side of {hi - lo}")
    return np.sort(lo + rng.choice(hi - lo, size=size, replace=False))


def holdout_rows(
    n_rows: int, split: float, train_size: int | None, test_size: int | None, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(train rows, test rows) of a chronological holdout of ``n_rows`` rows.

    The first ``split`` of the rows train and the rest test. Each side is
    either whole or a sorted draw of ``train_size``/``test_size`` of its rows
    from its own ``default_rng(seed)``, so neither side depends on the other's
    size: ``eval`` rebuilds the test side of ``train``'s split without knowing
    its ``--train-subset``.
    """
    n_train = chronological_split(n_rows, split)
    return (
        subset_rows(0, n_train, train_size, np.random.default_rng(seed), "train_subset"),
        subset_rows(n_train, n_rows, test_size, np.random.default_rng(seed), "test_subset"),
    )


@dataclass(frozen=True)
class EvalReport(JsonArtifact):
    """``eval.json``: the holdout RMSE of a model and the rows ``eval`` scored."""

    rmse_mbs: float
    n_test: int | None = None
    split: float | None = None
    test_subset: int | None = None
    seed: int | None = None
    timing: dict[str, float] | None = None
