import math
from unittest import mock

import numpy as np
import pytest

import ratecast.validation as validation
import ratecast.models as models
from ratecast.models import HyperParams, predict
from ratecast.validation import (
    CvConfig,
    HyperParamSpace,
    chronological_split,
    fit_family,
    holdout_rows,
    make_folds,
    nested_cv,
    rmse,
    sample_hyperparams,
    subset_rows,
)


# ------------------------------------------------------------------------ rmse


def test_rmse_identity_is_zero():
    assert rmse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 0.0


def test_rmse_known_value():
    assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
        math.sqrt(12.5)
    )


def test_rmse_is_permutation_invariant():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=50)
    actual = rng.normal(size=50)
    perm = rng.permutation(50)
    assert rmse(pred, actual) == pytest.approx(rmse(pred[perm], actual[perm]))


def test_rmse_rejects_bad_shapes():
    with pytest.raises(ValueError):
        rmse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        rmse(np.zeros(0), np.zeros(0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rmse_refuses_errors_whose_squares_overflow():
    # A model.json base_prediction of 1e308 scored "holdout RMSE: inf MB/s" with exit 0.
    with pytest.raises(ValueError, match="^RMSE is inf: "):
        rmse(np.array([1e308, 1.0]), np.array([100.0, 1.0]))
    assert rmse(np.array([1e154]), np.array([0.0])) == 1e154


# --------------------------------------------------------------------- sampler


def test_degenerate_ranges_pin_every_knob():
    space = HyperParamSpace(
        learning_rate=(0.1, 0.1),
        n_estimators=(100, 100),
        max_depth=(7, 7),
        min_samples_split=(30, 30),
        min_samples_leaf=(10, 10),
        max_features=(4.12, 4.12),
        subsample=(1.0, 1.0),
    )
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = sample_hyperparams(space, rng)
        assert p.learning_rate == pytest.approx(0.1)
        assert (p.n_estimators, p.max_depth) == (100, 7)
        assert (p.min_samples_split, p.min_samples_leaf) == (30, 10)
        assert p.max_features == 4.12
        assert p.subsample == 1.0


def test_sampler_replays_under_same_seed():
    space = HyperParamSpace()
    draws_a = [sample_hyperparams(space, np.random.default_rng(9)) for _ in range(1)]
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    seq1 = [sample_hyperparams(space, rng1) for _ in range(10)]
    seq2 = [sample_hyperparams(space, rng2) for _ in range(10)]
    assert seq1 == seq2
    assert seq1[0] == draws_a[0]


def test_sampler_stays_within_bounds_over_many_draws():
    space = HyperParamSpace(
        learning_rate=(0.01, 0.5),
        n_estimators=(10, 50),
        max_depth=(2, 9),
        min_samples_split=(5, 40),
        min_samples_leaf=(2, 30),
        max_features=(1.0, 6.0),
        subsample=(0.5, 1.0),
    )
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        p = sample_hyperparams(space, rng)
        assert 0.01 <= p.learning_rate <= 0.5
        assert 10 <= p.n_estimators <= 50
        assert 2 <= p.max_depth <= 9
        assert 5 <= p.min_samples_split <= 40
        assert 2 <= p.min_samples_leaf <= min(30, p.min_samples_split)
        assert 1.0 <= p.max_features <= 6.0
        assert 0.5 <= p.subsample <= 1.0


def test_space_rejects_empty_or_invalid_ranges():
    with pytest.raises(ValueError, match="empty range"):
        HyperParamSpace(max_depth=(8, 3))
    with pytest.raises(ValueError, match="min_samples_leaf"):
        HyperParamSpace(min_samples_leaf=(50, 60), min_samples_split=(10, 100))


# ----------------------------------------------------------------------- folds


def test_fold_placement_forced_when_widths_fill_rows():
    config = CvConfig(k=5, train_width=80, test_width=20, train_size=40, test_size=10)
    folds = make_folds(100, config, np.random.default_rng(0))
    for fold in folds:
        assert fold.train_region == (0, 80)
        assert fold.test_region == (80, 100)


def test_full_width_subset_is_whole_region():
    config = CvConfig(k=3, train_width=50, test_width=10, train_size=50, test_size=10)
    folds = make_folds(200, config, np.random.default_rng(1))
    for fold in folds:
        lo, hi = fold.train_region
        np.testing.assert_array_equal(fold.train_rows, np.arange(lo, hi))


def test_fold_widths_must_fit():
    config = CvConfig(k=1, train_width=90, test_width=20, train_size=10, test_size=5)
    with pytest.raises(ValueError, match="exceeds"):
        make_folds(100, config, np.random.default_rng(0))


def test_every_train_row_precedes_every_test_row_over_random_configs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n_rows = int(rng.integers(30, 500))
        train_width = int(rng.integers(5, n_rows - 10))
        test_width = int(rng.integers(1, n_rows - train_width))
        config = CvConfig(
            k=int(rng.integers(1, 6)),
            train_width=train_width,
            test_width=test_width,
            train_size=int(rng.integers(1, train_width + 1)),
            test_size=int(rng.integers(1, test_width + 1)),
            seed=int(rng.integers(0, 1000)),
        )
        for fold in make_folds(n_rows, config, rng):
            assert fold.train_rows.max() < fold.test_rows.min()
            assert len(set(fold.train_rows.tolist())) == config.train_size
            assert len(set(fold.test_rows.tolist())) == config.test_size


def test_cv_config_validation():
    with pytest.raises(ValueError, match="train_size"):
        CvConfig(train_size=100, train_width=50)
    with pytest.raises(ValueError, match="positive"):
        CvConfig(k=0)


# ------------------------------------------------------------------- nested cv


_CV_DATA_CONFIG = CvConfig(
    num_params=1, k=3, train_width=150, test_width=50, train_size=120, test_size=40, seed=5
)


def _xor_data(n=400, seed=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 2))
    y = 10.0 * ((X[:, 0] > 5) ^ (X[:, 1] > 5))
    return X, y


def test_single_candidate_is_returned_regardless_of_score():
    X, y = _xor_data()
    space = HyperParamSpace(
        n_estimators=(5, 20), max_depth=(1, 4),
        min_samples_split=(2, 10), min_samples_leaf=(1, 5), max_features=(1.0, 2.0),
    )
    result = nested_cv(X, y, _CV_DATA_CONFIG, space, family="gbt")
    assert result.best_index == 0
    assert len(result.candidates) == 1
    assert result.best_params == result.candidates[0]


def test_nested_cv_recovers_planted_model():
    # the XOR-style target needs interaction depth; stumps cannot express it
    X, y = _xor_data()
    shallow = HyperParams(
        learning_rate=1.0, n_estimators=40, max_depth=1,
        min_samples_split=2, min_samples_leaf=1, max_features=2.0, seed=0,
    )
    deep = HyperParams(
        learning_rate=1.0, n_estimators=40, max_depth=3,
        min_samples_split=2, min_samples_leaf=1, max_features=2.0, seed=0,
    )
    config = CvConfig(
        num_params=2, k=3, train_width=150, test_width=50,
        train_size=120, test_size=40, seed=5,
    )
    result = nested_cv(X, y, config, candidates=[shallow, deep])
    assert result.best_params == deep
    assert result.mean_rmse[1] < result.mean_rmse[0]


def test_nested_cv_is_deterministic_and_order_independent():
    X, y = _xor_data(seed=6)
    config = CvConfig(
        num_params=3, k=2, train_width=100, test_width=30,
        train_size=60, test_size=20, seed=17,
    )
    space = HyperParamSpace(
        n_estimators=(5, 20), max_depth=(1, 4),
        min_samples_split=(2, 10), min_samples_leaf=(1, 5), max_features=(1.0, 2.0),
    )
    r1 = nested_cv(X, y, config, space)
    r2 = nested_cv(X, y, config, space)
    assert r1.candidates == r2.candidates
    assert r1.fold_rmse == r2.fold_rmse
    assert r1.best_index == r2.best_index


def test_cv_result_ties_keep_earliest_candidate():
    # constant target: every candidate scores exactly 0 in every fold
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 10, size=(300, 2))
    y = np.full(300, 25.0)
    params = HyperParams(
        learning_rate=0.5, n_estimators=5, max_depth=2,
        min_samples_split=2, min_samples_leaf=1, max_features=2.0, seed=0,
    )
    config = CvConfig(
        num_params=2, k=2, train_width=100, test_width=30,
        train_size=80, test_size=25, seed=3,
    )
    result = nested_cv(X, y, config, candidates=[params, params])
    assert result.mean_rmse[0] == result.mean_rmse[1] == 0.0
    assert result.best_index == 0


def test_rf_nested_cv_equals_a_hand_loop_over_its_folds():
    X, y = _xor_data(n=300, seed=8)
    config = CvConfig(
        num_params=2, k=2, train_width=100, test_width=30,
        train_size=80, test_size=25, seed=11,
    )
    space = HyperParamSpace(
        n_estimators=(3, 6), max_depth=(1, 4),
        min_samples_split=(2, 10), min_samples_leaf=(1, 5), max_features=(1.0, 2.0),
    )
    result = nested_cv(X, y, config, space, family="rf")
    for c, params in enumerate(result.candidates):
        rng = np.random.default_rng((config.seed, c))
        assert sample_hyperparams(space, rng) == params
        scores = []
        for fold in make_folds(len(y), config, rng):
            model = fit_family("rf", X[fold.train_rows], y[fold.train_rows], params)
            scores.append(rmse(predict(model, X[fold.test_rows]), y[fold.test_rows]))
        assert result.fold_rmse[c] == scores
    assert result.best_index == int(np.argmin(result.mean_rmse))


def test_nested_cv_fits_through_its_module_global_fit_family():
    # The bench's tracer wraps validation.fit_family to time and count each fit.
    assert validation.fit_family is models.fit_family
    X, y = _xor_data(n=300)
    config = CvConfig(
        num_params=3, k=2, train_width=100, test_width=30,
        train_size=80, test_size=25, seed=7,
    )
    space = HyperParamSpace(
        n_estimators=(2, 4), max_depth=(1, 3),
        min_samples_split=(2, 10), min_samples_leaf=(1, 5), max_features=(1.0, 2.0),
    )
    with mock.patch.object(validation, "fit_family", wraps=models.fit_family) as fit:
        nested_cv(X, y, config, space, family="rf")
    assert fit.call_count == config.num_params * config.k
    assert {call.args[0] for call in fit.call_args_list} == {"rf"}


def test_nested_cv_rejects_nan_target_in_a_test_only_row():
    # No fit of this search trains on row 250. Checked only per fit, its NaN
    # reached the fold scores alone: mean_rmse [nan, 4.88, nan], best_index 0.
    X, y = _xor_data(n=300)
    y[250] = np.nan
    config = CvConfig(
        num_params=3, k=2, train_width=100, test_width=30,
        train_size=80, test_size=25, seed=7,
    )
    space = HyperParamSpace(
        n_estimators=(5, 20), max_depth=(1, 4),
        min_samples_split=(2, 10), min_samples_leaf=(1, 5), max_features=(1.0, 2.0),
    )
    fitted = []
    with mock.patch.object(validation, "fit_family", lambda *a: fitted.append(a)):
        with pytest.raises(ValueError, match="non-finite target nan at row 250"):
            nested_cv(X, y, config, space)
    assert fitted == []
    X[299, 1] = np.inf
    y[250] = 1.0
    with pytest.raises(ValueError, match="non-finite feature value inf at row 299, column 1"):
        nested_cv(X, y, config, space)


# -------------------------------------------------------------------- holdout


def test_chronological_split_examples():
    assert chronological_split(10, 0.9) == 9
    assert chronological_split(30, 0.1) == 3
    assert chronological_split(2, 0.9) == 1
    for n_rows in (0, 1):
        with pytest.raises(ValueError, match="at least 2 rows"):
            chronological_split(n_rows, 0.9)


def _holdout_rmse(X, y, params, rows):
    train_rows, test_rows = rows
    model = fit_family("gbt", X[train_rows], y[train_rows], params)
    return rmse(predict(model, X[test_rows]), y[test_rows])


def test_holdout_split_rows():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.full(10, 5.0)
    params = HyperParams(
        n_estimators=2, max_depth=2, min_samples_split=2, min_samples_leaf=1,
        max_features=1.0, seed=0,
    )
    rows = holdout_rows(10, 0.9, None, None, 0)
    np.testing.assert_array_equal(rows[0], np.arange(9))
    np.testing.assert_array_equal(rows[1], np.array([9]))
    assert _holdout_rmse(X, y, params, rows) == 0.0  # constant target is learned exactly


def test_holdout_subsets_replay_with_seed():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 10, size=(200, 3))
    y = X[:, 0] * 2 + rng.normal(0, 0.1, 200)
    params = HyperParams(
        n_estimators=10, max_depth=3, min_samples_split=2, min_samples_leaf=1,
        max_features=3.0, seed=1,
    )
    a = holdout_rows(200, 0.9, 100, 10, 42)
    b = holdout_rows(200, 0.9, 100, 10, 42)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert _holdout_rmse(X, y, params, a) == _holdout_rmse(X, y, params, b)
    c = holdout_rows(200, 0.9, 100, 10, 43)
    assert not np.array_equal(a[0], c[0])
    # Each side from its own stream, so neither depends on the other's size.
    np.testing.assert_array_equal(
        a[0], subset_rows(0, 180, 100, np.random.default_rng(42), "train_subset")
    )
    np.testing.assert_array_equal(
        a[1], subset_rows(180, 200, 10, np.random.default_rng(42), "test_subset")
    )
    np.testing.assert_array_equal(holdout_rows(200, 0.9, None, 10, 42)[1], a[1])
    np.testing.assert_array_equal(holdout_rows(200, 0.9, 100, None, 42)[0], a[0])


def test_subset_rows_is_the_whole_side_or_a_sorted_draw():
    np.testing.assert_array_equal(subset_rows(3, 7, None, None, "x"), np.arange(3, 7))
    rows = subset_rows(10, 30, 5, np.random.default_rng(1), "x")
    want = np.sort(10 + np.random.default_rng(1).choice(20, size=5, replace=False))
    np.testing.assert_array_equal(rows, want)
    assert np.all(np.diff(rows) > 0) and rows.min() >= 10 and rows.max() < 30
    np.testing.assert_array_equal(subset_rows(3, 7, 4, np.random.default_rng(1), "x"),
                                  np.arange(3, 7))
    with pytest.raises(ValueError, match="^test_subset 5 exceeds side of 4$"):
        subset_rows(3, 7, 5, np.random.default_rng(1), "test_subset")


def test_holdout_rejects_oversized_subsets():
    with pytest.raises(ValueError, match="train_subset"):
        holdout_rows(20, 0.9, 19, None, 0)
    with pytest.raises(ValueError, match="test_subset"):
        holdout_rows(20, 0.9, None, 5, 0)


def test_holdout_scoring_clamps_predictions():
    rng = np.random.default_rng(10)
    X = rng.uniform(0, 10, size=(100, 2))
    y = -(X[:, 0] * 5 + 10)  # negative targets force negative raw output
    params = HyperParams(
        n_estimators=20, max_depth=3, min_samples_split=2, min_samples_leaf=1,
        max_features=2.0, seed=0,
    )
    train_rows, test_rows = holdout_rows(100, 0.8, None, None, 0)
    model = fit_family("gbt", X[train_rows], y[train_rows], params)
    predictions = predict(model, X[test_rows])
    assert predictions.min() >= 0.0
    # clamped-at-zero predictions of all-negative targets score like a zero forecast
    actuals = y[test_rows]
    assert rmse(predictions, actuals) == pytest.approx(float(np.sqrt(np.mean(actuals**2))))
