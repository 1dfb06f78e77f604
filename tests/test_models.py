import functools
import hashlib
import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratecast.models import (
    Ensemble,
    HyperParams,
    feature_importance,
    fit_family,
    fit_gbt,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_raw,
    save_model,
)
import ratecast.tree
from ratecast import models
from ratecast.tree import RegressionTree, grow_tree, rank_columns

from helpers import traced_peak
from oracles import reference_grow_tree

FAST = dict(min_samples_split=2, min_samples_leaf=1, subsample=1.0, seed=3)


def _data(n=300, n_features=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, n_features))
    return X, rng


# ----------------------------------------------------------------- HyperParams


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="learning_rate"):
        HyperParams(learning_rate=0.0)
    with pytest.raises(ValueError, match="min_samples_leaf"):
        HyperParams(min_samples_leaf=50, min_samples_split=10)
    with pytest.raises(ValueError, match="subsample"):
        HyperParams(subsample=1.5)
    with pytest.raises(ValueError, match="n_estimators"):
        HyperParams(n_estimators=0)


@pytest.mark.parametrize("name", ["learning_rate", "max_features", "subsample"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_hyperparams_reject_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        HyperParams(**{name: value})
    with pytest.raises(ValueError, match=f"field '{name}' must be a finite number"):
        HyperParams.from_dict({name: value})


@pytest.mark.parametrize("name", ["learning_rate", "max_features", "subsample"])
@pytest.mark.parametrize("value", [2**64, 10**30, 10**400, -(10**400)],
                         ids=["2**64", "10**30", "10**400", "-10**400"])
def test_hyperparams_refuse_an_integer_past_float64_by_name(name, value):
    # np.isfinite raised TypeError on an integer past the uint64 range.
    try:
        HyperParams(**{name: value})
    except ValueError as exc:
        assert str(exc).startswith(name)
    if abs(value) > 2**1024:
        with pytest.raises(ValueError, match=f"^{name} must be finite, got [-]?1000"):
            HyperParams(**{name: value})


def test_hyperparams_take_an_integer_max_features_past_uint64_and_refuse_it_at_fit():
    params = HyperParams(max_features=2**64)
    with pytest.raises(ValueError, match="max_features rounds to 18446744073709551616"):
        params.resolve_max_features(10)


def test_max_features_rounding_and_fraction():
    assert HyperParams(max_features=4.12).resolve_max_features(10) == 4
    assert HyperParams(max_features=0.5).resolve_max_features(10) == 5
    assert HyperParams(max_features=0.01).resolve_max_features(10) == 1
    with pytest.raises(ValueError, match="max_features"):
        HyperParams(max_features=12.0).resolve_max_features(10)


# ------------------------------------------------------------------------ tree


def test_tree_respects_depth_and_leaf_size():
    X, rng = _data(400, 3, seed=1)
    y = X[:, 0] + rng.normal(0, 0.1, 400)
    tree = grow_tree(
        X,
        y,
        np.arange(400),
        max_depth=3,
        min_samples_split=10,
        min_samples_leaf=5,
        n_candidate_features=3,
        rng=np.random.default_rng(0),
        ranks=rank_columns(X),
    )
    # depth bound: longest root-to-leaf path has at most 3 edges
    depth = {0: 0}
    max_seen = 0
    for node in range(tree.n_nodes):
        if tree.feature[node] >= 0:
            depth[int(tree.left[node])] = depth[node] + 1
            depth[int(tree.right[node])] = depth[node] + 1
            max_seen = max(max_seen, depth[node] + 1)
    assert max_seen <= 3
    leaf_sizes = tree.n_node_samples[tree.feature < 0]
    assert leaf_sizes.min() >= 5
    # every split carries strictly positive gain
    assert tree.feature_gains.sum() > 0


def test_tree_constant_target_is_single_leaf():
    X, _ = _data(50, 2)
    tree = grow_tree(
        X,
        np.full(50, 7.5),
        np.arange(50),
        max_depth=5,
        min_samples_split=2,
        min_samples_leaf=1,
        n_candidate_features=2,
        rng=np.random.default_rng(0),
        ranks=rank_columns(X),
    )
    assert tree.n_nodes == 1
    assert tree.value[0] == 7.5


def _column(rng, kind, n, earlier):
    if kind == "duplicate":  # exactly tied gains, which the first candidate must win
        return earlier[int(rng.integers(len(earlier)))] if earlier else rng.normal(size=n)
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "low-cardinality":
        return rng.integers(0, 3, n).astype(float)
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "signed-zeros":
        return rng.choice([-0.0, 0.0, -1.5, 1.5], n)
    if kind == "zero-edge":  # thresholds -5e-324 (the midpoint -0.0 is not below 0.0) and 0.0
        return rng.choice([-5e-324, -0.0, 0.0, 5e-324], n)
    if kind == "adjacent":  # adjacent doubles: the first midpoint rounds up onto 1 + 2**-51
        return rng.choice(1.0 + np.arange(1, 4) * 2.0**-52, n)
    return np.round(rng.normal(size=n), 1)  # "ties": a few dozen distinct values


_BIG = (np.finfo(float).max / 2) ** 0.5


def _target(rng, kind, n):
    if kind == "overflow-edge":
        # The squares of rows 0 and 1 sum to one ulp below the largest double,
        # and the others square to just under half that ulp. So a running sum
        # of squares overflows only when four of the others come before both
        # big rows: gains are NaN for some candidate orders and finite for others.
        y = rng.choice([-1.0, 1.0], n) * 0.99**0.5 * 2.0**485
        y[:2] = _BIG, -_BIG
        return y
    # "huge": squares and sums of squares overflow, so gains are +-inf or NaN.
    lo, hi = {"normal": (-3, 3), "huge": (150, 154)}[kind]
    return rng.normal(size=n) * 10.0 ** rng.uniform(lo, hi)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 150),
    kinds=st.lists(
        st.sampled_from(
            ["continuous", "low-cardinality", "constant", "signed-zeros", "zero-edge",
             "adjacent", "ties", "duplicate"]
        ),
        min_size=1,
        max_size=6,
    ),
    bootstrap=st.booleans(),
    min_samples_split=st.integers(1, 40),
    leaf_edge=st.sampled_from(["one", "split", "half", "any"]),
    max_depth=st.integers(1, 12),
    candidates=st.integers(1, 6),
    block_cells=st.sampled_from([1, 7, 100, 1 << 15, 1 << 17]),
    target=st.sampled_from(["normal", "huge", "overflow-edge"]),
)
# Pinned: a candidate with NaN gains ahead of one that splits, which must not
# hide it; a column tied with an earlier one, whose first cut must win; cuts at
# 0.0 and below -0.0, where -0.0 and 0.0 rows must go the same way; and a
# midpoint that collapses onto the higher of two adjacent doubles.
@example(seed=1, n=10, kinds=["continuous"] * 4, bootstrap=False, min_samples_split=2,
         leaf_edge="one", max_depth=3, candidates=6, block_cells=1 << 17,
         target="overflow-edge")
@example(seed=0, n=10, kinds=["continuous", "duplicate"], bootstrap=False, min_samples_split=2,
         leaf_edge="one", max_depth=3, candidates=6, block_cells=1 << 17, target="normal")
@example(seed=2, n=40, kinds=["zero-edge"], bootstrap=False, min_samples_split=2,
         leaf_edge="one", max_depth=4, candidates=1, block_cells=1 << 17, target="normal")
@example(seed=3, n=40, kinds=["adjacent"], bootstrap=False, min_samples_split=2,
         leaf_edge="one", max_depth=4, candidates=1, block_cells=1 << 17, target="normal")
def test_grow_tree_matches_reference_bit_for_bit(
    seed, n, kinds, bootstrap, min_samples_split, leaf_edge, max_depth, candidates, block_cells,
    target,
):
    rng = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        columns.append(_column(rng, kind, n, columns))
    X = np.column_stack(columns)
    y = _target(rng, target, n)
    rows = np.sort(rng.choice(n, size=n, replace=True)) if bootstrap else np.arange(n)
    min_samples_leaf = {
        "one": 1,
        "split": min_samples_split,
        "half": max(1, n // 2),
        "any": int(rng.integers(1, min_samples_split + 1)),
    }[leaf_edge]
    kwargs = dict(
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        n_candidate_features=min(candidates, len(kinds)),
    )
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    # Small budgets split even a node's few candidates over several blocks.
    with mock.patch.object(ratecast.tree, "_BLOCK_CELLS", block_cells):
        got = grow_tree(X, y, rows, rng=got_rng, ranks=rank_columns(X), **kwargs)
    want = reference_grow_tree(X, y, rows, rng=want_rng, **kwargs)
    for name in RegressionTree.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_rank_columns_shares_ranks_between_equal_values():
    X = np.array([[0.0, 3.0], [-0.0, 1.0], [2.5, 3.0], [-1.0, 2.0]])
    ranks = rank_columns(X)
    assert ranks.dtype == np.uint16
    np.testing.assert_array_equal(ranks, [[1, 1, 2, 0], [2, 0, 2, 1]])
    top = rank_columns(np.arange(65_536.0)[::-1, None])
    assert top.dtype == np.uint16
    np.testing.assert_array_equal(top[0], np.arange(65_536)[::-1])
    many = rank_columns(np.arange(65_537.0)[::-1, None])
    assert many.dtype == np.uint32
    np.testing.assert_array_equal(many[0], np.arange(65_537)[::-1])
    # More rows than uint16 counts, but two distinct values: narrowed to uint16.
    two = rank_columns((np.arange(65_537) % 2.0)[:, None])
    assert two.dtype == np.uint16
    np.testing.assert_array_equal(two[0], np.arange(65_537) % 2)


def test_rank_columns_holds_no_wider_staging_copy():
    X = np.random.default_rng(0).normal(size=(60_000, 60))
    tracemalloc.start()
    try:
        ranks = rank_columns(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks.dtype == np.uint16
    # uint32 staging plus its uint16 copy would peak at three times the ranks.
    assert peak < 2 * ranks.nbytes


def test_fit_peak_is_bounded_by_the_block_budget():
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(30_000, 40)), rng.normal(size=30_000)
    peak, _ = traced_peak(fit_gbt, X, y, HyperParams(n_estimators=2))
    # Blocks of 2**17 rank cells peaked at 19.5 MB; the ranks alone are 2.4 MB.
    assert peak <= 10e6


# ------------------------------------------------------------------------- GBT


def test_gbt_constant_target_predicts_constant():
    X, _ = _data(100, 3)
    y = np.full(100, 42.5)
    model = fit_gbt(X, y, HyperParams(n_estimators=10, max_depth=3, max_features=3.0, **FAST))
    np.testing.assert_array_equal(predict(model, X), y)


def test_gbt_noiseless_single_feature_fit():
    rng = np.random.default_rng(0)
    n = 400
    levels = rng.uniform(0, 10, 50)
    X = np.column_stack([levels[rng.integers(0, 50, n)], rng.normal(0, 1, n)])
    y = X[:, 0].copy()
    params = HyperParams(
        learning_rate=0.5, n_estimators=100, max_depth=3, max_features=2.0, **FAST
    )
    model = fit_gbt(X, y, params)
    rmse = float(np.sqrt(np.mean((predict(model, X) - y) ** 2)))
    assert rmse < 1e-3 * np.std(y)


def test_gbt_training_loss_is_non_increasing():
    X, rng = _data(500, 4, seed=2)
    y = 3 * X[:, 0] - X[:, 1] ** 2 + rng.normal(0, 1, 500)
    params = HyperParams(
        learning_rate=0.1,
        n_estimators=600,
        max_depth=4,
        min_samples_split=10,
        min_samples_leaf=5,
        max_features=4.0,
        subsample=1.0,
        seed=0,
    )
    model = fit_gbt(X, y, params)
    losses = np.array(model.train_loss)
    assert len(losses) == 600
    assert np.all(np.diff(losses) <= 1e-9 * max(1.0, losses[0]))


def test_gbt_single_tree_equals_cart_on_residuals():
    X, rng = _data(300, 3, seed=4)
    y = X[:, 0] * 2 + rng.normal(0, 0.5, 300)
    params = HyperParams(
        learning_rate=1.0, n_estimators=1, max_depth=4, max_features=3.0, **FAST
    )
    model = fit_gbt(X, y, params)
    tree = grow_tree(
        X,
        y - y.mean(),
        np.arange(300),
        max_depth=4,
        min_samples_split=2,
        min_samples_leaf=1,
        n_candidate_features=3,
        rng=np.random.default_rng(params.seed),
        ranks=rank_columns(X),
    )
    np.testing.assert_allclose(predict_raw(model, X), tree.predict(X) + y.mean())


# -------------------------------------------------------------------------- RF


def test_rf_single_tree_is_cart_on_its_bootstrap_rows():
    X, rng = _data(200, 3, seed=5)
    y = np.sin(X[:, 0]) + rng.normal(0, 0.05, 200)
    params = HyperParams(
        learning_rate=0.1, n_estimators=1, max_depth=50, max_features=3.0, **FAST
    )
    model = fit_family("rf", X, y, params)
    rng = np.random.default_rng(params.seed)
    tree = grow_tree(
        X,
        y,
        np.sort(rng.choice(200, 200, replace=True)),
        max_depth=50,
        min_samples_split=2,
        min_samples_leaf=1,
        n_candidate_features=3,
        rng=rng,
        ranks=rank_columns(X),
    )
    np.testing.assert_array_equal(predict_raw(model, X), tree.predict(X))


def test_rf_constant_target_predicts_constant():
    X, _ = _data(80, 2)
    y = np.full(80, -3.0)  # raw output is negative, clamp hits it
    params = HyperParams(n_estimators=5, max_depth=3, max_features=2.0, **FAST)
    model = fit_family("rf", X, y, params)
    np.testing.assert_array_equal(predict_raw(model, X), y)
    np.testing.assert_array_equal(predict(model, X), np.zeros(80))


def test_rf_seeded_refit_is_identical():
    X, rng = _data(250, 4, seed=6)
    y = X[:, 1] + rng.normal(0, 0.2, 250)
    params = HyperParams(
        n_estimators=12, max_depth=6, max_features=2.0,
        min_samples_split=4, min_samples_leaf=2, subsample=1.0, seed=11,
    )
    m1 = fit_family("rf", X, y, params)
    m2 = fit_family("rf", X, y, params)
    np.testing.assert_array_equal(predict(m1, X), predict(m2, X))
    assert json.dumps(model_to_dict(m1), sort_keys=True) == json.dumps(
        model_to_dict(m2), sort_keys=True
    )


# ------------------------------------------------------------------ prediction


def test_predict_clamps_negative_output_at_zero():
    X, rng = _data(200, 3, seed=7)
    y = -(X[:, 0] * 10 + 5)  # negated targets force negative raw predictions
    model = fit_gbt(X, y, HyperParams(n_estimators=30, max_depth=3, max_features=3.0, **FAST))
    raw = predict_raw(model, X)
    clamped = predict(model, X)
    assert raw.min() < 0
    assert clamped.min() >= 0
    np.testing.assert_array_equal(clamped, np.maximum(raw, 0.0))
    # positive raw outputs pass through unchanged
    positive = raw > 0
    np.testing.assert_array_equal(clamped[positive], raw[positive])


def test_predict_empty_input_gives_empty_output():
    X, _ = _data(50, 2)
    model = fit_gbt(X, X[:, 0], HyperParams(n_estimators=3, max_depth=2, max_features=2.0, **FAST))
    out = predict(model, np.zeros((0, 2)))
    assert out.shape == (0,)


def test_predict_rejects_column_mismatch():
    X, _ = _data(50, 3)
    model = fit_gbt(X, X[:, 0], HyperParams(n_estimators=3, max_depth=2, max_features=3.0, **FAST))
    with pytest.raises(ValueError, match="feature count mismatch"):
        predict(model, np.zeros((5, 4)))


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_gbt(np.zeros((1, 2)), np.zeros(1), HyperParams())
    with pytest.raises(ValueError):
        fit_gbt(np.zeros((5, 2)), np.zeros(4), HyperParams())


@pytest.mark.parametrize("fit", [fit_gbt, functools.partial(fit_family, "rf")],
                         ids=["fit_gbt", "fit_rf"])
def test_fit_rejects_non_finite_input_naming_first_bad_cell(fit):
    X = np.zeros((6, 3))
    X[4, 0] = np.inf
    X[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite feature value nan at row 3, column 2"):
        fit(X, np.zeros(6), HyperParams())
    y = np.zeros(6)
    y[5] = -np.inf
    with pytest.raises(ValueError, match="non-finite target -inf at row 5"):
        fit(np.zeros((6, 3)), y, HyperParams())


@pytest.mark.parametrize("fit", [fit_gbt, functools.partial(fit_family, "rf")],
                         ids=["fit_gbt", "fit_rf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_targets_whose_sum_overflows_before_any_tree_grows(fit):
    for value in (1.7e308, -1.7e308):
        message = re.escape(f"target {value} at row 0 is past ±1e+149, the bound on 10 rows")
        with mock.patch("ratecast.models.grow_tree", side_effect=AssertionError), \
                pytest.raises(ValueError, match=message):
            fit(np.zeros((10, 2)), np.full(10, value), HyperParams())


@pytest.mark.parametrize("family", ["gbt", "rf"])
def test_fit_rejects_targets_whose_squares_overflow_before_any_tree_grows(family):
    # The targets sum to 0, but their squares pass float64: the split search
    # warned, then rf returned a constant model and gbt failed at tree 0.
    X = np.arange(20.0).reshape(10, 2)
    y = np.where(np.arange(10) % 2, -1e200, 1e200)
    params = HyperParams(n_estimators=3, max_depth=3, max_features=2.0, **FAST)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch("ratecast.models.grow_tree", side_effect=AssertionError), \
                pytest.raises(ValueError) as err:
            fit_family(family, X, y, params)
        assert str(err.value) == "target 1e+200 at row 0 is past ±1e+149, the bound on 10 rows"
        y[:] = y / 1e200 * 0.5e149  # inside the bound, every square and sum is finite
        model = fit_family(family, X, y, params)
    assert model.importances.sum() == pytest.approx(1.0)


def test_boosting_refuses_residuals_past_the_target_bound():
    # Tree 0's prediction times the learning rate leaves residuals near 3.5e153:
    # the split search of tree 1 warned of overflow, then the loss was inf.
    X = np.arange(10.0)[:, None]
    params = HyperParams(learning_rate=1.4e152, n_estimators=2, max_depth=1,
                         max_features=1.0, **FAST)
    message = "the fit overflows at tree 1: residual 3.5e+153 at row 0 is past ±1e+149, the bound"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch("ratecast.models.grow_tree", wraps=models.grow_tree) as grow, \
                pytest.raises(ValueError, match=re.escape(message) + " on 10 rows$"):
            fit_gbt(X, np.arange(10.0) * 10, params)
    assert grow.call_count == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boosting_refuses_a_running_prediction_that_overflows():
    # NaN reached the split search with RuntimeWarnings; save_model then blamed its path.
    X, rng = _data(60, 3, seed=4)
    params = HyperParams(learning_rate=1e308, n_estimators=3, max_depth=2, max_features=3.0,
                         **FAST)
    with mock.patch("ratecast.models.grow_tree", wraps=models.grow_tree) as grow, \
            pytest.raises(ValueError, match="^the fit overflows at tree 0: training loss inf$"):
        fit_gbt(X, rng.uniform(0, 100, 60), params)
    assert grow.call_count == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", ["gbt", "rf"])
def test_scoring_refuses_a_prediction_that_overflows(family):
    X, rng = _data(40, 3, seed=5)
    model = fit_family(family, X, rng.uniform(0, 100, 40),
                       HyperParams(n_estimators=2, max_depth=2, max_features=3.0, **FAST))
    for tree in model.trees:
        tree.value[:] = 1.7e308
    if family == "gbt":
        model.base_prediction = 1.7e308
    with pytest.raises(ValueError, match="^non-finite prediction inf at row 0$"):
        predict_raw(model, X[:5])


def test_finite_feature_check_builds_no_cell_mask():
    X = np.random.default_rng(0).normal(size=(2_000, 500))
    peak, _ = traced_peak(models._require_finite, X, "feature value")
    assert peak < X.size // 8  # np.isfinite(X) alone is X.size bytes


@pytest.mark.parametrize("fit", [fit_gbt, functools.partial(fit_family, "rf")],
                         ids=["fit_gbt", "fit_rf"])
def test_scoring_rejects_non_finite_features_naming_first_bad_cell(fit):
    X, rng = _data(60, 3, seed=2)
    params = HyperParams(n_estimators=3, max_depth=2, max_features=3.0, **FAST)
    model = fit(X, rng.uniform(0, 100, 60), params)
    bad = X[:5].copy()
    bad[3, 2] = np.inf
    bad[1, 2] = np.nan
    for score in (predict_raw, predict):
        with pytest.raises(ValueError, match="non-finite feature value nan at row 1, column 2"):
            score(model, bad)


# ------------------------------------------------------------------ importance


def test_importance_concentrates_on_single_signal():
    X, rng = _data(500, 5, seed=8)
    y = X[:, 0] * 4.0
    model = fit_gbt(
        X, y, HyperParams(n_estimators=50, max_depth=4, max_features=5.0, **FAST)
    )
    assert model.importances[0] > 0.99
    assert model.importances.sum() == pytest.approx(1.0, abs=1e-9)
    ranked = feature_importance(model)
    assert ranked[0][0] == "f0"


def test_importance_all_zero_for_constant_target():
    X, _ = _data(60, 3)
    model = fit_gbt(
        X, np.full(60, 5.0), HyperParams(n_estimators=5, max_depth=3, max_features=3.0, **FAST)
    )
    np.testing.assert_array_equal(model.importances, np.zeros(3))


def test_importance_splits_across_duplicated_signal():
    X, rng = _data(500, 2, seed=9)
    X = np.column_stack([X[:, 0], X[:, 0], rng.normal(0, 1, 500)])
    y = X[:, 0] * 3.0
    model = fit_gbt(
        X, y, HyperParams(n_estimators=40, max_depth=4, max_features=2.0, **FAST)
    )
    assert model.importances[0] + model.importances[1] > 0.99


# --------------------------------------------------------------- save / load


def test_model_json_round_trip(tmp_path):
    X, rng = _data(200, 3, seed=10)
    y = X[:, 2] * 2 + rng.normal(0, 0.3, 200)
    params = HyperParams(
        n_estimators=8, max_depth=5, max_features=2.0,
        min_samples_split=4, min_samples_leaf=2, subsample=0.8, seed=21,
    )
    for family in ("gbt", "rf"):
        model = fit_family(family, X, y, params, feature_names=["alpha", "beta", "gamma"])
        path = tmp_path / f"{family}.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.feature_names == ["alpha", "beta", "gamma"]
        assert loaded.params == params
        np.testing.assert_array_equal(predict(loaded, X), predict(model, X))
        np.testing.assert_array_equal(loaded.importances, model.importances)


def test_fit_and_load_reject_an_unknown_family_by_name():
    # The fit refuses before it reads X, which here has too few rows to fit.
    with pytest.raises(ValueError, match="^unknown model family: 'xgb'$"):
        fit_family("xgb", np.zeros((1, 1)), np.zeros(1), HyperParams())
    payload = _two_tree_payload()
    payload["family"] = "xgb"
    with pytest.raises(ValueError, match="^unknown model family: 'xgb'$"):
        model_from_dict(payload)


def test_model_load_rejects_unknown_version():
    with pytest.raises(ValueError, match="format version"):
        model_from_dict({"format_version": 99})


def test_handbuilt_mean_model_round_trips():
    # a trees-free model predicting its base value is valid on disk
    model = Ensemble(
        family="gbt",
        params=HyperParams(n_estimators=1, max_depth=1, min_samples_split=2,
                           min_samples_leaf=1),
        feature_names=["f0"],
        base_prediction=12.5,
        trees=[],
        importances=np.zeros(1),
    )
    payload = model_to_dict(model)
    assert "train_loss" not in payload  # and a gbt file without one loads with []
    loaded = model_from_dict(json.loads(json.dumps(payload)))
    assert loaded.family == "gbt" and loaded.train_loss == []
    np.testing.assert_array_equal(
        predict(loaded, np.zeros((4, 1))), np.full(4, 12.5)
    )


def test_rf_model_json_bytes_are_pinned(tmp_path):
    # A small seeded forest: its model.json bytes pin the rf fit and file layout.
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 10, size=(150, 3))
    y = X[:, 0] * 2 + rng.normal(0, 0.5, 150)
    params = HyperParams(n_estimators=3, max_depth=3, max_features=2.0, min_samples_split=4,
                         min_samples_leaf=2, subsample=0.8, seed=7)
    path, again = tmp_path / "rf.json", tmp_path / "rf-again.json"
    save_model(fit_family("rf", X, y, params, feature_names=["a", "b", "c"]), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5a518119a94351fd8e2e13f56a0b57e0ad11e9d5841e0b3c90eb9d2e6b64f1cc"
    )
    loaded = load_model(str(path))
    assert loaded.family == "rf"
    assert loaded.base_prediction is None and loaded.train_loss is None
    save_model(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


def _two_tree_payload():
    X, rng = _data(120, 3, seed=4)
    y = X[:, 0] + rng.normal(0, 0.1, 120)
    params = HyperParams(n_estimators=2, max_depth=2, max_features=0.999, **FAST)
    return json.loads(json.dumps(model_to_dict(fit_gbt(X, y, params))))


def test_model_load_takes_integers_for_numbers():
    payload = _two_tree_payload()
    payload["base_prediction"] = 3
    payload["train_loss"] = [0, 1]
    loaded = model_from_dict(payload)
    assert isinstance(loaded.base_prediction, float) and loaded.base_prediction == 3.0
    assert [type(v) for v in loaded.train_loss] == [float, float]
    # trees add float64 outputs onto the base, which an integer base would refuse
    assert predict_raw(loaded, np.zeros((2, 3))).dtype == np.float64


def test_bad_tree_among_many_is_quoted_in_short():
    payload = _two_tree_payload()
    payload["trees"] = payload["trees"] * 50 + [[1]]
    with pytest.raises(ValueError, match=r"field 'trees' must be list\[dict\]") as info:
        model_from_dict(payload)
    assert len(str(info.value)) < 2_000  # quoted in full, the trees take 45 kB


def _set_tree(index, name, value):
    def mutate(payload):
        payload["trees"][index][name] = value
    return mutate


def _shorten_tree_field(name):
    def mutate(payload):
        payload["trees"][1][name] = payload["trees"][1][name][:-1]
    return mutate


def _loop_back(payload):
    tree = payload["trees"][0]
    tree["left"][0] = 0


def _child_on_leaf(payload):
    tree = payload["trees"][1]
    tree["right"][tree["feature"].index(-1)] = 1


def _feature_past_columns(payload):
    payload["trees"][1]["feature"][0] = 3


def _feature_below_leaf_mark(payload):
    payload["trees"][0]["feature"][0] = -2


def _short_importances(payload):
    payload["importances"] = payload["importances"][:-1]


def _set_tree_cell(name, value):
    def mutate(payload):
        payload["trees"][1][name][0] = value
    return mutate


def _nan_base_prediction(payload):
    payload["base_prediction"] = float("nan")


def _infinite_importance(payload):
    payload["importances"][0] = float("inf")


def _nan_learning_rate(payload):
    payload["params"]["learning_rate"] = float("nan")


def _without_base_prediction(payload):
    del payload["base_prediction"]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_shorten_tree_field("left"), "tree 1: field 'left'"),
        (_shorten_tree_field("value"), "tree 1: field 'value'"),
        (_shorten_tree_field("feature_gains"), "tree 1: field 'feature_gains'"),
        (_set_tree(0, "threshold", [[0.5]]), "tree 0: field 'threshold'"),
        (_set_tree(0, "feature", []), "tree 0: field 'feature'"),
        (_feature_past_columns, "tree 1: field 'feature' holds an index outside"),
        (_feature_below_leaf_mark, "tree 0: field 'feature' holds an index outside"),
        (_loop_back, "tree 0: field 'left' at node 0"),
        (_child_on_leaf, "tree 1: field 'right' at node"),
        (_short_importances, "field 'importances'"),
        (_set_tree_cell("threshold", float("nan")), "tree 1: field 'threshold' holds a non-finite"),
        (_set_tree_cell("value", float("inf")), "tree 1: field 'value' holds a non-finite"),
        (_set_tree_cell("feature_gains", float("-inf")),
         "tree 1: field 'feature_gains' holds a non-finite"),
        (_nan_base_prediction, "field 'base_prediction' must be"),
        (_infinite_importance, "field 'importances' must be"),
        (_nan_learning_rate, "field 'params': field 'learning_rate' must be a finite number"),
        (_without_base_prediction, "lacks field 'base_prediction'"),
        # numpy's casts truncated 0.7 to 0, read "0.5" and true as numbers and
        # raised OverflowError on 10**30
        (_set_tree_cell("feature", 0.7), "tree 1: field 'feature' must be a list of int64"),
        (_set_tree_cell("threshold", "0.5"), "tree 1: field 'threshold' must be a list of numbers"),
        (_set_tree_cell("value", True), "tree 1: field 'value' must be a list of numbers"),
        (_set_tree_cell("feature", 10**30), "tree 1: field 'feature' must be a list of int64"),
        (_set_tree_cell("n_node_samples", 1.5),
         "tree 1: field 'n_node_samples' must be a list of int64"),
    ],
    ids=["short-left", "short-value", "short-gains", "two-dimensional", "empty",
         "feature-past-columns", "feature-below-leaf-mark", "child-loops-back",
         "leaf-with-child", "short-importances", "nan-threshold", "infinite-value",
         "infinite-gain", "nan-base-prediction", "infinite-importance", "nan-learning-rate",
         "gbt-without-base-prediction", "fractional-feature", "string-threshold",
         "boolean-value", "feature-past-int64", "fractional-count"],
)
def test_model_load_rejects_misshapen_trees(mutate, message):
    payload = _two_tree_payload()
    model_from_dict(payload)  # the unmodified payload loads
    mutate(payload)
    with pytest.raises(ValueError, match=message):
        model_from_dict(payload)


# ------------------------------------------------------------------ robustness


def test_noise_columns_do_not_blow_up_holdout_error():
    rng = np.random.default_rng(12)
    n = 2000
    X = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 5, n)])
    y = 3 * X[:, 0] + X[:, 1] + rng.normal(0, 0.5, n)
    noisy = np.column_stack([X, rng.normal(0, 1, size=(n, 5))])
    params = HyperParams(
        n_estimators=60, max_depth=4, max_features=0.999, learning_rate=0.1,
        min_samples_split=10, min_samples_leaf=5, subsample=1.0, seed=2,
    )
    cut = int(n * 0.8)

    def holdout_rmse(features):
        model = fit_gbt(features[:cut], y[:cut], params)
        preds = predict(model, features[cut:])
        return float(np.sqrt(np.mean((preds - y[cut:]) ** 2)))

    base = holdout_rmse(X)
    with_noise = holdout_rmse(noisy)
    assert with_noise <= 1.10 * base
