import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftmon.errors import InsufficientData, ShapeError
from driftmon.features import DesignMatrix
from driftmon.forecasters import (
    BoostingParams,
    FlatTree,
    ForestParams,
    HyperParams,
    dump_model,
    fit_boosting,
    fit_forest,
    grow_tree,
    predict_matrix,
)


def design(X, y):
    X = np.asarray(X, dtype=float)
    return DesignMatrix(X=X, y=np.asarray(y, dtype=float),
                        column_names=tuple(f"f{j}" for j in range(X.shape[1])))


def rand_design(seed, n=80, p=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X[:, 0] - 2.0 * X[:, 1] ** 2 + 0.3 * rng.normal(size=n)
    return design(X, y)


# ---------------------------------------------------------------------------
# Single trees
# ---------------------------------------------------------------------------

def test_fully_grown_tree_memorizes_distinct_rows():
    data = rand_design(0, n=50)
    hp = HyperParams(forest=ForestParams(n_trees=1, mtry=data.n_columns,
                                         min_node_size=1, bootstrap=False))
    model = fit_forest(data, hp, seed=0)
    assert np.allclose(predict_matrix(model, data.X), data.y, atol=1e-12)


def test_split_threshold_is_midpoint():
    root = grow_tree(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), np.arange(2))
    assert root.split_threshold == 0.5
    assert root.left.leaf_value == 0.0
    assert root.right.leaf_value == 1.0


def test_tie_break_prefers_lowest_feature_then_threshold():
    # identical columns give identical gains; the split must use feature 0
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    root = grow_tree(X, y, np.arange(4))
    assert root.split_feature == 0
    assert root.split_threshold == 1.5


def test_max_depth_limits_growth():
    data = rand_design(1, n=120)
    root = grow_tree(data.X, data.y, np.arange(120), max_depth=2)
    flat = FlatTree(root)
    assert flat.depth <= 2


def test_constant_target_keeps_single_leaf():
    X = np.random.default_rng(2).normal(size=(40, 3))
    root = grow_tree(X, np.full(40, 3.7), np.arange(40))
    assert root.is_leaf
    assert root.leaf_value == pytest.approx(3.7, rel=1e-12)


def test_flat_tree_matches_node_walk():
    data = rand_design(3, n=150)
    root = grow_tree(data.X, data.y, np.arange(150), min_leaf=5)
    flat = FlatTree(root)

    def walk(node, row):
        while not node.is_leaf:
            node = node.left if row[node.split_feature] <= node.split_threshold else node.right
        return node.leaf_value

    preds = flat.predict(data.X)
    for i in range(0, 150, 7):
        assert preds[i] == walk(root, data.X[i])


# ---------------------------------------------------------------------------
# Forest
# ---------------------------------------------------------------------------

def test_forest_constant_target():
    X = np.random.default_rng(4).normal(size=(30, 4))
    model = fit_forest(design(X, np.full(30, 5.0)),
                       HyperParams(forest=ForestParams(n_trees=10)), seed=1)
    assert np.allclose(predict_matrix(model, X), 5.0, rtol=1e-12)
    assert predict_matrix(model, X[:1])[0] == pytest.approx(5.0, rel=1e-12)


def test_forest_deterministic_given_seed():
    data = rand_design(5)
    hp = HyperParams(forest=ForestParams(n_trees=15, min_node_size=4))
    a = fit_forest(data, hp, seed=42)
    b = fit_forest(data, hp, seed=42)
    assert np.array_equal(predict_matrix(a, data.X), predict_matrix(b, data.X))
    c = fit_forest(data, hp, seed=43)
    assert not np.array_equal(predict_matrix(a, data.X), predict_matrix(c, data.X))


def test_forest_predictions_within_target_range():
    for seed in range(5):
        data = rand_design(seed, n=60)
        model = fit_forest(data, HyperParams(forest=ForestParams(n_trees=8, min_node_size=3)),
                           seed=seed)
        preds = predict_matrix(model, data.X)
        slack = 1e-9 * (abs(data.y.min()) + abs(data.y.max()) + 1)
        assert preds.min() >= data.y.min() - slack
        assert preds.max() <= data.y.max() + slack


@settings(max_examples=25, deadline=None)
@given(y=arrays(np.float64, 12, elements=st.floats(-100, 100)), seed=st.integers(0, 99))
def test_forest_range_bound_property(y, seed):
    X = np.random.default_rng(0).normal(size=(12, 3))
    model = fit_forest(design(X, y), HyperParams(forest=ForestParams(n_trees=4, min_node_size=2)),
                       seed=seed)
    preds = predict_matrix(model, X)
    slack = 1e-9 * (np.abs(y).max() + 1)
    assert np.all(preds >= y.min() - slack) and np.all(preds <= y.max() + slack)


def test_forest_insufficient_data():
    data = rand_design(6, n=3)
    with pytest.raises(InsufficientData):
        fit_forest(data, HyperParams(forest=ForestParams(min_node_size=5)), seed=0)


# ---------------------------------------------------------------------------
# Boosting
# ---------------------------------------------------------------------------

def test_boosting_zero_rounds_predicts_mean():
    data = rand_design(7)
    model = fit_boosting(data, HyperParams(boosting=BoostingParams(n_rounds=0)), seed=0)
    assert np.allclose(predict_matrix(model, data.X), data.y.mean(), rtol=1e-12)


def test_boosting_constant_target():
    X = np.random.default_rng(8).normal(size=(25, 3))
    model = fit_boosting(design(X, np.full(25, -2.5)),
                         HyperParams(boosting=BoostingParams(n_rounds=20)), seed=0)
    assert np.allclose(predict_matrix(model, X), -2.5, rtol=1e-10)


def test_boosting_hand_executed_step():
    # F0=0.5, residuals -/+0.5, stump leaves -/+0.5, shrink by 0.3
    data = design([[0.0], [1.0]], [0.0, 1.0])
    hp = HyperParams(boosting=BoostingParams(n_rounds=1, max_depth=1, learning_rate=0.3))
    model = fit_boosting(data, hp, seed=0)
    assert predict_matrix(model, data.X) == pytest.approx([0.35, 0.65], abs=1e-12)


def test_boosting_training_rmse_monotone():
    data = rand_design(9, n=120)
    hp = HyperParams(boosting=BoostingParams(n_rounds=25, max_depth=3))
    model = fit_boosting(data, hp, seed=3)
    current = np.full(data.n_rows, model.payload.base)
    prev_rmse = np.sqrt(np.mean((data.y - current) ** 2))
    for flat in model.payload.flats:
        current += flat.predict(data.X)
        rmse = np.sqrt(np.mean((data.y - current) ** 2))
        assert rmse <= prev_rmse + 1e-9
        prev_rmse = rmse


def test_boosting_respects_max_depth():
    data = rand_design(10, n=200)
    hp = HyperParams(boosting=BoostingParams(n_rounds=5, max_depth=2))
    model = fit_boosting(data, hp, seed=1)
    assert all(flat.depth <= 2 for flat in model.payload.flats)


def test_boosting_row_and_column_sampling_reproducible():
    data = rand_design(11, n=90)
    hp = HyperParams(boosting=BoostingParams(n_rounds=8, subsample=0.7, colsample=0.5))
    a = fit_boosting(data, hp, seed=5)
    b = fit_boosting(data, hp, seed=5)
    assert np.array_equal(predict_matrix(a, data.X), predict_matrix(b, data.X))


def test_boosting_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_boosting(design([[1.0]], [1.0]), HyperParams(), seed=0)


# ---------------------------------------------------------------------------
# Shared predict contract
# ---------------------------------------------------------------------------

def test_predict_shape_errors():
    data = rand_design(12)
    model = fit_forest(data, HyperParams(forest=ForestParams(n_trees=2, min_node_size=5)), seed=0)
    with pytest.raises(ShapeError):
        predict_matrix(model, np.zeros(data.n_columns))  # a lone vector, not a row block
    with pytest.raises(ShapeError):
        predict_matrix(model, np.zeros((1, data.n_columns + 1)))
    with pytest.raises(ShapeError):
        predict_matrix(model, np.zeros((4, data.n_columns - 1)))


def test_model_dump_mentions_structure():
    data = rand_design(13, n=40)
    model = fit_forest(data, HyperParams(forest=ForestParams(n_trees=2, min_node_size=10)), seed=0)
    text = dump_model(model)
    assert text.startswith("kind=forest")
    assert "tree 0:" in text and "leaf" in text


# ---------------------------------------------------------------------------
# Seasonal-lag (naive) forecaster
# ---------------------------------------------------------------------------

def test_naive_predicts_lagged_own_value():
    from driftmon.features import FeatureSpec, feature_matrix
    from driftmon.forecasters import fit_naive
    from driftmon.streams import StreamSet

    rng = np.random.default_rng(14)
    values = rng.normal(size=(500, 2))
    t = 450
    values[t - 1 - 420, 1] = 9.0
    streams = StreamSet(values=values, stream_ids=("s1", "s2"), slots_per_batch=60)
    spec = FeatureSpec(lags=(60, 420), slots_per_day=60)
    names = spec.column_names(streams.stream_ids)
    model = fit_naive(420, horizon=60, feature_names=names, target_stream="s2")
    assert predict_matrix(model, feature_matrix(streams, spec, [t]))[0] == 9.0


def test_naive_lag_validation():
    from driftmon.errors import InvalidLag
    from driftmon.forecasters import fit_naive

    names = ["lag60_s1", "lag420_s1", "trend"]
    with pytest.raises(InvalidLag):
        fit_naive(30, horizon=60, feature_names=names, target_stream="s1")
    with pytest.raises(InvalidLag):
        fit_naive(300, horizon=60, feature_names=names, target_stream="s1")  # no column
    model = fit_naive(420, horizon=60, feature_names=names, target_stream="s1")
    assert model.payload.feature_index == 1
    text = dump_model(model)
    assert "lag=420" in text and "lag420_s1" in text


def test_lasso_model_predict_and_dump():
    from driftmon.forecasters import fit_lasso

    rng = np.random.default_rng(15)
    X = rng.normal(size=(120, 4))
    y = 3.0 + 0.0 * X[:, 0]  # constant target: all-zero slopes, intercept 3
    model = fit_lasso(design(X, y), HyperParams())
    assert predict_matrix(model, rng.normal(size=(1, 4)))[0] == pytest.approx(3.0)
    assert "intercept=3.0" in dump_model(model)
