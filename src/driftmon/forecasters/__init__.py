"""Forecast models: seasonal-lag naive, lasso, random forest, gradient boosting."""

from .cart import FlatTree, TreeNode, dump_tree, grow_tree, scale_leaf_values
from .lasso import LassoFit, coordinate_descent, fit_at_lambda, lasso_path, soft_threshold
from .models import (
    BoostingParams,
    EnsemblePayload,
    ForecastModel,
    ForestParams,
    HyperParams,
    LassoParams,
    ModelKind,
    NaivePayload,
    dump_model,
    fit_boosting,
    fit_forest,
    fit_lasso,
    fit_naive,
    predict_matrix,
)
