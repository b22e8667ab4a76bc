"""Forecast models: seasonal-lag naive, lasso, random forest, gradient boosting."""

from .cart import FlatTree, SortedColumns, dump_tree, grow_tree
from .lasso import Gram, LassoFit, fit_at_lambda, lasso_path, soft_threshold
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
    fit_forests,
    fit_lasso,
    fit_naive,
    predict_matrix,
)
