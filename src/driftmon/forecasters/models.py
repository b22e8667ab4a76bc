"""Trainable forecast functions behind one predict interface.

All four model kinds consume the same design-matrix columns so comparisons
across them are about the learner, not the information set. Every fit is a
pure function of (data, hyperparameters, seed): ensemble randomness derives
each tree's generator from (seed, tree index), and a tree's growth involves
no other tree's values, so a tree does not depend on how many trees are
grown beside it.

Forest and boosting both grow their trees with ``cart.grow_tree`` on one
``SortedColumns`` of the design: the forest in blocks of ``forest_block(n)``
trees (about ``FOREST_BLOCK_SAMPLES`` samples each, at least one tree),
boosting one tree per round. ``fit_forests`` grows the forests of several
targets on one design, such as every stream's at one batch end, in the same
blocks, which may then hold several forests' trees, each tree on its own
target; ``fit_forest`` is its one-target case. ``SortedColumns`` sorts the
columns of three or more distinct values once, and marks the two-valued
columns (the calendar dummies), whose one split the grower scores from
per-node sums over each column's rarer value instead of a sorted layout. A
fit builds it unless its caller passes one (``columns=``): fits on one
design, such as every stream's fit at one batch end, can share it, as lasso
fits can share one ``Gram`` (``gram=``). An ensemble keeps all its trees in
one ``FlatTree`` node table and predicts with one walk over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import InsufficientData, InvalidLag, ShapeError
from ..features import DesignMatrix
from ..schema import bounded, check_fields
from .cart import FlatTree, SortedColumns, dump_tree, grow_tree
from .lasso import Gram, LassoFit, lasso_path


# About how many samples (trees x rows) one forest ``grow_tree`` call grows
# together. Its trees share each level's numpy calls, whose fixed cost a
# deep tree pays at every level. Larger blocks stop paying: the grower still
# loops once per tree to draw features and to sum, and the block's arrays
# live until it is done. On 10,800-row windows, blocks of 3 trees (the
# budget's share) ran about 3% slower than blocks of 8, with a sixth less
# peak memory.
FOREST_BLOCK_SAMPLES = 1 << 15


class ModelKind(str, Enum):
    NAIVE = "naive"
    LASSO = "lasso"
    FOREST = "forest"
    BOOSTING = "boosting"


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = bounded(500, "[1, inf)")
    mtry: int | None = bounded(None, "[1, inf)")  # None: floor(p / 3), at least 1
    min_node_size: int = bounded(5, "[1, inf)")
    bootstrap: bool = True

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class BoostingParams:
    n_rounds: int = bounded(100, "[0, inf)")
    max_depth: int = bounded(6, "[1, inf)")
    learning_rate: float = bounded(0.3, "(0, 1]")
    min_split_gain: float = bounded(0.0, "[0, inf)")
    colsample: float = bounded(1.0, "(0, 1]")
    min_child_weight: float = bounded(1.0, "[0, inf)")
    subsample: float = bounded(1.0, "(0, 1]")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class LassoParams:
    n_lambda: int = bounded(100, "[1, inf)")
    lambda_min_ratio: float = bounded(1e-3, "(0, 1)")
    tol: float = bounded(1e-9, "[1e-15, inf)")
    max_iter: int = bounded(10_000, "[1, inf)")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class HyperParams:
    forest: ForestParams = field(default_factory=ForestParams)
    boosting: BoostingParams = field(default_factory=BoostingParams)
    lasso: LassoParams = field(default_factory=LassoParams)


@dataclass(frozen=True)
class NaivePayload:
    lag: int
    feature_index: int
    feature_name: str


@dataclass(frozen=True)
class EnsemblePayload:
    nodes: FlatTree  # every tree of the ensemble, in order
    base: float = 0.0  # boosting initialization; unused by the forest

    @property
    def flats(self) -> tuple[FlatTree, ...]:
        """Each tree on its own (views of ``nodes``)."""
        return tuple(self.nodes.tree(t) for t in range(self.nodes.n_trees))


@dataclass(frozen=True)
class ForecastModel:
    kind: ModelKind
    feature_names: tuple[str, ...]
    trained_at: int
    payload: NaivePayload | LassoFit | EnsemblePayload

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def fit_naive(lag: int = 420, *, horizon: int, feature_names,
              target_stream: str, trained_at: int = 0) -> ForecastModel:
    """Seasonal-lag forecaster: predict the own-stream value lag ticks back.

    The lag must be at least the forecast horizon so the lagged value is
    already observed when the forecast is made, and the corresponding lag
    column must exist in the feature set.
    """
    if lag < horizon:
        raise InvalidLag(f"lag {lag} is below the forecast horizon {horizon}")
    name = f"lag{lag}_{target_stream}"
    names = tuple(feature_names)
    try:
        index = names.index(name)
    except ValueError:
        raise InvalidLag(f"no feature column {name!r}; configured lags do not include {lag}")
    return ForecastModel(kind=ModelKind.NAIVE, feature_names=names,
                         trained_at=trained_at,
                         payload=NaivePayload(lag=lag, feature_index=index, feature_name=name))


def fit_lasso(data: DesignMatrix, hp: HyperParams, trained_at: int = 0,
              gram: Gram | None = None) -> ForecastModel:
    """BIC-selected lasso path; ``gram`` is ``Gram(data.X)``, made here when not given."""
    fit = lasso_path(data.X, data.y, n_lambda=hp.lasso.n_lambda,
                     lambda_min_ratio=hp.lasso.lambda_min_ratio,
                     tol=hp.lasso.tol, max_iter=hp.lasso.max_iter, gram=gram)
    return ForecastModel(kind=ModelKind.LASSO, feature_names=data.column_names,
                         trained_at=trained_at, payload=fit)


def forest_block(n: int) -> int:
    """Trees per forest ``grow_tree`` call on n rows: the sample budget's share, at least 1."""
    return max(1, FOREST_BLOCK_SAMPLES // n)


def fit_forest(data: DesignMatrix, hp: HyperParams, seed: int, trained_at: int = 0,
               columns: SortedColumns | None = None) -> ForecastModel:
    """Bagged CART regression trees with per-split feature sampling: the
    forest of ``fit_forests`` on the one target ``data.y``."""
    return fit_forests(data, [(data.y, seed)], hp, trained_at=trained_at, columns=columns)[0]


def fit_forests(data: DesignMatrix, targets: list[tuple[np.ndarray, int]], hp: HyperParams,
                trained_at: int = 0, columns: SortedColumns | None = None) -> list[ForecastModel]:
    """One forest per (target, seed) pair of ``targets``, all on the design ``data.X``.

    Forest s has the trees 0 .. n_trees - 1 of its own, and tree t's
    generator ``default_rng((seed_s, t))`` draws its bootstrap, then its
    nodes' candidate features level by level. All forests' trees, forest
    after forest, are grown in blocks of ``forest_block(n)``, so a block may
    hold the trees of several forests, each on its forest's target; a tree
    does not depend on its block. Each model's node table is a view of its
    trees' range in the joint table. ``data.y`` is not read. ``columns`` is
    ``SortedColumns(data.X)``, made here when not given.
    """
    n, p = data.X.shape
    params = hp.forest
    if n < params.min_node_size:
        raise InsufficientData(
            f"forest needs n >= min_node_size ({params.min_node_size}), got {n}"
        )
    mtry = params.mtry if params.mtry is not None else max(1, p // 3)
    mtry = min(mtry, p)
    if columns is None:
        columns = SortedColumns(data.X)
    n_trees = params.n_trees
    ys = np.stack([y for y, _ in targets])
    block = forest_block(n)
    blocks = []
    for first in range(0, len(targets) * n_trees, block):
        forest, tree = np.divmod(np.arange(first, min(first + block, len(targets) * n_trees)),
                                 n_trees)
        rngs = [np.random.default_rng((targets[s][1], t))
                for s, t in zip(forest.tolist(), tree.tolist())]
        if params.bootstrap:
            weights = np.array([np.bincount(rng.integers(0, n, size=n), minlength=n)
                                for rng in rngs])
        else:
            weights = np.ones((len(rngs), n), dtype=np.intp)
        # one target for a block within one forest, else one per tree
        y = ys[forest[0]] if forest[0] == forest[-1] else ys[forest]
        blocks.append(grow_tree(data.X, y, weights, rngs=rngs, mtry=mtry,
                                min_leaf=params.min_node_size, columns=columns))
    nodes = FlatTree.concat(blocks)
    return [ForecastModel(kind=ModelKind.FOREST, feature_names=data.column_names,
                          trained_at=trained_at,
                          payload=EnsemblePayload(nodes=nodes.trees(s * n_trees,
                                                                    (s + 1) * n_trees)))
            for s in range(len(targets))]


def fit_boosting(data: DesignMatrix, hp: HyperParams, seed: int, trained_at: int = 0,
                 columns: SortedColumns | None = None) -> ForecastModel:
    """Gradient boosting on squared error: shallow trees fit to residuals.

    The ensemble starts from the target mean; each round adds a depth-capped
    tree fit to the current residuals, its leaf values shrunk by the learning
    rate before they are stored. ``columns`` is ``SortedColumns(data.X)``,
    made here when not given.
    """
    n, p = data.X.shape
    params = hp.boosting
    if n < 2:
        raise InsufficientData(f"boosting needs n >= 2 rows, got {n}")
    base = float(data.y.mean())
    current = np.full(n, base)
    min_leaf = max(1, math.ceil(params.min_child_weight))
    n_cols = max(1, round(params.colsample * p))
    n_rows = max(1, math.floor(params.subsample * n))
    if columns is None:
        columns = SortedColumns(data.X)
    trees = []
    rows, pool = np.arange(n), np.arange(p)
    for m in range(params.n_rounds):
        if n_rows < n or n_cols < p:
            rng = np.random.default_rng((seed, m))
            if n_rows < n:
                rows = rng.choice(n, size=n_rows, replace=False)
            if n_cols < p:
                pool = np.sort(rng.choice(p, size=n_cols, replace=False))
        tree = grow_tree(data.X, data.y - current, np.bincount(rows, minlength=n),
                         min_leaf=min_leaf, max_depth=params.max_depth,
                         min_gain=params.min_split_gain, feature_pool=pool, columns=columns)
        tree.value *= params.learning_rate
        current += tree.predict(data.X)
        trees.append(tree)
    return ForecastModel(kind=ModelKind.BOOSTING, feature_names=data.column_names,
                         trained_at=trained_at,
                         payload=EnsemblePayload(nodes=FlatTree.concat(trees), base=base))


def predict_matrix(model: ForecastModel, X: np.ndarray) -> np.ndarray:
    """Forecasts for each row of X (columns must match the training design)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ShapeError(
            f"expected (n, {model.n_features}) features, got {X.shape}"
        )
    if model.kind is ModelKind.NAIVE:
        return X[:, model.payload.feature_index].copy()
    if model.kind is ModelKind.LASSO:
        return model.payload.intercept + X @ model.payload.slopes
    out = model.payload.nodes.predict(X)
    if model.kind is ModelKind.FOREST:
        out /= model.payload.nodes.n_trees
    else:
        out += model.payload.base
    return out


def dump_model(model: ForecastModel) -> str:
    """Human-readable text serialization of a fitted model (for debugging)."""
    lines = [f"kind={model.kind.value} trained_at={model.trained_at} p={model.n_features}"]
    if model.kind is ModelKind.NAIVE:
        lines.append(f"lag={model.payload.lag} column={model.payload.feature_name}")
    elif model.kind is ModelKind.LASSO:
        fit = model.payload
        lines.append(f"lambda={fit.lam!r} bic={fit.bic!r} intercept={fit.intercept!r}")
        for name, slope in zip(model.feature_names, fit.slopes):
            if slope != 0.0:
                lines.append(f"coef {name} = {slope!r}")
    else:
        if model.kind is ModelKind.BOOSTING:
            lines.append(f"base={model.payload.base!r}")
        for i, tree in enumerate(model.payload.flats):
            lines.append(f"tree {i}:")
            lines.append(dump_tree(tree, model.feature_names))
    return "\n".join(lines)
