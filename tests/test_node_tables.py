"""Node-table layout: field widths, memory held while fitting, and the dump text.

``tests/golden/dump_model.txt`` is the dump of ``golden_models()``; after a
change that is meant to alter it, rewrite it with
``PYTHONPATH=src python tests/test_node_tables.py``.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from driftmon.forecasters import (
    BoostingParams,
    FlatTree,
    ForestParams,
    HyperParams,
    SortedColumns,
    dump_model,
    fit_boosting,
    fit_forest,
    fit_forests,
    grow_tree,
    models,
    predict_matrix,
)
from oracles import reference_tree
from test_trees import assert_same_tree, design, nested

NODE_ARRAYS = ("feature", "threshold", "child", "value", "n_samples")
GOLDEN = Path(__file__).parent / "golden" / "dump_model.txt"


def calendar_design(seed, n, n_continuous=4):
    """Continuous columns beside six day-of-week dummies, as in the pipeline's design."""
    rng = np.random.default_rng(seed)
    day = rng.integers(0, 7, size=n)
    X = np.column_stack([rng.normal(size=(n, n_continuous)),
                         (day[:, None] == np.arange(1, 7)).astype(float)])
    y = X[:, 0] + 2.0 * X[:, n_continuous] + 0.3 * rng.normal(size=n)
    return design(X, y)


def table_bytes(nodes):
    return sum(getattr(nodes, name).nbytes for name in NODE_ARRAYS)


def fitted_ensembles():
    data = calendar_design(3, n=120)
    hp = HyperParams(forest=ForestParams(n_trees=7, min_node_size=3),
                     boosting=BoostingParams(n_rounds=4, max_depth=3, subsample=0.8))
    no_bootstrap = HyperParams(forest=ForestParams(n_trees=3, bootstrap=False))
    return {
        "forest": fit_forest(data, hp, seed=1),
        "forest without bootstrap": fit_forest(data, no_bootstrap, seed=1),
        **{f"joint forest {s}": model for s, model in enumerate(
            fit_forests(data, [(data.y, 2), (-data.y, 3)], hp))},
        "boosting": fit_boosting(data, hp, seed=1),
        "boosting of 0 rounds": fit_boosting(
            data, HyperParams(boosting=BoostingParams(n_rounds=0)), seed=1),
    }


@pytest.mark.parametrize("name", list(fitted_ensembles()))
def test_every_ensemble_table_takes_28_bytes_a_node(name):
    nodes = fitted_ensembles()[name].payload.nodes
    for field in ("feature", "child", "n_samples"):
        assert getattr(nodes, field).dtype == np.int32
    for field in ("threshold", "value"):
        assert getattr(nodes, field).dtype == np.float64
    assert nodes.roots.dtype == nodes.depths.dtype == np.intp
    assert sum(getattr(nodes, field).itemsize for field in NODE_ARRAYS) == 28
    assert table_bytes(nodes) == 28 * nodes.feature.size
    assert (nodes.feature.size == 0) == (name == "boosting of 0 rounds")


def widened(model):
    """The same model, its int32 node arrays widened back to intp."""
    nodes = model.payload.nodes
    wide = FlatTree(*(getattr(nodes, name).astype(np.intp) if getattr(nodes, name).dtype ==
                      np.int32 else getattr(nodes, name) for name in NODE_ARRAYS),
                    nodes.roots, nodes.depths)
    assert wide.feature.dtype == np.intp
    return dataclasses.replace(model, payload=dataclasses.replace(model.payload, nodes=wide))


@pytest.mark.parametrize("name", list(fitted_ensembles()))
def test_narrow_table_predicts_and_dumps_as_the_widened_one(name):
    model = fitted_ensembles()[name]
    X = calendar_design(4, n=50).X
    want = predict_matrix(widened(model), X).tobytes()
    for rows in (X, np.asfortranarray(X), np.repeat(X, 2, axis=0)[::2]):
        assert predict_matrix(model, rows).tobytes() == want
    assert dump_model(model) == dump_model(widened(model))


def rare_width_design(width, n=60, seed=47):
    """Two continuous columns beside ``width`` dummies whose rarer value (1)
    meets on some rows, so that the widest row sits on all of them."""
    rng = np.random.default_rng(seed)
    dummies = (rng.random((n, width)) < 0.3).astype(float)
    dummies[:3] = 1.0
    X = np.column_stack([rng.normal(size=(n, 2)), dummies])
    # integer targets keep every weighted sum exact in any order
    y = (rng.integers(-4, 5, size=n) + 3 * dummies.sum(axis=1)).astype(float)
    return X, y


@pytest.mark.parametrize("width", [0, 1, 2, 3])
def test_trees_on_every_rare_entry_width_match_the_reference(width):
    X, y = rare_width_design(width)
    assert SortedColumns(X).rare_pad.shape[1] == width
    rng = np.random.default_rng(width)
    weights = np.array([np.ones(len(y), dtype=int)]
                       + [np.bincount(rng.integers(0, len(y), size=len(y)), minlength=len(y))
                          for _ in range(3)])
    for min_leaf in (1, 3):
        block = grow_tree(X, y, weights, min_leaf=min_leaf)
        for t in range(len(weights)):
            assert_same_tree(nested(block.tree(t)),
                             reference_tree(X, y, weights[t], min_leaf=min_leaf))


# A fit holds its nodes once: its traced peak stays below its final tables,
# one node array in copy (8 bytes a node at most), what making its largest
# block alone takes (``block_peaks``: the block's generators, bootstrap
# weights, target, which is a matrix of one row a tree in a block that spans
# two forests, and its growth), and this margin for the stacked targets
# (11 KiB at 2 x 720 floats) and the Python objects of the blocks' pieces
# and the models.
FIT_MARGIN = 64 << 10


def traced_peak(fn):
    """``fn()`` and the traced peak of what it allocated beyond what was held before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def block_peaks(data, targets, hp, columns):
    """The traced peak of making each block of ``fit_forests(data, targets, hp)``
    alone, from its generators to its grown trees, as the fit makes it."""
    n, p = data.X.shape
    n_trees = hp.forest.n_trees
    end = len(targets) * n_trees
    step = models.forest_block(n)
    ys = np.stack([y for y, _ in targets])

    def make(first):
        forest, tree = np.divmod(np.arange(first, min(first + step, end)), n_trees)
        rngs = [np.random.default_rng((targets[s][1], t))
                for s, t in zip(forest.tolist(), tree.tolist())]
        weights = np.empty((len(rngs), n), dtype=np.int32)
        for row, rng in zip(weights, rngs):
            row[:] = np.bincount(rng.integers(0, n, size=n), minlength=n)
        y = ys[forest[0]] if forest[0] == forest[-1] else ys[forest]
        return grow_tree(data.X, y, weights, rngs=rngs, mtry=max(1, p // 3),
                         min_leaf=hp.forest.min_node_size, columns=columns)

    return [traced_peak(lambda: make(first))[1] for first in range(0, end, step)]


# A 100-tree forest's table (0.5 MiB) is smaller than what making one block
# takes (2.1 MiB), so its nodes held twice would stay under the bound; 1,000
# trees, or two forests of 500, held twice would not. With two targets of
# 100 trees, the block of trees 90-134 spans both forests.
@pytest.mark.parametrize("n_trees, n_targets", [(100, 1), (100, 2), (1000, 1), (500, 2)])
def test_a_forest_fit_holds_its_nodes_once(n_trees, n_targets):
    data = calendar_design(5, n=720)
    assert models.forest_block(720) == 45
    hp = HyperParams(forest=ForestParams(n_trees=n_trees))
    columns = SortedColumns(data.X)
    targets = [(data.y, 8), (data.y[::-1].copy(), 9)][:n_targets]
    fitted, peak = traced_peak(lambda: fit_forests(data, targets, hp, columns=columns))
    n_nodes = sum(model.payload.nodes.feature.size for model in fitted)
    tables = sum(table_bytes(model.payload.nodes) for model in fitted)
    assert tables == 28 * n_nodes
    block = max(block_peaks(data, targets, hp, columns))
    assert peak < tables + 8 * n_nodes + block + FIT_MARGIN


def golden_models():
    """A small seeded forest and boosting model on a design with binary columns."""
    data = calendar_design(11, n=48, n_continuous=2)
    hp = HyperParams(forest=ForestParams(n_trees=3, min_node_size=4),
                     boosting=BoostingParams(n_rounds=3, max_depth=2))
    return (fit_forest(data, hp, seed=3, trained_at=7),
            fit_boosting(data, hp, seed=3, trained_at=7))


def golden_text():
    return "\n\n".join(dump_model(model) for model in golden_models()) + "\n"


def test_dump_model_text_is_the_committed_golden():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
