import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftmon.errors import InsufficientData, ShapeError
from driftmon.features import DesignMatrix
from driftmon.forecasters import (
    BoostingParams,
    ForestParams,
    HyperParams,
    cart,
    dump_model,
    fit_boosting,
    fit_forest,
    grow_tree,
    models,
    predict_matrix,
)
from oracles import reference_tree


def design(X, y):
    X = np.asarray(X, dtype=float)
    return DesignMatrix(X=X, y=np.asarray(y, dtype=float),
                        column_names=tuple(f"f{j}" for j in range(X.shape[1])))


def rand_design(seed, n=80, p=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X[:, 0] - 2.0 * X[:, 1] ** 2 + 0.3 * rng.normal(size=n)
    return design(X, y)


def nested(tree, i=None):
    """A tree's nodes as the nested tuples ``oracles.reference_tree`` returns."""
    i = int(tree.roots[0]) if i is None else i
    if tree.feature[i] < 0:
        return ("leaf", float(tree.value[i]), int(tree.n_samples[i]))
    left = i + int(tree.child[i])
    return ("split", int(tree.feature[i]), float(tree.threshold[i]), int(tree.n_samples[i]),
            nested(tree, left), nested(tree, left + 1))


def assert_same_tree(got, want):
    """Same splits and counts exactly; leaf values within 1e-12 relative."""
    assert got[0] == want[0]
    if got[0] == "leaf":
        assert got[2] == want[2]
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-300)
    else:
        assert got[1:4] == want[1:4]
        assert_same_tree(got[4], want[4])
        assert_same_tree(got[5], want[5])


def ones(n):
    return np.ones(n, dtype=int)


# ---------------------------------------------------------------------------
# Single trees
# ---------------------------------------------------------------------------

def test_fully_grown_tree_memorizes_distinct_rows():
    data = rand_design(0, n=50)
    hp = HyperParams(forest=ForestParams(n_trees=1, mtry=data.X.shape[1],
                                         min_node_size=1, bootstrap=False))
    model = fit_forest(data, hp, seed=0)
    assert np.allclose(predict_matrix(model, data.X), data.y, atol=1e-12)


def test_split_threshold_is_midpoint():
    tree = grow_tree(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), ones(2))
    assert tree.threshold[0] == 0.5
    left = tree.child[0]
    assert tree.value[left] == 0.0
    assert tree.value[left + 1] == 1.0


def test_midpoint_rounding_up_falls_back_to_left_value():
    v1, v2 = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
    assert 0.5 * (v1 + v2) == v2
    tree = grow_tree(np.array([[v1], [v2]]), np.array([0.0, 1.0]), ones(2))
    assert tree.threshold[0] == v1


def test_tie_break_prefers_lowest_feature_then_threshold():
    # identical columns give identical gains; the split must use feature 0
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = grow_tree(X, y, ones(4))
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5


def test_max_depth_limits_growth():
    data = rand_design(1, n=120)
    tree = grow_tree(data.X, data.y, ones(120), max_depth=2)
    assert tree.depth <= 2


def test_constant_target_keeps_single_leaf():
    X = np.random.default_rng(2).normal(size=(40, 3))
    tree = grow_tree(X, np.full(40, 3.7), ones(40))
    assert tree.feature.tolist() == [-1]
    assert tree.value[0] == pytest.approx(3.7, rel=1e-12)


def test_flat_tree_matches_node_walk():
    data = rand_design(3, n=150)
    tree = grow_tree(data.X, data.y, ones(150), min_leaf=5)

    def walk(row):
        i = 0
        while tree.feature[i] >= 0:
            i += tree.child[i] + (row[tree.feature[i]] > tree.threshold[i])
        return tree.value[i]

    preds = tree.predict(data.X)
    for i in range(0, 150, 7):
        assert preds[i] == walk(data.X[i])


# Designs with ties: a few distinct values (two of them adjacent floats whose
# midpoint rounds up), so columns repeat values, rows repeat and columns can be
# constant. Integer targets and weights make every weighted sum exact in any
# order, so the grower and the reference score each split identically.
_values = st.sampled_from([-3.0, 0.0, 1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51, 2.5])


@st.composite
def weighted_designs(draw):
    n = draw(st.integers(2, 24))
    p = draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, p), elements=_values))
    y = draw(arrays(np.float64, n, elements=st.integers(-6, 6).map(float)))
    n_trees = draw(st.integers(1, 3))
    weights = draw(arrays(np.int64, (n_trees, n), elements=st.integers(0, 3)))
    weights[:, draw(st.integers(0, n - 1))] += 1
    return X, y, weights


@settings(max_examples=200, deadline=None)
@given(data=weighted_designs(), min_leaf=st.integers(1, 4),
       max_depth=st.sampled_from([None, 1, 2, 3]), min_gain=st.sampled_from([0.0, 0.5, 4.0]))
def test_grower_matches_recursive_reference(data, min_leaf, max_depth, min_gain):
    X, y, weights = data
    block = grow_tree(X, y, weights, min_leaf=min_leaf, max_depth=max_depth, min_gain=min_gain)
    assert block.n_trees == weights.shape[0]
    for t in range(weights.shape[0]):
        want = reference_tree(X, y, weights[t], min_leaf=min_leaf, max_depth=max_depth,
                              min_gain=min_gain)
        assert_same_tree(nested(block.tree(t)), want)


# Binary-heavy designs, as the calendar dummies make them. Each column is one
# of: a one-hot dummy block (first level dropped), two adjacent floats (the
# midpoint of the first pair rounds to its lower value, of the second up to
# its upper one), the three values {-0.0, 0.0, 1.0} (two distinct), a
# constant, or a few-valued continuous column. Integer targets and weights keep every sum exact, so the
# binary path's bincounts and the reference's running sums agree exactly.
@st.composite
def binary_heavy_designs(draw):
    n = draw(st.integers(2, 24))
    columns = []
    while len(columns) < draw(st.integers(1, 6)):
        kind = draw(st.sampled_from(["dummies", "adjacent", "zeros", "constant", "continuous"]))
        if kind == "dummies":
            levels = draw(st.integers(2, 4))
            level = draw(arrays(np.int64, n, elements=st.integers(0, levels - 1)))
            columns.extend((level == k).astype(float) for k in range(1, levels))
        elif kind == "adjacent":
            pair = draw(st.sampled_from([(1.0, 1.0 + 2.0 ** -52),
                                         (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51)]))
            columns.append(draw(arrays(np.float64, n, elements=st.sampled_from(pair))))
        elif kind == "zeros":
            columns.append(draw(arrays(np.float64, n, elements=st.sampled_from([-0.0, 0.0, 1.0]))))
        elif kind == "constant":
            columns.append(np.full(n, draw(st.sampled_from([-1.0, 0.0, 2.5]))))
        else:
            columns.append(draw(arrays(np.float64, n, elements=_values)))
    X = np.column_stack(columns)
    y = draw(arrays(np.float64, n, elements=st.integers(-6, 6).map(float)))
    n_trees = draw(st.integers(1, 3))
    weights = draw(arrays(np.int64, (n_trees, n), elements=st.integers(0, 3)))
    weights[:, draw(st.integers(0, n - 1))] += 1
    pool = draw(st.none() | st.lists(st.integers(0, X.shape[1] - 1), min_size=1, unique=True))
    return X, y, weights, None if pool is None else np.sort(pool)


def renumbered(tree, pool):
    """A nested tree over the columns ``pool`` of a design, with features as its columns."""
    if tree[0] == "leaf":
        return tree
    return ("split", int(pool[tree[1]]), *tree[2:4], renumbered(tree[4], pool),
            renumbered(tree[5], pool))


@settings(max_examples=200, deadline=None)
@given(data=binary_heavy_designs(), min_leaf=st.integers(1, 4),
       max_depth=st.sampled_from([None, 1, 2, 3]), min_gain=st.sampled_from([0.0, 0.5, 4.0]))
def test_grower_matches_reference_on_binary_heavy_designs(data, min_leaf, max_depth, min_gain):
    X, y, weights, pool = data
    block = grow_tree(X, y, weights, min_leaf=min_leaf, max_depth=max_depth, min_gain=min_gain,
                      feature_pool=pool)
    pool = np.arange(X.shape[1]) if pool is None else pool
    for t in range(weights.shape[0]):
        want = reference_tree(X[:, pool], y, weights[t], min_leaf=min_leaf, max_depth=max_depth,
                              min_gain=min_gain)
        assert_same_tree(nested(block.tree(t)), renumbered(want, pool))


@settings(max_examples=200, deadline=None)
@given(data=binary_heavy_designs())
# a continuous and a constant column: no binary column, so no rare entry
@example(data=(np.array([[0.0, 2.5], [1.0, 2.5], [3.0, 2.5]]), None, None, None))
# rows 2 and 3 sit on neither column's rarer value
@example(data=(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), None, None, None))
def test_rare_pad_lists_each_rows_rarer_value_binary_columns(data):
    X = data[0]
    n = X.shape[0]
    binary = [j for j in range(X.shape[1]) if len(set(X[:, j].tolist())) == 2]
    rare = []
    for j in binary:
        low, high = X[:, j].min(), X[:, j].max()
        rare.append(low if 2 * np.count_nonzero(X[:, j] == low) <= n else high)
    lists = [[b for b, j in enumerate(binary) if X[r, j] == rare[b]] for r in range(n)]
    width = max(map(len, lists))
    want = [row + [len(binary)] * (width - len(row)) for row in lists]
    pad = cart.SortedColumns(X).rare_pad
    assert pad.shape == (n, width)
    assert pad.tolist() == want


_scores = st.sampled_from([-np.inf, -1.0, 0.0, 2.5])


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.lists(_scores, min_size=1, max_size=6), min_size=1, max_size=6))
# ties inside a run, a run all -inf, one-position runs
@example(runs=[[1.0, 2.5, 2.5], [-np.inf, -np.inf], [0.0], [2.5, 1.0, 2.5], [-np.inf]])
def test_first_best_in_runs_takes_each_runs_first_highest_score(runs):
    score = np.array([s for run in runs for s in run])
    first = np.cumsum([0] + [len(run) for run in runs[:-1]])
    want = [int(lo) + run.index(max(run)) for lo, run in zip(first, runs)]
    assert cart._first_best_in_runs(first, score).tolist() == want


def calendar_design(seed, n):
    """Three continuous columns, then six day and three shift dummies (first level dropped)."""
    rng = np.random.default_rng(seed)
    day, shift = rng.integers(0, 7, size=n), rng.integers(0, 4, size=n)
    X = np.column_stack([rng.normal(size=(n, 3))]
                        + [day == d for d in range(1, 7)] + [shift == s for s in range(1, 4)])
    y = X[:, 0] + 2.0 * X[:, 3] - X[:, 10] + 0.5 * rng.normal(size=n)
    return X.astype(float), y


@pytest.mark.parametrize("style", ["forest", "boosting"])
def test_one_scoring_group_per_tree_grows_the_same_block(monkeypatch, style):
    # With the default SCORE_SAMPLES a level's candidates are scored in one
    # group of all 12 trees (forest) or in two (boosting style: every
    # feature, 3 * 600 continuous samples per tree); with 1, every tree is a
    # group of its own.
    X, y = calendar_design(41, n=600)
    rng = np.random.default_rng(43)
    weights = np.array([np.bincount(rng.integers(0, y.size, size=y.size), minlength=y.size)
                        for _ in range(12)])

    def grow():
        if style == "forest":
            rngs = [np.random.default_rng((5, t)) for t in range(weights.shape[0])]
            return grow_tree(X, y, weights, rngs=rngs, mtry=3, min_leaf=2)
        return grow_tree(X, y, weights, min_leaf=1, max_depth=6)

    default = grow()
    monkeypatch.setattr(cart, "SCORE_SAMPLES", 1)
    grouped = grow()
    assert_same_arrays(grouped, default)
    assert np.array_equal(grouped.roots, default.roots)


def assert_block_matches_reference(X, y, weights, min_leaf=1, max_depth=None):
    """Each tree of one block grown on (X, y, weights) is ``reference_tree``'s."""
    block = grow_tree(X, y, weights, min_leaf=min_leaf, max_depth=max_depth)
    for t in range(weights.shape[0]):
        assert_same_tree(nested(block.tree(t)),
                         reference_tree(X, y, weights[t], min_leaf=min_leaf, max_depth=max_depth))
    return block


def test_a_node_without_admissible_continuous_split_stays_a_leaf_beside_one_that_splits():
    # Three distinct values, but with min_leaf 3 tree 0's root has no split
    # leaving 3 samples on each side; tree 1's weights make one. Both roots
    # are scored in one pass over the level's positions.
    X = np.array([[0.0], [0.0], [0.0], [0.0], [0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 5.0, 9.0])
    weights = np.array([[1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 0, 2, 2], [1, 1, 1, 1, 1, 1, 1]])
    block = assert_block_matches_reference(X, y, weights, min_leaf=3)
    assert [block.tree(t).feature.size for t in range(3)] == [1, 3, 1]


def test_ties_straddling_candidate_boundaries():
    # Sorted, column 0 ends on the value column 1 starts with, and column 1
    # ends below column 2's start: a node's candidates lie end to end in one
    # pass, x ties and rises across their boundaries, and a split is still
    # scored within one candidate only.
    X = np.array([[0.0, 3.0, 7.0], [1.0, 3.0, 8.0], [2.0, 4.0, 9.0], [3.0, 5.0, 9.0],
                  [3.0, 6.0, 7.0], [3.0, 6.0, 7.0], [0.0, 6.0, 9.0], [2.0, 3.0, 8.0]])
    y = np.array([1.0, 4.0, -2.0, 0.0, 3.0, 3.0, 5.0, -1.0])
    weights = np.array([[1] * 8, [2, 0, 1, 1, 3, 0, 1, 1], [0, 1, 1, 2, 1, 1, 0, 2]])
    for min_leaf in (1, 2):
        assert_block_matches_reference(X, y, weights, min_leaf=min_leaf)


def test_zero_weight_rows_take_no_part_in_a_split():
    # Rows of weight 0 sit between and on the values of the weighted ones;
    # thresholds and counts come from the weighted rows alone.
    rng = np.random.default_rng(31)
    X = rng.integers(0, 6, size=(30, 3)).astype(float)
    y = rng.integers(-5, 6, size=30).astype(float)
    weights = rng.integers(0, 3, size=(4, 30)) * (rng.random((4, 30)) < 0.5)
    weights[:, 0] += 1
    for min_leaf in (1, 2, 3):
        assert_block_matches_reference(X, y, weights, min_leaf=min_leaf)


def test_min_leaf_above_half_a_node():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(12, 2))
    y = rng.integers(-5, 6, size=12).astype(float)
    weights = np.array([[1] * 12, [2] * 6 + [0] * 6, rng.integers(1, 3, size=12)])
    for min_leaf in range(1, 14):
        block = assert_block_matches_reference(X, y, weights, min_leaf=min_leaf)
        # a root holding fewer than 2 * min_leaf samples never splits
        for t in np.flatnonzero(weights.sum(axis=1) < 2 * min_leaf):
            assert block.tree(t).feature.size == 1


def assert_same_arrays(a, b):
    for name in ("feature", "threshold", "child", "value", "n_samples", "depths"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_forest_tree_does_not_depend_on_its_block():
    data = rand_design(20, n=90)
    small = fit_forest(data, HyperParams(forest=ForestParams(n_trees=8, min_node_size=3)), seed=7)
    large = fit_forest(data, HyperParams(forest=ForestParams(n_trees=20, min_node_size=3)), seed=7)
    for a, b in zip(small.payload.flats, large.payload.flats[:8]):
        assert_same_arrays(a, b)


@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_node_table_does_not_depend_on_the_block_rule(monkeypatch, bootstrap):
    data = rand_design(31, n=60, p=9)
    hp = HyperParams(forest=ForestParams(n_trees=10, mtry=3, min_node_size=2,
                                         bootstrap=bootstrap))
    tables = []
    # 1-tree blocks, 3-tree blocks with a remainder of 1, one block for all trees
    for block in (1, 3, 10):
        monkeypatch.setattr(models, "forest_block", lambda n, block=block: block)
        tables.append(fit_forest(data, hp, seed=13).payload.nodes)
    for table in tables[1:]:
        assert_same_arrays(tables[0], table)
        assert np.array_equal(tables[0].roots, table.roots)


def test_forest_blocks_are_sized_by_rows(monkeypatch):
    assert (models.forest_block(720), models.forest_block(10_800)) == (45, 3)
    assert models.forest_block(models.FOREST_BLOCK_SAMPLES + 1) == 1
    grown = []

    def counting_grow_tree(X, y, weights, **kwargs):
        grown.append(len(weights))
        return grow_tree(X, y, weights, **kwargs)

    monkeypatch.setattr(models, "grow_tree", counting_grow_tree)
    data = rand_design(37, n=720, p=4)
    model = fit_forest(data, HyperParams(forest=ForestParams(n_trees=500, min_node_size=200)),
                       seed=1)
    assert grown == [45] * 11 + [5]   # ceil(500 / 45) calls
    assert model.payload.nodes.n_trees == 500


def test_tree_grown_alone_equals_tree_grown_after_others():
    # Column 1 mirrors column 0, so every split of one has an equal-gain twin
    # in the other whose running sums add the same targets in the opposite
    # order: which one wins rests on rounding, and a running sum carried over
    # from the block's earlier trees would flip some of them.
    rng = np.random.default_rng(23)
    x = rng.normal(size=200)
    X = np.column_stack([x, -x, rng.normal(size=200)])
    y = 1000.0 + rng.normal(size=200)
    weights = np.array([np.bincount(rng.integers(0, 200, size=200), minlength=200)
                        for _ in range(6)])
    block = grow_tree(X, y, weights, min_leaf=2)
    for t in range(6):
        assert_same_arrays(grow_tree(X, y, weights[t], min_leaf=2), block.tree(t))


def test_tree_grown_alone_equals_tree_grown_in_block_with_binary_twins():
    # Columns 0 and 1 are a dummy and its complement: every split of one has
    # an equal-gain twin in the other, whose left side is the other's right
    # side and whose sums come from the other value's counts, so rounding
    # decides between them. Column 2 is continuous.
    rng = np.random.default_rng(29)
    d = (rng.random(200) < 0.3).astype(float)
    X = np.column_stack([d, 1.0 - d, rng.normal(size=200)])
    y = 1000.0 + rng.normal(size=200)
    weights = np.array([np.bincount(rng.integers(0, 200, size=200), minlength=200)
                        for _ in range(6)])
    block = grow_tree(X, y, weights, min_leaf=2)
    for t in range(6):
        assert_same_arrays(grow_tree(X, y, weights[t], min_leaf=2), block.tree(t))


def per_tree_target_problem(kind, n=150, n_trees=5, seed=41):
    """(X, Y, weights): a continuous-heavy or binary-heavy design, one target
    row per tree (the first constant, the last with many ties) and bootstrap
    weights."""
    rng = np.random.default_rng(seed)
    cont = rng.normal(size=(n, 5))
    dummies = (rng.integers(0, 7, size=n)[:, None] == np.arange(6)).astype(float)
    X = (np.column_stack([cont, dummies[:, :1]]) if kind == "continuous"
         else np.column_stack([dummies, cont[:, :1]]))
    Y = np.stack([np.full(n, 3.0), X[:, 0] + 0.1 * rng.normal(size=n),
                  1000.0 + rng.normal(size=n), 5.0 * X[:, -1] - X[:, 1],
                  rng.integers(0, 3, size=n).astype(float)])[:n_trees]
    weights = np.array([np.bincount(rng.integers(0, n, size=n), minlength=n)
                        for _ in range(n_trees)])
    return X, Y, weights


@pytest.mark.parametrize("mtry", [None, 2])
@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_block_on_per_tree_targets_equals_each_tree_grown_alone(kind, mtry):
    X, Y, weights = per_tree_target_problem(kind)

    def rngs():
        return [np.random.default_rng((7, t)) for t in range(len(Y))]

    block = grow_tree(X, Y, weights, rngs=rngs(), mtry=mtry, min_leaf=2)
    # The constant target is one leaf; the others would be too if a tree read
    # the first tree's targets.
    assert block.tree(0).feature.size == 1
    for t, rng in enumerate(rngs()):
        alone = grow_tree(X, Y[t], weights[t], rngs=[rng], mtry=mtry, min_leaf=2)
        assert_same_arrays(alone, block.tree(t))
        assert alone.feature.size > 1 or t == 0


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_trees_on_their_own_targets_in_a_block_match_the_reference(kind):
    X, _, weights = per_tree_target_problem(kind, n=60, n_trees=4)
    # integer targets keep every weighted sum exact in any order (see above)
    Y = np.random.default_rng(45).integers(-6, 7, size=weights.shape).astype(float)
    Y[0] = 2.0
    block = grow_tree(X, Y, weights, min_leaf=3)
    for t in range(len(Y)):
        assert_same_tree(nested(block.tree(t)), reference_tree(X, Y[t], weights[t], min_leaf=3))


def test_joint_forest_fit_equals_each_forest_fit_alone(monkeypatch):
    grown = []

    def recording_grow_tree(X, y, weights, **kwargs):
        grown.append(np.shape(y))
        return grow_tree(X, y, weights, **kwargs)

    monkeypatch.setattr(models, "forest_block", lambda n: 3)
    monkeypatch.setattr(models, "grow_tree", recording_grow_tree)
    data = rand_design(43, n=70, p=7)
    rng = np.random.default_rng(44)
    targets = [(data.y, 5), (rng.normal(size=70), 6), (np.abs(data.X[:, 2]), 7)]
    hp = HyperParams(forest=ForestParams(n_trees=2, min_node_size=3))
    joint = models.fit_forests(data, targets, hp, trained_at=9)
    # 6 trees in blocks of 3: the first block holds both trees of forest 0
    # and one of forest 1, the second the other of forest 1 and both of forest 2
    assert grown == [(3, 70), (3, 70)]
    for (y, seed), model in zip(targets, joint):
        want = fit_forest(design(data.X, y), hp, seed, trained_at=9)
        assert (model.kind, model.trained_at, model.feature_names) == (
            want.kind, want.trained_at, want.feature_names)
        assert_same_arrays(model.payload.nodes, want.payload.nodes)
        assert np.array_equal(model.payload.nodes.roots, want.payload.nodes.roots)
    # no two models share memory, so a model kept alone keeps only its own
    # nodes: an array's memory is its base's, when it is a view
    for name in ("feature", "threshold", "child", "value", "n_samples", "roots", "depths"):
        kept = [getattr(model.payload.nodes, name) for model in joint]
        kept = [array if array.base is None else array.base for array in kept]
        for i, mine in enumerate(kept):
            assert not any(np.shares_memory(mine, other) for other in kept[i + 1:])


def test_ensemble_walk_equals_per_tree_sum_in_order():
    data = rand_design(21, n=100)
    X = np.random.default_rng(22).normal(size=(37, data.X.shape[1]))
    forest = fit_forest(data, HyperParams(forest=ForestParams(n_trees=23, min_node_size=2)),
                        seed=3)
    boosting = fit_boosting(data, HyperParams(boosting=BoostingParams(n_rounds=15)), seed=3)
    for model in (forest, boosting):
        total = np.zeros(X.shape[0])
        for flat in model.payload.flats:
            total += flat.predict(X)
        if model is forest:
            total /= len(model.payload.flats)
        else:
            total += model.payload.base
        assert np.array_equal(predict_matrix(model, X), total)


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
    current = np.full(data.X.shape[0], model.payload.base)
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
        predict_matrix(model, np.zeros(data.X.shape[1]))  # a lone vector, not a row block
    with pytest.raises(ShapeError):
        predict_matrix(model, np.zeros((1, data.X.shape[1] + 1)))
    with pytest.raises(ShapeError):
        predict_matrix(model, np.zeros((4, data.X.shape[1] - 1)))


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
