"""Regression-tree machinery shared by the forest and boosting forecasters.

Trees greedily minimize within-node squared error. Split thresholds are
midpoints between consecutive distinct feature values in the node (the
left value when the midpoint rounds up to the right one); among equal-gain
splits the lowest feature index wins, then the lowest threshold, so growth
is fully deterministic given the rows and candidate features. A leaf holds
the weighted mean of its training targets.

``grow_tree`` grows a block of trees together, level by level, on columns
sorted once per fit (``SortedColumns``, after the presorted attribute lists
of SLIQ and SPRINT). Each tree's rows enter as integer weights, so a
bootstrap is a count per row. At each depth, the samples of every (open
node, candidate feature) pair are laid out by one integer sort of
(candidate, rank in its feature) keys per group of whole trees (about
``SCORE_SAMPLES`` samples), a fixed number of whole-array numpy calls per
group scores all their splits, and each split node's rows are then divided
stably between its children. With per-split feature
sampling, each tree draws the candidate features of its open nodes from its
own generator, one level at a time in node order. No tree's arithmetic
involves another's values, so a tree does not depend on which block it was
grown in.

Trees are written straight into ``FlatTree`` node arrays; growth, boosting
shrinkage, prediction and the text dump all work on those arrays.
"""

from __future__ import annotations

import numpy as np

_NODE_ARRAYS = ("feature", "threshold", "child", "value", "n_samples")
# About how many candidate samples are scored together (whole trees at a
# time). It bounds the grower's peak memory, a few tens of bytes per sample,
# and keeps the scoring arrays small enough to stay in cache.
SCORE_SAMPLES = 1 << 14


class FlatTree:
    """One or more regression trees in flat node arrays.

    Each tree's nodes are contiguous and in level order, from its root at
    ``roots[t]``. Internal node ``i`` sends a row to its left child
    ``i + child[i]`` when ``X[row, feature[i]] <= threshold[i]``, else to
    the right child, the node after the left one. A leaf has feature -1,
    threshold +inf and child 0, so a row that reaches it stays there.
    ``value`` holds leaf values (0 at internal nodes), ``n_samples`` the
    weighted training rows that reached each node, ``depths[t]`` the depth
    of tree t.
    """

    __slots__ = _NODE_ARRAYS + ("roots", "depths")

    def __init__(self, feature, threshold, child, value, n_samples, roots, depths):
        self.feature = feature
        self.threshold = threshold
        self.child = child
        self.value = value
        self.n_samples = n_samples
        self.roots = roots
        self.depths = depths

    @classmethod
    def concat(cls, trees: list["FlatTree"]) -> "FlatTree":
        """All trees of ``trees``, in order, in one node table."""
        if not trees:
            return cls(*(np.zeros(0, dtype) for dtype in
                         (np.intp, float, np.intp, float, np.intp, np.intp, np.intp)))
        sizes = np.array([t.feature.size for t in trees])
        offsets = np.cumsum(sizes) - sizes
        return cls(*(np.concatenate([getattr(t, name) for t in trees]) for name in _NODE_ARRAYS),
                   np.concatenate([t.roots + off for t, off in zip(trees, offsets)]),
                   np.concatenate([t.depths for t in trees]))

    @property
    def n_trees(self) -> int:
        return self.roots.size

    @property
    def depth(self) -> int:
        return int(self.depths.max(initial=0))

    def tree(self, t: int) -> "FlatTree":
        """Tree ``t`` on its own; its node arrays are views of this table's."""
        lo = self.roots[t]
        hi = self.roots[t + 1] if t + 1 < self.n_trees else self.feature.size
        return FlatTree(*(getattr(self, name)[lo:hi] for name in _NODE_ARRAYS),
                        np.zeros(1, dtype=np.intp), self.depths[t:t + 1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Sum over the trees, in tree order, of each row's leaf value.

        All trees walk together, one step per level of the deepest tree.
        """
        rows = np.arange(X.shape[0])
        idx = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        for _ in range(self.depth):
            # At a leaf, feature -1 reads the last column and +inf keeps the row.
            idx += self.child[idx] + (X[rows, self.feature[idx]] > self.threshold[idx])
        out = np.zeros(X.shape[0])
        for leaf_values in self.value[idx]:
            out += leaf_values
        return out


class SortedColumns:
    """The columns of a design matrix, each sorted once (ties by row).

    Flat arrays address place i of column f at ``f * n + i``: ``order``
    holds the row at that place, ``xs`` its value, and ``rank[f * n + r]``
    is the place of row r in column f.
    """

    __slots__ = ("n", "order", "rank", "xs")

    def __init__(self, X: np.ndarray):
        order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        self.n = X.shape[0]
        self.order = order.ravel()
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(self.n), axis=1)
        self.rank = rank.ravel()
        self.xs = np.take_along_axis(X.T, order, axis=1).ravel()


def grow_tree(X: np.ndarray, y: np.ndarray, weights: np.ndarray,
              rngs: list[np.random.Generator] | None = None,
              mtry: int | None = None,
              min_leaf: int = 1,
              max_depth: int | None = None,
              min_gain: float = 0.0,
              feature_pool: np.ndarray | None = None,
              columns: SortedColumns | None = None) -> FlatTree:
    """Grow one SSE regression tree per row of ``weights``, all together.

    ``weights[t, r]`` is how often row r of (X, y) is in tree t (0: not at
    all); sample counts are sums of these weights. ``columns`` is
    ``SortedColumns(X)``, made here when not given. mtry=None considers
    every feature in the pool (ascending indices) at each split; otherwise
    each node draws mtry features from the pool uniformly without
    replacement, from ``rngs[t]`` for tree t. A node becomes a leaf when its
    targets are all equal, it holds fewer than 2 * min_leaf samples, it
    reaches max_depth, or no split leaves min_leaf samples on each side with
    gain > min_gain.
    """
    weights = np.atleast_2d(weights)
    n_trees, n = weights.shape
    pool = np.arange(X.shape[1]) if feature_pool is None else np.asarray(feature_pool)
    draw = mtry is not None and mtry < pool.size
    if draw and (rngs is None or len(rngs) != n_trees):
        raise ValueError("per-split feature sampling requires one rng per tree")
    if not (weights.sum(axis=1) > 0).all():
        raise ValueError("every tree needs a row of positive weight")
    if columns is None:
        columns = SortedColumns(X)
    if max_depth is None:
        max_depth = np.inf

    # A sample is a (tree, row) pair with positive weight, numbered t * n + r;
    # w, yw and wy are looked up by sample.
    w = weights.ravel()
    yw = (weights * y).ravel()
    wy = yw + 1j * w   # both in one number, so one running sum adds up both
    # The rows of the current level's nodes' samples, grouped by node; nodes
    # are in tree order.
    rows = np.nonzero(weights)[1]
    count = np.count_nonzero(weights, axis=1)   # samples per node
    tree_of = np.arange(n_trees)                 # tree per node

    levels = []
    while True:
        depth = len(levels)
        start = np.cumsum(count) - count
        samples = np.repeat(tree_of * n, count) + rows
        n_w = np.add.reduceat(w[samples], start)
        total = np.add.reduceat(yw[samples], start)
        y_min = np.minimum.reduceat(y[rows], start)
        pure = y_min == np.maximum.reduceat(y[rows], start)
        level = {"tree": tree_of, "n_samples": n_w,
                 "feature": np.full(count.size, -1, dtype=np.intp),
                 "threshold": np.full(count.size, np.inf),
                 "value": np.where(pure, y_min, total / n_w),
                 "split": np.zeros(count.size, dtype=bool)}
        levels.append(level)
        nodes = np.flatnonzero(~pure & (n_w >= 2 * min_leaf) & (depth < max_depth))
        if nodes.size:
            drawn = (pool[_draw_features(rngs, tree_of[nodes], pool.size, mtry)] if draw
                     else np.tile(pool, (nodes.size, 1)))
            # Whole trees at a time, so the arrays over candidate samples stay small.
            parts = [_best_splits(columns, wy, rows, nodes[group], drawn[group], start, count,
                                  n_w, total, tree_of, min_leaf, min_gain)
                     for group in _tree_groups(tree_of[nodes], count[nodes] * drawn.shape[1])]
            nodes, feature, threshold = (np.concatenate(a) for a in zip(*parts))
        if not nodes.size:
            break
        level["split"][nodes] = True
        level["feature"][nodes] = feature
        level["threshold"][nodes] = threshold
        level["value"][nodes] = 0.0
        rows, count = _partition(X, rows, count, level["split"], feature, threshold)
        tree_of = np.repeat(tree_of[nodes], 2)
    return _assemble(levels)


def _draw_features(rngs, node_tree: np.ndarray, n_feat: int, mtry: int) -> np.ndarray:
    """Candidate pool positions of each open node, ascending, shape (nodes, mtry).

    Tree t draws for all its open nodes of the level from ``rngs[t]``: the
    first mtry entries of a uniform random permutation of the pool per node.
    """
    first = _run_starts(node_tree)
    keys = np.concatenate([rngs[node_tree[i]].random((m, n_feat))
                           for i, m in zip(first, np.diff(first, append=node_tree.size))])
    return np.sort(np.argsort(keys, axis=1)[:, :mtry], axis=1)


def _best_splits(columns: SortedColumns, wy, rows, nodes, drawn, start, count, n_w, total,
                 tree_of, min_leaf, min_gain):
    """The open nodes in ``nodes`` that split, with their feature and threshold.

    ``drawn`` holds each node's candidate features, ascending. A candidate
    is an (open node, drawn feature) pair. One sort of (candidate, rank in
    the feature) keys lays the candidates out node-major with features
    ascending, each as its node's samples in ascending order of its
    feature, so the first best-scoring split of a node is its lowest
    feature's lowest threshold. Arrays over all candidate samples set the
    grower's peak memory, so few of them live at once.
    """
    n = columns.n
    width = drawn.shape[1]
    c_feature = drawn.ravel()
    c_node = np.repeat(nodes, width)
    c_count = count[c_node]
    c_start = np.cumsum(c_count) - c_count

    def each_sample(per_candidate):
        return np.repeat(per_candidate, c_count)

    key = rows[np.arange(c_start[-1] + c_count[-1]) + each_sample(start[c_node] - c_start)]
    key += each_sample(c_feature * n)
    key = columns.rank[key]
    key += each_sample(np.arange(c_feature.size) * n)
    key.sort()
    key += each_sample((c_feature - np.arange(c_feature.size)) * n)  # place in sorted columns
    x = columns.xs[key]
    key = columns.order[key]
    key += each_sample(tree_of[c_node] * n)                          # sample number
    running = wy[key]
    del key
    before = _running_sums(running, c_start, tree_of[c_node])

    # A split after position i needs x to rise to position i + 1 and leaves
    # k samples, of targets summing to left, on the left; both sides must
    # keep min_leaf samples.
    after = np.flatnonzero(x[1:] > x[:-1])
    c_after = np.searchsorted(c_start, after, side="right") - 1
    sums = running[after] - before[c_after]
    del running
    k, left = sums.imag, sums.real
    n_c = n_w[c_node[c_after]]
    keep = (k >= min_leaf) & (n_c - k >= min_leaf)
    after, c_after, k, left, n_c = after[keep], c_after[keep], k[keep], left[keep], n_c[keep]
    if not after.size:
        return after, after, x[after]   # no node splits
    right = total[c_node[c_after]] - left
    # SSE reduction up to the node's constant total^2 / n, subtracted below.
    score = left * left / k + right * right / (n_c - k)

    node_pos = c_after // width
    first = _run_starts(node_pos)
    best = np.maximum.reduceat(score, first)
    is_best = score == np.repeat(best, np.diff(first, append=score.size))
    pick = np.minimum.reduceat(np.where(is_best, np.arange(score.size), score.size), first)
    split_nodes = nodes[node_pos[first]]
    gains = best - total[split_nodes] ** 2 / n_w[split_nodes]
    pick = pick[gains > min_gain]
    v1, v2 = x[after[pick]], x[after[pick] + 1]
    mid = 0.5 * (v1 + v2)
    threshold = np.where(mid >= v2, v1, mid)   # midpoint rounded up to v2: the left value
    return split_nodes[gains > min_gain], c_feature[c_after[pick]], threshold


def _running_sums(values: np.ndarray, seg_start: np.ndarray, seg_tree: np.ndarray):
    """Turn ``values`` into running sums in place; return the sum before each segment.

    Segments are grouped by tree, and each tree's values are summed on their
    own, so no tree's running sum passes through another tree's values;
    subtracting a segment's "before" value restarts the sum at the segment.
    """
    tree_first = _run_starts(seg_tree)
    bounds = np.append(seg_start[tree_first], values.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.cumsum(values[lo:hi], out=values[lo:hi])
    before = values[seg_start - 1]
    before[tree_first] = 0.0
    return before


def _tree_groups(node_tree: np.ndarray, node_samples: np.ndarray) -> list[slice]:
    """Runs of whole trees' open nodes, each of about SCORE_SAMPLES candidate samples."""
    first = _run_starts(node_tree)
    size = np.add.reduceat(node_samples, first)
    cut = first[_run_starts((np.cumsum(size) - size) // SCORE_SAMPLES)]
    return [slice(a, b) for a, b in zip(cut, np.append(cut[1:], node_tree.size))]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Index at which each run of equal values in the nonempty ``a`` starts."""
    return np.concatenate(([0], np.flatnonzero(a[1:] != a[:-1]) + 1))


def _partition(X: np.ndarray, rows, count, split, feature, threshold):
    """Sample rows of the split nodes' children, in level order, and their counts.

    Each split node's samples are divided stably into its left then its
    right child.
    """
    rows = rows[np.repeat(split, count)]
    count = count[split]
    node = np.repeat(np.arange(count.size), count)
    goes_right = X[rows, feature[node]] > threshold[node]
    # A stable sort of (node, side) keys; 16-bit keys take numpy's radix sort.
    key = (2 * node + goes_right).astype(np.uint16 if count.size < 2 ** 15 else np.intp)
    rows = rows[np.argsort(key, kind="stable")]
    n_right = np.add.reduceat(goes_right, np.cumsum(count) - count)
    return rows, np.column_stack([count - n_right, n_right]).ravel()


def _assemble(levels: list[dict]) -> FlatTree:
    """Node table of the grown block: each tree's nodes together, in level order."""
    node = {name: np.concatenate([level[name] for level in levels])
            for name in ("tree", "n_samples", "feature", "threshold", "value", "split")}
    level_of = np.repeat(np.arange(len(levels)), [level["tree"].size for level in levels])
    n_roots = levels[0]["tree"].size
    # Level d + 1 holds the children of level d's split nodes, in order, so
    # the i-th split node of the whole block has its left child at
    # n_roots + 2i (block order: level by level).
    split = np.flatnonzero(node["split"])
    left = n_roots + 2 * np.arange(split.size)
    order = np.argsort(node["tree"], kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    child = np.zeros(order.size, dtype=np.intp)
    child[pos[split]] = pos[left] - pos[split]
    roots = pos[:n_roots]
    ends = np.append(roots[1:], order.size) - 1
    return FlatTree(*(node[name][order] for name in ("feature", "threshold")), child,
                    *(node[name][order] for name in ("value", "n_samples")),
                    roots, level_of[order][ends])


def dump_tree(tree: FlatTree, feature_names) -> str:
    """Indented text rendering of one tree, one node per line, depth first."""
    lines: list[str] = []
    stack: list[tuple[int, int, str]] = [(int(tree.roots[0]), 0, "root")]
    while stack:
        i, depth, tag = stack.pop()
        pad = "  " * depth
        n = tree.n_samples[i]
        if tree.feature[i] < 0:
            lines.append(f"{pad}{tag}: leaf value={tree.value[i]:.6g} n={n}")
        else:
            name = feature_names[tree.feature[i]]
            lines.append(f"{pad}{tag}: split {name} <= {tree.threshold[i]:.6g} n={n}")
            left = i + tree.child[i]
            stack.append((left + 1, depth + 1, "right"))
            stack.append((left, depth + 1, "left"))
    return "\n".join(lines)
