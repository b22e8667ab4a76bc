"""Regression-tree machinery shared by the forest and boosting forecasters.

Trees greedily minimize within-node squared error. Split thresholds are
midpoints between consecutive distinct feature values in the node (the
left value when the midpoint rounds up to the right one); among equal-gain
splits the lowest feature index wins, then the lowest threshold, so growth
is fully deterministic given the rows and candidate features. A leaf holds
the weighted mean of its training targets.

``grow_tree`` grows a block of trees together, level by level, on columns
prepared once per fit (``SortedColumns``: continuous columns sorted, after
the presorted attribute lists of SLIQ and SPRINT, and binary ones indexed
by their rarer value). Each tree's rows enter as integer weights, so a
bootstrap is a count per row. At each depth, each open node's best split
is found on two paths, by candidate column kind:

- a *continuous* column (three or more distinct values): per group of
  whole trees (about ``SCORE_SAMPLES`` candidate samples; a level within
  that is one group), the samples of every (open node, candidate feature)
  pair are laid out by one integer sort of (candidate, rank in its
  feature) keys, and one running sum of weight and weighted target gives
  the left side of a split after every position. Every position is scored
  at once, those that cannot split at -inf, with no search or compaction:
  the left count, left sum and right count each take one pass into a
  contiguous array, and the score is built in place from them. A node's
  first best position is its first hit of its best score;
- a *binary* column (two distinct values, such as a day-of-week or hour
  dummy) has one threshold. ``SortedColumns`` lists, once per design, each
  row's binary columns on their rarer value, padded to one width (two in
  the calendar design). Once per level, two bincounts over the samples'
  rows of that table, keyed by node, give every node's weight and target
  sum on each binary column's rarer value, as SLIQ's count matrix does for
  categorical attributes; no sample is sorted or gathered per column.

The paths add a node's sums in different orders, so between splits whose
gains are equal up to rounding, which one wins may differ from growth that
sorts every column.

Each split node's rows are then divided stably between its children. With
per-split feature sampling, each tree draws the candidate features of its
open nodes from its own generator, one level at a time in node order. No
tree's arithmetic involves another's values, so a tree does not depend on
which block it was grown in, nor on the targets the block's other trees
are grown on.

Trees are written straight into ``FlatTree`` node arrays; growth, boosting
shrinkage, prediction and the text dump all work on those arrays.

A deep tree's tail levels hold few samples, so their cost is mostly the
fixed cost of numpy calls. The level loop therefore calls ndarray methods
(``a.repeat(c)``, ``a.cumsum()``, ``m.nonzero()``) rather than numpy's
module functions, whose Python wrappers cost about as much again per call.
"""

from __future__ import annotations

import numpy as np

# The node arrays and their types, 28 bytes a node. int32 holds any feature
# index, and any child offset and sample count of a tree whose weights sum
# to less than 2**30.
_NODE_DTYPES = {"feature": np.int32, "threshold": np.float64, "child": np.int32,
                "value": np.float64, "n_samples": np.int32}
_NODE_ARRAYS = tuple(_NODE_DTYPES)
# About how many continuous candidate samples are scored together (whole
# trees at a time). It bounds the sort path's peak memory, a few tens of
# bytes per sample, and keeps its scoring arrays small enough to stay in
# cache. The binary path's arrays span a level's rare entries: in the
# calendar design, at most one per sample and dummy block.
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

    ``feature``, ``child`` and ``n_samples`` are int32, ``threshold`` and
    ``value`` float64: 28 bytes a node. ``roots`` and ``depths``, one entry
    a tree, are intp.
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
        """All trees of ``trees``, in order, in one node table.

        The table is built one node array at a time, and each tree of
        ``trees`` lets go of that array once it is copied, so no node is held
        twice but in the array being copied, at most 8 bytes a node. The
        trees passed in are left without node arrays.
        """
        if not trees:
            return cls(*(np.zeros(0, dtype) for dtype in _NODE_DTYPES.values()),
                       np.zeros(0, np.intp), np.zeros(0, np.intp))
        sizes = np.array([t.feature.size for t in trees])
        offsets = np.cumsum(sizes) - sizes
        roots = np.concatenate([t.roots + off for t, off in zip(trees, offsets)])
        depths = np.concatenate([t.depths for t in trees])
        arrays = []
        for name in _NODE_ARRAYS:
            arrays.append(np.concatenate([getattr(t, name) for t in trees]))
            for t in trees:
                setattr(t, name, None)
        return cls(*arrays, roots, depths)

    @property
    def n_trees(self) -> int:
        return self.roots.size

    @property
    def depth(self) -> int:
        return int(self.depths.max(initial=0))

    def trees(self, first: int, stop: int) -> "FlatTree":
        """Trees ``first`` to ``stop - 1`` on their own; their node arrays are
        views of this table's."""
        lo = self.roots[first]
        hi = self.roots[stop] if stop < self.n_trees else self.feature.size
        return FlatTree(*(getattr(self, name)[lo:hi] for name in _NODE_ARRAYS),
                        self.roots[first:stop] - lo, self.depths[first:stop])

    def tree(self, t: int) -> "FlatTree":
        """Tree ``t`` on its own; its node arrays are views of this table's."""
        return self.trees(t, t + 1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Sum over the trees, in tree order, of each row's leaf value.

        All trees walk together, one step per level of the deepest tree.
        Rows are read from the flat ``X`` at ``row * p + feature``: with
        int32 features, a 1-d gather is faster than numpy's 2-d one.
        """
        n, p = X.shape
        flat = X.ravel()
        offsets = np.arange(n) * p
        idx = np.repeat(self.roots[:, None], n, axis=1)
        for _ in range(self.depth):
            # At a leaf, feature -1 reads the entry before the row's (the
            # last one for row 0), and +inf keeps the row.
            idx += self.child[idx] + (flat[offsets + self.feature[idx]] > self.threshold[idx])
        out = np.zeros(n)
        for leaf_values in self.value[idx]:
            out += leaf_values
        return out


class SortedColumns:
    """The columns of a design matrix by kind, the continuous ones each sorted once.

    A column with three or more distinct values is continuous: ``slot[f]``
    is its index s among the continuous columns (-1 for any other column).
    Flat arrays address place i of continuous column s at ``s * n + i``:
    ``order`` holds the row at that place (ties by row), ``xs`` its value,
    and ``rank[s * n + r]`` is the place of row r in column s.

    A column with exactly two distinct values is binary: ``binary[f]`` is
    its index b among the binary columns (-1 for any other column), and
    ``binary_threshold[b]`` its one split threshold, and ``rare_left[b]``
    says whether its rarer value is the lower one. Row ``rare_pad[r]`` lists
    the binary columns on whose rarer value row r sits, ascending, padded to
    the widest row's count with the sentinel ``n_binary`` (the number of
    binary columns). A constant column is neither and never splits.
    """

    __slots__ = ("n", "slot", "order", "rank", "xs", "binary", "binary_threshold", "rare_left",
                 "rare_pad")

    def __init__(self, X: np.ndarray):
        self.n = n = X.shape[0]
        low, high = X.min(axis=0), X.max(axis=0)
        is_low = X == low
        two = (is_low | (X == high)).all(axis=0) & (low < high)
        continuous = np.flatnonzero(~two & ~(low == high))
        self.slot = np.full(X.shape[1], -1, dtype=np.intp)
        self.slot[continuous] = np.arange(continuous.size)
        order = np.ascontiguousarray(np.argsort(X[:, continuous], axis=0, kind="stable").T)
        self.order = order.ravel()
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n), axis=1)
        self.rank = rank.ravel()
        self.xs = np.take_along_axis(X[:, continuous].T, order, axis=1).ravel()

        binary = np.flatnonzero(two)
        self.binary = np.full(X.shape[1], -1, dtype=np.intp)
        self.binary[binary] = np.arange(binary.size)
        self.binary_threshold = _threshold(low[binary], high[binary])
        is_rare = is_low[:, binary]
        self.rare_left = 2 * is_rare.sum(axis=0) <= n
        is_rare = is_rare == self.rare_left
        row, column = is_rare.nonzero()                 # row-major: columns ascending
        m = is_rare.sum(axis=1)                         # rare entries per row
        self.rare_pad = np.full((n, m.max(initial=0)), binary.size, dtype=np.intp)
        self.rare_pad[row, np.arange(row.size) - (m.cumsum() - m)[row]] = column


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
    all); sample counts are sums of these weights. ``y`` holds the targets of
    the rows, either one for all trees, shape (n,), or one per tree, shape
    (n_trees, n), where tree t reads only ``y[t]``. ``columns`` is
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
    # w, yw and wy are looked up by sample, and so is ``target`` when each tree
    # has its own (else by row).
    per_tree = np.ndim(y) == 2
    target = np.ravel(y)
    w = weights.ravel()
    # Weighted target and weight in one number, so one running sum adds up
    # both; yw is a view of the real part, not an array of its own.
    wy = np.empty(w.size, dtype=complex)
    wy.real = (weights * y).ravel()
    wy.imag = w
    yw = wy.real
    # The rows of the current level's nodes' samples, grouped by node; nodes
    # are in tree order.
    rows = np.nonzero(weights)[1]
    count = np.count_nonzero(weights, axis=1)   # samples per node
    tree_of = np.arange(n_trees)                 # tree per node

    levels = []
    while True:
        depth = len(levels)
        start = count.cumsum() - count
        samples = (tree_of * n).repeat(count) + rows
        n_w = np.add.reduceat(w[samples], start)
        total = np.add.reduceat(yw[samples], start)
        own = target[samples if per_tree else rows]   # each sample's own target
        y_min = np.minimum.reduceat(own, start)
        pure = y_min == np.maximum.reduceat(own, start)
        level = {"tree": tree_of, "n_samples": n_w.astype(np.int32, copy=False),
                 "feature": np.full(count.size, -1, dtype=np.int32),
                 "threshold": np.full(count.size, np.inf),
                 "value": np.where(pure, y_min, total / n_w),
                 "split": np.zeros(count.size, dtype=bool)}
        levels.append(level)
        nodes = (~pure & (n_w >= 2 * min_leaf) & (depth < max_depth)).nonzero()[0]
        if nodes.size:
            drawn = (pool[_draw_features(rngs, tree_of[nodes], pool.size, mtry)] if draw
                     else np.tile(pool, (nodes.size, 1)))
            paths = []
            pos, col = (columns.slot[drawn] >= 0).nonzero()
            if pos.size:
                c_node, c_feature = nodes[pos], drawn[pos, col]
                # Whole trees at a time, so the arrays over candidate samples stay small.
                parts = [_best_splits(columns, wy, rows, c_node[group], c_feature[group], start,
                                      count, n_w, total, tree_of, min_leaf)
                         for group in _tree_groups(tree_of[c_node], count[c_node])]
                paths.append([np.concatenate(a) for a in zip(*parts)])
            binary = columns.binary[drawn]
            pos, col = (binary >= 0).nonzero()
            if pos.size:
                paths.append(_binary_splits(columns, w, yw, rows, samples, count, nodes[pos],
                                            binary[pos, col], drawn[pos, col], n_w, total,
                                            min_leaf))
            nodes, feature, threshold = _pick_splits(paths, n_w, total, min_gain)
        if not nodes.size:
            break
        level["split"][nodes] = True
        level["feature"][nodes] = feature
        level["threshold"][nodes] = threshold
        level["value"][nodes] = 0.0
        rows, count = _partition(X, rows, count, level["split"], feature, threshold)
        tree_of = tree_of[nodes].repeat(2)
    return _assemble(levels)


def _draw_features(rngs, node_tree: np.ndarray, n_feat: int, mtry: int) -> np.ndarray:
    """Candidate pool positions of each open node, ascending, shape (nodes, mtry).

    Tree t draws for all its open nodes of the level from ``rngs[t]``: the
    first mtry entries of a uniform random permutation of the pool per node.
    """
    first = _run_starts(node_tree)
    keys = np.concatenate([rngs[t].random((m, n_feat)) for t, m in
                           zip(node_tree[first].tolist(),
                               _run_lengths(first, node_tree.size).tolist())])
    drawn = keys.argsort(axis=1)[:, :mtry]
    drawn.sort(axis=1)
    return drawn


def _pick_splits(paths, n_w, total, min_gain):
    """The nodes that split, ascending, with their feature and threshold.

    Each path gives at most one best split per node, as (node, score,
    feature, threshold) arrays ascending by node. Of a node's splits the
    higher score wins, on equal scores the lower feature; the winner is
    taken when its gain exceeds min_gain.
    """
    if not paths:
        return (np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)
    node, score, feature, threshold = (np.concatenate(a) for a in zip(*paths))
    if len(paths) > 1 and node.size:
        order = np.lexsort((feature, node))
        pick = order[_first_best(node[order], score[order])]
        node, score, feature, threshold = node[pick], score[pick], feature[pick], threshold[pick]
    keep = score - total[node] ** 2 / n_w[node] > min_gain
    return node[keep], feature[keep], threshold[keep]


def _best_splits(columns: SortedColumns, wy, rows, c_node, c_feature, start, count, n_w, total,
                 tree_of, min_leaf):
    """Each node's best split over its continuous candidates: (node, score, feature, threshold).

    A candidate is an (open node, feature) pair; ``c_node`` and
    ``c_feature`` list them node-major with features ascending. One sort of
    (candidate, rank in the feature) keys lays each candidate out as its
    node's samples in ascending order of its feature. Every position is
    scored as a split after it, -inf where it is not admissible; a node's
    candidates are contiguous, so its best score over its positions, and
    the first position holding it, give its first best split, its lowest
    feature's lowest threshold. Only the winners are mapped back to their
    candidates. Arrays over all
    candidate samples set the grower's peak memory, so few of them live at
    once.
    """
    n = columns.n
    c_slot = columns.slot[c_feature]
    c_count = count[c_node]
    c_start = c_count.cumsum() - c_count

    def each_sample(per_candidate):
        return per_candidate.repeat(c_count)

    key = rows[np.arange(c_start[-1] + c_count[-1]) + each_sample(start[c_node] - c_start)]
    key += each_sample(c_slot * n)
    key = columns.rank[key]
    key += each_sample(np.arange(c_slot.size) * n)
    key.sort()
    key += each_sample((c_slot - np.arange(c_slot.size)) * n)        # place in sorted columns
    x = columns.xs[key]
    key = columns.order[key]
    key += each_sample(tree_of[c_node] * n)                          # sample number
    running = wy[key]
    del key
    before = _running_sums(running, c_start, tree_of[c_node])
    k = running.imag - each_sample(before.imag)
    left = running.real - each_sample(before.real)
    del running

    # A split after position i leaves k samples, of targets summing to left,
    # on the left, and n_right on the right. It needs x to rise to position
    # i + 1 and both sides to keep min_leaf samples; a candidate's last
    # position keeps none on the right.
    n_right = each_sample(n_w[c_node].astype(float))
    n_right -= k
    ok = np.empty(x.size, dtype=bool)
    np.greater(x[1:], x[:-1], out=ok[:-1])
    ok[-1] = False
    ok &= k >= min_leaf
    ok &= n_right >= min_leaf
    with np.errstate(divide="ignore", invalid="ignore"):
        score = _score(left, k, each_sample(total[c_node]), n_right)
    score[~ok] = -np.inf
    del k, n_right, ok
    # A node's candidates, hence its positions, are contiguous; a node whose
    # best score is -inf has no admissible split.
    pick = _first_best_in_runs(c_start[_run_starts(c_node)], score)
    pick = pick[score[pick] > -np.inf]
    c_pick = c_start.searchsorted(pick, side="right") - 1
    return (c_node[c_pick], score[pick], c_feature[c_pick],
            _threshold(x[pick], x[pick + 1]))


def _binary_splits(columns: SortedColumns, w, yw, rows, samples, count, c_node, b, c_feature,
                   n_w, total, min_leaf):
    """Each node's best split over its binary candidates: (node, score, feature, threshold).

    Candidate i is binary column ``b[i]`` (feature ``c_feature[i]``) at node
    ``c_node[i]``, listed node-major with features ascending. Two bincounts
    over the level's samples' padded rare entries, keyed by (node, binary
    column), give every node's weight and weighted target sum on each binary
    column's rarer value, in sample order and with no sort; padding falls
    in a node's sentinel cell, which no candidate reads. The other value's
    sums follow from the node's totals. A binary column's one split sends
    its lower value left.
    """
    cells = columns.binary_threshold.size + 1          # per node: binary columns, sentinel
    width = columns.rare_pad.shape[1]
    # take copies each row as one chunk of width entries, several times
    # faster than fancy indexing's entry-by-entry 2-d gather
    key = columns.rare_pad.take(rows, axis=0)
    key += (np.arange(count.size) * cells).repeat(count)[:, None]
    key = key.ravel()
    cell = c_node * cells + b
    k = np.bincount(key, w[samples].repeat(width), count.size * cells)[cell]
    left = np.bincount(key, yw[samples].repeat(width), count.size * cells)[cell]

    n_c, node_total = n_w[c_node], total[c_node]
    rare_right = ~columns.rare_left[b]
    k = np.where(rare_right, n_c - k, k)
    left = np.where(rare_right, node_total - left, left)
    n_right = n_c - k
    keep = (k >= min_leaf) & (n_right >= min_leaf)
    node, k, left, n_right, node_total, feature, b = (
        a[keep] for a in (c_node, k, left, n_right, node_total, c_feature, b))
    if not node.size:
        return node, k, feature, k   # no node splits
    score = _score(left, k, node_total, n_right)
    pick = _first_best(node, score)
    return node[pick], score[pick], feature[pick], columns.binary_threshold[b[pick]]


def _score(left, k, total, n_right):
    """SSE reduction of a split, up to the node's constant total^2 / n.

    That is left * left / k + right * right / n_right, where right = total -
    left, computed in place: the score is returned in ``left``'s array, and
    ``total``'s is overwritten.
    """
    right = total
    right -= left
    right *= right
    right /= n_right
    left *= left
    left /= k
    left += right
    return left


def _threshold(v1, v2):
    """Midpoint of the values either side of a split; v1 when it rounds up to v2."""
    mid = 0.5 * (v1 + v2)
    return np.where(mid >= v2, v1, mid)


def _first_best(key, score):
    """Index of the first highest score in each run of equal ``key`` values."""
    return _first_best_in_runs(_run_starts(key), score)


def _first_best_in_runs(first, score):
    """Index of the first highest score in each run of ``score`` starting at ``first``."""
    best = np.maximum.reduceat(score, first)
    hits = (score == best.repeat(_run_lengths(first, score.size))).nonzero()[0]
    # Each run holds its best score, so its first hit is the first at or after its start.
    return hits[hits.searchsorted(first)]


def _running_sums(values: np.ndarray, seg_start: np.ndarray, seg_tree: np.ndarray):
    """Turn ``values`` into running sums in place; return the sum before each segment.

    Segments are grouped by tree, and each tree's values are summed on their
    own, so no tree's running sum passes through another tree's values;
    subtracting a segment's "before" value restarts the sum at the segment.
    """
    tree_first = _run_starts(seg_tree)
    bounds = seg_start[tree_first].tolist() + [values.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = values[lo:hi]
        part.cumsum(out=part)
    before = values[seg_start - 1]
    before[tree_first] = 0.0
    return before


def _tree_groups(c_tree: np.ndarray, c_samples: np.ndarray) -> list[slice]:
    """Runs of whole trees' candidates, each of about SCORE_SAMPLES candidate samples."""
    if c_samples.sum() <= SCORE_SAMPLES:
        return [slice(0, c_tree.size)]   # the one run the cuts below would make
    first = _run_starts(c_tree)
    size = np.add.reduceat(c_samples, first)
    cut = first[_run_starts((size.cumsum() - size) // SCORE_SAMPLES)].tolist()
    return [slice(a, b) for a, b in zip(cut, cut[1:] + [c_tree.size])]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Index at which each run of equal values in the nonempty ``a`` starts."""
    starts = np.empty(a.size, dtype=bool)
    starts[0] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts.nonzero()[0]


def _run_lengths(first: np.ndarray, size: int) -> np.ndarray:
    """Length of each run, from the runs' starts and the total length."""
    return np.concatenate((first[1:], [size])) - first


def _partition(X: np.ndarray, rows, count, split, feature, threshold):
    """Sample rows of the split nodes' children, in level order, and their counts.

    Each split node's samples are divided stably into its left then its
    right child.
    """
    rows = rows[split.repeat(count)]
    count = count[split]
    node = np.arange(count.size).repeat(count)
    goes_right = X[rows, feature[node]] > threshold[node]
    # A stable sort of (node, side) keys; 16-bit keys take numpy's radix sort.
    key = (2 * node + goes_right).astype(np.uint16 if count.size < 2 ** 15 else np.intp)
    rows = rows[key.argsort(kind="stable")]
    n_right = np.add.reduceat(goes_right, count.cumsum() - count)
    children = np.empty(2 * count.size, dtype=count.dtype)
    children[0::2] = count - n_right
    children[1::2] = n_right
    return rows, children


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
    child = np.zeros(order.size, dtype=np.int32)
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
