"""Independent reference implementations used to check the fast paths."""

import math

import numpy as np

from driftmon.forecasters import soft_threshold
from driftmon.stats import bic, gaussian_segment_cost


def optimal_partition(values, penalty, min_seg_len=2):
    """Exhaustive-search reference: quadratic DP over every admissible split.

    Independent of the monitor's search: it costs each slice on its own and
    shares only the segment cost function, not the history's prefix sums,
    its cost cache or a resumed search, which are what could be wrong.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    F = [math.inf] * (n + 1)
    F[0] = -penalty
    prev = [0] * (n + 1)
    for s in range(min_seg_len, n + 1):
        for tau in range(0, s - min_seg_len + 1):
            if 0 < tau < min_seg_len:
                continue
            if not math.isfinite(F[tau]):
                continue
            total = F[tau] + gaussian_segment_cost(x[tau:s]) + penalty
            if total < F[s]:
                F[s] = total
                prev[s] = tau
    cps = []
    t = n
    while t > 0:
        tau = prev[t]
        if tau > 0:
            cps.append(tau)
        t = tau
    return sorted(cps), F[n]


def enumerate_segmentations(values, penalty, min_seg_len=2):
    """Literal enumeration of every admissible changepoint set (small n only).

    Costs are folded left to right exactly like the DP recurrence so agreeing
    segmentations agree bit for bit.
    """
    from itertools import combinations

    x = np.asarray(values, dtype=float)
    n = x.size
    best_cps, best_cost = None, math.inf
    positions = range(min_seg_len, n - min_seg_len + 1)
    for size in range(0, n // min_seg_len):
        for cps in combinations(positions, size):
            bounds = [0, *cps, n]
            if any(b - a < min_seg_len for a, b in zip(bounds, bounds[1:])):
                continue
            cost = -penalty
            for a, b in zip(bounds, bounds[1:]):
                cost = cost + gaussian_segment_cost(x[a:b]) + penalty
            if cost < best_cost:
                best_cost = cost
                best_cps = list(cps)
    return best_cps, best_cost


def reference_tree(X, y, weights, min_leaf=1, max_depth=None, min_gain=0.0):
    """Plain recursive CART with row weights, one node and one feature at a time.

    Every feature is a candidate at every node. A split after sorted position
    i is admissible when the feature value rises to position i + 1 and both
    sides keep min_leaf weight; its score is L^2/k + R^2/(n-k) over weighted
    sums, the first best (lowest feature, then lowest threshold) wins, and it
    is taken when its SSE reduction exceeds min_gain. The threshold is the
    midpoint of the two values, or the left value when the midpoint rounds up
    to the right one. Returns nested tuples: ``("leaf", value, n)`` or
    ``("split", feature, threshold, n, left, right)``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights)

    def grow(rows, depth):
        w = weights[rows]
        n = int(w.sum())
        total = float(np.sum(w * y[rows]))
        values = y[rows]
        pure = values.min() == values.max()
        if pure or n < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
            return ("leaf", float(values[0]) if pure else total / n, n)
        best = None
        for f in range(X.shape[1]):
            order = rows[np.argsort(X[rows, f], kind="stable")]
            k, left = 0, 0.0
            for i in range(order.size - 1):
                k += int(weights[order[i]])
                left += float(weights[order[i]] * y[order[i]])
                v1, v2 = X[order[i], f], X[order[i + 1], f]
                if v2 <= v1 or k < min_leaf or n - k < min_leaf:
                    continue
                score = left * left / k + (total - left) * (total - left) / (n - k)
                if best is None or score > best[0]:
                    best = (score, f, v1, v2)
        if best is None or best[0] - total * total / n <= min_gain:
            return ("leaf", total / n, n)
        _, f, v1, v2 = best
        threshold = 0.5 * (v1 + v2)
        if threshold >= v2:
            threshold = v1
        goes_left = X[rows, f] <= threshold
        return ("split", f, threshold, n, grow(rows[goes_left], depth + 1),
                grow(rows[~goes_left], depth + 1))

    return grow(np.flatnonzero(weights > 0), 0)


def reference_lasso(X, y, n_lambda=100, lambda_min_ratio=1e-3, tol=1e-9, max_iter=10_000):
    """Lasso path by cyclic coordinate descent over the rows, tuned by BIC.

    X's varying columns are centered and scaled to unit second moment and y
    is centered. Down the geometric grid from lambda_max = max_j |<x_j, y_c>| / n
    to lambda_max * lambda_min_ratio, each point starts from the previous
    solution and updates one coordinate at a time by a soft-threshold step on
    its correlation with the explicit residual, until a sweep moves no slope
    by more than tol * (1 + max |beta|) or after max_iter sweeps. Returns the
    BIC-selected penalty and, per grid point, (lambda, intercept, slopes) on
    the original scale.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    x_mean = X.mean(axis=0)
    sd = np.sqrt(((X - x_mean) ** 2).mean(axis=0))
    keep = np.flatnonzero(sd > 1e-12)
    Xs = (X[:, keep] - x_mean[keep]) / sd[keep]
    yc = y - y.mean()
    lam_max = float(np.max(np.abs(Xs.T @ yc)) / n)
    grid = lam_max * np.power(lambda_min_ratio, np.linspace(0.0, 1.0, n_lambda))

    beta = np.zeros(keep.size)
    residual = yc.copy()
    path, best = [], None
    for lam in grid:
        for _ in range(max_iter):
            max_step = 0.0
            for j in range(keep.size):
                old = beta[j]
                new = soft_threshold(old + float(Xs[:, j] @ residual) / n, lam)
                if new != old:
                    residual -= (new - old) * Xs[:, j]
                    beta[j] = new
                    max_step = max(max_step, abs(new - old))
            if max_step <= tol * (1.0 + float(np.max(np.abs(beta)))):
                break
        slopes = np.zeros(p)
        slopes[keep] = beta / sd[keep]
        path.append((float(lam), float(y.mean() - slopes @ x_mean), slopes))
        score = bic(float(residual @ residual), n, int(np.count_nonzero(beta)) + 1)
        if best is None or score < best[0]:
            best = (score, float(lam))
    return best[1], path
