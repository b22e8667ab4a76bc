"""L1-penalized least squares solved exactly on the Gram matrix, tuned by BIC.

The solver works on standardized predictors Xs (centered, unit second
moment) with a centered response yc. The penalty convention is the one under
which optimality reads (1/n) <x_j, r> = lambda * sign(beta_j) for active
coordinates and |(1/n) <x_j, r>| <= lambda for inactive ones; lambda_max, the
smallest penalty with an all-zero slope vector, is therefore
max_j |(1/n) <x_j, y_c>|.

With G = Xs'Xs / n and c = Xs'yc / n the objective is b'Gb/2 - c'b +
lambda |b|_1 plus a constant, so after one pass over the rows the path needs
only the p x p Gram matrix. On an active set A with signs s the solution is
the linear solve G_AA b_A = c_A - lambda s_A. The solver keeps the inverse of
the Cholesky factor of G_AA, which grows by one row per entering column, so
a solve is two matrix-vector products. Each grid point starts from the
previous point's active set and signs (``_ActiveSet.solve``) and repeats:

- solve on A; if a coefficient would change sign, move to its zero crossing
  and drop it (the lasso drop step of LARS, Efron et al. 2004);
- otherwise add the inactive column with the largest correlation excess
  |g_j| - lambda, where g = c - G b, while that excess is above
  ``tol * lambda_max``.

Rank deficiency (duplicate or dependent columns, p >= n) is caught by the
pivot of the Cholesky update: a column whose residual after projection onto
the active columns is at most ``tol`` is not added, so the active Gram stays
nonsingular. Such a column lies in the span of A, and it violates optimality
only when trading it for active columns lowers |b|_1 at an unchanged fit. It
then swaps in: the trade runs until an active coefficient reaches zero, and
that column leaves (``_ActiveSet._swap``). The KKT slack is checked at every
grid point, and a slack above ``tol * lambda_max`` is polished by
covariance-update coordinate descent on G (Friedman, Hastie & Tibshirani
2010), at most ``max_iter`` sweeps. Measuring the slack in units of
lambda_max keeps the solver's steps independent of the scale of y.

A geometric grid runs from lambda_max down to lambda_max * lambda_min_ratio,
and the reported fit minimizes BIC = n log(RSS/n) + k log(n) with
k = active slopes + 1, RSS taken from the explicit residual and floored at
1e-12 of the centred response's sum of squares, so that the selected lambda
scales with y. The intercept is never penalized: it is recovered from the
column means after de-scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InsufficientData
from ..stats import bic

ZERO_SD = 1e-12
# Active-set steps (adds, drops, swaps) allowed per column at one penalty
# before the coordinate-descent polish takes over.
STEPS_PER_COLUMN = 4


@dataclass(frozen=True)
class LassoFit:
    """De-standardized solution with its selection metadata."""

    intercept: float
    slopes: np.ndarray          # original predictor scale, length p
    lam: float                  # penalty of the selected grid point
    bic: float
    rss: float
    lambda_grid: np.ndarray
    n_nonzero_path: np.ndarray  # active slopes at each grid point
    path: tuple | None = None   # (lam, intercept, slopes) per grid point when kept


def soft_threshold(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def _kkt_slack(g: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Worst optimality violation of ``beta`` given its correlations g = c - G beta."""
    on = beta != 0.0
    return float(np.max(np.where(on, np.abs(g - lam * np.sign(beta)), np.abs(g) - lam)))


def _polish(G: np.ndarray, c: np.ndarray, lam: float, beta: np.ndarray,
            tol: float, max_iter: int) -> None:
    """Cyclic coordinate descent on (G, c) in place on beta, keeping g = c - G beta
    current, until the KKT slack is at most tol, a sweep changes nothing, or
    after max_iter sweeps."""
    g = c - G @ beta
    for _ in range(max_iter):
        moved = False
        for j in range(beta.size):
            new = soft_threshold(g[j] + G[j, j] * beta[j], lam) / G[j, j]
            if new != beta[j]:
                g -= (new - beta[j]) * G[:, j]
                beta[j] = new
                moved = True
        if not moved or _kkt_slack(g, beta, lam) <= tol:
            return


class _ActiveSet:
    """Active columns, their signs and the inverse Cholesky factor of their
    Gram block, carried from one penalty to the next."""

    def __init__(self, G: np.ndarray, c: np.ndarray, tol: float, max_iter: int):
        self.G, self.c, self.tol, self.max_iter = G, c, tol, max_iter
        # KKT slack counts in units of lambda_max = max |c|, so that it does
        # not depend on the scale of y; pivots are scale-free already.
        self.kkt_tol = tol * float(np.max(np.abs(c)))
        self.beta = np.zeros(c.size)
        self.active: list[int] = []
        self.signs = np.zeros(0)
        # R = L^-1 for the lower Cholesky factor L of G[A, A], so that
        # G[A, A]^-1 v = R'(R v) takes two matrix-vector products
        self.inv_chol = np.zeros((0, 0))

    def _project(self, j: int) -> tuple[np.ndarray, float]:
        """(w, d): w = L^-1 G[A, j] and the residual d = G_jj - w'w of column j
        after projection onto the active columns."""
        w = self.inv_chol @ self.G[self.active, j]
        return w, float(self.G[j, j] - w @ w)

    def _enter(self, j: int, sign: float) -> bool:
        """Add column j unless its pivot is at most tol; True when it entered."""
        w, d = self._project(j)
        if d <= self.tol:
            return False
        self._append(j, sign, w, d)
        return True

    def _append(self, j: int, sign: float, w: np.ndarray, d: float) -> None:
        """Extend A by column j: L gains the row (w', sqrt(d)), so R gains
        (-w'R, 1) / sqrt(d)."""
        k = len(self.active)
        root = np.sqrt(d)
        inv_chol = np.zeros((k + 1, k + 1))
        inv_chol[:k, :k] = self.inv_chol
        inv_chol[k, :k] = -(w @ self.inv_chol) / root
        inv_chol[k, k] = 1.0 / root
        self.inv_chol = inv_chol
        self.active.append(j)
        self.signs = np.append(self.signs, sign)

    def _leave(self, positions: np.ndarray) -> None:
        """Drop the active columns at ``positions`` (a mask over A), zero them,
        and refactor the rest in order; a column's pivot only grows when an
        earlier column leaves."""
        self.beta[np.asarray(self.active)[positions]] = 0.0
        kept = [(j, s) for j, s, out in zip(self.active, self.signs, positions) if not out]
        self.active, self.signs, self.inv_chol = [], np.zeros(0), np.zeros((0, 0))
        for j, sign in kept:
            self._append(j, sign, *self._project(j))

    def _swap(self, j: int, w: np.ndarray, sign: float) -> bool:
        """Bring in column j, which lies in the span of A, at an unchanged fit.

        Column j equals X_A u with u = G_AA^-1 G[A, j], so raising b_j by
        sign * t while b_A falls by sign * t * u keeps the fit; |b|_1 falls
        while sign * u's_A > 1, which is |g_j| > lambda. The step ends where
        the first active coefficient reaches zero, and that column leaves.
        """
        A = self.active
        rate = -sign * (w @ self.inv_chol)
        cur = self.beta[A]
        closing = cur * rate < 0.0
        if not closing.any():
            return False
        t = np.full(len(A), np.inf)
        t[closing] = -cur[closing] / rate[closing]
        step = float(t.min())
        self.beta[A] = cur + step * rate
        self.beta[j] = sign * step
        self._leave(t == step)
        return self._enter(j, sign)

    def solve(self, lam: float) -> np.ndarray:
        """The solution at penalty ``lam``, warm-started from the current state."""
        G, c, tol = self.G, self.c, self.tol
        for _ in range(STEPS_PER_COLUMN * c.size + 1):
            A = self.active
            if A:
                target = (self.inv_chol @ (c[A] - lam * self.signs)) @ self.inv_chol
                cur = self.beta[A]
                flips = target * self.signs <= 0.0
                # At lam = 0 signs carry no penalty, so none needs to hold.
                if lam > 0.0 and flips.any():
                    # first zero crossing on the segment cur -> target
                    gap = cur - target
                    t = np.full(len(A), np.inf)
                    t[flips] = np.divide(cur[flips], gap[flips], out=np.zeros(int(flips.sum())),
                                         where=gap[flips] != 0.0)
                    step = float(t.min())
                    self.beta[A] = cur + step * (target - cur)
                    self._leave(t == step)
                    continue
                self.beta[A] = target
            g = c - G @ self.beta
            excess = np.abs(g) - lam
            excess[A] = -np.inf
            j = int(np.argmax(excess))
            if excess[j] <= self.kkt_tol:
                break
            sign = float(np.sign(g[j]))
            w, d = self._project(j)
            if d > tol:
                self._append(j, sign, w, d)
            elif lam == 0.0 or not self._swap(j, w, sign):
                break
        beta = self.beta.copy()
        if _kkt_slack(c - G @ beta, beta, lam) > self.kkt_tol:
            _polish(G, c, lam, beta, self.kkt_tol, self.max_iter)
            self._restart(beta)
        return beta

    def _restart(self, beta: np.ndarray) -> None:
        """Rebuild the state on the largest coefficients of ``beta`` whose columns
        pass the pivot check."""
        self.beta = np.zeros_like(beta)
        self.active, self.signs, self.inv_chol = [], np.zeros(0), np.zeros((0, 0))
        for j in np.argsort(-np.abs(beta), kind="stable"):
            if beta[j] != 0.0 and self._enter(int(j), float(np.sign(beta[j]))):
                self.beta[j] = beta[j]


class Gram:
    """X's part of a lasso fit, which fits on one X with other targets share.

    ``Xs`` holds X's varying columns (``keep``) centered on ``x_mean`` and
    scaled by ``sd`` to unit second moment, ``G = Xs'Xs / n`` their Gram
    matrix, formed on first use.
    """

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=float)
        if X.shape[0] < 2:
            raise InsufficientData(f"lasso needs n >= 2 rows, got {X.shape[0]}")
        self.x_mean = X.mean(axis=0)
        Xc = X - self.x_mean
        self.sd = np.sqrt(np.mean(Xc * Xc, axis=0))
        self.keep = self.sd > ZERO_SD
        # contiguous columns for the per-column products
        self.Xs = np.asfortranarray(Xc[:, self.keep] / self.sd[self.keep])

    @cached_property
    def G(self) -> np.ndarray:
        return _gram_matrix(self.Xs)

    def center(self, y: np.ndarray):
        """(yc, destandardize): y centered, and the map from Xs slopes to
        (intercept, slopes) on X's scale."""
        y = np.asarray(y, dtype=float)
        y_mean = float(y.mean())

        def destandardize(beta_std: np.ndarray) -> tuple[float, np.ndarray]:
            slopes = np.zeros(self.keep.size)
            slopes[self.keep] = beta_std / self.sd[self.keep]
            return y_mean - float(slopes @ self.x_mean), slopes

        return y - y_mean, destandardize


def _standardize(X: np.ndarray, y: np.ndarray):
    """(Xs, yc, destandardize) of ``Gram(X)`` and y."""
    gram = Gram(X)
    return (gram.Xs, *gram.center(y))


def _gram_matrix(Xs: np.ndarray) -> np.ndarray:
    """Xs'Xs / n, one column at a time: a single matrix product would page in
    BLAS work buffers that stay resident and lift a model-fits run's peak
    memory by 0.2-0.3 MB."""
    return np.column_stack([Xs.T @ Xs[:, j] for j in range(Xs.shape[1])]) / Xs.shape[0]


def _gram(Xs: np.ndarray, yc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, c) = (Xs'Xs / n, Xs'yc / n)."""
    return _gram_matrix(Xs), Xs.T @ yc / Xs.shape[0]


def lasso_path(X: np.ndarray, y: np.ndarray, n_lambda: int = 100,
               lambda_min_ratio: float = 1e-3, tol: float = 1e-9,
               max_iter: int = 10_000, keep_path: bool = False,
               gram: Gram | None = None) -> LassoFit:
    """Fit the full grid and return the BIC-selected solution.

    ``gram`` is ``Gram(X)``, made here when not given; fits on one X share
    it, and only c = Xs'yc / n is formed per fit.
    """
    if gram is None:
        gram = Gram(X)
    Xs = gram.Xs
    yc, destandardize = gram.center(y)
    n, p_kept = Xs.shape
    tss = float(yc @ yc)
    floor_scale = tss or 1.0  # the BIC floor on RSS is relative to it
    if p_kept == 0:
        return LassoFit(*destandardize(np.zeros(0)), lam=0.0, bic=bic(tss, n, 1, floor_scale),
                        rss=tss, lambda_grid=np.array([0.0]), n_nonzero_path=np.array([0]))

    G, c = gram.G, Xs.T @ yc / n
    lam_max = float(np.max(np.abs(c)))
    if lam_max <= 0.0:
        grid = np.array([0.0])
    else:
        grid = lam_max * np.power(lambda_min_ratio, np.linspace(0.0, 1.0, n_lambda))

    state = _ActiveSet(G, c, tol, max_iter)
    best = None
    grid_nonzero = np.zeros(grid.size, dtype=int)
    path = [] if keep_path else None
    for i, lam in enumerate(grid):
        beta = state.solve(float(lam))
        residual = yc - Xs @ beta
        rss = float(residual @ residual)
        k = int(np.count_nonzero(beta)) + 1
        grid_nonzero[i] = k - 1
        score = bic(rss, n, k, floor_scale)
        if path is not None:
            path.append((float(lam), *destandardize(beta)))
        if best is None or score < best[0]:
            best = (score, lam, beta, rss)
    score, lam, beta_sel, rss = best

    intercept, slopes = destandardize(beta_sel)
    return LassoFit(intercept=intercept, slopes=slopes, lam=float(lam),
                    bic=score, rss=rss, lambda_grid=grid,
                    n_nonzero_path=grid_nonzero,
                    path=tuple(path) if path is not None else None)


def fit_at_lambda(X: np.ndarray, y: np.ndarray, lam: float,
                  tol: float = 1e-11, max_iter: int = 100_000) -> tuple[float, np.ndarray]:
    """Single-penalty fit (lam=0 gives ordinary least squares on full-rank X)."""
    Xs, yc, destandardize = _standardize(X, y)
    if not Xs.shape[1]:
        return destandardize(np.zeros(0))
    return destandardize(_ActiveSet(*_gram(Xs, yc), tol, max_iter).solve(float(lam)))
