"""L1-penalized least squares by coordinate descent, tuned by BIC.

The solver works on standardized predictors (centered, unit second moment)
with a centered response, so the update for one coordinate is a plain
soft-threshold step. The penalty convention is the one under which optimality
reads (1/n) <x_j, r> = lambda * sign(beta_j) for active coordinates and
|(1/n) <x_j, r>| <= lambda for inactive ones; lambda_max, the smallest
penalty with an all-zero slope vector, is therefore max_j |(1/n) <x_j, y_c>|.

A geometric grid runs from lambda_max down to lambda_max * lambda_min_ratio,
solutions warm-started along the way, and the reported fit minimizes
BIC = n log(RSS/n) + k log(n) with k = active slopes + 1. The intercept is
never penalized: it is recovered from the column means after de-scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientData
from ..stats import bic

ZERO_SD = 1e-12


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


def coordinate_descent(Xs: np.ndarray, yc: np.ndarray, lam: float,
                       beta: np.ndarray, residual: np.ndarray,
                       tol: float, max_iter: int) -> int:
    """Cyclic coordinate descent in place on (beta, residual).

    Xs columns must be standardized to (1/n) sum x^2 = 1 and residual must
    equal yc - Xs @ beta on entry. Returns the sweep count used.
    """
    n, p = Xs.shape
    for sweep in range(1, max_iter + 1):
        max_step = 0.0
        for j in range(p):
            old = beta[j]
            xj = Xs[:, j]
            z = old + float(xj @ residual) / n
            new = soft_threshold(z, lam)
            if new != old:
                residual -= (new - old) * xj
                beta[j] = new
                max_step = max(max_step, abs(new - old))
        if max_step <= tol * (1.0 + float(np.max(np.abs(beta)))):
            return sweep
    return max_iter


def _standardize(X: np.ndarray, y: np.ndarray):
    """(Xs, yc, destandardize): X's varying columns centered and scaled to unit
    second moment, y centered, and the map from Xs slopes to (intercept, slopes)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 2:
        raise InsufficientData(f"lasso needs n >= 2 rows, got {X.shape[0]}")
    x_mean = X.mean(axis=0)
    Xc = X - x_mean
    sd = np.sqrt(np.mean(Xc * Xc, axis=0))
    keep = sd > ZERO_SD
    y_mean = float(y.mean())

    def destandardize(beta_std: np.ndarray) -> tuple[float, np.ndarray]:
        slopes = np.zeros(X.shape[1])
        slopes[keep] = beta_std / sd[keep]
        return y_mean - float(slopes @ x_mean), slopes

    # contiguous columns for the dots
    return np.asfortranarray(Xc[:, keep] / sd[keep]), y - y_mean, destandardize


def lasso_path(X: np.ndarray, y: np.ndarray, n_lambda: int = 100,
               lambda_min_ratio: float = 1e-3, tol: float = 1e-9,
               max_iter: int = 10_000, keep_path: bool = False) -> LassoFit:
    """Fit the full grid and return the BIC-selected solution."""
    Xs, yc, destandardize = _standardize(X, y)
    n, p_kept = Xs.shape
    if p_kept == 0:
        rss = float(yc @ yc)
        return LassoFit(*destandardize(np.zeros(0)), lam=0.0, bic=bic(rss, n, 1), rss=rss,
                        lambda_grid=np.array([0.0]), n_nonzero_path=np.array([0]))

    lam_max = float(np.max(np.abs(Xs.T @ yc)) / n)
    if lam_max <= 0.0:
        grid = np.array([0.0])
    else:
        grid = lam_max * np.power(lambda_min_ratio, np.linspace(0.0, 1.0, n_lambda))

    beta = np.zeros(p_kept)
    residual = yc.copy()
    best = None
    grid_nonzero = np.zeros(grid.size, dtype=int)
    path = [] if keep_path else None
    for i, lam in enumerate(grid):
        coordinate_descent(Xs, yc, lam, beta, residual, tol, max_iter)
        rss = float(residual @ residual)
        k = int(np.count_nonzero(beta)) + 1
        grid_nonzero[i] = k - 1
        score = bic(rss, n, k)
        if path is not None:
            path.append((float(lam), *destandardize(beta)))
        if best is None or score < best[0]:
            best = (score, lam, beta.copy(), rss)
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
    beta = np.zeros(Xs.shape[1])
    if beta.size:
        coordinate_descent(Xs, yc, lam, beta, yc.copy(), tol, max_iter)
    return destandardize(beta)
