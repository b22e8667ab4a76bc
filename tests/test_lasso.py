import numpy as np
import pytest

from driftmon.errors import InsufficientData
from driftmon.features import FeatureSpec, training_set
from driftmon.forecasters import fit_at_lambda, lasso_path, soft_threshold
from driftmon.simulate import RegimeScenario, gen_regime_streams
from driftmon.stats import bic
from oracles import reference_lasso


def random_problem(seed, n=200, p=20, sparsity=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = np.zeros(p)
    beta[:sparsity] = rng.normal(size=sparsity) * 2
    y = X @ beta + rng.normal(size=n)
    return X, y


def standardized(X):
    Xc = X - X.mean(axis=0)
    sd = np.sqrt((Xc ** 2).mean(axis=0))
    return Xc / sd, sd


def kkt_violation(X, y, intercept, slopes, lam):
    """Worst KKT slack of a solution in the (1/n) <x, r> = lam convention."""
    n = X.shape[0]
    Xs, sd = standardized(X)
    residual = y - intercept - X @ slopes
    grad = Xs.T @ residual / n
    beta_std = slopes * sd
    worst = 0.0
    zero = beta_std == 0.0
    if zero.any():
        worst = max(worst, float(np.max(np.abs(grad[zero]))) - lam)
    if (~zero).any():
        active = grad[~zero] - lam * np.sign(beta_std[~zero])
        worst = max(worst, float(np.max(np.abs(active))))
    return worst


def test_lambda_max_gives_intercept_only():
    X, y = random_problem(0)
    fit = lasso_path(X, y, n_lambda=1)  # grid collapses to lambda_max
    assert np.all(fit.slopes == 0.0)
    assert fit.intercept == pytest.approx(y.mean(), rel=1e-12)


def test_lambda_zero_on_exact_line():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 1))
    y = 2.0 * x[:, 0]
    intercept, slopes = fit_at_lambda(x, y, 0.0)
    assert slopes[0] == pytest.approx(2.0, abs=1e-8)
    assert intercept == pytest.approx(0.0, abs=1e-8)


def test_single_predictor_matches_soft_threshold_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 1))
    y = 1.5 * x[:, 0] + rng.normal(size=100)
    Xs, sd = standardized(x)
    yc = y - y.mean()
    beta_ols = float(Xs[:, 0] @ yc) / 100
    for lam in (0.0, 0.1, 0.5, abs(beta_ols) * 1.1):
        intercept, slopes = fit_at_lambda(x, y, lam)
        expected = soft_threshold(beta_ols, lam) / sd[0]
        assert slopes[0] == pytest.approx(expected, abs=1e-9)


def test_kkt_on_seeded_problems():
    for seed in range(3):
        X, y = random_problem(seed)
        fit = lasso_path(X, y)
        assert kkt_violation(X, y, fit.intercept, fit.slopes, fit.lam) < 1e-6


def test_active_set_monotone_along_grid():
    # grid runs lambda_max -> small, so active counts may only grow
    for seed in range(10):
        X, y = random_problem(seed)
        fit = lasso_path(X, y)
        assert np.all(np.diff(fit.n_nonzero_path) >= 0)


def test_bic_selection_minimizes_over_grid():
    X, y = random_problem(11)
    n = X.shape[0]
    fit = lasso_path(X, y, keep_path=True)
    scores = []
    for lam, intercept, slopes in fit.path:
        residual = y - intercept - X @ slopes
        scores.append(bic(float(residual @ residual), n, int(np.count_nonzero(slopes)) + 1))
    assert fit.bic == pytest.approx(min(scores), rel=1e-12)
    assert fit.lam == fit.path[int(np.argmin(scores))][0]


def test_zero_variance_column_is_dropped():
    X, y = random_problem(3, p=5)
    X[:, 2] = 4.2
    fit = lasso_path(X, y)
    assert fit.slopes[2] == 0.0
    pred = fit.intercept + X @ fit.slopes
    assert np.all(np.isfinite(pred))


def test_all_constant_predictors():
    X = np.full((30, 3), 2.0)
    y = np.random.default_rng(4).normal(size=30)
    fit = lasso_path(X, y)
    assert np.all(fit.slopes == 0.0)
    assert fit.intercept == pytest.approx(y.mean())


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        lasso_path(np.zeros((1, 2)), np.zeros(1))


def test_soft_threshold():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0


def test_polish_reaches_the_active_set_solution():
    from driftmon.forecasters.lasso import _gram, _polish, _standardize

    X, y = random_problem(5)
    fit = lasso_path(X, y)
    Xs, yc, destandardize = _standardize(X, y)
    G, c = _gram(Xs, yc)
    beta = np.zeros(X.shape[1])
    _polish(G, c, fit.lam, beta, 1e-12, 10_000)
    intercept, slopes = destandardize(beta)
    assert kkt_violation(X, y, intercept, slopes, fit.lam) < 1e-9
    assert np.allclose(slopes, fit.slopes, rtol=0.0, atol=1e-8 * np.abs(fit.slopes).max())


def model_fits_like_design(seed):
    """The forecasters' own design on a two-stream panel: four correlated lag
    columns, the trend, and day-of-week and hour-of-day dummies."""
    panel = gen_regime_streams(RegimeScenario(n_streams=2, n_days=20, slots_per_day=60,
                                              noise_scale=1.0, seed=seed))
    data = training_set(panel, FeatureSpec(), 0, 19 * 60, 8)
    return data.X, data.y


@pytest.mark.parametrize("problem, ref_tol", [
    *[pytest.param(lambda seed=seed: random_problem(seed), 1e-12, id=f"seeded-{seed}")
      for seed in range(3)],
    pytest.param(lambda: model_fits_like_design(1), 1e-11, id="model-fits-like"),
])
def test_path_matches_reference_coordinate_descent(problem, ref_tol):
    X, y = problem()
    fit = lasso_path(X, y, keep_path=True)
    ref_lam, ref_path = reference_lasso(X, y, tol=ref_tol)
    assert fit.lam == ref_lam
    largest = max(np.abs(slopes).max() for _, _, slopes in ref_path)
    for (lam, _, slopes), (ref_at, _, ref_slopes) in zip(fit.path, ref_path, strict=True):
        assert lam == ref_at
        # relative to the larger slope vector, over a rounding floor for the
        # all-zero point at lambda_max
        scale = max(np.abs(slopes).max(), np.abs(ref_slopes).max())
        assert np.abs(slopes - ref_slopes).max() <= 1e-6 * scale + 1e-12 * largest


def degenerate_designs():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 6))
    X[:, 5] = X[:, 0]
    yield "duplicate column", X, 2.0 * X[:, 0] + X[:, 3] + rng.normal(size=80)
    X = rng.normal(size=(80, 6))
    X[:, 5] = X[:, 1] + X[:, 2]
    yield "sum of two columns", X, 1.5 * X[:, 5] + 0.3 * X[:, 1] + rng.normal(size=80)
    X = rng.normal(size=(80, 6))
    X[:, 4] = 3.0
    yield "constant column", X, X[:, 0] - X[:, 2] + rng.normal(size=80)
    X = rng.normal(size=(25, 30))
    yield "p > n", X, X[:, :5] @ rng.normal(size=5) + 0.5 * rng.normal(size=25)
    X = rng.normal(size=(11, 10))
    yield "n = p + 1", X, X[:, :3] @ rng.normal(size=3) + 0.5 * rng.normal(size=11)


def path_kkt(X, y, fit):
    varying = X.std(axis=0) > 0.0  # KKT concerns the columns the solver keeps
    return max(kkt_violation(X[:, varying], y, intercept, slopes[varying], lam)
               for lam, intercept, slopes in fit.path)


@pytest.mark.parametrize("name, X, y", degenerate_designs(),
                         ids=[d[0] for d in degenerate_designs()])
def test_degenerate_designs(name, X, y):
    fit = lasso_path(X, y, keep_path=True)
    assert path_kkt(X, y, fit) < 1e-6
    assert np.all(np.isfinite(fit.intercept + X @ fit.slopes))
    intercept, slopes = fit_at_lambda(X, y, 0.0)
    assert np.isfinite(intercept) and np.all(np.isfinite(slopes))


def test_dependent_columns_swap_in_on_coarse_grids():
    # With n <= p and a few grid points, the largest KKT violator at a point
    # is often already in the span of the active columns, so it must swap in.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        X = rng.normal(size=(n, n + int(rng.integers(1, 5))))
        y = rng.normal(size=n)
        fit = lasso_path(X, y, n_lambda=int(rng.integers(2, 8)), keep_path=True)
        assert path_kkt(X, y, fit) < 1e-6


def test_solver_steps_do_not_depend_on_the_scale_of_y(monkeypatch):
    import driftmon.forecasters.lasso as lasso

    def polish(*args):
        raise AssertionError("a well-posed path needed the coordinate-descent polish")

    monkeypatch.setattr(lasso, "_polish", polish)
    X, y = random_problem(6)
    base = lasso_path(X, y)
    for scale in (1e-8, 1e-3, 1e8):  # at 1e-8 every RSS on the path is below 1e-12
        fit = lasso_path(X, y * scale)
        assert fit.lam == pytest.approx(base.lam * scale, rel=1e-12)
        assert np.allclose(fit.slopes, base.slopes * scale, rtol=1e-9, atol=0.0)
