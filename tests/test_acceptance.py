"""End-to-end acceptance gate.

One test per criterion; each prints a single line (visible with -s or -rP)
summarizing the measured quantities against the pinned tolerances. The
statistical studies are shared through module-scoped fixtures so the suite
stays within a small-machine time budget.

Run standalone:  pytest tests/test_acceptance.py -v -s
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from oracles import optimal_partition

from driftmon.evaluate import sape
from driftmon.features import FeatureSpec, feature_matrix
from driftmon.forecasters import (
    BoostingParams,
    ForestParams,
    HyperParams,
    fit_at_lambda,
    fit_boosting,
    fit_forest,
    lasso_path,
    predict_matrix,
)
from driftmon.monitor import EveryKBatches, MeanTestPolicy, NeverPolicy, PeltPolicy, pelt
from driftmon.pipeline import RunConfig, compare_policies, run
from driftmon.simulate import NullStudyConfig, RegimeScenario, run_null_study
from driftmon.stats import mean_equality_test
from driftmon.streams import StreamSet

pytestmark = pytest.mark.acceptance

THREADS = min(2, os.cpu_count() or 1)
REPS = 1_000
STUDY_SEEDS = list(range(20))

_durations: dict[str, float] = {}


def _passed(tag: str, detail: str) -> None:
    print(f"[acceptance] {tag} PASS: {detail}")


# ---------------------------------------------------------------------------
# Shared studies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gaussian_study():
    start = time.perf_counter()
    f_05 = run_null_study(NullStudyConfig(distribution="gaussian", stream_length=10_000,
                                          batch_size=50, alpha=0.05, n_replications=REPS,
                                          seed=101), threads=THREADS)
    f_01 = run_null_study(NullStudyConfig(distribution="gaussian", stream_length=10_000,
                                          batch_size=50, alpha=0.01, n_replications=REPS,
                                          seed=102), threads=THREADS)
    base_seconds = time.perf_counter() - start
    f_05_long = run_null_study(NullStudyConfig(distribution="gaussian",
                                               stream_length=100_000, batch_size=50,
                                               alpha=0.05, n_replications=REPS,
                                               seed=103), threads=THREADS)
    return {"f_05": f_05, "f_01": f_01, "f_05_long": f_05_long,
            "base_seconds": base_seconds}


@pytest.fixture(scope="module")
def chisq_study():
    f_b10_01 = run_null_study(NullStudyConfig(distribution="chisquare5",
                                              stream_length=10_000, batch_size=10,
                                              alpha=0.01, n_replications=REPS,
                                              seed=201), threads=THREADS)
    f_b100_05 = run_null_study(NullStudyConfig(distribution="chisquare5",
                                               stream_length=10_000, batch_size=100,
                                               alpha=0.05, n_replications=REPS,
                                               seed=202), threads=THREADS)
    return {"f_b10_01": f_b10_01, "f_b100_05": f_b100_05}


def _policy_study_seed(seed: int) -> tuple[int, dict]:
    """All five updating policies on the identical desk-scale panel."""
    scenario = RegimeScenario.desk_default(seed)
    hp = HyperParams(forest=ForestParams(n_trees=8, min_node_size=20))
    base = dict(source=scenario, forecaster="forest", hyperparams=hp,
                window_days=12, seed=seed)
    configs = {
        "daily": RunConfig(policy=EveryKBatches(k=1), **base),
        "never": RunConfig(policy=NeverPolicy(), **base),
        "mean05": RunConfig(policy=MeanTestPolicy(alpha=0.05), **base),
        "mean01": RunConfig(policy=MeanTestPolicy(alpha=0.01), **base),
        "pelt": RunConfig(policy=PeltPolicy(min_seg_len=5), **base),
    }
    runs = compare_policies(list(configs.values()))
    return seed, {name: {"smape": cr.report.avg_smape,
                         "retrains": sum(r.retrain for r in cr.log.records)}
                  for name, cr in zip(configs, runs)}


@pytest.fixture(scope="module")
def policy_study():
    results = {}
    if THREADS > 1:
        with ProcessPoolExecutor(max_workers=THREADS) as pool:
            for seed, out in pool.map(_policy_study_seed, STUDY_SEEDS):
                results[seed] = out
    else:
        for seed in STUDY_SEEDS:
            results[seed] = _policy_study_seed(seed)[1]
    return results


# ---------------------------------------------------------------------------
# C1-C3: size-study reproduction
# ---------------------------------------------------------------------------

def test_c01_gaussian_size(gaussian_study):
    f_05, f_01 = gaussian_study["f_05"], gaussian_study["f_01"]
    assert abs(f_05 - 0.070) <= 0.015
    assert abs(f_01 - 0.013) <= 0.008
    assert gaussian_study["base_seconds"] < 300.0
    _passed("C1", f"gaussian 10k/50: alpha=.05 -> {f_05:.4f} (0.070±0.015), "
                  f"alpha=.01 -> {f_01:.4f} (0.013±0.008) "
                  f"in {gaussian_study['base_seconds']:.0f}s")


def test_c02_chisquare_size(chisq_study):
    f_a, f_b = chisq_study["f_b10_01"], chisq_study["f_b100_05"]
    assert abs(f_a - 0.022) <= 0.010
    assert abs(f_b - 0.072) <= 0.015
    _passed("C2", f"chisq5 10k: batch10/alpha=.01 -> {f_a:.4f} (0.022±0.010), "
                  f"batch100/alpha=.05 -> {f_b:.4f} (0.072±0.015)")


def test_c03_length_invariance(gaussian_study):
    gap = abs(gaussian_study["f_05"] - gaussian_study["f_05_long"])
    assert gap < 0.01
    _passed("C3", f"gaussian batch50/alpha=.05 at 10k vs 100k: "
                  f"{gaussian_study['f_05']:.4f} vs {gaussian_study['f_05_long']:.4f} "
                  f"(gap {gap:.4f} < 0.01)")


# ---------------------------------------------------------------------------
# C4: Welch oracle
# ---------------------------------------------------------------------------

def test_c04_welch_oracle():
    result = mean_equality_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6], alpha=0.05)
    assert abs(result.statistic - (-1.0)) <= 1e-9
    assert abs(result.dof - 8.0) <= 1e-9
    assert abs(result.p_value - 0.3466) <= 5e-4
    _passed("C4", f"t={result.statistic:.12f}, dof={result.dof:.12f}, "
                  f"p={result.p_value:.6f}")


# ---------------------------------------------------------------------------
# C5: lasso KKT suite
# ---------------------------------------------------------------------------

def test_c05_lasso_kkt_suite():
    worst_kkt = 0.0
    worst_ols = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        X = rng.normal(size=(200, 20))
        beta = np.zeros(20)
        beta[rng.choice(20, size=5, replace=False)] = rng.normal(size=5) * 2.0
        y = X @ beta + rng.normal(size=200)

        Xc = X - X.mean(axis=0)
        sd = np.sqrt((Xc ** 2).mean(axis=0))
        Xs = Xc / sd
        fit = lasso_path(X, y, keep_path=True)
        for lam, intercept, slopes in fit.path:
            residual = y - intercept - X @ slopes
            grad = Xs.T @ residual / 200
            beta_std = slopes * sd
            zero = beta_std == 0.0
            if zero.any():
                worst_kkt = max(worst_kkt, float(np.abs(grad[zero]).max()) - lam)
            if (~zero).any():
                worst_kkt = max(worst_kkt, float(
                    np.abs(grad[~zero] - lam * np.sign(beta_std[~zero])).max()))

        intercept0, slopes0 = fit_at_lambda(X, y, 0.0)
        design = np.hstack([np.ones((200, 1)), X])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        ref = np.concatenate([[coef[0]], coef[1:]])
        got = np.concatenate([[intercept0], slopes0])
        worst_ols = max(worst_ols, float(np.abs(got - ref).max() / np.abs(ref).max()))

    assert worst_kkt < 1e-6
    assert worst_ols < 1e-6
    _passed("C5", f"50 problems: worst KKT slack {worst_kkt:.2e} (<1e-6), "
                  f"worst OLS rel err {worst_ols:.2e} (<1e-6)")


# ---------------------------------------------------------------------------
# C6: Pelt vs exhaustive search
# ---------------------------------------------------------------------------

def test_c06_pelt_exhaustive_equivalence():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(4, 31))
        x = rng.normal(size=n)
        style = rng.random()
        if style < 0.4:
            x[n // 2:] += rng.uniform(1.0, 8.0)
        elif style < 0.6:
            x *= rng.uniform(0.1, 10.0)
        penalty = float(rng.uniform(1.0, 4.0)) * math.log(n)
        got = pelt(x, penalty)
        want = optimal_partition(x, penalty)
        assert got[0] == want[0], f"changepoints differ on n={n}"
        assert got[1] == want[1], f"cost differs on n={n}"
        checked += 1
    _passed("C6", f"{checked} histories (n<=30): changepoints and penalized cost "
                  "match exhaustive search exactly")


# ---------------------------------------------------------------------------
# C7-C9: desk-scale policy study
# ---------------------------------------------------------------------------

def test_c07_smape_ordering(policy_study):
    daily = np.mean([r["daily"]["smape"] for r in policy_study.values()])
    mean05 = np.mean([r["mean05"]["smape"] for r in policy_study.values()])
    never = np.mean([r["never"]["smape"] for r in policy_study.values()])
    assert daily <= mean05, f"daily {daily:.2f} > mean-test {mean05:.2f}"
    assert mean05 < never
    assert never - mean05 >= 2.0
    _passed("C7", f"SMAPE over {len(policy_study)} seeds: daily {daily:.2f} <= "
                  f"mean-test {mean05:.2f} < never {never:.2f} "
                  f"(never gap {never - mean05:.2f} >= 2)")


def test_c08_break_frequency_ordering(policy_study):
    wins = sum(1 for r in policy_study.values()
               if r["mean05"]["retrains"] > r["pelt"]["retrains"])
    mean_mt = np.mean([r["mean05"]["retrains"] for r in policy_study.values()])
    mean_pelt = np.mean([r["pelt"]["retrains"] for r in policy_study.values()])
    assert wins >= 18
    _passed("C8", f"mean-test retrains > pelt retrains in {wins}/20 seeds "
                  f"(avg {mean_mt:.1f} vs {mean_pelt:.1f})")


def test_c09_alpha_sensitivity(policy_study):
    fewer = sum(1 for r in policy_study.values()
                if r["mean01"]["retrains"] < r["mean05"]["retrains"])
    degradation = np.mean([r["mean01"]["smape"] - r["mean05"]["smape"]
                           for r in policy_study.values()])
    breaks01 = np.mean([r["mean01"]["retrains"] for r in policy_study.values()])
    breaks05 = np.mean([r["mean05"]["retrains"] for r in policy_study.values()])
    assert fewer >= 18
    assert degradation <= 1.5
    _passed("C9", f"alpha .01 vs .05: fewer retrains in {fewer}/20 seeds "
                  f"(avg {breaks01:.1f} vs {breaks05:.1f}), "
                  f"SMAPE degradation {degradation:+.2f} <= 1.5")


# ---------------------------------------------------------------------------
# C10: fast property bundle
# ---------------------------------------------------------------------------

def _timed(name):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()

        def __exit__(self, *exc):
            _durations[name] = time.perf_counter() - self.start

    return _Timer()


def test_c10a_leakage_sentinel():
    with _timed("leakage"):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(60 * 20, 3))
        b = 60 * 15
        values[b:, :] = 1e15
        streams = StreamSet(values=values, stream_ids=("a", "b", "c"), slots_per_batch=60)
        spec = FeatureSpec(lags=(60, 420), slots_per_day=60)
        X = feature_matrix(streams, spec, np.arange(b + 1, b + 61))
        assert np.all(np.abs(X) < 1e15)
    _passed("C10a", "no feature for targets past a batch end reads data beyond it")


def test_c10b_sape_bounds_and_scale():
    with _timed("sape"):
        rng = np.random.default_rng(8)
        a = rng.normal(size=20_000) * rng.lognormal(0, 3, 20_000)
        f = rng.normal(size=20_000) * rng.lognormal(0, 3, 20_000)
        values = [sape(x, y) for x, y in zip(a, f)]
        assert all(0.0 <= v <= 100.0 for v in values)
        for c in (2.0 ** -12, 0.25, 8.0, 2.0 ** 17):
            assert all(sape(c * x, c * y) == v for x, y, v in zip(a[:500], f[:500], values[:500]))
    _passed("C10b", "sape in [0,100] and invariant under positive rescaling")


def test_c10c_boosting_monotone_rmse():
    with _timed("boosting"):
        rng = np.random.default_rng(9)
        from driftmon.features import DesignMatrix
        X = rng.normal(size=(300, 8))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.2 * rng.normal(size=300)
        data = DesignMatrix(X=X, y=y, column_names=tuple(f"f{i}" for i in range(8)))
        model = fit_boosting(data, HyperParams(boosting=BoostingParams(n_rounds=40)), seed=1)
        current = np.full(300, model.payload.base)
        last = float(np.sqrt(np.mean((y - current) ** 2)))
        for flat in model.payload.flats:
            current += flat.predict(X)
            rmse = float(np.sqrt(np.mean((y - current) ** 2)))
            assert rmse <= last + 1e-9
            last = rmse
    _passed("C10c", "boosting training RMSE non-increasing over 40 rounds")


def test_c10d_forest_range_bounded():
    with _timed("forest"):
        from driftmon.features import DesignMatrix
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(size=(150, 6))
            y = rng.normal(size=150) * 50
            data = DesignMatrix(X=X, y=y, column_names=tuple(f"f{i}" for i in range(6)))
            model = fit_forest(data, HyperParams(forest=ForestParams(n_trees=6, min_node_size=4)),
                               seed=seed)
            preds = predict_matrix(model, X)
            slack = 1e-9 * (np.abs(y).max() + 1)
            assert preds.min() >= y.min() - slack
            assert preds.max() <= y.max() + slack
    _passed("C10d", "forest predictions stay inside the training target range")


def test_c10e_full_run_determinism():
    with _timed("determinism"):
        scenario = RegimeScenario(n_streams=2, n_days=26, slots_per_day=60,
                                  level_shifts=((18, 0, 3.0),), noise_scale=1.5, seed=5)
        hp = HyperParams(forest=ForestParams(n_trees=4, min_node_size=25))
        config = RunConfig(source=scenario, forecaster="forest",
                           policy=MeanTestPolicy(alpha=0.05), hyperparams=hp,
                           window_days=8, seed=5)
        one, two = run(config), run(config)
        assert len(one.records) == len(two.records)
        for a, b in zip(one.records, two.records):
            assert np.array_equal(a.forecasts, b.forecasts)
            assert np.array_equal(a.losses, b.losses)
            assert (a.decision, a.retrain, a.model_token) == (b.decision, b.retrain, b.model_token)
            assert a.p_value == b.p_value
    _passed("C10e", "(config, seed) reproduces a bit-identical run log")


def test_c10_property_bundle_budget():
    total = sum(_durations.values())
    assert set(_durations) == {"leakage", "sape", "boosting", "forest", "determinism"}
    assert total < 120.0
    _passed("C10", f"property bundle ran in {total:.1f}s (< 120s)")
