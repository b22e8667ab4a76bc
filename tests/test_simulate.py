import numpy as np
import pytest

from driftmon.monitor import MeanTestPolicy, new_state, observe
from driftmon.simulate import (
    NullStudyConfig,
    RandomSource,
    RegimeScenario,
    _null_study_replication,
    gen_regime_streams,
    random_source,
    run_null_study,
)

TINY = dict(stream_length=2_000, batch_size=50, n_replications=8, seed=11)


def test_random_source_deterministic():
    a = random_source(42).gaussian(100)
    b = random_source(42).gaussian(100)
    assert np.array_equal(a, b)
    c = random_source(42).chisquare5(100)
    d = random_source(42).chisquare5(100)
    assert np.array_equal(c, d)


def test_chisquare5_moments():
    draws = random_source(1).chisquare5(1_000_000)
    assert draws.mean() == pytest.approx(5.0, abs=0.02)
    assert np.all(draws >= 0)


def test_gaussian_moments():
    draws = random_source(2).gaussian(1_000_000)
    assert draws.var() == pytest.approx(1.0, abs=0.01)
    assert draws.mean() == pytest.approx(0.0, abs=0.01)


def test_null_study_alpha_one_always_rejects():
    freq = run_null_study(NullStudyConfig(alpha=1.0, stream_length=500, batch_size=10,
                                          n_replications=3, seed=0))
    assert freq == 1.0


def test_null_study_deterministic_and_thread_invariant():
    config = NullStudyConfig(**TINY)
    serial = run_null_study(config)
    again = run_null_study(config)
    threaded = run_null_study(config, threads=2)
    assert serial == again == threaded


def test_null_study_monotone_in_alpha_per_replication():
    for rep in range(12):
        r05, _ = _null_study_replication(NullStudyConfig(alpha=0.05, **TINY), rep)
        r01, _ = _null_study_replication(NullStudyConfig(alpha=0.01, **TINY), rep)
        assert r01 <= r05


def raw_batch_replication(config, rep):
    """(rejections, tests) from stepping the monitor on raw batch arrays one by one."""
    n_batches = config.stream_length // config.batch_size
    draws = RandomSource((config.seed, rep)).draw(config.distribution,
                                                 n_batches * config.batch_size)
    state = new_state(MeanTestPolicy(alpha=config.alpha,
                                     reseed_with_rejecting_batch=config.reseed_with_rejecting_batch))
    rejections = tests = 0
    for batch in draws.reshape(n_batches, config.batch_size):
        decision = observe(state, batch.copy())
        if decision.test is not None:
            tests += 1
            rejections += decision.retrain
    return rejections, tests


@pytest.mark.parametrize("distribution", ["gaussian", "chisquare5"])
@pytest.mark.parametrize("batch_size", [2, 10, 50])
@pytest.mark.parametrize("reseed", [False, True])
def test_replication_on_row_moments_matches_raw_batch_loop(distribution, batch_size, reseed):
    config = NullStudyConfig(distribution=distribution, stream_length=40 * batch_size,
                             batch_size=batch_size, alpha=0.1, n_replications=4, seed=3,
                             reseed_with_rejecting_batch=reseed)
    for rep in range(config.n_replications):
        assert _null_study_replication(config, rep) == raw_batch_replication(config, rep)


def test_null_study_config_validation():
    with pytest.raises(ValueError):
        NullStudyConfig(distribution="cauchy")
    with pytest.raises(ValueError):
        NullStudyConfig(stream_length=50, batch_size=50)
    with pytest.raises(ValueError):
        NullStudyConfig(batch_size=1)


def test_scenario_zero_noise_is_weekly_periodic():
    scenario = RegimeScenario(n_streams=2, n_days=21, slots_per_day=60,
                              noise_scale=0.0, seed=5)
    streams = gen_regime_streams(scenario)
    week = 7 * 60
    assert np.allclose(streams.values[week:], streams.values[:-week], rtol=0, atol=0)


def test_scenario_level_shift_multiplies_signal():
    shifted = RegimeScenario(n_streams=1, n_days=60, slots_per_day=60,
                             level_shifts=((30, 0, 5.0),), noise_scale=0.0, seed=6)
    streams = gen_regime_streams(shifted)
    spd = 60
    # four aligned weeks each side of the day-30 shift: days 2..29 vs 30..57
    before = streams.values[1 * spd:29 * spd, 0]
    after = streams.values[29 * spd:57 * spd, 0]
    assert np.allclose(after, 5.0 * before, rtol=1e-12)
    assert after.mean() == pytest.approx(5.0 * before.mean(), rel=1e-12)


def test_scenario_noise_correlation_contract():
    from dataclasses import replace

    scenario = RegimeScenario(n_streams=2, n_days=170, slots_per_day=60,
                              base_levels=(500.0, 500.0), noise_correlation=0.9,
                              noise_scale=1.0, seed=7)
    streams = gen_regime_streams(scenario)
    clean = gen_regime_streams(replace(scenario, noise_scale=0.0))
    assert streams.n_ticks >= 10_000
    # high base level keeps the zero-clip inactive, so this difference IS the noise
    noise = streams.values - clean.values
    corr = np.corrcoef(noise[:, 0], noise[:, 1])[0, 1]
    assert 0.8 <= corr <= 0.95


def test_scenario_clipping_and_reproducibility():
    scenario = RegimeScenario(n_streams=3, n_days=10, slots_per_day=60,
                              base_levels=(0.5, 0.5, 0.5), noise_scale=50.0, seed=8)
    one = gen_regime_streams(scenario)
    two = gen_regime_streams(scenario)
    assert np.array_equal(one.values, two.values)
    assert one.values.min() >= 0.0


def test_scenario_dict_roundtrip():
    scenario = RegimeScenario.desk_default(seed=9)
    again = RegimeScenario.from_dict(scenario.to_dict())
    assert again == scenario


def test_scenario_validation():
    with pytest.raises(ValueError):
        RegimeScenario(n_streams=2, n_days=10, level_shifts=((11, 0, 2.0),))
    with pytest.raises(ValueError):
        RegimeScenario(n_streams=2, n_days=10, level_shifts=((5, 7, 2.0),))
    with pytest.raises(ValueError):
        RegimeScenario(n_streams=2, n_days=10, level_shifts=((5, 0, -1.0),))
    with pytest.raises(ValueError):
        RegimeScenario(n_streams=2, base_levels=(1.0,))
