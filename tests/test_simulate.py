import tracemalloc

import numpy as np
import pytest

from driftmon import simulate
from driftmon.errors import ConfigError
from driftmon.monitor import MeanTestPolicy, new_state, observe
from driftmon.simulate import (
    DISTRIBUTIONS,
    DRAW_VALUES,
    WINDOW,
    NullStudyConfig,
    RandomSource,
    RegimeScenario,
    gen_regime_streams,
    replication_counts,
    run_null_study,
)

TINY = dict(stream_length=2_000, batch_size=50, n_replications=8, seed=11)


def test_random_source_deterministic():
    a = RandomSource(42).gaussian(100)
    b = RandomSource(42).gaussian(100)
    assert np.array_equal(a, b)
    c = RandomSource(42).chisquare5(100)
    d = RandomSource(42).chisquare5(100)
    assert np.array_equal(c, d)


def test_chisquare5_moments():
    draws = RandomSource(1).chisquare5(1_000_000)
    assert draws.mean() == pytest.approx(5.0, abs=0.02)
    assert np.all(draws >= 0)


def test_gaussian_moments():
    draws = RandomSource(2).gaussian(1_000_000)
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


def test_null_study_rejects_fewer_than_one_thread():
    with pytest.raises(ConfigError) as exc:
        run_null_study(NullStudyConfig(**TINY), threads=0)
    assert exc.value.field == "threads"


def test_null_study_monotone_in_alpha_per_replication():
    r05, _ = replication_counts(NullStudyConfig(alpha=0.05, **{**TINY, "n_replications": 12}))
    r01, _ = replication_counts(NullStudyConfig(alpha=0.01, **{**TINY, "n_replications": 12}))
    for rep in range(12):
        assert r01[rep] <= r05[rep]


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
    rejections, tests = replication_counts(config)
    for rep in range(config.n_replications):
        assert (rejections[rep], tests[rep]) == raw_batch_replication(config, rep)


# a batch size whose draw chunk holds 20 batches, so windows cross chunk boundaries
CHUNKED_BATCH = DRAW_VALUES // 20


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("reseed", [False, True])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 1.0])
def test_windowed_counts_equal_stepping_the_monitor(distribution, reseed, alpha):
    # fewer batches than a window, a window's worth and one either side, and
    # counts that are not multiples of the window; the stream length leaves
    # a partial batch over
    for n_batches in (2, 5, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 5, 70):
        config = NullStudyConfig(distribution=distribution,
                                 stream_length=n_batches * CHUNKED_BATCH + 7,
                                 batch_size=CHUNKED_BATCH, alpha=alpha, n_replications=3,
                                 seed=n_batches, reseed_with_rejecting_batch=reseed)
        rejections, tests = replication_counts(config)
        for rep in range(config.n_replications):
            assert (rejections[rep], tests[rep]) == raw_batch_replication(config, rep)


def test_replications_stepped_in_groups_keep_their_counts(monkeypatch):
    config = NullStudyConfig(**TINY)
    together = replication_counts(config)
    monkeypatch.setattr(simulate, "REPLICATION_GROUP", 3)
    grouped = replication_counts(config)
    for whole, parts in zip(together, grouped):
        assert parts.tolist() == whole.tolist()


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_a_stream_drawn_in_pieces_equals_one_whole_draw(distribution):
    whole = RandomSource(7).draw(distribution, 1_000)
    source = RandomSource(7)
    pieces = np.concatenate([source.draw(distribution, n) for n in (3, 97, 400, 500)])
    assert np.array_equal(pieces, whole)


def test_null_study_memory_does_not_grow_with_the_stream():
    def peak(stream_length):
        config = NullStudyConfig(stream_length=stream_length, batch_size=10, n_replications=4,
                                 seed=5)
        tracemalloc.start()
        try:
            run_null_study(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200_000) <= 1.5 * peak(20_000)


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
