import numpy as np
import pytest

from driftmon.errors import ConfigError, InsufficientHistory
from driftmon.evaluate import build_report
from driftmon.features import FeatureSpec
from driftmon.forecasters import ForestParams, HyperParams
from driftmon.monitor import EveryKBatches, MeanTestPolicy, NeverPolicy, PeltPolicy
from driftmon.pipeline import (
    RunConfig,
    compare_policies,
    comparison_table,
    config_from_dict,
    run,
)
from driftmon.simulate import RegimeScenario, gen_regime_streams
from driftmon.streams import StreamSet

# a small geometry every test here shares: 60-slot days, weekly lag available
SMALL_SPEC = FeatureSpec(lags=(60, 420), slots_per_day=60)


def tiny_scenario(seed=0, n_days=30, shifts=(), noise=0.0):
    return RegimeScenario(n_streams=2, n_days=n_days, slots_per_day=60,
                          level_shifts=shifts, noise_scale=noise, seed=seed)


def naive_config(policy, seed=0, **overrides):
    defaults = dict(source=tiny_scenario(seed), forecaster="naive", policy=policy,
                    feature_spec=SMALL_SPEC, window_days=8, seed=seed)
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_naive_never_on_noiseless_weekly_scenario_is_perfect():
    log = run(naive_config(NeverPolicy()))
    report = build_report(log)
    assert report.avg_smape == 0.0
    assert report.avg_breaks == 0.0
    assert all(r.decision in ("hold", "final") for r in log.records)


def test_every_batch_schedule_retrains_all_but_final():
    log = run(naive_config(EveryKBatches(k=1)))
    n_eval_batches = max(r.batch_index for r in log.records)
    per_stream = [r for r in log.records if r.stream_id == "s1"]
    assert sum(r.retrain for r in per_stream) == n_eval_batches - 1


def test_run_is_deterministic():
    config = naive_config(MeanTestPolicy(0.05), seed=4,
                          source=tiny_scenario(4, shifts=((20, 0, 3.0),), noise=1.0))
    a, b = run(config), run(config)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.forecasts, rb.forecasts)
        assert ra.decision == rb.decision
        assert ra.model_token == rb.model_token


def test_model_token_changes_exactly_at_retrains():
    from driftmon.forecasters import LassoParams

    scen = tiny_scenario(1, n_days=40, shifts=((20, 0, 4.0), (28, 1, 0.3)), noise=1.0)
    hp = HyperParams(lasso=LassoParams(n_lambda=20, tol=1e-7))
    config = RunConfig(source=scen, forecaster="lasso", policy=MeanTestPolicy(0.05),
                       hyperparams=hp, feature_spec=SMALL_SPEC, window_days=8, seed=1)
    log = run(config)
    for stream in log.stream_ids:
        records = log.for_stream(stream)
        for prev, cur in zip(records, records[1:]):
            if prev.retrain:
                assert cur.model_token != prev.model_token
            else:
                assert cur.model_token == prev.model_token


def test_breaks_in_report_match_retrain_records():
    scen = tiny_scenario(2, n_days=40, shifts=((20, 0, 5.0),), noise=1.0)
    config = RunConfig(source=scen, forecaster="naive", policy=MeanTestPolicy(0.05),
                       feature_spec=SMALL_SPEC, window_days=8, seed=2)
    log = run(config)
    report = build_report(log)
    for stream_report in report.streams:
        records = log.for_stream(stream_report.stream_id)
        assert stream_report.n_breaks == sum(r.retrain for r in records)


def test_first_batch_forecasts_ignore_the_future():
    scen = tiny_scenario(3, n_days=30)
    streams = gen_regime_streams(scen)
    config = naive_config(NeverPolicy(), seed=3, source=scen)
    log_full = run(config, stream_set=streams)
    corrupted = streams.values.copy()
    t0 = 8 * 60  # initial window end; first batch covers ticks t0+1 .. t0+60
    corrupted[t0 + 60:, :] = 9e9
    log_cut = run(config, stream_set=StreamSet(values=corrupted,
                                               stream_ids=streams.stream_ids,
                                               slots_per_batch=60))
    first_full = [r for r in log_full.records if r.batch_index == 1]
    first_cut = [r for r in log_cut.records if r.batch_index == 1]
    for a, b in zip(first_full, first_cut):
        assert np.array_equal(a.forecasts, b.forecasts)
        assert np.array_equal(a.actuals, b.actuals)


def test_mean_test_detects_large_shift_within_three_batches():
    hits = 0
    for seed in range(20):
        scen = tiny_scenario(seed, n_days=40, shifts=((25, 0, 6.0),), noise=1.0)
        config = RunConfig(source=scen, forecaster="naive", policy=MeanTestPolicy(0.05),
                           feature_spec=SMALL_SPEC, window_days=8, seed=seed)
        log = run(config)
        shift_batch = log.meta["shift_batches"]["s1"][0]
        retrains = [r.batch_index for r in log.for_stream("s1") if r.retrain]
        if any(shift_batch <= b <= shift_batch + 3 for b in retrains):
            hits += 1
    assert hits >= 19


def test_compare_policies_shares_data_and_merges():
    scen = tiny_scenario(5, n_days=40, shifts=((20, 0, 4.0),), noise=1.0)
    base = dict(source=scen, forecaster="naive", feature_spec=SMALL_SPEC,
                window_days=8, seed=5)
    runs = compare_policies([
        RunConfig(policy=EveryKBatches(1), **base),
        RunConfig(policy=MeanTestPolicy(0.05), **base),
        RunConfig(policy=NeverPolicy(), **base),
    ])
    assert [cr.label for cr in runs] == ["naive/every_1", "naive/mean_test(alpha=0.05)",
                                         "naive/never"]
    rows = comparison_table(runs)
    assert rows[-1]["stream_id"] == "average"
    assert set(rows[0]) == {"stream_id", *[cr.label for cr in runs]}


def test_compare_policies_identical_configs_agree():
    scen = tiny_scenario(6, n_days=30, noise=0.5)
    base = dict(source=scen, forecaster="naive", feature_spec=SMALL_SPEC,
                window_days=8, seed=6, policy=MeanTestPolicy(0.05))
    one, two = compare_policies([RunConfig(**base), RunConfig(**base)])
    assert one.report.avg_smape == two.report.avg_smape
    assert [s.n_breaks for s in one.report.streams] == [s.n_breaks for s in two.report.streams]


def test_compare_policies_rejects_mismatched_data():
    a = naive_config(NeverPolicy(), seed=0)
    b = naive_config(NeverPolicy(), seed=0, source=tiny_scenario(1))
    with pytest.raises(ConfigError):
        compare_policies([a, b])


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        naive_config(NeverPolicy(), horizon=120)  # horizon > batch
    with pytest.raises(ConfigError):
        naive_config(NeverPolicy(), feature_spec=FeatureSpec(lags=(30, 420)))  # lag < Q
    with pytest.raises(ConfigError):
        naive_config(NeverPolicy(), naive_lag=300)  # not a configured lag
    with pytest.raises(ConfigError):
        naive_config(NeverPolicy(), forecaster="prophet")
    with pytest.raises(ConfigError):
        naive_config(NeverPolicy(), window_days=6)  # window shorter than max lag


def test_mean_test_needs_two_losses_per_batch():
    with pytest.raises(ConfigError) as exc:
        naive_config(MeanTestPolicy(), horizon=1)
    assert exc.value.field == "horizon"
    flat = naive_config(MeanTestPolicy(), horizon=2).to_flat_dict()
    flat["horizon"] = 1
    with pytest.raises(ConfigError) as exc:
        config_from_dict(flat)
    assert exc.value.field == "horizon"
    # the smallest horizons that validate run to completion
    for policy, horizon in ((MeanTestPolicy(), 2), (PeltPolicy(), 1), (NeverPolicy(), 1)):
        log = run(naive_config(policy, source=tiny_scenario(0, noise=1.0), horizon=horizon))
        assert all(r.forecasts.size == horizon for r in log.records)


def test_insufficient_history():
    with pytest.raises(InsufficientHistory):
        run(naive_config(NeverPolicy(), source=tiny_scenario(0, n_days=8)))


def test_forest_pipeline_smoke():
    scen = tiny_scenario(7, n_days=26, shifts=((18, 0, 4.0),), noise=1.0)
    hp = HyperParams(forest=ForestParams(n_trees=4, min_node_size=25))
    config = RunConfig(source=scen, forecaster="forest", policy=MeanTestPolicy(0.05),
                       hyperparams=hp, feature_spec=SMALL_SPEC, window_days=8, seed=7)
    report = build_report(run(config))
    assert 0.0 < report.avg_smape < 100.0


def test_pelt_pipeline_smoke():
    scen = tiny_scenario(8, n_days=40, shifts=((25, 0, 6.0),), noise=1.0)
    config = RunConfig(source=scen, forecaster="naive",
                       policy=PeltPolicy(min_seg_len=5),
                       feature_spec=SMALL_SPEC, window_days=8, seed=8)
    log = run(config)
    assert any(r.retrain for r in log.records)


def test_flat_config_roundtrip():
    config = RunConfig(source=tiny_scenario(9), forecaster="forest",
                       policy=MeanTestPolicy(alpha=0.01),
                       hyperparams=HyperParams(forest=ForestParams(n_trees=7)),
                       feature_spec=SMALL_SPEC, window_days=8, seed=9)
    again = config_from_dict(config.to_flat_dict())
    assert again == config
    assert again.config_hash() == config.config_hash()


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"data_csv": "x.csv", "typo_key": 1})
    assert "typo_key" in str(exc.value)
    with pytest.raises(ConfigError):
        config_from_dict({})  # no data source
