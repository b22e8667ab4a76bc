import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmon.errors import ConfigError
from driftmon.evaluate import build_report, read_runlog, report_to_dict, write_runlog
from driftmon.features import FeatureSpec
from driftmon.forecasters import BoostingParams, ForestParams, HyperParams, LassoParams
from driftmon.monitor import POLICIES, EveryKBatches, MeanTestPolicy, NeverPolicy, PeltPolicy
from driftmon.pipeline import (
    RunConfig,
    compare_policies,
    comparison_table,
    config_from_dict,
    config_keys,
    materialize,
    run,
    run_label,
)
from driftmon.schema import _PARSERS
from driftmon.simulate import NullStudyConfig, RegimeScenario, gen_regime_streams
from driftmon.streams import StreamSet, write_csv

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


def test_lasso_run_on_a_panel_with_a_duplicated_stream(tmp_path):
    # identical streams make every lag column appear twice in the design
    base = gen_regime_streams(tiny_scenario(3, n_days=24, noise=1.0))
    values = np.repeat(base.values[:, :1], 2, axis=1)
    path = str(tmp_path / "twins.csv")
    write_csv(StreamSet(values=values, stream_ids=("a", "b"), slots_per_batch=60), path)
    config = RunConfig(source=path, forecaster="lasso", policy=EveryKBatches(k=2),
                       hyperparams=HyperParams(lasso=LassoParams(n_lambda=20)),
                       feature_spec=SMALL_SPEC, window_days=8, seed=3)
    log = run(config)
    assert log.records
    assert all(np.all(np.isfinite(r.forecasts)) for r in log.records)


def test_a_panel_batched_unlike_its_config_is_rejected():
    # batch ends 30 ticks apart, each scored on the 60 ticks after it: every
    # decision would read losses from ticks past the next decision point
    config = naive_config(NeverPolicy())
    panel = materialize(config)
    halved = StreamSet(values=panel.values, stream_ids=panel.stream_ids, slots_per_batch=30)
    with pytest.raises(ConfigError) as exc:
        run(config, stream_set=halved)
    assert exc.value.field == "slots_per_batch"


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


def test_compare_policies_rejects_different_configs_with_one_run_label():
    lag60 = naive_config(NeverPolicy(), naive_lag=60)
    lag420 = naive_config(NeverPolicy(), naive_lag=420)
    assert run_label(lag60) == run_label(lag420)
    with pytest.raises(ConfigError) as exc:
        compare_policies([lag60, lag420])
    assert exc.value.field == "configs"
    assert "'naive/never'" in str(exc.value)


def test_policies_that_differ_only_off_their_label_defaults_compare_side_by_side():
    configs = [naive_config(PeltPolicy(min_seg_len=msl),
                            source=tiny_scenario(0, shifts=((15, 0, 3.0),), noise=0.5))
               for msl in (3, 5)]
    runs = compare_policies(configs)
    assert [cr.label for cr in runs] == ["naive/pelt(min_seg_len=3)", "naive/pelt(min_seg_len=5)"]
    for config, compared in zip(configs, runs):
        assert _log_fields(compared.log) == _log_fields(run(config))


# A geometry small enough for every forecaster: 12-slot days, 4-slot batches.
SHARED = dict(source=RegimeScenario(n_streams=2, n_days=10, slots_per_day=12,
                                    level_shifts=((6, 0, 3.0), (8, 1, 0.4)), noise_scale=1.0,
                                    seed=11),
              feature_spec=FeatureSpec(lags=(2, 12), slots_per_day=12), window_days=4,
              slots_per_batch=4, horizon=2, naive_lag=12, seed=11)
SMALL_HP = HyperParams(forest=ForestParams(n_trees=2), lasso=LassoParams(n_lambda=5),
                       boosting=BoostingParams(n_rounds=2))
FOUR_POLICIES = (MeanTestPolicy(alpha=0.2), PeltPolicy(min_seg_len=2), EveryKBatches(k=2),
                 NeverPolicy())


def _log_fields(log):
    head = (log.stream_ids, log.horizon, log.policy_name, log.forecaster, log.seed,
            log.config_hash, log.meta)
    return head, [(r.stream_id, r.batch_index, r.batch_end, r.decision, r.p_value,
                   r.statistic, r.model_token, r.forecasts.tolist(), r.actuals.tolist())
                  for r in log.records]


def _fit_tick(token: str) -> int:
    """The tick a model was trained at, from its token ``forecaster@tick#count``."""
    return int(token.split("@")[1].split("#")[0])


def test_compared_runs_equal_their_solo_runs():
    other_forest = HyperParams(forest=ForestParams(n_trees=3, mtry=1))
    configs = [RunConfig(forecaster=forecaster, policy=policy, hyperparams=SMALL_HP, **SHARED)
               for forecaster in ("naive", "lasso", "forest", "boosting")
               for policy in FOUR_POLICIES]
    # a second forest that refits at ticks the first one does: the fits must not be shared
    configs += [RunConfig(forecaster="forest", policy=policy, hyperparams=other_forest,
                          **SHARED) for policy in (EveryKBatches(k=1), MeanTestPolicy(0.5))]
    runs = compare_policies(configs)
    assert any(r.retrain for r in runs[-2].log.records)
    panel = materialize(configs[0])
    for config, compared in zip(configs, runs):
        solo = run(config, stream_set=panel)
        assert _log_fields(compared.log) == _log_fields(solo), compared.label


def test_compared_runs_fit_each_stream_and_tick_once(monkeypatch):
    import driftmon.pipeline as pipeline

    seeds, calls = [], []

    def counting_fit_forests(data, targets, hp, trained_at, columns=None):
        seeds.extend((seed, trained_at) for _, seed in targets)
        calls.append(trained_at)
        return fit_forests(data, targets, hp, trained_at=trained_at, columns=columns)

    fit_forests = pipeline.fit_forests
    monkeypatch.setattr(pipeline, "fit_forests", counting_fit_forests)
    runs = compare_policies([RunConfig(forecaster="forest", policy=policy, hyperparams=SMALL_HP,
                                       **SHARED)
                             for policy in (EveryKBatches(k=1), MeanTestPolicy(0.2),
                                            NeverPolicy())])
    # every fit forecasts at least one batch, so the tokens name every fit
    per_run = [{(r.stream_id, _fit_tick(r.model_token)) for r in cr.log.records} for cr in runs]
    distinct = set().union(*per_run)
    assert len(seeds) == len(set(seeds)) == len(distinct)
    assert len(distinct) < sum(map(len, per_run))  # the daily run's fits were shared
    # the daily run refits both streams at every tick, in one joint call per tick
    assert len(calls) == len(set(calls)) == len({tick for _, tick in distinct})


def test_a_refit_tick_shares_one_design_and_one_sorted_columns(monkeypatch):
    import driftmon.forecasters.models as models
    import driftmon.pipeline as pipeline
    from driftmon.features import training_set
    from driftmon.forecasters import SortedColumns, fit_boosting, fit_forest

    fits, joint, sorts = [], [], []

    def recording_fit_models(config, tick, streams):
        got = fit_models(config, tick, streams)
        fits.extend((config, i, tick.at_tick, model) for i, model in zip(streams, got))
        joint.append((config.forecaster, len(streams)))
        return got

    def counting_sorted_columns(X):
        sorts.append(X)
        return SortedColumns(X)

    fit_models = pipeline._fit_models
    monkeypatch.setattr(pipeline, "_fit_models", recording_fit_models)
    monkeypatch.setattr(pipeline, "SortedColumns", counting_sorted_columns)
    monkeypatch.setattr(models, "SortedColumns", counting_sorted_columns)
    shared = {**SHARED, "source": RegimeScenario(n_streams=3, n_days=10, slots_per_day=12,
                                                 level_shifts=((6, 0, 3.0),), noise_scale=1.0,
                                                 seed=5)}
    hp = HyperParams(forest=ForestParams(n_trees=3, min_node_size=2),
                     boosting=BoostingParams(n_rounds=3))
    compare_policies([RunConfig(forecaster=forecaster, policy=EveryKBatches(k=1),
                                hyperparams=hp, **shared)
                      for forecaster in ("forest", "boosting")])
    monkeypatch.undo()

    panel = materialize(RunConfig(**shared))
    ticks = {tick for _, _, tick, _ in fits}
    assert len(fits) == 2 * 3 * len(ticks)   # both forecasters refit all 3 streams each tick
    assert len(set((c.forecaster, i, tick) for c, i, tick, _ in fits)) == len(fits)
    # per tick, the 3 streams' forests grow in one call, their boosting fits one by one
    assert sorted(set(joint)) == [("boosting", 1), ("forest", 3)]
    assert len(joint) == 4 * len(ticks)
    assert len(sorts) == len(ticks)
    assert all(not X.flags.writeable for X in sorts)
    for config, i, tick, model in fits:
        data = training_set(panel, config.feature_spec, i, tick, config.window_days)
        fit = fit_forest if config.forecaster == "forest" else fit_boosting
        want = fit(data, hp, pipeline._fit_seed(config.seed, i, tick), trained_at=tick)
        assert model.payload.base == want.payload.base
        for name in ("feature", "threshold", "child", "value", "n_samples", "roots", "depths"):
            assert np.array_equal(getattr(model.payload.nodes, name),
                                  getattr(want.payload.nodes, name))


def test_a_refit_tick_shares_one_lasso_gram(monkeypatch):
    import driftmon.pipeline as pipeline
    from driftmon.features import training_set
    from driftmon.forecasters import Gram, fit_lasso

    fits, grams = [], []

    def recording_fit_models(config, tick, streams):
        got = fit_models(config, tick, streams)
        fits.extend((i, tick.at_tick, model) for i, model in zip(streams, got))
        return got

    def counting_gram(X):
        grams.append(X)
        return Gram(X)

    fit_models = pipeline._fit_models
    monkeypatch.setattr(pipeline, "_fit_models", recording_fit_models)
    monkeypatch.setattr(pipeline, "Gram", counting_gram)
    config = RunConfig(forecaster="lasso", policy=EveryKBatches(k=1), hyperparams=SMALL_HP,
                       **SHARED)
    run(config)
    monkeypatch.undo()

    panel = materialize(config)
    ticks = {tick for _, tick, _ in fits}
    assert len(fits) == 2 * len(ticks)   # both streams refit at every tick
    assert len(grams) == len(ticks)
    for i, tick, model in fits:
        data = training_set(panel, config.feature_spec, i, tick, config.window_days)
        want = fit_lasso(data, SMALL_HP, trained_at=tick).payload
        got = model.payload
        assert (got.intercept, got.lam, got.bic, got.rss) == (want.intercept, want.lam,
                                                              want.bic, want.rss)
        for name in ("slopes", "lambda_grid", "n_nonzero_path"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_naive_refits_build_no_design(monkeypatch):
    import driftmon.pipeline as pipeline

    def no_design(*args, **kwargs):
        raise AssertionError("a naive refit built a training set")

    want = run(naive_config(EveryKBatches(k=1)))
    monkeypatch.setattr(pipeline, "training_set", no_design)
    assert _log_fields(run(naive_config(EveryKBatches(k=1)))) == _log_fields(want)


def test_shared_fits_record_equal_retrain_seconds():
    runs = compare_policies([RunConfig(forecaster="forest", policy=policy,
                                       hyperparams=SMALL_HP, **SHARED)
                             for policy in (EveryKBatches(k=1), EveryKBatches(k=2),
                                            MeanTestPolicy(0.2))])
    seconds: dict = {}
    for cr in runs:
        for stream in cr.log.stream_ids:
            records = cr.log.for_stream(stream)
            for record, following in zip(records, records[1:]):
                if record.retrain:
                    assert record.retrain_seconds > 0.0
                    key = (stream, _fit_tick(following.model_token))
                    seconds.setdefault(key, set()).add(record.retrain_seconds)
                else:
                    assert record.retrain_seconds == 0.0
    assert all(len(s) == 1 for s in seconds.values())
    assert len(seconds) < sum(r.retrain for cr in runs for r in cr.log.records)


def test_a_comparison_checks_every_config_before_the_first_fit(monkeypatch):
    import driftmon.pipeline as pipeline

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit before the last config was checked")

    monkeypatch.setattr(pipeline, "training_set", no_fit)
    base = dict(source=tiny_scenario(3, n_days=12), feature_spec=SMALL_SPEC, window_days=8)
    configs = [RunConfig(forecaster="naive", policy=EveryKBatches(k=1), **base),
               RunConfig(forecaster="naive", policy=NeverPolicy(), **base),
               # 60 rows in the first window: too few for nodes of 61
               RunConfig(forecaster="forest", policy=NeverPolicy(), **base,
                         hyperparams=HyperParams(forest=ForestParams(min_node_size=61)))]
    with pytest.raises(ConfigError) as err:
        compare_policies(configs)
    assert err.value.field == "forest_min_node_size"


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
    with pytest.raises(ConfigError) as err:
        run(naive_config(NeverPolicy(), source=tiny_scenario(0, n_days=8)))
    assert err.value.field == "window_days"


def test_a_window_leaving_one_forecast_origin_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        run(naive_config(NeverPolicy(), source=tiny_scenario(0, n_days=9)))
    assert err.value.field == "window_days"
    assert "fewer than two forecast origins" in str(err.value)


def test_forest_node_size_above_the_first_window_is_a_config_error():
    # an 8-day window of 60-slot days minus the 420-tick lag trim: 60 rows
    # at the first batch end, more at later ones
    def forest(min_node_size):
        return RunConfig(source=tiny_scenario(3, n_days=12), forecaster="forest",
                         policy=EveryKBatches(k=1), feature_spec=SMALL_SPEC, window_days=8,
                         hyperparams=HyperParams(forest=ForestParams(
                             n_trees=2, min_node_size=min_node_size)))
    with pytest.raises(ConfigError) as err:
        run(forest(61))
    assert err.value.field == "forest_min_node_size"
    assert "has 60 rows" in str(err.value)
    assert len(run(forest(60)).records) > 0


@pytest.mark.parametrize("forecaster", ["lasso", "boosting"])
def test_a_one_row_first_window_is_a_config_error_for_lasso_and_boosting(forecaster):
    # a 480-tick window after a 479-tick lag trim keeps one row; the fits need two
    config = RunConfig(source=tiny_scenario(4, n_days=12), forecaster=forecaster,
                       policy=NeverPolicy(), window_days=8,
                       feature_spec=FeatureSpec(lags=(60, 479), slots_per_day=60))
    with pytest.raises(ConfigError) as err:
        run(config)
    assert err.value.field == "window_days"


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


def test_lean_records_share_the_panel_and_round_trip(tmp_path):
    scen = RegimeScenario(n_streams=3, n_days=30, slots_per_day=60,
                          level_shifts=((20, 1, 3.0),), noise_scale=1.0, seed=12)
    config = RunConfig(source=scen, forecaster="naive", policy=PeltPolicy(min_seg_len=2),
                       feature_spec=SMALL_SPEC, window_days=8, seed=12)
    panel = materialize(config)
    log = run(config, stream_set=panel)
    assert any(r.retrain for r in log.records)
    for r in log.records:
        # a column of a (ticks, 3) panel: a strided, read-only view, no copy
        assert np.shares_memory(r.actuals, panel.values)
        assert r.actuals.strides != (r.actuals.itemsize,)
        assert not r.actuals.flags.writeable
        assert not hasattr(r, "__dict__")
    write_runlog(log, str(tmp_path))
    again = read_runlog(str(tmp_path))
    assert len(again.records) == len(log.records)
    for mine, read in zip(log.records, again.records):
        assert (read.stream_id, read.batch_index) == (mine.stream_id, mine.batch_index)
        assert np.array_equal(read.forecasts, mine.forecasts)
        assert np.array_equal(read.actuals, mine.actuals)
        assert np.array_equal(read.losses, mine.losses)


@settings(max_examples=25, deadline=None)
@given(n_streams=st.integers(1, 3),
       policy=st.sampled_from([MeanTestPolicy(alpha=0.2), PeltPolicy(min_seg_len=2),
                               EveryKBatches(k=2), NeverPolicy()]),
       forecaster=st.sampled_from(["naive", "lasso", "forest", "boosting"]),
       horizon=st.sampled_from([1, 2, 4]),
       slots_per_batch=st.sampled_from([2, 4, 6]),
       lags=st.sampled_from([(2, 12), (4, 24), (6, 12)]),
       seed=st.integers(0, 20))
def test_runlog_round_trip_property(n_streams, policy, forecaster, horizon, slots_per_batch,
                                    lags, seed):
    scenario = RegimeScenario(n_streams=n_streams, n_days=8, slots_per_day=12,
                              level_shifts=((6, 0, 3.0),), noise_scale=1.0, seed=seed)
    try:
        config = RunConfig(source=scenario, forecaster=forecaster, policy=policy,
                           hyperparams=HyperParams(forest=ForestParams(n_trees=2),
                                                   lasso=LassoParams(n_lambda=5),
                                                   boosting=BoostingParams(n_rounds=2)),
                           feature_spec=FeatureSpec(lags=lags, slots_per_day=12),
                           window_days=4, slots_per_batch=slots_per_batch, horizon=horizon,
                           naive_lag=lags[-1], seed=seed)
    except ConfigError:
        return
    log = run(config)
    with tempfile.TemporaryDirectory() as out:
        write_runlog(log, out)
        again = read_runlog(out)
    assert (again.stamp, again.policy_name) == (log.stamp, log.policy_name)
    assert len(again.records) == len(log.records)
    for mine, read in zip(log.records, again.records):
        assert np.array_equal(read.forecasts, mine.forecasts)
        assert np.array_equal(read.actuals, mine.actuals)
        fields_of = [(r.stream_id, r.batch_index, r.batch_end, r.decision,
                      r.p_value, r.statistic, r.retrain_seconds) for r in (mine, read)]
        assert fields_of[0] == fields_of[1]
    assert report_to_dict(build_report(again)) == report_to_dict(build_report(log))


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


# never 0, 1 or 2 (or a bool): open() of such an int reads or closes a
# standard stream, and 10**6 is a descriptor no process has open
@pytest.mark.parametrize("key", ["data_csv", "data_scenario"])
@pytest.mark.parametrize("value", [None, 10 ** 6, 1.5, ["x.csv"], {"path": "x.csv"}])
def test_path_sources_must_be_strings(key, value):
    with pytest.raises(ConfigError) as exc:
        config_from_dict({key: value, "window_days": 8})
    assert exc.value.field == key
    assert "must be a path string" in str(exc.value)


@pytest.mark.parametrize("key, value", [("pelt_min_seg_len", 1), ("every_k", 0)])
def test_config_from_dict_checks_keys_of_unselected_policies(key, value):
    # the policy is the default mean_test, yet another policy's bad value still fails
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"data_csv": "x.csv", key: value})
    assert exc.value.field == key


def _inline(**overrides):
    doc = {"data_scenario_inline": tiny_scenario(9).to_dict(), "window_days": 8}
    doc.update(overrides)
    return doc


# Flat config documents with their config hash and run label. The hash
# stamps every output file, so changing one changes the outputs.
PINNED_CONFIGS = [
    ({"data_csv": "panel.csv"}, "f8f6828b2da5", "forest/mean_test(alpha=0.05)"),
    ({"data_csv": "panel.csv", "forest_n_trees": 8.0, "alpha": "0.05", "seed": "2"},
     "7ad249b80a20", "forest/mean_test(alpha=0.05)"),
    ({"data_csv": "panel.csv", "forest_n_trees": 8, "alpha": 0.05, "seed": 2},
     "7ad249b80a20", "forest/mean_test(alpha=0.05)"),
    ({"data_csv": "panel.csv", "forecaster": "naive", "policy": "never"}, "3a7f380f79f6", "naive/never"),
    (_inline(forecaster="naive", policy="pelt"), "ac0c151c60a8", "naive/pelt"),
    (_inline(forecaster="naive", policy="pelt", pelt_penalty=12.5, pelt_min_seg_len=4),
     "1e677b11b692", "naive/pelt(penalty=12.5,min_seg_len=4)"),
    (_inline(forecaster="lasso", policy="every_k", every_k=3, lasso_n_lambda=20,
             lasso_lambda_min_ratio=0.01, lasso_tol=1e-7, lasso_max_iter=500),
     "a966d0b7e7e2", "lasso/every_3"),
    (_inline(policy="every_k"), "c389f7abb8ed", "forest/every_1"),
    (_inline(alpha=0.01, max_reference_len=600, reseed_with_rejecting_batch=True,
             forest_n_trees=8, forest_mtry=3, forest_min_node_size=20, forest_bootstrap=False),
     "a0e5e080eb79",
     "forest/mean_test(alpha=0.01,max_reference_len=600,reseed_with_rejecting_batch=True)"),
    (_inline(reseed_with_rejecting_batch=True), "b334ff0dca2c",
     "forest/mean_test(alpha=0.05,reseed_with_rejecting_batch=True)"),
    (_inline(forecaster="boosting", alpha=0.2, boosting_n_rounds=7, boosting_max_depth=3,
             boosting_learning_rate=0.1, boosting_min_split_gain=0.5, boosting_colsample=0.5,
             boosting_min_child_weight=4.0, boosting_subsample=0.8),
     "d42f7b977a2a", "boosting/mean_test(alpha=0.2)"),
    ({"data_csv": "panel.csv", "forecaster": "naive", "max_reference_len": 120,
      "lags": [420, 30, 60], "slots_per_day": 60, "days_per_week": 5, "include_trend": False,
      "include_hour_dummies": False, "include_dow_dummies": True, "window_days": 10,
      "slots_per_batch": 30, "horizon": 30, "naive_lag": 60, "seed": 3},
     "03e29a862f8a", "naive/mean_test(alpha=0.05,max_reference_len=120)"),
]


def test_config_hash_is_stable(tmp_path):
    hashes = []
    for doc, expected_hash, expected_label in PINNED_CONFIGS:
        config = config_from_dict(doc)
        hashes.append(config.config_hash())
        assert config.config_hash() == expected_hash, doc
        assert run_label(config) == expected_label
        assert config_from_dict({**doc, "out_dir": str(tmp_path)}).config_hash() == expected_hash
        assert config_from_dict(config.to_flat_dict()).config_hash() == expected_hash
    assert len(set(hashes)) == len(hashes) - 1  # only the 8.0 / "0.05" / "2" spelling repeats
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(tiny_scenario(9).to_dict()))
    from_file = config_from_dict({"data_scenario": str(scenario), "window_days": 8})
    assert from_file.config_hash() == config_from_dict(_inline()).config_hash()


# Each of these passed validation once and then crashed in run or was
# silently changed (a string "false" read as true, 2.9 trees as 2, ...); the
# flat document and the dataclass holding the value must both reject it.
BAD_VALUES = [
    pytest.param({"forecaster": "forest", "forest_mtry": 2.5}, lambda: ForestParams(mtry=2.5),
                 id="forest_mtry-2.5"),
    pytest.param({"max_reference_len": 2.5}, lambda: MeanTestPolicy(max_reference_len=2.5),
                 id="max_reference_len-2.5"),
    pytest.param({"lags": [60.5, 420]}, lambda: FeatureSpec(lags=(60.5, 420)), id="lags-60.5"),
    pytest.param({"seed": -1}, lambda: naive_config(NeverPolicy(), seed=-1), id="seed--1"),
    pytest.param({"forecaster": "boosting", "boosting_min_child_weight": float("nan")},
                 lambda: BoostingParams(min_child_weight=float("nan")),
                 id="boosting_min_child_weight-nan"),
    pytest.param({"include_trend": "false"}, lambda: FeatureSpec(include_trend="false"),
                 id="include_trend-str"),
    pytest.param({"forecaster": "forest", "forest_bootstrap": "false"},
                 lambda: ForestParams(bootstrap="false"), id="forest_bootstrap-str"),
    pytest.param({"policy": "pelt", "horizon": True},
                 lambda: naive_config(PeltPolicy(), horizon=True), id="horizon-true"),
    pytest.param({"forecaster": "forest", "forest_n_trees": 2.9},
                 lambda: ForestParams(n_trees=2.9), id="forest_n_trees-2.9"),
    pytest.param({"policy": "pelt", "pelt_penalty": float("nan")},
                 lambda: PeltPolicy(penalty=float("nan")), id="pelt_penalty-nan"),
]


@pytest.mark.parametrize("bad, construct", BAD_VALUES)
def test_bad_config_values_fail_validation(bad, construct):
    with pytest.raises(ConfigError):
        config_from_dict(_inline(**{"forecaster": "naive", **bad}))
    with pytest.raises(ConfigError):
        construct()


def test_readme_schema_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Run config schema", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            keys.update(re.findall(r"`(\w+)`", row.split(" | ")[0]))
    assert keys == config_keys()
    assert len(keys) == 38


# Integral floats in count fields and an int in a float field used to pass
# validation as given: the counts then crashed run with a TypeError, and the
# int changed the config hash of an otherwise equal config.
@pytest.mark.parametrize("overrides", [
    {"horizon": 60.0},
    {"source": RegimeScenario(n_streams=2, n_days=30.0, slots_per_day=60, noise_scale=0.0)},
], ids=["horizon-60.0", "n_days-30.0"])
def test_integral_float_counts_run(overrides):
    config = naive_config(NeverPolicy(), **overrides)
    log = run(config)
    reference = run(naive_config(NeverPolicy()))
    assert [r.forecasts.tolist() for r in log.records] == \
        [r.forecasts.tolist() for r in reference.records]
    assert isinstance(config.horizon, int) and isinstance(config.source.n_days, int)


def test_equal_configs_hash_equal():
    boosting = RunConfig(source="p.csv", forecaster="boosting")
    as_int = RunConfig(source="p.csv", forecaster="boosting",
                       hyperparams=HyperParams(boosting=BoostingParams(min_split_gain=0)))
    assert as_int == boosting
    assert as_int.config_hash() == boosting.config_hash() == "3fd27c1bed5c"


def test_inline_scenario_with_fractional_count_fails_validation():
    scenario = tiny_scenario().to_dict()
    scenario["n_days"] = 30.5
    with pytest.raises(ConfigError):
        config_from_dict({"data_scenario_inline": scenario, "window_days": 8})
    with pytest.raises(ConfigError):
        RegimeScenario(n_days=30.5)


def test_scenario_lists_are_stored_as_parsed():
    # integer base levels used to stay ints, so an equal scenario hashed differently
    as_ints = RegimeScenario(n_streams=2, base_levels=[20, 30], level_shifts=([5, 0, 2],))
    as_floats = RegimeScenario(n_streams=2, base_levels=(20.0, 30.0),
                               level_shifts=((5, 0, 2.0),))
    assert as_ints.to_dict() == as_floats.to_dict()
    assert all(type(v) is float for v in as_ints.base_levels + as_ints.level_shifts[0][2:])
    assert (naive_config(NeverPolicy(), source=as_ints).config_hash()
            == naive_config(NeverPolicy(), source=as_floats).config_hash())


def test_every_config_field_has_a_parser():
    nested = ("source", "policy", "hyperparams", "feature_spec")
    classes = [RunConfig, FeatureSpec, *(f.default_factory for f in fields(HyperParams)),
               *POLICIES.values(), RegimeScenario, NullStudyConfig]
    for cls in classes:
        for f in fields(cls):
            if f.init and f.name not in nested:
                assert f.type.removesuffix(" | None") in _PARSERS, (cls.__name__, f.name)


@st.composite
def scenario_documents(draw):
    """Scenario documents whose fields are each valid, or now and then wrong in
    type, finiteness or range."""
    n_streams, n_days = draw(st.integers(1, 3)), draw(st.integers(10, 12))
    nan, inf = float("nan"), float("inf")
    shift = st.tuples(st.integers(1, n_days), st.integers(0, n_streams - 1),
                      st.floats(1e-300, 1e60)).map(list)
    choices = {
        "n_streams": (st.just(n_streams), [0, -1, 1.5, nan, "x", None, True]),
        "n_days": (st.sampled_from([n_days, float(n_days), str(n_days)]),
                   [0, -1, 10.5, inf, "x", None, True]),
        "slots_per_day": (st.just(60), [0, -60, 59.5, "x", None, False]),
        "days_per_week": (st.integers(1, 7), [0, -7, 6.5, nan, "x", None, True]),
        "base_levels": (st.none() | st.lists(st.floats(-1e60, 1e60), min_size=n_streams,
                                             max_size=n_streams),
                        [[nan] * n_streams, [inf] * n_streams, ["a"] * n_streams,
                         [True] * n_streams, [1.0] * (n_streams + 1), 5.0, "x"]),
        "level_shifts": (st.lists(shift, max_size=3),
                         [[[0, 0, 2.0]], [[n_days + 1, 0, 2.0]], [[2.5, 0, 2.0]],
                          [[True, 0, 2.0]], [[2, -1, 2.0]], [[2, n_streams, 2.0]],
                          [[2, True, 2.0]], [[2, 0, 0.0]], [[2, 0, -1.0]], [[2, 0, nan]],
                          [[2, 0, inf]], [[2, 0, "x"]], [[2, 0]], [3], "x", None]),
        "noise_scale": (st.floats(-1e60, 1e60), [nan, inf, "x", None, True]),
        "noise_correlation": (st.floats(-0.99, 0.99), [1.0, -1.0, nan, "x", None]),
        "seed": (st.integers(0, 2**32), [-1, 1.5, "x", None, True]),
    }
    # each field is wrong about one time in twenty, so about a third of the
    # documents are valid (7 rather than 0: hypothesis favours the bounds)
    return {key: draw(st.sampled_from(wrong)) if draw(st.integers(0, 19)) == 7 else draw(valid)
            for key, (valid, wrong) in choices.items()}


@settings(max_examples=150, deadline=None)
@given(doc=scenario_documents())
def test_scenario_documents_fail_validation_or_run(doc):
    try:
        config = config_from_dict({"data_scenario_inline": doc, "forecaster": "naive",
                                   "window_days": 8})
    except ConfigError:
        return
    log = run(config)
    n_batches = max(r.batch_index for r in log.records)
    assert len(log.records) == len(log.stream_ids) * n_batches
    assert all(np.isfinite(r.forecasts).all() for r in log.records)
