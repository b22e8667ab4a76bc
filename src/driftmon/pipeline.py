"""End-to-end monitored forecasting across all streams of a panel.

The loop walks batch ends left to right. At each forecast origin the current
models produce the next horizon of forecasts; one batch later those
forecasts meet their actuals, the loss batch goes to the per-stream monitor,
and a retrain decision refits that stream's model on the trailing window
before the next forecasts are made. The final observed batch is scored for
accuracy but carries no monitor decision, since no forecast would follow it.

Every run is a pure function of (config, seed): model seeds derive from
(seed, stream, fit count), so logs reproduce bit-identically, wall-clock
timings aside.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InsufficientHistory
from .evaluate import BatchRecord, Report, RunLog, build_report, squared_loss_batch
from .features import DesignMatrix, FeatureSpec, feature_matrix, training_set
from .forecasters import (
    ForecastModel,
    HyperParams,
    fit_boosting,
    fit_forest,
    fit_lasso,
    fit_naive,
    predict_matrix,
)
from .monitor import (
    EveryKBatches,
    MeanTestPolicy,
    MonitorState,
    NeverPolicy,
    PeltPolicy,
    Policy,
    new_state,
    observe,
)
from .simulate import RegimeScenario, gen_regime_streams
from .streams import StreamSet, batch_ends, ingest_csv

FORECASTERS = ("naive", "lasso", "forest", "boosting")


@dataclass(frozen=True)
class RunConfig:
    source: str | RegimeScenario  # CSV path or in-process scenario
    forecaster: str = "forest"
    policy: Policy = field(default_factory=MeanTestPolicy)
    hyperparams: HyperParams = field(default_factory=HyperParams)
    feature_spec: FeatureSpec = field(default_factory=FeatureSpec)
    window_days: int = 180
    slots_per_batch: int = 60
    horizon: int = 60
    naive_lag: int = 420
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if self.forecaster not in FORECASTERS:
            raise ConfigError("forecaster", f"must be one of {FORECASTERS}")
        if self.slots_per_batch < 1:
            raise ConfigError("slots_per_batch", "must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
        if self.horizon > self.slots_per_batch:
            raise ConfigError(
                "horizon", "must be <= slots_per_batch so each loss batch is complete "
                "before the next decision point"
            )
        if self.horizon < 2 and isinstance(self.policy, MeanTestPolicy):
            raise ConfigError("horizon", "must be >= 2 for the mean_test policy, whose "
                                         "Welch test needs two losses per batch")
        if self.window_days < 1:
            raise ConfigError("window_days", "must be >= 1")
        if min(self.feature_spec.lags) < self.horizon:
            raise ConfigError(
                "lags", f"min lag {min(self.feature_spec.lags)} is below the horizon "
                f"{self.horizon}; forecasts would need unobserved values"
            )
        if self.window_days * self.feature_spec.slots_per_day <= self.feature_spec.max_lag:
            raise ConfigError(
                "window_days", "training window must be longer than the maximum lag"
            )
        if self.forecaster == "naive" and self.naive_lag not in self.feature_spec.lags:
            raise ConfigError("naive_lag", f"{self.naive_lag} is not one of the configured lags")

    def config_hash(self) -> str:
        payload = json.dumps(self.to_flat_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_flat_dict(self) -> dict:
        d: dict = {}
        if isinstance(self.source, RegimeScenario):
            d["data_scenario_inline"] = self.source.to_dict()
        else:
            d["data_csv"] = str(self.source)
        d["forecaster"] = self.forecaster
        policy = self.policy
        d["policy"] = policy.name
        if isinstance(policy, MeanTestPolicy):
            d["alpha"] = policy.alpha
            if policy.max_reference_len is not None:
                d["max_reference_len"] = policy.max_reference_len
            if policy.reseed_with_rejecting_batch:
                d["reseed_with_rejecting_batch"] = True
        elif isinstance(policy, PeltPolicy):
            d["pelt_penalty"] = policy.penalty
            d["pelt_min_seg_len"] = policy.min_seg_len
        elif isinstance(policy, EveryKBatches):
            d["every_k"] = policy.k
        spec = self.feature_spec
        d.update(
            lags=list(spec.lags), slots_per_day=spec.slots_per_day,
            days_per_week=spec.days_per_week, include_trend=spec.include_trend,
            include_hour_dummies=spec.include_hour_dummies,
            include_dow_dummies=spec.include_dow_dummies,
            window_days=self.window_days, slots_per_batch=self.slots_per_batch,
            horizon=self.horizon, naive_lag=self.naive_lag, seed=self.seed,
        )
        hp = self.hyperparams
        if self.forecaster == "forest":
            d.update(forest_n_trees=hp.forest.n_trees, forest_mtry=hp.forest.mtry,
                     forest_min_node_size=hp.forest.min_node_size,
                     forest_bootstrap=hp.forest.bootstrap)
        elif self.forecaster == "boosting":
            d.update(boosting_n_rounds=hp.boosting.n_rounds,
                     boosting_max_depth=hp.boosting.max_depth,
                     boosting_learning_rate=hp.boosting.learning_rate,
                     boosting_min_split_gain=hp.boosting.min_split_gain,
                     boosting_colsample=hp.boosting.colsample,
                     boosting_min_child_weight=hp.boosting.min_child_weight,
                     boosting_subsample=hp.boosting.subsample)
        elif self.forecaster == "lasso":
            d.update(lasso_n_lambda=hp.lasso.n_lambda,
                     lasso_lambda_min_ratio=hp.lasso.lambda_min_ratio,
                     lasso_tol=hp.lasso.tol, lasso_max_iter=hp.lasso.max_iter)
        return d


_CONFIG_KEYS = {
    "data_csv", "data_scenario", "data_scenario_inline", "forecaster", "policy",
    "alpha", "max_reference_len", "reseed_with_rejecting_batch",
    "pelt_penalty", "pelt_min_seg_len", "every_k",
    "lags", "slots_per_day", "days_per_week", "include_trend",
    "include_hour_dummies", "include_dow_dummies",
    "window_days", "slots_per_batch", "horizon", "naive_lag", "seed", "out_dir",
    "forest_n_trees", "forest_mtry", "forest_min_node_size", "forest_bootstrap",
    "boosting_n_rounds", "boosting_max_depth", "boosting_learning_rate",
    "boosting_min_split_gain", "boosting_colsample", "boosting_min_child_weight",
    "boosting_subsample",
    "lasso_n_lambda", "lasso_lambda_min_ratio", "lasso_tol", "lasso_max_iter",
}


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from the flat key-value document (see README schema)."""
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config key")
    sources = [k for k in ("data_csv", "data_scenario", "data_scenario_inline") if k in data]
    if len(sources) != 1:
        raise ConfigError("data_csv", "exactly one of data_csv, data_scenario, "
                                      "data_scenario_inline is required")
    if "data_csv" in data:
        source: str | RegimeScenario = str(data["data_csv"])
    elif "data_scenario_inline" in data:
        source = RegimeScenario.from_dict(data["data_scenario_inline"])
    else:
        with open(data["data_scenario"], encoding="utf-8") as handle:
            source = RegimeScenario.from_dict(json.load(handle))

    policy_name = data.get("policy", "mean_test")
    try:
        if policy_name == "mean_test":
            policy: Policy = MeanTestPolicy(
                alpha=float(data.get("alpha", 0.05)),
                max_reference_len=data.get("max_reference_len"),
                reseed_with_rejecting_batch=bool(data.get("reseed_with_rejecting_batch", False)),
            )
        elif policy_name == "pelt":
            penalty = data.get("pelt_penalty")
            policy = PeltPolicy(penalty=None if penalty is None else float(penalty),
                                min_seg_len=int(data.get("pelt_min_seg_len", 2)))
        elif policy_name == "every_k":
            policy = EveryKBatches(k=int(data.get("every_k", 1)))
        elif policy_name == "never":
            policy = NeverPolicy()
        else:
            raise ConfigError("policy", f"unknown policy {policy_name!r}")
        spec = FeatureSpec(
            lags=tuple(data.get("lags", (60, 420))),
            slots_per_day=int(data.get("slots_per_day", 60)),
            days_per_week=int(data.get("days_per_week", 7)),
            include_trend=bool(data.get("include_trend", True)),
            include_hour_dummies=bool(data.get("include_hour_dummies", True)),
            include_dow_dummies=bool(data.get("include_dow_dummies", True)),
        )
        hp = HyperParams()
        if any(k.startswith("forest_") for k in data):
            hp = replace(hp, forest=replace(
                hp.forest,
                n_trees=int(data.get("forest_n_trees", hp.forest.n_trees)),
                mtry=data.get("forest_mtry", hp.forest.mtry),
                min_node_size=int(data.get("forest_min_node_size", hp.forest.min_node_size)),
                bootstrap=bool(data.get("forest_bootstrap", hp.forest.bootstrap)),
            ))
        if any(k.startswith("boosting_") for k in data):
            hp = replace(hp, boosting=replace(
                hp.boosting,
                n_rounds=int(data.get("boosting_n_rounds", hp.boosting.n_rounds)),
                max_depth=int(data.get("boosting_max_depth", hp.boosting.max_depth)),
                learning_rate=float(data.get("boosting_learning_rate", hp.boosting.learning_rate)),
                min_split_gain=float(data.get("boosting_min_split_gain", hp.boosting.min_split_gain)),
                colsample=float(data.get("boosting_colsample", hp.boosting.colsample)),
                min_child_weight=float(data.get("boosting_min_child_weight", hp.boosting.min_child_weight)),
                subsample=float(data.get("boosting_subsample", hp.boosting.subsample)),
            ))
        if any(k.startswith("lasso_") for k in data):
            hp = replace(hp, lasso=replace(
                hp.lasso,
                n_lambda=int(data.get("lasso_n_lambda", hp.lasso.n_lambda)),
                lambda_min_ratio=float(data.get("lasso_lambda_min_ratio", hp.lasso.lambda_min_ratio)),
                tol=float(data.get("lasso_tol", hp.lasso.tol)),
                max_iter=int(data.get("lasso_max_iter", hp.lasso.max_iter)),
            ))
        return RunConfig(
            source=source,
            forecaster=str(data.get("forecaster", "forest")),
            policy=policy,
            hyperparams=hp,
            feature_spec=spec,
            window_days=int(data.get("window_days", 180)),
            slots_per_batch=int(data.get("slots_per_batch", 60)),
            horizon=int(data.get("horizon", 60)),
            naive_lag=int(data.get("naive_lag", 420)),
            seed=int(data.get("seed", 0)),
            out_dir=data.get("out_dir"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError("config", str(exc))


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError("config", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config", f"{path} must contain a JSON object")
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def materialize(config: RunConfig) -> StreamSet:
    if isinstance(config.source, RegimeScenario):
        streams = gen_regime_streams(config.source)
        if streams.slots_per_batch != config.slots_per_batch:
            streams = StreamSet(values=streams.values, stream_ids=streams.stream_ids,
                                slots_per_batch=config.slots_per_batch)
        return streams
    return ingest_csv(config.source, slots_per_batch=config.slots_per_batch)


def _fit_seed(master_seed: int, stream_index: int, fit_count: int) -> int:
    return int(np.random.SeedSequence((master_seed, stream_index, fit_count)).generate_state(1)[0])


def _fit_model(config: RunConfig, data: DesignMatrix | None, stream_id: str,
               stream_index: int, fit_count: int, trained_at: int) -> ForecastModel:
    kind = config.forecaster
    if kind == "naive":
        return fit_naive(config.naive_lag, horizon=config.horizon,
                         feature_names=data.column_names, target_stream=stream_id,
                         trained_at=trained_at)
    seed = _fit_seed(config.seed, stream_index, fit_count)
    if kind == "lasso":
        return fit_lasso(data, config.hyperparams, trained_at=trained_at)
    if kind == "forest":
        return fit_forest(data, config.hyperparams, seed, trained_at=trained_at)
    return fit_boosting(data, config.hyperparams, seed, trained_at=trained_at)


def _shift_batches(scenario: RegimeScenario, stream_ids, origins, horizon) -> dict:
    """Map scenario shifts to the first evaluation batch whose actuals include them."""
    out: dict[str, list[int]] = {}
    for day, stream, _mult in scenario.level_shifts:
        shift_tick = (day - 1) * scenario.slots_per_day + 1
        ordinal = None
        for j in range(1, len(origins)):
            if origins[j - 1] + horizon >= shift_tick:
                ordinal = j
                break
        if ordinal is not None:
            out.setdefault(stream_ids[stream], []).append(ordinal)
    return out


def run(config: RunConfig, stream_set: StreamSet | None = None) -> RunLog:
    """Execute the monitored forecasting loop and return the full log."""
    streams = stream_set if stream_set is not None else materialize(config)
    spec = config.feature_spec
    B, Q = config.slots_per_batch, config.horizon
    T = streams.n_ticks
    t0 = config.window_days * spec.slots_per_day
    if t0 % B != 0:
        t0 += B - t0 % B  # first batch end with a full training window behind it
    if t0 + Q > T:
        raise InsufficientHistory(
            f"stream has {T} ticks; initial window needs {t0} plus a {Q}-step horizon"
        )
    ends = [b for b in batch_ends(streams) if b >= t0 and b + Q <= T]
    if len(ends) < 2:
        raise InsufficientHistory("need at least two forecast origins past the initial window")

    log = RunLog(stream_ids=streams.stream_ids, horizon=Q,
                 policy_name=config.policy.name, forecaster=config.forecaster,
                 seed=config.seed, config_hash=config.config_hash())
    if isinstance(config.source, RegimeScenario):
        log.meta["shift_batches"] = _shift_batches(config.source, streams.stream_ids,
                                                   ends, Q)

    n_streams = streams.n_streams
    fit_counts = [0] * n_streams
    models: list[ForecastModel] = []
    tokens: list[str] = []
    states: list[MonitorState] = [new_state(config.policy) for _ in range(n_streams)]

    def refit(i: int, at_tick: int) -> float:
        start = time.perf_counter()
        data = training_set(streams, spec, i, at_tick, config.window_days)
        models[i] = _fit_model(config, data, streams.stream_ids[i], i, fit_counts[i], at_tick)
        tokens[i] = f"{config.forecaster}@{at_tick}#{fit_counts[i]}"
        fit_counts[i] += 1
        return time.perf_counter() - start

    for i in range(n_streams):
        models.append(None)  # type: ignore[arg-type]
        tokens.append("")
        refit(i, ends[0])

    pending: list[np.ndarray] = [np.empty(0)] * n_streams
    for idx, b in enumerate(ends):
        if idx > 0:
            origin = ends[idx - 1]
            actual_rows = streams.values[origin:origin + Q, :]  # ticks origin+1..origin+Q
            for i in range(n_streams):
                forecasts = pending[i]
                actuals = actual_rows[:, i]
                loss = squared_loss_batch(actuals, forecasts, batch_index=idx,
                                          stream_id=streams.stream_ids[i])
                made_by = tokens[i]
                decision = observe(states[i], loss.losses)
                if isinstance(config.policy, MeanTestPolicy):
                    if decision.test is None:
                        label = "warmup"
                    else:
                        label = "reject" if decision.retrain else "accept"
                else:
                    label = "retrain" if decision.retrain else "hold"
                seconds = refit(i, b) if decision.retrain else 0.0
                log.append(BatchRecord(
                    stream_id=streams.stream_ids[i], batch_index=idx,
                    batch_end=origin + Q, forecasts=forecasts, actuals=actuals.copy(),
                    losses=loss.losses, policy=config.policy.name, decision=label,
                    retrain=decision.retrain,
                    p_value=decision.test.p_value if decision.test else None,
                    statistic=decision.test.statistic if decision.test else None,
                    model_token=made_by, retrain_seconds=seconds,
                ))
        F = feature_matrix(streams, spec, np.arange(b + 1, b + Q + 1))
        for i in range(n_streams):
            pending[i] = predict_matrix(models[i], F)

    # Final observed batch: scored for accuracy, no decision follows it.
    origin = ends[-1]
    actual_rows = streams.values[origin:origin + Q, :]
    for i in range(n_streams):
        loss = squared_loss_batch(actual_rows[:, i], pending[i], batch_index=len(ends),
                                  stream_id=streams.stream_ids[i])
        log.append(BatchRecord(
            stream_id=streams.stream_ids[i], batch_index=len(ends),
            batch_end=origin + Q, forecasts=pending[i], actuals=actual_rows[:, i].copy(),
            losses=loss.losses, policy=config.policy.name, decision="final",
            retrain=False, p_value=None, statistic=None, model_token=tokens[i],
        ))
    return log


# ---------------------------------------------------------------------------
# Side-by-side policy comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRun:
    label: str
    config: RunConfig
    log: RunLog
    report: Report


def run_label(config: RunConfig) -> str:
    policy = config.policy
    if isinstance(policy, MeanTestPolicy):
        tag = f"mean_test(alpha={policy.alpha:g})"
    elif isinstance(policy, PeltPolicy):
        tag = "pelt" if policy.penalty is None else f"pelt(penalty={policy.penalty:g})"
    elif isinstance(policy, EveryKBatches):
        tag = f"every_{policy.k}"
    else:
        tag = "never"
    return f"{config.forecaster}/{tag}"


def compare_policies(configs: list[RunConfig]) -> list[ComparisonRun]:
    """Run several configs on the identical data and report side by side.

    Configs must agree on the data source and everything that shapes it;
    only the forecaster, hyperparameters and updating policy may differ.
    """
    if not configs:
        raise ConfigError("configs", "need at least one config")
    first = configs[0]
    for other in configs[1:]:
        for fld in ("source", "feature_spec", "window_days", "slots_per_batch",
                    "horizon", "seed"):
            if getattr(other, fld) != getattr(first, fld):
                raise ConfigError(fld, "must match across compared configs")
    streams = materialize(first)
    runs = []
    for config in configs:
        log = run(config, stream_set=streams)
        runs.append(ComparisonRun(label=run_label(config), config=config,
                                  log=log, report=build_report(log)))
    return runs


def comparison_table(runs: list[ComparisonRun]) -> list[dict]:
    """Per-stream SMAPE rows keyed by stream, one column per run label."""
    if not runs:
        return []
    rows = []
    for stream in runs[0].report.streams:
        row: dict = {"stream_id": stream.stream_id}
        for cr in runs:
            match = next(s for s in cr.report.streams if s.stream_id == stream.stream_id)
            row[cr.label] = match.smape
        rows.append(row)
    avg_row: dict = {"stream_id": "average"}
    for cr in runs:
        avg_row[cr.label] = cr.report.avg_smape
    rows.append(avg_row)
    return rows
