"""End-to-end monitored forecasting across all streams of a panel.

The loop walks batch ends left to right. At each forecast origin the current
models produce the next horizon of forecasts; one batch later those
forecasts meet their actuals, their squared errors go to the per-stream
monitor, and a retrain decision refits that stream's model on the trailing
window before the next forecasts are made. A panel must be batched as the
config says, so no loss batch reaches past its decision point. The final
batch is scored for accuracy but carries no decision: no forecast follows it.

Every run is a pure function of (config, seed): model seeds derive from
(seed, stream, fit count), so logs reproduce bit-identically, wall-clock
timings aside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

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
from .monitor import (POLICIES, MeanTestPolicy, MonitorDecision, MonitorState, Policy,
                      new_state, observe)
from .schema import bounded, check_fields, config_errors, document_hash, parse_field, read_json
from .simulate import RegimeScenario, gen_regime_streams
from .streams import StreamSet, batch_ends, ingest_csv

FORECASTERS = ("naive", "lasso", "forest", "boosting")
SOURCES = ("data_csv", "data_scenario", "data_scenario_inline")


@dataclass(frozen=True)
class RunConfig:
    source: str | RegimeScenario  # CSV path or in-process scenario
    forecaster: str = "forest"
    policy: Policy = field(default_factory=MeanTestPolicy)
    hyperparams: HyperParams = field(default_factory=HyperParams)
    feature_spec: FeatureSpec = field(default_factory=FeatureSpec)
    window_days: int = bounded(180, "[1, inf)")
    slots_per_batch: int = bounded(60, "[1, inf)")
    horizon: int = 60
    naive_lag: int = 420
    seed: int = bounded(0, "[0, inf)")
    out_dir: str | None = None

    def __post_init__(self):
        check_fields(self)
        if self.forecaster not in FORECASTERS:
            raise ConfigError("forecaster", f"must be one of {FORECASTERS}")
        if self.horizon < self.policy.min_batch_losses:
            raise ConfigError("horizon", f"must be >= {self.policy.min_batch_losses}: the "
                                         f"{self.policy.name} policy needs that many losses "
                                         "per batch")
        if self.horizon > self.slots_per_batch:
            raise ConfigError(
                "horizon", "must be <= slots_per_batch so each loss batch is complete "
                "before the next decision point"
            )
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
        return document_hash(self.to_flat_dict())

    def to_flat_dict(self) -> dict:
        """The flat config document; only the forecaster's own knobs appear."""
        if isinstance(self.source, RegimeScenario):
            d: dict = {"data_scenario_inline": self.source.to_dict()}
        else:
            d = {"data_csv": str(self.source)}
        d["policy"] = self.policy.name
        d.update(self.policy.params())
        parts = [("", self), ("", self.feature_spec)]
        if self.forecaster in _HP_SECTIONS:
            parts.append((f"{self.forecaster}_", getattr(self.hyperparams, self.forecaster)))
        for prefix, part in parts:
            for key, f in _flat_fields(type(part), prefix).items():
                d[key] = getattr(part, f.name)
        del d["out_dir"]  # where outputs go does not change them
        return d


# The flat config schema: every key is a prefix plus a dataclass field name.
# RunConfig and FeatureSpec fields take none, hyperparameters take their
# forecaster's name (forest_n_trees) and policy fields their class's
# key_prefix (pelt_penalty, every_k).

_NESTED = ("source", "policy", "hyperparams", "feature_spec")
_HP_SECTIONS = {f.name: f.default_factory for f in fields(HyperParams)}


def _flat_fields(cls, prefix: str = "") -> dict:
    """Flat key -> field, for each scalar field of the dataclass ``cls``."""
    return {prefix + f.name: f for f in fields(cls) if f.init and f.name not in _NESTED}


def config_fields() -> dict:
    """Flat key -> dataclass field, for every key but the sources and ``policy``."""
    out = {**_flat_fields(RunConfig), **_flat_fields(FeatureSpec)}
    for name, cls in _HP_SECTIONS.items():
        out.update(_flat_fields(cls, f"{name}_"))
    for cls in POLICIES.values():
        out.update(_flat_fields(cls, cls.key_prefix))
    return out


def config_keys() -> set[str]:
    """Every key a flat config document may hold."""
    return {*SOURCES, "policy", *config_fields()}


def _parse(data: dict, cls, prefix: str = "") -> dict:
    """Constructor arguments of ``cls`` from its flat keys present in ``data``."""
    return {f.name: parse_field(f, key, data[key])
            for key, f in _flat_fields(cls, prefix).items() if key in data}


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from the flat key-value document (see README schema)."""
    unknown = set(data) - config_keys()
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config key")
    sources = [k for k in SOURCES if k in data]
    if len(sources) != 1:
        raise ConfigError("data_csv", "exactly one of data_csv, data_scenario, "
                                      "data_scenario_inline is required")
    with config_errors(sources[0]):  # a scenario's own errors name their field
        if "data_csv" in data:
            source: str | RegimeScenario = str(data["data_csv"])
        elif "data_scenario_inline" in data:
            source = RegimeScenario.from_dict(data["data_scenario_inline"])
        else:
            source = RegimeScenario.from_dict(read_json(data["data_scenario"], "data_scenario"))
    with config_errors("config"):
        name = data.get("policy", "mean_test")
        if not (isinstance(name, str) and name in POLICIES):
            raise ConfigError("policy", f"unknown policy {name!r}")
        # Every policy and forecaster section checks its own keys; the run
        # uses only the selected ones.
        policies = {key: cls(**_parse(data, cls, cls.key_prefix))
                    for key, cls in POLICIES.items()}
        hp = HyperParams(**{key: cls(**_parse(data, cls, f"{key}_"))
                            for key, cls in _HP_SECTIONS.items()})
        return RunConfig(source=source, policy=policies[name], hyperparams=hp,
                         feature_spec=FeatureSpec(**_parse(data, FeatureSpec)),
                         **_parse(data, RunConfig))


def load_config(path: str) -> RunConfig:
    data = read_json(path, "config")
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


_NO_DECISION = MonitorDecision(retrain=False)  # the final batch's: no forecast follows it


def run(config: RunConfig, stream_set: StreamSet | None = None) -> RunLog:
    """Execute the monitored forecasting loop and return the full log."""
    streams = stream_set if stream_set is not None else materialize(config)
    if streams.slots_per_batch != config.slots_per_batch:
        raise ConfigError("slots_per_batch", f"is {config.slots_per_batch} but the panel "
                                             f"has {streams.slots_per_batch}")
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
    models: list[ForecastModel] = [None] * n_streams  # type: ignore[list-item]
    tokens = [""] * n_streams
    states: list[MonitorState] = [new_state(config.policy) for _ in range(n_streams)]

    def refit(i: int, at_tick: int) -> float:
        start = time.perf_counter()
        data = training_set(streams, spec, i, at_tick, config.window_days)
        models[i] = _fit_model(config, data, streams.stream_ids[i], i, fit_counts[i], at_tick)
        tokens[i] = f"{config.forecaster}@{at_tick}#{fit_counts[i]}"
        fit_counts[i] += 1
        return time.perf_counter() - start

    for i in range(n_streams):
        refit(i, ends[0])
    # Batch idx is forecast at its origin and scored on the Q ticks after it;
    # a retrain refits at the next origin. The last batch is not decided on.
    for idx, origin in enumerate(ends, start=1):
        final = idx == len(ends)
        F = feature_matrix(streams, spec, np.arange(origin + 1, origin + Q + 1))
        actual_rows = streams.values[origin:origin + Q, :]  # ticks origin+1..origin+Q
        for i in range(n_streams):
            forecasts, actuals = predict_matrix(models[i], F), actual_rows[:, i]
            losses = squared_loss_batch(actuals, forecasts)
            made_by = tokens[i]
            decision = _NO_DECISION if final else observe(states[i], losses)
            seconds = refit(i, ends[idx]) if decision.retrain else 0.0
            log.append(BatchRecord(
                stream_id=streams.stream_ids[i], batch_index=idx,
                batch_end=origin + Q, forecasts=forecasts, actuals=actuals,
                decision="final" if final else config.policy.label(decision),
                p_value=decision.test.p_value if decision.test else None,
                statistic=decision.test.statistic if decision.test else None,
                model_token=made_by, retrain_seconds=seconds,
            ))
    return log


# ---------------------------------------------------------------------------
# Side-by-side policy comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRun:
    label: str
    log: RunLog
    report: Report


def run_label(config: RunConfig) -> str:
    return f"{config.forecaster}/{config.policy.tag()}"


def compare_policies(configs: list[RunConfig]) -> list[ComparisonRun]:
    """Run several configs on the identical data and report side by side.

    Configs must agree on the data source and everything that shapes it;
    only the forecaster, hyperparameters and updating policy may differ.
    Runs are keyed by ``run_label``, which names the forecaster and the
    policy alone, so two different configs may not share a label.
    """
    if not configs:
        raise ConfigError("configs", "need at least one config")
    first = configs[0]
    for other in configs[1:]:
        for fld in ("source", "feature_spec", "window_days", "slots_per_batch",
                    "horizon", "seed"):
            if getattr(other, fld) != getattr(first, fld):
                raise ConfigError(fld, "must match across compared configs")
    by_label: dict[str, RunConfig] = {}
    for config in configs:
        label = run_label(config)
        if by_label.setdefault(label, config) != config:
            raise ConfigError("configs", f"two different configs share the run label {label!r}, "
                                         "which names only the forecaster and the policy")
    streams = materialize(first)
    runs = []
    for config in configs:
        log = run(config, stream_set=streams)
        runs.append(ComparisonRun(label=run_label(config), log=log,
                                  report=build_report(log)))
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
