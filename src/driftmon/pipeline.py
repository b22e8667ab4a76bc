"""End-to-end monitored forecasting across all streams of a panel.

The loop walks batch ends left to right. At each forecast origin the current
models produce the next horizon of forecasts; one batch later those
forecasts meet their actuals, their squared errors go to the per-stream
monitor, and a retrain decision refits that stream's model on the trailing
window before the next forecasts are made. A panel must be batched as the
config says, so no loss batch reaches past its decision point. The final
batch is scored for accuracy but carries no decision: no forecast follows it.

Every run is a pure function of (config, seed): model seeds derive from
(seed, stream, fit tick), so logs reproduce bit-identically, wall-clock
timings aside. All streams' training windows at a batch end hold the same
ticks, so the refits there share one design matrix (only the targets
differ), built once per refit tick: the forest and boosting fits share its
sorted columns, the lasso fits its Gram matrix, and the streams that need
one forest model grow their trees in one joint call. Compared runs are
stepped together through the same batch ends: policies that refit a stream
at the same tick get the same model, their common random numbers, which is
fit once and shared. A compared run's log therefore equals its solo run's,
and any accuracy gap between policies comes only from when they refit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .evaluate import Report, RunLog, build_report, squared_loss_batch
from .features import DesignMatrix, FeatureSpec, feature_matrix, training_set
from .forecasters import (
    ForecastModel,
    Gram,
    HyperParams,
    SortedColumns,
    fit_boosting,
    fit_forest,  # noqa: F401  (a name the benchmark's tracer wraps)
    fit_forests,
    fit_lasso,
    fit_naive,
    predict_matrix,
)
from .monitor import POLICIES, MeanTestPolicy, MonitorDecision, Policy, new_state, observe
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
    # open() would take an int as a file descriptor, and str() any value as a path
    if sources[0] != "data_scenario_inline" and not isinstance(data[sources[0]], str):
        raise ConfigError(sources[0], f"must be a path string, got {data[sources[0]]!r}")
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


def _fit_seed(master_seed: int, stream_index: int, trained_at: int) -> int:
    return int(np.random.SeedSequence((master_seed, stream_index, trained_at)).generate_state(1)[0])


def _fit_key(config: RunConfig) -> tuple:
    """What a fit at a given stream and tick depends on besides the seed, which
    compared configs share."""
    return config.forecaster, config.hyperparams, config.naive_lag


class _RefitTick:
    """The fits made at one batch end, and the training design they share.

    Every stream's window holds the same ticks, so the same design X; only
    the targets differ. ``training_set`` builds X once, for the first fit
    that needs a design, and X is then read-only, so a fit that wrote to it
    would fail loudly. ``SortedColumns(X)`` is made once, for the first
    forest or boosting fit, and the lasso's ``Gram(X)`` once, for the first
    lasso fit. ``fit_all`` makes all of the tick's fits at once, so the
    streams that need one forest are grown in one joint call.
    """

    def __init__(self, streams: StreamSet, spec: FeatureSpec, at_tick: int, window_days: int):
        self.streams, self.spec = streams, spec
        self.at_tick, self.window_days = at_tick, window_days
        self._fits: dict = {}
        self._design: DesignMatrix | None = None
        self._columns: SortedColumns | None = None
        self._gram: Gram | None = None

    def fit_all(self, wanted) -> None:
        """Make the fit of every (config, stream) pair in ``wanted``.

        A fit is a pure function of (``_fit_key``, stream, tick), so configs
        that agree on the key share it. The streams of one forest key are fit
        in one ``fit_forests`` call, whose seconds are split evenly among
        them; any other fit is made and timed on its own.
        """
        groups: dict = {}
        for config, i in wanted:
            streams = groups.setdefault(_fit_key(config), (config, []))[1]
            if i not in streams:
                streams.append(i)
        for key, (config, streams) in groups.items():
            for joint in [streams] if config.forecaster == "forest" else [[i] for i in streams]:
                start = time.perf_counter()
                models = _fit_models(config, self, joint)
                seconds = (time.perf_counter() - start) / len(joint)
                for i, model in zip(joint, models):
                    self._fits[key, i] = (model, seconds)

    def fit(self, config: RunConfig, i: int) -> tuple[ForecastModel, float]:
        """Stream i's model under ``config``, made by ``fit_all``, and its seconds."""
        return self._fits[_fit_key(config), i]

    def target(self, i: int) -> np.ndarray:
        """Stream i's targets over the shared design's rows, its last n ticks."""
        n = self._design.y.size
        return self.streams.values[self.at_tick - n:self.at_tick, i].copy()

    def design(self, i: int) -> DesignMatrix:
        """Stream i's training window: the shared X, and stream i's targets."""
        if self._design is None:
            self._design = training_set(self.streams, self.spec, i, self.at_tick,
                                        self.window_days)
            self._design.X.flags.writeable = False
        return replace(self._design, y=self.target(i))

    def columns(self) -> SortedColumns:
        """``SortedColumns`` of the shared X, once ``design`` has built it."""
        if self._columns is None:
            self._columns = SortedColumns(self._design.X)
        return self._columns

    def gram(self) -> Gram:
        """The lasso's ``Gram`` of the shared X, once ``design`` has built it."""
        if self._gram is None:
            self._gram = Gram(self._design.X)
        return self._gram


def _fit_models(config: RunConfig, tick: _RefitTick, streams: list[int]) -> list[ForecastModel]:
    """The models of ``streams`` under ``config`` at the tick: a forest's in one
    ``fit_forests`` call, any other kind's one stream at a time."""
    kind, trained_at = config.forecaster, tick.at_tick
    stream_ids = tick.streams.stream_ids
    if kind == "naive":
        return [fit_naive(config.naive_lag, horizon=config.horizon,
                          feature_names=config.feature_spec.column_names(stream_ids),
                          target_stream=stream_ids[i], trained_at=trained_at)
                for i in streams]
    seeds = [_fit_seed(config.seed, i, trained_at) for i in streams]
    if kind == "forest":
        return fit_forests(tick.design(streams[0]),
                           [(tick.target(i), seed) for i, seed in zip(streams, seeds)],
                           config.hyperparams, trained_at=trained_at, columns=tick.columns())
    if kind == "lasso":
        return [fit_lasso(tick.design(i), config.hyperparams, trained_at=trained_at,
                          gram=tick.gram()) for i in streams]
    return [fit_boosting(tick.design(i), config.hyperparams, seed, trained_at=trained_at,
                         columns=tick.columns()) for i, seed in zip(streams, seeds)]


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


def _forecast_origins(config: RunConfig, streams: StreamSet) -> list[int]:
    """The batch ends a run forecasts from, after checking the config against the panel.

    Raises ConfigError, naming the key, when the panel cannot hold the run:
    batches of another size, a training window that leaves fewer than two
    forecast origins, or a first training window with fewer rows than the
    forecaster's fit needs (the forest's node size, two for lasso and
    boosting). That window is the smallest: later ones lose fewer rows to
    the lag trim.
    """
    if streams.slots_per_batch != config.slots_per_batch:
        raise ConfigError("slots_per_batch", f"is {config.slots_per_batch} but the panel "
                                             f"has {streams.slots_per_batch}")
    spec = config.feature_spec
    B, Q = config.slots_per_batch, config.horizon
    T = streams.n_ticks
    window = config.window_days * spec.slots_per_day
    t0 = window + (-window) % B  # first batch end with a full training window behind it
    if t0 + Q > T:
        raise ConfigError("window_days", f"the panel has {T} ticks; the initial window needs "
                                         f"{t0} plus a {Q}-step horizon")
    ends = [b for b in batch_ends(streams) if b >= t0 and b + Q <= T]
    if len(ends) < 2:
        raise ConfigError("window_days", f"the panel of {T} ticks leaves fewer than two "
                                         "forecast origins past the initial window")
    rows = ends[0] - max(ends[0] - window, spec.max_lag)
    node_size = config.hyperparams.forest.min_node_size
    if config.forecaster == "forest" and rows < node_size:
        raise ConfigError("forest_min_node_size", f"is {node_size} but the first training "
                                                  f"window has {rows} rows")
    if config.forecaster in ("lasso", "boosting") and rows < 2:
        raise ConfigError("window_days", f"leaves the first training window {rows} row after "
                                         f"the lag trim; {config.forecaster} needs 2")
    return ends


_NO_DECISION = MonitorDecision(retrain=False)  # the final batch's: no forecast follows it


def run(config: RunConfig, stream_set: StreamSet | None = None) -> RunLog:
    """Execute the monitored forecasting loop and return the full log.

    The config is checked against the panel (``_forecast_origins``) before the
    first fit.
    """
    streams = stream_set if stream_set is not None else materialize(config)
    return _step_runs([config], streams)[0]


def _step_runs(configs: list[RunConfig], streams: StreamSet) -> list[RunLog]:
    """Step every config through the same batch ends; one log per config.

    The configs agree on everything that shapes the data, the batch ends and
    the seed (``compare_policies`` checks that). Each batch takes three
    passes: every (config, stream) forecasts, is scored and decides
    (``observe``); then the batch end's refits are all made at once
    (``_RefitTick.fit_all``); then the records are appended, config by
    config and stream by stream, to logs allocated once at their final
    size that read each record's actuals from the panel. Configs that
    refit a stream at one batch end with the same model share one fit, and
    each records its seconds; the streams of one forest model grow in one
    joint call, whose time is split evenly among them. The fits of a batch
    end share one design, one ``SortedColumns`` and one lasso ``Gram``; the
    time to build them counts in the seconds of the fit that builds them.
    The fits of a batch end are dropped after it. Every config is checked
    against the panel before the first fit.
    """
    # every config is checked; they share the panel geometry, so the origins too
    ends = [_forecast_origins(config, streams) for config in configs][0]
    first = configs[0]
    spec, Q, window = first.feature_spec, first.horizon, first.window_days
    n_streams = streams.n_streams
    n_records = n_streams * len(ends)
    logs = []
    for config in configs:
        log = RunLog.over_panel(streams.values, n_records, n_records * Q,
                                stream_ids=streams.stream_ids, horizon=Q,
                                policy_name=config.policy.name, forecaster=config.forecaster,
                                seed=config.seed, config_hash=config.config_hash())
        if isinstance(config.source, RegimeScenario):
            log.meta["shift_batches"] = _shift_batches(config.source, streams.stream_ids,
                                                       ends, Q)
        logs.append(log)
    fit_counts = [[0] * n_streams for _ in configs]
    models: list[list[ForecastModel | None]] = [[None] * n_streams for _ in configs]
    tokens = [[""] * n_streams for _ in configs]
    states = [[new_state(config.policy) for _ in range(n_streams)] for config in configs]

    def refit(tick: _RefitTick, k: int, i: int) -> float:
        config = configs[k]
        models[k][i], seconds = tick.fit(config, i)
        tokens[k][i] = f"{config.forecaster}@{tick.at_tick}#{fit_counts[k][i]}"
        fit_counts[k][i] += 1
        return seconds

    tick = _RefitTick(streams, spec, ends[0], window)
    tick.fit_all([(config, i) for config in configs for i in range(n_streams)])
    for k in range(len(configs)):
        for i in range(n_streams):
            refit(tick, k, i)
    # Batch idx is forecast at its origin and scored on the Q ticks after it;
    # a retrain refits at the next origin. The last batch is not decided on.
    for idx, origin in enumerate(ends, start=1):
        final = idx == len(ends)
        F = feature_matrix(streams, spec, np.arange(origin + 1, origin + Q + 1))
        actual_rows = streams.values[origin:origin + Q, :]  # ticks origin+1..origin+Q
        steps = []
        for k in range(len(configs)):
            state_k, model_k = states[k], models[k]
            for i in range(n_streams):
                forecasts, actuals = predict_matrix(model_k[i], F), actual_rows[:, i]
                losses = squared_loss_batch(actuals, forecasts)
                decision = _NO_DECISION if final else observe(state_k[i], losses)
                steps.append((k, i, forecasts, decision))
        if not final:
            tick = _RefitTick(streams, spec, ends[idx], window)
            tick.fit_all([(configs[k], i) for k, i, *_, decision in steps if decision.retrain])
        for k, i, forecasts, decision in steps:
            config = configs[k]
            made_by = tokens[k][i]
            seconds = refit(tick, k, i) if decision.retrain else 0.0
            test = decision.test
            # the record's actuals are actual_rows[:, i], which the log reads from the panel
            logs[k].append_from_panel(
                i, idx, origin + Q, forecasts,
                "final" if final else config.policy.label(decision),
                test.p_value if test else None, test.statistic if test else None,
                made_by, seconds)
    return logs


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
    They are stepped together (``_step_runs``), so a fit several of them
    need at one batch end is made once, and each log equals the config's
    solo ``run`` but for the shared fit's wall time.
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
    logs = _step_runs(configs, materialize(first))
    return [ComparisonRun(label=run_label(config), log=log, report=build_report(log))
            for config, log in zip(configs, logs)]


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
