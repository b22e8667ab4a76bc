"""The four benchmark workloads.

Each workload is a closed loop in one process: a unit of work (a fixed
amount, made from the workload seed) runs to completion, then the next one
starts. A workload has four parts:

* ``prepare(seed, tiny, workdir)`` makes the inputs and returns a spec (a
  JSON-able dict). It is not timed.
* ``setup(spec, tracer)`` is what a user waits for before the first batch:
  config validation and panel materialization. ``setup_probe.py`` times it,
  with the imports, in a fresh process.
* ``unit(state, tracer)`` is the timed work; it returns a ``Pass``.
* ``check(state, passes, checks)`` verifies the outputs after timing.

A "batch step" is one stream-batch scored and decided on (and, in the
pipeline workloads, the next horizon forecast); in the null study it is one
monitor step and in model-fits one batch end at which all three models are
refit and forecast. ``error_pct`` is the mean SMAPE of the forecasts, or
for the null study the mean false-alarm rate of the two size studies.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from driftmon import evaluate, features, pipeline, simulate, streams
from driftmon.forecasters import models
from driftmon.forecasters import ForestParams, HyperParams
from driftmon.monitor import EveryKBatches, MeanTestPolicy, NeverPolicy, PeltPolicy

from tracing import NullTracer

NULL = NullTracer()


@dataclass
class Pass:
    """Outcome of one unit of work."""

    steps: int
    error_pct: float
    digest: str
    outputs: object = None
    samples: dict[str, list[float]] = field(default_factory=dict)
    traffic: dict = field(default_factory=dict)


class Checks:
    """Correctness checks; each check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def log_digest(log) -> str:
    """Digest of a run log's forecasts and events."""
    h = hashlib.sha256()
    for r in log.records:
        h.update(repr((r.stream_id, r.batch_index, r.batch_end, r.decision, r.retrain,
                       r.p_value, r.statistic, r.model_token)).encode())
        h.update(np.ascontiguousarray(r.forecasts, dtype=float).tobytes())
        h.update(np.ascontiguousarray(r.losses, dtype=float).tobytes())
    return h.hexdigest()


def check_log(checks: Checks, label: str, log) -> None:
    """One record per stream and batch, finite forecasts."""
    keys = [(r.stream_id, r.batch_index) for r in log.records]
    n_batches = max(k[1] for k in keys) if keys else 0
    expected = {(s, b) for s in log.stream_ids for b in range(1, n_batches + 1)}
    checks.expect(len(keys) == len(set(keys)) and set(keys) == expected and n_batches >= 2,
                  f"{label}: run log is not one record per stream and batch")
    checks.expect(all(np.all(np.isfinite(r.forecasts)) and r.forecasts.size == log.horizon
                      for r in log.records),
                  f"{label}: forecasts missing or not finite")


def check_roundtrip(checks: Checks, label: str, report, reread) -> None:
    """The report rebuilt from the written run log equals the in-memory one."""
    same = (reread.avg_smape == report.avg_smape
            and [s.n_breaks for s in reread.streams] == [s.n_breaks for s in report.streams]
            and [s.smape for s in reread.streams] == [s.smape for s in report.streams])
    checks.expect(same, f"{label}: write_runlog -> read_runlog -> build_report differs "
                        f"(smape {reread.avg_smape!r} vs {report.avg_smape!r})")


def roundtrip(tracer, log, outdir: str):
    """write_runlog -> read_runlog -> build_report; returns (report, bytes written)."""
    tracer.call("evaluate.write_runlog", evaluate.write_runlog, log, outdir)
    size = sum(os.path.getsize(os.path.join(outdir, name)) for name in os.listdir(outdir))
    reread = tracer.call("evaluate.read_runlog", evaluate.read_runlog, outdir)
    report = tracer.call("evaluate.build_report", evaluate.build_report, reread)
    shutil.rmtree(outdir)
    return report, size


def useful_retrains(log) -> int:
    """Retrains that are the first at or after a known shift."""
    return sum(1 for delays in evaluate.detection_delays(log).values()
               for d in delays if d >= 0)


def check_repeats(checks: Checks, label: str, passes: list[Pass]) -> None:
    digests = {p.digest for p in passes}
    checks.expect(len(digests) == 1, f"{label}: repeated passes of one seed differ")


# ---------------------------------------------------------------------------
# desk-policies: the paper's five-policy study on one shared panel
# ---------------------------------------------------------------------------

class DeskPolicies:
    name = "desk-policies"
    labels = ("daily", "mean_test_a05", "mean_test_a01", "pelt_ms5", "never")

    @staticmethod
    def prepare(seed: int, tiny: bool, workdir: str) -> dict:
        return {"workload": DeskPolicies.name, "seed": seed, "tiny": tiny, "workdir": workdir}

    @staticmethod
    def setup(spec: dict, tracer) -> dict:
        seed = spec["seed"]
        scenario = simulate.RegimeScenario.desk_default(seed)
        n_trees = 8
        if spec["tiny"]:
            scenario = simulate.RegimeScenario(
                n_streams=2, n_days=22, level_shifts=((17, 0, 4.0),),
                noise_scale=2.0, noise_correlation=0.3, seed=seed)
            n_trees = 2
        hp = HyperParams(forest=ForestParams(n_trees=n_trees, min_node_size=20))
        policies = (EveryKBatches(k=1), MeanTestPolicy(alpha=0.05), MeanTestPolicy(alpha=0.01),
                    PeltPolicy(min_seg_len=5), NeverPolicy())
        configs = [pipeline.RunConfig(source=scenario, forecaster="forest", policy=p,
                                      hyperparams=hp, window_days=12, seed=seed)
                   for p in policies]
        panel = tracer.call("pipeline.materialize", pipeline.materialize, configs[0])
        return {"configs": configs, "panel": panel, "workdir": spec["workdir"]}

    @staticmethod
    def unit(state: dict, tracer) -> Pass:
        runs = tracer.call("pipeline.compare_policies", pipeline.compare_policies,
                           state["configs"])
        records = [r for cr in runs for r in cr.log.records]
        h = hashlib.sha256()
        for cr in runs:
            h.update(log_digest(cr.log).encode())
        retrains = {label: sum(r.retrain for r in cr.log.records)
                    for label, cr in zip(DeskPolicies.labels, runs)}
        return Pass(
            steps=sum(r.decision != "final" for r in records),
            error_pct=float(np.mean([cr.report.avg_smape for cr in runs])),
            digest=h.hexdigest(),
            outputs=runs,
            samples={"retrain_s": [r.retrain_seconds for r in records if r.retrain]},
            traffic={"retrains": retrains,
                     "retrains_total": sum(retrains.values()),
                     "useful_retrains": sum(useful_retrains(cr.log) for cr in runs),
                     "streams": len(runs[0].log.stream_ids),
                     "decision_batches": max(r.batch_index for r in records) - 1},
        )

    @staticmethod
    def check(state: dict, passes: list[Pass], checks: Checks) -> None:
        runs = passes[0].outputs
        for label, cr in zip(DeskPolicies.labels, runs):
            check_log(checks, label, cr.log)
            reread, _ = roundtrip(NULL, cr.log, os.path.join(state["workdir"], label))
            check_roundtrip(checks, label, cr.report, reread)
        check_repeats(checks, DeskPolicies.name, passes)
        # One pass is longer than a run, so repeat the two cheapest policies
        # (one of them retrains) on a freshly generated panel instead.
        again = pipeline.compare_policies([state["configs"][3], state["configs"][4]])
        for label, first, second in zip(("pelt_ms5", "never"), runs[3:], again):
            checks.expect(log_digest(first.log) == log_digest(second.log),
                          f"{label}: re-running the seed changed the run log")


# ---------------------------------------------------------------------------
# null-study: size studies C1 and C2, monitor and stats only
# ---------------------------------------------------------------------------

class NullStudy:
    name = "null-study"
    # (distribution, batch size, alpha, replications, replications when tiny, band)
    studies = (("gaussian", 50, 0.05, 100, 10, (0.070, 0.015)),
               ("chisquare5", 10, 0.01, 25, 3, (0.022, 0.010)))

    @staticmethod
    def prepare(seed: int, tiny: bool, workdir: str) -> dict:
        return {"workload": NullStudy.name, "seed": seed, "tiny": tiny, "workdir": workdir}

    @staticmethod
    def setup(spec: dict, tracer) -> dict:
        configs = [
            simulate.NullStudyConfig(distribution=dist, stream_length=10_000, batch_size=batch,
                                     alpha=alpha, n_replications=tiny if spec["tiny"] else reps,
                                     seed=10 * spec["seed"] + i)
            for i, (dist, batch, alpha, reps, tiny, _band) in enumerate(NullStudy.studies)
        ]
        return {"configs": configs}

    @staticmethod
    def unit(state: dict, tracer) -> Pass:
        freqs = [tracer.call("simulate.run_null_study", simulate.run_null_study, c, threads=1)
                 for c in state["configs"]]
        reps = sum(c.n_replications for c in state["configs"])
        return Pass(
            steps=sum(c.n_replications * (c.stream_length // c.batch_size)
                      for c in state["configs"]),
            error_pct=100.0 * float(np.mean(freqs)),
            digest=repr(freqs),
            outputs=freqs,
            traffic={"replications": reps,
                     "batches_per_replication": [c.stream_length // c.batch_size
                                                 for c in state["configs"]],
                     "rejection_frequency": freqs},
        )

    @staticmethod
    def check(state: dict, passes: list[Pass], checks: Checks) -> None:
        for config, freq, study in zip(state["configs"], passes[0].outputs, NullStudy.studies):
            centre, width = study[5]
            checks.expect(abs(freq - centre) <= width,
                          f"{config.distribution}: rejection frequency {freq:.4f} outside "
                          f"{centre}±{width}")
        check_repeats(checks, NullStudy.name, passes)


# ---------------------------------------------------------------------------
# long-stable-pelt: CSV ingest, a growing PELT history, run-log IO
# ---------------------------------------------------------------------------

class LongStablePelt:
    name = "long-stable-pelt"
    # High enough that no changepoint is found on a shift-free stream, so
    # the history since the last retrain grows with every batch.
    penalty = 60.0
    window_days = 8

    @staticmethod
    def prepare(seed: int, tiny: bool, workdir: str) -> dict:
        n_batches = 12 if tiny else 150
        scenario = simulate.RegimeScenario(
            n_streams=1, n_days=LongStablePelt.window_days + n_batches + 1, slots_per_day=60,
            noise_scale=2.0, seed=seed)
        path = os.path.join(workdir, f"stable-{seed}.csv")
        streams.write_csv(simulate.gen_regime_streams(scenario), path)
        return {"workload": LongStablePelt.name, "seed": seed, "tiny": tiny, "csv": path,
                "workdir": workdir}

    @staticmethod
    def setup(spec: dict, tracer) -> dict:
        base = dict(source=spec["csv"], forecaster="naive",
                    window_days=LongStablePelt.window_days, seed=spec["seed"])
        configs = [
            pipeline.RunConfig(policy=PeltPolicy(penalty=LongStablePelt.penalty, min_seg_len=5),
                               **base),
            pipeline.RunConfig(policy=MeanTestPolicy(alpha=0.05), **base),
        ]
        panel = tracer.call("streams.ingest_csv", streams.ingest_csv, spec["csv"],
                            slots_per_batch=60)
        return {"configs": configs, "panel": panel, "workdir": spec["workdir"]}

    @staticmethod
    def unit(state: dict, tracer) -> Pass:
        outputs = []
        runlog_bytes = 0
        for i, config in enumerate(state["configs"]):
            log = pipeline.run(config, stream_set=state["panel"])
            report = tracer.call("evaluate.build_report", evaluate.build_report, log)
            reread, size = roundtrip(tracer, log, os.path.join(state["workdir"], f"runlog-{i}"))
            runlog_bytes += size
            outputs.append((log, report, reread))
        records = [r for log, _, _ in outputs for r in log.records]
        h = hashlib.sha256()
        for log, _, _ in outputs:
            h.update(log_digest(log).encode())
        pelt_log = outputs[0][0]
        return Pass(
            steps=sum(r.decision != "final" for r in records),
            error_pct=float(np.mean([report.avg_smape for _, report, _ in outputs])),
            digest=h.hexdigest(),
            outputs=outputs,
            traffic={"pelt_detections": sum(r.retrain for r in pelt_log.records),
                     "retrains_total": sum(r.retrain for r in records),
                     "useful_retrains": 0,
                     "pelt_decisions": sum(r.decision != "final" for r in pelt_log.records),
                     "mean_test_retrains": sum(r.retrain for r in outputs[1][0].records),
                     "panel_rows": int(state["panel"].n_ticks * state["panel"].n_streams),
                     "runlog_bytes": runlog_bytes},
        )

    @staticmethod
    def check(state: dict, passes: list[Pass], checks: Checks) -> None:
        for label, (log, report, reread) in zip(("pelt", "mean_test"), passes[0].outputs):
            check_log(checks, label, log)
            check_roundtrip(checks, label, report, reread)
        check_repeats(checks, LongStablePelt.name, passes)


# ---------------------------------------------------------------------------
# model-fits: paper-default forest, boosting and lasso fits
# ---------------------------------------------------------------------------

class ModelFits:
    name = "model-fits"
    kinds = ("forest", "boosting", "lasso")
    # Day-40 and day-41 batch ends: a full 12-day window, before the first shift.
    batch_ends = (2400, 2460)
    window_days = 12
    horizon = 60

    @staticmethod
    def prepare(seed: int, tiny: bool, workdir: str) -> dict:
        return {"workload": ModelFits.name, "seed": seed, "tiny": tiny, "workdir": workdir}

    @staticmethod
    def setup(spec: dict, tracer) -> dict:
        hp = HyperParams()
        if spec["tiny"]:
            hp = HyperParams(forest=ForestParams(n_trees=5),
                             boosting=models.BoostingParams(n_rounds=5),
                             lasso=models.LassoParams(n_lambda=10))
        config = pipeline.RunConfig(source=simulate.RegimeScenario.desk_default(spec["seed"]),
                                    forecaster="forest", hyperparams=hp,
                                    window_days=ModelFits.window_days, seed=spec["seed"])
        panel = tracer.call("pipeline.materialize", pipeline.materialize, config)
        return {"config": config, "panel": panel}

    @staticmethod
    def fit(state: dict, tracer, kind: str, data, seed: int):
        hp = state["config"].hyperparams
        if kind == "forest":
            return tracer.call("forecasters.fit.forest", models.fit_forest, data, hp, seed)
        if kind == "boosting":
            return tracer.call("forecasters.fit.boosting", models.fit_boosting, data, hp, seed)
        return tracer.call("forecasters.fit.lasso", models.fit_lasso, data, hp)

    @staticmethod
    def unit(state: dict, tracer) -> Pass:
        config, panel = state["config"], state["panel"]
        spec = config.feature_spec
        fits = []
        samples: dict[str, list[float]] = {f"fit_s.{k}": [] for k in ModelFits.kinds}
        for k, end in enumerate(ModelFits.batch_ends):
            start = time.perf_counter()
            data = tracer.call("features.training_set", features.training_set, panel, spec, 0,
                               end, ModelFits.window_days)
            design_s = time.perf_counter() - start
            ticks = np.arange(end + 1, end + ModelFits.horizon + 1)
            rows = tracer.call("features.feature_matrix", features.feature_matrix, panel, spec,
                               ticks)
            actuals = panel.values[ticks - 1, 0]
            for kind in ModelFits.kinds:
                start = time.perf_counter()
                model = ModelFits.fit(state, tracer, kind, data, 1000 * config.seed + k)
                samples[f"fit_s.{kind}"].append(design_s + time.perf_counter() - start)
                forecasts = tracer.call("forecasters.predict_matrix", models.predict_matrix,
                                        model, rows)
                flats = getattr(model.payload, "flats", ())
                fits.append({"kind": kind, "end": end, "forecasts": forecasts,
                             "actuals": actuals, "y_min": float(data.y.min()),
                             "y_max": float(data.y.max()), "shape": data.X.shape,
                             "trees": len(flats),
                             "nodes": sum(int(f.feature.size) for f in flats)})
        h = hashlib.sha256()
        for f in fits:
            h.update(f["forecasts"].tobytes())
        # Relative to the seasonal-naive forecast of the same ticks: how hard
        # one stream's next 60 ticks are varies with the seed far more than
        # the models' skill does.
        smape = np.mean([evaluate.sape_values(f["actuals"], f["forecasts"]).mean() for f in fits])
        naive = np.mean([evaluate.sape_values(panel.values[end:end + ModelFits.horizon, 0],
                                              panel.values[end - 420:end - 420
                                                           + ModelFits.horizon, 0]).mean()
                         for end in ModelFits.batch_ends])
        return Pass(
            steps=len(ModelFits.batch_ends),
            error_pct=float(100.0 * smape / naive),
            digest=h.hexdigest(),
            outputs=fits,
            samples=samples,
            traffic={"design_rows_x_cols": list(fits[0]["shape"]),
                     "fits": [{"kind": f["kind"], "batch_end": f["end"], "trees": f["trees"],
                               "nodes": f["nodes"]} for f in fits]},
        )

    @staticmethod
    def check(state: dict, passes: list[Pass], checks: Checks) -> None:
        fits = passes[0].outputs
        for f in fits:
            label = f"{f['kind']}@{f['end']}"
            checks.expect(bool(np.all(np.isfinite(f["forecasts"])))
                          and f["forecasts"].size == ModelFits.horizon,
                          f"{label}: forecasts missing or not finite")
            if f["kind"] == "forest":
                slack = 1e-9 * (max(abs(f["y_min"]), abs(f["y_max"])) + 1.0)
                checks.expect(f["forecasts"].min() >= f["y_min"] - slack
                              and f["forecasts"].max() <= f["y_max"] + slack,
                              f"{label}: forest forecast outside the training target range")
        check_repeats(checks, ModelFits.name, passes)
        # One pass is longer than a run: refit the seeded boosting model instead.
        config, panel = state["config"], state["panel"]
        end = ModelFits.batch_ends[0]
        data = features.training_set(panel, config.feature_spec, 0, end, ModelFits.window_days)
        rows = features.feature_matrix(panel, config.feature_spec,
                                       np.arange(end + 1, end + ModelFits.horizon + 1))
        again = models.predict_matrix(ModelFits.fit(state, NULL, "boosting", data,
                                                    1000 * config.seed), rows)
        first = next(f for f in fits if f["kind"] == "boosting" and f["end"] == end)
        checks.expect(np.array_equal(again, first["forecasts"]),
                      "boosting: refitting with the same seed changed the forecasts")


WORKLOADS = {w.name: w for w in (DeskPolicies, NullStudy, LongStablePelt, ModelFits)}
