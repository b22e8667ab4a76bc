"""Span recording for the traced benchmark run.

The tracer wraps driftmon's public functions under the names their callers
look up (``pipeline.run``, ``pipeline.training_set``, ``simulate.observe``,
``monitor.pelt``, ``models.grow_tree``, ...), so no program code changes.
Each call becomes a span ``(name, start, end, parent)`` kept in memory and
written out when the run ends. A span name starts with the layer (module)
it measures: ``features.training_set``, ``monitor.observe.pelt``.

A layer's self time is its spans' durations minus the time their child
spans cover. Spans here come from one thread, so the children of a span
never overlap and their durations can simply be summed.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

LAYERS = ("pipeline", "features", "forecasters", "monitor", "stats",
          "simulate", "streams", "evaluate")
POLICY_KINDS = ("mean_test", "pelt", "every_k", "never")
PELT_BUCKETS = ((50, "hist_le_50"), (100, "hist_51_100"), (None, "hist_gt_100"))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where parent is
    the index of the enclosing span or -1 for a root span.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_name, start, end, _p) in enumerate(spans)]


def pelt_bucket(history: int) -> str:
    for limit, label in PELT_BUCKETS:
        if limit is None or history <= limit:
            return label
    raise AssertionError("unreachable")


class NullTracer:
    """Stand-in used by untimed and untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans and counts at the boundaries of driftmon's modules."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.pelt_max_history = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
        if name.startswith("forecasters.fit."):
            self._count_model(result)
        return result

    def _count_model(self, model) -> None:
        flats = getattr(model.payload, "flats", ())
        self.counts["forecasters.trees"] += len(flats)
        self.counts["forecasters.tree_nodes"] += sum(int(f.feature.size) for f in flats)

    def closed_spans(self) -> list[tuple[str, float, float, int]]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)  # type: ignore[arg-type]

    # -- installing wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _named(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap driftmon's public functions where their callers look them up."""
        from driftmon import monitor, pipeline, simulate
        from driftmon.forecasters import models

        for attr, name in (
            ("training_set", "features.training_set"),
            ("feature_matrix", "features.feature_matrix"),
            ("fit_forest", "forecasters.fit.forest"),
            ("fit_boosting", "forecasters.fit.boosting"),
            ("fit_lasso", "forecasters.fit.lasso"),
            ("fit_naive", "forecasters.fit.naive"),
            ("predict_matrix", "forecasters.predict_matrix"),
            ("squared_loss_batch", "evaluate.squared_loss_batch"),
            ("build_report", "evaluate.build_report"),
            ("gen_regime_streams", "simulate.gen_regime_streams"),
            ("ingest_csv", "streams.ingest_csv"),
        ):
            self._patch(pipeline, attr, self._named(name, getattr(pipeline, attr)))
        self._patch(models, "grow_tree", self._named("forecasters.grow_tree", models.grow_tree))
        self._patch(simulate.RandomSource, "draw",
                    self._named("simulate.draw", simulate.RandomSource.draw))
        self._patch(monitor, "welch_test_from_moments",
                    self._named("stats.welch", monitor.welch_test_from_moments))

        run = pipeline.run

        def traced_run(config, *args, **kwargs):
            return self.call(f"pipeline.run.{config.policy.name}", run, config, *args, **kwargs)
        self._patch(pipeline, "run", traced_run)

        def traced_observe(fn, counting: str):
            def wrapper(state, new_losses):
                decision = self.call(f"monitor.observe.{state.policy.name}", fn, state, new_losses)
                if counting == "pipeline":
                    if decision.retrain:
                        self.counts[f"monitor.retrains.{state.policy.name}"] += 1
                elif decision.test is not None:
                    self.counts["simulate.null_tests"] += 1
                    self.counts["simulate.null_rejections"] += int(decision.retrain)
                return decision
            return wrapper
        self._patch(pipeline, "observe", traced_observe(pipeline.observe, "pipeline"))
        self._patch(simulate, "observe", traced_observe(simulate.observe, "simulate"))

        # pelt binds its cost= default at definition, so counting cost
        # evaluations means passing a counting cost in explicitly.
        pelt = monitor.pelt
        default_cost = pelt.__defaults__[-1]

        def traced_pelt(values, penalty, min_seg_len=2, cost=default_cost):
            def counting_cost(segment):
                start = time.perf_counter()
                try:
                    return cost(segment)
                finally:
                    self.counts["monitor.segment_cost_evals"] += 1
                    self.counts["stats.segment_cost_ns"] += int(
                        (time.perf_counter() - start) * 1e9)
            history = len(values)
            self.pelt_max_history = max(self.pelt_max_history, history)
            return self.call(f"monitor.pelt.{pelt_bucket(history)}", pelt, values, penalty,
                             min_seg_len, counting_cost)
        self._patch(monitor, "pelt", traced_pelt)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent\n")
            for name, start, end, parent in self.closed_spans():
                handle.write(f"{name},{start!r},{end!r},{parent}\n")


def per_layer_metrics(tracer: Tracer, passes: int, scale: float,
                      setup: Tracer | None = None) -> dict[str, float]:
    """Per-layer numbers from one traced measurement of ``passes`` units.

    Times are per unit (or per call where the name says so) and multiplied
    by ``scale`` (the host-speed normalization); counts are per unit. Spans
    of the ``setup`` tracer count only towards the per-call medians of the
    set-up functions (panel generation and CSV ingest).
    """
    spans = tracer.closed_spans()
    selfs = self_times(spans)
    total: Counter = Counter()
    calls: Counter = Counter()
    per_call: dict[str, list[float]] = {}
    layer_self: Counter = Counter()
    for (name, start, end, _parent), own in zip(spans, selfs):
        total[name] += end - start
        calls[name] += 1
        per_call.setdefault(name, []).append(end - start)
        layer_self[name.split(".", 1)[0]] += own
    for name, start, end, _parent in (setup.closed_spans() if setup else ()):
        per_call.setdefault(name, []).append(end - start)
    # Segment costs are timed inside monitor.pelt spans, not as spans of
    # their own (there are millions), so move their time to the stats layer.
    segment_cost_s = tracer.counts["stats.segment_cost_ns"] * 1e-9
    layer_self["monitor"] -= segment_cost_s
    layer_self["stats"] += segment_cost_s

    def unit_s(name: str) -> float:
        return total[name] / passes * scale

    def median_call_s(name: str) -> float:
        return statistics.median(per_call[name]) * scale if name in per_call else 0.0

    def prefixed(prefix: str, counter: Counter) -> float:
        return sum(v for k, v in counter.items() if k.startswith(prefix))

    counts = tracer.counts
    out: dict[str, float] = {}
    for kind in ("forest", "boosting", "lasso"):
        out[f"forecasters.fit_s.{kind}"] = median_call_s(f"forecasters.fit.{kind}")
    out["forecasters.grow_tree_calls"] = calls["forecasters.grow_tree"] / passes
    out["forecasters.grow_tree_s"] = unit_s("forecasters.grow_tree")
    out["forecasters.trees"] = counts["forecasters.trees"] / passes
    out["forecasters.tree_nodes"] = counts["forecasters.tree_nodes"] / passes
    nodes = counts["forecasters.tree_nodes"]
    out["forecasters.us_per_node"] = (total["forecasters.grow_tree"] * scale / nodes * 1e6
                                      if nodes else 0.0)
    out["forecasters.predict_matrix_s"] = unit_s("forecasters.predict_matrix")
    out["features.training_set_s"] = unit_s("features.training_set")
    out["features.feature_matrix_s"] = unit_s("features.feature_matrix")
    for kind in POLICY_KINDS:
        out[f"monitor.observe_s.{kind}"] = unit_s(f"monitor.observe.{kind}")
        out[f"monitor.observe_calls.{kind}"] = calls[f"monitor.observe.{kind}"] / passes
    for kind in ("mean_test", "pelt", "every_k"):
        out[f"monitor.retrains.{kind}"] = counts[f"monitor.retrains.{kind}"] / passes
    for _limit, label in PELT_BUCKETS:
        out[f"monitor.pelt_s.{label}"] = unit_s(f"monitor.pelt.{label}")
    out["monitor.pelt_calls"] = prefixed("monitor.pelt.", calls) / passes
    out["monitor.pelt_max_history"] = float(tracer.pelt_max_history)
    out["monitor.segment_cost_evals"] = counts["monitor.segment_cost_evals"] / passes
    out["stats.welch_calls"] = calls["stats.welch"] / passes
    out["stats.welch_s"] = unit_s("stats.welch")
    out["stats.segment_cost_s"] = segment_cost_s / passes * scale
    out["simulate.draw_s"] = unit_s("simulate.draw")
    out["simulate.null_tests"] = counts["simulate.null_tests"] / passes
    out["simulate.null_rejections"] = counts["simulate.null_rejections"] / passes
    out["simulate.gen_regime_streams_s"] = median_call_s("simulate.gen_regime_streams")
    out["streams.ingest_csv_s"] = median_call_s("streams.ingest_csv")
    out["evaluate.squared_loss_batch_s"] = unit_s("evaluate.squared_loss_batch")
    out["evaluate.write_runlog_s"] = unit_s("evaluate.write_runlog")
    out["evaluate.read_runlog_s"] = unit_s("evaluate.read_runlog")
    out["evaluate.build_report_s"] = unit_s("evaluate.build_report")
    for kind in POLICY_KINDS:
        out[f"pipeline.run_s.{kind}"] = unit_s(f"pipeline.run.{kind}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / passes * scale
    out["trace.spans"] = len(spans) / passes
    return out
