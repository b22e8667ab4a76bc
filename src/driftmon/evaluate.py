"""Loss computation, run logging, and forecast-accuracy reporting.

Two losses play distinct roles: squared errors feed the monitoring test
batch by batch, while the bounded symmetric percentage error (sape) is the
reporting metric, averaged into a per-stream SMAPE. Everything a report
needs is read from the append-only RunLog, which records forecasts, actuals,
monitor decisions and retrain timings for every evaluation batch; a record's
losses are derived from its forecasts and actuals, not stored.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyLog, ShapeError
from .monitor import RETRAIN_LABELS


@dataclass(frozen=True)
class LossBatch:
    """Per-stream forecast losses of one evaluation batch."""

    losses: np.ndarray
    batch_index: int
    stream_id: str

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=float)
        if losses.ndim != 1 or losses.size == 0:
            raise ShapeError("losses must be a nonempty vector")
        if not np.all(np.isfinite(losses)):
            raise ValueError("losses must be finite")
        if np.any(losses < 0.0):
            raise ValueError("losses must be >= 0")
        object.__setattr__(self, "losses", losses)


def squared_loss_batch(actuals, forecasts, batch_index: int = 0,
                       stream_id: str = "") -> LossBatch:
    """Elementwise squared errors; the batch mean is the monitored quantity."""
    actuals = np.asarray(actuals, dtype=float)
    forecasts = np.asarray(forecasts, dtype=float)
    if actuals.shape != forecasts.shape or actuals.ndim != 1:
        raise ShapeError(
            f"actuals {actuals.shape} and forecasts {forecasts.shape} must be equal-length vectors"
        )
    if actuals.size < 1:
        raise ShapeError("need at least one observation")
    return LossBatch(losses=(actuals - forecasts) ** 2,
                     batch_index=batch_index, stream_id=stream_id)


def sape(actual: float, forecast: float) -> float:
    """Symmetric absolute percentage error in [0, 100]; sape(0, 0) = 0.

    Clamped at 100: for opposite-sign arguments |a - f| equals |a| + |f|
    exactly, but floating-point rounding can overshoot by an ulp.
    """
    denom = abs(actual) + abs(forecast)
    if denom == 0.0:
        return 0.0
    return min(100.0, 100.0 * abs(actual - forecast) / denom)


def sape_values(actuals: np.ndarray, forecasts: np.ndarray) -> np.ndarray:
    actuals = np.asarray(actuals, dtype=float)
    forecasts = np.asarray(forecasts, dtype=float)
    denom = np.abs(actuals) + np.abs(forecasts)
    out = np.zeros_like(denom)
    nz = denom > 0.0
    out[nz] = np.minimum(100.0, 100.0 * np.abs(actuals - forecasts)[nz] / denom[nz])
    return out


# ---------------------------------------------------------------------------
# Run log
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BatchRecord:
    """One stream's evaluation batch: forecasts, actuals and the decision on it.

    ``actuals`` may be a read-only view into the panel (the pipeline stores
    its column of the batch's rows), so records share the panel's memory.
    """

    stream_id: str
    batch_index: int       # 1-based evaluation batch ordinal
    batch_end: int         # tick at which the batch completed
    forecasts: np.ndarray
    actuals: np.ndarray
    policy: str
    decision: str          # warmup | accept | reject | hold | retrain | final
    retrain: bool
    p_value: float | None
    statistic: float | None
    model_token: str
    retrain_seconds: float = 0.0

    @property
    def losses(self) -> np.ndarray:
        """Squared errors, the expression ``squared_loss_batch`` uses, so bit-identical."""
        return (self.actuals - self.forecasts) ** 2


@dataclass
class RunLog:
    """Append-only record of one pipeline run."""

    stream_ids: tuple[str, ...]
    horizon: int
    policy_name: str
    forecaster: str
    seed: int
    config_hash: str = ""
    records: list[BatchRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, record: BatchRecord) -> None:
        self.records.append(record)

    def for_stream(self, stream_id: str) -> list[BatchRecord]:
        return [r for r in self.records if r.stream_id == stream_id]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamReport:
    stream_id: str
    smape: float
    n_breaks: int
    p50_duration: float
    p90_duration: float
    retrain_seconds: float


@dataclass(frozen=True)
class Report:
    streams: tuple[StreamReport, ...]
    avg_smape: float
    avg_breaks: float
    avg_p50_duration: float
    avg_p90_duration: float
    total_retrain_seconds: float


def build_report(log: RunLog) -> Report:
    """Per-stream SMAPE, break counts and inter-break durations, plus averages."""
    if not log.records:
        raise EmptyLog("run log has no records")
    reports = []
    for stream_id in log.stream_ids:
        records = log.for_stream(stream_id)
        if not records:
            continue
        total, count = 0.0, 0
        for r in records:
            total += float(sape_values(r.actuals, r.forecasts).sum())
            count += r.actuals.size
        break_batches = [r.batch_index for r in records if r.retrain]
        durations = np.diff(break_batches) if len(break_batches) >= 2 else np.empty(0)
        p50 = float(np.percentile(durations, 50)) if durations.size else math.nan
        p90 = float(np.percentile(durations, 90)) if durations.size else math.nan
        reports.append(StreamReport(
            stream_id=stream_id,
            smape=total / count,
            n_breaks=len(break_batches),
            p50_duration=p50,
            p90_duration=p90,
            retrain_seconds=sum(r.retrain_seconds for r in records),
        ))
    if not reports:
        raise EmptyLog("run log has no records")
    p50s = [r.p50_duration for r in reports if not math.isnan(r.p50_duration)]
    p90s = [r.p90_duration for r in reports if not math.isnan(r.p90_duration)]
    return Report(
        streams=tuple(reports),
        avg_smape=float(np.mean([r.smape for r in reports])),
        avg_breaks=float(np.mean([r.n_breaks for r in reports])),
        avg_p50_duration=float(np.mean(p50s)) if p50s else math.nan,
        avg_p90_duration=float(np.mean(p90s)) if p90s else math.nan,
        total_retrain_seconds=sum(r.retrain_seconds for r in reports),
    )


def detection_delays(log: RunLog) -> dict[str, list[int]]:
    """Batches between each known shift and the first retrain at or after it.

    Needs log.meta["shift_batches"] = {stream_id: [batch_index, ...]}, which
    the pipeline fills in when the data came from a synthetic scenario.
    """
    shift_batches = log.meta.get("shift_batches", {})
    delays: dict[str, list[int]] = {}
    for stream_id, shifts in shift_batches.items():
        retrains = [r.batch_index for r in log.for_stream(stream_id) if r.retrain]
        delays[stream_id] = [
            next((b - s for b in retrains if b >= s), -1) for s in shifts
        ]
    return delays


# ---------------------------------------------------------------------------
# Flat-file emission
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_report_csv(report: Report, path: str, header_comment: str | None = None) -> None:
    """Schema: stream_id,smape,n_breaks,p50_duration,p90_duration,retrain_seconds.

    retrain_seconds is wall time and is the one column excluded from the
    byte-identical reproducibility promise.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if header_comment:
            handle.write(f"# {header_comment}\n")
        writer = csv.writer(handle)
        writer.writerow(["stream_id", "smape", "n_breaks", "p50_duration",
                         "p90_duration", "retrain_seconds"])
        for s in report.streams:
            writer.writerow([s.stream_id, repr(s.smape), s.n_breaks,
                             repr(s.p50_duration), repr(s.p90_duration),
                             repr(s.retrain_seconds)])


def report_to_dict(report: Report) -> dict:
    return {
        "streams": [
            {
                "stream_id": s.stream_id,
                "smape": s.smape,
                "n_breaks": s.n_breaks,
                "p50_duration": None if math.isnan(s.p50_duration) else s.p50_duration,
                "p90_duration": None if math.isnan(s.p90_duration) else s.p90_duration,
                "retrain_seconds": s.retrain_seconds,
            }
            for s in report.streams
        ],
        "average": {
            "smape": report.avg_smape,
            "n_breaks": report.avg_breaks,
            "p50_duration": None if math.isnan(report.avg_p50_duration) else report.avg_p50_duration,
            "p90_duration": None if math.isnan(report.avg_p90_duration) else report.avg_p90_duration,
        },
        "total_retrain_seconds": report.total_retrain_seconds,
    }


def write_report_json(report: Report, path: str, extra: dict | None = None) -> None:
    payload = report_to_dict(report)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_runlog(log: RunLog, outdir: str) -> None:
    """Write forecasts.csv, events.csv, timings.csv under outdir.

    forecasts.csv and events.csv are byte-identical across re-runs of the
    same (config, seed); timings.csv holds wall times and is not.
    """
    os.makedirs(outdir, exist_ok=True)
    stamp = f"config_hash={log.config_hash} seed={log.seed}"
    with open(os.path.join(outdir, "forecasts.csv"), "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# {stamp}\n")
        writer = csv.writer(handle)
        writer.writerow(["stream_id", "batch_index", "q", "tick", "forecast", "actual", "loss"])
        for r in log.records:
            losses = r.losses
            for q in range(r.forecasts.size):
                writer.writerow([
                    r.stream_id, r.batch_index, q + 1, r.batch_end - r.forecasts.size + q + 1,
                    repr(float(r.forecasts[q])), repr(float(r.actuals[q])),
                    repr(float(losses[q])),
                ])
    with open(os.path.join(outdir, "events.csv"), "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# {stamp}\n")
        writer = csv.writer(handle)
        writer.writerow(["stream_id", "batch_index", "policy", "decision", "p_value", "statistic"])
        for r in log.records:
            writer.writerow([r.stream_id, r.batch_index, r.policy, r.decision,
                             _fmt(r.p_value), _fmt(r.statistic)])
    with open(os.path.join(outdir, "timings.csv"), "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# {stamp}\n")
        writer = csv.writer(handle)
        writer.writerow(["stream_id", "batch_index", "retrain_seconds"])
        for r in log.records:
            if r.retrain_seconds:
                writer.writerow([r.stream_id, r.batch_index, repr(r.retrain_seconds)])


def read_runlog(outdir: str) -> RunLog:
    """Rebuild a RunLog from the files written by write_runlog.

    The files are read line by line. The ``loss`` column is not read back:
    a record derives its losses from the forecasts and actuals.
    """
    per_batch: dict[tuple[str, int], dict] = {}

    def rows(name):
        with open(os.path.join(outdir, name), newline="", encoding="utf-8") as handle:
            reader = csv.reader(ln for ln in handle
                                if ln.strip() and not ln.lstrip().startswith("#"))
            header = next(reader)
            for row in reader:
                yield dict(zip(header, row))

    stream_order: list[str] = []
    for row in rows("forecasts.csv"):
        key = (row["stream_id"], int(row["batch_index"]))
        entry = per_batch.setdefault(key, {"forecasts": [], "actuals": [], "ticks": []})
        entry["forecasts"].append(float(row["forecast"]))
        entry["actuals"].append(float(row["actual"]))
        entry["ticks"].append(int(row["tick"]))
        if row["stream_id"] not in stream_order:
            stream_order.append(row["stream_id"])
    policy_name = ""
    for row in rows("events.csv"):
        key = (row["stream_id"], int(row["batch_index"]))
        entry = per_batch.setdefault(key, {"forecasts": [], "actuals": [], "ticks": []})
        entry["policy"] = row["policy"]
        entry["decision"] = row["decision"]
        entry["p_value"] = float(row["p_value"]) if row["p_value"] else None
        entry["statistic"] = float(row["statistic"]) if row["statistic"] else None
        policy_name = row["policy"]
    timings_path = os.path.join(outdir, "timings.csv")
    if os.path.exists(timings_path):
        for row in rows("timings.csv"):
            key = (row["stream_id"], int(row["batch_index"]))
            if key in per_batch:
                per_batch[key]["retrain_seconds"] = float(row["retrain_seconds"])

    log = RunLog(stream_ids=tuple(stream_order), horizon=0, policy_name=policy_name,
                 forecaster="", seed=0)
    for (stream_id, batch_index) in sorted(per_batch, key=lambda k: (k[1], stream_order.index(k[0]))):
        entry = per_batch[(stream_id, batch_index)]
        decision = entry.get("decision", "hold")
        log.append(BatchRecord(
            stream_id=stream_id,
            batch_index=batch_index,
            batch_end=max(entry["ticks"]) if entry["ticks"] else 0,
            forecasts=np.array(entry["forecasts"]),
            actuals=np.array(entry["actuals"]),
            policy=entry.get("policy", ""),
            decision=decision,
            retrain=decision in RETRAIN_LABELS,
            p_value=entry.get("p_value"),
            statistic=entry.get("statistic"),
            model_token="",
            retrain_seconds=entry.get("retrain_seconds", 0.0),
        ))
    if log.horizon == 0 and log.records:
        log.horizon = log.records[0].forecasts.size
    return log
