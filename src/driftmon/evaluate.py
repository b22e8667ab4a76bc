"""Loss computation, run logging, and forecast-accuracy reporting.

Two losses play distinct roles: squared errors feed the monitoring test
batch by batch, while the bounded symmetric percentage error (sape) is the
reporting metric, averaged into a per-stream SMAPE. Everything a report
needs is read from the append-only RunLog, which records forecasts, actuals,
monitor decisions and retrain timings for every evaluation batch. A record's
losses derive from its forecasts and actuals, its retrain flag from its
decision label, and its policy is the log's. ``write_runlog`` and
``read_runlog`` carry a RunLog to three stamped CSV files and back; the
round trip restores every value, the stamp and the policy exactly.
Reading and reporting work on whole arrays, with the same bits as a
per-record loop: ``read_runlog`` parses forecasts.csv with numpy's C
reader in chunks of rows, and ``build_report`` scores all of a stream's
records of one length in one ``sape_values`` call.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import EmptyLog, ParseError, ShapeError
from .monitor import RETRAIN_LABELS
from .schema import parse_stamp, stamp_line
from .streams import table_file, write_table


def squared_loss_batch(actuals, forecasts) -> np.ndarray:
    """Elementwise squared errors; the batch mean is the monitored quantity."""
    actuals = np.asarray(actuals, dtype=float)
    forecasts = np.asarray(forecasts, dtype=float)
    if actuals.shape != forecasts.shape or actuals.ndim != 1:
        raise ShapeError(
            f"actuals {actuals.shape} and forecasts {forecasts.shape} must be equal-length vectors"
        )
    if actuals.size < 1:
        raise ShapeError("need at least one observation")
    losses = (actuals - forecasts) ** 2
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    return losses


def sape(actual: float, forecast: float) -> float:
    """Symmetric absolute percentage error in [0, 100]; sape(0, 0) = 0.

    Clamped at 100: for opposite-sign arguments |a - f| equals |a| + |f|
    exactly, but floating-point rounding can overshoot by an ulp.
    """
    return float(sape_values(np.array([actual]), np.array([forecast]))[0])


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
    decision: str          # warmup | accept | reject | hold | retrain | final
    p_value: float | None
    statistic: float | None
    model_token: str
    retrain_seconds: float = 0.0

    @property
    def retrain(self) -> bool:
        """Whether the stream was refit after this batch: its decision label says so."""
        return self.decision in RETRAIN_LABELS

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

    @property
    def stamp(self) -> str:
        """The first line of each run-log file and of report.csv, without its ``#``."""
        return stamp_line(self.config_hash, self.seed)

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


def _sape_sums(records: list[BatchRecord]) -> list[float]:
    """Each record's ``float(sape_values(r.actuals, r.forecasts).sum())``, bit for bit.

    Records of one length are stacked into one matrix and scored in one
    call; ``.sum(axis=1)`` sums each contiguous row with the pairwise sum a
    1-D ``.sum()`` uses.
    """
    by_length: dict[int, list[int]] = {}
    for i, r in enumerate(records):
        by_length.setdefault(r.actuals.size, []).append(i)
    sums = np.empty(len(records))
    for rows in by_length.values():
        sums[rows] = sape_values(np.stack([records[i].actuals for i in rows]),
                                 np.stack([records[i].forecasts for i in rows])).sum(axis=1)
    return sums.tolist()


def build_report(log: RunLog) -> Report:
    """Per-stream SMAPE, break counts and inter-break durations, plus averages.

    A stream's SMAPE adds its records' sape sums in record order.
    """
    if not log.records:
        raise EmptyLog("run log has no records")
    by_stream: dict[str, list[BatchRecord]] = {}
    for r in log.records:
        by_stream.setdefault(r.stream_id, []).append(r)
    reports = []
    for stream_id in log.stream_ids:
        records = by_stream.get(stream_id)
        if not records:
            continue
        total = 0.0
        for s in _sape_sums(records):
            total += s
        count = sum(r.actuals.size for r in records)
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
    write_table(path, ["stream_id", "smape", "n_breaks", "p50_duration", "p90_duration",
                       "retrain_seconds"],
                ([s.stream_id, repr(s.smape), s.n_breaks, repr(s.p50_duration),
                  repr(s.p90_duration), repr(s.retrain_seconds)] for s in report.streams),
                stamp=header_comment)


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


def write_report_json(report: Report, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


FORECAST_COLUMNS = ["stream_id", "batch_index", "q", "tick", "forecast", "actual", "loss"]
EVENT_COLUMNS = ["stream_id", "batch_index", "policy", "decision", "p_value", "statistic"]
TIMING_COLUMNS = ["stream_id", "batch_index", "retrain_seconds"]
# csv.writer(...).writerow returns what the file's write returned: here the line.
_csv_line = csv.writer(SimpleNamespace(write=str)).writerow
_CSV_END = csv.excel.lineterminator


def write_runlog(log: RunLog, outdir: str) -> None:
    """Write forecasts.csv, events.csv, timings.csv under outdir.

    forecasts.csv and events.csv are byte-identical across re-runs of the
    same (config, seed); timings.csv holds wall times and is not. Each file
    starts with the log's stamp and lists the records in log order.
    """
    os.makedirs(outdir, exist_ok=True)
    with table_file(os.path.join(outdir, "forecasts.csv"), FORECAST_COLUMNS,
                    log.stamp) as handle:
        for r in log.records:
            # The key goes through csv.writer, which quotes it as needed; the
            # other fields are ints and float reprs, which csv.writer writes as is.
            key = _csv_line((r.stream_id, r.batch_index)).removesuffix(_CSV_END)
            offset = r.batch_end - r.forecasts.size   # tick of forecast q: offset + q
            handle.write("".join(
                f"{key},{q},{offset + q},{forecast!r},{actual!r},{loss!r}{_CSV_END}"
                for q, (forecast, actual, loss) in enumerate(
                    zip(r.forecasts.tolist(), r.actuals.tolist(), r.losses.tolist()), start=1)))
    write_table(os.path.join(outdir, "events.csv"), EVENT_COLUMNS,
                ((r.stream_id, r.batch_index, log.policy_name, r.decision, _fmt(r.p_value),
                  _fmt(r.statistic)) for r in log.records),
                stamp=log.stamp)
    write_table(os.path.join(outdir, "timings.csv"), TIMING_COLUMNS,
                ((r.stream_id, r.batch_index, repr(r.retrain_seconds))
                 for r in log.records if r.retrain_seconds),
                stamp=log.stamp)


def _open_table(stack: ExitStack, outdir: str, name: str, columns: list[str]):
    """(stamp, text handle) of one run-log file, positioned after its header."""
    handle = stack.enter_context(open(os.path.join(outdir, name), newline="",
                                      encoding="utf-8"))
    stamp = handle.readline().rstrip("\r\n")
    if parse_stamp(stamp) is None:
        raise ParseError(1, f"{name}: expected a '# config_hash=... seed=...' stamp")
    if handle.readline().rstrip("\r\n").split(",") != columns:
        raise ParseError(2, f"{name}: expected header {','.join(columns)}")
    return stamp, handle


# forecasts.csv rows parsed per np.loadtxt call. It bounds the read's working
# memory beyond the records it returns (a stream id object per row, the
# parsed fields and their columns: about 0.25 MiB), whatever the log's
# length, while each call's fixed cost (about 12 us) stays small.
CHUNK_ROWS = 1 << 10
# The fields read_runlog reads back: q is implied by the row's place in its
# record, and losses derive from forecasts and actuals.
_FORECAST_FIELDS = np.dtype([("stream_id", object), ("batch_index", np.int64),
                             ("tick", np.int64), ("forecast", float), ("actual", float)])
_FORECAST_USECOLS = (0, 1, 3, 4, 5)


def _bad_forecast_row(handle) -> ParseError | None:
    """ParseError naming the first forecasts.csv row whose stream id, batch
    index, tick, forecast and actual do not parse, if there is one."""
    handle.seek(0)
    rows = itertools.islice(csv.reader(handle), 2, None)  # past stamp and header
    for line, row in enumerate(rows, start=3):
        try:
            if len(row) < len(FORECAST_COLUMNS) - 1:
                raise ValueError(f"{len(row)} fields, expected {len(FORECAST_COLUMNS)}")
            int(row[1]), int(row[3]), float(row[4]), float(row[5])
        except ValueError as err:
            return ParseError(line, f"forecasts.csv: {err}")
    return None


def _forecast_records(handle):
    """Each forecasts.csv record, a run of rows with one (stream_id, batch_index):
    (file line of its first row, stream id, batch index, tick of its last row,
    forecasts, actuals).

    Rows are parsed CHUNK_ROWS at a time, and each record's forecasts and
    actuals are slices of its chunk's two value columns. The last record of
    a full chunk may go on in the next chunk, so its rows are carried into it.
    Any warning from ``np.loadtxt`` is an error: numpy 1.23 and 1.24 read an
    integer field such as ``1.5`` through a float, truncating it, with only
    a DeprecationWarning. loadtxt skips a blank line, which csv reads as a
    row of no fields, so the file's lines are counted and, if they outnumber
    its rows, checked with csv; a stream id holding a line break also spans
    two lines.
    """
    columns = [np.empty(0, field) for field, _ in _FORECAST_FIELDS.fields.values()]
    first = 0  # row index of columns' first row, 0 for the row after the header
    counted = itertools.count(1)  # one past the lines read: compress keeps every line
    lines = itertools.compress(handle, counted)
    peek = next(lines, "")
    while peek:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                chunk = np.loadtxt(itertools.chain([peek], lines), dtype=_FORECAST_FIELDS,
                                   delimiter=",", quotechar='"', comments=None,
                                   usecols=_FORECAST_USECOLS, max_rows=CHUNK_ROWS, ndmin=1,
                                   encoding="utf-8")
        except (ValueError, Warning) as exc:
            raise (_bad_forecast_row(handle) or ParseError(
                3, f"forecasts.csv, at or after this line: {exc}")) from None
        # a read of no rows would warn, so look for one first
        peek = next(lines, "") if chunk.size == CHUNK_ROWS else ""
        columns = [np.concatenate((kept, chunk[name]))
                   for kept, name in zip(columns, _FORECAST_FIELDS.names)]
        ids, batches, ticks, forecasts, actuals = columns
        starts = np.flatnonzero((ids[1:] != ids[:-1]) | (batches[1:] != batches[:-1])) + 1
        bounds = [0, *starts.tolist(), ids.size]
        if peek:
            bounds.pop()  # the last record goes on, or ends, in the next chunk
        for lo, hi in itertools.pairwise(bounds):
            yield (first + lo + 3, ids[lo], int(batches[lo]), int(ticks[hi - 1]),
                   forecasts[lo:hi], actuals[lo:hi])
        first += bounds[-1]
        columns = [column[bounds[-1]:] for column in columns]
    if next(counted) != first + 1:
        error = _bad_forecast_row(handle)
        if error is not None:
            raise error


def read_runlog(outdir: str) -> RunLog:
    """Rebuild a RunLog, stamp included, from the files written by write_runlog.

    forecasts.csv is parsed by ``np.loadtxt``, CHUNK_ROWS rows at a time,
    and its records are checked in step with events.csv and timings.csv,
    which ``csv`` reads one row per record. Files that do not list the same
    records in the same order, or carry different stamps, raise ParseError
    naming the file and line, as do events.csv rows naming two policies and
    forecasts.csv rows whose fields do not parse. The ``loss`` column is not
    read back: losses derive from forecasts and actuals.
    """
    names = [("forecasts.csv", FORECAST_COLUMNS), ("events.csv", EVENT_COLUMNS)]
    if os.path.exists(os.path.join(outdir, "timings.csv")):
        names.append(("timings.csv", TIMING_COLUMNS))
    with ExitStack() as stack:
        tables = [_open_table(stack, outdir, name, columns) for name, columns in names]
        stamp = tables[0][0]
        if any(other != stamp for other, _ in tables[1:]):
            raise ParseError(1, "run-log files carry different stamps")
        events = csv.reader(tables[1][1])
        timings = csv.reader(tables[2][1]) if len(tables) > 2 else iter(())
        timing = next(timings, None)

        records = []
        stream_ids = {}  # one string object per stream
        policy = None  # the one policy every events.csv row names
        for line, stream_id, batch, end, forecasts, actuals in _forecast_records(tables[0][1]):
            stream_id = stream_ids.setdefault(stream_id, stream_id)
            key = [stream_id, str(batch)]
            event = next(events, None)
            if event is None or event[:2] != key:
                listed = "no batch" if event is None else event[:2]
                raise ParseError(line, f"forecasts.csv lists {key}, events.csv line "
                                       f"{events.line_num + 2} lists {listed}")
            try:
                policy = event[2] if policy is None else policy
                if event[2] != policy:
                    raise ParseError(events.line_num + 2, f"events.csv names policy "
                                                          f"{event[2]!r}, line 3 {policy!r}")
                seconds = 0.0
                if timing is not None and timing[:2] == key:
                    seconds = float(timing[2])
                    timing = next(timings, None)
                records.append(BatchRecord(
                    stream_id=stream_id, batch_index=batch, batch_end=end,
                    forecasts=forecasts, actuals=actuals, decision=event[3],
                    p_value=float(event[4]) if event[4] else None,
                    statistic=float(event[5]) if event[5] else None,
                    model_token="", retrain_seconds=seconds,
                ))
            except (ValueError, IndexError) as exc:
                raise ParseError(line, f"forecasts.csv record (events.csv line "
                                       f"{events.line_num + 2}): {exc}") from None
        if next(events, None) is not None:
            raise ParseError(events.line_num + 2,
                             "events.csv lists a batch that forecasts.csv does not list there")
        if timing is not None:
            raise ParseError(timings.line_num + 2,
                             "timings.csv lists a batch that forecasts.csv does not list there")
    config_hash, seed = parse_stamp(stamp)
    return RunLog(stream_ids=tuple(stream_ids),
                  horizon=records[0].forecasts.size if records else 0,
                  policy_name=policy or "", forecaster="",
                  seed=seed, config_hash=config_hash, records=records)
