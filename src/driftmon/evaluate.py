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

A RunLog holds its records in columns: all forecasts in one flat float
array, the other fields in one small structured array, and the actuals
either in the panel the run scored (a pipeline run's log) or in a flat
array beside the forecasts. A pipeline run's log keeps about 0.55 KB a
record with a 60-step horizon, 480 bytes of them forecasts. ``log.records``
builds a ``BatchRecord`` on access; ``write_runlog``, ``read_runlog`` and
``build_report`` work on the columns and build none. They give the same
bits as a per-record loop: ``read_runlog`` parses forecasts.csv with
numpy's C reader in chunks of rows, and ``build_report`` scores all values
in one ``sape_values`` call and sums all records of one length in one
matrix.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import os
import warnings
from collections.abc import Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

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
    if not np.isfinite(losses).all():  # half the time of np.all(...) on a batch
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

class BatchRecord(NamedTuple):
    """One stream's evaluation batch: forecasts, actuals and the decision on it.

    A RunLog holds its records in columns and builds a BatchRecord each time
    one is read, so a record is a named tuple, which takes about a quarter
    of a frozen dataclass's time to build. In a pipeline run's log,
    ``actuals`` is a read-only view into the panel, so records share the
    panel's memory.
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


# A record's fields besides its forecasts and actuals, one column each: 65
# bytes a record. Strings are codes into the log's tables of distinct
# values; every int column holds what ``read_runlog`` parses into it. ``start`` and ``size`` place the forecasts in the log's flat
# forecast column. ``missing`` holds _NO_P when the p-value is None and
# _NO_STATISTIC when the statistic is, so None and nan stay distinct.
_FIELDS = np.dtype([
    ("stream", np.int32), ("batch_index", np.int64), ("batch_end", np.int64),
    ("start", np.int64), ("size", np.int32), ("decision", np.int32),
    ("model_token", np.int32), ("missing", np.uint8), ("p_value", float),
    ("statistic", float), ("retrain_seconds", float)])
_NO_P, _NO_STATISTIC = 1, 2


class _Table:
    """Distinct values in the order first seen; a value's code is its index."""

    def __init__(self, values=()):
        self.values: list = []
        self.codes: dict = {}
        for value in values:
            self.code(value)

    def code(self, value) -> int:
        code = self.codes.get(value)
        if code is None:
            code = self.codes[value] = len(self.values)
            self.values.append(value)
        return code


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _grown(column: np.ndarray, need: int) -> np.ndarray:
    """A copy of ``column`` with room for ``need`` items: the larger of that
    and twice its length, so appends take amortized constant time."""
    out = np.empty(max(need, 2 * column.size), column.dtype)
    out[:column.size] = column
    return out


class _Records(Sequence):
    """A RunLog's records, read-only: each a BatchRecord built from the
    columns when it is read. Iterating lists the columns once."""

    __slots__ = ("_log",)

    def __init__(self, log: RunLog):
        self._log = log

    def __len__(self) -> int:
        return self._log._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k, n = operator.index(index), len(self)
        if not -n <= k < n:
            raise IndexError("record index out of range")
        return next(self._log._built([self._log._fields[k % n].item()]))

    def __iter__(self):
        fields = self._log._fields[:self._log._n]
        return self._log._built(zip(*(fields[name].tolist() for name in _FIELDS.names)))


class RunLog:
    """Append-only record of one pipeline run, held in columns.

    All records' forecasts are one flat float column, in record order, and
    each record's other fields are one row of a structured array
    (``_FIELDS``). A log made by ``over_panel`` takes its records' actuals
    from the panel the run scored: a record's actuals are its stream's
    column over the ticks its forecasts cover, the ``size`` ticks up to
    ``batch_end``. Any other log holds its actuals in a flat column beside
    the forecasts. ``records`` is a read-only sequence of ``BatchRecord``
    whose forecasts and actuals are read-only views of these columns.
    """

    __slots__ = ("stream_ids", "horizon", "policy_name", "forecaster", "seed", "config_hash",
                 "meta", "_streams", "_decisions", "_tokens", "_n", "_n_values", "_fields",
                 "_forecasts", "_actuals", "_forecast_view", "_actual_view")

    def __init__(self, stream_ids: tuple[str, ...], horizon: int, policy_name: str,
                 forecaster: str, seed: int, config_hash: str = "", records=(),
                 meta: dict | None = None):
        self.stream_ids = stream_ids
        self.horizon = horizon
        self.policy_name = policy_name
        self.forecaster = forecaster
        self.seed = seed
        self.config_hash = config_hash
        self.meta = {} if meta is None else meta
        self._streams, self._decisions, self._tokens = _Table(), _Table(), _Table()
        self._n = self._n_values = 0  # records, and forecasts in all
        self._fields = np.empty(0, _FIELDS)
        self._forecasts = np.empty(0)
        self._actuals: np.ndarray | None = np.empty(0)  # None while a panel holds them
        self._forecast_view = _read_only(self._forecasts)
        self._actual_view = _read_only(self._actuals)  # or the panel
        for record in records:
            self.append(record)

    @classmethod
    def over_panel(cls, panel: np.ndarray, n_records: int, n_values: int, **head) -> RunLog:
        """An empty log whose records take their actuals from ``panel``, a
        ticks × streams array whose columns are ``stream_ids``, with room for
        exactly ``n_records`` records of ``n_values`` forecasts in all."""
        log = cls(**head)
        log._streams = _Table(log.stream_ids)  # a stream's code is its panel column
        log._actuals, log._actual_view = None, _read_only(panel)
        log._reserve(n_records, n_values)
        return log

    @property
    def stamp(self) -> str:
        """The first line of each run-log file and of report.csv, without its ``#``."""
        return stamp_line(self.config_hash, self.seed)

    @property
    def records(self) -> Sequence[BatchRecord]:
        """The records in log order, read-only, each built when it is read."""
        return _Records(self)  # made per call: held by the log, it would form a cycle

    def append(self, record: BatchRecord) -> None:
        """Append a record of any length, copying its actuals into the log."""
        forecasts = np.asarray(record.forecasts, dtype=float)
        actuals = np.asarray(record.actuals, dtype=float)
        if forecasts.ndim != 1 or actuals.shape != forecasts.shape:
            raise ShapeError(f"forecasts {forecasts.shape} and actuals {actuals.shape} must "
                             "be equal-length vectors")
        if self._actuals is None:  # the records so far move out of the panel
            moved = self._columns()[2]
            self._actuals = np.empty(self._forecasts.size)
            self._actuals[:self._n_values] = moved
            self._actual_view = _read_only(self._actuals)
        self._reserve(1, forecasts.size)
        self._actuals[self._n_values:self._n_values + forecasts.size] = actuals
        self._put(self._streams.code(record.stream_id), record.batch_index, record.batch_end,
                  forecasts, record.decision, record.p_value, record.statistic,
                  record.model_token, record.retrain_seconds)

    def append_from_panel(self, stream: int, batch_index: int, batch_end: int,
                          forecasts: np.ndarray, decision: str, p_value: float | None,
                          statistic: float | None, model_token: str,
                          retrain_seconds: float = 0.0) -> None:
        """Append the record of panel column ``stream`` whose actuals are that
        column over the ``forecasts.size`` ticks up to ``batch_end``. Only a
        log made by ``over_panel``, and appended to only so, holds a panel."""
        if self._actuals is not None:
            raise ValueError("append_from_panel needs a log made by RunLog.over_panel")
        self._put(stream, batch_index, batch_end, forecasts, decision, p_value, statistic,
                  model_token, retrain_seconds)

    def for_stream(self, stream_id: str) -> list[BatchRecord]:
        fields = self._fields[:self._n]
        mine = fields[fields["stream"] == self._streams.codes.get(stream_id, -1)]
        return list(self._built(mine.tolist()))

    def _load(self, rows: list[tuple], forecasts: np.ndarray, actuals: np.ndarray) -> None:
        """Hold ``rows`` (tuples of ``_FIELDS``) and the flat value columns they index."""
        self._fields = np.array(rows, dtype=_FIELDS)
        self._forecasts, self._actuals = forecasts, actuals
        self._forecast_view, self._actual_view = _read_only(forecasts), _read_only(actuals)
        self._n, self._n_values = len(rows), forecasts.size

    def _put(self, stream, batch_index, batch_end, forecasts, decision, p_value, statistic,
             model_token, retrain_seconds) -> None:
        size = forecasts.size
        self._reserve(1, size)
        start = self._n_values
        self._forecasts[start:start + size] = forecasts
        self._fields[self._n] = (
            stream, batch_index, batch_end, start, size, self._decisions.code(decision),
            self._tokens.code(model_token),
            (p_value is None) * _NO_P | (statistic is None) * _NO_STATISTIC,
            math.nan if p_value is None else p_value,
            math.nan if statistic is None else statistic, retrain_seconds)
        self._n += 1
        self._n_values += size

    def _reserve(self, records: int, values: int) -> None:
        """Room for ``records`` more records of ``values`` more forecasts."""
        if self._n + records > self._fields.size:
            self._fields = _grown(self._fields, self._n + records)
        if self._n_values + values > self._forecasts.size:
            self._forecasts = _grown(self._forecasts, self._n_values + values)
            self._forecast_view = _read_only(self._forecasts)
            if self._actuals is not None:
                self._actuals = _grown(self._actuals, self._forecasts.size)
                self._actual_view = _read_only(self._actuals)

    def _built(self, rows):
        """A BatchRecord for each of ``rows``, tuples of ``_FIELDS`` values."""
        streams, decisions = self._streams.values, self._decisions.values
        tokens = self._tokens.values
        forecasts, actuals, panel = self._forecast_view, self._actual_view, self._actuals is None
        for (stream, batch_index, batch_end, start, size, decision, model_token, missing,
             p_value, statistic, retrain_seconds) in rows:
            # tuple.__new__, as BatchRecord._make does, takes half the time of BatchRecord(...)
            yield tuple.__new__(BatchRecord, (
                streams[stream], batch_index, batch_end, forecasts[start:start + size],
                actuals[batch_end - size:batch_end, stream] if panel
                else actuals[start:start + size],
                decisions[decision], None if missing & _NO_P else p_value,
                None if missing & _NO_STATISTIC else statistic, tokens[model_token],
                retrain_seconds))

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The records' fields, and all their forecasts and all their actuals
        as two flat arrays in record order."""
        fields = self._fields[:self._n]
        forecasts = self._forecast_view[:self._n_values]
        if self._actuals is not None:
            return fields, forecasts, self._actual_view[:self._n_values]
        panel = self._actual_view
        return fields, forecasts, np.concatenate([np.empty(0), *(
            panel[end - size:end, stream] for stream, end, size in zip(
                fields["stream"].tolist(), fields["batch_end"].tolist(),
                fields["size"].tolist()))])


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


def _sape_sums(fields: np.ndarray, forecasts: np.ndarray, actuals: np.ndarray) -> np.ndarray:
    """Each record's ``float(sape_values(r.actuals, r.forecasts).sum())``, bit for bit.

    All values are scored in one call. The records of one length are then
    gathered into one matrix, whose ``.sum(axis=1)`` sums each contiguous
    row with the pairwise sum a 1-D ``.sum()`` uses.
    """
    values = sape_values(actuals, forecasts)
    starts, sizes = fields["start"], fields["size"]
    sums = np.empty(len(fields))
    for size in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == size)
        sums[rows] = np.stack([values[start:start + size]
                               for start in starts[rows].tolist()]).sum(axis=1)
    return sums


def build_report(log: RunLog) -> Report:
    """Per-stream SMAPE, break counts and inter-break durations, plus averages.

    Works on the log's columns. A stream's SMAPE adds its records' sape sums
    in record order.
    """
    if not log.records:
        raise EmptyLog("run log has no records")
    fields, forecasts, actuals = log._columns()
    sums = _sape_sums(fields, forecasts, actuals)
    retrain = np.array([label in RETRAIN_LABELS
                        for label in log._decisions.values], dtype=bool)[fields["decision"]]
    reports = []
    for stream_id in log.stream_ids:
        mine = fields["stream"] == log._streams.codes.get(stream_id, -1)
        if not mine.any():
            continue
        total = 0.0
        for s in sums[mine].tolist():
            total += s
        break_batches = fields["batch_index"][mine & retrain]
        durations = np.diff(break_batches)
        p50 = float(np.percentile(durations, 50)) if durations.size else math.nan
        p90 = float(np.percentile(durations, 90)) if durations.size else math.nan
        reports.append(StreamReport(
            stream_id=stream_id,
            smape=total / int(fields["size"][mine].sum()),
            n_breaks=break_batches.size,
            p50_duration=p50,
            p90_duration=p90,
            retrain_seconds=sum(fields["retrain_seconds"][mine].tolist()),
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
    starts with the log's stamp and lists the records in log order. The
    rows are made from the log's columns.
    """
    os.makedirs(outdir, exist_ok=True)
    fields, forecasts, actuals = log._columns()
    stream_ids = [log._streams.values[code] for code in fields["stream"].tolist()]
    batches = fields["batch_index"].tolist()
    with table_file(os.path.join(outdir, "forecasts.csv"), FORECAST_COLUMNS,
                    log.stamp) as handle:
        losses = (actuals - forecasts) ** 2
        for stream_id, batch, end, start, size in zip(
                stream_ids, batches, fields["batch_end"].tolist(), fields["start"].tolist(),
                fields["size"].tolist()):
            # The key goes through csv.writer, which quotes it as needed; the
            # other fields are ints and float reprs, which csv.writer writes as is.
            key = _csv_line((stream_id, batch)).removesuffix(_CSV_END)
            offset = end - size   # tick of forecast q: offset + q
            stop = start + size
            handle.write("".join(
                f"{key},{q},{offset + q},{forecast!r},{actual!r},{loss!r}{_CSV_END}"
                for q, (forecast, actual, loss) in enumerate(
                    zip(forecasts[start:stop].tolist(), actuals[start:stop].tolist(),
                        losses[start:stop].tolist()), start=1)))
    missing = fields["missing"].tolist()
    write_table(os.path.join(outdir, "events.csv"), EVENT_COLUMNS,
                zip(stream_ids, batches, itertools.repeat(log.policy_name),
                    map(log._decisions.values.__getitem__, fields["decision"].tolist()),
                    (_fmt(None if m & _NO_P else p)
                     for m, p in zip(missing, fields["p_value"].tolist())),
                    (_fmt(None if m & _NO_STATISTIC else t)
                     for m, t in zip(missing, fields["statistic"].tolist()))),
                stamp=log.stamp)
    write_table(os.path.join(outdir, "timings.csv"), TIMING_COLUMNS,
                ((stream_id, batch, repr(seconds)) for stream_id, batch, seconds
                 in zip(stream_ids, batches, fields["retrain_seconds"].tolist()) if seconds),
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
# forecasts.csv's fields as np.loadtxt parses them. Parsing all seven, and
# not a subset, makes loadtxt require seven in every row, so a row with more
# raises too. q is implied by the row's place in its record and losses
# derive from forecasts and actuals, so those two are kept as one byte
# each, which costs no more than leaving them out.
_FORECAST_FIELDS = np.dtype([("stream_id", object), ("batch_index", np.int64), ("q", "S1"),
                             ("tick", np.int64), ("forecast", float), ("actual", float),
                             ("loss", "S1")])
_KEPT_FIELDS = ("stream_id", "batch_index", "tick", "forecast", "actual")


def _bad_forecast_row(handle) -> ParseError | None:
    """ParseError naming the first forecasts.csv row that does not have seven
    fields or whose stream id, batch index, tick, forecast and actual do not
    parse, if there is one."""
    handle.seek(0)
    rows = itertools.islice(csv.reader(handle), 2, None)  # past stamp and header
    for line, row in enumerate(rows, start=3):
        try:
            if len(row) != len(FORECAST_COLUMNS):
                raise ValueError(f"{len(row)} fields, expected {len(FORECAST_COLUMNS)}")
            int(row[1]), int(row[3]), float(row[4]), float(row[5])
        except ValueError as err:
            return ParseError(line, f"forecasts.csv: {err}")
    return None


def _forecast_records(handle, values: list):
    """Each forecasts.csv record, a run of rows with one (stream_id, batch_index):
    (file line of its first row, stream id, batch index, tick of its last row,
    number of rows). The forecasts and actuals of the records are appended
    to ``values`` as (forecasts, actuals) array pairs, in record order.

    Rows are parsed CHUNK_ROWS at a time; each chunk appends the values of
    the records it ends. The last record of a full chunk may go on in the
    next chunk, so its rows are carried into it.
    Any warning from ``np.loadtxt`` is an error: numpy 1.23 and 1.24 read an
    integer field such as ``1.5`` through a float, truncating it, with only
    a DeprecationWarning. loadtxt skips a blank line, which csv reads as a
    row of no fields, so the file's lines are counted and, if they outnumber
    its rows, checked with csv; a stream id holding a line break also spans
    two lines.
    """
    columns = [np.empty(0, _FORECAST_FIELDS[name]) for name in _KEPT_FIELDS]
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
                                   max_rows=CHUNK_ROWS, ndmin=1, encoding="utf-8")
        except (ValueError, Warning) as exc:
            raise (_bad_forecast_row(handle) or ParseError(
                3, f"forecasts.csv, at or after this line: {exc}")) from None
        # a read of no rows would warn, so look for one first
        peek = next(lines, "") if chunk.size == CHUNK_ROWS else ""
        columns = [np.concatenate((kept, chunk[name]))
                   for kept, name in zip(columns, _KEPT_FIELDS)]
        ids, batches, ticks, forecasts, actuals = columns
        starts = np.flatnonzero((ids[1:] != ids[:-1]) | (batches[1:] != batches[:-1])) + 1
        bounds = [0, *starts.tolist(), ids.size]
        if peek:
            bounds.pop()  # the last record goes on, or ends, in the next chunk
        values.append((forecasts[:bounds[-1]], actuals[:bounds[-1]]))
        for lo, hi in itertools.pairwise(bounds):
            yield first + lo + 3, ids[lo], int(batches[lo]), int(ticks[hi - 1]), hi - lo
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
    forecasts.csv rows that do not have seven fields or whose fields do not
    parse. The ``loss`` column is not read back: losses derive from
    forecasts and actuals. The log's columns are filled directly: its
    forecasts and actuals are the parsed value columns.
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

        rows = []  # one tuple of _FIELDS per record
        values: list = []
        streams, decisions = _Table(), _Table()
        start = 0
        policy = None  # the one policy every events.csv row names
        for line, stream_id, batch, end, size in _forecast_records(tables[0][1], values):
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
                rows.append((streams.code(stream_id), batch, end, start, size,
                             decisions.code(event[3]), 0,
                             (not event[4]) * _NO_P | (not event[5]) * _NO_STATISTIC,
                             float(event[4]) if event[4] else math.nan,
                             float(event[5]) if event[5] else math.nan, seconds))
            except (ValueError, IndexError) as exc:
                raise ParseError(line, f"forecasts.csv record (events.csv line "
                                       f"{events.line_num + 2}): {exc}") from None
            start += size
        if next(events, None) is not None:
            raise ParseError(events.line_num + 2,
                             "events.csv lists a batch that forecasts.csv does not list there")
        if timing is not None:
            raise ParseError(timings.line_num + 2,
                             "timings.csv lists a batch that forecasts.csv does not list there")
    config_hash, seed = parse_stamp(stamp)
    log = RunLog(stream_ids=tuple(streams.values), horizon=rows[0][4] if rows else 0,
                 policy_name=policy or "", forecaster="", seed=seed, config_hash=config_hash)
    log._streams, log._decisions, log._tokens = streams, decisions, _Table([""])
    log._load(rows, np.concatenate([np.empty(0), *(f for f, _ in values)]),
              np.concatenate([np.empty(0), *(a for _, a in values)]))
    return log
