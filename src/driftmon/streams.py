"""Time-indexed multivariate stream container, batch segmentation, CSV IO.

Ticks are abstract 1-based integers at the base frequency (e.g. quarter
hours); calendar structure is a feature-construction concern and lives in
:mod:`driftmon.features`. A StreamSet is immutable after construction and
safe to share across workers. Every CSV file the package emits is opened by
``table_file`` and, unless the caller formats its own lines, written by
``write_table``.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompletePanel, ParseError
from .schema import check_fields

CSV_HEADER = ["tick", "stream_id", "value"]
# Bound on the magnitude of a panel value: squared forecast errors of values
# near 1e100, and their moments, overflow in the monitor's tests.
MAX_MAGNITUDE = 1e50


@dataclass(frozen=True)
class StreamSet:
    """Balanced panel of D real-valued streams on a shared tick index 1..T.

    values[t-1, d] is the observation of stream d at tick t. All streams
    share the same length and there are no missing cells.
    """

    values: np.ndarray  # (T, D) float64
    stream_ids: tuple[str, ...]
    slots_per_batch: int = field(metadata={"range": "[1, inf)"})

    def __post_init__(self):
        check_fields(self)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a (T, D) matrix")
        if values.shape[1] != len(self.stream_ids):
            raise ValueError("stream_ids length must match number of columns")
        if len(set(self.stream_ids)) != len(self.stream_ids):
            raise ValueError("stream_ids must be unique")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "stream_ids", tuple(self.stream_ids))

    @property
    def n_ticks(self) -> int:
        return self.values.shape[0]

    @property
    def n_streams(self) -> int:
        return self.values.shape[1]


def batch_ends(stream_set: StreamSet) -> list[int]:
    """All complete batch-end ticks: B, 2B, ... <= T.

    An incomplete trailing batch is excluded; decisions only happen at
    complete batch ends.
    """
    b = stream_set.slots_per_batch
    return list(range(b, stream_set.n_ticks + 1, b))


def ingest_csv(path: str, slots_per_batch: int = 60) -> StreamSet:
    """Read a ``tick,stream_id,value`` CSV into a StreamSet.

    The file must contain the full tick x stream grid with ticks 1..T.
    Streams are ordered by first appearance. Raises ParseError with the
    offending 1-based line number for malformed rows or values that are not
    finite numbers below MAX_MAGNITUDE in magnitude, IncompletePanel for a
    missing grid cell.
    """
    cells: dict[tuple[int, str], float] = {}
    stream_order: dict[str, None] = {}   # ids by first appearance, looked up in O(1)
    max_tick = 0
    with open(path, newline="", encoding="utf-8") as handle:
        numbered = [
            (line_no, line)
            for line_no, line in enumerate(handle, start=1)
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if not numbered:
            raise ParseError(1, "empty file, expected header tick,stream_id,value")
        header_no, header_line = numbered[0]
        header = next(csv.reader([header_line]))
        if [h.strip() for h in header] != CSV_HEADER:
            raise ParseError(header_no, f"expected header {','.join(CSV_HEADER)}")
        for line_no, row in _records(numbered[1:]):
            if len(row) != 3:
                raise ParseError(line_no, f"expected 3 fields, got {len(row)}")
            raw_tick, stream_id, raw_value = row[0].strip(), row[1].strip(), row[2].strip()
            try:
                tick = int(raw_tick)
            except ValueError:
                raise ParseError(line_no, f"tick {raw_tick!r} is not an integer")
            if tick < 1:
                raise ParseError(line_no, f"tick {tick} must be >= 1")
            try:
                value = float(raw_value)
            except ValueError:
                raise ParseError(line_no, f"value {raw_value!r} is not a number")
            if not abs(value) < MAX_MAGNITUDE:  # nan and inf included
                raise ParseError(line_no, f"value {raw_value!r} is not a finite number "
                                          "below 1e50 in magnitude")
            key = (tick, stream_id)
            if key in cells:
                raise ParseError(line_no, f"duplicate cell tick={tick}, stream={stream_id!r}")
            stream_order.setdefault(stream_id)
            cells[key] = value
            max_tick = max(max_tick, tick)

    if not cells:
        raise ParseError(header_no + 1, "no data rows")
    values = np.empty((max_tick, len(stream_order)))
    for tick in range(1, max_tick + 1):
        for col, stream_id in enumerate(stream_order):
            try:
                values[tick - 1, col] = cells[(tick, stream_id)]
            except KeyError:
                raise IncompletePanel(tick, stream_id)
    return StreamSet(values=values, stream_ids=tuple(stream_order),
                     slots_per_batch=slots_per_batch)


def _records(numbered: list[tuple[int, str]]):
    """(line number, fields) of each of the numbered lines, each read as one CSV record.

    One reader parses the lines in turn. A quote left open at the end of a
    line would carry its record on into the next lines; that line is parsed
    again on its own, as the record it holds alone, and reading resumes on
    the line after it.
    """
    start = 0
    while start < len(numbered):
        reader = csv.reader(numbered[i][1] for i in range(start, len(numbered)))
        i = start   # the line whose record is read next
        try:
            for row in reader:
                if reader.line_num != i - start + 1:
                    break
                yield numbered[i][0], row
                i += 1
            else:
                return
        except csv.Error:
            pass   # raised again below when line i is at fault
        yield numbered[i][0], next(csv.reader([numbered[i][1]]))
        start = i + 1


@contextmanager
def table_file(path: str, header, stamp: str | None = None):
    """Open a CSV table for writing, with the ``# stamp`` line when given and the header.

    Yields the text handle; lines written to it must end as ``csv.writer``
    rows end, in carriage return and line feed. Readers skip ``#`` lines.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if stamp:
            handle.write(f"# {stamp}\n")
        csv.writer(handle).writerow(header)
        yield handle


def write_table(path: str, header, rows, stamp: str | None = None) -> None:
    """Write a CSV table: the ``# stamp`` line when given, the header, the rows."""
    with table_file(path, header, stamp) as handle:
        csv.writer(handle).writerows(rows)


def write_csv(stream_set: StreamSet, path: str, header_comment: str | None = None) -> None:
    """Serialize a StreamSet to the ``tick,stream_id,value`` schema.

    ``header_comment`` (without the leading ``#``) is written as the first
    line when given. Values are written as Python floats, whose text is
    their repr, so a write/read round trip is exact.
    """
    write_table(path, CSV_HEADER,
                ((tick, stream_id, value)
                 for tick, row in enumerate(stream_set.values.tolist(), start=1)
                 for stream_id, value in zip(stream_set.stream_ids, row)),
                stamp=header_comment)
