"""Predictor construction: lagged demand across streams, trend, seasonal dummies.

Every forecaster consumes the same design so comparisons stay fair. The
column order is fixed: for each lag j (ascending), the lagged value of every
stream in panel order; then the scaled trend; then day-of-week dummies; then
hour-of-day dummies. Dummy blocks drop their first level as the reference so
the design stays full rank next to a model intercept. Each FeatureSpec
builds one table of dummy rows per block, a row for each level, and
``feature_matrix`` takes each tick's day and hour rows from them.

Leakage freedom is structural: forecasts q steps past a batch end b use lags
t - j with j >= min(lags) >= q, so every predictor references ticks <= b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InsufficientHistory
from .schema import bounded, check_fields
from .streams import StreamSet

TICKS_PER_HOUR = 4  # base frequency is quarter-hourly


@dataclass(frozen=True)
class FeatureSpec:
    """Which predictors to build.

    lags are in ticks; slots_per_day sets both the seasonal day length and
    the trend scaling; hour dummies carve the day into slots_per_day / 4
    hourly levels.
    """

    lags: tuple[int, ...] = bounded((60, 420), "[1, inf)")
    slots_per_day: int = bounded(60, "[1, inf)")
    days_per_week: int = bounded(7, "[1, inf)")
    include_trend: bool = True
    include_hour_dummies: bool = True
    include_dow_dummies: bool = True

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "lags", tuple(sorted(self.lags)))
        if not self.lags:
            raise ConfigError("lags", "must be nonempty")
        if len(set(self.lags)) != len(self.lags):
            raise ConfigError("lags", "must be distinct")
        if self.include_hour_dummies and self.slots_per_day % TICKS_PER_HOUR != 0:
            raise ConfigError("slots_per_day", "must be divisible by 4 for hour dummies")

    @property
    def max_lag(self) -> int:
        return max(self.lags)

    @property
    def n_hour_levels(self) -> int:
        return self.slots_per_day // TICKS_PER_HOUR

    def column_names(self, stream_ids: tuple[str, ...]) -> list[str]:
        names = [f"lag{j}_{sid}" for j in self.lags for sid in stream_ids]
        if self.include_trend:
            names.append("trend")
        if self.include_dow_dummies:
            names.extend(f"dow_{k}" for k in range(1, self.days_per_week))
        if self.include_hour_dummies:
            names.extend(f"hour_{k}" for k in range(1, self.n_hour_levels))
        return names

    @cached_property
    def _dow_dummies(self) -> np.ndarray:
        """Row k holds the day-of-week dummies of day k of the week."""
        return np.eye(self.days_per_week, self.days_per_week - 1, k=-1)

    @cached_property
    def _hour_dummies(self) -> np.ndarray:
        """Row k holds the hour-of-day dummies of hour k of the day."""
        return np.eye(self.n_hour_levels, self.n_hour_levels - 1, k=-1)


@dataclass(frozen=True)
class DesignMatrix:
    """Training rows (X, y) with stable column labels."""

    X: np.ndarray  # (n, p)
    y: np.ndarray  # (n,)
    column_names: tuple[str, ...]

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise ValueError("X must be 2-D and y 1-D")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")
        if self.X.shape[1] != len(self.column_names):
            raise ValueError("column_names length must match X columns")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("design matrix entries must be finite")


def feature_matrix(stream_set: StreamSet, spec: FeatureSpec,
                   ticks: np.ndarray) -> np.ndarray:
    """Feature rows for each target tick in ``ticks`` (all must be > max lag)."""
    ticks = np.asarray(ticks, dtype=int)
    if ticks.size and int(ticks.min()) <= spec.max_lag:
        bad = int(ticks.min())
        raise InsufficientHistory(
            f"target tick {bad} needs history before tick 1 (max lag {spec.max_lag})"
        )
    values = stream_set.values
    blocks = [values[ticks - j - 1, :] for j in spec.lags]
    if spec.include_trend:
        blocks.append((ticks / spec.slots_per_day)[:, None])
    day = (ticks - 1) // spec.slots_per_day
    if spec.include_dow_dummies:
        blocks.append(spec._dow_dummies.take(day % spec.days_per_week, axis=0))
    if spec.include_hour_dummies:
        hour = (ticks - 1) % spec.slots_per_day // TICKS_PER_HOUR
        blocks.append(spec._hour_dummies.take(hour, axis=0))
    return np.hstack(blocks)


def training_set(stream_set: StreamSet, spec: FeatureSpec, target_stream: int,
                 window_end: int, window_days: int) -> DesignMatrix:
    """Rolling training sample for one stream.

    Rows cover the trailing window_days * slots_per_day ticks ending at
    window_end, restricted to ticks with full lag history. Raises
    InsufficientHistory when the trimmed window is empty.
    """
    if not 1 <= window_end <= stream_set.n_ticks:
        raise InsufficientHistory(
            f"window_end {window_end} outside stream range 1..{stream_set.n_ticks}"
        )
    start = window_end - window_days * spec.slots_per_day + 1
    first_usable = spec.max_lag + 1
    lo = max(start, first_usable, 1)
    if lo > window_end:
        raise InsufficientHistory(
            f"window ending at {window_end} has no ticks after the lag trim "
            f"(first usable tick is {first_usable})"
        )
    ticks = np.arange(lo, window_end + 1)
    X = feature_matrix(stream_set, spec, ticks)
    y = stream_set.values[ticks - 1, target_stream].copy()
    return DesignMatrix(X=X, y=y,
                        column_names=tuple(spec.column_names(stream_set.stream_ids)))
