"""Exception types shared across the package."""


class DriftmonError(Exception):
    """Base class for all package errors."""


class IncompletePanel(DriftmonError):
    """A tick x stream grid cell is missing from ingested data."""

    def __init__(self, tick: int, stream_id: str):
        self.tick = tick
        self.stream_id = stream_id
        super().__init__(f"missing value for tick={tick}, stream={stream_id!r}")


class ParseError(DriftmonError):
    """A CSV row could not be parsed. ``row`` is the 1-based file line number."""

    def __init__(self, row: int, message: str):
        self.row = row
        super().__init__(f"row {row}: {message}")


class InsufficientHistory(DriftmonError):
    """Not enough past ticks to build the requested features or window."""


class InsufficientData(DriftmonError):
    """Training sample too small for the requested fit."""


class InsufficientSample(DriftmonError):
    """A statistical test needs more observations than were supplied."""


class InvalidLag(DriftmonError):
    """Seasonal-lag forecaster configured with an unusable lag."""


class ShapeError(DriftmonError):
    """Array dimensions do not match the operation's contract."""


class EmptyLog(DriftmonError):
    """Report requested from a run log with no recorded batches."""


class ConfigError(DriftmonError, ValueError):
    """A run configuration value is missing or inconsistent. ``field`` is its flat key."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")
