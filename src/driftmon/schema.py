"""Flat config documents: reading, hashing, and one parser per field type.

``parse_field`` reads a flat JSON value as its field's annotated type
(``int``, ``float | None``, ``bool``, ``tuple[int, ...]``, ...), accepting
only lossless spellings such as ``8.0`` or ``"8"`` for an int, and then
checks the value against the interval its field declares with ``bounded``.
The config dataclasses call ``check_fields``, which stores each field as its
parser reads it, so both paths reject the same values and equal configs hold
(and hash) equal values. A rejected value raises ConfigError naming its key.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from contextlib import contextmanager
from dataclasses import Field, field, fields

from .errors import ConfigError


def _int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    out = float(value)
    if isinstance(value, bool) or not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _bool(value) -> bool:
    if isinstance(value, int) and value in (0, 1):  # bool is an int
        return bool(value)
    raise ValueError(f"expected true or false, got {value!r}")


def _tuple(*items):
    """Parser of a list: ``_tuple(p, ...)`` reads each entry with ``p``, and
    ``_tuple(p, q)`` reads exactly two entries, the first with ``p``."""
    def parse(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        parsers = items[:1] * len(value) if items[-1] is ... else items
        if len(value) != len(parsers):
            raise ValueError(f"expected {len(parsers)} entries, got {value!r}")
        return tuple(read(entry) for read, entry in zip(parsers, value))
    return parse


_PARSERS = {"int": _int, "float": _float, "bool": _bool, "str": str,
            "tuple[int, ...]": _tuple(_int, ...), "tuple[float, ...]": _tuple(_float, ...),
            "tuple[tuple[int, int, float], ...]": _tuple(_tuple(_int, _int, _float), ...)}


def bounded(default, interval: str):
    """A dataclass field whose value, or each entry of a list value, lies in
    ``interval``: ``[1, inf)``, ``(0, 1]`` and the like. ``None`` passes for an
    optional field. Metadata is not hashed, so ``config_hash`` ignores it."""
    return field(default=default, metadata={"range": interval})


def _check_range(interval: str, value) -> None:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    for x in value if isinstance(value, tuple) else (value,):
        if not ((lo < x or interval[0] == "[" and x == lo)
                and (x < hi or interval[-1] == "]" and x == hi)):
            raise ValueError(f"{x!r} is outside {interval}")


def parse_field(f: Field, key: str, value):
    """The flat value ``value`` of key ``key`` as field ``f``'s type, inside its range."""
    kind = f.type.removesuffix(" | None")
    if value is None and kind != f.type:
        return None
    with config_errors(key):
        out = _PARSERS[kind](value)
        if "range" in f.metadata:
            _check_range(f.metadata["range"], out)
        return out


def check_fields(obj) -> None:
    """Store each typed field of ``obj`` as its parser reads it.

    A value the parser rejects raises ConfigError naming the field. ``obj``
    may be frozen.
    """
    for f in fields(obj):
        if f.type.removesuffix(" | None") in _PARSERS:
            object.__setattr__(obj, f.name, parse_field(f, f.name, getattr(obj, f.name)))


def document_hash(doc: dict) -> str:
    """Hash of a JSON document: its SHA-256 with sorted keys, 12 hex digits."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:12]


def stamp_line(config_hash: str, seed: int) -> str:
    """The first line of a stamped output table, without its ``#``."""
    return f"config_hash={config_hash} seed={seed}"


def parse_stamp(line: str) -> tuple[str, int] | None:
    """(config_hash, seed) of a line ``"# " + stamp_line(...)``; None if it is no stamp."""
    match = re.fullmatch(r"# config_hash=(\S*) seed=(\d+)", line)
    return None if match is None else (match[1], int(match[2]))


@contextmanager
def config_errors(key: str):
    """Report a TypeError or ValueError raised while building a config as ConfigError
    ``key``; a ConfigError, which names its own key, passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc))


def read_json(path: str, key: str):
    """The JSON document at ``path``; ConfigError ``key`` if it is missing or invalid."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(key, f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(key, f"invalid JSON in {path}: {exc}")
