"""Flat config documents: reading, hashing, and one parser per field type.

``parse_field`` reads a flat JSON value as its field's annotated type
(``int``, ``float | None``, ``bool``, ``tuple[int, ...]``, ...), accepting
only lossless spellings such as ``8.0`` or ``"8"`` for an int. The config
dataclasses call ``check_fields``, which stores each field as its parser
reads it, so both paths reject the same values and equal configs hold (and
hash) equal values.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import Field, fields

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


def parse_field(f: Field, key: str, value):
    """The flat value ``value`` of key ``key`` as field ``f``'s type."""
    kind = f.type.removesuffix(" | None")
    if value is None and kind != f.type:
        return None
    with config_errors(key):
        return _PARSERS[kind](value)


def check_fields(obj) -> None:
    """Store each typed field of ``obj`` as its parser reads it.

    A value the parser rejects raises ConfigError. ``obj`` may be frozen.
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


@contextmanager
def config_errors(key: str):
    """Report a TypeError or ValueError raised while building a config as ConfigError ``key``."""
    try:
        yield
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
