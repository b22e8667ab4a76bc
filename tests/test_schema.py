"""Declared field ranges: each bounded field is checked by ``schema.parse_field``
on every path into a config, and every error names the key it concerns.

The cases are generated from the declarations, so a field that gains a range
is covered here without new test code.
"""

import argparse
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftmon.cli import build_parser, main
from driftmon.errors import ConfigError
from driftmon.monitor import POLICIES
from driftmon.pipeline import config_fields, config_from_dict
from driftmon.schema import parse_field, parse_stamp, stamp_line
from driftmon.simulate import NullStudyConfig, RegimeScenario

TINY_SCENARIO = RegimeScenario(n_streams=2, n_days=30, slots_per_day=60, noise_scale=1.0)
POLICY_OF_KEY = {cls.key_prefix + f.name: name
                 for name, cls in POLICIES.items() for f in fields(cls) if f.init}


def null_study_flags() -> dict:
    """NullStudyConfig field -> its ``null-study`` flag."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.option_strings[0] for a in sub.choices["null-study"]._actions
            if a.option_strings}


# (where the key is read, key, field) for every field that declares a range
BOUNDED = [pytest.param(where, key, f, id=f"{where}-{key}")
           for where, keyed in (("run", sorted(config_fields().items())),
                                ("scenario", [(f.name, f) for f in fields(RegimeScenario)]),
                                ("null_study", [(f.name, f) for f in fields(NullStudyConfig)]))
           for key, f in keyed if "range" in f.metadata]


def range_cases(f) -> tuple[list, list]:
    """The nearest values outside ``f``'s declared interval, and its bounds inside it."""
    interval = f.metadata["range"]
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    integral = "int" in f.type
    outside, inside = [], []
    for end, closed, away in ((lo, interval[0] == "[", -math.inf),
                              (hi, interval[-1] == "]", math.inf)):
        if math.isinf(end):
            continue
        if closed:
            inside.append(end)
            end = end + math.copysign(1, away) if integral else math.nextafter(end, away)
        outside.append(end)
    as_value = int if integral else float
    return [as_value(v) for v in outside], [as_value(v) for v in inside]


def test_the_ranges_of_the_documented_keys_are_declared():
    declared = {case.values[:2] for case in BOUNDED}
    assert {("run", "forest_n_trees"), ("run", "boosting_learning_rate"),
            ("run", "pelt_min_seg_len"), ("run", "alpha"), ("run", "lags"),
            ("scenario", "days_per_week"), ("null_study", "batch_size")} <= declared


@pytest.mark.parametrize("where, key, f", BOUNDED)
def test_values_outside_a_declared_range_fail_naming_their_key(tmp_path, capsys, where, key, f):
    outside, inside = range_cases(f)
    assert outside
    listed = f.type.startswith("tuple")
    for value in outside:
        flat = [value] if listed else value
        with pytest.raises(ConfigError) as exc:
            if where == "run":
                doc = {"data_csv": "panel.csv", "policy": POLICY_OF_KEY.get(key, "mean_test"),
                       key: flat}
                config_from_dict(doc)
            elif where == "scenario":
                doc = {**TINY_SCENARIO.to_dict(), key: flat}
                config_from_dict({"data_scenario_inline": doc, "forecaster": "naive",
                                  "window_days": 8})
            else:
                NullStudyConfig(**{key: value})
        assert exc.value.field == key
        if where == "null_study":
            argv = ["null-study", null_study_flags()[key], repr(value)]
        else:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            argv = (["run", "--config", str(path), "--out", str(tmp_path / "out")]
                    if where == "run" else
                    ["gen-data", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config field {key!r}: ")
        assert f.metadata["range"] in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "x.csv").exists()
    for value in inside:
        assert parse_field(f, key, [value] if listed else value) == ((value,) if listed else value)
    if f.type.endswith(" | None"):
        assert parse_field(f, key, None) is None


def test_readme_schema_table_shows_each_declared_range():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Run config schema", 1)[1].split("\n## ", 1)[0]
    range_cell = {}
    for row in table.splitlines():
        if row.startswith("| `"):
            cells = row.split(" | ")
            for key in re.findall(r"`(\w+)`", cells[0]):
                range_cell[key] = cells[2]
    for key, f in config_fields().items():
        if "range" in f.metadata:
            assert f"`{f.metadata['range']}`" in range_cell[key], key
        else:
            assert range_cell[key] == "—", key


@given(config_hash=st.text(alphabet="0123456789abcdef", max_size=16), seed=st.integers(0))
def test_parse_stamp_reads_back_what_stamp_line_writes(config_hash, seed):
    line = "# " + stamp_line(config_hash, seed)
    assert parse_stamp(line) == (config_hash, seed)
    assert parse_stamp(line.replace(" seed=", " ")) is None
    assert parse_stamp(line[2:]) is None  # the "#" is part of the line
