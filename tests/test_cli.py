import json

import pytest

from driftmon.cli import main
from driftmon.errors import ConfigError
from driftmon.pipeline import config_from_dict
from driftmon.simulate import RegimeScenario

TINY_SCENARIO = RegimeScenario(n_streams=2, n_days=24, slots_per_day=60,
                               level_shifts=((16, 0, 3.0),), noise_scale=1.0, seed=13)


def write_scenario(tmp_path, scenario=TINY_SCENARIO, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario.to_dict()))
    return str(path)


def write_config(tmp_path, name="run.json", **overrides):
    config = {
        "data_scenario_inline": TINY_SCENARIO.to_dict(),
        "forecaster": "naive",
        "policy": "mean_test",
        "alpha": 0.05,
        "window_days": 8,
        "seed": 13,
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_null_study_prints_frequency(tmp_path, capsys):
    code = main(["null-study", "--dist", "gaussian", "--length", "600", "--batch", "30",
                 "--alpha", "0.05", "--reps", "4", "--seed", "1",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("rejection_frequency="))
    assert 0.0 <= float(line.split("=")[1]) <= 1.0
    table = (tmp_path / "null_study.csv").read_text()
    assert table.startswith("# config_hash=")
    assert "distribution,length,batch,alpha,rejection_freq" in table
    assert "gaussian,600,30,0.05," in table


def test_run_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    code = main(["run", "--config", missing])
    assert code == 2
    assert missing in capsys.readouterr().err


def test_bad_flags_exit_2(capsys):
    assert main(["null-study", "--no-such-flag"]) == 2
    assert main(["frobnicate"]) == 2


def write_gap_config(tmp_path):
    """A config that passes validation, on a CSV panel that lacks a cell: its run fails."""
    panel = tmp_path / "panel.csv"
    assert main(["gen-data", "--scenario", write_scenario(tmp_path), "--out", str(panel)]) == 0
    lines = panel.read_text().splitlines()
    panel.write_text("\n".join(lines[:-1]) + "\n")
    config = tmp_path / "gap.json"
    config.write_text(json.dumps({"data_csv": str(panel), "forecaster": "naive",
                                  "window_days": 8}))
    return str(config)


def test_runtime_error_exits_1(tmp_path, capsys):
    # valid config, but a cell of its CSV panel is missing: runtime error
    assert main(["run", "--config", write_gap_config(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    ({"data_scenario_inline": RegimeScenario(n_streams=2, n_days=9, slots_per_day=60,
                                             seed=1).to_dict()}, "window_days"),
    ({"window_days": 180}, "window_days"),
    ({"forecaster": "forest", "forest_min_node_size": 100000}, "forest_min_node_size"),
])
def test_config_the_panel_cannot_hold_exits_2(tmp_path, capsys, overrides, key):
    # each passes validation; the run checks it against the panel before the first fit
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field {key!r}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("source", [{"data_scenario": 10 ** 6}, {"data_csv": None}],
                         ids=["descriptor", "null"])
def test_a_path_source_that_is_not_a_string_exits_2(tmp_path, capsys, source):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**source, "forecaster": "naive", "window_days": 8}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    key = next(iter(source))
    assert err.startswith(f"config error: config field {key!r}") and "Traceback" not in err
    assert not out.exists()


def test_run_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out_dir)]) == 0
    for name in ("forecasts.csv", "events.csv", "report.csv", "report.json"):
        assert (out_dir / name).exists()
    stdout = capsys.readouterr().out
    assert "average: smape=" in stdout
    payload = json.loads((out_dir / "report.json").read_text())
    assert len(payload["streams"]) == 2


def test_gen_data_then_run_matches_in_process(tmp_path, capsys):
    scenario_path = write_scenario(tmp_path)
    csv_path = str(tmp_path / "streams.csv")
    assert main(["gen-data", "--scenario", scenario_path, "--out", csv_path]) == 0

    out_inline = tmp_path / "out_inline"
    out_csv = tmp_path / "out_csv"
    inline_cfg = write_config(tmp_path, name="inline.json")
    csv_cfg = write_config(tmp_path, name="fromcsv.json")
    data = json.loads(open(csv_cfg).read())
    del data["data_scenario_inline"]
    data["data_csv"] = csv_path
    open(csv_cfg, "w").write(json.dumps(data))

    assert main(["run", "--config", inline_cfg, "--out", str(out_inline)]) == 0
    assert main(["run", "--config", csv_cfg, "--out", str(out_csv)]) == 0
    inline_report = json.loads((out_inline / "report.json").read_text())
    csv_report = json.loads((out_csv / "report.json").read_text())
    for a, b in zip(inline_report["streams"], csv_report["streams"]):
        assert a["smape"] == b["smape"]
        assert a["n_breaks"] == b["n_breaks"]


def test_gen_data_reruns_byte_identical(tmp_path):
    scenario_path = write_scenario(tmp_path)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["gen-data", "--scenario", scenario_path, "--out", p1]) == 0
    assert main(["gen-data", "--scenario", scenario_path, "--out", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_gen_data_missing_scenario_exits_2(tmp_path, capsys):
    assert main(["gen-data", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_report_roundtrip(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", "--config", config, "--out", str(out_dir)])
    first = json.loads((out_dir / "report.json").read_text())
    rebuilt_dir = tmp_path / "rebuilt"
    assert main(["report", "--runlog", str(out_dir), "--out", str(rebuilt_dir)]) == 0
    second = json.loads((rebuilt_dir / "report.json").read_text())
    for a, b in zip(first["streams"], second["streams"]):
        assert b["smape"] == pytest.approx(a["smape"], rel=1e-12)
        assert b["n_breaks"] == a["n_breaks"]


def test_compare_cli(tmp_path, capsys):
    cfg_a = write_config(tmp_path, name="a.json", policy="every_k", every_k=1)
    cfg_b = write_config(tmp_path, name="b.json", policy="never")
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--configs", cfg_a, cfg_b, "--out", str(out_dir)]) == 0
    table = (out_dir / "comparison.csv").read_text().splitlines()
    assert table[0] == "stream_id,naive/every_1,naive/never"
    assert table[-1].startswith("average,")
    stdout = capsys.readouterr().out
    assert "naive/never" in stdout


def test_compare_configs_sharing_a_run_label_exit_2(tmp_path, capsys):
    cfg_a = write_config(tmp_path, name="a.json", policy="never", naive_lag=60)
    cfg_b = write_config(tmp_path, name="b.json", policy="never", naive_lag=420)
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--configs", cfg_a, cfg_b, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'configs'")
    assert "'naive/never'" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_rerun_run_outputs_byte_identical_except_timings(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", config, "--out", str(out1)]) == 0
    assert main(["run", "--config", config, "--out", str(out2)]) == 0
    for name in ("forecasts.csv", "events.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_report_rebuilds_run_report_files_byte_for_byte(tmp_path):
    config = write_config(tmp_path, forecaster="forest", forest_n_trees=2,
                          forest_min_node_size=20)
    out_dir, rebuilt_dir = tmp_path / "out", tmp_path / "rebuilt"
    assert main(["run", "--config", config, "--out", str(out_dir)]) == 0
    assert main(["report", "--runlog", str(out_dir), "--out", str(rebuilt_dir)]) == 0
    assert (out_dir / "report.csv").read_text().startswith("# config_hash=")
    for name in ("report.csv", "report.json"):
        assert (rebuilt_dir / name).read_bytes() == (out_dir / name).read_bytes()


def test_null_study_replaces_its_table(tmp_path, capsys):
    def study(seed):
        assert main(["null-study", "--length", "200", "--batch", "20", "--reps", "4",
                     "--seed", str(seed), "--out", str(tmp_path)]) == 0
        return (tmp_path / "null_study.csv").read_text().splitlines()

    first = study(1)
    assert first[0] == "# config_hash=d48dc1bae91e seed=1"
    # a second study into the same directory replaces the table
    assert study(2) == ["# config_hash=c6ec83b4f435 seed=2",
                        "distribution,length,batch,alpha,rejection_freq",
                        "gaussian,200,20,0.05,0.0"]
    assert study(1) == first


# Each of these passed validation once and then crashed gen-data and run
# (a numpy UFuncTypeError, an IndexError) or was silently changed (day 10.5
# read as 10, stream true as 1); the dict path and gen-data must reject it.
BAD_SCENARIO_VALUES = [
    pytest.param({"base_levels": ["a", "b"]}, id="base_levels-str"),
    pytest.param({"base_levels": [float("nan"), 1.0]}, id="base_levels-nan"),
    pytest.param({"level_shifts": [[10.5, 0, 2.0]]}, id="shift_day-10.5"),
    pytest.param({"level_shifts": [[10, True, 2.0]]}, id="shift_stream-true"),
    pytest.param({"level_shifts": [[10, 0, float("inf")]]}, id="shift_mult-inf"),
    pytest.param({"days_per_week": 0}, id="days_per_week-0"),
    pytest.param({"seed": -1}, id="seed--1"),
]


@pytest.mark.parametrize("bad", BAD_SCENARIO_VALUES)
def test_bad_scenario_values_fail_validation(tmp_path, capsys, bad):
    scenario = {**TINY_SCENARIO.to_dict(), **bad}
    with pytest.raises(ConfigError):
        config_from_dict({"data_scenario_inline": scenario, "forecaster": "naive",
                          "window_days": 8})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["gen-data", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags", [["--batch", "1"], ["--reps", "0"], ["--alpha", "1.5"],
                                   ["--alpha", "nan"], ["--seed", "-1"]],
                         ids=lambda flags: "".join(flags))
def test_bad_null_study_flags_exit_2(tmp_path, capsys, flags):
    code = main(["null-study", "--length", "200", "--batch", "20", "--reps", "2", *flags,
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "null_study.csv").exists()


@pytest.mark.parametrize("command", ["run", "report"])
def test_missing_input_files_exit_2(tmp_path, capsys, command):
    missing = str(tmp_path / "missing")
    if command == "run":
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"data_csv": missing, "forecaster": "naive",
                                      "window_days": 8}))
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    else:
        argv = ["report", "--runlog", missing]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and missing in err


def test_gen_data_negative_seed_override_exits_2(tmp_path, capsys):
    assert main(["gen-data", "--scenario", write_scenario(tmp_path),
                 "--out", str(tmp_path / "x.csv"), "--seed", "-1"]) == 2
    assert "config error:" in capsys.readouterr().err


# F is a regular file and D a directory: each path has the wrong kind
@pytest.mark.parametrize("argv", [
    ["run", "--config", "{config}", "--out", "{F}"],
    ["null-study", "--length", "200", "--batch", "20", "--reps", "2", "--out", "{F}"],
    ["run", "--config", "{config}", "--out", "{F}/sub"],
    ["gen-data", "--scenario", "{scenario}", "--out", "{F}/x.csv"],
    ["report", "--runlog", "{F}"],
    ["run", "--config", "{D}"],
    ["gen-data", "--scenario", "{D}", "--out", "{D}/x.csv"],
    ["gen-data", "--scenario", "{scenario}", "--out", "{D}"],
], ids=["run-out-file", "null-study-out-file", "run-out-under-file", "gen-data-out-under-file",
        "report-runlog-file", "run-config-dir", "gen-data-scenario-dir", "gen-data-out-dir"])
def test_path_of_the_wrong_kind_exits_2(tmp_path, capsys, argv):
    paths = {"config": write_config(tmp_path), "scenario": write_scenario(tmp_path),
             "F": str(tmp_path / "file"), "D": str(tmp_path / "dir")}
    (tmp_path / "file").write_text("not a directory\n")
    (tmp_path / "dir").mkdir()
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# each --out is checked before any work: a run that would fail, and the
# configs of a compare that would fail, never start
@pytest.mark.parametrize("argv", [
    ["null-study", "--length", "200", "--batch", "20", "--reps", "2", "--out", "{F}"],
    ["run", "--config", "{gap}", "--out", "{F}"],
    ["run", "--config", "{gap}", "--out", "{F}/sub"],
    ["compare", "--configs", "{gap}", "--out", "{F}"],
], ids=["null-study", "run", "run-under-file", "compare"])
def test_out_of_the_wrong_kind_exits_2_before_any_work(tmp_path, capsys, argv):
    paths = {"gap": write_gap_config(tmp_path), "F": str(tmp_path / "file")}
    (tmp_path / "file").write_text("not a directory\n")
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error:") and "Traceback" not in err
    assert (tmp_path / "file").read_text() == "not a directory\n"


def test_null_study_threads_flag_exits_2(tmp_path, capsys):
    code = main(["null-study", "--length", "200", "--batch", "20", "--reps", "2",
                 "--threads", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "null_study.csv").exists()


def test_csv_panel_value_past_1e50_is_a_parse_error(tmp_path, capsys):
    # a panel scaled to about 1e98 passed ingest and then crashed the mean
    # test: the incomplete beta function did not converge on NaN moments
    panel = tmp_path / "panel.csv"
    assert main(["gen-data", "--scenario", write_scenario(tmp_path), "--out", str(panel)]) == 0
    stamp, header, *rows = panel.read_text().splitlines()
    scaled = [f"{tick},{stream},{float(value) * 1e98!r}"
              for tick, stream, value in (row.split(",") for row in rows)]
    panel.write_text("\n".join([stamp, header, *scaled]) + "\n")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"data_csv": str(panel), "forecaster": "naive",
                                  "window_days": 8}))
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: row 3: value ")
