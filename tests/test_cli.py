import json

import pytest

from driftmon.cli import main
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


def test_runtime_error_exits_1(tmp_path, capsys):
    # valid config, but the panel is too short to train on: runtime error
    short = RegimeScenario(n_streams=2, n_days=9, slots_per_day=60, seed=1)
    config = write_config(tmp_path, name="short.json",
                          data_scenario_inline=short.to_dict())
    assert main(["run", "--config", config]) == 1
    assert "error" in capsys.readouterr().err


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
