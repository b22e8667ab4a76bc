import csv
import os
import re
import subprocess
import sys
from pathlib import Path

from driftmon.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                   check=True, env=env, capture_output=True, text=True)


def run_policy_comparison(out: Path, threads: int) -> list[dict]:
    run_script("policy_comparison.py", "--seeds", "2", "--trees", "2",
               "--threads", str(threads), "--out", str(out))
    with open(out, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_policy_comparison_does_not_depend_on_thread_count(tmp_path):
    serial = run_policy_comparison(tmp_path / "serial.csv", threads=1)
    pooled = run_policy_comparison(tmp_path / "pooled.csv", threads=2)
    assert len(serial) == 2 * 5  # two seeds, five policies

    def without_wall_time(rows):
        return [{k: v for k, v in row.items() if k != "retrain_seconds"} for row in rows]

    assert without_wall_time(serial) == without_wall_time(pooled)
    assert list(serial[0]) == ["seed", "policy", "smape", "retrains", "retrain_seconds"]


def run_size_study_grid(out: Path, alpha: str) -> list[str]:
    run_script("size_study_grid.py", "--reps", "2", "--lengths", "200", "--batches", "20",
               "--alphas", alpha, "--out", str(out))
    return out.read_text(encoding="utf-8").splitlines()


def test_size_study_grid_stamps_the_grid_it_ran(tmp_path):
    lines = run_size_study_grid(tmp_path / "grid.csv", "0.05")
    assert re.fullmatch(r"# config_hash=[0-9a-f]{12} seed=0", lines[0])
    assert lines[1] == "distribution,length,batch,alpha,rejection_freq"
    assert len(lines[2:]) == 2  # one row per distribution
    other = run_size_study_grid(tmp_path / "other.csv", "0.01")
    assert other[0] != lines[0]


def test_size_study_grid_header_is_the_null_study_header(tmp_path):
    grid = run_size_study_grid(tmp_path / "grid.csv", "0.05")
    assert main(["null-study", "--length", "200", "--batch", "20", "--reps", "2",
                 "--out", str(tmp_path)]) == 0
    study = (tmp_path / "null_study.csv").read_text(encoding="utf-8").splitlines()
    assert grid[1] == study[1]
