import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_policy_comparison(out: Path, threads: int) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, str(ROOT / "scripts" / "policy_comparison.py"),
                    "--seeds", "2", "--trees", "2", "--threads", str(threads),
                    "--out", str(out)],
                   check=True, env=env, capture_output=True, text=True)
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
