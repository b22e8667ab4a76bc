"""Tests of the benchmark itself.

Tiny-size runs of every workload go through the same code path as a real
run (set-up probe, timed loop, tracing, checks); the self-time arithmetic
is checked on a hand-built span tree.

    python3 -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout_src()

from tracing import Tracer, per_layer_metrics, pelt_bucket, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
HAND_BUILT = [
    ("pipeline.run.never", 0.0, 10.0, -1),
    ("features.training_set", 1.0, 4.0, 0),
    ("forecasters.fit.forest", 5.0, 9.0, 0),
    ("forecasters.grow_tree", 6.0, 8.0, 2),
]


def test_self_times_subtract_direct_children_only():
    assert self_times(HAND_BUILT) == [3.0, 3.0, 2.0, 2.0]


def test_layer_self_time_sums_spans_of_the_layer_per_unit():
    tracer = Tracer()
    tracer.spans = list(HAND_BUILT)
    metrics = per_layer_metrics(tracer, passes=2, scale=1.0)
    assert metrics["pipeline.self_s"] == 1.5
    assert metrics["features.self_s"] == 1.5
    assert metrics["forecasters.self_s"] == 2.0
    assert metrics["pipeline.run_s.never"] == 5.0
    assert metrics["forecasters.grow_tree_calls"] == 0.5
    assert metrics["forecasters.fit_s.forest"] == 4.0


def test_pelt_buckets():
    assert [pelt_bucket(n) for n in (10, 50, 51, 100, 101)] == [
        "hist_le_50", "hist_le_50", "hist_51_100", "hist_51_100", "hist_gt_100"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric_and_passes_its_checks(workload, trace):
    record = run.run_benchmark(workload, seed=0, seconds=0.2, trace=trace, tiny=True,
                               setup_reps=1)
    assert record["checks"]["failures"] == []
    assert record["checks"]["attempted"] > 0
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(record["metrics"]) == declared
    assert all(math.isfinite(v) for v in record["metrics"].values())
    if not trace:
        assert all(v > 0 for v in record["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "null-study",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
