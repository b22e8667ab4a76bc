"""driftmon benchmark: run one workload in a closed loop and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload desk-policies --seed 0 --seconds 10 --trace 0

The workload's unit of work (see workloads.py) repeats until ``--seconds``
have passed; a unit always runs to completion, so a workload whose unit is
longer than ``--seconds`` runs exactly one. Everything runs in this process
with one thread, except the set-up probes, which time a fresh interpreter
reaching its first batch.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first runs
untraced for half the time, then with driftmon's public functions wrapped
in spans (tracing.py) for the other half, and reports the per-layer metrics
and the tracing overhead. All times are divided by the host slowdown that
speed.py measures during the same phase.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The full
record (environment stamp, traffic counts, check failures, raw figures) is
also written to .bench_out/results/, and the spans of a traced run next to
it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def use_checkout_src() -> None:
    """Import driftmon from this checkout's src/, or exit if it is missing."""
    src = ROOT / "src"
    if not (src / "driftmon" / "__init__.py").is_file():
        raise SystemExit(f"error: no driftmon sources under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def environment(workload: str, seed: int, traced: bool) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "traced": traced,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def time_setup(spec: dict, sampler) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports driftmon and sets up.

    Returns (raw seconds, host slowdown measured just before and after).
    The sampler's timer must be off: its kernel would compete with the probe.
    """
    before = sampler.burst_slowdown()
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child in steps of up to 50 ms.
    subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(spec)],
                   check=True)
    elapsed = time.perf_counter() - start
    return elapsed, (before + sampler.burst_slowdown()) / 2.0


def measure(workload, state, tracer, sampler, seconds: float, passes: list) -> list[dict]:
    """Repeat the unit until ``seconds`` have passed; one timing per unit.

    Each timing holds the unit's batch steps, its seconds of work (the time
    the speed sampler itself took is not work) and the host slowdown during
    it.
    """
    timings = []
    deadline = time.perf_counter() + seconds
    while True:
        mark, spent = sampler.mark(), sampler.spent
        start = time.perf_counter()
        passes.append(workload.unit(state, tracer))
        elapsed = time.perf_counter() - start - (sampler.spent - spent)
        timings.append({"steps": passes[-1].steps, "seconds": elapsed,
                        "slowdown": sampler.slowdown(mark)})
        if time.perf_counter() >= deadline:
            return timings


def steps_per_s(timings: list[dict]) -> float:
    """Median over units of the host-normalized batch steps per second."""
    return statistics.median(t["steps"] / t["seconds"] * t["slowdown"] for t in timings)


def percentile(values: list[float], q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, setup_reps: int = SETUP_REPS) -> dict:
    from speed import SpeedSampler
    from tracing import NullTracer, Tracer, per_layer_metrics
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[workload_name]
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT_DIR / "tmp")
    passes: list = []
    raw: dict = {}
    metrics: dict = {}
    try:
        sampler = SpeedSampler()
        spec = workload.prepare(seed, tiny, workdir)
        setups = [time_setup(spec, sampler) for _ in range(setup_reps)]
        with sampler:
            setup_tracer = Tracer() if trace else NullTracer()
            if trace:
                with setup_tracer:
                    state = workload.setup(spec, setup_tracer)
            else:
                state = workload.setup(spec, setup_tracer)

            timings = measure(workload, state, NullTracer(), sampler,
                              seconds / 2 if trace else seconds, passes)
            untraced_passes = len(passes)
            slowdown = statistics.median(t["slowdown"] for t in timings)
            rate = steps_per_s(timings)
            raw.update(setup_s=[t for t, _ in setups], setup_slowdown=[k for _, k in setups],
                       units=timings)
            if trace:
                tracer = Tracer()
                with tracer:
                    traced_timings = measure(workload, state, tracer, sampler, seconds / 2,
                                             passes)
                traced_passes = len(traced_timings)
                t_slowdown = statistics.median(t["slowdown"] for t in traced_timings)
                traced_rate = steps_per_s(traced_timings)
                raw.update(traced_units=traced_timings)
        checks = Checks()
        workload.check(state, passes, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = passes[0]
    samples = {k: [v / slowdown for p in passes[:untraced_passes] for v in p.samples[k]]
               for k in first.samples}
    info = {}
    for key, values in samples.items():
        if not values:
            continue
        info[f"{key}_p50"] = statistics.median(values)
        info[f"{key}_p95"] = percentile(values, 95)
        info[f"{key}_n"] = len(values)

    if trace:
        metrics = per_layer_metrics(tracer, traced_passes, 1.0 / t_slowdown, setup=setup_tracer)
        panel = state.get("panel")
        ingest = metrics["streams.ingest_csv_s"]
        metrics["streams.ingest_rows_per_s"] = (panel.n_ticks * panel.n_streams / ingest
                                                if ingest else 0.0)
        metrics["evaluate.runlog_bytes"] = float(first.traffic.get("runlog_bytes", 0))
        retrains = first.traffic.get("retrains_total", 0)
        metrics["monitor.useful_retrain_ratio"] = (first.traffic.get("useful_retrains", 0)
                                                   / retrains if retrains else 0.0)
        metrics["pipeline.retrain_s_p50"] = info.get("retrain_s_p50", 0.0)
        metrics["pipeline.retrain_s_p95"] = info.get("retrain_s_p95", 0.0)
        metrics["trace.overhead_pct"] = 100.0 * (rate - traced_rate) / rate
    else:
        metrics = {
            "setup_s": statistics.median(t / k for t, k in setups),
            "batch_steps_per_s": rate,
            "error_pct": first.error_pct,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    record = {"env": environment(workload_name, seed, trace), "seconds": seconds,
              "metrics": metrics, "workload_metrics": info, "raw": raw,
              "traffic": first.traffic, "checks": {"attempted": checks.attempted,
                                                   "failed": checks.failed,
                                                   "failures": checks.failures}}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if trace:
        tracer.write_spans(str(results / f"{stem}-spans.csv"))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one driftmon benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("desk-policies", "null-study", "long-stable-pelt",
                                 "model-fits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    use_checkout_src()
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["env"]
    print(f"# {args.workload} seed={args.seed} traced={env['traced']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} commit={env['git_commit']} "
          f"src={env['src_sha256']}")
    print(f"# traffic {json.dumps(record['traffic'], sort_keys=True)}")
    for key, value in sorted(record["workload_metrics"].items()):
        print(f"# workload metric {key} = {value:.6g}")
    for failure in record["checks"]["failures"]:
        print(f"# CHECK FAILED: {failure}")
    units = metric_units()
    for name, value in record["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    checks = record["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
