"""Multi-seed comparison of updating policies on the desk-scale shift scenario.

For each seed, the five policies (daily, never, mean-test at 5% and 1%, and
the changepoint benchmark) run on the identical synthetic panel with a
forest forecaster; the table reports seed-averaged SMAPE and retrain counts.

Usage:
    python scripts/policy_comparison.py --seeds 20 --threads 2
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from driftmon.forecasters import ForestParams, HyperParams
from driftmon.monitor import EveryKBatches, MeanTestPolicy, NeverPolicy, PeltPolicy
from driftmon.pipeline import RunConfig, compare_policies
from driftmon.simulate import RegimeScenario
from driftmon.streams import write_table

POLICIES = {
    "daily": lambda: EveryKBatches(k=1),
    "mean_test_05": lambda: MeanTestPolicy(alpha=0.05),
    "mean_test_01": lambda: MeanTestPolicy(alpha=0.01),
    "pelt": lambda: PeltPolicy(min_seg_len=5),
    "never": lambda: NeverPolicy(),
}


def run_seed(args) -> tuple[int, dict]:
    seed, n_trees, min_node, window_days = args
    scenario = RegimeScenario.desk_default(seed)
    hp = HyperParams(forest=ForestParams(n_trees=n_trees, min_node_size=min_node))
    runs = compare_policies([RunConfig(source=scenario, forecaster="forest", hyperparams=hp,
                                       policy=make(), window_days=window_days, seed=seed)
                             for make in POLICIES.values()])
    out = {}
    for name, cr in zip(POLICIES, runs):
        out[name] = {
            "smape": cr.report.avg_smape,
            "retrains": sum(r.retrain for r in cr.log.records),
            "retrain_seconds": cr.report.total_retrain_seconds,
        }
    return seed, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--trees", type=int, default=8)
    parser.add_argument("--min-node", type=int, default=20)
    parser.add_argument("--window-days", type=int, default=12)
    parser.add_argument("--out", default=None, help="optional CSV for per-seed rows")
    args = parser.parse_args(argv)

    tasks = [(seed, args.trees, args.min_node, args.window_days)
             for seed in range(args.seeds)]
    # a pool starts all its workers up front, so never more than seeds or CPUs
    workers = min(args.threads, args.seeds, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(run_seed, tasks))
    else:
        results = dict(run_seed(t) for t in tasks)

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        write_table(args.out, ["seed", "policy", "smape", "retrains", "retrain_seconds"],
                    ((seed, name, row["smape"], row["retrains"], row["retrain_seconds"])
                     for seed in sorted(results) for name, row in results[seed].items()))
        print(f"wrote {args.out}")

    print(f"\n{'policy':<14}{'SMAPE':>8}{'retrains':>10}{'fit seconds':>13}")
    for name in POLICIES:
        smape = np.mean([results[s][name]["smape"] for s in results])
        retrains = np.mean([results[s][name]["retrains"] for s in results])
        seconds = np.mean([results[s][name]["retrain_seconds"] for s in results])
        print(f"{name:<14}{smape:>8.2f}{retrains:>10.1f}{seconds:>13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
