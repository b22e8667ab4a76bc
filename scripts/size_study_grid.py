"""False-alarm rate of the monitoring test on iid streams, over the full grid.

Sweeps stream lengths x batch sizes x test sizes for both supported
distributions and writes one CSV row per cell. The full grid at 1000
replications takes tens of minutes on a small machine; trim with --reps or
--lengths for a quick look. The first line stamps the grid with a hash of
every argument except --out and --threads, and the seed. --threads is
accepted, so that existing commands still run, and ignored: each study steps
all its replications together in one process.

Usage:
    python scripts/size_study_grid.py --out results/null_study.csv
"""

import argparse
import csv
import os
import sys
import time

from driftmon.schema import document_hash, stamp_line
from driftmon.simulate import DISTRIBUTIONS, NULL_STUDY_COLUMNS, NullStudyConfig, run_null_study


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="null_study_grid.csv")
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored; each study runs in one process")
    parser.add_argument("--lengths", type=int, nargs="+",
                        default=[10_000, 20_000, 50_000, 100_000])
    parser.add_argument("--batches", type=int, nargs="+", default=[10, 50, 100])
    parser.add_argument("--alphas", type=float, nargs="+", default=[0.05, 0.01])
    args = parser.parse_args(argv)

    # the stamp hashes every argument that changes the grid's numbers
    grid = {k: v for k, v in vars(args).items() if k not in ("out", "threads")}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# {stamp_line(document_hash(grid), args.seed)}\n")
        writer = csv.writer(handle)
        writer.writerow(NULL_STUDY_COLUMNS)
        for dist in DISTRIBUTIONS:
            for length in args.lengths:
                for batch in args.batches:
                    for alpha in args.alphas:
                        start = time.perf_counter()
                        freq = run_null_study(
                            NullStudyConfig(distribution=dist, stream_length=length,
                                            batch_size=batch, alpha=alpha,
                                            n_replications=args.reps, seed=args.seed),
                            threads=args.threads,
                        )
                        writer.writerow([dist, length, batch, alpha, repr(freq)])
                        handle.flush()
                        print(f"{dist:>10} len={length:>7} batch={batch:>4} "
                              f"alpha={alpha:.2f}: {freq:.4f} "
                              f"({time.perf_counter() - start:.0f}s)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
