"""Command-line surface: run pipelines, size studies, data generation, reports.

Exit codes: 0 success, 2 configuration or usage error (a path that does
not exist or is of the wrong kind included), 1 runtime error. Outputs are
flat CSV/JSON. The run log, report.csv, the panel CSV and the null-study CSV
start with a config-hash-and-seed stamp so re-runs are verifiable;
wall-clock timing columns are the only exception to byte-identical
reproduction, and ``report`` rebuilds a run's report files byte for byte
from its run log.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import fields

from .errors import ConfigError, DriftmonError
from .evaluate import build_report, read_runlog, write_report_csv, write_report_json, write_runlog
from .pipeline import compare_policies, comparison_table, load_config, run
from .schema import config_errors, document_hash, read_json, stamp_line
from .simulate import (DISTRIBUTIONS, NULL_STUDY_COLUMNS, NullStudyConfig, RegimeScenario,
                       gen_regime_streams, run_null_study)
from .streams import write_csv, write_table


def _write_report_files(report, out_dir: str, stamp: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_report_csv(report, os.path.join(out_dir, "report.csv"), header_comment=stamp)
    write_report_json(report, os.path.join(out_dir, "report.json"))


def _check_out_dir(out_dir: str) -> str:
    """``out_dir``, or the error ``os.makedirs`` would raise for it; makes nothing."""
    target = path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):  # OSError picks FileExistsError or NotADirectoryError
        code = errno.EEXIST if path == target else errno.ENOTDIR
        raise OSError(code, os.strerror(code), path)
    return out_dir


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = _check_out_dir(args.out or config.out_dir or "driftmon_out")
    log = run(config)
    report = build_report(log)
    write_runlog(log, out_dir)
    _write_report_files(report, out_dir, log.stamp)
    for s in report.streams:
        print(f"{s.stream_id}: smape={s.smape:.2f} breaks={s.n_breaks}")
    print(f"average: smape={report.avg_smape:.2f} breaks={report.avg_breaks:.2f}")
    print(f"outputs written to {out_dir}")
    return 0


def _cmd_compare(args) -> int:
    configs = [load_config(path) for path in args.configs]
    out_dir = _check_out_dir(args.out or "driftmon_out")
    runs = compare_policies(configs)
    rows = comparison_table(runs)
    os.makedirs(out_dir, exist_ok=True)
    labels = [cr.label for cr in runs]
    write_table(os.path.join(out_dir, "comparison.csv"), ["stream_id"] + labels,
                ([row["stream_id"]] + [repr(row[label]) for label in labels] for row in rows))
    for cr in runs:
        sub = os.path.join(out_dir, cr.label.replace("/", "_"))
        write_runlog(cr.log, sub)
        _write_report_files(cr.report, sub, cr.log.stamp)
    header = "stream_id".ljust(12) + "".join(label.rjust(28) for label in labels)
    print(header)
    for row in rows:
        line = str(row["stream_id"]).ljust(12)
        line += "".join(f"{row[label]:28.2f}" for label in labels)
        print(line)
    print(f"outputs written to {out_dir}")
    return 0


def _cmd_null_study(args) -> int:
    with config_errors("null_study"):  # flags left out keep the dataclass defaults
        config = NullStudyConfig(**{f.name: getattr(args, f.name) for f in fields(NullStudyConfig)
                                    if getattr(args, f.name, None) is not None})
    if args.out:
        _check_out_dir(args.out)
    freq = run_null_study(config)
    print(f"rejection_frequency={freq:.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "null_study.csv")
        write_table(path, NULL_STUDY_COLUMNS,
                    [(config.distribution, config.stream_length, config.batch_size,
                      config.alpha, freq)],
                    stamp=stamp_line(document_hash(config.__dict__), config.seed))
        print(f"wrote {path}")
    return 0


def _cmd_gen_data(args) -> int:
    with config_errors("scenario"):
        doc = read_json(args.scenario, "scenario")
        scenario = RegimeScenario.from_dict(doc if args.seed is None else doc | {"seed": args.seed})
    streams = gen_regime_streams(scenario)
    write_csv(streams, args.out,
              header_comment=stamp_line(document_hash(scenario.to_dict()), scenario.seed))
    print(f"wrote {streams.n_ticks} ticks x {streams.n_streams} streams to {args.out}")
    return 0


def _cmd_report(args) -> int:
    log = read_runlog(args.runlog)
    report = build_report(log)
    out_dir = args.out or args.runlog
    _write_report_files(report, out_dir, log.stamp)
    for s in report.streams:
        print(f"{s.stream_id}: smape={s.smape:.2f} breaks={s.n_breaks}")
    print(f"average: smape={report.avg_smape:.2f} breaks={report.avg_breaks:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftmon",
        description="Monitored retraining for streaming forecast models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one monitored forecasting pipeline")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run several configs on identical data")
    p_cmp.add_argument("--configs", nargs="+", required=True, help="run config paths")
    p_cmp.add_argument("--out", default=None, help="output directory")
    p_cmp.set_defaults(func=_cmd_compare)

    p_null = sub.add_parser("null-study", help="false-alarm rate of the monitor on iid data")
    # flags name NullStudyConfig fields and are read by their parsers
    p_null.add_argument("--dist", dest="distribution", choices=DISTRIBUTIONS)
    p_null.add_argument("--length", dest="stream_length")
    p_null.add_argument("--batch", dest="batch_size")
    p_null.add_argument("--alpha")
    p_null.add_argument("--reps", dest="n_replications")
    p_null.add_argument("--seed")
    p_null.add_argument("--out", default=None, help="directory for the study CSV")
    p_null.set_defaults(func=_cmd_null_study)

    p_gen = sub.add_parser("gen-data", help="materialize a synthetic scenario to CSV")
    p_gen.add_argument("--scenario", required=True, help="path to a scenario JSON")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_gen.set_defaults(func=_cmd_gen_data)

    p_rep = sub.add_parser("report", help="rebuild a report from saved run-log CSVs")
    p_rep.add_argument("--runlog", required=True, help="directory written by `driftmon run`")
    p_rep.add_argument("--out", default=None, help="output directory (default: runlog dir)")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    # a path that does not exist, or is a file where a directory belongs or
    # the other way round, is a usage error
    except (ConfigError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DriftmonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
