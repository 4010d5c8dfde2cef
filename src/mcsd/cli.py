"""Command-line entry point.

Subcommands: pca-bench, rgd-sweep, verify. Exit codes: 0 success, 1 a
failed verify bound report, 2 configuration error, 3 numeric or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import bench
from .errors import ConfigurationError, NumericError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcsd-bench",
        description="Stiefel-manifold optimizer benchmarks and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pca = sub.add_parser("pca-bench", help="compare optimizers on the weighted-PCA instance")
    pca.add_argument("config", nargs="?", help="INI config file (omit for the built-in default)")
    pca.add_argument("--output-dir", help="override the output directory")

    sweep = sub.add_parser("rgd-sweep", help="sweep constant step sizes for RGD")
    sweep.add_argument("config", nargs="?", help="INI config file (omit for the built-in default)")
    sweep.add_argument("--steps", nargs="+", type=float, required=True, metavar="ALPHA",
                       help="constant step sizes to try")
    sweep.add_argument("--output-dir", help="override the output directory")

    verify = sub.add_parser("verify", help="run the descent/convergence bound checks")
    verify.add_argument("--level", choices=("fast", "full"), default="fast")
    verify.add_argument("--report", help="write machine-readable check lines to this file")

    return parser


def _load_config(args) -> bench.BenchConfig:
    if args.output_dir == "":
        raise ConfigurationError("--output-dir must not be empty")
    cfg = bench.load_config(args.config) if args.config else bench.default_pca_config(bench.DEFAULT_OUTPUT_DIR)
    return cfg if args.output_dir is None else replace(cfg, output_dir=Path(args.output_dir))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


def _report_fallbacks(summary) -> None:
    """Print one `FALLBACK …` line to stderr per run with fallback steps."""
    for label, st in summary["methods"].items():
        for repeat, count in enumerate(st["fallback_count"]):
            if count:
                print(f"FALLBACK method {label!r} repeat {repeat}: {count} steps", file=sys.stderr)


def _report_aborts(summary) -> bool:
    """Print one `ABORT …` line to stderr per aborted run; true if any."""
    for st in summary["methods"].values():
        for msg in st["abort_messages"]:
            print(f"ABORT {msg}", file=sys.stderr)
    return summary["aborted"]


def _dispatch(args) -> int:
    if args.command in ("pca-bench", "rgd-sweep"):
        cfg = _load_config(args)
        if args.command == "pca-bench":
            summary = bench.run_pca_bench(cfg)
            lines = bench.method_lines(summary)
        else:
            summary = bench.run_rgd_sweep(cfg, args.steps)
            lines = [f"alpha={alpha}: final subspace error {err:.6e}"
                     for alpha, err in summary["final_subspace_error"].items()]
            winner = summary["winner"]
            lines.append("winner: none" if winner is None else f"winner: alpha={winner:g}")
        print("\n".join(lines))
        _report_fallbacks(summary)
        return EXIT_NUMERIC_ERROR if _report_aborts(summary) else EXIT_OK

    # verify: the subparsers are required, so argparse admits no other command.
    # The report file is opened before the battery runs, so an unusable
    # path fails first; a battery that raises leaves it empty, not stale.
    with open(args.report, "w") if args.report else nullcontext() as report_file:
        reports = bench.run_verify(args.level)
        for report in reports:
            print(report.human_lines())
        lines = ["name,lhs,rhs,slack,passed"] + [r.machine_line() for r in reports]
        print("\n".join(lines))
        if report_file:
            report_file.write("\n".join(lines) + "\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
