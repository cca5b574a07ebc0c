"""Command-line entry point: one subcommand per experiment kind."""

from __future__ import annotations

import argparse
import sys

from .errors import SparsedomError
from .harness import EXPERIMENT_KINDS, ExperimentConfig, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsedom",
        description="Numerical experiments on dyadic sparse domination, "
                    "maximal functions and weighted bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True,
                       help="path to the experiment configuration (JSON)")
        p.add_argument("--out", required=True,
                       help="output directory for report.json and CSV tables")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured corpus seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.kind != args.command:
            print(f"error: config describes a {cfg.kind!r} experiment, "
                  f"but the {args.command!r} subcommand was invoked",
                  file=sys.stderr)
            return 2
        return run_experiment(cfg, args.out, seed=args.seed)
    except SparsedomError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
