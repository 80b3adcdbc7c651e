"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 assumption violation,
4 chain divergence.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import ConfigError, load_config
from .harness import (
    EXIT_ASSUMPTION,
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    AssumptionError,
    cmd_compare,
    cmd_gen_data,
    cmd_run,
    cmd_sweep_h,
    cmd_theory,
    cmd_validate,
)
from .samplers import ChainDivergenceError

_COMMANDS = {
    "validate": cmd_validate,
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep-h": cmd_sweep_h,
    "theory": cmd_theory,
    "gen-data": cmd_gen_data,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exlg",
        description="Decentralized Langevin sampling experiments: "
                    "validate configs, run replica ensembles, compare "
                    "algorithms, sweep h, and evaluate the W2 bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower()
                           if fn.__doc__ else None)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="experiment config file")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides run.out)")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="master seed (overrides run.seed)")
        p.add_argument("--replicas", type=int, metavar="R",
                       help="replica count (overrides run.replicas)")
        p.add_argument("--log-level", default="INFO",
                       choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                       help="least severe log record shown on stderr "
                            "(default INFO)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    logging.getLogger("exlg").setLevel(args.log_level)
    overrides = {
        "run.out": args.out,
        "run.seed": args.seed,
        "run.replicas": args.replicas,
    }
    try:
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionError as e:
        print(f"assumption violation: {e}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ChainDivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
