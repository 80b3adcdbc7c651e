"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 assumption violation,
4 chain divergence.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
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


# main's log handler while the root logger has no other
_STDERR = logging.StreamHandler()

# glibc's mallopt parameter number for M_TOP_PAD, and the pad main sets
_M_TOP_PAD = -2
_TOP_PAD = 16 << 20
_heap_kept = False


def _keep_freed_heap() -> None:
    """Once per process, on glibc only: have malloc keep up to _TOP_PAD of
    freed memory at the heap top instead of returning it to the kernel.

    Each chunk of a chain frees its index table, rows and record buffers
    and allocates them again for the next chunk; with the pages returned,
    every chunk faults them back in.  Outputs do not change.  A library
    caller that never calls main keeps its allocator as it was."""
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no name
        return
    if libc.startswith("glibc "):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:  # int mallopt(int param, int value)
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            mallopt(_M_TOP_PAD, _TOP_PAD)


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command is a positional choice, and the five
    options are the same for every command, before or after it."""
    parser = argparse.ArgumentParser(
        prog="exlg",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Decentralized Langevin sampling experiments: "
                    "validate configs, run replica\nensembles, compare "
                    "algorithms, sweep h, and evaluate the W2 bounds.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<10} {fn.__doc__.splitlines()[0]}"
            for name, fn in _COMMANDS.items()))
    parser.add_argument("command", choices=list(_COMMANDS),
                        help="one of the commands listed below")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="experiment config file")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides run.out)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="master seed (overrides run.seed)")
    parser.add_argument("--replicas", type=int, metavar="R",
                        help="replica count (overrides run.replicas)")
    parser.add_argument("--log-level", default="INFO",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="least severe log record shown on stderr "
                             "(default INFO)")
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    _STDERR.stream = sys.stderr  # this call's, not the first call's
    logging.basicConfig(handlers=[_STDERR], level=logging.INFO,
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
        print(f"divergence: replica {e.replica}: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
