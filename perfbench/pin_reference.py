"""Write the reference outputs the benchmark compares pinned-seed runs with.

    python3 perfbench/pin_reference.py

Runs each workload's command once at its pinned seed and copies the
compared CSVs to perfbench/reference/<workload>/.  Run it only to move
the reference deliberately, and say why in the change that does it.
"""

import contextlib
import io
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from exlg import cli  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402


def main() -> int:
    for w in WORKLOADS.values():
        base = os.path.join(ROOT, ".bench_out", "pin", w.name)
        out = os.path.join(base, "out")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        config = os.path.join(base, "config.ini")
        with open(config, "w") as fh:
            fh.write(w.config_text(w.pinned_seed, out))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(w.argv(config, out))
        if rc != 0:
            print(f"{w.name}: exit code {rc}", file=sys.stderr)
            return 1
        dest = os.path.join(REFERENCE_DIR, w.name)
        os.makedirs(dest, exist_ok=True)
        for name in w.reference:
            shutil.copyfile(os.path.join(out, name), os.path.join(dest, name))
        print(f"{w.name}: pinned {', '.join(w.reference)} at seed "
              f"{w.pinned_seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
