"""Whether two source trees of exlg write the same outputs, command by command.

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  Every command runs as
``python -m exlg.cli`` with the tree's ``src`` first on ``PYTHONPATH``,
one BLAS thread, and a config and output directory given by relative
paths, so both trees see the same command line.  The commands are a fixed
matrix built from the configs of ``perfbench/workloads.py`` (read, not
changed):

- each benchmark workload at its pinned seed and at seed 7;
- ``run`` of each of the five algorithms on the ``linreg-compare`` config;
- ``validate`` and ``gen-data`` on that config;
- a 3-point ``sweep-h`` on that config;
- a generalized-EXTRA ``run`` on that config with B = I
  (``b_mode = scaled-identity``) at temperature 0;
- ``run`` of EXTRA-SGLD (whose noise carries a block across chunks) and
  of DE-SGLD (which is then DGD) on that config at temperature 0;
- ``run`` on that config with ``--seed 7 --replicas 3 --log-level
  WARNING``, the flags that override the config;
- minibatch ``run``s of generalized EXTRA and EXTRA on that config with
  ``batch = 10``;
- a generalized-EXTRA ``run`` on that config at ``eta = 0.02``, which
  diverges on its dual v partway through a chunk of guarded steps;
- generalized-EXTRA ``run``s on that config with ``beta_true`` scaled by
  1e-6 (and ``noise_std = 1e-6``, at temperature 0), whose trajectory
  lies below 1e-4, and scaled by 1e9, whose coordinates have ten-digit
  integer parts: the two sides of the trajectory formatter;
- ``compare`` of the five algorithms and a 3-point ``sweep-h`` on the
  minibatch ``logreg-minibatch-run`` config, and ``run`` on it with
  ``batch = 100`` (every shard row) and with 61 steps (not a multiple of
  the steps a chunk of minibatch rows holds).

For each command the exit code, stdout, stderr and every written file
are compared; ``manifest.json`` without its ``out`` and ``wall_clock_s``
keys.  A CSV that differs is reported with its largest relative deviation
(``workloads.max_rel_dev``: inf when its shape or a text cell differs).
One line is printed per command; the exit code is 1 when anything
differs, else 0.
"""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402  (stdlib only; perfbench is not a package)

ALGORITHMS = ("ULA", "DE_SGLD", "EXTRA_SGLD", "GEN_EXTRA_SGLD",
              "REFERENCE_CHAIN")
_ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# manifest keys that differ between any two runs
_UNSTABLE = ("out", "wall_clock_s")


def matrix() -> list:
    """(name, command, config text, extra argv) of every command
    compared."""
    entries = [(f"{w.name}@{seed}", w.command, w.config_text(seed, "out"))
               for w in workloads.WORKLOADS.values()
               for seed in (w.pinned_seed, 7)]
    lin = workloads.WORKLOADS["linreg-compare"]
    base = lin.config_text(lin.pinned_seed, "out")
    if "algorithm = GEN_EXTRA_SGLD\n" not in base:
        raise RuntimeError("the linreg-compare config names no "
                           "GEN_EXTRA_SGLD algorithm line to replace")

    def algorithm(a, extra=""):
        """The linreg-compare config running ``a``, with sampler lines
        ``extra``."""
        return base.replace("algorithm = GEN_EXTRA_SGLD\n",
                            f"algorithm = {a}\n{extra}")

    entries += [(f"run-{a}", "run", algorithm(a)) for a in ALGORITHMS]
    entries += [("validate", "validate", base), ("gen-data", "gen-data", base),
                ("sweep-h", "sweep-h",
                 base + "[sweep]\nh_min = 0.1\nh_max = 0.4\npoints = 3\n"),
                ("run-GEN_EXTRA_SGLD-scaled-identity-T0", "run",
                 algorithm("GEN_EXTRA_SGLD",
                           "b_mode = scaled-identity\ntemperature = 0\n"))]
    entries += [(f"run-{a}-T0", "run", algorithm(a, "temperature = 0\n"))
                for a in ("EXTRA_SGLD", "DE_SGLD")]
    entries += [(f"run-{a}-batch10", "run", algorithm(a, "batch = 10\n"))
                for a in ("GEN_EXTRA_SGLD", "EXTRA_SGLD")]
    if "eta = 0.009\n" not in base:
        raise RuntimeError("the linreg-compare config has no 'eta = 0.009' "
                           "line to replace")
    entries.append(("run-GEN_EXTRA_SGLD-eta0.02", "run",
                    base.replace("eta = 0.009\n", "eta = 0.02\n")))
    beta = re.search(r"^beta_true = (.*)\n", base, re.MULTILINE)
    if beta is None:
        raise RuntimeError("the linreg-compare config has no beta_true "
                           "line to replace")

    def beta_times(scale):
        """The beta_true line with every entry times ``scale``."""
        return "beta_true = " + " ".join(
            repr(float(b) * scale) for b in beta[1].split()) + "\n"

    entries += [("run-tiny-T0", "run", algorithm(
                    "GEN_EXTRA_SGLD", "temperature = 0\n").replace(
                    beta[0], beta_times(1e-6) + "noise_std = 1e-6\n")),
                ("run-beta-1e9", "run", base.replace(beta[0],
                                                     beta_times(1e9)))]
    log = workloads.WORKLOADS["logreg-minibatch-run"]
    log_base = log.config_text(log.pinned_seed, "out")
    for line in ("batch = 32\n", "steps = 500\n"):
        if line not in log_base:
            raise RuntimeError(f"the logreg-minibatch-run config has no "
                               f"{line.strip()!r} line to replace")
    entries += [("logreg-compare", "compare", log_base
                 + f"[compare]\nalgorithms = {' '.join(ALGORITHMS)}\n"),
                ("logreg-sweep-h", "sweep-h", log_base
                 + "[sweep]\nh_min = 0.02\nh_max = 0.056\npoints = 3\n"),
                ("logreg-run-batch100", "run",
                 log_base.replace("batch = 32\n", "batch = 100\n")),
                ("logreg-run-61-steps", "run",
                 log_base.replace("steps = 500\n", "steps = 61\n"))]
    flags = ("--seed", "7", "--replicas", "3", "--log-level", "WARNING")
    return [(*e, ()) for e in entries] + [
        ("run-flag-overrides", "run", base, flags)]


def run(tree: str, command: str, config: str, work: str,
        extra=()) -> dict:
    """Run one command of ``tree``, with the argv ``extra`` after its
    config and output flags, in the fresh directory ``work``: its exit
    code, stdout, stderr and {relative path: bytes} of what it wrote
    under ``out``."""
    os.makedirs(work)
    with open(os.path.join(work, "exp.ini"), "w") as fh:
        fh.write(config)
    env = dict(os.environ, **_ONE_THREAD, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "exlg.cli", command, "--config", "exp.ini",
         "--out", "out", *extra], cwd=work, env=env, capture_output=True)
    files = {}
    out = os.path.join(work, "out")
    for d, _, names in os.walk(out):
        for name in names:
            path = os.path.join(d, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = fh.read()
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def _stable(manifest: bytes):
    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()
                    if k not in _UNSTABLE}
        return node
    return strip(json.loads(manifest))


def differences(a: dict, b: dict) -> list:
    """What differs between two `run` results, one phrase each."""
    found = [key for key in ("exit code", "stdout", "stderr")
             if a[key] != b[key]]
    for path in sorted(a["files"].keys() | b["files"].keys()):
        x, y = a["files"].get(path), b["files"].get(path)
        if x is None or y is None:
            side = "change" if x is None else "parent"
            found.append(f"{path} only in {side}")
        elif os.path.basename(path) == "manifest.json":
            if _stable(x) != _stable(y):
                found.append(path)
        elif x != y:
            if path.endswith(".csv"):
                dev = workloads.max_rel_dev(*(
                    list(csv.reader(t.decode().splitlines())) for t in (x, y)))
                found.append(f"{path} (max rel dev {dev:.3g})")
            else:
                found.append(path)
    return found


def compare_trees(parent: str, change: str, entries) -> bool:
    """Run ``entries`` in both trees and print one line per entry;
    whether every entry is identical."""
    same = True
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for i, (name, command, config, extra) in enumerate(entries):
            a, b = (run(tree, command, config,
                        os.path.join(tmp, side, str(i)), extra)
                    for side, tree in (("parent", parent),
                                       ("change", change)))
            found = differences(a, b)
            same = same and not found
            print(f"{'identical' if not found else 'DIFFERS':9}  {name}"
                  + (f": {'; '.join(found)}" if found else ""), flush=True)
    return same


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/same_outputs.py PARENT_TREE CHANGE_TREE",
              file=sys.stderr)
        return 2
    return 0 if compare_trees(*args, matrix()) else 1


if __name__ == "__main__":
    sys.exit(main())
