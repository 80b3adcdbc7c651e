"""The benchmark's three ``exlg`` CLI workloads: configs, work and checks.

Standard library only: ``run.py`` imports this module without numpy, and
the child imports it only after it has timed the import of ``exlg``.

Every workload is an acceptance-style recipe with fixed shapes.  The
benchmark seed becomes ``run.seed``, the master seed the CLI derives its
data, holdout and chain streams from, so one seed always gives the same
inputs.  ``task.beta_true`` is pinned to the signal vector the acceptance
recipe draws at its own seed: with a drawn vector some seeds give a
nearly flat signal, the 0.80 holdout-accuracy gate fails on them and the
W2 gate has nothing to measure.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import re

# Drawn by the acceptance recipes from their data streams (seed 42, d=2 and
# seed 1010, d=3); written out so every seed shares them.
_LINREG_BETA = "1.0222531862935225 1.8378468836432988"
_LOGREG_BETA = "-0.22115066763634766 1.009573684642719 -0.1396883934429087"

# delta = 0.5 / lambda_max(L); a ring with an even agent count has
# lambda_max(L) = 4, so lambda_min(W) = 0.5 as in the acceptance recipes.
_RING_DELTA = 0.125

_LINREG_TASK = f"""[task]
kind = linreg
n_points = 5000
per_agent = 50
dim = 2
beta_true = {_LINREG_BETA}
"""

REL_TOL = 1e-6
"""Largest relative deviation from the pinned reference counted as correct.

Loose enough for a refactor that only reorders floating-point sums, tight
enough that any change to the sampled values fails."""

MIN_ACCURACY = 0.80


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str          # the exlg subcommand
    pinned_seed: int      # the seed the reference outputs were made at
    config: str           # ini text with {seed} and {out} fields
    agent_steps: int      # replicas x steps x agents x algorithms
    outputs: tuple        # CSV files each command must write
    reference: tuple      # the subset compared with perfbench/reference
    why: str

    def config_text(self, seed: int, out: str) -> str:
        return self.config.format(seed=seed, out=out)

    def argv(self, config_path: str, out: str) -> list:
        return [self.command, "--config", config_path, "--out", out]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="linreg-compare",
            command="compare",
            pinned_seed=42,
            config=_LINREG_TASK + f"""[network]
topology = ring
n = 20
h = 0.38
delta = {_RING_DELTA}
[sampler]
algorithm = GEN_EXTRA_SGLD
eta = 0.009
steps = 200
[run]
seed = {{seed}}
out = {{out}}
replicas = 10
record_every = 10
threads = 1
[compare]
algorithms = DE_SGLD GEN_EXTRA_SGLD
""",
            agent_steps=10 * 200 * 20 * 2,
            outputs=("metrics.csv", "plateau.csv"),
            reference=("metrics.csv", "plateau.csv"),
            why="full-batch chains on a 20-agent ring: per-agent gradient "
                "calls, noise blocks and W2 scoring; no trajectory file",
        ),
        Workload(
            name="logreg-minibatch-run",
            command="run",
            pinned_seed=1010,
            config=f"""[task]
kind = logreg-synthetic
n_points = 600
dim = 3
beta_true = {_LOGREG_BETA}
holdout = 1000
[network]
topology = ring
n = 6
h = 0.056
delta = {_RING_DELTA}
[sampler]
algorithm = GEN_EXTRA_SGLD
eta = 0.005
steps = 500
batch = 32
[run]
seed = {{seed}}
out = {{out}}
replicas = 5
record_every = 1
threads = 1
""",
            agent_steps=5 * 500 * 6,
            outputs=("trajectory.csv", "metrics.csv", "plateau.csv"),
            reference=("metrics.csv", "plateau.csv"),
            why="minibatch chains: per-(k, i) batch streams, logistic "
                "gradients, accuracy scoring and a full trajectory CSV",
        ),
        Workload(
            name="ring50-theory-shrink",
            command="theory",
            pinned_seed=42,
            config=_LINREG_TASK + f"""[network]
topology = ring
n = 50
h = 0.38
delta = {_RING_DELTA}
[sampler]
algorithm = GEN_EXTRA_SGLD
eta = 0.009
steps = 200
[run]
seed = {{seed}}
out = {{out}}
replicas = 1
record_every = 10
threads = 1
[theory]
shrink = true
""",
            # no chain runs; the formula applied to the config it certifies
            agent_steps=1 * 200 * 50,
            outputs=("theory_constants.csv", "theory_bounds.csv"),
            reference=("theory_bounds.csv",),
            why="no chains: Jacobi eigensolves for mixing sets and the "
                "bound constants in the shrink loop on a 50-agent ring",
        ),
    )
}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def max_rel_dev(rows: list, ref_rows: list) -> float:
    """Largest relative deviation between two CSV tables, cell by cell.

    Text cells must match exactly and the shapes must agree; otherwise the
    deviation is infinite.  Numbers compare as |a - b| / max(|a|, |b|),
    with 1e-12 as the floor of the denominator so exact zeros compare
    absolutely.
    """
    if len(rows) != len(ref_rows):
        return math.inf
    worst = 0.0
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(ref):
            return math.inf
        for a, b in zip(row, ref):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    return math.inf
                continue
            if x == y:
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                return math.inf
            worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-12))
    return worst


def reference_dev(workload: Workload, out: str) -> float:
    """Max relative deviation of the outputs in ``out`` from the pinned
    reference files of ``workload``."""
    worst = 0.0
    for name in workload.reference:
        ref = read_rows(os.path.join(REFERENCE_DIR, workload.name, name))
        worst = max(worst, max_rel_dev(read_rows(os.path.join(out, name)),
                                       ref))
    return worst


def sanity_problems(workload: Workload, out: str, stdout: str) -> list:
    """The acceptance-style conditions every seed must meet."""
    if workload.command == "compare":
        return _w2_problems(out)
    if workload.command == "run":
        return _accuracy_problems(out)
    return _certificate_problems(out, stdout)


def _plateaus(out: str) -> dict:
    return {(algo, label): float(value) for algo, label, value
            in read_rows(os.path.join(out, "plateau.csv"))[1:]}


def _w2_problems(out: str) -> list:
    first = {}
    for _k, label, value in read_rows(os.path.join(out, "metrics.csv"))[1:]:
        first.setdefault(label, float(value))
    problems = []
    plateaus = {key: v for key, v in _plateaus(out).items()
                if key[1] == "w2_mean"}
    if not plateaus:
        problems.append("no w2_mean plateau in plateau.csv")
    for (algo, label), value in plateaus.items():
        start = first.get(f"{algo}:{label}", math.nan)
        if not (math.isfinite(value) and value < start):
            problems.append(f"{algo} w2_mean plateau {value!r} is not "
                            f"finite and below its first value {start!r}")
    return problems


def _accuracy_problems(out: str) -> list:
    acc = [v for (_a, label), v in _plateaus(out).items()
           if label == "accuracy"]
    if not acc:
        return ["no accuracy plateau in plateau.csv"]
    return [f"holdout accuracy {v!r} below {MIN_ACCURACY}" for v in acc
            if not v >= MIN_ACCURACY]


_CLAUSE = re.compile(r"^\[(pass|FAIL)\] ", re.M)


def _certificate_problems(out: str, stdout: str) -> list:
    _, sep, after = stdout.partition("admissible pair:")
    if not sep:
        return ["theory printed no admissible pair after the shrink"]
    verdicts = _CLAUSE.findall(after)
    problems = []
    if not verdicts or "FAIL" in verdicts:
        problems.append(f"certificate after the shrink: {verdicts}")
    for _k, _label, value in read_rows(
            os.path.join(out, "theory_bounds.csv"))[1:]:
        if not math.isfinite(float(value)):
            problems.append(f"non-finite bound {value!r}")
            break
    return problems
