"""Fixed bits of the noise and index streams, and of one minibatch run.

The other stream tests compare `NoiseStream.gaussian_blocks` with a fresh
Philox and `batch_table` with ``Generator.choice``: numpy against itself.
NumPy's stream policy (NEP 19) lets a ``Generator`` method's output change
between releases, and then every output of exlg would move while those
tests stayed green.  These hold sha256 digests of a few blocks and tables
and of a 2-replica minibatch ``run``'s ``metrics.csv``, as numpy 2.4 on
x86-64 with OpenBLAS gives them.
"""

import hashlib
import textwrap

import numpy as np
import pytest

from exlg.cli import main
from exlg.samplers import NoiseStream, batch_table, derive_seed


def _blocks(seed, k0, count, n_agents, dim):
    out = np.empty((count, n_agents, dim))
    return NoiseStream(seed, n_agents, dim).gaussian_blocks(k0, out)


def _table(seeds, ks, n_agents, n, batch):
    noises = [NoiseStream(s, n_agents, 1) for s in seeds]
    return batch_table(noises, ks, n_agents, n, batch).astype("<i8")


_REPLICAS = [derive_seed(7, "replica", r) for r in range(2)]

CASES = {
    "blocks": lambda: _blocks(_REPLICAS[0], 1, 4, 6, 3),
    "blocks-high-key-and-counter": lambda: _blocks(2**128 - 1, 2**63, 2, 3,
                                                   2),
    "table-b32-of-100": lambda: _table(_REPLICAS, range(5), 6, 100, 32),
    # the fifth draw of stream (474353, 3) is a Lemire rejection
    "table-lemire-fallback": lambda: _table([20241018], [474353], 4, 9714,
                                            5),
    "table-b-equals-n": lambda: _table(_REPLICAS, [0, 9], 3, 40, 40),
    "table-n-over-10000": lambda: _table(_REPLICAS, [3], 2, 20000, 100),
    "table-tail-shuffle": lambda: _table(_REPLICAS, [3], 2, 10001, 201),
}

DIGESTS = {
    "blocks":
        "d99d2e1d8207b7f71890d39eeae5176461ad3ee59d15ac1a87594481283e679a",
    "blocks-high-key-and-counter":
        "40bf92947a9cb45df82bc109f6d210d5de4ca34e34c2d0244704cf9b73a3dc90",
    "table-b32-of-100":
        "382051a3786120184a8362df9c38ce07a9703c76853a617dc2d2de6999aaefbf",
    "table-lemire-fallback":
        "9fab56bbcf1e3cc4800d944196635b95fce30aa781e87f0b26b8f57fe0dbb5ef",
    "table-b-equals-n":
        "6a178a6d81bfbc2990ed98e0221a6bcef03e176cfaea001e3944a03eb7f0d16a",
    "table-n-over-10000":
        "28cf61b55eaf924108ce91ef54987b430c817595dbb660b36083642e92903af6",
    "table-tail-shuffle":
        "b43afc049d4cc62a7496273776fe87a26497fb0b7d5d428961f4e3aaede34cde",
    "metrics.csv":
        "80833dcf53a33d7bde25aefd0d6abb7399b1e11e8362d95f0aa0ecff3fb33912",
}

RUN_CONFIG = """\
[task]
kind = logreg-synthetic
n_points = 600
dim = 3
beta_true = -0.2 1.0 -0.1
holdout = 200
[network]
topology = ring
n = 6
h = 0.056
delta = 0.125
[sampler]
algorithm = GEN_EXTRA_SGLD
eta = 0.005
steps = 60
batch = 32
[run]
seed = 1010
replicas = 2
record_every = 5
"""


def _moved(what, got):
    return (f"sha256 of {what} is {got}, not {DIGESTS[what]}: the noise "
            f"or index streams moved (numpy {np.__version__}), or the "
            "arithmetic did; every output of exlg moves with them")


def _run_metrics(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(textwrap.dedent(RUN_CONFIG))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--log-level", "WARNING"]) == 0
    return (out / "metrics.csv").read_bytes()


@pytest.mark.parametrize("what", list(CASES))
def test_stream_digest(what):
    got = hashlib.sha256(np.ascontiguousarray(CASES[what]())
                         .tobytes()).hexdigest()
    assert got == DIGESTS[what], _moved(what, got)


def test_minibatch_run_metrics_digest(tmp_path):
    got = hashlib.sha256(_run_metrics(tmp_path)).hexdigest()
    assert got == DIGESTS["metrics.csv"], _moved("metrics.csv", got)
