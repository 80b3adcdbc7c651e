"""Counter-based noise streams: reruns and draw order never change results.

Every random draw in a chain is indexed by (seed, iteration, agent,
purpose) through a counter-based generator, so there is no hidden
generator state to protect.  Replicas and draws can come in any order,
and a rerun reproduces the trajectory bit for bit.
The seed for replica r is itself derived by hashing (master, "replica",
r), so one master integer pins an entire experiment.  Replicas advance
together as one ensemble, and replica 0 comes out the same whether it
runs alone or beside seven others.
"""

import numpy as np

from exlg.network import build_mixing_set, make_topology
from exlg.samplers import (
    NoiseStream,
    SamplerConfig,
    batch_table,
    derive_seed,
    run_ensemble,
)
from exlg.tasks import LinRegTask, gen_linreg_data, partition_data

# --- seed derivation -------------------------------------------------------
master = 12345
print("derive_seed(master, 'data')        =", derive_seed(master, "data"))
print("derive_seed(master, 'replica', 0)  =",
      derive_seed(master, "replica", 0))
print("derive_seed(master, 'replica', 1)  =",
      derive_seed(master, "replica", 1))

# --- random access into a stream ------------------------------------------
stream = NoiseStream(seed=7, n_agents=4, dim=3)
late = stream.gaussian(k=500, i=2)
early = stream.gaussian(k=3, i=0)
again = stream.gaussian(k=500, i=2)
print("\ndraw at (k=500, agent=2) twice, with another draw in between:")
print(" first :", late)
print(" second:", again)
assert np.array_equal(late, again)

# --- minibatch indices, drawn as a table ----------------------------------
# A chain reads agent i's minibatch at iterate k from batch_table, which
# draws a chunk of steps for every replica and agent at once; each row
# equals the stream's own batch_rng(k, i).choice.
table = batch_table([stream], ks=[500], n_agents=4, n=40, batch=6)
scalar = stream.batch_rng(500, 2).choice(40, 6, replace=False)
print("\nminibatch of agent 2 at k=500 (shard of 40 rows, batch 6):")
print(" batch_table       :", table[0, 0, 2])
print(" batch_rng().choice:", scalar)
assert np.array_equal(table[0, 0, 2], scalar)

# --- whole-chain reproducibility ------------------------------------------
rng = np.random.default_rng(derive_seed(master, "data"))
beta = rng.standard_normal(2)
x, y = gen_linreg_data(60, beta, 1.0, rng)
xs, ys = partition_data(x, y, 4, rng)
task = LinRegTask(xs=xs, ys=ys, prior_var=1.0)
ms = build_mixing_set(make_topology("ring", 4), h=0.3, delta=0.2)
cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=500)

a = run_ensemble(task, cfg, [2024], mixing=ms).xs
b = run_ensemble(task, cfg, [2024], mixing=ms).xs
print("\ntwo runs of the same chain are bit-identical:",
      np.array_equal(a, b))

# --- replica count --------------------------------------------------------
seeds = [derive_seed(master, "replica", r) for r in range(8)]
alone = run_ensemble(task, cfg, seeds[:1], mixing=ms).xs[:, 0]
of_eight = run_ensemble(task, cfg, seeds, mixing=ms).xs[:, 0]
print("replica 0 at R = 1 and at R = 8 is bit-identical:",
      np.array_equal(alone, of_eight))
assert np.array_equal(alone, of_eight)

# The CLI exposes the same property end to end: running
#   exlg run --config exp.cfg --replicas 2
#   exlg run --config exp.cfg --replicas 8
# writes the same trajectory.csv rows for replicas 0 and 1, because
# replica r's streams depend on (master, "replica", r) alone.
