"""Counter-based noise streams: reruns and draw order never change results.

Every random draw in a chain is indexed by (seed, iteration, agent,
purpose) through a counter-based generator, so there is no hidden
generator state to protect.  Replicas and draws can come in any order,
and a rerun reproduces the trajectory bit for bit.
The seed for replica r is itself derived by hashing (master, "replica",
r), so one master integer pins an entire experiment.
"""

import numpy as np

from exlg.network import build_mixing_set, make_topology
from exlg.samplers import NoiseStream, SamplerConfig, derive_seed, run_chain
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

# --- whole-chain reproducibility ------------------------------------------
rng = np.random.default_rng(derive_seed(master, "data"))
beta = rng.standard_normal(2)
x, y = gen_linreg_data(60, beta, 1.0, rng)
shards = partition_data(x, y, 4, rng)
task = LinRegTask(xs=tuple(s[0] for s in shards),
                  ys=tuple(s[1] for s in shards), prior_var=1.0)
ms = build_mixing_set(make_topology("ring", 4), h=0.3, delta=0.2)
cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=500, seed=2024)

a = run_chain(task, cfg, mixing=ms).xs
b = run_chain(task, cfg, mixing=ms).xs
print("\ntwo runs of the same chain are bit-identical:",
      np.array_equal(a, b))

# The CLI exposes the same property end to end: running
#   exlg run --config exp.cfg --replicas 2
#   exlg run --config exp.cfg --replicas 8
# writes the same trajectory.csv rows for replicas 0 and 1, because
# replica r's streams depend on (master, "replica", r) alone.
