"""How network connectivity shifts the sampling plateau.

A scaled-down version of the topology experiment: ten agents, four
graphs, two sampling methods, one shared dataset.  For each pairing we
report the plateau (mean of the final tenth) of the per-agent W2 series.
The fully connected graph mixes fastest, the star concentrates traffic
through a hub, and the disconnected graph shows what the corrective
matrices cannot fix, since the correction only exists on a connected
component.

Takes a few seconds, all NumPy.
"""

import numpy as np

from exlg.metrics import plateau, w2_batch
from exlg.network import build_mixing_set, laplacian, make_topology
from exlg.samplers import SamplerConfig, derive_seed, run_ensemble
from exlg.linalg import sym_eig
from exlg.tasks import LinRegTask, gen_linreg_data, partition_data

MASTER = 31
N = 10
REPLICAS = 80
STEPS = 200

# tuned h per graph (argmin-plateau over an h sweep at this scale)
H = {"fully-connected": 0.50, "ring": 0.38, "star": 0.13,
     "disconnected": 0.38}

rng = np.random.default_rng(derive_seed(MASTER, "data"))
beta = rng.standard_normal(2)
x, y = gen_linreg_data(2500, beta, 1.0, rng)
xs, ys = partition_data(x, y, N, rng, per_agent=50)
task = LinRegTask(xs=xs, ys=ys, prior_var=1.0)
target = task.target()


def per_agent_w2(algo, ms):
    seeds = [derive_seed(MASTER, algo, r) for r in range(REPLICAS)]
    cfg = SamplerConfig(algo, eta=0.009, steps=STEPS)
    block = run_ensemble(task, cfg, seeds, mixing=ms,
                         record_every=10).xs  # (n_rec, R, N, d)
    return np.mean([w2_batch(block[:, :, a, :], target) for a in range(N)],
                   axis=0)


print(f"{'topology':>16s} {'h':>5s} {'DE_SGLD':>10s} {'GEN_EXTRA':>10s}"
      f" {'improvement':>12s}")
for kind, h in H.items():
    top = make_topology(kind, N)
    lam_max = sym_eig(laplacian(top)).values[-1]
    delta = 0.5 / lam_max if lam_max > 0 else 1.0
    ms = build_mixing_set(top, h=h, delta=delta)
    de = plateau(per_agent_w2("DE_SGLD", ms))
    gen = plateau(per_agent_w2("GEN_EXTRA_SGLD", ms))
    gain = (de - gen) / de * 100.0
    print(f"{kind:>16s} {h:5.2f} {de:10.4f} {gen:10.4f} {gain:11.1f}%")

print("\nOn every connected graph the two-matrix chain plateaus lower.")
print("On the disconnected graph both methods coincide: U vanishes and")
print("the generalized recursion degenerates to independent local chains.")
