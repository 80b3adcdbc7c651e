"""Zero-temperature mode: the two-matrix correction removes gossip bias.

Setting temperature = 0 turns the samplers into their deterministic
optimization counterparts.  Plain decentralized gradient descent stalls
at a fixed point whose distance from the true minimizer scales linearly
with the stepsize; the two-matrix update drives every agent to the
minimizer itself.  The table below makes both effects visible.
"""

import numpy as np

from exlg.network import build_mixing_set, make_topology
from exlg.samplers import SamplerConfig, derive_seed, run_ensemble
from exlg.tasks import LinRegTask, gen_linreg_data, partition_data

rng = np.random.default_rng(derive_seed(99, "data"))
beta = rng.standard_normal(2)
x, y = gen_linreg_data(18, beta, 1.0, rng)
xs, ys = partition_data(x, y, 6, rng)
task = LinRegTask(xs=xs, ys=ys, prior_var=1.0)
ms = build_mixing_set(make_topology("ring", 6), h=0.38, delta=0.25)
xstar = task.minimizer()
print("minimizer:", np.round(xstar, 6))


def worst_agent_error(algo, eta, steps=10_000):
    cfg = SamplerConfig(algo, eta=eta, steps=steps, temperature=0.0)
    res = run_ensemble(task, cfg, [1], mixing=ms, record_every=steps)
    return float(np.max(np.linalg.norm(res.xs[-1, 0] - xstar, axis=1)))


print(f"\n{'eta':>8s} {'DGD error':>12s} {'EXTRA error':>12s}")
previous = None
for eta in (0.02, 0.01, 0.005, 0.0025):
    dgd = worst_agent_error("DE_SGLD", eta)
    extra = worst_agent_error("GEN_EXTRA_SGLD", eta)
    note = ""
    if previous is not None:
        note = f"   (DGD ratio vs previous: {dgd / previous:.3f})"
    print(f"{eta:8.4f} {dgd:12.2e} {extra:12.2e}{note}")
    previous = dgd

print("\nDGD's error halves with eta, as the O(eta) fixed-point analysis")
print("predicts.  The corrected update lands on the minimizer to machine")
print("precision at every stepsize, no stepsize decay schedule needed.")
