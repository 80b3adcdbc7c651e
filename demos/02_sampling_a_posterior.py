"""Sample a Bayesian linear-regression posterior over a ring network.

Six agents each hold ten observations.  A centralized ULA chain sees all
sixty and serves as the reference; the decentralized chains only ever
see local shards plus gossip messages.  The printed table tracks two
W2 distances to the exact Gaussian posterior (closed form for this
model): one for the agent-averaged iterate, one averaged over the
agents' individual ensembles.  The second is where the network bias of
plain gossip averaging shows up; the corrected chains push it down
without touching the stepsize.

With matplotlib installed the per-agent series are also saved as a PNG
next to this script.
"""

import os

import numpy as np

from exlg.harness import series_for_run
from exlg.network import build_mixing_set, make_topology
from exlg.samplers import SamplerConfig, derive_seed, run_ensemble
from exlg.tasks import LinRegTask, gen_linreg_data, partition_data

MASTER = 20240
N_AGENTS = 6
REPLICAS = 150
STEPS = 400
ETA = 0.008
EVERY = 25

rng = np.random.default_rng(derive_seed(MASTER, "data"))
beta_true = np.array([1.5, -0.8])
x, y = gen_linreg_data(60, beta_true, 1.0, rng)
xs, ys = partition_data(x, y, N_AGENTS, rng)
task = LinRegTask(xs=xs, ys=ys, prior_var=1.0)

target = task.target()
print("true coefficients:   ", beta_true)
print("posterior mean:      ", np.round(target.mean, 4))
print("posterior covariance:\n", target.cov)

ms = build_mixing_set(make_topology("ring", N_AGENTS), h=0.38, delta=0.2)
ks = list(range(0, STEPS + 1, EVERY))


def ensemble(algo):
    """(mean-iterate W2 series, per-agent W2 series) for one algorithm."""
    seeds = [derive_seed(MASTER, algo, r) for r in range(REPLICAS)]
    cfg = SamplerConfig(algo, eta=ETA, steps=STEPS)
    xs = run_ensemble(task, cfg, seeds, mixing=ms, record_every=EVERY)
    series = series_for_run(task, xs, None, 1.0)
    return series["w2_mean"], series["w2_agents"]


algos = ("ULA", "DE_SGLD", "EXTRA_SGLD", "GEN_EXTRA_SGLD")
mean_w2 = {}
agent_w2 = {}
for algo in algos:
    mean_w2[algo], agent_w2[algo] = ensemble(algo)

print(f"\nper-agent W2 to the posterior ({REPLICAS} replicas):")
print("    k  " + "".join(f"{a:>16s}" for a in algos))
for j, k in enumerate(ks):
    print(f"{k:5d}  " + "".join(f"{agent_w2[a][j]:16.4f}" for a in algos))

tail = slice(-max(1, len(ks) // 10), None)
print("\nplateau of the final tenth:")
for a in algos:
    print(f"  {a:16s} per-agent {np.mean(agent_w2[a][tail]):.4f}   "
          f"agent-average {np.mean(mean_w2[a][tail]):.4f}")

print("\nThe centralized chain is a single sampler, so its two numbers")
print("coincide.  Gossip-only DE_SGLD plateaus visibly higher per agent,")
print("which is its stepsize-proportional network bias; the two EXTRA")
print("variants cut that excess roughly in half at the same stepsize.")
print("The agent-averaged iterates look alike for every method because")
print("averaging cancels the agent-level spread down to this ensemble's")
print("estimation floor.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    for algo in algos:
        ax.plot(ks, agent_w2[algo], marker="o", ms=3, label=algo)
    ax.set_yscale("log")
    ax.set_xlabel("iteration")
    ax.set_ylabel("per-agent W2 to posterior")
    ax.legend()
    fig.tight_layout()
    out = os.path.join(os.path.dirname(__file__), "02_w2_decay.png")
    fig.savefig(out, dpi=120)
    print(f"\nwrote {out}")
