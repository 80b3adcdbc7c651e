"""Build gossip matrices for each topology and inspect their spectra.

Walks through the W = I - delta*L construction, the smoothed second
matrix W~ = h*I + (1-h)*W, and the assumption report that every sampler
run checks before it starts.  Run as a script; prints everything.
"""

import numpy as np

from exlg.linalg import psd_sqrt, sym_eig
from exlg.network import build_mixing_set, laplacian, make_topology, validate_assumptions

np.set_printoptions(precision=4, suppress=True)

N = 8
H = 0.3

for kind in ("fully-connected", "ring", "star", "disconnected"):
    top = make_topology(kind, N)
    lam, _ = sym_eig(laplacian(top))
    print(f"\n=== {kind} (N={N}) ===")
    print("Laplacian spectrum:", np.round(lam, 4))

    # delta = 0.5 / lambda_max keeps W's spectrum in [0.5, 1]
    delta = 0.5 / lam[-1] if lam[-1] > 0 else 1.0
    ms = build_mixing_set(top, h=H, delta=delta)
    wv, _ = sym_eig(ms.w)
    wtv, _ = sym_eig(ms.w_tilde)
    print(f"delta = {delta:.4f}")
    print(f"eig(W)  in [{wv[0]:.4f}, {wv[-1]:.4f}]   "
          f"gap to 1: {1 - wv[-2]:.4f}")
    print(f"eig(W~) in [{wtv[0]:.4f}, {wtv[-1]:.4f}]")
    print(f"spectral summary: gammabar_W = {ms.spectral.gammabar_w:.4f}, "
          f"gammabar_W~ = {ms.spectral.gammabar_wt:.4f}")

    report = validate_assumptions(ms)
    print("assumption checks:", "all pass" if report.ok else "FAILURES")
    for c in report.checks:
        mark = "ok " if c.passed else "BAD"
        print(f"  [{mark}] {c.name:24s} {c.detail}")

# The coupling matrix U = W~ - W is PSD with a one-dimensional null space
# on connected graphs; its square root drives the two-matrix samplers.
print("\n=== U and its PSD square root (ring) ===")
ms = build_mixing_set(make_topology("ring", 5), h=0.4, delta=0.2)
root = psd_sqrt(ms.u)
print("U =\n", ms.u)
print("max |sqrt(U)^2 - U| =", np.max(np.abs(root @ root - ms.u)))
ones = np.ones(5)
print("U @ 1 =", ms.u @ ones, " (exactly the consensus direction)")
