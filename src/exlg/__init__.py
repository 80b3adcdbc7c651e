"""Decentralized Langevin samplers over gossip networks.

Library layout:

- ``linalg``: symmetric eigensolves, PSD roots, block mixing
- ``network``: topologies, mixing matrices, assumption checks
- ``tasks``: Bayesian linear/logistic regression targets and gradients
- ``samplers``: ULA, DE-SGLD, EXTRA-type chains, reference chain
- ``metrics``: Gaussian W2 of replica fits, metric series, plateaus
- ``theory``: non-asymptotic W2 bound constants and curves
- ``harness``: experiment configs, runners, CSV/manifest output
- ``cli``: the ``exlg`` command
"""

__version__ = "0.1.0"
