"""Gaussian 2-Wasserstein distance of replica fits, and the plateau statistic.

W2 between Gaussians uses the closed form

    W2^2 = ||m_a - m_b||^2 + tr(S_a + S_b - 2 (S_b^{1/2} S_a S_b^{1/2})^{1/2})

with the inner product re-symmetrized before the second root so roundoff
cannot push it off the PSD cone.  Sampler output is scored by fitting a
Gaussian across replicas at each recorded iterate and comparing with the
target posterior.

``w2_gaussian`` scores one pair of Gaussians; ``w2_batch`` scores a stack
of replica blocks at once (one stacked ``eigh`` for every inner root),
with the bits and the checks of the single-record path: finite fits,
GaussianDist's PSD window, psd_sqrt's clip window, and exactly 0 for a
fit equal to the target.  A W2 series over recorded iterates is
``w2_batch`` of an (n_rec, R, d) stack: an ensemble's agent averages, or
one agent's slice of its (n_rec, R, N, d) iterates.  A run keeps its
series as a plain {label: values} map over its recorded ks
(``harness.series_for_run``).
"""

from __future__ import annotations

import numpy as np

from .linalg import psd_sqrt
from .tasks import GaussianDist, checked_cov

__all__ = [
    "w2_gaussian",
    "w2_batch",
    "plateau",
]


def w2_gaussian(a: GaussianDist, b: GaussianDist) -> float:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov):
        # Equal distributions have distance exactly 0; the trace formula
        # below would return a sqrt-of-roundoff floor (~1e-7) instead.
        return 0.0
    diff = a.mean - b.mean
    root_b = psd_sqrt(b.cov)
    inner = root_b @ a.cov @ root_b
    inner = (inner + inner.T) / 2.0
    cross = float(np.trace(psd_sqrt(inner)))
    w2sq = float(diff @ diff) + float(
        np.trace(a.cov) + np.trace(b.cov)
    ) - 2.0 * cross
    return float(np.sqrt(max(w2sq, 0.0)))


def w2_batch(xs: np.ndarray, target: GaussianDist) -> np.ndarray:
    """Gaussian-fit W2 to ``target`` of every (R, d) block of ``xs``.

    ``xs`` has shape (..., R, d): R replica draws per block; the result
    has shape (...).  Needs R >= 2.  Each value equals ``w2_gaussian`` of
    the block's fit (sample mean, symmetrized ddof=1 covariance) and
    ``target``, bit for bit: the blocks are made C-contiguous, and every matmul, ``eigh`` and
    reduction runs per block as the single-record call runs it.  Non-finite
    fits raise ``ValueError``, as does a fitted covariance outside
    GaussianDist's PSD window; an inner product outside psd_sqrt's clip
    window raises ``NotPSDError``.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    if xs.ndim < 2:
        raise ValueError(f"expected (..., R, d), got shape {xs.shape}")
    n, d = xs.shape[-2:]
    if n < 2:
        raise ValueError("need at least 2 replicas to fit moments")
    if d != target.dim:
        raise ValueError(f"dimension mismatch: {d} vs {target.dim}")
    mean = xs.mean(axis=-2)
    centered = xs - mean[..., None, :]
    cov = checked_cov(centered.swapaxes(-1, -2) @ centered / (n - 1))
    root = psd_sqrt(target.cov)
    cross = np.trace(psd_sqrt(root @ cov @ root), axis1=-2, axis2=-1)
    diff = (mean - target.mean)[..., None, :]
    w2sq = (diff @ diff.swapaxes(-1, -2))[..., 0, 0] + (
        np.trace(cov, axis1=-2, axis2=-1) + np.trace(target.cov)
    ) - 2.0 * cross
    same = np.all(mean == target.mean, axis=-1) & np.all(
        cov == target.cov, axis=(-2, -1))
    return np.where(same, 0.0, np.sqrt(np.maximum(w2sq, 0.0)))


def plateau(values) -> float:
    """Mean of the final 10% of recorded values (at least one)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("plateau of an empty series")
    tail = max(1, int(np.floor(0.1 * values.size)))
    return float(values[-tail:].mean())
