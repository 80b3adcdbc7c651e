"""Gaussian 2-Wasserstein distance of replica fits, and the plateau statistic.

W2 between Gaussians uses the closed form

    W2^2 = ||m_a - m_b||^2 + tr(S_a + S_b - 2 (S_b^{1/2} S_a S_b^{1/2})^{1/2})

with the inner product re-symmetrized before the second root so roundoff
cannot push it off the PSD cone.  Sampler output is scored by fitting a
Gaussian across replicas at each recorded iterate and comparing with the
target posterior.

``w2_batch`` scores a stack of replica blocks at once (one stacked
``eigh`` for every inner root), each block with the bits and the checks
of the one-pair form that the tests keep as its definition
(``w2_gaussian`` in ``tests/oracles.py``): finite fits, GaussianDist's
PSD window, psd_sqrt's clip window, and exactly 0 for a fit equal to the
target.  A W2 series over recorded iterates is
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
    "w2_batch",
    "plateau",
]


def w2_batch(xs: np.ndarray, target: GaussianDist) -> np.ndarray:
    """Gaussian-fit W2 to ``target`` of every (R, d) block of ``xs``.

    ``xs`` has shape (..., R, d): R replica draws per block; the result
    has shape (...).  Needs R >= 2.  Each value equals the one-pair form
    (``tests/oracles.py``'s ``w2_gaussian``) of the block's fit (sample
    mean, symmetrized ddof=1 covariance) and ``target``, bit for bit: the
    blocks are made C-contiguous, and every matmul, ``eigh`` and reduction
    runs per block as the one-pair call runs it.  Non-finite
    fits raise ``ValueError``, as does a fitted covariance outside
    GaussianDist's PSD window; an inner product outside psd_sqrt's clip
    window raises ``NotPSDError``.

    A value whose square overflows, or whose block's fit overflows
    (finite draws whose spread squares past the float range), is scored
    again from its block and the target scaled by one power of two, 2^-e,
    which scales W2 by exactly 2^-e, and the result is scaled back; every
    other value keeps its bits.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    if xs.ndim < 2:
        raise ValueError(f"expected (..., R, d), got shape {xs.shape}")
    n, d = xs.shape[-2:]
    if n < 2:
        raise ValueError("need at least 2 replicas to fit moments")
    if d != target.dim:
        raise ValueError(f"dimension mismatch: {d} vs {target.dim}")
    w2 = _w2(xs, target.mean, target.cov)
    if not np.isfinite(w2).all():
        bad = ~np.isfinite(w2)
        e = np.frexp(max(np.abs(xs[bad]).max(), np.abs(target.mean).max(),
                         np.sqrt(np.abs(target.cov).max())))[1]
        w2[bad] = np.ldexp(_w2(np.ldexp(xs[bad], -e),
                               np.ldexp(target.mean, -e),
                               np.ldexp(target.cov, -2 * e)), e)
    return w2


def _w2(xs, mean_t, cov_t):
    """`w2_batch` of (..., R, d) blocks against N(mean_t, cov_t), without
    its input checks; inf or NaN where a square overflows, and inf where
    the fit of finite draws overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = xs.mean(axis=-2)
        centered = xs - mean[..., None, :]
        cov = centered.swapaxes(-1, -2) @ centered / (xs.shape[-2] - 1)
    over = (~np.isfinite(cov).all(axis=(-2, -1))
            & np.isfinite(xs).all(axis=(-2, -1)))
    cov = checked_cov(np.where(over[..., None, None], 0.0, cov))
    root = psd_sqrt(cov_t)
    cross = np.trace(psd_sqrt(root @ cov @ root), axis1=-2, axis2=-1)
    same = np.all(mean == mean_t, axis=-1) & np.all(cov == cov_t,
                                                    axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = (mean - mean_t)[..., None, :]
        w2sq = (diff @ diff.swapaxes(-1, -2))[..., 0, 0] + (
            np.trace(cov, axis1=-2, axis2=-1) + np.trace(cov_t)
        ) - 2.0 * cross
        return np.where(over, np.inf,
                        np.where(same, 0.0, np.sqrt(np.maximum(w2sq, 0.0))))


def plateau(values) -> float:
    """Mean of the final 10% of recorded values (at least one)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("plateau of an empty series")
    tail = max(1, int(np.floor(0.1 * values.size)))
    return float(values[-tail:].mean())
