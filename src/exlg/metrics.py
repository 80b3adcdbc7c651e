"""Moment fits, Gaussian 2-Wasserstein distance, consensus, accuracy.

W2 between Gaussians uses the closed form

    W2^2 = ||m_a - m_b||^2 + tr(S_a + S_b - 2 (S_b^{1/2} S_a S_b^{1/2})^{1/2})

with the inner product re-symmetrized before the second root so roundoff
cannot push it off the PSD cone.  Sampler output is scored by fitting a
Gaussian across replicas at each recorded iterate and comparing with the
target posterior.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linalg import psd_sqrt
from .tasks import GaussianDist

__all__ = [
    "MomentEstimate",
    "MetricSeries",
    "estimate_moments",
    "w2_gaussian",
    "w2_series",
    "consensus_error",
    "accuracy",
    "plateau",
]


@dataclasses.dataclass(frozen=True)
class MomentEstimate:
    """Sample mean and covariance (ddof=1) of an (n, d) batch."""

    mean: np.ndarray
    cov: np.ndarray
    n_samples: int

    def as_gaussian(self) -> GaussianDist:
        return GaussianDist(self.mean, self.cov)


@dataclasses.dataclass(frozen=True)
class MetricSeries:
    """A named scalar series over recorded iterates."""

    ks: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        if len(self.ks) != len(self.values):
            raise ValueError("ks and values lengths differ")


def estimate_moments(samples: np.ndarray) -> MomentEstimate:
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples for a covariance, got {n}")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    return MomentEstimate(mean=mean, cov=cov, n_samples=n)


def w2_gaussian(a: GaussianDist, b: GaussianDist) -> float:
    return _w2_gaussian(a, b, None)


def _w2_gaussian(a: GaussianDist, b: GaussianDist, root_b) -> float:
    """W2 between a and b; ``root_b`` is psd_sqrt(b.cov), or None to
    compute it here."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov):
        # Equal distributions have distance exactly 0; the trace formula
        # below would return a sqrt-of-roundoff floor (~1e-7) instead.
        return 0.0
    diff = a.mean - b.mean
    if root_b is None:
        root_b = psd_sqrt(b.cov)
    inner = root_b @ a.cov @ root_b
    inner = (inner + inner.T) / 2.0
    cross = float(np.trace(psd_sqrt(inner)))
    w2sq = float(diff @ diff) + float(
        np.trace(a.cov) + np.trace(b.cov)
    ) - 2.0 * cross
    return float(np.sqrt(max(w2sq, 0.0)))


def w2_series(
    xs_by_k: np.ndarray, ks, target: GaussianDist, label: str
) -> MetricSeries:
    """Gaussian-fit W2 to ``target`` at each recorded iterate.

    ``xs_by_k`` has shape (n_rec, R, d): R replica draws of one series
    (an agent's iterate, or the agent average) per recorded k.  Needs
    R >= 2 for the covariance fit.  The target's covariance root is
    computed once; each value equals ``w2_gaussian`` on that record.
    """
    xs_by_k = np.asarray(xs_by_k, dtype=float)
    if xs_by_k.ndim != 3:
        raise ValueError(
            f"expected (n_rec, R, d), got shape {xs_by_k.shape}"
        )
    if xs_by_k.shape[1] < 2:
        raise ValueError("need at least 2 replicas to fit moments")
    root = psd_sqrt(target.cov)
    vals = np.array(
        [
            _w2_gaussian(estimate_moments(block).as_gaussian(), target, root)
            for block in xs_by_k
        ]
    )
    return MetricSeries(
        ks=np.asarray(ks, dtype=int), values=vals, label=label
    )


def consensus_error(x_block: np.ndarray) -> float:
    """sqrt(sum_i ||x_i - x-bar||^2) of one (N, d) ensemble block."""
    x_block = np.atleast_2d(np.asarray(x_block, dtype=float))
    centered = x_block - x_block.mean(axis=0)
    return float(np.sqrt(np.sum(centered * centered)))


def accuracy(beta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of points with 1{sigma(beta^T X) >= 1/2} == y.

    The decision rule is beta^T X >= 0, so a tie predicts label 1.
    """
    beta = np.asarray(beta, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    pred = (x @ beta >= 0.0).astype(float)
    return float(np.mean(pred == y))


def plateau(values) -> float:
    """Mean of the final 10% of recorded values (at least one)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("plateau of an empty series")
    tail = max(1, int(np.floor(0.1 * values.size)))
    return float(values[-tail:].mean())
