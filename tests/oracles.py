"""Per-record reference definitions that the library computes as array
expressions, kept here as the oracles tests compare it against.

``series_for_run`` scores a (records, replicas, agents, dim) ensemble
one chunk of records at a time into a {label: values} map; each of its
values must equal these functions on one record, and every value of
``metrics.w2_batch`` must equal ``w2_gaussian`` of its block's fit.
``run_ensemble`` advances every replica with one step-table entry; each
transition must equal the ``step_*`` function of its chain on one
replica.  A chain records x alone; `GuardSpy` sees every iterate of x
and v where the divergence guard sees it.  ``RawMixing`` drives a
sampler with hand-built matrices.
``mix`` is the chains' mixing product and ``gaussian_block`` one block
of a `NoiseStream`, drawn alone.
"""

import dataclasses

import numpy as np

from exlg import samplers
from exlg.linalg import mixing_matrix, psd_sqrt
from exlg.tasks import GaussianDist


@dataclasses.dataclass(frozen=True)
class MomentEstimate:
    """Sample mean and covariance (ddof=1) of an (n, d) batch."""

    mean: np.ndarray
    cov: np.ndarray
    n_samples: int

    def as_gaussian(self) -> GaussianDist:
        return GaussianDist(self.mean, self.cov)


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
    """W2 between two Gaussians, by the closed form of ``exlg.metrics``
    with the inner product re-symmetrized, one pair at a time."""
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


@dataclasses.dataclass(frozen=True)
class RawMixing:
    """Bare mixing triple for driving samplers outside the Topology path
    (single-agent reductions, hand-built matrices)."""

    w: np.ndarray
    w_tilde: np.ndarray
    u: np.ndarray

    @property
    def n(self) -> int:
        return np.asarray(self.w).shape[0]


class GuardSpy:
    """Stands in for ``samplers._guard`` (through ``monkeypatch``) and
    keeps a copy of each chunk's ``(k0, xs, vs)`` before the guard judges
    it: a run writes its next chunk into the same buffers."""

    def __init__(self, monkeypatch):
        self.chunks = []
        guard = samplers._guard

        def spy(algo, k0, xs, vs=None):
            self.chunks.append(
                (k0, xs.copy(), None if vs is None else vs.copy()))
            return guard(algo, k0, xs, vs)
        monkeypatch.setattr(samplers, "_guard", spy)

    @property
    def lengths(self):
        """The steps of every chunk checked so far."""
        return [len(xs) for _, xs, _ in self.chunks]

    def iterates(self, shape):
        """(x, v) at iterates 0, 1, ... of the chunks checked so far, each
        (K + 1, *shape) from the zero start of (R, rows, d) ``shape``; v is
        None when a chunk had none (every chain but the generalized)."""
        assert [k0 for k0, _, _ in self.chunks] == [
            1 + sum(self.lengths[:i]) for i in range(len(self.chunks))]
        start = np.zeros((1, *shape))
        x = np.concatenate([start] + [xs for _, xs, _ in self.chunks])
        if any(vs is None for _, _, vs in self.chunks):
            return x, None
        return x, np.concatenate([start] + [vs for _, _, vs in self.chunks])


def mix(m, x):
    """An (N, N) mixing matrix applied across the agent axis of an
    (..., N, d) block, as the chains apply it."""
    return np.matmul(mixing_matrix(m, x.shape), x)


def gaussian_block(stream, k):
    """A stream's (N, d) block for iterate k, drawn on its own."""
    return stream.gaussian_blocks(k, np.empty((1, stream.n_agents,
                                               stream.dim)))[0]


def step_ula(x, grad_sum, eta, noise, temperature=1.0):
    return x - eta * grad_sum + temperature * np.sqrt(2.0 * eta) * noise


def step_de_sgld(x, grads, w, eta, noise, temperature=1.0):
    return (
        mix(w, x) - eta * grads + temperature * np.sqrt(2.0 * eta) * noise
    )


def step_gen_extra(x, v, grads, bx, w_tilde, u, eta, noise, temperature=1.0):
    """One generalized-EXTRA transition; returns (x+, v+).

    ``grads``, ``bx``, and ``noise`` are the shared per-iterate blocks;
    both halves consume the same arrays.
    """
    x_next = (
        mix(w_tilde, x)
        - eta * (grads + v)
        + temperature * np.sqrt(2.0 * eta) * noise
    )
    v_next = (
        v
        - mix(u, v + grads - bx)
        + temperature * np.sqrt(2.0 / eta) * mix(u, noise)
    )
    return x_next, v_next


def step_extra_two(
    x_curr, x_prev, grads_curr, grads_prev, w, w_tilde, eta, noise_diff,
    temperature=1.0,
):
    """The k >= 1 transition of the two-step form.

    ``noise_diff`` is w^{k+1} - w^k (drawn by the caller so the same blocks
    can be shared with other chains).
    """
    return (
        x_curr
        + mix(w, x_curr)
        - mix(w_tilde, x_prev)
        - eta * (grads_curr - grads_prev)
        + temperature * np.sqrt(2.0 * eta) * noise_diff
    )


def step_reference_chain(x, grad_sum, n_agents, eta, noise_mean,
                         temperature=1.0):
    return (
        x
        - (eta / n_agents) * grad_sum
        + temperature * np.sqrt(2.0 * eta) * noise_mean
    )
