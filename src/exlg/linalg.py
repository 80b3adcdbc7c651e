"""Dense symmetric eigensolves, PSD square roots, and block mixing.

Everything downstream (mixing matrices, Wasserstein distances, theory
constants) funnels through the three operations here, so they are kept
deliberately small: a validated symmetric eigensolve (one LAPACK ``eigh``
call behind the symmetric-input checks of ``SymMatrix``), an
eigendecomposition-based PSD root with explicit clipping policy, and a
block-apply that contracts only over the agent axis.  Each takes one
matrix or block, or a stack of them along leading axes; a stacked call
gives every slice the bits of the call on that slice alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "SymMatrix",
    "Spectrum",
    "NotPSDError",
    "sym_eig",
    "psd_sqrt",
    "mix_apply",
]


class NotPSDError(ValueError):
    """Matrix handed to psd_sqrt has an eigenvalue below the clip window."""


@dataclasses.dataclass(frozen=True)
class SymMatrix:
    """A validated square symmetric matrix, or a stack (..., n, n) of them.

    The constructor symmetrizes via (a + a^T)/2 over the last two axes, so
    ``entries`` is exactly symmetric; non-square or non-finite input is
    rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a = (a + a.swapaxes(-1, -2)) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[-1]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return np.asarray(self.entries, dtype=dtype)
        return self.entries


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and matching orthonormal eigenvectors.

    ``vectors[..., :, j]`` belongs to ``values[..., j]``; reconstruction and
    orthonormality hold to 1e-10 relative (see tests).
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_sym(a) -> np.ndarray:
    if isinstance(a, SymMatrix):
        return a.entries
    return SymMatrix(np.asarray(a, dtype=float)).entries


def sym_eig(a) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Parameters
    ----------
    a : array_like or SymMatrix
        Square symmetric matrix, or a (..., n, n) stack of them
        (symmetrized on entry if handed raw).

    Returns
    -------
    Spectrum
        Eigenvalues sorted ascending with matching orthonormal eigenvector
        columns, per matrix of the stack.

    Raises
    ------
    ValueError
        If the input is not square or not finite, or if LAPACK fails to
        converge (``np.linalg.LinAlgError`` is a ``ValueError``).
    """
    values, vectors = np.linalg.eigh(_as_sym(a))
    return Spectrum(values=values, vectors=vectors)


def psd_sqrt(a, clip_tol: float | None = None) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    ``a`` is one matrix or a (..., n, n) stack; each matrix gets its own
    window.  Eigenvalues in [-clip_tol, 0) are clamped to zero; anything
    below -clip_tol raises ``NotPSDError`` reporting the offending
    eigenvalue.  ``clip_tol`` defaults to 1e-10 times the spectral norm of
    the matrix.
    """
    spec = sym_eig(a)
    vals = spec.values
    if clip_tol is None:
        clip_tol = 1e-10 * np.max(np.abs(vals), axis=-1)
    clip_tol = np.broadcast_to(clip_tol, vals.shape[:-1])
    lo = vals[..., 0]
    bad = lo < -clip_tol
    if np.any(bad):
        raise NotPSDError(
            f"matrix is not PSD within the clip window: eigenvalue "
            f"{lo[bad][0]:.6e} < -{clip_tol[bad][0]:.6e}"
        )
    vecs = spec.vectors
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) \
        @ vecs.swapaxes(-1, -2)
    return (root + root.swapaxes(-1, -2)) / 2.0


def mix_apply(m, x: np.ndarray) -> np.ndarray:
    """Apply an (N, N) mixing matrix across the agent axis of an (..., N, d)
    block.

    Row i of the result is sum_j m[i, j] * x[..., j, :]; equivalent to
    (m kron I_d) acting on the stacked vector, without ever forming the
    Kronecker product.  A stacked block is one ``np.matmul``: one BLAS
    call per (N, d) slice, identical to the call on that slice alone.
    """
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {m.shape}")
    if x.ndim < 2 or x.shape[-2] != m.shape[0]:
        raise ValueError(
            f"state block shape {x.shape} incompatible with "
            f"{m.shape[0]} agents"
        )
    return np.matmul(m, x)
