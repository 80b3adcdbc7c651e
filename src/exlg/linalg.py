"""Dense symmetric eigensolves, PSD square roots, and block mixing.

Everything downstream (mixing matrices, Wasserstein distances, theory
constants) funnels through the three operations here, so they are kept
deliberately small: a validated symmetric eigensolve (one LAPACK ``eigh``
call behind the symmetric-input checks of ``SymMatrix``), an
eigendecomposition-based PSD root with explicit clipping policy, and a
block-apply that contracts only over the agent axis, of one block or of
a stack of them.
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
    """A validated square symmetric matrix.

    The constructor symmetrizes via (a + a.T)/2, so ``entries`` is exactly
    symmetric; non-square or non-finite input is rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return np.asarray(self.entries, dtype=dtype)
        return self.entries


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and matching orthonormal eigenvectors.

    ``vectors[:, j]`` belongs to ``values[j]``; reconstruction and
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
        Square symmetric matrix (symmetrized on entry if handed raw).

    Returns
    -------
    Spectrum
        Eigenvalues sorted ascending with matching orthonormal eigenvector
        columns.

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

    Eigenvalues in [-clip_tol, 0) are clamped to zero; anything below
    -clip_tol raises ``NotPSDError`` reporting the offending eigenvalue.
    ``clip_tol`` defaults to 1e-10 times the spectral norm of ``a``.
    """
    spec = sym_eig(a)
    vals = spec.values
    snorm = float(np.max(np.abs(vals))) if vals.size else 0.0
    if clip_tol is None:
        clip_tol = 1e-10 * snorm
    lo = float(vals[0])
    if lo < -clip_tol:
        raise NotPSDError(
            f"matrix is not PSD within the clip window: eigenvalue {lo:.6e} "
            f"< -{clip_tol:.6e}"
        )
    clipped = np.clip(vals, 0.0, None)
    root = (spec.vectors * np.sqrt(clipped)) @ spec.vectors.T
    return (root + root.T) / 2.0


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
