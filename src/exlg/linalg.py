"""Dense symmetric eigensolves, PSD square roots, and the mixing check.

Everything downstream (mixing matrices, Wasserstein distances, theory
constants) funnels through the operations here, kept deliberately small:
`sym_eig`, one LAPACK ``eigh`` call on the read-only (a + a^T)/2 that
`symmetrized` makes of a square, finite input, returning ``eigh``'s
``(values, vectors)`` pair; and `psd_sqrt`, an eigendecomposition-based
root with a fixed relative clip window.  Each takes one matrix or a
stack of them along leading axes; a stacked call gives every slice the
bits of the call on that slice alone.  `mixing_matrix` checks that an
(N, N) matrix contracts only over the agent axis of an (..., N, d)
block; the chains then mix with ``np.matmul``, one BLAS call per (N, d)
slice, identical to the call on that slice alone.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "symmetrized",
    "NotPSDError",
    "sym_eig",
    "psd_sqrt",
    "mixing_matrix",
]


# psd_sqrt clamps eigenvalues down to -_PSD_CLIP times the spectral norm
_PSD_CLIP = 1e-10


class NotPSDError(ValueError):
    """Matrix handed to psd_sqrt has an eigenvalue below the clip window."""


def symmetrized(a) -> np.ndarray:
    """(a + a^T)/2 over the last two axes of a square matrix or a
    (..., n, n) stack, so exactly symmetric, and read-only.

    Raises ``ValueError`` on non-square or non-finite input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    a = (a + a.swapaxes(-1, -2)) / 2.0
    a.setflags(write=False)
    return a


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Parameters
    ----------
    a : array_like
        Square symmetric matrix, or a (..., n, n) stack of them
        (symmetrized on entry by `symmetrized`).

    Returns
    -------
    (values, vectors)
        ``eigh``'s pair per matrix of the stack: eigenvalues ascending and
        orthonormal eigenvector columns, ``vectors[..., :, j]`` belonging
        to ``values[..., j]``.

    Raises
    ------
    ValueError
        If the input is not square or not finite, or if LAPACK fails to
        converge (``np.linalg.LinAlgError`` is a ``ValueError``).
    """
    return np.linalg.eigh(symmetrized(a))


def psd_sqrt(a) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    ``a`` is one matrix or a (..., n, n) stack; each matrix gets its own
    window, 1e-10 times its spectral norm.  Eigenvalues inside the window
    below zero are clamped to zero; anything below it raises
    ``NotPSDError`` reporting the offending eigenvalue.
    """
    vals, vecs = sym_eig(a)
    window = _PSD_CLIP * np.max(np.abs(vals), axis=-1)
    lo = vals[..., 0]
    bad = lo < -window
    if np.any(bad):
        raise NotPSDError(
            f"matrix is not PSD within the clip window: eigenvalue "
            f"{lo[bad][0]:.6e} < -{window[bad][0]:.6e}"
        )
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) \
        @ vecs.swapaxes(-1, -2)
    return (root + root.swapaxes(-1, -2)) / 2.0


def mixing_matrix(m, shape) -> np.ndarray:
    """``m`` as the float (N, N) matrix that mixes a block of ``shape``
    (..., N, d) by ``np.matmul``; ``ValueError`` when it does not fit."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {m.shape}")
    if len(shape) < 2 or shape[-2] != m.shape[0]:
        raise ValueError(f"state block shape {tuple(shape)} incompatible "
                         f"with {m.shape[0]} agents")
    return m

