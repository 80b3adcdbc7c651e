"""Eigensolve, PSD root, and block-mixing contracts.

sym_eig is LAPACK eigh behind the checks of symmetrized, so the randomized
checks test the contracts callers rely on (ascending values, accurate
reconstruction, orthonormal vectors) rather than the solver itself.
"""

import numpy as np
import pytest

from exlg.linalg import (
    NotPSDError,
    psd_sqrt,
    sym_eig,
    symmetrized,
)

from oracles import mix


def _ring_w(n, delta):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 1.0
        a[(i + 1) % n, i] = 1.0
    lap = np.diag(a.sum(axis=1)) - a
    return np.eye(n) - delta * lap


class TestSymmetrized:
    def test_symmetrizes(self):
        m = symmetrized(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.array_equal(m, m.T)
        assert m[0, 1] == 1.0
        assert not m.flags.writeable

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetrized(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            symmetrized(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSymEig:
    def test_identity(self):
        vals, _ = sym_eig(np.eye(3))
        assert np.allclose(vals, [1.0, 1.0, 1.0], atol=1e-12)

    def test_swap(self):
        vals, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)

    def test_star_laplacian(self):
        lap = np.array(
            [[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
        )
        vals, _ = sym_eig(lap)
        assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-10)

    def test_values_ascending(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8))
        vals, _ = sym_eig(a + a.T)
        assert np.all(np.diff(vals) >= 0.0)

    def test_nonconvergence_names_matrix(self):
        bad = np.full((3, 3), np.inf)
        # Non-finite input is refused before it reaches LAPACK.
        with pytest.raises(ValueError):
            sym_eig(bad)

    def test_random_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            n = int(rng.integers(2, 33))
            scale = 10.0 ** rng.uniform(-3, 3)
            a = rng.standard_normal((n, n)) * scale
            a = (a + a.T) / 2.0
            vals, vecs = sym_eig(a)
            amax = max(1.0, np.max(np.abs(a)))
            recon = (vecs * vals) @ vecs.T
            assert np.max(np.abs(recon - a)) <= 1e-10 * amax
            gram = vecs.T @ vecs
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
            # the values-only LAPACK routine gives the same spectrum
            oracle = np.linalg.eigvalsh(a)
            assert np.allclose(vals, oracle, atol=1e-9 * amax)

    def test_unpacks_as_eigh_pair(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 5, 5))
        stack = (a + a.swapaxes(1, 2)) / 2.0
        for m in (stack[0], stack):
            vals, vecs = sym_eig(m)
            want_vals, want_vecs = np.linalg.eigh(m)
            assert vals.shape == m.shape[:-1] and vecs.shape == m.shape
            assert np.array_equal(vals, want_vals)
            assert np.array_equal(vecs, want_vecs)


class TestPsdSqrt:
    def test_diagonal(self):
        s = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([2.0, 3.0]), atol=1e-12)

    def test_zero(self):
        s = psd_sqrt(np.zeros((3, 3)))
        assert np.array_equal(s, np.zeros((3, 3)))

    def test_ring_u_multiply_back(self):
        w = _ring_w(4, 0.25)
        u = 0.5 * (np.eye(4) - w)
        s = psd_sqrt(u)
        umax = max(1.0, np.max(np.abs(u)))
        assert np.max(np.abs(s @ s - u)) <= 1e-8 * umax

    def test_tiny_negative_clipped(self):
        a = np.diag([1.0, -1e-14])
        s = psd_sqrt(a)
        assert s[1, 1] == 0.0

    def test_genuine_negative_rejected(self):
        with pytest.raises(NotPSDError, match="-1"):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_random_gram_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            b = rng.standard_normal((n, n))
            a = b.T @ b
            s = psd_sqrt(a)
            amax = max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(s @ s - a)) <= 1e-8 * amax
            assert np.max(np.abs(s - s.T)) == 0.0


class TestMixing:
    def test_identity(self):
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(mix(np.eye(4), x), x)

    def test_averaging(self):
        x = np.arange(12.0).reshape(4, 3)
        j = np.full((4, 4), 0.25)
        out = mix(j, x)
        assert np.allclose(out, np.tile(x.mean(axis=0), (4, 1)), atol=1e-15)

    def test_block_example(self):
        m = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        x = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 7.0]])
        out = mix(m, x)
        assert np.allclose(out, [[2.0, 1.0], [2.0, 1.0], [5.0, 7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mix(np.eye(3), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            mix(np.eye(3), np.zeros((5, 4, 2)))
        with pytest.raises(ValueError, match=r"square, got shape \(3, 4\)"):
            mix(np.ones((3, 4)), np.zeros((4, 2)))

    def test_stack_equals_each_slice_exactly(self):
        rng = np.random.default_rng(4)
        for n, d, reps in ((6, 3, 4), (20, 2, 10), (5, 1, 3), (1, 4, 2)):
            m = rng.standard_normal((n, n))
            x = rng.standard_normal((reps, n, d))
            out = mix(m, x)
            for r in range(reps):
                assert np.array_equal(out[r], mix(m, x[r]))

    def test_kronecker_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 9))
            if n * d > 64:
                continue
            m = rng.standard_normal((n, n))
            x = rng.standard_normal((n, d))
            direct = mix(m, x)
            kron = (np.kron(m, np.eye(d)) @ x.reshape(-1)).reshape(n, d)
            assert np.max(np.abs(direct - kron)) <= 1e-12
