"""Metric contracts: closed-form W2 cases, moment fits, consensus, accuracy.

Oracles: hand-derived 1-d W2 values, the commuting-covariance closed form,
and the mean-shift lower bound.
"""

import numpy as np
import pytest

from exlg.linalg import NotPSDError
from exlg.metrics import plateau, w2_batch
from exlg.tasks import GaussianDist
from oracles import accuracy, consensus_error, estimate_moments, w2_gaussian


def _rand_gaussian(rng, d, scale=1.0):
    m = rng.standard_normal(d)
    b = rng.standard_normal((d, d)) * scale
    return GaussianDist(m, b @ b.T + 0.1 * np.eye(d))


class TestMoments:
    def test_identical_samples_zero_cov(self):
        s = np.tile([1.0, -2.0], (5, 1))
        est = estimate_moments(s)
        assert np.array_equal(est.mean, [1.0, -2.0])
        assert np.array_equal(est.cov, np.zeros((2, 2)))

    def test_two_point_example(self):
        est = estimate_moments(np.array([[0.0], [2.0]]))
        assert est.mean[0] == 1.0
        assert est.cov[0, 0] == 2.0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            estimate_moments(np.array([[1.0, 2.0]]))

    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((40, 3))
        est = estimate_moments(s)
        assert np.allclose(est.cov, np.cov(s.T, ddof=1), atol=1e-12)


class TestW2Gaussian:
    def test_identical_zero(self):
        g = _rand_gaussian(np.random.default_rng(1), 3)
        assert w2_gaussian(g, g) == 0.0

    def test_unit_mean_shift(self):
        a = GaussianDist(np.zeros(1), np.eye(1))
        b = GaussianDist(np.ones(1), np.eye(1))
        assert abs(w2_gaussian(a, b) - 1.0) <= 1e-10

    def test_one_d_sigma_difference(self):
        for s1, s2 in [(1.0, 3.0), (0.4, 0.1), (2.0, 2.0)]:
            a = GaussianDist(np.zeros(1), np.array([[s1**2]]))
            b = GaussianDist(np.zeros(1), np.array([[s2**2]]))
            assert abs(w2_gaussian(a, b) - abs(s1 - s2)) <= 1e-10

    def test_symmetry_500_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            d = int(rng.integers(1, 5))
            a = _rand_gaussian(rng, d, scale=10.0 ** rng.uniform(-2, 1))
            b = _rand_gaussian(rng, d, scale=10.0 ** rng.uniform(-2, 1))
            ab = w2_gaussian(a, b)
            ba = w2_gaussian(b, a)
            assert abs(ab - ba) <= 1e-8 * (1.0 + ab)

    def test_commuting_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            la = rng.uniform(0.1, 4.0, size=d)
            lb = rng.uniform(0.1, 4.0, size=d)
            ma = rng.standard_normal(d)
            mb = rng.standard_normal(d)
            a = GaussianDist(ma, (q * la) @ q.T)
            b = GaussianDist(mb, (q * lb) @ q.T)
            expect = np.sqrt(
                float((ma - mb) @ (ma - mb))
                + float(np.sum((np.sqrt(la) - np.sqrt(lb)) ** 2))
            )
            assert abs(w2_gaussian(a, b) - expect) <= 1e-8 * (1.0 + expect)

    def test_mean_shift_lower_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            a = _rand_gaussian(rng, d)
            b = _rand_gaussian(rng, d)
            shift = float(np.linalg.norm(a.mean - b.mean))
            assert w2_gaussian(a, b) >= shift - 1e-10

    def test_coordinate_permutation_invariance(self):
        rng = np.random.default_rng(5)
        a = _rand_gaussian(rng, 4)
        b = _rand_gaussian(rng, 4)
        perm = np.array([2, 0, 3, 1])
        ap = GaussianDist(a.mean[perm], a.cov[np.ix_(perm, perm)])
        bp = GaussianDist(b.mean[perm], b.cov[np.ix_(perm, perm)])
        assert abs(w2_gaussian(ap, bp) - w2_gaussian(a, b)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            w2_gaussian(
                GaussianDist(np.zeros(1), np.eye(1)),
                GaussianDist(np.zeros(2), np.eye(2)),
            )


class TestW2Series:
    """A W2 series over recorded iterates: ``w2_batch`` of an
    (n_rec, R, d) stack."""

    def test_self_fit_is_zero(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((200, 2))
        est = estimate_moments(samples).as_gaussian()
        assert w2_batch(samples[None, :, :], est)[0] <= 1e-10

    def test_iid_from_target_floor(self):
        # 200 i.i.d. draws from the target: the fitted W2 is sampling
        # noise of order sqrt(d / 200).
        rng = np.random.default_rng(7)
        d, reps = 2, 200
        target = GaussianDist(np.zeros(d), np.eye(d))
        draws = rng.standard_normal((5, reps, d))
        assert np.all(w2_batch(draws, target) <= 3.0 * np.sqrt(d / reps))

    def test_needs_replicas(self):
        target = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            w2_batch(np.zeros((3, 1, 2)), target)

    def test_equals_per_record_w2_gaussian_exactly(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3))
        target = GaussianDist(rng.standard_normal(3), a @ a.T + np.eye(3))
        draws = rng.standard_normal((6, 40, 3))
        draws[2] = draws[2][:1]  # identical rows: a zero covariance fit
        each = [w2_gaussian(estimate_moments(b).as_gaussian(), target)
                for b in draws]
        assert np.array_equal(w2_batch(draws, target), each)


def _per_record(xs, target):
    """The single-record oracle over the leading axes of xs."""
    lead = xs.shape[:-2]
    return np.array([
        w2_gaussian(estimate_moments(xs[i]).as_gaussian(), target)
        for i in np.ndindex(lead)]).reshape(lead)


class TestW2Batch:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_equals_per_record_exactly(self, d):
        rng = np.random.default_rng(20 + d)
        xs = rng.standard_normal((3, 4, 6, d)) * [1.0, 2.0, 0.5][:d]
        xs[0, 1] = xs[0, 1][:1]  # identical rows: a zero covariance fit
        target = estimate_moments(xs[2, 3]).as_gaussian()
        got = w2_batch(xs, target)
        assert got.shape == (3, 4)
        assert np.array_equal(got, _per_record(xs, target))
        assert got[2, 3] == 0.0  # the fit equals the target
        assert got[0, 1] > 0.0

    def test_strided_input_equals_per_record(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((2, 2))
        target = GaussianDist(rng.standard_normal(2), a @ a.T + np.eye(2))
        xs = np.moveaxis(rng.standard_normal((5, 10, 4, 2)), 2, 0)
        assert not xs.flags.c_contiguous
        assert np.array_equal(w2_batch(xs, target), _per_record(xs, target))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draws_raise(self, bad):
        xs = np.random.default_rng(25).standard_normal((4, 5, 2))
        xs[2, 3, 1] = bad
        target = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            w2_batch(xs, target)
        with pytest.raises(ValueError, match="finite"):
            w2_gaussian(estimate_moments(xs[2]).as_gaussian(), target)

    def test_inner_product_outside_clip_window_raises(self):
        # a target with condition number 1e20 and a rank-one fit along its
        # thin axis: roundoff puts root @ cov @ root far off the PSD cone
        q = np.array([[np.cos(0.3), -np.sin(0.3)],
                      [np.sin(0.3), np.cos(0.3)]])
        target = GaussianDist(np.zeros(2), q @ np.diag([1e10, 1e-10]) @ q.T)
        draws = np.random.default_rng(0).standard_normal((5, 1)) \
            * q[:, 1] * 1e-3
        with pytest.raises(NotPSDError, match="eigenvalue -"):
            w2_gaussian(estimate_moments(draws).as_gaussian(), target)
        with pytest.raises(NotPSDError, match="eigenvalue -"):
            w2_batch(np.stack([np.ones((5, 2)), draws]), target)

    @pytest.mark.filterwarnings("error")
    def test_a_value_whose_square_overflows_is_rescaled(self):
        # block 1 sits 2^700 from the target (its draws round to exactly
        # 2^700): its W2 is finite though its square is not, and the other
        # blocks keep their bits
        rng = np.random.default_rng(26)
        target = GaussianDist([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        xs = rng.standard_normal((3, 8, 2))
        xs[1] += 2.0 ** 700
        got = w2_batch(xs, target)
        assert np.array_equal(got[[0, 2]], w2_batch(xs[[0, 2]], target))
        s = 2.0 ** -700  # the distance of the scaled inputs, scaled back
        scaled = w2_gaussian(estimate_moments(xs[1] * s).as_gaussian(),
                             GaussianDist(target.mean * s,
                                          target.cov * s * s))
        assert got[1] == pytest.approx(scaled / s, rel=1e-12, abs=0)

    @pytest.mark.filterwarnings("error")
    def test_a_fit_whose_covariance_overflows_is_rescaled(self):
        # block 1's draws all round to 1e200, but their mean is one ulp
        # (1.7e184) below it, so the fitted covariance, about 3e368,
        # overflows; its W2 is the mean's distance to the target, which
        # is finite, and the other blocks keep their bits
        rng = np.random.default_rng(0)
        target = GaussianDist(np.zeros(2), np.eye(2))
        xs = rng.standard_normal((3, 8, 2))
        xs[1] = rng.standard_normal((8, 2)) + 1e200
        mean = xs[1].mean(axis=0)
        assert np.all(mean == np.nextafter(1e200, 0))
        got = w2_batch(xs, target)
        assert np.array_equal(got[[0, 2]], w2_batch(xs[[0, 2]], target))
        assert got[1] == pytest.approx(np.hypot(*mean), rel=1e-15, abs=0)

    def test_needs_replicas_and_matching_dim(self):
        target = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="2 replicas"):
            w2_batch(np.zeros((3, 1, 2)), target)
        with pytest.raises(ValueError, match="dimension mismatch"):
            w2_batch(np.zeros((3, 4, 3)), target)
        with pytest.raises(ValueError, match=r"expected \(\.\.\., R, d\), "
                                             r"got shape \(3,\)"):
            w2_batch(np.zeros(3), target)


class TestConsensusError:
    def test_two_agent_example(self):
        assert consensus_error(np.array([[0.0], [2.0]])) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    def test_translation_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 3))
        shift = rng.standard_normal(3)
        assert consensus_error(x) == pytest.approx(
            consensus_error(x + shift), abs=1e-10
        )

    def test_consensus_is_zero(self):
        x = np.tile([1.0, 2.0, 3.0], (6, 1))
        assert consensus_error(x) == 0.0


class TestAccuracy:
    def test_perfect_and_tie(self):
        x = np.array([[1.0], [-1.0], [0.0]])
        y = np.array([1.0, 0.0, 1.0])
        # beta = 1: scores 1, -1, 0 -> predictions 1, 0, 1 (tie -> 1)
        assert accuracy(np.array([1.0]), x, y) == 1.0

    def test_half(self):
        x = np.array([[1.0], [1.0]])
        y = np.array([1.0, 0.0])
        assert accuracy(np.array([1.0]), x, y) == 0.5


class TestPlateau:
    def test_final_tenth(self):
        vals = np.arange(41, dtype=float)
        # floor(4.1) = 4 trailing values: 37, 38, 39, 40
        assert plateau(vals) == pytest.approx(38.5)

    def test_short_series_uses_last(self):
        assert plateau([3.0, 7.0]) == 7.0

    def test_series_type_checks(self):
        with pytest.raises(ValueError):
            plateau([])
