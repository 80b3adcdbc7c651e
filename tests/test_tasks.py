"""Task-layer contracts: generators, gradients, posteriors, partitioning.

Gradient correctness is checked against central finite differences; the
minibatch estimator against exhaustive subset enumeration and Monte Carlo
means.  No expected value here is copied from the implementation.
"""

import itertools
import logging

import numpy as np
import pytest
from scipy.special import expit

from exlg.tasks import (
    LOSS_MATCHED_NOISE_STD,
    GaussianDist,
    GradientOracle,
    LinRegTask,
    LogRegTask,
    checked_cov,
    estimate_grad_noise,
    gen_linreg_data,
    gen_logreg_data,
    linreg_posterior,
    load_csv_dataset,
    minibatch_grad,
    mu_L_bounds,
    partition_data,
)


def _fd_grad(f, x, eps=1e-5):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = eps
        g[j] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return g


def _linreg_f(task, i, beta):
    x, y = task.xs[i], task.ys[i]
    resid = y - x @ beta
    return float(resid @ resid) + float(beta @ beta) / (
        2.0 * task.prior_var * task.n_agents
    )


def _logreg_f(task, i, beta):
    s = task.signed(i)
    val = float(np.sum(np.logaddexp(0.0, -(s @ beta)))) if s.size else 0.0
    return val + float(beta @ beta) / (2.0 * task.n_agents * task.prior_var)


def _toy_linreg(seed=0, n_agents=4, n_i=6, d=3, prior_var=10.0):
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(d)
    x, y = gen_linreg_data(n_agents * n_i, beta, 1.0, rng)
    shards = partition_data(x, y, n_agents, rng)
    return LinRegTask(
        xs=tuple(s[0] for s in shards),
        ys=tuple(s[1] for s in shards),
        prior_var=prior_var,
    )


def _toy_logreg(seed=0, n_agents=3, n_i=8, d=3, prior_var=10.0):
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(d)
    x, y = gen_logreg_data(n_agents * n_i, beta, rng)
    shards = partition_data(x, y, n_agents, rng)
    return LogRegTask(
        xs=tuple(s[0] for s in shards),
        ys=tuple(s[1] for s in shards),
        prior_var=prior_var,
    )


class TestGaussianDist:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            GaussianDist(np.zeros(2), np.eye(3))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            GaussianDist(np.zeros(2), np.diag([1.0, -1.0]))

    def test_stacked_check_uses_each_matrix_window(self):
        # the window is -1e-10 * max(1, max|c|) of each matrix: -1e-9 is
        # inside it next to an entry of 100, outside it next to 1
        ok = checked_cov(np.stack([np.eye(2), np.diag([100.0, -1e-9])]))
        assert ok.shape == (2, 2, 2) and not ok.flags.writeable
        with pytest.raises(ValueError, match="min eigenvalue -1.000e-09"):
            checked_cov(np.stack([np.diag([100.0, 0.0]),
                                  np.diag([1.0, -1e-9])]))
        with pytest.raises(ValueError, match="finite"):
            checked_cov(np.stack([np.eye(2), np.full((2, 2), np.nan)]))

    def test_oracle_protocol(self):
        assert isinstance(_toy_linreg(), GradientOracle)
        assert isinstance(_toy_logreg(), GradientOracle)


class TestGenerators:
    def test_linreg_moments(self):
        rng = np.random.default_rng(5)
        beta = np.array([1.0, -2.0])
        x, y = gen_linreg_data(200_000, beta, 0.7, rng)
        assert abs(x.var() - 1.0) < 0.03
        resid = y - x @ beta
        assert abs(resid.var() - 0.49) < 0.03 * 0.49

    def test_logreg_null_rate(self):
        rng = np.random.default_rng(6)
        _, y = gen_logreg_data(10_000, np.zeros(3), rng)
        assert abs(y.mean() - 0.5) < 0.02

    def test_logreg_rate_tracks_sigmoid(self):
        rng = np.random.default_rng(7)
        beta = np.array([0.3, -0.1, 0.2])
        x, y = gen_logreg_data(50_000, beta, rng)
        expect = expit(x @ beta).mean()
        assert abs(y.mean() - expect) < 0.01

    def test_feature_variance(self):
        rng = np.random.default_rng(8)
        x, _ = gen_logreg_data(100_000, np.zeros(2), rng, feature_var=20.0)
        assert abs(x.var() - 20.0) < 0.5


class TestLinregPosterior:
    def test_empty_is_prior(self):
        post = linreg_posterior(np.zeros((0, 2)), np.zeros(0), 7.0, 1.0)
        assert np.array_equal(post.mean, np.zeros(2))
        assert np.allclose(post.cov, 7.0 * np.eye(2))

    def test_single_point_flat_prior(self):
        post = linreg_posterior(
            np.array([[1.0]]), np.array([2.0]), 1e8, 1.0
        )
        assert abs(post.mean[0] - 2.0) < 1e-6
        assert abs(post.cov[0, 0] - 1.0) < 1e-6

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        xi, lam = 0.8, 3.0
        post = linreg_posterior(x, y, lam, xi)
        prec = x.T @ x / xi**2 + np.eye(2) / lam
        m = np.linalg.solve(prec, x.T @ y / xi**2)
        assert np.allclose(post.mean, m, atol=1e-12)
        assert np.allclose(post.cov @ prec, np.eye(2), atol=1e-12)


class TestGradients:
    def test_linreg_fd(self):
        task = _toy_linreg()
        rng = np.random.default_rng(1)
        for _ in range(20):
            beta = rng.standard_normal(task.dim)
            i = int(rng.integers(task.n_agents))
            g = task.full_grad(i, beta)
            fd = _fd_grad(lambda b: _linreg_f(task, i, b), beta)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
            assert rel <= 1e-5

    def test_logreg_fd(self):
        task = _toy_logreg()
        rng = np.random.default_rng(2)
        for _ in range(20):
            beta = 0.5 * rng.standard_normal(task.dim)
            i = int(rng.integers(task.n_agents))
            g = task.full_grad(i, beta)
            fd = _fd_grad(lambda b: _logreg_f(task, i, b), beta)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
            assert rel <= 1e-5

    def test_logreg_zero_beta_single_datum(self):
        x = np.array([[2.0, -1.0, 0.5]])
        task = LogRegTask(xs=(x,), ys=(np.array([1.0]),), prior_var=10.0)
        g = task.full_grad(0, np.zeros(3))
        assert np.allclose(g, -x[0] / 2.0, atol=1e-14)

    def test_logreg_prior_only(self):
        task = LogRegTask(
            xs=(np.zeros((0, 2)), np.zeros((0, 2))),
            ys=(np.zeros(0), np.zeros(0)),
            prior_var=5.0,
        )
        beta = np.array([1.0, -2.0])
        assert np.allclose(task.full_grad(0, beta), beta / 10.0, atol=1e-15)

    def test_linreg_stationarity_at_target_mean(self):
        task = _toy_linreg(seed=12)
        m = task.target().mean
        total = sum(task.full_grad(i, m) for i in range(task.n_agents))
        assert np.linalg.norm(total) <= 1e-6 * (1.0 + np.linalg.norm(m))

    def test_target_is_loss_matched_posterior(self):
        task = _toy_linreg(seed=13)
        x, y = task.stacked_design()
        post = linreg_posterior(
            x, y, task.prior_var, noise_std=LOSS_MATCHED_NOISE_STD
        )
        assert np.allclose(task.target().mean, post.mean, atol=1e-12)
        assert np.allclose(task.minimizer(), post.mean, atol=1e-10)


class TestMinibatch:
    def test_full_batch_is_exact(self):
        task = _toy_linreg()
        rng = np.random.default_rng(3)
        beta = rng.standard_normal(task.dim)
        n_i = task.xs[0].shape[0]
        g = minibatch_grad(task, 0, beta, n_i, rng)
        assert np.allclose(g, task.full_grad(0, beta), atol=1e-12)

    def test_exhaustive_enumeration(self):
        # 4-point shard, batch 2: averaging all C(4,2) subsets must give
        # the full gradient exactly.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        task = LinRegTask(xs=(x,), ys=(y,), prior_var=2.0)
        beta = rng.standard_normal(2)
        acc = np.zeros(2)
        count = 0
        for idx in itertools.combinations(range(4), 2):
            sub = np.array(idx)
            g = 2.0 * (x[sub].T @ (x[sub] @ beta - y[sub])) * (4 / 2)
            acc += g + task._prior_grad(beta)
            count += 1
        mean_subset = acc / count
        assert np.allclose(mean_subset, task.full_grad(0, beta), atol=1e-12)

    def test_unbiased_monte_carlo(self):
        task = _toy_logreg(seed=21, n_i=12)
        rng = np.random.default_rng(22)
        beta = 0.3 * rng.standard_normal(task.dim)
        full = task.full_grad(0, beta)
        draws = np.array(
            [minibatch_grad(task, 0, beta, 4, rng) for _ in range(10_000)]
        )
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - full) <= 3.0 * se + 1e-12)

    def test_batch_bounds(self):
        task = _toy_linreg()
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            minibatch_grad(task, 0, np.zeros(task.dim), 0, rng)
        with pytest.raises(ValueError):
            minibatch_grad(
                task, 0, np.zeros(task.dim), task.xs[0].shape[0] + 1, rng
            )

    def test_noise_power_estimate_positive(self):
        task = _toy_linreg(seed=30)
        rng = np.random.default_rng(31)
        s2 = estimate_grad_noise(task, task.minimizer(), 2, 200, rng)
        assert s2 > 0.0
        full_b = task.xs[0].shape[0]
        s2_full = estimate_grad_noise(task, task.minimizer(), full_b, 5, rng)
        assert s2_full <= 1e-20


class TestMuL:
    def test_prior_only(self):
        task = LinRegTask(
            xs=(np.zeros((0, 2)),) * 4,
            ys=(np.zeros(0),) * 4,
            prior_var=10.0,
        )
        mu, L = mu_L_bounds(task)
        assert mu == pytest.approx(1.0 / 40.0, abs=1e-15)
        assert L == pytest.approx(1.0 / 40.0, abs=1e-15)

    def test_scalar_curvature(self):
        task = LinRegTask(
            xs=(np.array([[1.0], [2.0]]),),
            ys=(np.zeros(2),),
            prior_var=10.0,
        )
        mu, L = mu_L_bounds(task)
        assert L == pytest.approx(10.0 + 0.1, rel=1e-12)
        assert mu == pytest.approx(10.0 + 0.1, rel=1e-12)

    def test_logreg_formulas(self):
        task = _toy_logreg(seed=40)
        mu, L = mu_L_bounds(task)
        prior_curv = 1.0 / (task.n_agents * task.prior_var)
        assert mu == pytest.approx(prior_curv, rel=1e-12)
        lmax = max(
            np.linalg.eigvalsh(x.T @ x).max() for x in task.xs
        )
        assert L == pytest.approx(0.25 * lmax + prior_curv, rel=1e-9)

    def test_hessian_bracket(self):
        # mu and L really bracket every per-agent Hessian eigenvalue.
        task = _toy_linreg(seed=41)
        mu, L = mu_L_bounds(task)
        for i in range(task.n_agents):
            h = 2.0 * task.xs[i].T @ task.xs[i] + np.eye(task.dim) / (
                task.prior_var * task.n_agents
            )
            vals = np.linalg.eigvalsh(h)
            assert vals.min() >= mu - 1e-9
            assert vals.max() <= L + 1e-9


class TestNewtonMinimizer:
    def test_logreg_gradient_vanishes(self):
        task = _toy_logreg(seed=50)
        m = task.minimizer()
        g = sum(task.full_grad(i, m) for i in range(task.n_agents))
        assert np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(m))

    def test_linreg_grad_at_min_norm(self):
        task = _toy_linreg(seed=51)
        # Stacked per-agent gradients at x* need not vanish agentwise,
        # but their sum does; the stacked norm is what theory consumes.
        m = task.minimizer()
        total = sum(task.full_grad(i, m) for i in range(task.n_agents))
        assert np.linalg.norm(total) <= 1e-8 * (1.0 + np.linalg.norm(m))
        stacked = np.concatenate(
            [task.full_grad(i, m) for i in range(task.n_agents)])
        assert np.linalg.norm(stacked) > 0.0


class TestCsvLoader:
    def _write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_header_detect_and_label_by_name(self, tmp_path):
        p = self._write(
            tmp_path, "a,b,target\n1,2,0\n3,4,1\n5,6,0\n"
        )
        x, y, names = load_csv_dataset(p, label_column="target")
        assert names == ["a", "b"]
        assert np.array_equal(y, [0.0, 1.0, 0.0])
        assert x.shape == (3, 2)
        assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(x.std(axis=0), 1.0, atol=1e-12)

    def test_headerless_label_by_index(self, tmp_path):
        p = self._write(tmp_path, "1,0\n2,1\n3,1\n")
        x, y, names = load_csv_dataset(p, label_column=1, standardize=False)
        assert names == ["col0"]
        assert np.array_equal(x.ravel(), [1.0, 2.0, 3.0])
        assert np.array_equal(y, [0.0, 1.0, 1.0])

    def test_string_labels_mapped(self, tmp_path):
        p = self._write(tmp_path, "f,cls\n1,B\n2,M\n3,B\n")
        _, y, _ = load_csv_dataset(p, label_column="cls")
        assert np.array_equal(y, [0.0, 1.0, 0.0])

    def test_three_class_rejected(self, tmp_path):
        p = self._write(tmp_path, "f,cls\n1,a\n2,b\n3,c\n")
        with pytest.raises(ValueError, match="distinct"):
            load_csv_dataset(p, label_column="cls")

    def test_constant_column_floor(self, tmp_path):
        p = self._write(tmp_path, "a,b,y\n5,1,0\n5,2,1\n5,3,0\n")
        x, _, _ = load_csv_dataset(p)
        assert np.all(np.isfinite(x))
        assert np.allclose(x[:, 0], 0.0)

    def test_ragged_row_rejected(self, tmp_path):
        p = self._write(tmp_path, "a,b,y\n1,2,0\n1,2\n")
        with pytest.raises(ValueError, match="fields"):
            load_csv_dataset(p)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(60)
        x = rng.standard_normal((20, 4))
        y = rng.integers(0, 2, size=20).astype(float)
        lines = ["f0,f1,f2,f3,label"]
        for row, lab in zip(x, y):
            lines.append(
                ",".join(f"{v:.17g}" for v in row) + f",{int(lab)}"
            )
        p = self._write(tmp_path, "\n".join(lines) + "\n")
        x2, y2, names = load_csv_dataset(
            p, label_column="label", standardize=False
        )
        assert np.array_equal(x2, x)
        assert np.array_equal(y2, y)
        assert names == ["f0", "f1", "f2", "f3"]


class TestPartition:
    def test_even_split(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((5000, 2))
        y = rng.standard_normal(5000)
        shards = partition_data(x, y, 20, rng)
        assert len(shards) == 20
        assert all(s[0].shape == (250, 2) for s in shards)

    def test_union_is_input_multiset(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        shards = partition_data(x, y, 4, rng)
        together = np.vstack([s[0] for s in shards])
        key = np.lexsort(x.T)
        key2 = np.lexsort(together.T)
        assert np.allclose(x[key], together[key2])

    def test_remainder_dropped_with_warning(self, caplog):
        rng = np.random.default_rng(72)
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        with caplog.at_level(logging.WARNING, logger="exlg"):
            shards = partition_data(x, y, 3, rng)
        assert sum(s[0].shape[0] for s in shards) == 9
        assert any("drops" in rec.message for rec in caplog.records)

    def test_per_agent_subsample(self):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((100, 2))
        y = rng.standard_normal(100)
        shards = partition_data(x, y, 4, rng, per_agent=10)
        assert all(s[0].shape == (10, 2) for s in shards)

    def test_disjointness(self):
        rng = np.random.default_rng(74)
        x = np.arange(30.0)[:, None]
        y = np.zeros(30)
        shards = partition_data(x, y, 3, rng)
        seen = np.concatenate([s[0].ravel() for s in shards])
        assert len(set(seen.tolist())) == 30

    def test_too_few_points(self):
        rng = np.random.default_rng(75)
        with pytest.raises(ValueError):
            partition_data(np.zeros((3, 1)), np.zeros(3), 5, rng)
