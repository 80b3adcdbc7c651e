"""Task-layer contracts: generators, gradients, posteriors, partitioning.

Gradient correctness is checked against central finite differences; the
minibatch estimator against exhaustive subset enumeration and Monte Carlo
means.  No expected value here is copied from the implementation.
"""

import dataclasses
import itertools
import logging
import warnings

import numpy as np
import pytest
from scipy.special import expit

from exlg.linalg import sym_eig
from exlg.network import build_mixing_set, ring
from exlg.tasks import (
    GaussianDist,
    LabelError,
    LinRegTask,
    LogRegTask,
    checked_cov,
    gen_linreg_data,
    gen_logreg_data,
    load_csv_dataset,
    partition_data,
    _sigmoid_neg,
)
from exlg.samplers import SamplerConfig
from exlg.theory import _grad_noise, problem_params_from


def _fd_grad(f, x, eps=1e-5):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = eps
        g[j] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return g


def _grad(task, i, beta, idx=None):
    """Agent i's gradient at beta: row i of a block with beta at every row;
    with ``idx``, the minibatch estimate over those rows of its shard (the
    block gives every agent the same rows)."""
    x = np.broadcast_to(np.asarray(beta, dtype=float),
                        (1, task.n_agents, task.dim))
    if idx is not None:
        idx = np.broadcast_to(idx, (1, task.n_agents, len(idx)))
    return task.grad_block(x, idx)[0, i]


def _linreg_f(task, i, beta):
    x, y = task.xs[i], task.ys[i]
    resid = y - x @ beta
    return float(resid @ resid) + float(beta @ beta) / (
        2.0 * task.prior_var * task.n_agents
    )


def _logreg_f(task, i, beta):
    s = task.xs[i] * (2.0 * task.ys[i] - 1.0)[:, None]
    val = float(np.sum(np.logaddexp(0.0, -(s @ beta))))
    return val + float(beta @ beta) / (2.0 * task.n_agents * task.prior_var)


def _toy_linreg(seed=0, n_agents=4, n_i=6, d=3, prior_var=10.0):
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(d)
    x, y = gen_linreg_data(n_agents * n_i, beta, 1.0, rng)
    xs, ys = partition_data(x, y, n_agents, rng)
    return LinRegTask(
        xs=xs, ys=ys,
        prior_var=prior_var,
    )


def _toy_logreg(seed=0, n_agents=3, n_i=8, d=3, prior_var=10.0):
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(d)
    x, y = gen_logreg_data(n_agents * n_i, beta, rng)
    xs, ys = partition_data(x, y, n_agents, rng)
    return LogRegTask(
        xs=xs, ys=ys,
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
        x, _ = gen_logreg_data(100_000, np.zeros(2), rng)
        assert abs(x.var() - 20.0) < 0.5


def test_sigmoid_has_the_bits_of_expit():
    """sigma(-t) is scipy's expit(-t) bit for bit, and silent: draws at
    several scales, a dense sweep across glibc cexp's scaling threshold
    near t = 709, overflow and underflow of exp, and the special values."""
    rng = np.random.default_rng(30)
    tiny = np.finfo(float).tiny
    t = np.concatenate([
        *(scale * rng.standard_normal(250_000) for scale in (1.0, 8.0, 100.0)),
        rng.uniform(-800.0, 800.0, 250_000),
        np.linspace(708.9, 709.8, 100_001),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny, -tiny,
         745.0, -745.0, 746.0, -746.0],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid_neg(t)
        want = expit(-t)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestLinregTarget:
    """target() is exp(-sum_i f_i) = N(A^-1 b, A^-1), A = 2 X^T X + I/lambda
    and b = 2 X^T y over the stacked shards."""

    def test_mean_is_minimizer_bit_for_bit(self):
        for seed in range(5):
            task = _toy_linreg(seed=seed)
            assert np.array_equal(task.target().mean, task.minimizer())

    def test_matches_textbook_gaussian(self):
        task = _toy_linreg(seed=13)
        lam = task.prior_var
        prec = np.eye(task.dim) / lam
        rhs = np.zeros(task.dim)
        for x, y in zip(task.xs, task.ys):  # agent by agent
            prec += 2.0 * x.T @ x
            rhs += 2.0 * x.T @ y
        cov = np.linalg.solve(prec, np.eye(task.dim))
        got = task.target()
        for a, b in ((got.mean, cov @ rhs), (got.cov, cov)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_log_density_is_minus_the_summed_losses(self):
        # log N(beta; m, V) + sum_i f_i(beta) is the same at every beta
        task = _toy_linreg(seed=14)
        t = task.target()
        prec = np.linalg.inv(t.cov)

        def gap(beta):
            r = beta - t.mean
            return -0.5 * float(r @ prec @ r) + sum(
                _linreg_f(task, i, beta) for i in range(task.n_agents))

        rng = np.random.default_rng(15)
        ref = gap(t.mean)
        for _ in range(10):
            assert abs(gap(t.mean + rng.standard_normal(task.dim)) - ref) \
                <= 1e-9 * (1.0 + abs(ref))

    def test_single_point_flat_prior(self):
        # A = 2 + 1e-8, b = 4: mean 2 and variance 1/2 within 1e-8
        task = LinRegTask(xs=([[1.0]],), ys=([2.0],), prior_var=1e8)
        t = task.target()
        assert abs(t.mean[0] - 2.0) < 1e-7
        assert abs(t.cov[0, 0] - 0.5) < 1e-8


class TestGradients:
    def test_linreg_fd(self):
        task = _toy_linreg()
        rng = np.random.default_rng(1)
        for _ in range(20):
            beta = rng.standard_normal(task.dim)
            i = int(rng.integers(task.n_agents))
            g = _grad(task, i, beta)
            fd = _fd_grad(lambda b: _linreg_f(task, i, b), beta)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
            assert rel <= 1e-5

    def test_logreg_fd(self):
        task = _toy_logreg()
        rng = np.random.default_rng(2)
        for _ in range(20):
            beta = 0.5 * rng.standard_normal(task.dim)
            i = int(rng.integers(task.n_agents))
            g = _grad(task, i, beta)
            fd = _fd_grad(lambda b: _logreg_f(task, i, b), beta)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
            assert rel <= 1e-5

    def test_logreg_zero_beta_single_datum(self):
        x = np.array([[2.0, -1.0, 0.5]])
        task = LogRegTask(xs=(x,), ys=(np.array([1.0]),), prior_var=10.0)
        g = _grad(task, 0, np.zeros(3))
        assert np.allclose(g, -x[0] / 2.0, atol=1e-14)

    def test_linreg_stationarity_at_target_mean(self):
        task = _toy_linreg(seed=12)
        m = task.target().mean
        total = sum(_grad(task, i, m) for i in range(task.n_agents))
        assert np.linalg.norm(total) <= 1e-6 * (1.0 + np.linalg.norm(m))


class TestMinibatch:
    def test_full_batch_is_exact(self):
        task = _toy_linreg()
        rng = np.random.default_rng(3)
        beta = rng.standard_normal(task.dim)
        n_i = task.xs[0].shape[0]
        g = _grad(task, 0, beta, rng.choice(n_i, n_i, replace=False))
        assert np.allclose(g, _grad(task, 0, beta), atol=1e-12)

    def test_exhaustive_enumeration(self):
        # 4-point shard, batch 2: each subset's estimate is the scaled
        # subset gradient, and averaging all C(4,2) of them must give the
        # full gradient exactly.
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
            g = g + task._prior_grad(beta)
            assert np.allclose(_grad(task, 0, beta, sub), g, atol=1e-12)
            acc += g
            count += 1
        mean_subset = acc / count
        assert np.allclose(mean_subset, _grad(task, 0, beta), atol=1e-12)

    def test_unbiased_monte_carlo(self):
        task = _toy_logreg(seed=21, n_i=12)
        rng = np.random.default_rng(22)
        beta = 0.3 * rng.standard_normal(task.dim)
        full = _grad(task, 0, beta)
        n_i = task.xs[0].shape[0]
        draws = np.array([_grad(task, 0, beta,
                                rng.choice(n_i, 4, replace=False))
                          for _ in range(10_000)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - full) <= 3.0 * se + 1e-12)

    def test_noise_power_positive_below_full_batch(self):
        task = _toy_linreg(seed=30)
        n = task.shard_size
        for batch in range(1, n):
            assert _grad_noise(task, task.minimizer(), batch) > 0.0
        assert _grad_noise(task, task.minimizer(), n) == 0.0
        assert _grad_noise(task, task.minimizer(), None) == 0.0


class TestMuL:
    def test_scalar_curvature(self):
        task = LinRegTask(
            xs=(np.array([[1.0], [2.0]]),),
            ys=(np.zeros(2),),
            prior_var=10.0,
        )
        mu, L = task.mu_L()
        assert L == pytest.approx(10.0 + 0.1, rel=1e-12)
        assert mu == pytest.approx(10.0 + 0.1, rel=1e-12)

    def test_logreg_formulas(self):
        task = _toy_logreg(seed=40)
        mu, L = task.mu_L()
        prior_curv = 1.0 / (task.n_agents * task.prior_var)
        assert mu == pytest.approx(prior_curv, rel=1e-12)
        lmax = max(
            np.linalg.eigvalsh(x.T @ x).max() for x in task.xs
        )
        assert L == pytest.approx(0.25 * lmax + prior_curv, rel=1e-9)

    def test_hessian_bracket(self):
        # mu and L really bracket every per-agent Hessian eigenvalue.
        task = _toy_linreg(seed=41)
        mu, L = task.mu_L()
        for i in range(task.n_agents):
            h = 2.0 * task.xs[i].T @ task.xs[i] + np.eye(task.dim) / (
                task.prior_var * task.n_agents
            )
            vals = np.linalg.eigvalsh(h)
            assert vals.min() >= mu - 1e-9
            assert vals.max() <= L + 1e-9


def _sharded(kind, sizes, seed=60):
    """A three-agent task with the given shard sizes."""
    rng = np.random.default_rng(seed)
    beta = np.array([0.8, -0.5])
    shards = [gen_linreg_data(n, beta, 1.0, rng) if kind == "linreg"
              else gen_logreg_data(n, beta, rng) for n in sizes]
    cls = LinRegTask if kind == "linreg" else LogRegTask
    xs, ys = zip(*shards)
    return cls(xs=xs, ys=ys, prior_var=3.0)


def _mu_L_per_shard(task):
    """task.mu_L() written out as a loop of one eigensolve per shard."""
    prior_curv = 1.0 / (task.prior_var * task.n_agents)
    if isinstance(task, LogRegTask):
        lmax = 0.0
        for x in task.xs:
            lmax = max(lmax, 0.25 * float(sym_eig(x.T @ x)[0][-1]))
        return prior_curv, lmax + prior_curv
    lo, hi = np.inf, 0.0
    for x in task.xs:
        vals, _ = sym_eig(2.0 * (x.T @ x))
        lo = min(lo, float(vals[0]))
        hi = max(hi, float(vals[-1]))
    return lo + prior_curv, hi + prior_curv


@pytest.mark.parametrize("kind", ["linreg", "logreg"])
@pytest.mark.parametrize("sizes", [(6, 6, 6)], ids=["equal"])
def test_mu_L_matches_per_shard_loop(kind, sizes):
    task = _sharded(kind, sizes)
    assert task.mu_L() == _mu_L_per_shard(task)


@pytest.mark.parametrize("kind", ["linreg", "logreg"])
def test_stacked_gram_solve_gives_each_shard_its_own_bits(kind):
    # task.mu_L() solves the (N, d, d) stack of per-shard Gram matrices in
    # one call; each slice keeps the bits of the call on that shard alone
    rng = np.random.default_rng(62)
    beta = rng.standard_normal(5)
    shards = [gen_linreg_data(30, beta, 1.0, rng) if kind == "linreg"
              else gen_logreg_data(30, beta, rng) for _ in range(7)]
    cls = LinRegTask if kind == "linreg" else LogRegTask
    xs, ys = zip(*shards)
    task = cls(xs=xs, ys=ys, prior_var=3.0)
    scale = 2.0 if kind == "linreg" else 1.0
    grams = [scale * (x.T @ x) for x in task.xs]
    stack = (task._gram if kind == "linreg"
             else task.xs.swapaxes(1, 2) @ task.xs)
    assert np.array_equal(stack, np.stack(grams))
    whole_vals, whole_vecs = sym_eig(stack)
    for i, g in enumerate(grams):
        vals, vecs = sym_eig(g)
        assert np.array_equal(whole_vals[i], vals)
        assert np.array_equal(whole_vecs[i], vecs)


@pytest.mark.parametrize("kind", ["linreg", "logreg"])
class TestShardStacks:
    """Tasks hold their equal shards as one (N, n, d) stack."""

    def test_equal_shards_become_one_stack(self, kind):
        task = _sharded(kind, (6, 6, 6))
        assert task.xs.shape == (3, 6, 2) and task.ys.shape == (3, 6)
        assert task.shard_size == 6

    def test_stack_input_gives_the_same_task(self, kind):
        task = _sharded(kind, (6, 6, 6))
        x = np.random.default_rng(1).standard_normal((2, 3, 2))
        for again in (type(task)(xs=task.xs, ys=task.ys, prior_var=3.0),
                      type(task)(task.xs, task.ys, 3.0)):
            assert np.array_equal(again.xs, task.xs)
            assert np.array_equal(again.ys, task.ys)
            assert again.prior_var == task.prior_var
            assert np.array_equal(again.grad_block(x), task.grad_block(x))

    @pytest.mark.parametrize("where", ["xs", "ys"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shard_entries_rejected(self, kind, where, bad):
        task = _sharded(kind, (6, 6, 6))
        stacks = {"xs": task.xs.copy(), "ys": task.ys.copy()}
        stacks[where][1, 2, ...] = bad
        with pytest.raises(ValueError, match="finite numbers only"):
            type(task)(prior_var=3.0, **stacks)

    @pytest.mark.parametrize("prior_var", [np.nan, np.inf, 0.0, -1.0])
    def test_prior_var_must_be_positive_and_finite(self, kind, prior_var):
        task = _sharded(kind, (6, 6, 6))
        with pytest.raises(ValueError,
                           match="prior_var must be positive and finite"):
            type(task)(task.xs, task.ys, prior_var)

    @pytest.mark.parametrize("sizes", [(4, 7, 5), (5, 0, 7), (0, 0, 0)],
                             ids=["ragged", "one-empty", "all-empty"])
    def test_unequal_or_empty_shards_rejected(self, kind, sizes):
        with pytest.raises(ValueError, match="equal and nonempty"):
            _sharded(kind, sizes)

    @pytest.mark.parametrize("xs, ys, message", [
        ((np.ones((3, 2)),), (np.ones(4),), r"got \(1, 3, 2\) and \(1, 4\)"),
        ((np.ones((3, 2)), np.ones((3, 1))), (np.ones(3),) * 2,
         "got a ragged sequence"),
        ((), (), r"got \(0,\) and \(0,\)"),
    ], ids=["rows-vs-targets", "feature-dims", "no-shards"])
    def test_malformed_shards_rejected(self, kind, xs, ys, message):
        cls = LinRegTask if kind == "linreg" else LogRegTask
        with pytest.raises(ValueError, match=message):
            cls(xs=xs, ys=ys, prior_var=3.0)


@pytest.mark.parametrize("sizes", [(6, 6, 6)], ids=["equal"])
class TestBlockCallersMatchAgentLoops:
    """The callers that evaluate every agent in one block call give the
    bits of a loop over the agents, each reading its own row."""

    @pytest.mark.parametrize("kind", ["linreg", "logreg"])
    def test_grad_at_min(self, kind, sizes):
        task = _sharded(kind, sizes)
        ms = build_mixing_set(ring(3), h=0.3, delta=0.2)
        m = task.minimizer()
        g = np.concatenate([_grad(task, i, m) for i in range(3)])
        p = problem_params_from(
            task, ms, SamplerConfig("GEN_EXTRA_SGLD", eta=0.001, steps=0))
        assert p.grad_at_min_sq == float(np.linalg.norm(g)) ** 2

    @pytest.mark.parametrize("kind", ["linreg", "logreg"])
    def test_grad_noise(self, kind, sizes):
        task = _sharded(kind, sizes)
        beta = np.array([0.3, -0.2])
        # agent i's single-row estimates, n times its row-j gradient (plus
        # the prior term), one call per (agent, row)
        rows = np.stack([[_grad(task, i, beta, [j]) for j in range(n_i)]
                         for i, n_i in enumerate(sizes)], axis=1)
        want = float(np.var(rows, axis=0, ddof=1).sum())
        for batch in (1, 3, 5):
            assert _grad_noise(task, beta, batch) == \
                (1.0 / batch - 1.0 / sizes[0]) * want

    def test_logreg_minimizer(self, sizes, monkeypatch):
        task = _sharded("logreg", sizes)
        got = task.minimizer()

        def per_column(self, x, idx=None):
            assert idx is None
            return _oracle_grad_block(self, x)

        monkeypatch.setattr(LogRegTask, "grad_block", per_column)
        assert np.array_equal(got, task.minimizer())


class TestNewtonMinimizer:
    def test_logreg_gradient_vanishes(self):
        task = _toy_logreg(seed=50)
        m = task.minimizer()
        g = sum(_grad(task, i, m) for i in range(task.n_agents))
        assert np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(m))

    def test_linreg_grad_at_min_norm(self):
        task = _toy_linreg(seed=51)
        # Stacked per-agent gradients at x* need not vanish agentwise,
        # but their sum does; the stacked norm is what theory consumes.
        m = task.minimizer()
        total = sum(_grad(task, i, m) for i in range(task.n_agents))
        assert np.linalg.norm(total) <= 1e-8 * (1.0 + np.linalg.norm(m))
        stacked = np.concatenate(
            [_grad(task, i, m) for i in range(task.n_agents)])
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

    @staticmethod
    def _standardized(raw):
        raw = np.asarray(raw, dtype=float)
        return (raw - raw.mean(axis=0)) / np.sqrt(
            np.maximum(raw.var(axis=0), 1e-12))

    def test_headerless_label_by_index(self, tmp_path):
        p = self._write(tmp_path, "1,0\n2,1\n3,1\n")
        x, y, names = load_csv_dataset(p, label_column=1)
        assert names == ["col0"]
        assert np.array_equal(x, self._standardized([[1.0], [2.0], [3.0]]))
        assert np.array_equal(y, [0.0, 1.0, 1.0])
        x_neg, y_neg, _ = load_csv_dataset(p, label_column=-1)
        assert np.array_equal(x_neg, x) and np.array_equal(y_neg, y)

    @pytest.mark.parametrize("label", [2, 7, -3])
    def test_label_position_out_of_range(self, tmp_path, label):
        p = self._write(tmp_path, "1,0\n2,1\n3,1\n")
        with pytest.raises(LabelError, match="outside"):
            load_csv_dataset(p, label_column=label)

    def test_missing_label_name(self, tmp_path):
        p = self._write(tmp_path, "a,b\n1,0\n2,1\n")
        with pytest.raises(LabelError, match="no column named"):
            load_csv_dataset(p, label_column="c")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell(self, tmp_path, cell):
        p = self._write(tmp_path, f"a,b,y\n1,{cell},0\n2,3,1\n")
        with pytest.raises(ValueError, match="non-finite") as err:
            load_csv_dataset(p)
        assert not isinstance(err.value, LabelError)
        p = self._write(tmp_path, f"a,b,y\n1,2,0\n2,3,{cell}\n")
        with pytest.raises(LabelError, match="non-finite"):
            load_csv_dataset(p)

    def test_binary_file(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(ValueError, match="not a CSV text file"):
            load_csv_dataset(p)

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
        x2, y2, names = load_csv_dataset(p, label_column="label")
        assert np.array_equal(x2, self._standardized(x))
        assert np.array_equal(y2, y)
        assert names == ["f0", "f1", "f2", "f3"]


class TestPartition:
    def test_even_split(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((5000, 2))
        y = rng.standard_normal(5000)
        xs, ys = partition_data(x, y, 20, rng)
        assert xs.shape == (20, 250, 2) and ys.shape == (20, 250)

    def test_union_is_input_multiset(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        xs, ys = partition_data(x, y, 4, rng)
        together = xs.reshape(-1, 3)
        key = np.lexsort(x.T)
        key2 = np.lexsort(together.T)
        assert np.allclose(x[key], together[key2])

    def test_remainder_dropped_with_warning(self, caplog):
        rng = np.random.default_rng(72)
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        with caplog.at_level(logging.WARNING, logger="exlg"):
            xs, ys = partition_data(x, y, 3, rng)
        assert xs.shape[0] * xs.shape[1] == 9 and ys.shape == xs.shape[:2]
        assert any("drops" in rec.message for rec in caplog.records)

    def test_per_agent_subsample(self):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((100, 2))
        y = rng.standard_normal(100)
        xs, ys = partition_data(x, y, 4, rng, per_agent=10)
        assert xs.shape == (4, 10, 2) and ys.shape == (4, 10)

    def test_disjointness(self):
        rng = np.random.default_rng(74)
        x = np.arange(30.0)[:, None]
        y = np.zeros(30)
        xs, ys = partition_data(x, y, 3, rng)
        assert len(set(xs.ravel().tolist())) == 30

    def test_too_few_points(self):
        rng = np.random.default_rng(75)
        with pytest.raises(ValueError, match="^5 agents x 1 points need 5 "
                                             "rows, the data has 3$"):
            partition_data(np.zeros((3, 1)), np.zeros(3), 5, rng)
        with pytest.raises(ValueError, match="^2 agents x 4 points need 8 "
                                             "rows, the data has 7$"):
            partition_data(np.zeros((7, 1)), np.zeros(7), 2, rng,
                           per_agent=4)

    @pytest.mark.parametrize("rows, per_agent", [(40, 6), (40, None),
                                                 (43, None)],
                             ids=["per-agent", "exact", "rows-dropped"])
    def test_cut_is_the_seeded_permutation(self, rows, per_agent):
        """Agent i holds rows perm[i*n:(i+1)*n] of one seeded permutation,
        in that order."""
        data = np.random.default_rng(76)
        x, y = data.standard_normal((rows, 3)), data.standard_normal(rows)
        xs, ys = partition_data(x, y, 4, np.random.default_rng(77),
                                per_agent=per_agent)
        perm = np.random.default_rng(77).permutation(rows)
        n = rows // 4 if per_agent is None else per_agent
        cuts = [perm[i * n:(i + 1) * n] for i in range(4)]
        assert np.array_equal(xs, np.stack([x[c] for c in cuts]))
        assert np.array_equal(ys, np.stack([y[c] for c in cuts]))


# The per-column gradient code that feature-major gathering replaced,
# kept as the oracle of grad_block: every block it accepted must give the
# same bits, and every index it refused must still raise.

def _oracle_gather(stack, idx):
    if idx is None:
        return stack
    return stack[np.arange(len(stack))[:, None], idx]


def _oracle_matvec(m, v):
    out = m[..., 0] * v[..., 0]
    for j in range(1, m.shape[-1]):
        out = out + m[..., j] * v[..., j]
    return out


def _oracle_rmatvec(a, r):
    return np.stack([np.sum(a[..., c] * r, axis=-1)
                     for c in range(a.shape[-1])], axis=-1)


def _oracle_grad_block(task, x, idx=None):
    x = np.asarray(x, dtype=float)
    assert x.ndim == 3 and x.shape[1:] == (task.n_agents, task.dim)
    assert idx is None or np.shape(idx)[:2] == x.shape[:2]
    if isinstance(task, LinRegTask):
        if idx is None:
            data = _oracle_matvec(task._gram, x[..., None, :]) - task._xty
        else:
            xb = _oracle_gather(task.xs, idx)
            yb = _oracle_gather(task.ys, idx)
            resid = _oracle_matvec(xb, x[..., None, :]) - yb
            data = (task.shard_size / np.shape(idx)[-1]) \
                * (2.0 * _oracle_rmatvec(xb, resid))
        return data + task._prior_grad(x)
    s = _oracle_gather(task.xs * (2.0 * task.ys - 1.0)[..., None], idx)
    data = -_oracle_rmatvec(s, expit(-_oracle_matvec(s, x[..., None, :])))
    if idx is not None:
        data = (task.shard_size / np.shape(idx)[-1]) * data
    return data + task._prior_grad(x)


@dataclasses.dataclass(frozen=True)
class _OracleGradients:
    """A task whose grad_block is the per-column oracle."""

    task: object

    n_agents = property(lambda self: self.task.n_agents)
    dim = property(lambda self: self.task.dim)
    shard_size = property(lambda self: self.task.shard_size)

    def grad_block(self, x, idx=None):
        return _oracle_grad_block(self.task, x, idx)


def _oracle_case_task(kind, d, n_agents=4, n=310, seed=90):
    rng = np.random.default_rng(seed + d)
    beta = rng.standard_normal(d) / np.sqrt(d)
    gen = (gen_linreg_data(n_agents * n, beta, 1.0, rng) if kind == "linreg"
           else gen_logreg_data(n_agents * n, beta, rng))
    xs, ys = partition_data(*gen, n_agents, rng)
    cls = LinRegTask if kind == "linreg" else LogRegTask
    return cls(xs=xs, ys=ys, prior_var=3.0)


# batch sizes around numpy's pairwise-sum blocks (8 unrolled, 128 a leaf)
_ORACLE_BATCHES = (None, 1, 7, 8, 9, 32, 127, 128, 129, 300)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", ["linreg", "logreg"])
def test_grad_block_matches_per_column_oracle(kind, d):
    task = _oracle_case_task(kind, d)
    rng = np.random.default_rng(d)
    for reps in (1, 5):
        x = 0.3 * rng.standard_normal((reps, task.n_agents, d))
        for b in _ORACLE_BATCHES:
            idx = None if b is None else np.array([
                [rng.choice(task.shard_size, b, replace=False)
                 for _ in range(task.n_agents)] for _ in range(reps)])
            got = task.grad_block(x, idx)
            assert got.flags.c_contiguous
            assert np.array_equal(got, _oracle_grad_block(task, x, idx)), \
                (reps, b)


@pytest.mark.parametrize("kind", ["linreg", "logreg"])
def test_grad_noise_matches_per_column_oracle(kind):
    task = _oracle_case_task(kind, 3, n=40)
    beta = np.array([0.3, -0.2, 0.1])
    for batch in (1, 8, 33, 40):
        got = _grad_noise(task, beta, batch)
        assert got == _grad_noise(_OracleGradients(task), beta, batch)
        assert (got > 0.0) == (batch < 40)


@pytest.mark.parametrize("kind", ["linreg", "logreg"])
class TestMinibatchIndices:
    """Rows are addressed within one agent's shard, as numpy indexes it."""

    def test_outside_a_shard_raises(self, kind):
        task = _oracle_case_task(kind, 2, n_agents=3, n=6)
        x = np.zeros((1, 3, 2))
        # 6 and -7 are outside agent 1's shard; read flat, 6 would be
        # agent 2's first row and -7 agent 0's last
        for bad in (6, -7, 2**40):
            idx = np.zeros((1, 3, 2), dtype=int)
            idx[0, 1, 1] = bad
            for grad in (task.grad_block,
                         _OracleGradients(task).grad_block):
                with pytest.raises(IndexError):
                    grad(x, idx)
        for idx in (np.zeros((1, 3, 2)), np.zeros((1, 3, 2), dtype=bool)):
            for grad in (task.grad_block,
                         _OracleGradients(task).grad_block):
                with pytest.raises(IndexError):
                    grad(x, idx)

    def test_negative_indices_read_the_same_rows(self, kind):
        task = _oracle_case_task(kind, 2, n_agents=3, n=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 2))
        idx = rng.integers(-6, 6, size=(2, 3, 4))
        idx[0, 0] = [-6, -1, 5, 0]
        got = task.grad_block(x, idx)
        assert np.array_equal(got, _oracle_grad_block(task, x, idx))
        assert np.array_equal(got, task.grad_block(x, idx % 6))
        # numpy reads an unsigned 2**64 - 1 as -1, the last row
        top = np.full((2, 3, 4), 2**64 - 1, dtype=np.uint64)
        assert np.array_equal(task.grad_block(x, top),
                              _oracle_grad_block(task, x, top))
