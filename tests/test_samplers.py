"""Chain mechanics: noise stream, step functions, reductions, guards.

The load-bearing checks are the reduction equivalences (generalized chain
vs its special cases) under shared noise, and the exact-zero dual average.
"""

import dataclasses

import numpy as np
import pytest

from exlg.linalg import mix_apply
from exlg.network import build_mixing_set, ring
from exlg.samplers import (
    ALGORITHMS,
    ChainDivergenceError,
    NoiseStream,
    RawMixing,
    SamplerConfig,
    derive_seed,
    run_chain,
    step_de_sgld,
    step_extra_two,
    step_gen_extra,
    step_reference_chain,
    step_ula,
)
from exlg.tasks import LinRegTask, gen_linreg_data, partition_data


@dataclasses.dataclass(frozen=True)
class QuadOracle:
    """f_i(x) = ||x||^2 / (2 N): sum f_i = ||x||^2 / 2, minimizer 0."""

    n_agents: int
    dim: int

    def full_grad(self, i, x):
        return x / self.n_agents

    def stoch_grad(self, i, x, batch, rng):
        return self.full_grad(i, x)

    @property
    def mu(self):
        return 1.0 / self.n_agents

    @property
    def L(self):
        return 1.0 / self.n_agents

    def minimizer(self):
        return np.zeros(self.dim)


@dataclasses.dataclass(frozen=True)
class ZeroOracle:
    n_agents: int
    dim: int

    def full_grad(self, i, x):
        return np.zeros_like(x)

    def stoch_grad(self, i, x, batch, rng):
        return np.zeros_like(x)

    @property
    def mu(self):
        return 0.0

    @property
    def L(self):
        return 0.0


def _toy_task(seed=0, n_agents=6, n_i=5, d=3, prior_var=10.0):
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(d)
    x, y = gen_linreg_data(n_agents * n_i, beta, 1.0, rng)
    shards = partition_data(x, y, n_agents, rng)
    return LinRegTask(
        xs=tuple(s[0] for s in shards),
        ys=tuple(s[1] for s in shards),
        prior_var=prior_var,
    )


class TestDeriveSeed:
    def test_frozen_values(self):
        # Pinned so manifests stay replayable across releases.
        assert derive_seed(0, "replica", 0) == 10563452684845012092
        assert derive_seed(12345, "data") == 765667019238419338

    def test_distinct_paths_distinct_seeds(self):
        seen = {
            derive_seed(7, "replica", r) for r in range(100)
        }
        assert len(seen) == 100


class TestNoiseStream:
    def test_deterministic_in_seed_k_i(self):
        a = NoiseStream(99, 4, 3)
        b = NoiseStream(99, 4, 3)
        assert np.array_equal(a.gaussian(5, 2), b.gaussian(5, 2))
        assert np.array_equal(a.gaussian_block(17), b.gaussian_block(17))

    def test_row_matches_block(self):
        s = NoiseStream(1, 6, 2)
        blk = s.gaussian_block(3)
        for i in range(6):
            assert np.array_equal(s.gaussian(3, i), blk[i])

    def test_streams_independent_of_draw_order(self):
        s = NoiseStream(2, 3, 2)
        early = s.gaussian_block(50).copy()
        for k in range(50):
            s.gaussian_block(k)
        assert np.array_equal(s.gaussian_block(50), early)

    def test_distinct_k_and_seed(self):
        s = NoiseStream(3, 2, 2)
        assert not np.array_equal(s.gaussian_block(0), s.gaussian_block(1))
        other = NoiseStream(4, 2, 2)
        assert not np.array_equal(s.gaussian_block(0), other.gaussian_block(0))

    def test_batch_rng_separate_from_gaussians(self):
        s = NoiseStream(5, 2, 2)
        draws1 = s.batch_rng(0, 1).integers(0, 100, size=5)
        s.gaussian_block(0)
        draws2 = s.batch_rng(0, 1).integers(0, 100, size=5)
        assert np.array_equal(draws1, draws2)

    def test_agent_bounds(self):
        s = NoiseStream(6, 2, 2)
        with pytest.raises(IndexError):
            s.gaussian(0, 2)


class TestStepFunctions:
    def test_ula_pure_formula(self):
        x = np.array([[1.0, 2.0]])
        g = np.array([[0.5, -0.5]])
        w = np.array([[0.1, 0.2]])
        out = step_ula(x, g, 0.01, w)
        expect = x - 0.01 * g + np.sqrt(0.02) * w
        assert np.allclose(out, expect, atol=1e-16)

    def test_gen_extra_shares_noise_block(self):
        rng = np.random.default_rng(0)
        n, d = 4, 2
        x = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        g = rng.standard_normal((n, d))
        bx = rng.standard_normal((n, d))
        wt = np.eye(n) * 0.7 + 0.3 / n
        u = 0.25 * (np.eye(n) - (np.ones((n, n)) / n))
        noise = rng.standard_normal((n, d))
        eta = 0.05
        x2, v2 = step_gen_extra(x, v, g, bx, wt, u, eta, noise)
        assert np.allclose(
            x2, wt @ x - eta * (g + v) + np.sqrt(2 * eta) * noise, atol=1e-14
        )
        assert np.allclose(
            v2,
            v - u @ (v + g - bx) + np.sqrt(2 / eta) * (u @ noise),
            atol=1e-14,
        )

    def test_temperature_zero_kills_noise(self):
        x = np.ones((1, 2))
        g = np.zeros((1, 2))
        out = step_ula(x, g, 0.1, np.ones((1, 2)), temperature=0.0)
        assert np.array_equal(out, x)


class TestUlaStationary:
    def test_quadratic_variance_band(self):
        # f(x) = x^2/2: stationary variance of the discretized chain is
        # 1/(1 - eta/2); 1e5 steps must land within [0.9, 1.1] of it.
        eta = 0.1
        cfg = SamplerConfig(
            algorithm="ULA", eta=eta, steps=100_000, seed=404
        )
        res = run_chain(QuadOracle(1, 1), cfg, record_every=10)
        samples = res.xs[res.ks > 1000, 0, 0]
        target = 1.0 / (1.0 - eta / 2.0)
        assert 0.9 * target < samples.var() < 1.1 * target


class TestReductions:
    def _mixing(self, h=0.38, n=6, delta=0.15):
        return build_mixing_set(ring(n), h=h, delta=delta)

    def test_gen_with_zero_u_is_de_sgld(self):
        task = _toy_task()
        ms = self._mixing()
        raw = RawMixing(w=ms.w, w_tilde=ms.w, u=np.zeros_like(ms.w))
        seed = 11
        de = run_chain(
            task,
            SamplerConfig("DE_SGLD", eta=0.01, steps=200, seed=seed),
            mixing=ms,
        )
        gen = run_chain(
            task,
            SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=200, seed=seed),
            mixing=raw,
        )
        assert np.max(np.abs(de.xs - gen.xs)) <= 1e-8

    def test_gen_with_wtilde_over_eta_is_extra(self):
        task = _toy_task()
        ms = self._mixing()
        seed = 12
        extra = run_chain(
            task,
            SamplerConfig("EXTRA_SGLD", eta=0.01, steps=200, seed=seed),
            mixing=ms,
        )
        gen = run_chain(
            task,
            SamplerConfig(
                "GEN_EXTRA_SGLD",
                eta=0.01,
                steps=200,
                seed=seed,
                b_mode="wtilde-over-eta",
            ),
            mixing=ms,
        )
        assert np.max(np.abs(extra.xs - gen.xs)) <= 1e-8

    def test_extra_with_wtilde_equal_w_is_de_sgld(self):
        task = _toy_task()
        ms = self._mixing()
        raw = RawMixing(w=ms.w, w_tilde=ms.w, u=np.zeros_like(ms.w))
        seed = 13
        de = run_chain(
            task,
            SamplerConfig("DE_SGLD", eta=0.01, steps=200, seed=seed),
            mixing=ms,
        )
        extra = run_chain(
            task,
            SamplerConfig("EXTRA_SGLD", eta=0.01, steps=200, seed=seed),
            mixing=raw,
        )
        assert np.max(np.abs(de.xs - extra.xs)) <= 1e-8

    def test_single_agent_collapses_to_ula(self):
        task = _toy_task(n_agents=1, n_i=8)
        raw = RawMixing(
            w=np.ones((1, 1)), w_tilde=np.ones((1, 1)), u=np.zeros((1, 1))
        )
        seed = 14
        ula = run_chain(
            task, SamplerConfig("ULA", eta=0.01, steps=150, seed=seed)
        )
        for algo in ("DE_SGLD", "EXTRA_SGLD", "GEN_EXTRA_SGLD"):
            other = run_chain(
                task,
                SamplerConfig(algo, eta=0.01, steps=150, seed=seed),
                mixing=raw,
            )
            assert np.max(np.abs(ula.xs - other.xs)) <= 1e-8, algo

    def test_reductions_hold_with_minibatches(self):
        task = _toy_task(n_i=6)
        ms = self._mixing()
        seed = 15
        extra = run_chain(
            task,
            SamplerConfig(
                "EXTRA_SGLD", eta=0.01, steps=100, seed=seed, batch=2
            ),
            mixing=ms,
        )
        gen = run_chain(
            task,
            SamplerConfig(
                "GEN_EXTRA_SGLD", eta=0.01, steps=100, seed=seed, batch=2
            ),
            mixing=ms,
        )
        assert np.max(np.abs(extra.xs - gen.xs)) <= 1e-8


def _written_out_chain(task, cfg, ms):
    """The five recursions spelled out from the public step functions.

    Returns (xs, vs, final_x, final_v) for a zero start, recording every
    iterate; vs is None except for the generalized chain.
    """
    algo, eta, temp = cfg.algorithm, cfg.eta, cfg.temperature
    n, d = task.n_agents, task.dim
    rows = 1 if algo in ("ULA", "REFERENCE_CHAIN") else n
    noise = NoiseStream(cfg.seed, 1 if algo == "ULA" else n, d)

    def grad(i, xi, k):
        if cfg.batch is None:
            return task.full_grad(i, xi)
        return task.stoch_grad(i, xi, cfg.batch, noise.batch_rng(k, i))

    def grads(x, k):
        return np.stack([grad(i, x[i], k) for i in range(n)])

    def grad_sum(x, k):
        total = np.zeros(d)
        for i in range(n):
            total = total + grad(i, x[0], k)
        return total[None, :]

    x, v = np.zeros((rows, d)), np.zeros((rows, d))
    xs, vs = [x], [v]
    x_prev = g_prev = w_prev = None
    for k in range(cfg.steps):
        w_new = noise.gaussian_block(k + 1)
        if algo == "ULA":
            x = step_ula(x, grad_sum(x, k), eta, w_new[:1], temp)
        elif algo == "REFERENCE_CHAIN":
            x = step_reference_chain(x, grad_sum(x, k), n, eta,
                                     w_new.mean(axis=0)[None, :], temp)
        elif algo == "DE_SGLD" or (algo == "EXTRA_SGLD" and k == 0):
            g = grads(x, k)
            x_prev, g_prev, w_prev = x, g, w_new
            x = step_de_sgld(x, g, ms.w, eta, w_new, temp)
        elif algo == "EXTRA_SGLD":
            g = grads(x, k)
            x_prev, x = x, step_extra_two(x, x_prev, g, g_prev, ms.w,
                                          ms.w_tilde, eta, w_new - w_prev,
                                          temp)
            g_prev, w_prev = g, w_new
        else:
            x, v = step_gen_extra(x, v, grads(x, k),
                                  mix_apply(ms.w_tilde, x) / eta,
                                  ms.w_tilde, ms.u, eta, w_new, temp)
        xs.append(x)
        vs.append(v)
    gen = algo == "GEN_EXTRA_SGLD"
    return np.stack(xs), np.stack(vs) if gen else None, x, v


@pytest.mark.parametrize("batch", [None, 2], ids=["full", "batch2"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_chain_matches_step_functions(algo, batch):
    task = _toy_task(seed=21, n_i=6)
    ms = build_mixing_set(ring(6), h=0.35, delta=0.2)
    cfg = SamplerConfig(algo, eta=0.02, steps=25, seed=33, batch=batch)
    res = run_chain(task, cfg,
                    mixing=None if algo in ("ULA", "REFERENCE_CHAIN") else ms)
    xs, vs, final_x, final_v = _written_out_chain(task, cfg, ms)
    assert np.array_equal(res.ks, np.arange(cfg.steps + 1))
    assert np.array_equal(res.xs, xs)
    if vs is None:
        assert res.vs is None
    else:
        assert np.array_equal(res.vs, vs)
    assert res.final.k == cfg.steps
    assert np.array_equal(res.final.x, final_x)
    assert np.array_equal(res.final.v, final_v)


class TestDualAverage:
    def test_vbar_exactly_zero_within_tolerance(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        res = run_chain(
            task,
            SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=300, seed=77),
            mixing=ms,
        )
        vbar = res.vs.mean(axis=1)
        assert np.max(np.abs(vbar)) <= 1e-10


class TestZeroTemperature:
    def test_gen_extra_finds_minimizer_and_dgd_is_biased(self):
        task = _toy_task(seed=5, n_agents=4, n_i=5, d=2)
        ms = build_mixing_set(ring(4), h=0.4, delta=0.2)
        star = task.minimizer()
        gen = run_chain(
            task,
            SamplerConfig(
                "GEN_EXTRA_SGLD", eta=0.01, steps=8000, seed=1,
                temperature=0.0,
            ),
            mixing=ms,
            record_every=8000,
        )
        gen_err = np.max(
            np.linalg.norm(gen.final.x - star[None, :], axis=1)
        )
        assert gen_err <= 1e-8

        def dgd_err(eta):
            res = run_chain(
                task,
                SamplerConfig(
                    "DE_SGLD", eta=eta, steps=20000, seed=1, temperature=0.0
                ),
                mixing=ms,
                record_every=20000,
            )
            return np.max(
                np.linalg.norm(res.final.x - star[None, :], axis=1)
            )

        e1 = dgd_err(0.01)
        e2 = dgd_err(0.005)
        assert e1 > 1e-3
        assert 0.8 * 0.5 <= e2 / e1 <= 1.2 * 0.5


class TestPermutationEquivariance:
    def test_ring_rotation(self):
        # Rotating agents around the ring is a graph automorphism, so
        # conjugating data and noise by it must rotate the trajectory.
        n = 4
        task = _toy_task(seed=9, n_agents=n, n_i=5, d=2)
        ms = build_mixing_set(ring(n), h=0.37, delta=0.21)
        perm = np.array([1, 2, 3, 0])
        task_p = LinRegTask(
            xs=tuple(task.xs[p] for p in perm),
            ys=tuple(task.ys[p] for p in perm),
            prior_var=task.prior_var,
        )

        class PermNoise:
            def __init__(self, base, perm):
                self.base, self.perm = base, perm
                self.n_agents, self.dim = base.n_agents, base.dim

            def gaussian_block(self, k):
                return self.base.gaussian_block(k)[self.perm]

            def gaussian(self, k, i):
                return self.base.gaussian(k, self.perm[i])

            def batch_rng(self, k, i):
                return self.base.batch_rng(k, self.perm[i])

            def init_rng(self):
                return self.base.init_rng()

        cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=120, seed=31)
        base_noise = NoiseStream(cfg.seed, n, 2)
        res = run_chain(task, cfg, mixing=ms, noise=base_noise)
        res_p = run_chain(
            task_p, cfg, mixing=ms, noise=PermNoise(base_noise, perm)
        )
        assert np.max(np.abs(res_p.xs - res.xs[:, perm, :])) <= 1e-12


class TestRunChainMechanics:
    def test_k_zero_records_initial_only(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        res = run_chain(
            task,
            SamplerConfig("DE_SGLD", eta=0.01, steps=0, seed=1),
            mixing=ms,
        )
        assert list(res.ks) == [0]
        assert np.array_equal(res.xs[0], np.zeros((6, 3)))

    def test_record_every_includes_final(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        res = run_chain(
            task,
            SamplerConfig("DE_SGLD", eta=0.01, steps=20, seed=1),
            mixing=ms,
            record_every=7,
        )
        assert list(res.ks) == [0, 7, 14, 20]

    def test_bit_identical_rerun(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=60, seed=3)
        a = run_chain(task, cfg, mixing=ms)
        b = run_chain(task, cfg, mixing=ms)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.vs, b.vs)

    def test_batch_changes_draws_but_stays_deterministic(self):
        task = _toy_task(n_i=5)
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        full = run_chain(
            task,
            SamplerConfig("DE_SGLD", eta=0.01, steps=30, seed=4),
            mixing=ms,
        )
        b1 = run_chain(
            task,
            SamplerConfig("DE_SGLD", eta=0.01, steps=30, seed=4, batch=2),
            mixing=ms,
        )
        b2 = run_chain(
            task,
            SamplerConfig("DE_SGLD", eta=0.01, steps=30, seed=4, batch=2),
            mixing=ms,
        )
        assert np.array_equal(b1.xs, b2.xs)
        assert not np.array_equal(full.xs, b1.xs)

    def test_divergence_guard_names_iteration(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        with pytest.raises(ChainDivergenceError,
                           match=r"^DE_SGLD diverged at iteration \d+, "
                                 r"agent [0-5]: max \|x\| entry"):
            run_chain(
                task,
                SamplerConfig("DE_SGLD", eta=50.0, steps=500, seed=5),
                mixing=ms,
            )

        @dataclasses.dataclass(frozen=True)
        class SpikeOracle(QuadOracle):
            """Agent 3's gradient alone leaves the guard ball at once."""

            def full_grad(self, i, x):
                return x - (1e16 if i == 3 else 0.0)

        for algo in ("DE_SGLD", "EXTRA_SGLD", "GEN_EXTRA_SGLD"):
            with pytest.raises(ChainDivergenceError,
                               match=f"^{algo} diverged at iteration 1, "
                                     "agent 3:"):
                run_chain(SpikeOracle(6, 2),
                          SamplerConfig(algo, eta=0.01, steps=5, seed=5),
                          mixing=ms)

    def test_init_prior_and_minimizer(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        cfg = SamplerConfig("DE_SGLD", eta=0.01, steps=0, seed=6)
        prior = run_chain(task, cfg, mixing=ms, init="prior")
        assert not np.allclose(prior.xs[0], 0.0)
        again = run_chain(task, cfg, mixing=ms, init="prior")
        assert np.array_equal(prior.xs, again.xs)
        at_min = run_chain(task, cfg, mixing=ms, init="minimizer")
        assert np.allclose(at_min.xs[0], task.minimizer()[None, :])

    def test_reference_chain_noise_scale(self):
        # grad == 0: one step gives i.i.d. N(0, 2 eta / N) coordinates.
        n, d, eta = 5, 20000, 0.01
        res = run_chain(
            ZeroOracle(n, d),
            SamplerConfig("REFERENCE_CHAIN", eta=eta, steps=1, seed=8),
        )
        var = res.final.x.var()
        expect = 2.0 * eta / n
        assert abs(var - expect) <= 5.0 * expect * np.sqrt(2.0 / d)

    def test_mean_series_shape(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        res = run_chain(
            task,
            SamplerConfig("DE_SGLD", eta=0.01, steps=10, seed=9),
            mixing=ms,
            record_every=5,
        )
        assert res.means.shape == (3, 3)
        assert np.allclose(res.means[1], res.xs[1].mean(axis=0))


class TestSamplerConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SamplerConfig("NOPE", eta=0.1, steps=1, seed=0)
        with pytest.raises(ValueError):
            SamplerConfig("ULA", eta=0.0, steps=1, seed=0)
        with pytest.raises(ValueError):
            SamplerConfig("ULA", eta=0.1, steps=-1, seed=0)
        with pytest.raises(ValueError):
            SamplerConfig("ULA", eta=0.1, steps=1, seed=0, temperature=0.5)
        with pytest.raises(ValueError):
            SamplerConfig("ULA", eta=0.1, steps=1, seed=0, b_mode="junk")

    def test_custom_b_column_sums(self):
        good = np.array([[0.6, 0.1], [0.4, 0.9]])
        cfg = SamplerConfig(
            "GEN_EXTRA_SGLD", eta=0.1, steps=1, seed=0,
            b_mode="custom", b_custom=good,
        )
        assert cfg.b_custom is not None
        bad = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="column sums"):
            SamplerConfig(
                "GEN_EXTRA_SGLD", eta=0.1, steps=1, seed=0,
                b_mode="custom", b_custom=bad,
            )

    def test_missing_mixing_rejected(self):
        task = _toy_task()
        with pytest.raises(ValueError, match="mixing"):
            run_chain(
                task, SamplerConfig("DE_SGLD", eta=0.01, steps=1, seed=0)
            )
