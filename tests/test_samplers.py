"""Chain mechanics: noise stream, step functions, reductions, guards.

The load-bearing checks are the reduction equivalences (generalized chain
vs its special cases) under shared noise, and the exact-zero dual average.
"""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exlg.network import build_mixing_set, ring
from exlg import samplers
from exlg.samplers import (
    ALGORITHMS,
    B_MODES,
    ChainDivergenceError,
    NoiseStream,
    SamplerConfig,
    batch_table,
    derive_seed,
    philox4x64,
    record_ks,
    run_ensemble,
)
from exlg.tasks import (
    LinRegTask,
    LogRegTask,
    gen_linreg_data,
    gen_logreg_data,
    partition_data,
)

from oracles import (
    GuardSpy,
    RawMixing,
    gaussian_block,
    mix,
    step_de_sgld,
    step_extra_two,
    step_gen_extra,
    step_reference_chain,
    step_ula,
)


@dataclasses.dataclass(frozen=True)
class QuadOracle:
    """f_i(x) = ||x||^2 / (2 N): sum f_i = ||x||^2 / 2, minimizer 0."""

    n_agents: int
    dim: int

    def grad_block(self, x, rows=None):
        return x / self.n_agents

    def minimizer(self):
        return np.zeros(self.dim)


@dataclasses.dataclass(frozen=True)
class ZeroOracle:
    n_agents: int
    dim: int

    def grad_block(self, x, rows=None):
        return np.zeros(np.shape(x))


class Burst(NoiseStream):
    """Gaussian block ``at`` of a 6-agent, 3-D stream is scaled far out of
    the ball."""

    def __init__(self, seed, at):
        super().__init__(seed, 6, 3)
        self.at = at

    def gaussian_blocks(self, k0, out):
        super().gaussian_blocks(k0, out)
        if 0 <= self.at - k0 < len(out):
            out[self.at - k0] *= 1e300
        return out


def _toy_task(seed=0, n_agents=6, n_i=5, d=3, prior_var=10.0):
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(d)
    x, y = gen_linreg_data(n_agents * n_i, beta, 1.0, rng)
    xs, ys = partition_data(x, y, n_agents, rng)
    return LinRegTask(
        xs=xs, ys=ys,
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
        assert np.array_equal(gaussian_block(a, 5)[2], gaussian_block(b, 5)[2])
        assert np.array_equal(gaussian_block(a, 17), gaussian_block(b, 17))

    def test_streams_independent_of_draw_order(self):
        s = NoiseStream(2, 3, 2)
        early = gaussian_block(s, 50)
        for k in range(50):
            gaussian_block(s, k)
        assert np.array_equal(gaussian_block(s, 50), early)

    def test_distinct_k_and_seed(self):
        s = NoiseStream(3, 2, 2)
        assert not np.array_equal(gaussian_block(s, 0), gaussian_block(s, 1))
        other = NoiseStream(4, 2, 2)
        assert not np.array_equal(gaussian_block(s, 0),
                                  gaussian_block(other, 0))

    def test_batch_rng_separate_from_gaussians(self):
        s = NoiseStream(5, 2, 2)
        draws1 = s.batch_rng(0, 1).integers(0, 100, size=5)
        gaussian_block(s, 0)
        draws2 = s.batch_rng(0, 1).integers(0, 100, size=5)
        assert np.array_equal(draws1, draws2)

    def test_draws_equal_a_fresh_philox(self):
        # The stream resets one Philox; every draw must equal a generator
        # built fresh at counter [0, k, i, tag] (tags: 1 noise, 2 batch,
        # 3 init), whatever was drawn before it.
        seed = derive_seed(11, "replica", 3)

        def fresh(k, i, tag):
            return np.random.Generator(np.random.Philox(
                key=seed, counter=np.array([0, k, i, tag], dtype=np.uint64)))

        s = NoiseStream(seed, 5, 3)
        for k, i in ((0, 0), (1, 4), (7, 2), (1, 4), (123456, 3), (0, 0)):
            assert np.array_equal(gaussian_block(s, k),
                                  fresh(k, 0, 1).standard_normal((5, 3)))
            assert np.array_equal(s.batch_rng(k, i).choice(40, 8,
                                                           replace=False),
                                  fresh(k, i, 2).choice(40, 8, replace=False))
            assert np.array_equal(s.batch_rng(k, i).integers(0, 1000, 9),
                                  fresh(k, i, 2).integers(0, 1000, 9))
            # a partly used generator, then a reset in the middle of it
            rng = s.batch_rng(k, i)
            head = rng.integers(0, 2**40, 3)
            assert np.array_equal(gaussian_block(s, k)[1],
                                  fresh(k, 0, 1).standard_normal((5, 3))[1])
            ref = fresh(k, i, 2)
            assert np.array_equal(head, ref.integers(0, 2**40, 3))

    def test_mixed_calls_equal_a_fresh_philox(self):
        # gaussian_blocks of one block into a fresh array or into a kept
        # buffer, and of many into a replica's slice of a chain's chunk
        # array, interleaved with batch_rng streams left partly used: every
        # draw must equal a generator built fresh at its counter, whatever
        # came before.
        seed = derive_seed(3, "replica", 0)

        def fresh(k, i, tag):
            return np.random.Generator(np.random.Philox(
                key=seed, counter=np.array([0, k, i, tag], dtype=np.uint64)))

        s = NoiseStream(seed, 4, 2)
        order = np.random.default_rng(0)
        buf = np.empty((3, 4, 2))
        for _ in range(80):
            k = (0, 1, 2, 5, 2**40, 2**64 - 1)[order.integers(0, 6)]
            i = int(order.integers(0, 4))
            kind = order.integers(0, 4)
            if kind == 3:
                c = (1, 7)[order.integers(0, 2)]
                k0 = min(k, 2**64 - c)  # the last block at most 2^64 - 1
                chunk = np.empty((c, 3, 4, 2))  # (steps, replicas, N, d)
                got = s.gaussian_blocks(k0, chunk[:, i % 3])
                assert np.shares_memory(got, chunk)
                for j in range(c):
                    assert np.array_equal(chunk[j, i % 3], fresh(
                        k0 + j, 0, 1).standard_normal((4, 2)))
                continue
            if kind == 0:
                got = gaussian_block(s, k)
            elif kind == 1:
                got = s.gaussian_blocks(k, buf[i % 3][None])
                assert np.shares_memory(got, buf[i % 3])
                got = buf[i % 3].copy()
            else:
                rng = s.batch_rng(k, i)
                got = rng.integers(0, 2**63, int(order.integers(1, 12)))
                assert np.array_equal(got, fresh(k, i, 2).integers(
                    0, 2**63, got.size))
                continue
            assert np.array_equal(got, fresh(k, 0, 1).standard_normal((4, 2)))

    def test_top_counter_and_key_equal_a_fresh_philox(self):
        # the reset state is held in Python ints: the largest counter word
        # and both key words at 2^64 - 1 must reach Philox unchanged
        seed, k = 2**128 - 1, 2**64 - 1
        got = gaussian_block(NoiseStream(seed, 3, 2), k)
        ref = np.random.Generator(np.random.Philox(
            key=seed, counter=np.array([0, k, 0, 1], dtype=np.uint64)))
        assert np.array_equal(got, ref.standard_normal((3, 2)))


_U64_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


class TestPhiloxWords:
    """`_mulhilo` and `philox4x64` against Python's exact integers and
    numpy's own Philox."""

    @staticmethod
    def _check_mulhilo(values, m):
        a = np.array(values, dtype=np.uint64)
        hi, lo = samplers._mulhilo(a, m)
        assert np.array_equal(a, values)  # the input is not written
        for a, h, lo_word in zip(values, hi.tolist(), lo.tolist()):
            assert (h, lo_word) == ((a * int(m[0])) >> 64,
                                    (a * int(m[0])) % 2**64)

    @pytest.mark.parametrize("m", samplers._PHILOX_M, ids=["m0", "m1"])
    def test_multiplier_halves(self, m):
        assert int(m[1]) + (int(m[2]) << 32) == int(m[0])
        assert int(m[1]) < 2**32 and int(m[2]) < 2**32

    @pytest.mark.parametrize("m", samplers._PHILOX_M, ids=["m0", "m1"])
    def test_mulhilo_edges(self, m):
        # every pair of edge halves, for both round multipliers
        self._check_mulhilo([a ^ b for a in _U64_EDGES for b in _U64_EDGES]
                            + list(_U64_EDGES), m)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(0, 2**64 - 1), min_size=1,
                           max_size=40),
           which=st.sampled_from((0, 1)))
    def test_mulhilo_sweep(self, values, which):
        self._check_mulhilo(values, samplers._PHILOX_M[which])

    def test_broadcast_words_equal_full_shape_and_numpy(self):
        # word 0 as batch_table passes it: the (n_blocks,) block counter
        rng = np.random.default_rng(2)
        n_blocks, shape = 3, (2, 2, 4, 3)
        ks = np.array([int(rng.integers(0, 2**63)), 2**64 - 1],
                      dtype=np.uint64)
        seeds = [2**128 - 1, int(rng.integers(0, 2**63)) << 64 | 12345]
        key = np.array([[s % 2**64, s >> 64] for s in seeds],
                       dtype=np.uint64)[:, None, None]
        ctr = (np.arange(1, n_blocks + 1, dtype=np.uint64),
               ks[:, None, None, None],
               np.arange(shape[2], dtype=np.uint64)[:, None], np.uint64(2))
        small = philox4x64(ctr, (key[..., 0], key[..., 1]))
        full = philox4x64(
            tuple(np.broadcast_to(c, shape) for c in ctr),
            tuple(np.broadcast_to(kw, shape)
                  for kw in (key[..., 0], key[..., 1])))
        for got, want in zip(small, full):
            assert got.shape == shape and np.array_equal(got, want)
        words = np.stack(small, axis=-1)
        for t, r, i in np.ndindex(shape[:3]):
            # numpy steps word 0 of its counter before each block
            ref = np.random.Philox(key=seeds[r], counter=np.array(
                [0, ks[t], i, 2], dtype=np.uint64)).random_raw(4 * n_blocks)
            assert np.array_equal(words[t, r, i].reshape(-1), ref)


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
        cfg = SamplerConfig(algorithm="ULA", eta=eta, steps=100_000)
        xs = run_ensemble(QuadOracle(1, 1), cfg, [404], record_every=10)
        ks = np.array(record_ks(cfg.steps, 10))
        samples = xs[ks > 1000, 0, 0, 0]
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
        de = run_ensemble(
            task, SamplerConfig("DE_SGLD", eta=0.01, steps=200), [seed],
            mixing=ms,
        )
        gen = run_ensemble(
            task, SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=200),
            [seed], mixing=raw,
        )
        assert np.max(np.abs(de - gen)) <= 1e-8

    def test_gen_with_wtilde_over_eta_is_extra(self):
        task = _toy_task()
        ms = self._mixing()
        seed = 12
        extra = run_ensemble(
            task, SamplerConfig("EXTRA_SGLD", eta=0.01, steps=200), [seed],
            mixing=ms,
        )
        gen = run_ensemble(
            task,
            SamplerConfig(
                "GEN_EXTRA_SGLD",
                eta=0.01,
                steps=200,
                b_mode="wtilde-over-eta",
            ),
            [seed],
            mixing=ms,
        )
        assert np.max(np.abs(extra - gen)) <= 1e-8

    def test_extra_with_wtilde_equal_w_is_de_sgld(self):
        task = _toy_task()
        ms = self._mixing()
        raw = RawMixing(w=ms.w, w_tilde=ms.w, u=np.zeros_like(ms.w))
        seed = 13
        de = run_ensemble(
            task, SamplerConfig("DE_SGLD", eta=0.01, steps=200), [seed],
            mixing=ms,
        )
        extra = run_ensemble(
            task, SamplerConfig("EXTRA_SGLD", eta=0.01, steps=200), [seed],
            mixing=raw,
        )
        assert np.max(np.abs(de - extra)) <= 1e-8

    def test_single_agent_collapses_to_ula(self):
        task = _toy_task(n_agents=1, n_i=8)
        raw = RawMixing(
            w=np.ones((1, 1)), w_tilde=np.ones((1, 1)), u=np.zeros((1, 1))
        )
        seed = 14
        ula = run_ensemble(
            task, SamplerConfig("ULA", eta=0.01, steps=150), [seed]
        )
        for algo in ("DE_SGLD", "EXTRA_SGLD", "GEN_EXTRA_SGLD"):
            other = run_ensemble(
                task, SamplerConfig(algo, eta=0.01, steps=150), [seed],
                mixing=raw,
            )
            assert np.max(np.abs(ula - other)) <= 1e-8, algo

    def test_reductions_hold_with_minibatches(self):
        task = _toy_task(n_i=6)
        ms = self._mixing()
        seed = 15
        extra = run_ensemble(
            task, SamplerConfig("EXTRA_SGLD", eta=0.01, steps=100, batch=2),
            [seed], mixing=ms,
        )
        gen = run_ensemble(
            task,
            SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=100, batch=2),
            [seed], mixing=ms,
        )
        assert np.max(np.abs(extra - gen)) <= 1e-8


def _written_out_chain(task, cfg, seed, ms):
    """The five recursions spelled out from the reference step functions,
    one chain driven by the stream of ``seed``.

    Returns (xs, vs) for a zero start, recording every iterate; vs is
    None except for the generalized chain.
    """
    algo, eta, temp = cfg.algorithm, cfg.eta, cfg.temperature
    n, d = task.n_agents, task.dim
    rows = 1 if algo in ("ULA", "REFERENCE_CHAIN") else n
    noise = NoiseStream(seed, 1 if algo == "ULA" else n, d)

    def grad(i, xi, k):
        """Row i of a block with xi at every row (and agent i's batch
        as every agent's)."""
        batch = None if cfg.batch is None else task.rows(np.broadcast_to(
            noise.batch_rng(k, i).choice(task.xs[i].shape[0], cfg.batch,
                                         replace=False), (1, n, cfg.batch)))
        return task.grad_block(np.broadcast_to(xi, (1, n, d)), batch)[0, i]

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
        w_new = gaussian_block(noise, k + 1)
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
            bx = (cfg.b_scale * x if cfg.b_mode == "scaled-identity"
                  else mix(ms.w_tilde, x) / eta)
            x, v = step_gen_extra(x, v, grads(x, k), bx, ms.w_tilde, ms.u,
                                  eta, w_new, temp)
        xs.append(x)
        vs.append(v)
    gen = algo == "GEN_EXTRA_SGLD"
    return np.stack(xs), np.stack(vs) if gen else None


def _chain_cases():
    """(algo, batch, noise chunk, other SamplerConfig fields): every
    algorithm at full batch and at batch 2, with the default noise chunk
    and with 3 steps a chunk (25 steps leave a last chunk of 1), then the
    scaled-identity B, and temperature 0 (DGD, EXTRA and the generalized
    skeleton)."""
    for chunk in (None, 3):
        for algo in ALGORITHMS:
            for batch, bid in ((None, "full"), (2, "batch2")):
                yield pytest.param(algo, batch, chunk, {}, id=f"{algo}-{bid}"
                                   + ("" if chunk is None else "-chunk3"))
    yield pytest.param("GEN_EXTRA_SGLD", None, 3,
                       {"b_mode": "scaled-identity", "b_scale": 0.7},
                       id="GEN_EXTRA_SGLD-scaled-identity-chunk3")
    yield pytest.param("GEN_EXTRA_SGLD", 2, 3, {"temperature": 0.0},
                       id="GEN_EXTRA_SGLD-batch2-temperature0-chunk3")
    for algo in ("DE_SGLD", "EXTRA_SGLD"):
        yield pytest.param(algo, None, 3, {"temperature": 0.0},
                           id=f"{algo}-full-temperature0-chunk3")


@pytest.mark.parametrize("algo, batch, chunk, fields", _chain_cases())
def test_chain_matches_step_functions(monkeypatch, guard_spy, algo, batch,
                                      chunk, fields):
    task = _toy_task(seed=21, n_i=6)
    ms = build_mixing_set(ring(6), h=0.35, delta=0.2)
    cfg = SamplerConfig(algo, eta=0.02, steps=25, batch=batch, **fields)
    rows = 1 if algo == "ULA" else task.n_agents
    if chunk is not None:  # the noise budget of `chunk` steps of blocks
        monkeypatch.setattr(samplers, "_NOISE_BYTES",
                            chunk * 8 * rows * task.dim)
    drawn = []

    class Recorded(NoiseStream):
        def gaussian_blocks(self, k0, out):
            drawn.append(range(k0, k0 + len(out)))
            return super().gaussian_blocks(k0, out)

    res = run_ensemble(
        task, cfg, [33], noises=[Recorded(33, rows, task.dim)],
        mixing=None if algo in ("ULA", "REFERENCE_CHAIN") else ms)
    seen_x, seen_v = guard_spy.iterates(res.shape[1:])
    # blocks 1 .. steps, each once, one call a chunk (the default budget
    # holds all 25 steps); none at temperature 0
    size = chunk or cfg.steps
    assert drawn == [range(k, min(k + size, cfg.steps + 1))
                     for k in range(1, cfg.steps + 1, size)
                     if cfg.temperature]
    xs, vs = _written_out_chain(task, cfg, 33, ms)
    assert len(res) == cfg.steps + 1
    assert np.array_equal(res[:, 0], xs)
    assert np.array_equal(seen_x, res)  # the guard saw every iterate
    if vs is None:
        assert seen_v is None
    else:
        assert np.array_equal(seen_v[:, 0], vs)


def _toy_logreg(seed=0, n_agents=6, n_i=8, d=3, prior_var=10.0):
    rng = np.random.default_rng(seed)
    x, y = gen_logreg_data(n_agents * n_i, rng.standard_normal(d), rng)
    xs, ys = partition_data(x, y, n_agents, rng)
    return LogRegTask(
        xs=xs, ys=ys,
        prior_var=prior_var,
    )


# stride 5 leaves the final iterate (k = 12) off the recording stride
@pytest.mark.parametrize("record_every, ks", [(3, [0, 3, 6, 9, 12]),
                                              (5, [0, 5, 10, 12])],
                         ids=["stride3", "stride5"])
@pytest.mark.parametrize("kind", ["linreg", "logreg"])
@pytest.mark.parametrize("batch", [None, 2], ids=["full", "batch2"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_replica_values_do_not_depend_on_replica_count(guard_spy, algo,
                                                       batch, kind,
                                                       record_every, ks):
    task = _toy_task(seed=8, n_i=6) if kind == "linreg" else _toy_logreg(8)
    ms = build_mixing_set(ring(6), h=0.35, delta=0.2)
    mixing = None if algo in ("ULA", "REFERENCE_CHAIN") else ms
    cfg = SamplerConfig(algo, eta=0.02, steps=12, batch=batch)
    seeds = [derive_seed(5, "replica", r) for r in range(4)]
    ens = run_ensemble(task, cfg, seeds, mixing=mixing,
                       record_every=record_every)
    _, ens_v = guard_spy.iterates(ens.shape[1:])
    assert (ens_v is None) == (algo != "GEN_EXTRA_SGLD")
    assert ens.shape[:2] == (len(ks), 4)
    assert not ens[0].any()  # every chain starts at zero
    for r, seed in enumerate(seeds):
        guard_spy.chunks.clear()
        one = run_ensemble(task, cfg, [seed], mixing=mixing,
                           record_every=record_every)
        _, one_v = guard_spy.iterates(one.shape[1:])
        assert np.array_equal(ens[:, r], one[:, 0])
        if one_v is not None:  # v at every iterate, recorded or not
            assert np.array_equal(ens_v[:, r], one_v[:, 0])


def test_u_with_nonzero_column_sums_trips_the_dual_check():
    task = _toy_task()
    ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
    raw = RawMixing(w=ms.w, w_tilde=ms.w_tilde, u=0.1 * np.eye(6))
    cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=5)
    with pytest.raises(ChainDivergenceError,
                       match=r"^GEN_EXTRA_SGLD dual average left zero "
                             r"at iteration 1:") as info:
        run_ensemble(task, cfg, [77], mixing=raw)
    e = info.value
    assert (e.algorithm, e.replica, e.k, e.agent) == (
        "GEN_EXTRA_SGLD", 0, 1, None)
    assert e.value > 1e-8
    # the same matrices with a zero-column-sum U run clean
    run_ensemble(task, cfg, [77], mixing=RawMixing(ms.w, ms.w_tilde, ms.u))


def _guard_reference(algo, k, x, v=None):
    """The divergence guard of one step, without fast bounds: its (R,
    rows, d) x (and v) judged replica by replica.  Step by step, the
    oracle of `samplers._guard`."""
    limit, tol = samplers._DIVERGENCE_LIMIT, samplers._DUAL_TOL
    blocks = [("x", x)] if v is None else [("x", x), ("v", v)]
    peaks = [np.max(np.abs(blk), axis=(1, 2)) for _name, blk in blocks]
    bad = np.zeros(x.shape[0], dtype=bool)
    for peak in peaks:
        bad |= ~(peak <= limit)  # NaN counts as bad
    if v is not None:
        drift = np.max(np.abs(v.sum(axis=1)), axis=1) / v.shape[1]
        dual_limit = tol * np.maximum(1.0, peaks[1])
        bad |= drift > dual_limit
    if not bad.any():
        return
    r = int(np.argmax(bad))
    for (name, blk), peak in zip(blocks, peaks):
        m = float(peak[r])
        if not m <= limit:
            agent = int(np.argmax(np.abs(blk[r])) // blk.shape[2])
            raise ChainDivergenceError(
                f"{algo} diverged at iteration {k}, agent {agent}: "
                f"max |{name}| entry = {m:.6e} "
                f"(limit {limit:.1e})",
                algorithm=algo, replica=r, k=k, agent=agent, value=m)
    value = float(drift[r])
    raise ChainDivergenceError(
        f"{algo} dual average left zero at iteration {k}: "
        f"max |sum_i v_i|/N = {value:.6e} "
        f"(limit {float(dual_limit[r]):.1e})",
        algorithm=algo, replica=r, k=k, agent=None, value=value)


def _guard_outcome(guard, k, x, v):
    try:
        guard("GEN_EXTRA_SGLD", k, x, v)
    except ChainDivergenceError as e:
        return (str(e), e.algorithm, e.replica, e.k, e.agent, repr(e.value))
    return None


def _chunk_reference(algo, k0, xs, vs=None):
    """`_guard_reference` of every step of a (G, R, rows, d) chunk, step t
    at iteration k0 + t, in step order."""
    for t, x in enumerate(xs):
        _guard_reference(algo, k0 + t, x, None if vs is None else vs[t])


def _guard_cases():
    """(x, v) blocks of 4 replicas x 5 agents x 2 and what the guard must
    say: None, or the replica it names and a message prefix."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 5, 2))
    # integer duals with exactly zero agent sums; peak |v| about 4e3
    v = rng.integers(-1000, 1000, size=(4, 5, 2)).astype(float)
    v[:, -1] = -v[:, :-1].sum(axis=1)
    cases = [("clean", x, v, None), ("clean-no-v", x, None, None)]
    for bad in (np.nan, np.inf, -np.inf):
        for name in ("x", "v", "x-no-v"):
            xb, vb = x.copy(), (None if name == "x-no-v" else v.copy())
            (vb if name == "v" else xb)[2, 3, 1] = bad
            cases.append((f"{bad}-in-{name}", xb, vb,
                          (2, f"diverged at iteration 7, agent 3: "
                              f"max |{name[0]}|")))
    edge = x.copy()
    edge[1, 4, 0] = -1e12
    cases.append(("at-the-limit", edge, v, None))
    edge = x.copy()
    edge[1, 4, 0] = np.nextafter(-1e12, -np.inf)
    cases.append(("past-the-limit", edge, v, (1, "diverged")))
    # entries whose squares sum past the quick test's bound (0.5e12)^2 but
    # stay within the limit pass; the next float above it names its agent
    for peak in (6e11, 1e12):
        edge = x.copy()
        edge[1, 4, 0] = edge[2, 1, 1] = peak
        cases.append((f"within-{peak:g}", edge, v, None))
        vb = v.copy()
        vb[3, :2, 0] = peak, -peak
        vb[3, -1, 0] = -vb[3, :-1, 0].sum()  # exact: integers below 2^53
        cases.append((f"v-within-{peak:g}", x, vb, None))
    edge = x.copy()
    edge[1, 4, 0] = np.nextafter(1e12, np.inf)
    cases.append(("past-the-limit-above", edge, v,
                  (1, "diverged at iteration 7, agent 4: max |x| entry = "
                      "1.000000e+12")))
    # squares that overflow to inf: the verdict without a warning
    for name in ("x", "v"):
        xb, vb = x.copy(), v.copy()
        (vb if name == "v" else xb)[2] = 1e155
        cases.append((f"1e155-in-{name}", xb, vb,
                      (2, f"diverged at iteration 7, agent 0: max |{name}| "
                          f"entry = 1.000000e+155")))
    # agent sums whose drift sum / N rounds to exactly _DUAL_TOL pass (with
    # max |v| < 1 it is the limit); the first whose drift is above it fails
    for total, want in [(5e-8, None), (np.nextafter(5e-8, 1.0), None),
                        (5.000000000000001e-08,
                         (2, "dual average left zero"))]:
        vb = np.zeros_like(v)
        vb[2, 0, 0] = total
        cases.append((f"drift-at-tol-{float(total)!r}", x, vb, want))
    # replicas 1 and 3 go bad at the same step, each its own way
    for name, xr, vr in [("x", 3, None), ("v", None, 3), ("dual", None, None)]:
        xb, vb = x.copy(), v.copy()
        xb[1, 0, 1] = np.inf
        if xr is not None:
            xb[xr, 2, 0] = np.nan
        if vr is not None:
            vb[vr, 2, 0] = 2e12
        if name == "dual":
            vb[3, :, 1] += 1.0
        cases.append((f"replicas-1-and-3-{name}", xb, vb,
                      (1, "diverged at iteration 7, agent 0: max |x|")))
    # +inf and -inf in one replica's v: named by its |v| entry, and its
    # dual drift (which would sum them to NaN) is never taken
    vb = v.copy()
    vb[2, 1, 1], vb[2, 3, 1] = np.inf, -np.inf
    cases.append(("both-infs-in-v", x, vb,
                  (2, "diverged at iteration 7, agent 1: max |v| entry = "
                      "inf")))
    xb, vb = x.copy(), v.copy()
    vb[1, :, 1] += 1.0
    xb[3, 2, 0] = np.nan
    cases.append(("dual-at-1-x-at-3", xb, vb, (1, "dual average left zero")))
    # a dual drift above _DUAL_TOL but within _DUAL_TOL * max|v| passes;
    # one above that limit names the dual average
    for drift, want in [(5e-9, None), (1e-6, None),
                        (1e-3, (2, "dual average left zero"))]:
        vb = v.copy()
        vb[2, :, 0] += drift
        cases.append((f"drift-{drift:g}", x, vb, want))
    return cases


@pytest.mark.parametrize("name, x, v, want", _guard_cases(),
                         ids=[c[0] for c in _guard_cases()])
def test_guard_matches_replica_search(name, x, v, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _guard_outcome(samplers._guard, 7, x[None],
                             None if v is None else v[None])
    with np.errstate(invalid="ignore"):  # the reference sums every v
        assert got == _guard_outcome(_guard_reference, 7, x, v)
    if want is None:
        assert got is None
    else:
        replica, message = want
        assert got[2] == replica
        assert got[0].startswith(f"GEN_EXTRA_SGLD {message}")
    # the case as the first, middle and last step of a 3-step chunk whose
    # other steps are clean: the same outcome, at the same iteration
    _, clean_x, clean_v, _ = _guard_cases()[0]
    for at in range(3):
        xs = np.stack([x if t == at else clean_x for t in range(3)])
        vs = None if v is None else np.stack(
            [v if t == at else clean_v for t in range(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _guard_outcome(samplers._guard, 7 - at, xs, vs) == got


@pytest.mark.parametrize("dual, nan_v, big_x, want", [
    ((1, 2), (1, 3), (2, 0), (1, 2, "dual average left zero at iteration "
                                    "8: ")),
    ((2, 0), (1, 3), (1, 1), (1, 1, "diverged at iteration 8, agent 2: "
                                    "max |x| entry = 1.000000e+12")),
    ((2, 1), (0, 2), (0, 3), (0, 2, "diverged at iteration 7, agent 4: "
                                    "max |v| entry = nan")),
    ((0, 3), (2, 1), (0, 3), (0, 3, "diverged at iteration 7, agent 2: "
                                    "max |x|")),
], ids=["dual-first", "x-first", "v-first", "x-before-dual-of-one-pair"])
def test_guard_names_the_earliest_pair_of_a_chunk(dual, nan_v, big_x, want):
    # a dual failure, a NaN in v and an x past the limit, each at its own
    # (step, replica) pair of one 3-step chunk from iteration 7
    _, x, v, _ = _guard_cases()[0]
    xs, vs = np.stack([x] * 3), np.stack([v] * 3)
    vs[dual][:, 1] += 1.0
    vs[nan_v][4, 0] = np.nan
    xs[big_x][2, 1] = np.nextafter(-1e12, -np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _guard_outcome(samplers._guard, 7, xs, vs)
    with np.errstate(invalid="ignore"):
        assert got == _guard_outcome(_chunk_reference, 7, xs, vs)
    step, replica, message = want
    assert got[2:4] == (replica, 7 + step)
    assert got[0].startswith(f"GEN_EXTRA_SGLD {message}")


@pytest.fixture
def guard_spy(monkeypatch):
    """Every chunk samplers._guard checks, copied: see `GuardSpy`."""
    return GuardSpy(monkeypatch)


@dataclasses.dataclass(frozen=True)
class FarOracle(QuadOracle):
    """Agent gradients 4e10 apart: the generalized chain's v tracks them
    out to about 1e11 within 10 steps and stays inside the ball."""

    def grad_block(self, x, rows=None):
        return x - 4e10 * (np.arange(self.n_agents) - 2.5)[:, None]


class TestChunkedGuard:
    """The guard checks a chunk of steps at once.  Forced to chunks of 3
    (iterations 1-3, 4-6, 7-9, ...) by the chunk rule's noise budget, it
    raises what a guard after every step raises: the same message,
    replica, iteration, agent and value."""

    @staticmethod
    def _raised(monkeypatch, steps, step_bytes, run):
        """What ``run()`` raises with chunks of ``steps`` steps of
        ``step_bytes`` of Gaussian blocks each."""
        monkeypatch.setattr(samplers, "_NOISE_BYTES", steps * step_bytes)
        with pytest.raises(ChainDivergenceError) as info:
            run()
        e = info.value
        return str(e), e.algorithm, e.replica, e.k, e.agent, repr(e.value)

    @pytest.mark.parametrize("at", [7, 8, 9], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("algo", ["DE_SGLD", "EXTRA_SGLD",
                                      "GEN_EXTRA_SGLD"])
    def test_burst_at_each_step_of_a_chunk(self, monkeypatch, guard_spy,
                                           algo, at):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        cfg = SamplerConfig(algo, eta=0.01, steps=20)
        step_bytes = 8 * 3 * 6 * 3  # the blocks of 3 replicas

        def run():
            # replica 0 bursts one step later than replicas 1 and 2
            noises = [Burst(1, at + 1), Burst(2, at), Burst(3, at)]
            run_ensemble(task, cfg, [1, 2, 3], mixing=ms, noises=noises)

        chunked = self._raised(monkeypatch, 3, step_bytes, run)
        assert guard_spy.lengths == [3, 3, 3]
        guard_spy.chunks.clear()
        assert chunked == self._raised(monkeypatch, 1, step_bytes, run)
        assert guard_spy.lengths == [1] * at
        assert chunked[2:4] == (1, at)
        assert chunked[0].startswith(
            f"{algo} diverged at iteration {at}, agent ")

    @pytest.mark.parametrize("extra, replica, k", [
        (None, 0, 1), (2e-9, 2, 2), (1.5e-9, 2, 3), (8e-10, 1, 6)])
    def test_u_with_nonzero_column_sums(self, monkeypatch, guard_spy,
                                        extra, replica, k):
        # U = 0.1 I, or the mixing set's U plus extra * I: column sums that
        # move the dual average from the first step, or a few steps on
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        u = 0.1 * np.eye(6) if extra is None else ms.u + extra * np.eye(6)
        raw = RawMixing(w=ms.w, w_tilde=ms.w_tilde, u=u)
        cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=20)

        step_bytes = 8 * 3 * 6 * 3  # the blocks of 3 replicas

        def run():
            run_ensemble(task, cfg, [1, 2, 3], mixing=raw)

        chunked = self._raised(monkeypatch, 3, step_bytes, run)
        assert guard_spy.lengths == [3] * -(-k // 3)
        assert chunked == self._raised(monkeypatch, 1, step_bytes, run)
        assert chunked[0].startswith(
            f"GEN_EXTRA_SGLD dual average left zero at iteration {k}: ")
        assert chunked[2:5] == (replica, k, None)

    def test_far_chunks_inside_the_ball_run_to_the_end(self, monkeypatch,
                                                       guard_spy):
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=30)
        monkeypatch.setattr(samplers, "_NOISE_BYTES", 3 * 8 * 2 * 6 * 2)
        res = run_ensemble(FarOracle(6, 2), cfg, [1, 2], mixing=ms)
        # one guard call a chunk: v's sums of squares, and the roundoff of
        # its agent sums (about 1e-6 a step), fail the fast bounds of every
        # chunk, so each is judged pair by pair; no pair is out of the
        # ball or past its dual limit
        assert guard_spy.lengths == [3] * 10
        _, v_all = guard_spy.iterates(res.shape[1:])
        vs = v_all[7:]  # iterations 7 to 30: each one's peak |v| ~ 1e11
        peaks = np.abs(vs).max(axis=(1, 2, 3))
        assert (9e10 < peaks).all() and (peaks < 2e11).all()
        assert np.vdot(vs, vs) > (0.5 * samplers._DIVERGENCE_LIMIT) ** 2
        assert not any(samplers._dual_inside(v) for v in v_all[1:])
        # the guard moves no bit
        guard_spy.chunks.clear()
        monkeypatch.setattr(samplers, "_NOISE_BYTES", 1)
        one = run_ensemble(FarOracle(6, 2), cfg, [1, 2], mixing=ms)
        assert guard_spy.lengths == [1] * 30
        assert np.array_equal(one, res)
        assert np.array_equal(guard_spy.iterates(one.shape[1:])[1], v_all)


class TestDualAverage:
    def test_vbar_exactly_zero_within_tolerance(self, guard_spy):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        res = run_ensemble(
            task, SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=300),
            [77], mixing=ms,
        )
        _, vs = guard_spy.iterates(res.shape[1:])
        assert len(vs) == 301
        vbar = vs[:, 0].mean(axis=1)
        assert np.max(np.abs(vbar)) <= 1e-10

    def test_v_costs_no_record_memory(self):
        # x records of 20 replicas over 2000 steps fill 3.8 MB; a chain
        # that also kept v's would peak at twice DE-SGLD's
        task = _toy_task(d=2)
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        peaks = {}
        for algo in ("DE_SGLD", "GEN_EXTRA_SGLD"):
            tracemalloc.start()
            try:
                run_ensemble(task, SamplerConfig(algo, eta=0.01, steps=2000),
                             list(range(20)), mixing=ms)
                peaks[algo] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["GEN_EXTRA_SGLD"] <= 1.3 * peaks["DE_SGLD"], peaks


class TestZeroTemperature:
    def test_gen_extra_finds_minimizer_and_dgd_is_biased(self):
        task = _toy_task(seed=5, n_agents=4, n_i=5, d=2)
        ms = build_mixing_set(ring(4), h=0.4, delta=0.2)
        star = task.minimizer()
        gen = run_ensemble(
            task,
            SamplerConfig(
                "GEN_EXTRA_SGLD", eta=0.01, steps=8000, temperature=0.0,
            ),
            [1],
            mixing=ms,
            record_every=8000,
        )
        gen_err = np.max(
            np.linalg.norm(gen[-1, 0] - star[None, :], axis=1)
        )
        assert gen_err <= 1e-8

        def dgd_err(eta):
            res = run_ensemble(
                task,
                SamplerConfig(
                    "DE_SGLD", eta=eta, steps=20000, temperature=0.0
                ),
                [1],
                mixing=ms,
                record_every=20000,
            )
            return np.max(
                np.linalg.norm(res[-1, 0] - star[None, :], axis=1)
            )

        e1 = dgd_err(0.01)
        e2 = dgd_err(0.005)
        assert e1 > 1e-3
        assert 0.8 * 0.5 <= e2 / e1 <= 1.2 * 0.5


    @pytest.mark.parametrize("algo", ["ULA", "REFERENCE_CHAIN", "DE_SGLD",
                                      "EXTRA_SGLD"])
    def test_no_noise_where_two_over_eta_overflows(self, algo):
        # sqrt(2 / eta) = inf at eta = 5e-324; temperature 0 still means
        # exactly no noise, so every seed runs the same finite chain
        task = _toy_task(seed=5, n_agents=4, n_i=5, d=2)
        ms = build_mixing_set(ring(4), h=0.4, delta=0.2)
        cfg = SamplerConfig(algo, eta=5e-324, steps=3, temperature=0.0)
        xs = run_ensemble(task, cfg, [1, 2], mixing=ms)
        assert np.all(np.isfinite(xs))
        assert np.array_equal(xs[:, 0], xs[:, 1])


def test_overflowed_dual_noise_is_named_by_its_v_entry():
    # at eta = 5e-324 the dual noise scale sqrt(2 / eta) is inf: the first
    # step leaves +-inf in v, and the guard names |v| without summing it
    task = _toy_task(seed=5, n_agents=4, n_i=5, d=2)
    ms = build_mixing_set(ring(4), h=0.4, delta=0.2)
    cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=5e-324, steps=3)
    with pytest.raises(ChainDivergenceError,
                       match=r"^GEN_EXTRA_SGLD diverged at iteration 1, "
                             r"agent \d: max \|v\| entry = inf ") as info:
        run_ensemble(task, cfg, [1, 2, 3], mixing=ms)
    assert (info.value.replica, info.value.k) == (0, 1)


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
            # a full-batch chain reads only the Gaussian blocks
            def __init__(self, base, perm):
                self.base, self.perm = base, perm
                self.n_agents, self.dim = base.n_agents, base.dim

            def gaussian_blocks(self, k0, out):
                for j, blk in enumerate(out):
                    blk[...] = gaussian_block(self.base, k0 + j)[self.perm]
                return out

        cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=120)
        base_noise = NoiseStream(31, n, 2)
        res = run_ensemble(task, cfg, [31], mixing=ms, noises=[base_noise])
        res_p = run_ensemble(
            task_p, cfg, [31], mixing=ms,
            noises=[PermNoise(base_noise, perm)],
        )
        assert np.max(np.abs(res_p - res[:, :, perm, :])) <= 1e-12


class TestChainMechanics:
    def test_k_zero_records_initial_only(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        res = run_ensemble(
            task, SamplerConfig("DE_SGLD", eta=0.01, steps=0), [1],
            mixing=ms,
        )
        assert np.array_equal(res, np.zeros((1, 1, 6, 3)))

    def test_record_every_includes_final(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        cfg = SamplerConfig("DE_SGLD", eta=0.01, steps=20)
        res = run_ensemble(task, cfg, [1], mixing=ms, record_every=7)
        every = run_ensemble(task, cfg, [1], mixing=ms)
        assert np.array_equal(res, every[[0, 7, 14, 20]])

    def test_bit_identical_rerun(self, guard_spy):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=60)
        a = run_ensemble(task, cfg, [3], mixing=ms)
        a_v = guard_spy.iterates(a.shape[1:])[1]
        guard_spy.chunks.clear()
        b = run_ensemble(task, cfg, [3], mixing=ms)
        assert np.array_equal(a, b)
        assert np.array_equal(a_v, guard_spy.iterates(b.shape[1:])[1])

    def test_batch_changes_draws_but_stays_deterministic(self):
        task = _toy_task(n_i=5)
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        full = run_ensemble(
            task, SamplerConfig("DE_SGLD", eta=0.01, steps=30), [4],
            mixing=ms,
        )
        b1 = run_ensemble(
            task, SamplerConfig("DE_SGLD", eta=0.01, steps=30, batch=2),
            [4], mixing=ms,
        )
        b2 = run_ensemble(
            task, SamplerConfig("DE_SGLD", eta=0.01, steps=30, batch=2),
            [4], mixing=ms,
        )
        assert np.array_equal(b1, b2)
        assert not np.array_equal(full, b1)

    def test_divergence_guard_names_iteration(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        with pytest.raises(ChainDivergenceError,
                           match=r"^DE_SGLD diverged at iteration \d+, "
                                 r"agent [0-5]: max \|x\| entry"):
            run_ensemble(
                task, SamplerConfig("DE_SGLD", eta=50.0, steps=500), [5],
                mixing=ms,
            )

        @dataclasses.dataclass(frozen=True)
        class SpikeOracle(QuadOracle):
            """Agent 3's gradient alone leaves the guard ball at once."""

            def grad_block(self, x, rows=None):
                return x - 1e16 * (np.arange(self.n_agents) == 3)[:, None]

        for algo in ("DE_SGLD", "EXTRA_SGLD", "GEN_EXTRA_SGLD"):
            with pytest.raises(ChainDivergenceError,
                               match=f"^{algo} diverged at iteration 1, "
                                     "agent 3:"):
                run_ensemble(SpikeOracle(6, 2),
                             SamplerConfig(algo, eta=0.01, steps=5), [5],
                             mixing=ms)

    def test_earliest_iteration_wins_over_lower_replica(self):
        task = _toy_task()
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=20)
        noises = [Burst(1, 9), Burst(2, 4), Burst(3, 4)]
        with pytest.raises(ChainDivergenceError,
                           match=r"^GEN_EXTRA_SGLD diverged at iteration 4, "
                                 r"agent \d: max \|x\| entry") as info:
            run_ensemble(task, cfg, [1, 2, 3], mixing=ms, noises=noises)
        assert (info.value.replica, info.value.k) == (1, 4)
        assert info.value.value > 1e290

    def test_reference_chain_noise_scale(self):
        # grad == 0: one step gives i.i.d. N(0, 2 eta / N) coordinates.
        n, d, eta = 5, 20000, 0.01
        res = run_ensemble(
            ZeroOracle(n, d),
            SamplerConfig("REFERENCE_CHAIN", eta=eta, steps=1), [8],
        )
        var = res[-1].var()
        expect = 2.0 * eta / n
        assert abs(var - expect) <= 5.0 * expect * np.sqrt(2.0 / d)


class TestSamplerConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SamplerConfig("NOPE", eta=0.1, steps=1)
        with pytest.raises(ValueError):
            SamplerConfig("ULA", eta=0.0, steps=1)
        with pytest.raises(ValueError):
            SamplerConfig("ULA", eta=0.1, steps=-1)
        with pytest.raises(ValueError):
            SamplerConfig("ULA", eta=0.1, steps=1, temperature=0.5)
        with pytest.raises(ValueError):
            SamplerConfig("ULA", eta=0.1, steps=1, b_mode="junk")
        with pytest.raises(ValueError, match="^eta: must be finite$"):
            SamplerConfig("ULA", eta=math.inf, steps=1)
        with pytest.raises(ValueError, match="^b_scale: must be finite$"):
            SamplerConfig("ULA", eta=0.1, steps=1, b_scale=math.nan)
        with pytest.raises(ValueError, match="^temperature: must be finite$"):
            SamplerConfig("ULA", eta=0.1, steps=1, temperature=math.inf)
        with pytest.raises(ValueError) as err:  # one line per bad field
            SamplerConfig("NOPE", eta=0.1, steps=-1, b_mode="junk")
        assert str(err.value).splitlines() == [
            f"algorithm: 'NOPE' not one of {ALGORITHMS}",
            "steps: must be >= 0, got -1",
            f"b_mode: 'junk' not one of {B_MODES}",
        ]

    def test_missing_mixing_rejected(self):
        task = _toy_task()
        with pytest.raises(ValueError, match="mixing"):
            run_ensemble(
                task, SamplerConfig("DE_SGLD", eta=0.01, steps=1), [0]
            )

    def test_bad_ensemble_arguments_rejected(self):
        task = _toy_task()  # 6 agents
        cfg = SamplerConfig("DE_SGLD", eta=0.01, steps=1)
        with pytest.raises(ValueError, match="^oracle has 6 agents but "
                                             "mixing has 4$"):
            run_ensemble(task, cfg, [0], mixing=build_mixing_set(
                ring(4), h=0.3, delta=0.2))
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        with pytest.raises(ValueError,
                           match="^run_ensemble needs at least one seed$"):
            run_ensemble(task, cfg, [], mixing=ms)
        with pytest.raises(ValueError, match="^need one noise stream per "
                                             "seed, got 1 streams for 2 "
                                             "seeds$"):
            run_ensemble(task, cfg, [0, 1], mixing=ms,
                         noises=[NoiseStream(0, 6, task.dim)])
        with pytest.raises(ValueError, match="^record_every must be >= 1$"):
            record_ks(5, 0)


def _scalar_table(noises, ks, n_agents, n, batch):
    """batch_table's definition, one ``batch_rng(k, i).choice`` at a time."""
    return np.array([[[nz.batch_rng(k, i).choice(n, batch, replace=False)
                       for i in range(n_agents)] for nz in noises]
                     for k in ks])


@pytest.fixture
def batch_rng_calls(monkeypatch):
    """Counts NoiseStream.batch_rng calls: the scalar draws."""
    calls = []
    real = NoiseStream.batch_rng

    def counted(self, k, i):
        calls.append((k, i))
        return real(self, k, i)

    monkeypatch.setattr(NoiseStream, "batch_rng", counted)
    return calls


class TestBatchTable:
    """The vectorized table copies numpy's ``Generator.choice(n, b,
    replace=False)`` on Philox.  If a numpy release changes that
    algorithm, these comparisons fail instead of the streams shifting."""

    def test_philox_matches_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            key = int(rng.integers(0, 2**64, dtype=np.uint64)) << 64 | int(
                rng.integers(0, 2**64, dtype=np.uint64))
            ctr = rng.integers(1, 2**64, 4, dtype=np.uint64)
            # numpy steps word 0 of its counter before each block
            ref = np.random.Philox(key=key, counter=ctr - np.array(
                [1, 0, 0, 0], dtype=np.uint64)).random_raw(4)
            words = philox4x64(
                tuple(np.array([c], dtype=np.uint64) for c in ctr),
                (np.array([key & (2**64 - 1)], dtype=np.uint64),
                 np.array([key >> 64], dtype=np.uint64)))
            assert [int(w[0]) for w in words] == [int(r) for r in ref]

    @pytest.mark.parametrize("n, b", [
        (1, 1), (7, 1), (5, 5), (100, 1), (100, 32), (100, 100),
        (1000, 999), (9999, 17), (9999, 199), (9999, 200),
        (10001, 200), (10001, 201), (20000, 100),
    ])
    def test_equals_choice_on_every_stream(self, n, b, batch_rng_calls):
        noises = [NoiseStream(derive_seed(4, "replica", r), 3, 2)
                  for r in range(2)]
        ks = [0, 1, 37]
        table = batch_table(noises, ks, 3, n, b)
        assert table.shape == (3, 2, 3, b) and table.dtype == np.int64
        # numpy's tail-shuffle branch is drawn by the scalar choice
        tail = n > 10000 and b > n // 50
        assert len(batch_rng_calls) == (3 * 2 * 3 if tail else 0)
        assert np.array_equal(table, _scalar_table(noises, ks, 3, n, b))

    def test_floyd_bitmaps_in_blocks(self, monkeypatch):
        # two streams a block (100 + 32 * 17 bytes each): the 36 streams
        # take 18 blocks
        monkeypatch.setattr(samplers, "_STREAM_BYTES", 2 * (100 + 32 * 17))
        noises = [NoiseStream(s, 6, 2) for s in (3, 4)]
        assert np.array_equal(batch_table(noises, range(3), 6, 100, 9),
                              _scalar_table(noises, range(3), 6, 100, 9))

    def test_high_key_word_and_large_counters(self):
        seed = (0xDEADBEEF << 64) | 0x0123456789ABCDEF
        noises = [NoiseStream(seed, 1, 1), NoiseStream(2**128 - 1, 1, 1)]
        ks = [2**32 + 5, 2**63 + 11, 2**64 - 1]
        # agent (counter word 2) up to 299
        assert np.array_equal(batch_table(noises, ks, 300, 12, 3),
                              _scalar_table(noises, ks, 300, 12, 3))

    def test_lemire_rejection_falls_back(self, batch_rng_calls):
        # Found by a search over k: the fifth 32-bit draw of this stream
        # (Floyd's last, on [0, 9713]) is rejected, so numpy draws again
        # and every later draw shifts by one.
        seed, k, i, n, b = 20241018, 474353, 3, 9714, 5
        nz = NoiseStream(seed, 4, 1)
        table = batch_table([nz], [k], 4, n, b)
        assert batch_rng_calls == [(k, i)]
        assert np.array_equal(table[0, 0, i],
                              nz.batch_rng(k, i).choice(n, b, replace=False))
        assert np.array_equal(table, _scalar_table([nz], [k], 4, n, b))

    @pytest.mark.parametrize("batch, n", [(6, 5), (0, 8), (9, 8)],
                             ids=["6-of-5", "0-of-8", "9-of-8"])
    def test_batch_outside_shard_rejected(self, batch, n):
        nz = NoiseStream(1, 2, 1)
        with pytest.raises(ValueError, match=re.escape(
                f"batch size {batch} outside [1, {n}]")):
            batch_table([nz], [0], 2, n, batch)

    @pytest.mark.parametrize("n, b", [(100, 32), (10001, 201)],
                             ids=["floyd", "tail-shuffle"])
    def test_no_steps_give_an_empty_table(self, n, b, batch_rng_calls):
        noises = [NoiseStream(s, 3, 2) for s in (1, 2)]
        table = batch_table(noises, [], 3, n, b)
        assert table.shape == (0, 2, 3, b) and table.dtype == np.int64
        assert batch_rng_calls == []


_LO32 = np.uint64(0xFFFFFFFF)


def _reference_floyd_rows(u32, n, b):
    """The Floyd kernel as it was: one (S, b) row per stream, a (S, n)
    bitmap indexed by (stream, value) pairs, and the Lemire products
    formed as an (S, draws) array."""
    bound = np.concatenate([np.arange(max(n - b, 1), n),
                            np.arange(b - 1, 0, -1)]).astype(np.uint64)
    span = bound + np.uint64(1)
    m = u32[:, :bound.size] * span
    rejected = ((m & _LO32) < (_LO32 - bound) % span).any(axis=1)
    m >>= np.uint64(32)
    draws = iter(m.T)
    rows = np.arange(u32.shape[0])
    out = np.empty((rows.size, b), dtype=np.int64)
    taken = np.zeros((rows.size, n), dtype=bool)
    for t, j in enumerate(range(n - b, n)):
        val = next(draws) if j else np.zeros(rows.size, dtype=np.uint64)
        out[:, t] = np.where(taken[rows, val], j, val)
        taken[rows, out[:, t]] = True
    for t in range(b - 1, 0, -1):
        j = next(draws)
        out[:, t], out[rows, j] = out[rows, j], out[:, t].copy()
    return out, rejected


# b = n: Floyd's j = 0 step takes no draw; b = 1: no shuffle; n = 1: no
# draw at all
_FLOYD_GRID = [(1, 1), (7, 1), (5, 5), (100, 32), (100, 100), (300, 17),
               (9999, 200)]


class TestFloydKernel:
    """`_floyd_rows` on (draws, S) rows, a flat bitmap and a (b, S) output
    equals the row-per-stream kernel it replaced, rows and rejection masks
    alike."""

    @pytest.mark.parametrize("n, b", _FLOYD_GRID)
    def test_random_draws_equal_reference(self, n, b):
        rng = np.random.default_rng(1000 * n + b)
        n_streams, n_draws = 37, 2 * b - 1 - (n == b)
        u32 = rng.integers(0, 2**32, (n_streams, n_draws + 5),
                           dtype=np.uint32)
        # 2^32 - 1 draws the bound itself: value j in Floyd's step, a
        # self-swap (j = t) in the shuffle.  0 is rejected on every bound
        # but 2^q - 1; every third stream gets one.
        u32[rng.random(u32.shape) < 0.05] = 0xFFFFFFFF
        hit = np.arange(0, n_streams, 3)
        if n_draws:
            u32[hit, rng.integers(0, n_draws, hit.size)] = 0
        rows, rejected = _reference_floyd_rows(u32, n, b)
        cols, mask = samplers._floyd_rows(u32.T.astype(np.uint64), n, b)
        assert cols.shape == (b, n_streams) and cols.dtype == np.int64
        assert np.array_equal(cols.T, rows)
        assert np.array_equal(mask, rejected)
        if n_draws:
            assert 0 < rejected.sum() < n_streams
        n_floyd = n_draws - (b - 1)
        if b > 1:
            assert (u32[:, n_floyd:n_draws] == 0xFFFFFFFF).any()

    @pytest.mark.parametrize("n, b", _FLOYD_GRID)
    def test_table_in_blocks_that_do_not_divide_the_streams(
            self, monkeypatch, n, b):
        # 4 streams a block; 3 steps x 2 replicas x 3 agents = 18
        n_draws = 2 * b - 1 - (n == b)
        monkeypatch.setattr(samplers, "_STREAM_BYTES",
                            4 * (n + 32 * n_draws))
        noises = [NoiseStream(derive_seed(9, "replica", r), 3, 2)
                  for r in range(2)]
        assert np.array_equal(batch_table(noises, [0, 5, 11], 3, n, b),
                              _scalar_table(noises, [0, 5, 11], 3, n, b))


def _logreg_chain_vs_written_out(guard_spy, steps, batch_rng_calls=None):
    task = _toy_logreg(seed=5)
    ms = build_mixing_set(ring(6), h=0.35, delta=0.2)
    cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.02, steps=steps, batch=3)
    res = run_ensemble(task, cfg, [41], mixing=ms)
    if batch_rng_calls is not None:
        assert batch_rng_calls == []
    xs, vs = _written_out_chain(task, cfg, 41, ms)
    assert np.array_equal(res[:, 0], xs)
    assert np.array_equal(guard_spy.iterates(res.shape[1:])[1][:, 0], vs)


@pytest.fixture
def table_calls(monkeypatch):
    """The ks of every batch_table call: one a chunk of rows."""
    calls = []
    real = samplers.batch_table

    def counted(noises, ks, *args):
        calls.append(list(ks))
        return real(noises, ks, *args)

    monkeypatch.setattr(samplers, "batch_table", counted)
    return calls


@pytest.mark.parametrize("budget", ["_TABLE_BYTES", "_STREAM_BYTES"])
@pytest.mark.parametrize("steps", ["0", "1", "chunk-1", "chunk+1"])
def test_minibatch_chain_across_table_chunks(monkeypatch, table_calls,
                                             guard_spy, budget, steps):
    # chunks of 7 steps for the 6 streams of 3 rows a step of this chain:
    # 3 rows of 5 words (3 dimensions, label, index) a stream, or 8 + 32 * 5
    # bytes of draws and bitmaps a stream out of 8 shard rows
    chunk = 7
    per_stream = {"_TABLE_BYTES": 3 * 8 * 5, "_STREAM_BYTES": 8 + 32 * 5}
    monkeypatch.setattr(samplers, budget, chunk * 6 * per_stream[budget])
    steps = {"0": 0, "1": 1, "chunk-1": chunk - 1, "chunk+1": chunk + 1}[steps]
    _logreg_chain_vs_written_out(guard_spy, steps)
    assert table_calls == [list(range(k, min(k + chunk, steps)))
                           for k in range(0, steps, chunk)]


def test_minibatch_chain_at_default_chunk_draws_no_scalar_batches(
        table_calls, batch_rng_calls, guard_spy):
    # one replica of 6 agents in 3 dimensions, 3 of 8 rows a shard
    steps = samplers._chunk_steps((1, 6, 3), _toy_logreg(seed=5), 3) + 1
    assert steps < 3000
    _logreg_chain_vs_written_out(guard_spy, steps, batch_rng_calls)
    assert [len(ks) for ks in table_calls] == [steps - 1, 1]


@pytest.mark.parametrize("kind", ["linreg", "logreg"])
def test_minibatch_ensemble_bits_do_not_depend_on_the_chunk(monkeypatch,
                                                             table_calls,
                                                             kind):
    """Chunks of 1 and 3 steps, and the default, give the same
    trajectories, for every algorithm that moves x by its gradients."""
    task = _toy_logreg(seed=8) if kind == "logreg" else _toy_task(seed=8,
                                                                  n_i=8)
    ms = build_mixing_set(ring(6), h=0.35, delta=0.2)
    seeds = [3, 4]
    per_step = len(seeds) * 6 * 3 * 8 * (task.dim + 2)
    for algo in ALGORITHMS:
        cfg = SamplerConfig(algo, eta=0.02, steps=10, batch=3)
        mixing = None if algo in samplers.CENTRALIZED else ms
        runs = []
        for budget in (None, 1, 3):
            table_calls.clear()
            with monkeypatch.context() as m:
                if budget is not None:
                    m.setattr(samplers, "_TABLE_BYTES", budget * per_step)
                runs.append(run_ensemble(task, cfg, seeds,
                                         mixing=mixing))
            size = budget or cfg.steps
            assert [len(ks) for ks in table_calls] == [
                min(size, cfg.steps - k) for k in range(0, cfg.steps, size)]
        for xs in runs[1:]:
            assert np.array_equal(xs, runs[0]), algo
