"""Acceptance gate: one numbered end-to-end check per core claim.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Every tolerance and runtime budget is pinned in the
asserts; master seeds are fixed so the ratio comparisons are
reproducible.  Nothing here reaches into implementation internals: all
checks go through the public API, the way a downstream user would.
"""

import itertools
import os
import time

import numpy as np
import pytest

from exlg.metrics import plateau, w2_batch
from exlg.network import (
    build_mixing_set,
    make_topology,
    validate_assumptions,
)
from exlg.samplers import SamplerConfig, derive_seed, run_ensemble
from exlg.tasks import (
    GaussianDist,
    LinRegTask,
    LogRegTask,
    gen_linreg_data,
    gen_logreg_data,
    load_csv_dataset,
    partition_data,
)
from exlg.theory import (
    bound_w2_mean,
    compute_constants,
    problem_params_from,
    shrink_to_admissible,
    validate_stepsize,
)

from oracles import RawMixing, accuracy, w2_gaussian

# Master seeds, fixed once: the desk-scale ratio checks (3, 4, 9, 10)
# assert inequalities between seeded runs, so the seeds are part of the
# pinned recipe.
SEED_DESK = 42
SEED_BIAS = 304
SEED_LOGISTIC = 1010

# Tuned h per topology for the desk-scale linear-regression recipe
# (argmin-plateau picks from the h sweep at this problem size).
H_BY_TOPOLOGY = {
    "fully-connected": 0.50,
    "ring": 0.38,
    "star": 0.13,
    "disconnected": 0.38,
}

CONNECTED = ("fully-connected", "ring", "star")


def _under(t0, limit, label):
    dt = time.monotonic() - t0
    assert dt < limit, f"{label} took {dt:.1f}s, budget {limit}s"


def _pinned_mixing(kind, n, h):
    """delta = 0.5 / lambda_max(L), so lambda_min(W) = 0.5 everywhere and
    plateau comparisons across topologies share a spectral floor."""
    top = make_topology(kind, n)
    lap = np.diag(top.adjacency.sum(axis=1)) - top.adjacency
    lam_max = float(np.linalg.eigvalsh(lap)[-1])
    delta = 0.5 / lam_max if lam_max > 0 else 1.0
    return build_mixing_set(top, h=h, delta=delta)


def _ensemble(task, ms, algo, *, eta, steps, reps, master, record_every,
              batch=None, temperature=1.0):
    seeds = [derive_seed(master, algo, r) for r in range(reps)]
    scfg = SamplerConfig(algorithm=algo, eta=eta, steps=steps, batch=batch,
                         temperature=temperature)
    res = run_ensemble(task, scfg, seeds, mixing=ms,
                       record_every=record_every)
    return res.ks, res.xs


def _linreg_task(master, n_points, n_agents, dim, per_agent=None,
                 prior_var=1.0):
    rng = np.random.default_rng(derive_seed(master, "data"))
    beta = rng.standard_normal(dim)
    x, y = gen_linreg_data(n_points, beta, 1.0, rng)
    xs, ys = partition_data(x, y, n_agents, rng, per_agent=per_agent)
    return LinRegTask(xs=xs, ys=ys, prior_var=prior_var)


@pytest.fixture(scope="module")
def desk_linreg():
    # 5000 simulated points, seeded subsample to 50 per agent: the full
    # shard count pushes eta*L past 1 and every sampler diverges, so the
    # recipe runs on the logged 50-point shards and targets the posterior
    # of the points actually used.
    return _linreg_task(SEED_DESK, 5000, 20, 2, per_agent=50)


# ---------------------------------------------------------------------------


def test_01_reduction_equivalences():
    t0 = time.monotonic()
    task = _linreg_task(11, 60, 6, 3)
    ms = build_mixing_set(make_topology("ring", 6), h=0.38, delta=0.15)
    no_coupling = RawMixing(w=ms.w, w_tilde=ms.w, u=np.zeros_like(ms.w))

    def chain(algo, mixing, seed, **kw):
        cfg = SamplerConfig(algo, eta=0.01, steps=200, **kw)
        return run_ensemble(task, cfg, [seed], mixing=mixing).xs

    # (a) generalized chain with U = 0 is plain decentralized SGLD
    dev_a = np.max(np.abs(chain("GEN_EXTRA_SGLD", no_coupling, 7)
                          - chain("DE_SGLD", ms, 7)))
    # (b) generalized chain with B = W~/eta is the two-step form
    dev_b = np.max(np.abs(
        chain("GEN_EXTRA_SGLD", ms, 8, b_mode="wtilde-over-eta")
        - chain("EXTRA_SGLD", ms, 8)))
    # (c) the two-step form with W~ = W is plain decentralized SGLD
    dev_c = np.max(np.abs(chain("EXTRA_SGLD", no_coupling, 9)
                          - chain("DE_SGLD", ms, 9)))
    assert dev_a <= 1e-8
    assert dev_b <= 1e-8
    assert dev_c <= 1e-8
    _under(t0, 1.0, "reduction equivalences")


def test_02_dual_average_stays_zero():
    t0 = time.monotonic()
    task = _linreg_task(22, 60, 6, 2)
    ms = build_mixing_set(make_topology("ring", 6), h=0.3, delta=0.2)
    for seed in range(20):
        b_mode = "scaled-identity" if seed % 2 else "wtilde-over-eta"
        cfg = SamplerConfig("GEN_EXTRA_SGLD", eta=0.01, steps=1000,
                            b_mode=b_mode, b_scale=1.0)
        res = run_ensemble(task, cfg, [seed], mixing=ms)
        vbar = res.vs[:, 0].mean(axis=1)
        assert np.max(np.abs(vbar)) <= 1e-10, f"seed {seed}"
    _under(t0, 5.0, "dual average")


def test_03_bias_elimination_zero_temperature():
    t0 = time.monotonic()
    # 3 points per agent keeps eta*L well under the spectral gap, so the
    # fixed-point error of the gossip-only method sits in its linear-in-eta
    # regime and halving eta should halve it.
    task = _linreg_task(SEED_BIAS, 18, 6, 2)
    ms = build_mixing_set(make_topology("ring", 6), h=0.38, delta=0.25)
    xstar = task.minimizer()

    def terminal_error(algo, eta):
        cfg = SamplerConfig(algo, eta=eta, steps=10_000, temperature=0.0)
        res = run_ensemble(task, cfg, [1], mixing=ms, record_every=10_000)
        return float(np.max(np.linalg.norm(res.xs[-1, 0] - xstar, axis=1)))

    assert terminal_error("GEN_EXTRA_SGLD", 0.01) <= 1e-8
    dgd = terminal_error("DE_SGLD", 0.01)
    dgd_half = terminal_error("DE_SGLD", 0.005)
    assert dgd > 1e-3
    assert 0.4 <= dgd_half / dgd <= 0.6  # halving eta halves it, +/-20%
    _under(t0, 10.0, "bias elimination")


def test_04_linreg_desk_scale_topology_comparison(desk_linreg):
    t0 = time.monotonic()
    target = desk_linreg.target()
    plateaus = {}
    for kind, h in H_BY_TOPOLOGY.items():
        ms = _pinned_mixing(kind, 20, h)
        for algo in ("GEN_EXTRA_SGLD", "DE_SGLD"):
            ks, xs_all = _ensemble(desk_linreg, ms, algo, eta=0.009,
                                   steps=200, reps=200, master=SEED_DESK,
                                   record_every=10)
            mean_vals = w2_batch(xs_all.mean(axis=2), target)
            per_agent = np.stack([
                w2_batch(xs_all[:, :, a, :], target)
                for a in range(xs_all.shape[2])
            ]).mean(axis=0)
            for label, vals in (("w2_mean", mean_vals),
                                ("w2_agents", per_agent)):
                p = plateau(vals)
                assert np.isfinite(p) and p > 0, (kind, algo, label)
                # decay then plateau: drops at least 2x from the start,
                # and the last 30% of points hug the floor within 3x
                assert vals[0] > 2.0 * p, (kind, algo, label)
                tail = vals[-(len(vals) * 3 // 10):]
                assert np.all(tail <= 3.0 * p), (kind, algo, label)
                assert np.all(tail >= p / 3.0), (kind, algo, label)
                plateaus[(kind, algo, label)] = p

    strict = 0
    for kind in CONNECTED:
        for label in ("w2_mean", "w2_agents"):
            gen = plateaus[(kind, "GEN_EXTRA_SGLD", label)]
            de = plateaus[(kind, "DE_SGLD", label)]
            assert gen <= 1.05 * de, (kind, label, gen, de)
        if (plateaus[(kind, "GEN_EXTRA_SGLD", "w2_agents")]
                < plateaus[(kind, "DE_SGLD", "w2_agents")]):
            strict += 1
    assert strict >= 2, f"strict improvement on {strict}/3 topologies"
    _under(t0, 300.0, "desk-scale comparison")


def test_05_w2_closed_forms():
    t0 = time.monotonic()
    rng = np.random.default_rng(55)

    def random_gaussian(d):
        a = rng.standard_normal((d, d))
        return GaussianDist(rng.standard_normal(d),
                            a @ a.T + 0.1 * np.eye(d))

    for _ in range(500):
        d = int(rng.integers(1, 5))
        a, b = random_gaussian(d), random_gaussian(d)
        assert abs(w2_gaussian(a, b) - w2_gaussian(b, a)) <= 1e-8

    for _ in range(50):
        m = float(rng.standard_normal())
        s1, s2 = np.exp(rng.standard_normal(2))
        one_d = abs(w2_gaussian(GaussianDist([m], [[s1 * s1]]),
                                GaussianDist([m], [[s2 * s2]]))
                    - abs(s1 - s2))
        assert one_d <= 1e-10
        shift = rng.standard_normal(3)
        cov = np.diag(np.exp(rng.standard_normal(3)))
        pure_shift = abs(w2_gaussian(GaussianDist(np.zeros(3), cov),
                                     GaussianDist(shift, cov))
                         - float(np.linalg.norm(shift)))
        assert pure_shift <= 1e-10

    for _ in range(50):
        d = int(rng.integers(2, 5))
        m1, m2 = rng.standard_normal(d), rng.standard_normal(d)
        d1, d2 = np.exp(rng.standard_normal(d)), np.exp(rng.standard_normal(d))
        closed = np.sqrt(float((m1 - m2) @ (m1 - m2))
                         + float(np.sum((np.sqrt(d1) - np.sqrt(d2)) ** 2)))
        got = w2_gaussian(GaussianDist(m1, np.diag(d1)),
                          GaussianDist(m2, np.diag(d2)))
        assert abs(got - closed) <= 1e-8
    _under(t0, 5.0, "w2 closed forms")


def _fd_grad(f, x, eps=1e-5):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = eps
        g[j] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return g


def test_06_gradient_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    beta0 = rng.standard_normal(3)
    x, y = gen_linreg_data(24, beta0, 1.0, rng)
    lin = LinRegTask(*partition_data(x, y, 4, rng), prior_var=2.0)
    x, y = gen_logreg_data(24, beta0, rng)
    log = LogRegTask(*partition_data(x, y, 4, rng), prior_var=2.0)

    def lin_f(i, b):
        resid = lin.ys[i] - lin.xs[i] @ b
        return float(resid @ resid) + float(b @ b) / (
            2.0 * lin.prior_var * lin.n_agents)

    def log_f(i, b):
        s = log.xs[i] * (2.0 * log.ys[i] - 1.0)[:, None]
        return float(np.sum(np.logaddexp(0.0, -(s @ b)))) + float(b @ b) / (
            2.0 * log.prior_var * log.n_agents)

    for task, f in ((lin, lin_f), (log, log_f)):
        for _ in range(20):
            i = int(rng.integers(task.n_agents))
            b = rng.standard_normal(3)
            analytic = task.grad_block(
                np.broadcast_to(b, (1, task.n_agents, 3)))[0, i]
            fd = _fd_grad(lambda bb: f(i, bb), b)
            rel = np.linalg.norm(analytic - fd) / (
                np.linalg.norm(analytic) + 1e-12)
            assert rel <= 1e-5
    _under(t0, 1.0, "gradient fidelity")


def test_07_minibatch_unbiasedness():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    x = rng.standard_normal((4, 2))
    y = rng.standard_normal(4)
    task = LinRegTask(xs=(x,), ys=(y,), prior_var=2.0)
    beta = rng.standard_normal(2)
    acc = np.zeros(2)
    subsets = list(itertools.combinations(range(4), 2))
    for idx in subsets:
        sub = np.array(idx)
        g = 2.0 * (x[sub].T @ (x[sub] @ beta - y[sub])) * (4 / 2)
        acc += g + task._prior_grad(beta)
    full = task.grad_block(beta[None, None])[0, 0]
    assert np.max(np.abs(acc / len(subsets) - full)) <= 1e-12

    beta0 = rng.standard_normal(3)
    xl, yl = gen_logreg_data(36, beta0, rng)
    big = LogRegTask(*partition_data(xl, yl, 3, rng), prior_var=2.0)
    beta = 0.3 * rng.standard_normal(3)
    block = np.broadcast_to(beta, (1, 3, 3))
    full = big.grad_block(block)[0, 0]
    n_i = big.xs[0].shape[0]
    # agent 0's batch, given to every agent; row 0 reads agent 0's
    draws = np.array([
        big.grad_block(block, np.broadcast_to(
            rng.choice(n_i, 4, replace=False), (1, 3, 4)))[0, 0]
        for _ in range(10_000)])
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - full) <= 3.0 * se + 1e-12)
    _under(t0, 5.0, "minibatch unbiasedness")


def test_08_mixing_assumption_gate():
    t0 = time.monotonic()
    for kind in CONNECTED:
        for h in (0.001, 0.056, 0.25, 0.5):
            report = validate_assumptions(_pinned_mixing(kind, 6, h))
            assert report.ok, (kind, h, [c.name for c in report.failed()])

    disc = validate_assumptions(_pinned_mixing("disconnected", 6, 0.25))
    assert not disc.ok
    assert "null-space" in [c.name for c in disc.failed()]

    top = make_topology("ring", 6)
    with pytest.raises(ValueError, match="h must lie"):
        build_mixing_set(top, h=0.0, delta=0.2)
    with pytest.raises(ValueError, match="h must lie"):
        build_mixing_set(top, h=0.7, delta=0.2)
    _under(t0, 1.0, "assumption gate")


def test_09_w2_bound_dominates_empirical(desk_linreg):
    t0 = time.monotonic()
    ms = _pinned_mixing("ring", 20, H_BY_TOPOLOGY["ring"])
    # the tuned (h, eta) sit far outside the conservative admissible set,
    # so both are shrunk until every stepsize clause passes and the bound
    # is evaluated where it is actually stated
    sampler = SamplerConfig("GEN_EXTRA_SGLD", eta=0.009, steps=200)
    p, ms_adm = shrink_to_admissible(
        problem_params_from(desk_linreg, ms, sampler), ms, sampler)
    assert validate_stepsize(p).ok
    tc = compute_constants(p)
    assert tc.K0 == 0.0  # zero-init transients vanish

    ks, xs_all = _ensemble(desk_linreg, ms_adm, "GEN_EXTRA_SGLD", eta=p.eta,
                           steps=200, reps=100, master=SEED_DESK,
                           record_every=10)
    emp = w2_batch(xs_all.mean(axis=2), desk_linreg.target())
    bounds = np.array([bound_w2_mean(p, tc, int(k)) for k in ks])
    assert np.all(np.isfinite(bounds))
    assert np.all(np.diff(bounds) <= 1e-12 * bounds[0])  # non-increasing
    assert np.all(bounds >= emp)
    _under(t0, 60.0, "bound domination")


def _logistic_setup(master):
    rng = np.random.default_rng(derive_seed(master, "data"))
    beta = rng.standard_normal(3)
    x, y = gen_logreg_data(600, beta, rng)
    hold_rng = np.random.default_rng(derive_seed(master, "holdout"))
    hx, hy = gen_logreg_data(1000, beta, hold_rng)
    xs, ys = partition_data(x, y, 6, rng)
    task = LogRegTask(xs=xs, ys=ys, prior_var=1.0)
    return task, hx, hy


def _terminal_accuracy(task, ms, algo, master, hx, hy, reps=20):
    ks, xs_all = _ensemble(task, ms, algo, eta=0.005, steps=500, reps=reps,
                          master=master, record_every=500, batch=32)
    finals = xs_all[-1].mean(axis=1)  # per-replica agent average
    return float(np.mean([accuracy(b, hx, hy) for b in finals]))


def test_10_logistic_desk_scale_accuracy():
    t0 = time.monotonic()
    task, hx, hy = _logistic_setup(SEED_LOGISTIC)
    for kind in CONNECTED:
        ms = _pinned_mixing(kind, 6, 0.056)
        gen = _terminal_accuracy(task, ms, "GEN_EXTRA_SGLD",
                                 SEED_LOGISTIC, hx, hy)
        de = _terminal_accuracy(task, ms, "DE_SGLD", SEED_LOGISTIC, hx, hy)
        assert gen >= 0.80, (kind, gen)
        assert de >= 0.80, (kind, de)
        assert gen >= de - 0.02, (kind, gen, de)
    _under(t0, 180.0, "logistic accuracy")


def test_10_real_data_repeat():
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "data", "wdbc.csv")
    if not os.path.exists(path):
        pytest.skip("data/wdbc.csv not present; real-data comparison "
                    "skipped")
    try:
        x, y, _ = load_csv_dataset(path, label_column="diagnosis")
    except ValueError:
        x, y, _ = load_csv_dataset(path)
    rng = np.random.default_rng(derive_seed(SEED_LOGISTIC, "data"))
    perm = rng.permutation(x.shape[0])
    n_hold = x.shape[0] // 5
    hx, hy = x[perm[:n_hold]], y[perm[:n_hold]]
    xt, yt = x[perm[n_hold:]], y[perm[n_hold:]]
    xs, ys = partition_data(xt, yt, 6, rng)
    task = LogRegTask(xs=xs, ys=ys, prior_var=1.0)
    ms = _pinned_mixing("ring", 6, 0.056)
    gen = _terminal_accuracy(task, ms, "GEN_EXTRA_SGLD",
                             SEED_LOGISTIC, hx, hy)
    de = _terminal_accuracy(task, ms, "DE_SGLD", SEED_LOGISTIC, hx, hy)
    assert gen >= de - 0.02, (gen, de)
