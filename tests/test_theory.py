import math

import numpy as np
import pytest

from exlg.network import SpectralSummary, make_topology, build_mixing_set
from exlg.samplers import SamplerConfig
from exlg.tasks import LinRegTask, gen_linreg_data, mu_L_bounds, partition_data
from exlg.theory import (
    InadmissibleSpectrumError,
    InitMoments,
    ProblemParams,
    bound_w2_agents,
    bound_w2_mean,
    compute_constants,
    gamma_wtilde,
    problem_params_from,
    shrink_to_admissible,
    validate_stepsize,
)


def _spectral(lam2_w, lamN_w, lam2_wt, lamN_wt):
    return SpectralSummary(
        lam2_w=lam2_w, lamN_w=lamN_w, lam2_wt=lam2_wt, lamN_wt=lamN_wt,
        gammabar_w=max(abs(lam2_w), abs(lamN_w)),
        gammabar_iw=max(1 - abs(lam2_w), 1 - abs(lamN_w)),
        gammabar_wt=max(abs(lam2_wt), abs(lamN_wt)),
        norm_wt=1.0,  # lambda_max(W~) = 1 on the ones vector
    )


class TestGammaWtilde:
    def test_first_branch(self):
        assert gamma_wtilde(0.25) == 0.25

    def test_middle_branch(self):
        # 0.6 * (0.6 - 0.5) / (1 - 0.6)
        assert gamma_wtilde(0.6) == pytest.approx(0.15, rel=1e-15)

    def test_last_branch(self):
        # (5*0.8 - 3*0.64 - 2) / (3*0.8 - 1)
        assert gamma_wtilde(0.8) == pytest.approx(0.08 / 1.4, rel=1e-12)

    def test_branch_seam(self):
        # Both printed indicators cover t = 2/3, but the last branch
        # vanishes there, so the indicator sum equals the middle branch.
        t = 2.0 / 3.0
        mid = t * (t - 0.5) / (1 - t)
        last = (5 * t - 3 * t * t - 2) / (3 * t - 1)
        assert mid == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert last == pytest.approx(0.0, abs=1e-12)
        assert gamma_wtilde(t) == pytest.approx(mid + last, rel=1e-12)

    def test_zero_at_half(self):
        assert gamma_wtilde(0.5) == 0.0

    @pytest.mark.parametrize("t", [0.0, 1.0, 1.2, -0.1])
    def test_domain(self, t):
        with pytest.raises(ValueError):
            gamma_wtilde(t)


def flat_constants(mu, L, sig2, d, N, eta, h, nb, r,
                   l2w, lNw, l2wt, gwt_bar,
                   x0, xt0, eb0, vt0):
    """Spreadsheet-style re-derivation, one printed formula per line.

    Kept deliberately line-by-line and independent of the library helpers
    so a transcription slip in either copy shows up as a mismatch.
    """
    out = {}
    gw = max(abs(l2w), abs(lNw))
    giw = max(1 - abs(l2w), 1 - abs(lNw))
    t = abs(l2wt) ** 2
    if t < 0.5:
        g = t
    elif t <= 2 / 3:
        g = t * (t - 0.5) / (1 - t)
    else:
        g = (5 * t - 3 * t ** 2 - 2) / (3 * t - 1)
    out["gamma_wt"] = g
    out["A"] = (L / mu - 1 + g / (2 * (1 + mu / L))) * (4 * L ** 2 / N ** 2) * (1 + (2 + 2 * L) / mu)
    g1 = (1 / g) * (1 / L + 2 + 1 / (L * mu))
    g2 = (12 * (L ** 2 + L * nb ** 2) / ((1 - gw) * (1 - giw ** 2))) * (1 + (4 * L ** 2 * (1 + (2 + 2 * L) / mu)) / (N ** 2 * mu))
    out["gamma1"] = g1
    out["gamma2"] = g2
    out["w1"] = 2 * ((N ** 2 + 1) / g + (4 / g) * (L / mu + 3 * eta * L - 1))
    w2c = (8 * (6 * (L ** 2 + L * nb ** 2) + N ** 2 * mu)) / (N * mu * (1 - gw) * (1 - giw ** 2))
    out["w2"] = w2c
    e1 = (8 / g) * (L / mu + 3 * eta * L - 1)
    e2 = 2 / g
    e3 = (12 * (L ** 2 + L * nb ** 2)) / (mu * (1 - gw) * (1 - giw ** 2))
    e4 = 4 / ((1 - gw) * (1 - giw ** 2))
    out["E1"], out["E2"], out["E3"], out["E4"] = e1, e2, e3, e4
    dlt = max(1 - (eta * mu / 2) * (1 - eta * L / 2), 1 - h * (1 - gw) * (1 - giw) / 4)
    dh = 1 - h * g1 * g2
    dd = dlt + eta * mu * (1 - eta * L / 2) - 1
    c0 = (2 * L ** 2 / dh) * ((h / eta) * (e3 / eta) * eb0 + (e4 / h) * vt0)
    c1 = (2 * L ** 2 * (eta * sig2 + 2 * d) / N) * (w2c * g1 * (h / eta) + out["w1"]) / dh
    c2 = (2 * L ** 4 / (N ** 2 * dd)) * (eta + (1 + eta * L) / (mu * (1 - eta * L / 2)))
    c3 = (2 * L ** 2 / N) * (eta * sig2 + 2 * d) / dd
    c4 = 2 * L ** 2 * eb0 / dd
    d0 = (e1 * xt0 + e2 * eb0) / dh
    out["C0"], out["C1"], out["C2"], out["C3"], out["C4"], out["D0"] = c0, c1, c2, c3, c4, d0
    rh = h * dlt * (c1 * g2 / (2 * L ** 2) + c0 * g1 * g2 / (2 * L ** 2)) + (h / eta) * dlt * (g2 * d0 + (w2c / N) * (eta * sig2 + 2 * d)) + r
    rhp = eta * dlt * (c1 + c3 + g1 * c0 + d0 * c2) + dlt * eta ** 2 * (c1 * c2 / (2 * L ** 2) + g1 * c0 * c2 / (2 * L ** 2)) + 3 * r
    out["R_h"], out["R_h_prime"] = rh, rhp
    out["D1"] = 2 * (2 * (rh + rhp)) ** 0.5 / (1 - gwt_bar) + 2 * sig2 ** 0.5 / (1 - gwt_bar ** 2) ** 0.5
    out["D2"] = 2 * (2 * d / (1 - gwt_bar ** 2)) ** 0.5
    cands = []
    if d0 + c4 > 0:
        cands.append(1 - r / (d0 + c4))
    if c0 > 0:
        cands.append(1 - r / c0)
    out["K0"] = max((dlt / (1 - dlt)) * max(cands), 0.0) if cands else 0.0
    damp = mu * (1 - eta * L / 2)
    out["script_E1"] = (
        (eta / damp + (1 + eta * L) ** 2 / damp ** 2) ** 0.5
        * (4 * L ** 2 * (rh + rhp) * eta / (N * (1 - gwt_bar) ** 2)
           + 4 * L ** 2 * sig2 * eta / (1 - gwt_bar ** 2)
           + 8 * L ** 2 * d / (1 - gwt_bar ** 2)) ** 0.5
        + sig2 ** 0.5 / (damp * N) ** 0.5
        + (1.65 * L / mu) * (d / N) ** 0.5
    )
    return out


# Hand-picked bundle: every guard strictly interior, first gamma branch.
SET_A = dict(mu=0.8, L=2.5, sig2=1.7, d=3, N=4, eta=0.01, h=5e-6,
             nb=0.9, r=0.37, l2w=0.5, lNw=-0.2, l2wt=0.65, gwt_bar=0.65,
             x0=2.0, xt0=1.1, eb0=0.6, vt0=0.25)
# Same bundle pushed into the last gamma branch; h shrunk to keep
# 1 - h*gamma1*gamma2 positive.
SET_B = dict(SET_A, l2wt=0.9, gwt_bar=0.9, h=5e-7)


def _params_from_set(s):
    sp = _spectral(s["l2w"], s["lNw"], s["l2wt"], 0.1)
    return ProblemParams(
        mu=s["mu"], L=s["L"], sigma2=s["sig2"], d=s["d"], N=s["N"],
        eta=s["eta"], h=s["h"], norm_B=s["nb"], grad_at_min_sq=s["r"],
        spectral=sp, w2_init=s.get("w2i", 0.0),
        init_moments=InitMoments(x0_sq=s["x0"], xtilde0_sq=s["xt0"],
                                 ebar0_sq=s["eb0"], vtilde0_sq=s["vt0"]))


class TestConstantsCrossCheck:
    @pytest.mark.parametrize("s", [SET_A, SET_B], ids=["branch1", "branch3"])
    def test_all_fields_match_flat_evaluation(self, s):
        p = _params_from_set(s)
        tc = compute_constants(p)
        want = flat_constants(
            s["mu"], s["L"], s["sig2"], s["d"], s["N"], s["eta"], s["h"],
            s["nb"], s["r"], s["l2w"], s["lNw"], s["l2wt"], s["gwt_bar"],
            s["x0"], s["xt0"], s["eb0"], s["vt0"])
        for name, val in want.items():
            got = getattr(tc, name)
            # K0 divides by 1 - delta^2; the library evaluates that
            # complement un-cancelled while the flat transcription uses
            # the literal subtraction, so they differ by ~eps/(1-delta^2).
            rel = 1e-8 if name == "K0" else 1e-12
            assert got == pytest.approx(val, rel=rel), name

    def test_all_nonnegative_and_finite(self):
        tc = compute_constants(_params_from_set(SET_A))
        for name, val in tc.as_rows():
            assert math.isfinite(val), name
            assert val >= 0.0, name

    def test_bit_identical_reruns(self):
        p = _params_from_set(SET_A)
        a, b = compute_constants(p), compute_constants(p)
        assert a == b

    def test_as_rows_covers_every_field(self):
        tc = compute_constants(_params_from_set(SET_A))
        names = [n for n, _ in tc.as_rows()]
        assert len(names) == 22
        assert len(set(names)) == 22


class TestConstantsGuards:
    def test_spectral_point_near_half_refused(self):
        # |lam2_wt|^2 = 1/2 zeroes the spectral gain.  The exact point is
        # not representable through squaring, so the nearest floats are
        # refused by whichever guard trips first: the inadmissible-point
        # check or the coupling denominator blown up by gamma1 ~ 1/gain.
        for l2wt in (math.sqrt(0.5), np.nextafter(math.sqrt(0.5), 1.0)):
            s = dict(SET_A, l2wt=float(l2wt))
            with pytest.raises(ValueError, match="inadmissible|must be > 0"):
                compute_constants(_params_from_set(s))

    def test_no_gap_is_inadmissible(self):
        s = dict(SET_A, l2wt=1.0)
        with pytest.raises(InadmissibleSpectrumError):
            compute_constants(_params_from_set(s))

    def test_coupling_denominator_guard(self):
        s = dict(SET_A, h=0.3)  # h*gamma1*gamma2 far above 1
        with pytest.raises(ValueError, match="gamma1"):
            compute_constants(_params_from_set(s))

    def test_zero_init_kills_transients(self):
        s = dict(SET_A, x0=0.0, xt0=0.0, eb0=0.0, vt0=0.0)
        tc = compute_constants(_params_from_set(s))
        assert tc.C0 == 0.0
        assert tc.C4 == 0.0
        assert tc.D0 == 0.0
        assert tc.K0 == 0.0

    def test_k0_clamps_when_gradient_dominates(self):
        # r >= max(D0 + C4, C0) forces the burn-in to zero.
        base = compute_constants(_params_from_set(SET_A))
        s = dict(SET_A, r=2.0 * max(base.D0 + base.C4, base.C0))
        tc = compute_constants(_params_from_set(s))
        assert tc.K0 == 0.0

    def test_k0_value_when_gradient_vanishes(self):
        s = dict(SET_A, r=0.0)
        p = _params_from_set(s)
        tc = compute_constants(p)
        d2 = p.delta2
        assert tc.K0 == pytest.approx(d2 / (1 - d2), rel=1e-8)


class TestProblemParams:
    def test_mu_L_ordering_enforced(self):
        with pytest.raises(ValueError):
            _params_from_set(dict(SET_A, mu=3.0))

    def test_eta_zero_rejected_at_construction(self):
        with pytest.raises(ValueError, match="eta"):
            _params_from_set(dict(SET_A, eta=0.0))

    def test_delta2_defaults_to_lower_endpoint(self):
        p = _params_from_set(SET_A)
        lo, hi = validate_stepsize(p).delta2_interval
        assert p.delta2 == lo
        assert hi == 1.0

    def test_explicit_delta2_outside_interval_rejected(self):
        sp = _spectral(0.5, -0.2, 0.65, 0.1)
        with pytest.raises(ValueError, match="delta2"):
            ProblemParams(mu=0.8, L=2.5, sigma2=0.0, d=3, N=4, eta=0.01,
                          h=5e-6, norm_B=0.9, grad_at_min_sq=0.0,
                          spectral=sp, delta2=0.5)

    def test_explicit_delta2_inside_interval_kept(self):
        sp = _spectral(0.5, -0.2, 0.65, 0.1)
        p = ProblemParams(mu=0.8, L=2.5, sigma2=0.0, d=3, N=4, eta=0.01,
                          h=5e-6, norm_B=0.9, grad_at_min_sq=0.0,
                          spectral=sp, delta2=0.9999999)
        assert p.delta2 == 0.9999999


class TestValidateStepsize:
    def test_toy_max_eta_is_min_of_five_clauses(self):
        # mu=1, L=2, N=2 ring with delta=0.25, h=0.05, eta=0.001.
        ms = build_mixing_set(make_topology("ring", 2), h=0.05, delta=0.25)
        mu, L, N, eta, h = 1.0, 2.0, 2, 0.001, 0.05
        nb = 1.0 / eta  # ||W~||_2 = 1 for the default B = W~/eta
        p = ProblemParams(mu=mu, L=L, sigma2=0.0, d=1, N=N, eta=eta, h=h,
                          norm_B=nb, grad_at_min_sq=0.0, spectral=ms.spectral)
        rep = validate_stepsize(p)

        gw = ms.spectral.gammabar_w
        giw = ms.spectral.gammabar_iw
        t = ms.spectral.lam2_wt ** 2
        g = t if t < 0.5 else None
        assert g is not None  # this topology lands in the first branch
        A = (L / mu - 1 + g / (2 * (1 + mu / L))) * (4 * L ** 2 / N ** 2) * (1 + (2 + 2 * L) / mu)
        g1 = (1 / g) * (1 / L + 2 + 1 / (L * mu))
        g2 = (12 * (L ** 2 + L * nb ** 2) / ((1 - gw) * (1 - giw ** 2))) * (1 + (4 * L ** 2 * (1 + (2 + 2 * L) / mu)) / (N ** 2 * mu))
        five = [1.0,
                1.0 / (L + mu),
                1.0 / (h * g1 * g2),
                g / max(6 * (L + mu), 2 * A),
                g / (6 * (L + mu))]
        assert rep.max_eta == pytest.approx(min(five), rel=1e-12)
        three = [(1 - gw) / (4 * giw ** 2), 0.5, 1.0 / (g1 * g2)]
        assert rep.max_h == pytest.approx(min(three), rel=1e-12)

    def test_h_violation_names_the_network_clause(self):
        sp = _spectral(0.5, -0.2, 0.65, 0.1)
        cap = (1 - sp.gammabar_w) / (4 * sp.gammabar_iw ** 2)
        p = ProblemParams(mu=0.8, L=2.5, sigma2=0.0, d=3, N=4, eta=1e-4,
                          h=cap * 1.01, norm_B=0.9, grad_at_min_sq=0.0,
                          spectral=sp)
        rep = validate_stepsize(p)
        assert not rep.ok
        assert "h-network" in [c.name for c in rep.failed()]

    @pytest.mark.parametrize("mu,L", [(1.0, 2.0), (0.3, 9.0), (0.05, 0.5)])
    @pytest.mark.parametrize("factor", [1.0, 1.5, 10.0])
    def test_eta_at_or_above_strong_convexity_limit_always_rejected(
            self, mu, L, factor):
        sp = _spectral(0.5, -0.2, 0.65, 0.1)
        p = ProblemParams(mu=mu, L=L, sigma2=0.0, d=2, N=3,
                          eta=factor / (L + mu), h=1e-6, norm_B=1.0,
                          grad_at_min_sq=0.0, spectral=sp)
        rep = validate_stepsize(p)
        assert not rep.ok
        assert "eta-strong-convexity" in [c.name for c in rep.failed()]

    def test_inadmissible_spectrum_reported_not_raised(self):
        for sp in (_spectral(0.5, -0.2, 1.0, 0.1),   # no gap in W~
                   _spectral(1.0, -0.2, 0.5, 0.1)):  # no gap in W
            p = ProblemParams(mu=0.8, L=2.5, sigma2=0.0, d=3, N=4, eta=1e-4,
                              h=1e-6, norm_B=0.9, grad_at_min_sq=0.0,
                              spectral=sp)
            rep = validate_stepsize(p)
            assert not rep.ok
            assert rep.notes

    def test_report_lines_render(self):
        rep = validate_stepsize(_params_from_set(SET_A))
        text = "\n".join(rep.lines())
        assert "binding eta clause" in text
        assert "admissible delta^2" in text


def _zero_init_params(**over):
    s = dict(SET_A, x0=0.0, xt0=0.0, eb0=0.0, vt0=0.0)
    s.update(over)
    return _params_from_set(s)


class TestBounds:
    def test_mean_bound_floor_at_large_k(self):
        p = _zero_init_params()
        tc = compute_constants(p)
        floor = math.sqrt(p.eta) * tc.script_E1
        assert bound_w2_mean(p, tc, 10 ** 9) == pytest.approx(floor, rel=1e-12)

    def test_mean_bound_monotone_under_zero_init(self):
        p = _zero_init_params(w2i=3.0)
        tc = compute_constants(p)
        grid = [0, 1, 2, 5, 10, 100, 10 ** 4, 10 ** 6]
        vals = [bound_w2_mean(p, tc, k) for k in grid]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-15

    def test_mean_bound_below_burn_in_errors(self):
        p = _params_from_set(dict(SET_A, r=0.0))  # K0 = delta2/(1-delta2), huge
        tc = compute_constants(p)
        assert tc.K0 > 10
        with pytest.raises(ValueError, match="K0"):
            bound_w2_mean(p, tc, 1)

    def test_agent_bound_floor(self):
        p = _zero_init_params()
        tc = compute_constants(p)
        floor = (p.eta * tc.D1 / math.sqrt(p.N)
                 + math.sqrt(p.eta) * (tc.D2 + tc.script_E1))
        assert bound_w2_agents(p, tc, 10 ** 9) == pytest.approx(floor, rel=1e-12)

    def test_agent_bound_dominates_mean_bound(self):
        p = _zero_init_params(w2i=3.0, x0=2.0)  # K0 = 0: no transient terms
        tc = compute_constants(p)
        assert tc.K0 == 0.0
        for k in [0, 1, 10, 1000]:
            assert bound_w2_agents(p, tc, k) >= bound_w2_mean(p, tc, k)

    def test_geometric_ratio_stable_near_equal_rates(self):
        # gammabar_wt^2 == 1 - eta*mu*(1 - eta*L/2) makes the printed
        # ratio 0/0; the limit K*a^(K-1) must come out instead of nan.
        mu, L, eta = 0.8, 2.5, 0.01
        b = 1 - eta * mu * (1 - eta * L / 2)
        gwt = math.sqrt(b)
        sp = SpectralSummary(lam2_w=0.5, lamN_w=-0.2, lam2_wt=0.65,
                             lamN_wt=0.1, gammabar_w=0.5, gammabar_iw=0.8,
                             gammabar_wt=gwt, norm_wt=1.0)
        p = ProblemParams(mu=mu, L=L, sigma2=0.0, d=3, N=4, eta=eta,
                          h=5e-6, norm_B=0.9, grad_at_min_sq=10.0 ** 4,
                          spectral=sp,
                          init_moments=InitMoments(x0_sq=1.0))
        tc = compute_constants(p)
        v = bound_w2_mean(p, tc, 50)
        assert math.isfinite(v)
        expect1 = math.sqrt(50 * b ** 49) * 2 * L * gwt / 2.0
        floor = math.sqrt(eta) * tc.script_E1
        assert v == pytest.approx(expect1 + floor, rel=1e-9)

    def test_bounds_bit_identical(self):
        p = _zero_init_params()
        tc = compute_constants(p)
        assert bound_w2_mean(p, tc, 77) == bound_w2_mean(p, tc, 77)
        assert bound_w2_agents(p, tc, 77) == bound_w2_agents(p, tc, 77)


def _gen_extra(eta):
    return SamplerConfig("GEN_EXTRA_SGLD", eta=eta, steps=0)


class TestProblemParamsFrom:
    def _setup(self):
        rng = np.random.default_rng(7)
        x, y = gen_linreg_data(80, np.array([1.0, -0.5]), 1.0, rng)
        xs, ys = partition_data(x, y, 4, rng)
        task = LinRegTask(xs=xs, ys=ys, prior_var=1.0)
        ms = build_mixing_set(make_topology("ring", 4), h=0.3, delta=0.2)
        return task, ms

    def test_fields_assembled_from_task_and_mixing(self):
        task, ms = self._setup()
        p = problem_params_from(task, ms, _gen_extra(0.001))
        assert (p.mu, p.L) == mu_L_bounds(task)
        assert p.N == 4 and p.d == 2
        assert p.h == 0.3
        m = task.minimizer()
        block = np.broadcast_to(m, (1, task.n_agents, task.dim))
        stacked = np.concatenate(
            [task.grad_block(block)[0, i] for i in range(task.n_agents)])
        assert p.grad_at_min_sq == pytest.approx(np.linalg.norm(stacked) ** 2)
        # ||B|| for B = W~/eta, against a direct spectral norm.
        direct = float(np.linalg.norm(np.asarray(ms.w_tilde), 2)) / 0.001
        assert p.norm_B == pytest.approx(direct, rel=1e-10)

    def test_zero_init_moments_and_w2_init(self):
        task, ms = self._setup()
        p = problem_params_from(task, ms, _gen_extra(0.001))
        assert p.init_moments == InitMoments()
        tgt = task.target()
        expect = math.sqrt(float(tgt.mean @ tgt.mean) + float(np.trace(tgt.cov)))
        assert p.w2_init == pytest.approx(expect, rel=1e-10)

    def test_shrink_reaches_admissible_pair(self):
        task, ms = self._setup()
        sampler = _gen_extra(0.009)
        p, ms2 = shrink_to_admissible(
            problem_params_from(task, ms, sampler), ms, sampler)
        rep = validate_stepsize(p)
        assert rep.ok
        assert p.h == ms2.h
        assert p.h == pytest.approx(0.5 * rep.max_h, rel=1e-6)
        assert p.eta == pytest.approx(0.5 * rep.max_eta, rel=1e-6)
        tc = compute_constants(p)  # full stack must be evaluable there
        assert math.isfinite(tc.script_E1)
