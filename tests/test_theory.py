import dataclasses
import math

import numpy as np
import pytest

from exlg import theory
from exlg.config import load_config
from exlg.harness import (build_mixing, build_task, cmd_validate,
                          series_for_run)
from exlg.network import SpectralSummary, make_topology, build_mixing_set
from exlg.samplers import SamplerConfig
from exlg.tasks import (
    GaussianDist,
    LinRegTask,
    LogRegTask,
    gen_linreg_data,
    gen_logreg_data,
    partition_data,
)
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

from oracles import w2_gaussian


def _spectral(lam2_w, lamN_w, lam2_wt, lamN_wt):
    return SpectralSummary(
        lam2_wt=lam2_wt,
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

    def test_zero_gain_is_inadmissible(self):
        # |lam2_wt|^2 rounds to 0.6666666666666671, where gamma_wtilde's
        # last branch is exactly 0: the constants refuse it, and the
        # certificate reports it as a note instead of raising
        l2wt = 0.8164965809277263
        assert gamma_wtilde(l2wt ** 2) == 0.0
        p = _params_from_set(dict(SET_A, l2wt=l2wt))
        with pytest.raises(InadmissibleSpectrumError,
                           match="zeroes the spectral gain"):
            compute_constants(p)
        rep = validate_stepsize(p)
        assert not rep.ok
        assert len(rep.notes) == 1
        assert "zeroes the spectral gain" in rep.notes[0]

    def test_coupling_denominator_guard(self):
        s = dict(SET_A, h=0.3)  # h*gamma1*gamma2 far above 1
        with pytest.raises(ValueError, match="gamma1"):
            compute_constants(_params_from_set(s))

    def test_eta_at_two_over_L_refused(self):
        with pytest.raises(ValueError, match=r"eta=1.0 is too large"):
            compute_constants(_params_from_set(dict(SET_A, eta=1.0)))

    def test_unit_circle_is_inadmissible(self):
        p = _params_from_set(SET_A)
        p = dataclasses.replace(p, spectral=dataclasses.replace(
            p.spectral, gammabar_wt=1.0))
        with pytest.raises(InadmissibleSpectrumError, match="unit circle"):
            compute_constants(p)

    def test_underflowed_eta_mu_leaves_no_delta2(self):
        # eta*mu = 0.3 * 5e-324 rounds to 0, and so does delta^2's
        # complement: the C2..C4 denominator is exactly 0
        s = dict(SET_A, mu=0.3, eta=5e-324, h=1e-7)
        with pytest.raises(ValueError, match=r"\(1 - eta\*L/2\) - 1 = 0.0 "
                                             "must be > 0"):
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

    @pytest.mark.parametrize("nb", [-1.0, math.inf, math.nan, 1e155])
    def test_norm_b_without_a_finite_square_rejected(self, nb):
        # 1e155 ** 2 overflows: validate_stepsize would raise OverflowError
        # where it promises a failing report
        with pytest.raises(ValueError, match="norm_B"):
            _params_from_set(dict(SET_A, nb=nb))
        assert not validate_stepsize(_params_from_set(
            dict(SET_A, nb=1e150))).ok

    @pytest.mark.parametrize("edit, message", [
        ({"sig2": -1.0}, "sigma2 must be >= 0, got -1.0"),
        ({"d": 0}, "need d >= 1 and N >= 1, got d=0, N=4"),
        ({"N": 0}, "need d >= 1 and N >= 1, got d=3, N=0"),
        ({"h": 0.0}, "h must be > 0, got 0.0"),
        ({"r": -1.0}, "grad_at_min_sq must be >= 0"),
        ({"w2i": -1.0}, "w2_init must be >= 0"),
        ({"x0": -1.0}, "init moment x0_sq must be finite and >= 0"),
        ({"vt0": math.nan}, "init moment vtilde0_sq must be finite"),
    ], ids=["sigma2", "d", "N", "h", "grad", "w2_init", "x0", "vt0-nan"])
    def test_input_checks(self, edit, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            _params_from_set(dict(SET_A, **edit))

    def test_delta2_defaults_to_lower_endpoint(self):
        p = _params_from_set(SET_A)
        comp = validate_stepsize(p).delta2_complement
        assert p.delta2 == 1.0 - comp
        # max(1 - (eta mu/2)(1 - eta L/2), 1 - h(1 - gw)(1 - giw)/4)
        sp = p.spectral
        lo = max(1 - (p.eta * p.mu / 2) * (1 - p.eta * p.L / 2),
                 1 - p.h * (1 - sp.gammabar_w) * (1 - sp.gammabar_iw) / 4)
        assert p.delta2 == pytest.approx(lo, rel=1e-15)


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


_H_LINES_A = [
    "[pass] h-network: 5e-06 <= 0.1953125",
    "[pass] h-half: 5e-06 <= 0.5",
    "[pass] h-coupling: 5e-06 <= 1.31761922e-05",
]
_BINDING_A = [
    "binding h clause: h-coupling (max h = 1.31761922e-05)",
    "binding eta clause: eta-gain-vs-A (max eta = 0.00606846249)",
]


class TestStepsizeReportText:
    """The full text of `validate_stepsize(...).lines()`, on bundles of
    pure arithmetic (no eigensolve), so every digit is reproducible."""

    def test_passing_report(self):
        rep = validate_stepsize(_params_from_set(dict(SET_A, eta=0.005)))
        assert rep.ok
        assert rep.lines() == _H_LINES_A + [
            "[pass] eta-unit: 0.005 < 1",
            "[pass] eta-strong-convexity: 0.005 < 0.303030303",
            "[pass] eta-coupling: 0.005 < 2.63523845",
            "[pass] eta-gain-vs-A: 0.005 < 0.00606846249",
            "[pass] eta-gain: 0.005 < 0.0213383838",
        ] + _BINDING_A + ["admissible delta^2: [0.999999875, 1)"]

    def test_one_failing_clause(self):
        rep = validate_stepsize(_params_from_set(SET_A))
        assert not rep.ok
        assert rep.lines() == _H_LINES_A + [
            "[pass] eta-unit: 0.01 < 1",
            "[pass] eta-strong-convexity: 0.01 < 0.303030303",
            "[pass] eta-coupling: 0.01 < 2.63523845",
            "[FAIL] eta-gain-vs-A: 0.01 < 0.00606846249",
            "[pass] eta-gain: 0.01 < 0.0213383838",
        ] + _BINDING_A + ["admissible delta^2: [0.999999875, 1)"]

    def test_delta2_rounded_to_one_prints_its_complement(self):
        rep = validate_stepsize(_params_from_set(dict(SET_A, h=1e-20)))
        assert rep.lines() == [
            "[pass] h-network: 1e-20 <= 0.1953125",
            "[pass] h-half: 1e-20 <= 0.5",
            "[pass] h-coupling: 1e-20 <= 1.31761922e-05",
            "[pass] eta-unit: 0.01 < 1",
            "[pass] eta-strong-convexity: 0.01 < 0.303030303",
            "[pass] eta-coupling: 0.01 < 1.31761922e+15",
            "[FAIL] eta-gain-vs-A: 0.01 < 0.00606846249",
            "[pass] eta-gain: 0.01 < 0.0213383838",
        ] + _BINDING_A + ["admissible delta^2: [1 - 2.5e-22, 1)"]

    def test_many_failing_clauses(self):
        p = ProblemParams(mu=1.0, L=2.0, sigma2=0.0, d=2, N=3, eta=0.5,
                          h=0.4, norm_B=1.0, grad_at_min_sq=0.0,
                          spectral=_spectral(0.5, -0.2, 0.65, 0.1))
        rep = validate_stepsize(p)
        assert [c.name for c in rep.failed()] == [
            "h-network", "h-coupling", "eta-strong-convexity",
            "eta-coupling", "eta-gain-vs-A", "eta-gain"]
        assert rep.lines() == [
            "[FAIL] h-network: 0.4 <= 0.1953125",
            "[pass] h-half: 0.4 <= 0.5",
            "[FAIL] h-coupling: 0.4 <= 2.61880165e-05",
            "[pass] eta-unit: 0.5 < 1",
            "[FAIL] eta-strong-convexity: 0.5 < 0.333333333",
            "[FAIL] eta-coupling: 0.5 < 6.54700413e-05",
            "[FAIL] eta-gain-vs-A: 0.5 < 0.0148798654",
            "[FAIL] eta-gain: 0.5 < 0.0234722222",
            "binding h clause: h-coupling (max h = 2.61880165e-05)",
            "binding eta clause: eta-coupling (max eta = 6.54700413e-05)",
            "admissible delta^2: [0.99, 1)",
        ]

    def test_inadmissible_spectrum_note(self):
        p = ProblemParams(mu=0.8, L=2.5, sigma2=0.0, d=3, N=4, eta=1e-4,
                          h=1e-6, norm_B=0.9, grad_at_min_sq=0.0,
                          spectral=_spectral(0.5, -0.2, 1.0, 0.1))
        rep = validate_stepsize(p)
        assert not rep.ok and not rep.failed()  # failing by its note alone
        assert rep.lines() == [
            "[pass] h-network: 1e-06 <= 0.1953125",
            "[pass] h-half: 1e-06 <= 0.5",
            "[pass] eta-unit: 0.0001 < 1",
            "[pass] eta-strong-convexity: 0.0001 < 0.303030303",
            "binding h clause: h-network (max h = 0.1953125)",
            "binding eta clause: eta-strong-convexity "
            "(max eta = 0.303030303)",
            "admissible delta^2: [0.999999975, 1)",
            "note: |lambda_2(Wtilde)|^2 = 1.0 has no spectral gap",
        ]

    # eta*L/2 > 1 makes the complement negative; on a graph without edges
    # gammabar_W = 1 makes it 0.  Either way no delta^2 is admissible.
    @pytest.mark.parametrize("edit,line", [
        (("eta = 0.01", "eta = 0.5"),
         "admissible delta^2: empty, [1 - c, 1) with c = -91.4478236 <= 0"),
        (("topology = ring", "topology = disconnected"),
         "admissible delta^2: empty, [1 - c, 1) with c = 0 <= 0"),
    ], ids=["eta-0.5-ring6", "disconnected"])
    def test_empty_delta2_interval(self, tmp_path, capsys, edit, line):
        path = tmp_path / "exp.cfg"
        path.write_text(_VALIDATE_CFG.replace(*edit))
        cmd_validate(load_config(str(path)))
        out = capsys.readouterr().out.splitlines()
        assert [ln.strip() for ln in out if "delta^2" in ln] == [line]


_VALIDATE_CFG = """
[task]
kind = linreg
n_points = 120
dim = 2
beta_true = 1.0 -0.5

[network]
topology = ring
n = 6
h = 0.3
delta = 0.2

[sampler]
algorithm = GEN_EXTRA_SGLD
eta = 0.01
steps = 40

[run]
seed = 7
out = unused
"""


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
        sp = SpectralSummary(lam2_wt=0.65, gammabar_w=0.5, gammabar_iw=0.8,
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
    def _setup(self, kind="linreg", n_points=80):
        rng = np.random.default_rng(7)
        beta = np.array([1.0, -0.5])
        data = (gen_linreg_data(n_points, beta, 1.0, rng) if kind == "linreg"
                else gen_logreg_data(n_points, beta, rng))
        cls = LinRegTask if kind == "linreg" else LogRegTask
        task = cls(*partition_data(*data, 4, rng), prior_var=1.0)
        ms = build_mixing_set(make_topology("ring", 4), h=0.3, delta=0.2)
        return task, ms

    def test_fields_assembled_from_task_and_mixing(self):
        task, ms = self._setup()
        p = problem_params_from(task, ms, _gen_extra(0.001))
        assert (p.mu, p.L) == task.mu_L()
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
        # the closed form sqrt(m.m + tr S) has the bits of the general W2
        point = GaussianDist(mean=np.zeros(task.dim),
                             cov=np.zeros((task.dim, task.dim)))
        assert p.w2_init == w2_gaussian(point, task.target())

    def test_logistic_task_has_no_w2_init_or_w2_series(self):
        rng = np.random.default_rng(8)
        x, y = gen_logreg_data(80, np.array([1.0, -0.5]), rng)
        xs, ys = partition_data(x, y, 4, rng)
        task = LogRegTask(xs=xs, ys=ys, prior_var=1.0)
        ms = build_mixing_set(make_topology("ring", 4), h=0.3, delta=0.2)
        assert task.target() is None
        assert problem_params_from(task, ms, _gen_extra(0.001)).w2_init == 0.0
        ens = rng.standard_normal((3, 5, 4, 2))
        series = series_for_run(task, ens, None, 1.0)
        assert list(series) == ["consensus"]

    def test_sigma2_zero_at_full_batch_and_given_value_wins(self):
        task, ms = self._setup()
        assert problem_params_from(task, ms, _gen_extra(0.001)).sigma2 == 0.0
        full = SamplerConfig("GEN_EXTRA_SGLD", eta=0.001, steps=0,
                             batch=task.shard_size)
        assert problem_params_from(task, ms, full).sigma2 == 0.0
        mini = dataclasses.replace(full, batch=3)
        assert problem_params_from(task, ms, mini).sigma2 > 0.0
        assert problem_params_from(task, ms, mini, sigma2=0.25).sigma2 == 0.25

    @pytest.mark.parametrize("kind", ["linreg", "logreg"])
    def test_sigma2_matches_long_monte_carlo(self, kind):
        # E||xi||^2 at x* against 4,000 draws of b = 6 of every agent's 20
        # rows without replacement, within 3 standard errors; the
        # with-replacement factor 1/b in place of 1/b - 1/n is n/(n-b) =
        # 1.43 times larger and must fall outside
        rng = np.random.default_rng(11)
        beta = np.array([1.0, -0.5])
        data = (gen_linreg_data(80, beta, 1.0, rng) if kind == "linreg"
                else gen_logreg_data(80, beta, rng))
        cls = LinRegTask if kind == "linreg" else LogRegTask
        task = cls(*partition_data(*data, 4, rng), prior_var=1.0)
        n, b, draws = task.shard_size, 6, 4000
        ms = build_mixing_set(make_topology("ring", 4), h=0.3, delta=0.2)
        sampler = SamplerConfig("GEN_EXTRA_SGLD", eta=0.001, steps=0,
                                batch=b)
        sigma2 = problem_params_from(task, ms, sampler).sigma2

        x = np.broadcast_to(task.minimizer(), (draws, 4, 2))
        idx = np.argsort(rng.random((draws, 4, n)), axis=-1)[..., :b]
        xi = task.grad_block(x, task.rows(idx)) - task.grad_block(x[:1])
        power = np.sum(xi * xi, axis=(1, 2))
        mc, se = power.mean(), power.std(ddof=1) / np.sqrt(draws)
        assert abs(sigma2 - mc) <= 3.0 * se
        assert abs(sigma2 * n / (n - b) - mc) > 3.0 * se

    # with B = W~/eta, the logistic task's h limit moves far with eta
    @pytest.mark.parametrize("kind, n_points", [("linreg", 80),
                                                ("logreg", 400)])
    def test_shrink_reaches_admissible_pair(self, kind, n_points):
        task, ms = self._setup(kind, n_points)
        sampler = _gen_extra(0.009)
        p, ms2 = shrink_to_admissible(
            problem_params_from(task, ms, sampler), ms, sampler)
        rep = validate_stepsize(p)
        assert rep.ok
        assert p.h == ms2.h
        # abs=0: pytest's default absolute tolerance would pass any h
        assert p.h == pytest.approx(0.5 * rep.max_h, rel=1e-6, abs=0)
        assert p.eta == pytest.approx(0.5 * rep.max_eta, rel=1e-6, abs=0)
        tc = compute_constants(p)  # full stack must be evaluable there
        assert math.isfinite(tc.script_E1)


# a 50-agent ring at (h, eta) = (0.38, 0.009), far outside the clauses
RING50 = """[task]
kind = linreg
n_points = 5000
per_agent = 50
dim = 2
beta_true = 1.0222531862935225 1.8378468836432988
[network]
topology = ring
n = 50
h = 0.38
delta = 0.125
[sampler]
algorithm = GEN_EXTRA_SGLD
eta = 0.009
steps = 200
[run]
seed = 42
out = {out}
[theory]
shrink = true
"""


# a 6-agent logistic ring with delta drawn from the seed
LOGRING6 = """[task]
kind = logreg-synthetic
n_points = 5000
per_agent = 50
dim = 3
beta_true = -0.22 1.0 -0.14
prior_var = {prior_var}
[network]
topology = ring
n = 6
h = {h}
[sampler]
algorithm = GEN_EXTRA_SGLD
eta = {eta}
steps = 200
[run]
seed = 42
out = {out}
[theory]
shrink = true
"""

# the minibatch logistic probe config of tests/test_config.py
LOGPROBE = """[task]
kind = logreg-synthetic
n_points = 120
dim = 2
beta_true = 1.0 -0.5
holdout = 40
prior_var = {prior_var}
[network]
topology = ring
n = 6
h = {h}
delta = 0.2
[sampler]
algorithm = GEN_EXTRA_SGLD
eta = {eta}
steps = 5
batch = 4
[run]
seed = 7
replicas = 2
out = {out}
[theory]
shrink = true
"""


class TestShrinkFixedPoint:
    """Each pass takes eta at the current set, then h at that eta, so the
    shrunk pair does not depend on the configured one."""

    @staticmethod
    def _config(tmp_path, h=0.2, eta=0.5, prior_var=1.0, text=LOGRING6):
        path = tmp_path / f"start-{h}-{eta}-{prior_var}.ini"
        path.write_text(text.format(h=h, eta=eta, prior_var=prior_var,
                                    out=tmp_path / "out"))
        return str(path)

    @pytest.mark.parametrize("text, prior_var, starts", [
        (LOGRING6, 1.0, ((0.2, 0.5), (0.05, 0.01), (0.5, 1e-6))),
        # mu = 1 / (prior_var N) puts the eta limit near 1e-106 at h = 0.3,
        # where the first eta target leaves every h limit at 0 (its ||B||
        # is 5e105): that pass moves h alone, and the next retries eta
        (LOGPROBE, 1e30, ((0.3, 0.01), (1e-100, 0.01), (1e-200, 1e-3))),
    ], ids=["logring6", "flat-prior-probe"])
    def test_pair_does_not_depend_on_the_start(self, tmp_path, text,
                                               prior_var, starts):
        pairs = set()
        for h, eta in starts:
            cfg = load_config(self._config(tmp_path, h, eta, prior_var,
                                           text))
            task, ms = build_task(cfg)[0], build_mixing(cfg)
            p, _ = shrink_to_admissible(
                problem_params_from(task, ms, cfg.sampler), ms, cfg.sampler)
            assert validate_stepsize(p).ok
            pairs.add((p.h, p.eta))
        assert len(pairs) == 1

    def test_flat_prior_reaches_a_pair(self, tmp_path, capsys):
        # prior_var = 100 flattens mu; the pair exists, and the shrink
        # reaches it
        from exlg.cli import main

        path = self._config(tmp_path, prior_var=100.0)
        assert main(["theory", "--config", path]) == 0
        assert "admissible pair: h=" in capsys.readouterr().out


class TestShrinkIterationLimit:
    """On the ring of 50, the shrink settles after two moves of the mixing
    set; an iteration limit below that either ends on an admissible pair
    or names the clauses still failing."""

    @pytest.fixture
    def start(self, tmp_path):
        path = tmp_path / "ring50.ini"
        path.write_text(RING50.format(out=tmp_path / "out"))
        cfg = load_config(str(path))
        task, ms = build_task(cfg)[0], build_mixing(cfg)
        return problem_params_from(task, ms, cfg.sampler), ms, cfg.sampler

    def test_default_limit_settles(self, start, monkeypatch):
        moves = []
        real = theory.with_h
        monkeypatch.setattr(theory, "with_h",
                            lambda ms, h: moves.append(h) or real(ms, h))
        p, _ = shrink_to_admissible(*start)
        assert (p.h, p.eta) == pytest.approx(
            (3.36402907e-23, 7.53819697e-07), rel=1e-8, abs=0)
        assert len(moves) == 2

    def test_exhausted_limit_names_failing_clauses(self, start,
                                                   monkeypatch):
        monkeypatch.setattr(theory, "_SHRINK_ITERS", 0)
        with pytest.raises(RuntimeError, match="failing clauses: "
                           "h-network; h-coupling; eta-strong-convexity; "
                           "eta-coupling; eta-gain-vs-A; eta-gain$"):
            shrink_to_admissible(*start)

    def test_exhausted_limit_returns_an_admissible_pair(self, start,
                                                        monkeypatch):
        monkeypatch.setattr(theory, "_SHRINK_ITERS", 1)
        p, ms = shrink_to_admissible(*start)
        assert validate_stepsize(p).ok and p.h == ms.h
        assert (p.h, p.eta) == pytest.approx(
            (2.2065351895e-39, 7.743218301e-15), rel=1e-9, abs=0)
