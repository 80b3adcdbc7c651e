"""Non-asymptotic W2 guarantees for the generalized EXTRA Langevin sampler.

Implements the constant stack behind the convergence theorem: the spectral
gain gamma_wtilde, the coupling constants gamma1/gamma2, the weights
w1/w2/E1..E4, the transient constants C0..C4 and D0..D2, the remainder
terms R_h / R_h', the burn-in index K0, and the two bound evaluators
(network-average chain and per-agent chains).  The stepsize certificate
is a `network.Report` with one check per admissibility clause on (h, eta).

Everything here is pure arithmetic on a frozen parameter bundle; nothing
draws randomness or touches chain state, so repeated calls are bit
identical.  Nor does anything here eigensolve: the mixing spectrum,
||Wtilde||_2 included, is read from the mixing set's summary, and the
model facts (mu, L, x* and the Gaussian target) from the task's own
methods, and the minibatch gradient-noise power from one ``grad_block``
call at x*, so no branch here depends on the kind of task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .network import Check, MixingSet, Report, SpectralSummary, with_h
from .samplers import SamplerConfig

__all__ = [
    "InadmissibleSpectrumError",
    "InitMoments",
    "ProblemParams",
    "TheoryConstants",
    "CertReport",
    "gamma_wtilde",
    "compute_constants",
    "validate_stepsize",
    "bound_w2_mean",
    "bound_w2_agents",
    "problem_params_from",
    "shrink_to_admissible",
]


class InadmissibleSpectrumError(ValueError):
    """The mixing spectrum sits outside the region the theory covers."""


@dataclass(frozen=True)
class InitMoments:
    """Second moments of the initial state used by the transient constants.

    ``x0_sq`` is E||x^0||^2 of the stacked initial iterate, ``xtilde0_sq``
    and ``ebar0_sq`` are the consensus-deviation and average-error moments,
    and ``vtilde0_sq`` is the dual deviation.  The default zero
    initialisation with the dual started at zero reports exact zeros for
    all four.
    """

    x0_sq: float = 0.0
    xtilde0_sq: float = 0.0
    ebar0_sq: float = 0.0
    vtilde0_sq: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(
                    f"init moment {f.name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class ProblemParams:
    """Frozen bundle of everything the constant stack reads.

    ``spectral`` carries the mixing eigenvalue summary; ``norm_B`` is
    ||B||_2 of the free matrix actually run (`SamplerConfig.norm_b`).
    ``grad_at_min_sq`` is ||grad F(x*)||^2 of the stacked gradient at the
    minimiser.  ``delta2`` is derived: the lower endpoint of its
    admissible interval, which keeps the C2..C4 denominator strictly
    positive.  ``w2_init`` is the W2 distance from the initial law of the
    average iterate to the target; it multiplies the geometric term of
    the mean bound and is caller-supplied because the initial law is not
    ours to pick.
    """

    mu: float
    L: float
    sigma2: float
    d: int
    N: int
    eta: float
    h: float
    norm_B: float
    grad_at_min_sq: float
    spectral: SpectralSummary
    init_moments: InitMoments = field(default_factory=InitMoments)
    w2_init: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.mu < self.L):
            raise ValueError(f"need 0 < mu < L, got mu={self.mu}, L={self.L}")
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.d < 1 or self.N < 1:
            raise ValueError(f"need d >= 1 and N >= 1, got d={self.d}, N={self.N}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.h <= 0:
            raise ValueError(f"h must be > 0, got {self.h}")
        if self.norm_B < 0 or not math.isfinite(self.norm_B * self.norm_B):
            raise ValueError(f"norm_B must be >= 0 with a finite square, got {self.norm_B}")
        if self.grad_at_min_sq < 0:
            raise ValueError("grad_at_min_sq must be >= 0")
        if self.w2_init < 0:
            raise ValueError("w2_init must be >= 0")

    @property
    def delta2_complement(self) -> float:
        """1 - delta2, un-cancelled.

        delta2 is max(1 - (eta*mu/2)(1 - eta*L/2), 1 - h(1-gw)(1-giw)/4);
        at small h or eta that rounds to exactly 1.0, and the K0 and
        C2..C4 denominators, which divide by 1 - delta^2, need the
        complement itself.
        """
        sp = self.spectral
        a = (self.eta * self.mu / 2.0) * (1.0 - self.eta * self.L / 2.0)
        b = self.h * (1.0 - sp.gammabar_w) * (1.0 - sp.gammabar_iw) / 4.0
        return min(a, b)

    @property
    def delta2(self) -> float:
        return 1.0 - self.delta2_complement


@dataclass(frozen=True)
class TheoryConstants:
    gamma_wt: float
    A: float
    gamma1: float
    gamma2: float
    w1: float
    w2: float
    E1: float
    E2: float
    E3: float
    E4: float
    C0: float
    C1: float
    C2: float
    C3: float
    C4: float
    D0: float
    D1: float
    D2: float
    R_h: float
    R_h_prime: float
    K0: float
    script_E1: float

    def as_rows(self):
        """(name, value) pairs in declaration order, for the CSV dump."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def gamma_wtilde(t: float) -> float:
    """Piecewise spectral gain evaluated at t = |lambda_2(Wtilde)|^2.

    Three branches over (0, 1); the value at t = 1/2 is zero, which the
    downstream constants cannot absorb (gamma1 divides by it), so callers
    treat that point as inadmissible rather than special-casing it here.
    """
    if not (0.0 < t < 1.0):
        raise ValueError(f"gamma_wtilde needs 0 < t < 1, got {t}")
    if t < 0.5:
        return t
    elif t <= 2.0 / 3.0:
        return t * (t - 0.5) / (1.0 - t)
    else:
        return (5.0 * t - 3.0 * t * t - 2.0) / (3.0 * t - 1.0)


def _coupling(p: ProblemParams) -> tuple:
    """Spectral gain and coupling constants shared by the constant stack
    and the step-size certificate: (g, spec_w, A, gamma1, gamma2).

    ``spec_w`` is (1 - gammabar_w)(1 - gammabar_iw^2).  Raises
    :class:`InadmissibleSpectrumError` when W~ has no spectral gap, when
    |lambda_2(Wtilde)|^2 zeroes the gain, or when ``spec_w`` is not
    positive.
    """
    mu, L, N = p.mu, p.L, float(p.N)
    sp = p.spectral
    t = sp.lam2_wt ** 2
    if not (0.0 < t < 1.0):
        raise InadmissibleSpectrumError(
            f"|lambda_2(Wtilde)|^2 = {t} has no spectral gap")
    g = gamma_wtilde(t)
    if g <= 0.0:
        raise InadmissibleSpectrumError(
            f"inadmissible spectral point: |lambda_2(Wtilde)|^2 = {t} "
            "zeroes the spectral gain")
    spec_w = (1.0 - sp.gammabar_w) * (1.0 - sp.gammabar_iw ** 2)
    if spec_w <= 0.0:
        raise InadmissibleSpectrumError(
            f"(1 - gammabar_w)(1 - gammabar_iw^2) = {spec_w} must be > 0")
    nb2 = p.norm_B ** 2
    A = (L / mu - 1.0 + g / (2.0 * (1.0 + mu / L))) \
        * (4.0 * L * L / (N * N)) * (1.0 + (2.0 + 2.0 * L) / mu)
    gamma1 = (1.0 / g) * (1.0 / L + 2.0 + 1.0 / (L * mu))
    gamma2 = 12.0 * (L * L + L * nb2) / spec_w \
        * (1.0 + 4.0 * L * L * (1.0 + (2.0 + 2.0 * L) / mu) / (N * N * mu))
    return g, spec_w, A, gamma1, gamma2


def compute_constants(p: ProblemParams) -> TheoryConstants:
    """Evaluate the full constant stack for one parameter bundle.

    Raises :class:`InadmissibleSpectrumError` when the mixing spectrum
    leaves the covered region (no gap, or |lambda_2(Wtilde)|^2 at the
    zero of gamma_wtilde), and ``ValueError`` when a stability denominator
    (1 - h*gamma1*gamma2, or delta^2 + eta*mu*(1 - eta*L/2) - 1) fails to
    be positive.
    """
    mu, L, sig2 = p.mu, p.L, p.sigma2
    d, N = float(p.d), float(p.N)
    eta, h = p.eta, p.h
    nb2 = p.norm_B ** 2
    r = p.grad_at_min_sq
    sp = p.spectral
    gw, gwt = sp.gammabar_w, sp.gammabar_wt
    m = p.init_moments

    if 1.0 - eta * L / 2.0 <= 0:
        raise ValueError(f"eta={eta} is too large: 1 - eta*L/2 <= 0")
    g, spec_w, A, gamma1, gamma2 = _coupling(p)
    if gw >= 1.0 or gwt >= 1.0:
        raise InadmissibleSpectrumError(
            f"mixing spectrum touches the unit circle (gammabar_w={gw}, "
            f"gammabar_wt={gwt})")
    w1 = 2.0 * ((N * N + 1.0) / g + (4.0 / g) * (L / mu + 3.0 * eta * L - 1.0))
    w2 = 8.0 * (6.0 * (L * L + L * nb2) + N * N * mu) / (N * mu * spec_w)
    E1 = (8.0 / g) * (L / mu + 3.0 * eta * L - 1.0)
    E2 = 2.0 / g
    E3 = 12.0 * (L * L + L * nb2) / (mu * spec_w)
    E4 = 4.0 / spec_w

    denom_h = 1.0 - h * gamma1 * gamma2
    if denom_h <= 0.0:
        raise ValueError(
            f"1 - h*gamma1*gamma2 = {denom_h} must be > 0 "
            f"(h={h}, gamma1={gamma1:.6g}, gamma2={gamma2:.6g})")
    delta2 = p.delta2
    # delta^2 + eta*mu*(1 - eta*L/2) - 1, via the complement so the
    # subtraction survives delta^2 having rounded to 1
    denom_d = eta * mu * (1.0 - eta * L / 2.0) - p.delta2_complement
    if denom_d <= 0.0:
        raise ValueError(
            f"delta^2 + eta*mu*(1 - eta*L/2) - 1 = {denom_d} must be > 0")

    noise = eta * sig2 + 2.0 * d
    C0 = (2.0 * L * L / denom_h) * ((h / eta) * (E3 / eta) * m.ebar0_sq
                                    + (E4 / h) * m.vtilde0_sq)
    C1 = (2.0 * L * L * noise / N) * (w2 * gamma1 * (h / eta) + w1) / denom_h
    C2 = (2.0 * L ** 4 / (N * N * denom_d)) \
        * (eta + (1.0 + eta * L) / (mu * (1.0 - eta * L / 2.0)))
    C3 = (2.0 * L * L / N) * noise / denom_d
    C4 = 2.0 * L * L * m.ebar0_sq / denom_d
    D0 = (E1 * m.xtilde0_sq + E2 * m.ebar0_sq) / denom_h

    R_h = h * delta2 * (C1 * gamma2 / (2.0 * L * L)
                        + C0 * gamma1 * gamma2 / (2.0 * L * L)) \
        + (h / eta) * delta2 * (gamma2 * D0 + (w2 / N) * noise) + r
    R_hp = eta * delta2 * (C1 + C3 + gamma1 * C0 + D0 * C2) \
        + delta2 * eta * eta * (C1 * C2 / (2.0 * L * L)
                                + gamma1 * C0 * C2 / (2.0 * L * L)) \
        + 3.0 * r

    D1 = 2.0 * math.sqrt(2.0 * (R_h + R_hp)) / (1.0 - gwt) \
        + 2.0 * math.sqrt(sig2) / math.sqrt(1.0 - gwt ** 2)
    D2 = 2.0 * math.sqrt(2.0 * d / (1.0 - gwt ** 2))

    # K0: a bracket whose denominator vanishes describes an absent
    # transient and drops out; with no transient at all the burn-in is 0.
    brackets = []
    if D0 + C4 > 0.0:
        brackets.append(1.0 - r / (D0 + C4))
    if C0 > 0.0:
        brackets.append(1.0 - r / C0)
    if brackets:
        coef = delta2 / p.delta2_complement
        K0 = max(coef * max(brackets), 0.0)
    else:
        K0 = 0.0

    damp = mu * (1.0 - eta * L / 2.0)
    scr = math.sqrt(eta / damp + (1.0 + eta * L) ** 2 / damp ** 2) \
        * math.sqrt(4.0 * L * L * (R_h + R_hp) * eta / (N * (1.0 - gwt) ** 2)
                    + 4.0 * L * L * sig2 * eta / (1.0 - gwt ** 2)
                    + 8.0 * L * L * d / (1.0 - gwt ** 2)) \
        + math.sqrt(sig2) / math.sqrt(damp * N) \
        + (1.65 * L / mu) * math.sqrt(d / N)

    return TheoryConstants(
        gamma_wt=g, A=A, gamma1=gamma1, gamma2=gamma2, w1=w1, w2=w2,
        E1=E1, E2=E2, E3=E3, E4=E4, C0=C0, C1=C1, C2=C2, C3=C3, C4=C4,
        D0=D0, D1=D1, D2=D2, R_h=R_h, R_h_prime=R_hp, K0=K0,
        script_E1=scr)


@dataclass(frozen=True)
class CertReport(Report):
    """Outcome of checking (h, eta) against every stepsize clause.

    Reporting only: an inadmissible pair comes back with ``ok`` false and
    the failing clauses named, never as an exception.  The checks are the
    clauses, each with the parameter against its limit as its detail.
    ``max_h`` and ``max_eta`` are the binding limits, ``binding_h`` /
    ``binding_eta`` name the clause that attains each, and the admissible
    delta^2 range is [1 - ``delta2_complement``, 1), empty when the
    complement is not positive.  A spectrum the
    theory does not cover leaves a note, and a report with notes is not
    ``ok``.
    """

    max_h: float
    max_eta: float
    binding_h: str
    binding_eta: str
    delta2_complement: float
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        return super().ok and not self.notes

    def lines(self) -> list[str]:
        comp = self.delta2_complement
        if comp <= 0.0:
            d2 = f"empty, [1 - c, 1) with c = {comp:.9g} <= 0"
        elif 1.0 - comp == 1.0:
            # the lower endpoint rounds to 1; its complement still shows
            d2 = f"[1 - {comp:.3g}, 1)"
        else:
            d2 = f"[{1.0 - comp:.9g}, 1)"
        return super().lines() + [
            f"binding h clause: {self.binding_h} (max h = {self.max_h:.9g})",
            f"binding eta clause: {self.binding_eta} "
            f"(max eta = {self.max_eta:.9g})",
            f"admissible delta^2: {d2}",
        ] + [f"note: {n}" for n in self.notes]


def validate_stepsize(p: ProblemParams) -> CertReport:
    """Check (h, eta) against the theorem's admissibility clauses.

    The h condition is 0 < h <= min of three limits; the eta condition is
    0 < eta < min of five (one of which repeats a tighter sibling; both
    are reported as printed).  Nothing here raises on a bad pair: spectrum
    problems surface as failed clauses with a note.
    """
    sp = p.spectral
    mu, L = p.mu, p.L
    h, eta = p.h, p.eta
    gw, giw = sp.gammabar_w, sp.gammabar_iw
    notes = []

    g = A = gamma1 = gamma2 = None
    try:
        g, _, A, gamma1, gamma2 = _coupling(p)
    except InadmissibleSpectrumError as e:
        notes.append(str(e))

    h_limits = [("h-network", (1.0 - gw) / (4.0 * giw ** 2) if giw > 0
                 else math.inf),
                ("h-half", 0.5)]
    if gamma1 is not None:
        h_limits.append(("h-coupling", 1.0 / (gamma1 * gamma2)))
    eta_limits = [("eta-unit", 1.0),
                  ("eta-strong-convexity", 1.0 / (L + mu))]
    if g is not None:
        eta_limits.append(("eta-coupling", 1.0 / (h * gamma1 * gamma2)))
        eta_limits.append(("eta-gain-vs-A", g / max(6.0 * (L + mu), 2.0 * A)))
        eta_limits.append(("eta-gain", g / (6.0 * (L + mu))))
    checks = [Check(name, 0.0 < h <= lim, f"{h:.9g} <= {lim:.9g}")
              for name, lim in h_limits] \
        + [Check(name, 0.0 < eta < lim, f"{eta:.9g} < {lim:.9g}")
           for name, lim in eta_limits]
    binding_h, max_h = min(h_limits, key=lambda nl: nl[1])
    binding_eta, max_eta = min(eta_limits, key=lambda nl: nl[1])
    return CertReport(tuple(checks), max_h=max_h, max_eta=max_eta,
                      binding_h=binding_h, binding_eta=binding_eta,
                      delta2_complement=p.delta2_complement,
                      notes=tuple(notes))


def _geom_ratio(a: float, b: float, K: int) -> float:
    """(a^K - b^K)/(a - b) for a, b in [0, 1), stable when a is near b."""
    if K <= 0:
        return 0.0
    if abs(a - b) < 1e-12 * max(a, b, 1.0):
        return K * a ** (K - 1)
    return (a ** K - b ** K) / (a - b)


def _average_terms(p: ProblemParams, tc: TheoryConstants, K: int) -> tuple:
    """The two geometric terms both bounds share at step K >= K0: the
    initial-moment transient and the contracted W2(init, target)."""
    if K < tc.K0:
        raise ValueError(f"K={K} is below the burn-in K0={tc.K0:.6g}")
    eta, mu, L, N = p.eta, p.mu, p.L, float(p.N)
    gwt = p.spectral.gammabar_wt
    a = gwt ** 2
    b = 1.0 - eta * mu * (1.0 - eta * L / 2.0)
    ratio = max(_geom_ratio(a, b, K), 0.0)
    term1 = math.sqrt(ratio) * (2.0 * L * gwt / math.sqrt(N)) \
        * math.sqrt(p.init_moments.x0_sq)
    term2 = (1.0 - mu * eta) ** K * p.w2_init
    return term1, term2


def bound_w2_mean(p: ProblemParams, tc: TheoryConstants, K: int) -> float:
    """Theorem bound on W2(law of the average iterate at step K, target).

    Valid for K >= K0 only; below the burn-in the bound is vacuous and
    asking for it is an error.  As K grows the geometric terms die and the
    value settles at sqrt(eta) * script_E1.
    """
    term1, term2 = _average_terms(p, tc, K)
    return term1 + term2 + math.sqrt(p.eta) * tc.script_E1


def bound_w2_agents(p: ProblemParams, tc: TheoryConstants, K: int) -> float:
    """Theorem bound on the agent-averaged W2 error at step K.

    Adds the consensus penalty (eta * D1 / sqrt(N) + sqrt(eta) * D2 and a
    geometric term in gammabar_wt) on top of the average-iterate terms, so
    it always sits at or above :func:`bound_w2_mean`.
    """
    term1, term2 = _average_terms(p, tc, K)
    eta, N = p.eta, float(p.N)
    head = eta * tc.D1 / math.sqrt(N) \
        + math.sqrt(eta) * (tc.D2 + tc.script_E1)
    tail = 2.0 * p.spectral.gammabar_wt ** K / math.sqrt(N) \
        * math.sqrt(p.init_moments.x0_sq)
    return head + term1 + term2 + tail


def _grad_noise(task, x: np.ndarray, batch: Optional[int]) -> float:
    """E||xi||^2 at ``x`` of the stacked minibatch gradient noise, exactly.

    Drawing ``batch`` = b of an agent's n shard rows without replacement
    and scaling by n / b gives E||xi_i||^2 = n^2 (1/b - 1/n) tr S_i, with
    S_i the (n-1)-normalized covariance of agent i's per-row gradients
    (Cochran, *Sampling Techniques*).  One block call at ``x`` broadcast
    to (n, N, d), row j reading shard row j of every agent, gives n times
    those gradients plus the prior term, which the covariance drops.  A
    full batch (``batch`` None or n, so also n = 1) has no noise.
    """
    n = task.shard_size
    if batch is None or batch == n:
        return 0.0
    rows = task.grad_block(
        np.broadcast_to(x, (n, task.n_agents, task.dim)),
        np.broadcast_to(np.arange(n)[:, None, None], (n, task.n_agents, 1)))
    return (1.0 / batch - 1.0 / n) * float(np.var(rows, axis=0, ddof=1).sum())


def problem_params_from(task, ms: MixingSet, sampler: SamplerConfig, *,
                        sigma2: Optional[float] = None,
                        w2_init: Optional[float] = None,
                        mu_L: Optional[tuple] = None) -> ProblemParams:
    """Assemble a ProblemParams bundle from a task, a mixing set and a sampler.

    Curvature bounds come from ``task.mu_L()`` (``mu_L`` when the caller
    has them already), the spectrum from the mixing set, eta and ||B||
    (`SamplerConfig.norm_b` at the set's ||Wtilde||) from ``sampler``,
    and ||grad F(x*)||^2 from the task minimiser x* = ``task.minimizer()``.
    When ``sigma2`` is not given, it is the minibatch gradient-noise power
    at x* of ``sampler.batch`` rows, in closed form: 0 at full batch.
    The chains start at zero, so the initial moments are exact zeros.
    When ``w2_init`` is not given, it is the W2 distance from the point
    mass at zero to ``task.target()``, sqrt(m.m + tr S), or 0 when the
    task has no Gaussian target.
    """
    mu, L = task.mu_L() if mu_L is None else mu_L
    xstar = task.minimizer()
    # stacked per-agent gradients at x*: they sum to zero but need not
    # vanish agentwise
    g = task.grad_block(
        np.broadcast_to(xstar, (1, task.n_agents, task.dim)))[0].ravel()
    r = float(np.linalg.norm(g)) ** 2
    if sigma2 is None:
        sigma2 = _grad_noise(task, xstar, sampler.batch)

    if w2_init is None:
        target = task.target()
        w2_init = 0.0 if target is None else math.sqrt(
            float(target.mean @ target.mean) + float(np.trace(target.cov)))

    sp = ms.spectral
    return ProblemParams(
        mu=float(mu), L=float(L), sigma2=float(sigma2), d=task.dim,
        N=ms.n, eta=float(sampler.eta), h=float(ms.h),
        norm_B=sampler.norm_b(sp.norm_wt),
        grad_at_min_sq=r, spectral=sp, w2_init=float(w2_init))


# shrink_to_admissible aims at this fraction of the h and eta limits and
# gives up after this many passes
_SHRINK_FRAC = 0.5
_SHRINK_ITERS = 32


def shrink_to_admissible(p: ProblemParams, ms: MixingSet,
                         sampler: SamplerConfig):
    """Shrink (h, eta) of ``p`` until every stepsize clause passes.

    ``p`` must be the bundle at ``ms`` (as :func:`problem_params_from`
    builds it).  Each pass takes eta at a fixed fraction of the eta limit
    at the current pair, then h at that fraction of the h limit at that
    eta, and moves the mixing set to h with :func:`~exlg.network.with_h`
    (Wtilde and U rebuilt, Wtilde alone eigensolved); ||B|| is
    ``sampler``'s `SamplerConfig.norm_b` at that eta.  W, delta and the
    task-side inputs (mu, L, sigma^2, ||grad F(x*)||^2, the initial
    moments and w2_init) stay as ``ms`` and ``p`` have them.  The loop
    stops where a pass lands on the current pair (to 1e-9 relative),
    where a limit underflows or ||B||^2 overflows, or after
    ``_SHRINK_ITERS`` passes.  Returns the admissible ``(params,
    mixing_set)`` pair.  Raises ``RuntimeError`` naming the failing
    clauses and notes when no pair passes, or naming the binding h clause
    when its target h leaves Wtilde without a positive least eigenvalue.
    """
    def at(ms_: MixingSet, eta: float) -> Optional[ProblemParams]:
        # None where eta underflowed or ||B||^2 overflows: SamplerConfig and
        # ProblemParams refuse both, and there is no pair there
        sp = ms_.spectral
        try:
            return replace(p, h=float(ms_.h), eta=eta, spectral=sp, norm_B=(
                replace(sampler, eta=eta).norm_b(sp.norm_wt)))
        except ValueError:
            return None

    cur_ms, q = ms, p
    for _ in range(_SHRINK_ITERS):
        q_eta = at(cur_ms, _SHRINK_FRAC * validate_stepsize(q).max_eta)
        if q_eta is None:
            break
        rep_h = validate_stepsize(q_eta)
        h = _SHRINK_FRAC * rep_h.max_h  # max_h <= 1/2 (h-half)
        if h <= 0.0 or (math.isclose(h, q.h, rel_tol=1e-9)
                        and math.isclose(q_eta.eta, q.eta, rel_tol=1e-9)):
            break
        cur_ms = with_h(cur_ms, h)
        wt_lo = float(cur_ms.wt_eigs[0])
        if wt_lo <= 0.0:
            raise RuntimeError(
                "could not reach an admissible (h, eta): the binding h "
                f"clause {rep_h.binding_h} (max h = {rep_h.max_h:.9g}) sets "
                f"h = {h:.9g}, where min eig(W~) = {wt_lo:.6g} is not > 0")
        q = at(cur_ms, q_eta.eta)
    rep = validate_stepsize(q)
    if not rep.ok:
        failed = "; ".join(c.name for c in rep.failed()) or "none"
        raise RuntimeError(
            f"could not reach an admissible (h, eta); failing clauses: "
            f"{failed}" + "".join(f"; note: {n}" for n in rep.notes))
    return q, cur_ms
