"""Non-asymptotic W2 guarantees for the generalized EXTRA Langevin sampler.

Implements the constant stack behind the convergence theorem: the spectral
gain gamma_wtilde, the coupling constants gamma1/gamma2, the weights
w1/w2/E1..E4, the transient constants C0..C4 and D0..D2, the remainder
terms R_h / R_h', the burn-in index K0, and the two bound evaluators
(network-average chain and per-agent chains).

Everything here is pure arithmetic on a frozen parameter bundle; nothing
draws randomness or touches chain state, so repeated calls are bit
identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import SymMatrix, sym_eig
from .network import MixingSet, SpectralSummary

__all__ = [
    "InadmissibleSpectrumError",
    "InitMoments",
    "ProblemParams",
    "TheoryConstants",
    "ClauseResult",
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
        for name in ("x0_sq", "xtilde0_sq", "ebar0_sq", "vtilde0_sq"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"init moment {name} must be finite and >= 0, got {v}")


def _delta2_complement(eta: float, mu: float, L: float, h: float,
                       gammabar_w: float, gammabar_iw: float) -> float:
    """1 - (lower endpoint of the delta^2 interval), un-cancelled.

    The endpoint itself is max(1 - (eta*mu/2)(1 - eta*L/2),
    1 - h(1-gw)(1-giw)/4); at small h or eta the direct form rounds to
    exactly 1.0 and everything downstream that divides by 1 - delta^2
    blows up, so the complement is the primary quantity.
    """
    a = (eta * mu / 2.0) * (1.0 - eta * L / 2.0)
    b = h * (1.0 - gammabar_w) * (1.0 - gammabar_iw) / 4.0
    return min(a, b)


def _delta2_lower(eta: float, mu: float, L: float, h: float,
                  gammabar_w: float, gammabar_iw: float) -> float:
    return 1.0 - _delta2_complement(eta, mu, L, h, gammabar_w, gammabar_iw)


@dataclass(frozen=True)
class ProblemParams:
    """Frozen bundle of everything the constant stack reads.

    ``spectral`` carries the mixing eigenvalue summary; ``norm_B`` is the
    spectral norm of the free matrix actually run (for the default
    B = Wtilde/eta this is ||Wtilde||_2 / eta).  ``grad_at_min_sq`` is
    ||grad F(x*)||^2 of the stacked gradient at the minimiser.
    ``delta2`` defaults to the lower endpoint of its admissible interval,
    which keeps the C2..C4 denominator strictly positive.  ``w2_init`` is
    the W2 distance from the initial law of the average iterate to the
    target; it multiplies the geometric term of the mean bound and is
    caller-supplied because the initial law is not ours to pick.
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
    delta2: Optional[float] = None
    w2_init: float = 0.0
    # 1 - delta2 kept in un-cancelled form; the K0 and C2..C4 denominators
    # need it after delta2 itself has rounded to 1.
    delta2_complement: float = field(init=False, default=0.0)

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
        if self.norm_B < 0 or not math.isfinite(self.norm_B):
            raise ValueError(f"norm_B must be finite and >= 0, got {self.norm_B}")
        if self.grad_at_min_sq < 0:
            raise ValueError("grad_at_min_sq must be >= 0")
        if self.w2_init < 0:
            raise ValueError("w2_init must be >= 0")
        comp = _delta2_complement(self.eta, self.mu, self.L, self.h,
                                  self.spectral.gammabar_w,
                                  self.spectral.gammabar_iw)
        lo = 1.0 - comp
        if self.delta2 is None:
            object.__setattr__(self, "delta2", lo)
            object.__setattr__(self, "delta2_complement", comp)
        elif not (lo - 1e-12 <= self.delta2 < 1.0):
            raise ValueError(
                f"delta2={self.delta2} outside the admissible interval "
                f"[{lo}, 1)")
        else:
            object.__setattr__(self, "delta2_complement", 1.0 - self.delta2)

    def delta2_interval(self) -> tuple:
        """Admissible interval for delta^2 (left endpoint, open right at 1)."""
        lo = _delta2_lower(self.eta, self.mu, self.L, self.h,
                           self.spectral.gammabar_w, self.spectral.gammabar_iw)
        return (lo, 1.0)


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
        names = ("gamma_wt", "A", "gamma1", "gamma2", "w1", "w2",
                 "E1", "E2", "E3", "E4", "C0", "C1", "C2", "C3", "C4",
                 "D0", "D1", "D2", "R_h", "R_h_prime", "K0", "script_E1")
        return [(n, getattr(self, n)) for n in names]


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
class ClauseResult:
    name: str
    bound: float        # the upper limit this clause imposes
    value: float        # the parameter being checked against it
    passed: bool
    strict: bool        # True when the comparison is value < bound


@dataclass(frozen=True)
class CertReport:
    """Outcome of checking (h, eta) against every stepsize clause.

    Reporting only: an inadmissible pair comes back with ``ok=False`` and
    the failing clauses named, never as an exception.  ``max_h`` and
    ``max_eta`` are the binding limits, ``binding_h`` / ``binding_eta``
    name the clause that attains each, and ``delta2_interval`` is the
    admissible range for the contraction parameter at this (h, eta).
    """

    h_clauses: tuple
    eta_clauses: tuple
    ok: bool
    max_h: float
    max_eta: float
    binding_h: str
    binding_eta: str
    delta2_interval: tuple
    delta2_complement: float = 0.0
    notes: tuple = ()

    def failed(self):
        return tuple(c for c in self.h_clauses + self.eta_clauses
                     if not c.passed)

    def lines(self):
        out = []
        for c in self.h_clauses + self.eta_clauses:
            rel = "<" if c.strict else "<="
            status = "pass" if c.passed else "FAIL"
            out.append(f"[{status}] {c.name}: {c.value:.9g} {rel} {c.bound:.9g}")
        out.append(f"binding h clause: {self.binding_h} (max h = {self.max_h:.9g})")
        out.append(f"binding eta clause: {self.binding_eta} "
                   f"(max eta = {self.max_eta:.9g})")
        lo, hi = self.delta2_interval
        if lo == 1.0 and self.delta2_complement > 0.0:
            out.append(
                f"admissible delta^2: [1 - {self.delta2_complement:.3g}, 1)")
        else:
            out.append(f"admissible delta^2: [{lo:.9g}, {hi:.9g})")
        for n in self.notes:
            out.append(f"note: {n}")
        return out


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
    h_clauses = []
    for name, lim in h_limits:
        h_clauses.append(ClauseResult(name=name, bound=lim, value=h,
                                      passed=(0.0 < h <= lim), strict=False))
    max_h = min(lim for _, lim in h_limits)
    binding_h = min(h_limits, key=lambda nl: nl[1])[0]

    eta_limits = [("eta-unit", 1.0),
                  ("eta-strong-convexity", 1.0 / (L + mu))]
    if g is not None:
        eta_limits.append(("eta-coupling", 1.0 / (h * gamma1 * gamma2)))
        eta_limits.append(("eta-gain-vs-A", g / max(6.0 * (L + mu), 2.0 * A)))
        eta_limits.append(("eta-gain", g / (6.0 * (L + mu))))
    eta_clauses = []
    for name, lim in eta_limits:
        eta_clauses.append(ClauseResult(name=name, bound=lim, value=eta,
                                        passed=(0.0 < eta < lim), strict=True))
    max_eta = min(lim for _, lim in eta_limits)
    binding_eta = min(eta_limits, key=lambda nl: nl[1])[0]

    ok = all(c.passed for c in h_clauses + eta_clauses) and not notes
    comp = _delta2_complement(eta, mu, L, h, gw, giw)
    return CertReport(h_clauses=tuple(h_clauses), eta_clauses=tuple(eta_clauses),
                      ok=ok, max_h=max_h, max_eta=max_eta,
                      binding_h=binding_h, binding_eta=binding_eta,
                      delta2_interval=(1.0 - comp, 1.0),
                      delta2_complement=comp, notes=tuple(notes))


def _geom_ratio(a: float, b: float, K: int) -> float:
    """(a^K - b^K)/(a - b) for a, b in [0, 1), stable when a is near b."""
    if K <= 0:
        return 0.0
    if abs(a - b) < 1e-12 * max(a, b, 1.0):
        return K * a ** (K - 1)
    return (a ** K - b ** K) / (a - b)


def bound_w2_mean(p: ProblemParams, tc: TheoryConstants, K: int) -> float:
    """Theorem bound on W2(law of the average iterate at step K, target).

    Valid for K >= K0 only; below the burn-in the bound is vacuous and
    asking for it is an error.  As K grows the geometric terms die and the
    value settles at sqrt(eta) * script_E1.
    """
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
    term3 = math.sqrt(eta) * tc.script_E1
    return term1 + term2 + term3


def bound_w2_agents(p: ProblemParams, tc: TheoryConstants, K: int) -> float:
    """Theorem bound on the agent-averaged W2 error at step K.

    Adds the consensus penalty (eta * D1 / sqrt(N) + sqrt(eta) * D2 and a
    geometric term in gammabar_wt) on top of the average-iterate terms, so
    it always sits at or above :func:`bound_w2_mean`.
    """
    if K < tc.K0:
        raise ValueError(f"K={K} is below the burn-in K0={tc.K0:.6g}")
    eta, mu, L, N = p.eta, p.mu, p.L, float(p.N)
    gwt = p.spectral.gammabar_wt
    a = gwt ** 2
    b = 1.0 - eta * mu * (1.0 - eta * L / 2.0)
    ratio = max(_geom_ratio(a, b, K), 0.0)
    x0 = math.sqrt(p.init_moments.x0_sq)
    term1 = math.sqrt(ratio) * (2.0 * L * gwt / math.sqrt(N)) * x0
    term2 = (1.0 - mu * eta) ** K * p.w2_init
    head = eta * tc.D1 / math.sqrt(N) \
        + math.sqrt(eta) * (tc.D2 + tc.script_E1)
    tail = 2.0 * gwt ** K / math.sqrt(N) * x0
    return head + term1 + term2 + tail


def _norm_b_for(ms: MixingSet, b_mode: str, eta: float,
                b_scale: float = 0.0, b_custom=None) -> float:
    if b_mode == "wtilde-over-eta":
        vals = sym_eig(SymMatrix(np.asarray(ms.w_tilde))).values
        return float(max(abs(vals[0]), abs(vals[-1]))) / eta
    if b_mode == "scaled-identity":
        return abs(float(b_scale))
    if b_mode == "custom":
        if b_custom is None:
            raise ValueError("custom b_mode needs the matrix to measure")
        a = np.asarray(b_custom, dtype=float)
        return float(np.linalg.norm(a, 2))
    raise ValueError(f"unknown b_mode {b_mode!r}")


def problem_params_from(task, ms: MixingSet, eta: float, *,
                        sigma2: float = 0.0, init: str = "zeros",
                        b_mode: str = "wtilde-over-eta", b_scale: float = 0.0,
                        b_custom=None, delta2: Optional[float] = None,
                        w2_init: Optional[float] = None,
                        h: Optional[float] = None) -> ProblemParams:
    """Assemble a ProblemParams bundle from a task and a mixing set.

    Curvature bounds come from the task, the spectrum from the mixing
    set, and ||grad F(x*)||^2 from the task minimiser.  Initial moments
    follow the configured initialiser: the default zero start reports
    exact zeros, a minimiser start carries N*||x*||^2 in the first slot,
    and a prior draw uses the analytic moments of N(0, lambda*I).  When
    the task exposes a Gaussian target and ``w2_init`` is not given, the
    point-mass-at-start distance to the target fills it in.
    """
    from .metrics import w2_gaussian
    from .tasks import GaussianDist, mu_L_bounds

    mu, L = mu_L_bounds(task)
    xstar = task.minimizer()
    # stacked per-agent gradients at x*: they sum to zero but need not
    # vanish agentwise
    g = np.concatenate([task.full_grad(i, xstar)
                        for i in range(task.n_agents)])
    r = float(np.linalg.norm(g)) ** 2
    N, d = ms.topology.n, task.dim

    if init == "zeros":
        moments = InitMoments()
        start_mean = np.zeros(d)
    elif init == "minimizer":
        moments = InitMoments(x0_sq=float(N * xstar @ xstar))
        start_mean = xstar
    elif init == "prior":
        lam = float(task.prior_var)
        moments = InitMoments(x0_sq=N * d * lam,
                              xtilde0_sq=(N - 1) * d * lam,
                              ebar0_sq=d * lam / N)
        start_mean = np.zeros(d)
    else:
        raise ValueError(f"unknown init {init!r}")

    if w2_init is None:
        target = task.target() if hasattr(task, "target") else None
        if target is not None:
            point = GaussianDist(mean=start_mean,
                                 cov=np.zeros((d, d)))
            w2_init = float(w2_gaussian(point, target))
        else:
            w2_init = 0.0

    return ProblemParams(
        mu=float(mu), L=float(L), sigma2=float(sigma2), d=d, N=N,
        eta=float(eta), h=float(ms.h if h is None else h),
        norm_B=_norm_b_for(ms, b_mode, eta, b_scale, b_custom),
        grad_at_min_sq=r, spectral=ms.spectral, init_moments=moments,
        delta2=delta2, w2_init=float(w2_init))


def shrink_to_admissible(task, ms: MixingSet, eta: float, *,
                         sigma2: float = 0.0, init: str = "zeros",
                         b_mode: str = "wtilde-over-eta",
                         b_scale: float = 0.0,
                         h_frac: float = 0.5, eta_frac: float = 0.5,
                         max_iter: int = 32):
    """Shrink (h, eta) until every stepsize clause passes.

    Changing h changes Wtilde = h*I + (1-h)*W and with it the whole
    spectral summary, and in the default mode ||B|| = ||Wtilde||/eta moves
    with both, so each iteration rebuilds the mixing set at the candidate
    h, re-derives the clause limits there, and targets h_frac / eta_frac
    of them.  Returns the admissible ``(params, mixing_set)`` pair; the
    loop settles in a handful of iterations because the limits move
    slowly in h.
    """
    from .network import build_mixing_set

    if not (0.0 < h_frac <= 1.0 and 0.0 < eta_frac <= 1.0):
        raise ValueError("h_frac and eta_frac must lie in (0, 1]")
    cur_ms, cur_eta = ms, float(eta)
    for _ in range(max_iter):
        p = problem_params_from(task, cur_ms, cur_eta, sigma2=sigma2,
                                init=init, b_mode=b_mode, b_scale=b_scale)
        rep = validate_stepsize(p)
        want_h = h_frac * rep.max_h if math.isfinite(rep.max_h) else cur_ms.h
        want_h = min(want_h, 0.5)
        want_eta = eta_frac * rep.max_eta if rep.max_eta > 0 else cur_eta
        close_h = abs(cur_ms.h - want_h) <= 1e-9 * max(want_h, 1e-30)
        close_eta = abs(cur_eta - want_eta) <= 1e-9 * max(want_eta, 1e-30)
        if rep.ok and close_h and close_eta:
            return p, cur_ms
        cur_ms = build_mixing_set(cur_ms.topology, delta=cur_ms.delta,
                                  h=want_h)
        cur_eta = want_eta
    p = problem_params_from(task, cur_ms, cur_eta, sigma2=sigma2,
                            init=init, b_mode=b_mode, b_scale=b_scale)
    rep = validate_stepsize(p)
    if not rep.ok:
        raise RuntimeError(
            "could not reach an admissible (h, eta); failing clauses: "
            + "; ".join(c.name for c in rep.failed()))
    return p, cur_ms
