"""Gossip topologies, mixing matrices, and assumption validation.

A topology is its checked adjacency alone.  W = I - delta * L is built from
its Laplacian and smoothed to W~ = h*I + (1-h)*W with h in (0, 1/2];
U = W~ - W = h(I - W) carries the generalized sampler's dual update.  Each
matrix is solved once, where it is built: a set keeps the eigenvalues of W
and W~, and its `spectral` summary for the theory module is computed from
them.  `with_h` moves a built set to another h, rebuilding W~, U and W~'s
eigenvalues.

Assumption checks mirror the standing assumptions on the mixing pair: W
doubly stochastic with positive diagonal, spectra inside (-1, 1] and (0, 1],
(I + W)/2 >= W~ >= W in the PSD order, and null(U) = span(1) exactly when
the graph is connected and h > 0.  They come back as a `Report` of named
`Check`s, the one report type exlg prints; the theory module's stepsize
certificate extends it.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .linalg import mix_apply, sym_eig

__all__ = [
    "TOPOLOGY_KINDS",
    "Topology",
    "MixingSet",
    "SpectralSummary",
    "Check",
    "Report",
    "fully_connected",
    "ring",
    "star",
    "disconnected",
    "make_topology",
    "topology_from_file",
    "laplacian",
    "build_w",
    "build_w_tilde",
    "build_mixing_set",
    "with_h",
    "validate_assumptions",
]

# Null-space dimension counts eigenvalues of U below this times ||U||_2.
_NULL_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class Topology:
    """An undirected graph over n >= 2 agents.

    ``adjacency`` is a square 0/1 symmetric matrix with zero diagonal, kept
    read-only as floats; for the star, agent 0 is the hub.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ValueError(f"need at least 2 agents, got {a.shape[0]}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency diagonal must be zero (no self loops)")
        a = a.astype(float)
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def fully_connected(n: int) -> Topology:
    return Topology(np.ones((n, n)) - np.eye(n))


def ring(n: int) -> Topology:
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 1.0
        a[(i + 1) % n, i] = 1.0
    return Topology(a)


def star(n: int) -> Topology:
    """Star with agent 0 as the hub."""
    a = np.zeros((n, n))
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    return Topology(a)


def disconnected(n: int) -> Topology:
    return Topology(np.zeros((n, n)))


# the built-in topologies by name; with "custom", an adjacency file, they
# are the values of network.topology
_BUILDERS = {
    "fully-connected": fully_connected,
    "ring": ring,
    "star": star,
    "disconnected": disconnected,
}
TOPOLOGY_KINDS = (*_BUILDERS, "custom")


def make_topology(kind: str, n: int) -> Topology:
    if kind not in _BUILDERS:
        raise ValueError(
            f"topology kind {kind!r} needs an adjacency file "
            f"(or is unknown); built-ins: {sorted(_BUILDERS)}"
        )
    return _BUILDERS[kind](n)


def topology_from_file(path) -> Topology:
    """Read a custom adjacency: first line N, then N rows of N 0/1 entries."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as e:
        raise ValueError(f"adjacency file {path}: not a text file ({e})") \
            from None
    if not lines:
        raise ValueError(f"adjacency file {path} is empty")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(
            f"adjacency file {path}: first line must be the agent count, "
            f"got {lines[0]!r}"
        ) from None
    if len(lines) != n + 1:
        raise ValueError(
            f"adjacency file {path}: expected {n} rows after the count, "
            f"got {len(lines) - 1}"
        )
    rows = [ln.replace(",", " ").split() for ln in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(
                f"adjacency file {path}: row {i + 1} of {n} has "
                f"{len(row)} entries"
            )
        try:
            rows[i] = [float(tok) for tok in row]
        except ValueError as e:
            raise ValueError(f"adjacency file {path}: row {i + 1}: {e}") \
                from None
    return Topology(np.asarray(rows).reshape(n, n))


def laplacian(top: Topology) -> np.ndarray:
    a = top.adjacency
    return np.diag(a.sum(axis=1)) - a


def build_w(top: Topology, delta: Optional[float], seed: int = 0):
    """(W, delta) with W = I - delta * L, from one solve of L.  A given
    ``delta`` must lie in (0, 2/lambda_max(L)); None draws it from ``seed``,
    uniform on (0.05, 0.95)/lambda_max, or 1 on an edgeless graph (W = I)."""
    lap = laplacian(top)
    lam_max = float(sym_eig(lap)[0][-1])
    if delta is None:
        delta = 1.0 if lam_max <= 0.0 else float(
            np.random.default_rng(seed).uniform(0.05, 0.95)) / lam_max
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if lam_max > 0.0 and delta >= 2.0 / lam_max:
        raise ValueError(
            f"delta={delta} outside (0, {2.0 / lam_max:.6g}) for this graph "
            f"(lambda_max(L)={lam_max:.6g}); W would leave the unit ball"
        )
    return np.eye(top.n) - delta * lap, delta


def build_w_tilde(w: np.ndarray, h: float) -> np.ndarray:
    """W~ = h*I + (1-h)*W with h in (0, 1/2]."""
    w = np.asarray(w, dtype=float)
    if not 0.0 < h <= 0.5:
        raise ValueError(f"h must lie in (0, 1/2], got {h}")
    return h * np.eye(w.shape[0]) + (1.0 - h) * w


@dataclasses.dataclass(frozen=True)
class SpectralSummary:
    """The five spectral numbers of the mixing pair the bound reads.

    With lam2 the second-largest eigenvalue and lamN the smallest,
    ``lam2_wt`` is lam2(W~), gammabar_w = max(|lam2(W)|, |lamN(W)|),
    gammabar_wt likewise for W~, gammabar_iw = max(1 - |lam2(W)|,
    1 - |lamN(W)|) (the literal printed form, not the edge eigenvalues of
    I - W), and ``norm_wt`` = ||W~||_2 = max(|lamN(W~)|, |lam1(W~)|).
    """

    lam2_wt: float
    gammabar_w: float
    gammabar_iw: float
    gammabar_wt: float
    norm_wt: float


@dataclasses.dataclass(frozen=True)
class MixingSet:
    """The full mixing bundle one sampler run needs; ``w_eigs`` and
    ``wt_eigs`` are the ascending eigenvalues of W and W~."""

    w: np.ndarray
    w_tilde: np.ndarray
    u: np.ndarray
    h: float
    delta: float
    w_eigs: np.ndarray
    wt_eigs: np.ndarray

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def spectral(self) -> SpectralSummary:
        """The summary, from the eigenvalues the set was built with."""
        wv, wtv = self.w_eigs, self.wt_eigs
        edge_w = (abs(float(wv[-2])), abs(float(wv[0])))  # |lam2|, |lamN|
        lam2_wt = float(wtv[-2])
        return SpectralSummary(
            lam2_wt=lam2_wt,
            gammabar_w=max(edge_w),
            gammabar_iw=max(1.0 - edge_w[0], 1.0 - edge_w[1]),
            gammabar_wt=max(abs(lam2_wt), abs(float(wtv[0]))),
            norm_wt=float(max(abs(wtv[0]), abs(wtv[-1]))),
        )


def build_mixing_set(top: Topology, h: float, delta: Optional[float],
                     seed: int = 0) -> MixingSet:
    """W = I - delta * L, W~ = h*I + (1-h)*W and U = h(I - W) on ``top``,
    with their spectra.  ``delta`` None draws one from ``seed``, as
    `build_w` does, from the same solve of L that builds W."""
    w, delta = build_w(top, delta, seed)
    wv, _ = sym_eig(w)
    # the set at h = 0, where W~ = W and U = 0, needs W's solve alone
    return with_h(MixingSet(w, w, np.zeros_like(w), 0.0, delta, wv, wv), h)


def with_h(ms: MixingSet, h: float) -> MixingSet:
    """``ms`` at smoothing ``h``: W~, U and W~'s eigenvalues are rebuilt,
    while W, delta and W's eigenvalues carry over unchanged."""
    w_tilde = build_w_tilde(ms.w, h)
    # U = W~ - W = h*(I - W); the scaled form avoids the cancellation the
    # literal difference suffers once h is small (entries h*O(1) computed
    # from O(1) inputs), which otherwise leaves U with eps-level negative
    # eigenvalues.
    u = h * (np.eye(ms.n) - ms.w)
    u = (u + u.T) / 2.0
    wtv, _ = sym_eig(w_tilde)
    return dataclasses.replace(ms, w_tilde=w_tilde, u=u, h=h, wt_eigs=wtv)


@dataclasses.dataclass(frozen=True)
class Check:
    """One named hypothesis, whether it holds, and the figures that
    decided it."""

    name: str
    passed: bool
    detail: str


@dataclasses.dataclass(frozen=True)
class Report:
    """A tuple of checks, printed one ``[pass]/[FAIL] name: detail`` line
    each."""

    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        return [f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
                for c in self.checks]


def validate_assumptions(ms: MixingSet) -> Report:
    """Check the standing mixing-matrix assumptions, one result per clause.

    The spectrum clauses of W and W~ read the eigenvalues ``ms`` was built
    with; only (I+W)/2 - W~ and U are solved here."""
    n = ms.n
    checks: list[Check] = []

    def add(name, passed, detail):
        checks.append(Check(name, bool(passed), detail))

    row_dev = float(np.max(np.abs(ms.w.sum(axis=1) - 1.0)))
    col_dev = float(np.max(np.abs(ms.w.sum(axis=0) - 1.0)))
    dev = max(row_dev, col_dev)
    add("doubly-stochastic", dev <= 1e-12,
        f"max row/col sum deviation {dev:.3e} (tol 1e-12)")

    diag_min = float(np.min(np.diag(ms.w)))
    add("diagonal-positive", diag_min > 0.0, f"min W_ii = {diag_min:.6g}")

    off = ms.w[~np.eye(n, dtype=bool)]
    off_min = float(off.min()) if off.size else 0.0
    add("offdiagonal-nonnegative", off_min >= -1e-12,
        f"min W_ij (i != j) = {off_min:.6g}")

    lo, hi = float(ms.w_eigs[0]), float(ms.w_eigs[-1])
    add("w-spectrum", lo > -1.0 + 1e-12 and hi <= 1.0 + 1e-12,
        f"eig(W) in [{lo:.6g}, {hi:.6g}], required within (-1, 1]")

    wt_lo = float(ms.wt_eigs[0])
    add("wt-positive-definite", wt_lo > 0.0,
        f"min eig(W~) = {wt_lo:.6g}, required > 0")

    upper = (np.eye(n) + ms.w) / 2.0 - ms.w_tilde
    upper_min = float(sym_eig(upper)[0][0])
    add("psd-order-upper", upper_min >= -1e-10,
        f"min eig((I+W)/2 - W~) = {upper_min:.3e} (>= -1e-10)")

    uv, _ = sym_eig(ms.u)
    lower_min = float(uv[0])
    add("psd-order-lower", lower_min >= -1e-10,
        f"min eig(W~ - W) = {lower_min:.3e} (>= -1e-10)")

    # relative to U's own scale, which is h times that of I - W; U = 0
    # (no edges) has every direction null
    null_dim = int(np.sum(uv <= _NULL_TOL * float(np.max(np.abs(uv)))))
    add("null-space", null_dim == 1,
        f"dim null(U) = {null_dim}, required exactly 1 (span of ones)")

    ones = np.ones(n) / np.sqrt(n)
    resid = float(np.max(np.abs(mix_apply(ms.u, ones[:, None]))))
    add("ones-in-null", resid <= 1e-10,
        f"max |U 1|/sqrt(n) = {resid:.3e} (<= 1e-10)")

    return Report(tuple(checks))
