"""Bayesian regression targets: data generation, gradients, posteriors.

Two decentralized tasks, both over N agents holding disjoint shards:

- Linear regression with squared loss written with coefficient 1 (no
  1/(2 xi^2)), prior term ||beta||^2 / (2 lambda N) per agent.  With that
  convention exp(-sum_i f_i) is the Gaussian posterior evaluated at noise
  scale xi = 1/sqrt(2), which is what ``LinRegTask.target`` returns; the
  ``linreg_posterior`` op itself takes whatever xi the caller wants.
- Logistic regression with labels folded into signed features
  s_j = 2 y_j - 1, prior ||beta||^2 / (2 N lambda) per agent.

Gradient conventions (the per-agent f_i everything samples from):

    linreg:  grad f_i = sum_j 2 (beta^T X_j - y_j) X_j + beta / (lambda N)
    logreg:  grad f_i = sum_j -s_j X_j sigma(-beta^T s_j X_j) + beta/(N lambda)

Each task's ``grad_block`` evaluates these for a whole (replicas, agents,
dim) block in one call; ``full_grad`` and ``stoch_grad`` are its one-row
case.  A row's bits do not depend on how many rows share the call:
products over the feature axis run as a fixed-order loop of elementwise
operations, and sums over data rows run along a contiguous last axis.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Protocol, runtime_checkable

import numpy as np
from scipy.special import expit

from .linalg import SymMatrix, sym_eig

__all__ = [
    "GaussianDist",
    "checked_cov",
    "GradientOracle",
    "LinRegTask",
    "LogRegTask",
    "LOSS_MATCHED_NOISE_STD",
    "gen_linreg_data",
    "gen_logreg_data",
    "linreg_posterior",
    "linreg_grad",
    "logreg_grad",
    "minibatch_grad",
    "mu_L_bounds",
    "load_csv_dataset",
    "partition_data",
    "estimate_grad_noise",
]

logger = logging.getLogger("exlg")

# Noise scale at which the displayed posterior equals exp(-sum_i f_i) for
# the coefficient-1 squared loss: 1/xi^2 = 2.
LOSS_MATCHED_NOISE_STD = float(np.sqrt(0.5))


@dataclasses.dataclass(frozen=True)
class GaussianDist:
    """A Gaussian with PSD covariance (validated within a small clip)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        c = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if c.shape != (m.size, m.size):
            raise ValueError(
                f"cov shape {c.shape} does not match mean dim {m.size}"
            )
        c = checked_cov(c)
        m.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", c)

    @property
    def dim(self) -> int:
        return self.mean.size


def checked_cov(c) -> np.ndarray:
    """A covariance, or a (..., d, d) stack of them, symmetrized and checked.

    Raises ``ValueError`` on non-finite entries, or when a matrix's least
    eigenvalue is below -1e-10 * max(1, max|c|) of that matrix.  The
    result is read-only.
    """
    c = SymMatrix(c).entries
    lo = np.linalg.eigvalsh(c)[..., 0]
    bad = lo < -1e-10 * np.maximum(1.0, np.max(np.abs(c), axis=(-2, -1)))
    if np.any(bad):
        raise ValueError(
            f"covariance not PSD: min eigenvalue {lo[bad][0]:.3e}")
    return c


@runtime_checkable
class GradientOracle(Protocol):
    """What a sampler needs from a task."""

    @property
    def dim(self) -> int: ...

    @property
    def n_agents(self) -> int: ...

    def full_grad(self, i: int, x: np.ndarray) -> np.ndarray: ...

    def stoch_grad(
        self, i: int, x: np.ndarray, batch: int, rng: np.random.Generator
    ) -> np.ndarray: ...

    @property
    def mu(self) -> float: ...

    @property
    def L(self) -> float: ...


def _as_shards(xs, ys):
    xs = tuple(np.atleast_2d(np.asarray(x, dtype=float)) for x in xs)
    ys = tuple(np.atleast_1d(np.asarray(y, dtype=float)) for y in ys)
    if len(xs) != len(ys) or not xs:
        raise ValueError("need matching, nonempty per-agent shard lists")
    d = xs[0].shape[1]
    if d == 0:
        raise ValueError("first shard has no columns to infer the dimension")
    for x, y in zip(xs, ys):
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"shard has {x.shape[0]} rows but {y.shape[0]} targets"
            )
        if x.shape[1] != d:
            raise ValueError("shards disagree on the feature dimension")
    return xs, ys


def _stack_equal(shards):
    """Equal-size shards stacked as one (N, n_i, ...) array; None if ragged."""
    if len({s.shape[0] for s in shards}) != 1:
        return None
    return np.stack(shards)


def _matvec(m, v):
    """sum_j m[..., j] * v[..., j] (broadcast), as a fixed-order loop over j.

    Elementwise products and sums give every output entry the same bits
    whatever the leading shapes, unlike a BLAS call over the whole stack.
    """
    out = m[..., 0] * v[..., 0]
    for j in range(1, m.shape[-1]):
        out = out + m[..., j] * v[..., j]
    return out


def _rmatvec(a, r):
    """Per block, a^T r: a is (..., n, d), r is (..., n); returns (..., d).

    Each column is one sum over a contiguous last axis, so its bits
    depend on n alone.
    """
    return np.stack([np.sum(a[..., c] * r, axis=-1)
                     for c in range(a.shape[-1])], axis=-1)


class _ShardedTask:
    """What both tasks share: per-agent shards, minibatch draws, the block
    gradient's argument handling, and the prior term.

    Subclasses are frozen dataclasses with fields xs, ys and prior_var.
    """

    def _init_shards(self):
        xs, ys = _as_shards(self.xs, self.ys)
        if self.prior_var <= 0.0:
            raise ValueError("prior_var must be positive")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "_sizes",
                           np.array([x.shape[0] for x in xs], dtype=float))

    @property
    def n_agents(self) -> int:
        return len(self.xs)

    @property
    def dim(self) -> int:
        return self.xs[0].shape[1]

    @property
    def mu(self) -> float:
        return mu_L_bounds(self)[0]

    @property
    def L(self) -> float:
        return mu_L_bounds(self)[1]

    def draw_batch(self, i, batch, rng):
        """``batch`` distinct row indices of agent i's shard, from ``rng``."""
        n_i = self.xs[i].shape[0]
        if not 1 <= batch <= n_i:
            raise ValueError(
                f"batch size {batch} outside [1, {n_i}] for agent {i}")
        return rng.choice(n_i, size=batch, replace=False)

    def _prior_grad(self, beta):
        return beta / (self.prior_var * self.n_agents)

    def _block_args(self, x, agents, idx):
        """x as an (R, n, d) float array and the agent of each row."""
        x = np.asarray(x, dtype=float)
        agents = (np.arange(self.n_agents) if agents is None
                  else np.atleast_1d(np.asarray(agents, dtype=int)))
        if x.ndim != 3 or x.shape[1:] != (agents.size, self.dim):
            raise ValueError(
                f"block shape {x.shape} is not (R, {agents.size}, "
                f"{self.dim})")
        if idx is not None and np.shape(idx)[:2] != x.shape[:2]:
            raise ValueError(
                f"index shape {np.shape(idx)} does not match {x.shape[:2]}")
        return x, agents

    def _one_agent_at_a_time(self, x, idx, agents):
        """Ragged shards cannot be stacked: one call per row's agent."""
        return np.concatenate([
            self.grad_block(x[:, j:j + 1],
                            None if idx is None else idx[:, j:j + 1],
                            agents[j:j + 1])
            for j in range(agents.size)
        ], axis=1)

    def _minibatch_scale(self, agents, idx):
        """n_i / batch for each row, shaped to scale (R, n, d) blocks."""
        return (self._sizes[agents] / np.shape(idx)[-1])[:, None]


def _gather(stack, shards, agents, idx):
    """The rows of each agent's shard a block gradient reads.

    Full batch: (n, n_i, ...) from the stack.  With ``idx`` (R, n, b):
    (R, n, b, ...).  Ragged shards (``stack`` None) serve one agent.
    """
    if stack is None:
        shard = shards[int(agents[0])]
        return shard[None] if idx is None else shard[idx]
    if idx is None:
        return stack[agents]
    return stack[agents[:, None], idx]


@dataclasses.dataclass(frozen=True)
class LinRegTask(_ShardedTask):
    """Decentralized Bayesian linear regression.

    Full-batch gradients use per-agent sufficient statistics computed
    once: G_i = 2 X_i^T X_i and b_i = 2 X_i^T y_i, so
    grad f_i(x) = G_i x - b_i + x / (lambda N) whatever the shard size.
    """

    xs: tuple
    ys: tuple
    prior_var: float

    def __post_init__(self):
        self._init_shards()
        object.__setattr__(self, "_gram",
                           np.stack([2.0 * (x.T @ x) for x in self.xs]))
        object.__setattr__(self, "_xty", np.stack(
            [2.0 * (x.T @ y) for x, y in zip(self.xs, self.ys)]))
        object.__setattr__(self, "_x_stack", _stack_equal(self.xs))
        object.__setattr__(self, "_y_stack", _stack_equal(self.ys))

    def full_grad(self, i, x):
        return linreg_grad(self, i, x)

    def stoch_grad(self, i, x, batch, rng):
        return minibatch_grad(self, i, x, batch, rng)

    def grad_block(self, x, idx=None, agents=None):
        """Gradients at every row of an (R, n, d) block.

        Row j of replica r gets grad f_a(x[r, j]) for a = agents[j]
        (default: all N agents in order).  With ``idx`` (R, n, b), the
        data part is the minibatch estimate over those shard rows, scaled
        by n_i / b.  A row's bits do not depend on R or n.
        """
        x, agents = self._block_args(x, agents, idx)
        if idx is None:
            data = _matvec(self._gram[agents], x[..., None, :]) \
                - self._xty[agents]
        elif self._x_stack is None and agents.size > 1:
            return self._one_agent_at_a_time(x, idx, agents)
        else:
            xb = _gather(self._x_stack, self.xs, agents, idx)
            yb = _gather(self._y_stack, self.ys, agents, idx)
            resid = _matvec(xb, x[..., None, :]) - yb
            data = self._minibatch_scale(agents, idx) \
                * (2.0 * _rmatvec(xb, resid))
        return data + self._prior_grad(x)

    def stacked_design(self):
        return np.vstack(self.xs), np.concatenate(self.ys)

    def minimizer(self) -> np.ndarray:
        """argmin of sum_i f_i, in closed form."""
        x, y = self.stacked_design()
        d = self.dim
        a = 2.0 * (x.T @ x) + np.eye(d) / self.prior_var
        return np.linalg.solve(a, 2.0 * (x.T @ y))

    def target(self) -> GaussianDist:
        """The stationary law exp(-sum_i f_i): the loss-matched posterior."""
        x, y = self.stacked_design()
        return linreg_posterior(
            x, y, self.prior_var, noise_std=LOSS_MATCHED_NOISE_STD
        )


@dataclasses.dataclass(frozen=True)
class LogRegTask(_ShardedTask):
    """Decentralized Bayesian logistic regression, labels in {0, 1}."""

    xs: tuple
    ys: tuple
    prior_var: float

    def __post_init__(self):
        self._init_shards()
        for y in self.ys:
            if y.size and not np.all((y == 0.0) | (y == 1.0)):
                raise ValueError("logistic labels must be 0 or 1")
        signed = tuple(x * (2.0 * y - 1.0)[:, None]
                       for x, y in zip(self.xs, self.ys))
        object.__setattr__(self, "_signed", signed)
        object.__setattr__(self, "_s_stack", _stack_equal(signed))

    def signed(self, i, idx=None):
        """Features folded with the label sign: s_j X_j, s_j = 2 y_j - 1."""
        s = self._signed[i]
        return s if idx is None else s[idx]

    def full_grad(self, i, x):
        return logreg_grad(self, i, x)

    def stoch_grad(self, i, x, batch, rng):
        return minibatch_grad(self, i, x, batch, rng)

    def grad_block(self, x, idx=None, agents=None):
        """Gradients at every row of an (R, n, d) block.

        Row j of replica r gets grad f_a(x[r, j]) for a = agents[j]
        (default: all N agents in order).  With ``idx`` (R, n, b), the
        data part is the minibatch estimate over those shard rows, scaled
        by n_i / b.  A row's bits do not depend on R or n.
        """
        x, agents = self._block_args(x, agents, idx)
        if self._s_stack is None and agents.size > 1:
            return self._one_agent_at_a_time(x, idx, agents)
        s = _gather(self._s_stack, self._signed, agents, idx)
        data = -_rmatvec(s, expit(-_matvec(s, x[..., None, :])))
        if idx is not None:
            data = self._minibatch_scale(agents, idx) * data
        return data + self._prior_grad(x)

    def minimizer(self, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
        """argmin of sum_i f_i by damped Newton (backtracking line search)."""
        d = self.dim
        beta = np.zeros(d)

        def value(b):
            v = 0.5 * float(b @ b) / self.prior_var
            for i in range(self.n_agents):
                s = self.signed(i)
                if s.size:
                    # -log sigma(z) = log(1 + exp(-z)), computed stably
                    z = s @ b
                    v += float(np.sum(np.logaddexp(0.0, -z)))
            return v

        def grad(b):
            return sum(self.full_grad(i, b) for i in range(self.n_agents))

        def hess(b):
            hh = np.eye(d) / self.prior_var
            for i in range(self.n_agents):
                s = self.signed(i)
                if s.size:
                    p = expit(s @ b)
                    hh += (s * (p * (1.0 - p))[:, None]).T @ s
            return hh

        for _ in range(max_iter):
            g = grad(beta)
            if np.linalg.norm(g) <= tol * (1.0 + np.linalg.norm(beta)):
                return beta
            step = np.linalg.solve(hess(beta), g)
            t, v0 = 1.0, value(beta)
            while t > 1e-12 and value(beta - t * step) > v0 - 1e-4 * t * float(
                g @ step
            ):
                t *= 0.5
            beta = beta - t * step
        raise RuntimeError(
            f"Newton failed to reach tol={tol} in {max_iter} iterations "
            f"(||grad|| = {np.linalg.norm(grad(beta)):.3e})"
        )


def gen_linreg_data(
    n_points: int,
    beta_true: np.ndarray,
    noise_std: float,
    rng: np.random.Generator,
):
    """X rows i.i.d. N(0, I_d); y = beta^T X + noise, noise ~ N(0, xi^2)."""
    beta_true = np.atleast_1d(np.asarray(beta_true, dtype=float))
    d = beta_true.size
    x = rng.standard_normal((n_points, d))
    y = x @ beta_true + noise_std * rng.standard_normal(n_points)
    return x, y


def gen_logreg_data(
    n_points: int,
    beta_true: np.ndarray,
    rng: np.random.Generator,
    feature_var: float = 20.0,
):
    """X rows i.i.d. N(0, feature_var * I_d); uniform-threshold labels.

    y_j = 1 when sigma(beta^T X_j) >= u_j with u_j ~ U(0, 1), so the label
    law is exactly Bernoulli(sigma(beta^T X_j)).
    """
    beta_true = np.atleast_1d(np.asarray(beta_true, dtype=float))
    d = beta_true.size
    x = np.sqrt(feature_var) * rng.standard_normal((n_points, d))
    u = rng.uniform(size=n_points)
    y = (expit(x @ beta_true) >= u).astype(float)
    return x, y


def linreg_posterior(
    x: np.ndarray, y: np.ndarray, prior_var: float, noise_std: float
) -> GaussianDist:
    """Conjugate posterior for beta under prior N(0, lambda I).

    m = (Sigma^-1 + X^T X / xi^2)^-1 (X^T y / xi^2),
    V = (X^T X / xi^2 + Sigma^-1)^-1, with Sigma = lambda I.
    Empty data returns the prior (m = 0, V = lambda I).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.size == 0:
        d = x.shape[1] if x.ndim == 2 and x.shape[1] else y.size
        if d == 0:
            raise ValueError("cannot infer dimension from empty data")
        return GaussianDist(np.zeros(d), prior_var * np.eye(d))
    d = x.shape[1]
    prec = x.T @ x / noise_std**2 + np.eye(d) / prior_var
    v = np.linalg.inv(prec)
    v = (v + v.T) / 2.0
    m = v @ (x.T @ y / noise_std**2)
    return GaussianDist(m, v)


def linreg_grad(task: LinRegTask, i: int, beta: np.ndarray) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    return task.grad_block(beta[None, None], agents=i)[0, 0]


def logreg_grad(task: LogRegTask, i: int, beta: np.ndarray) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    return task.grad_block(beta[None, None], agents=i)[0, 0]


def minibatch_grad(
    task, i: int, beta: np.ndarray, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Unbiased minibatch gradient of f_i.

    Draws ``batch`` indices without replacement, scales the data part by
    n_i / batch, and adds the full prior term.  batch = n_i reproduces the
    full gradient exactly (up to summation order).
    """
    beta = np.asarray(beta, dtype=float)
    idx = task.draw_batch(i, batch, rng)
    return task.grad_block(beta[None, None], idx[None, None], agents=i)[0, 0]


def mu_L_bounds(task) -> tuple[float, float]:
    """Strong-convexity and smoothness constants of the f_i family.

    linreg: mu = min_i lam_min(2 X_i^T X_i) + 1/(lambda N),
            L  = max_i lam_max(2 X_i^T X_i) + 1/(lambda N)
    logreg: mu = 1/(N lambda),
            L  = max_i (1/4) lam_max(X_i^T X_i) + 1/(N lambda)
    With no data both collapse to the prior curvature 1/(lambda N).
    """
    n = task.n_agents
    prior_curv = 1.0 / (task.prior_var * n)
    if isinstance(task, LogRegTask):
        lmax = 0.0
        for x in task.xs:
            if x.shape[0]:
                lmax = max(lmax, 0.25 * float(sym_eig(x.T @ x).values[-1]))
        return prior_curv, lmax + prior_curv
    lo, hi = np.inf, 0.0
    for x in task.xs:
        if x.shape[0]:
            vals = sym_eig(2.0 * (x.T @ x)).values
            lo = min(lo, float(vals[0]))
            hi = max(hi, float(vals[-1]))
        else:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
    if not np.isfinite(lo):
        lo = 0.0
    return lo + prior_curv, hi + prior_curv


def load_csv_dataset(
    path,
    label_column=None,
    standardize: bool = True,
    variance_floor: float = 1e-12,
):
    """Load a regression/classification table from CSV.

    The first row is treated as a header when any of its fields fails to
    parse as a number.  ``label_column`` picks the target by header name or
    integer position (default: last column).  With ``standardize`` the
    features are centered and scaled per column, with a variance floor so
    constant columns pass through centered rather than dividing by ~0.

    Returns (X, y, feature_names).
    """
    import csv as _csv

    with open(path, newline="") as fh:
        rows = [row for row in _csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")

    def numeric(tok):
        try:
            float(tok)
            return True
        except ValueError:
            return False

    has_header = not all(numeric(tok) for tok in rows[0])
    if has_header:
        header, body = rows[0], rows[1:]
    else:
        header = [f"col{i}" for i in range(len(rows[0]))]
        body = rows
    if not body:
        raise ValueError(f"{path}: no data rows")
    ncol = len(header)
    for r, row in enumerate(body):
        if len(row) != ncol:
            raise ValueError(
                f"{path}: row {r + 1} has {len(row)} fields, expected {ncol}"
            )

    if label_column is None:
        label_idx = ncol - 1
    elif isinstance(label_column, int):
        label_idx = label_column % ncol
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(
                f"{path}: no column named {label_column!r}; "
                f"header is {header}"
            ) from None

    raw_labels = [row[label_idx] for row in body]
    if all(numeric(tok) for tok in raw_labels):
        y = np.array([float(tok) for tok in raw_labels])
    else:
        classes = sorted(set(raw_labels))
        if len(classes) != 2:
            raise ValueError(
                f"{path}: non-numeric label column has {len(classes)} "
                f"distinct values {classes[:5]}, expected 2"
            )
        mapping = {classes[0]: 0.0, classes[1]: 1.0}
        logger.info(
            "mapped labels %r -> 0, %r -> 1", classes[0], classes[1]
        )
        y = np.array([mapping[tok] for tok in raw_labels])

    feat_idx = [j for j in range(ncol) if j != label_idx]
    try:
        x = np.array(
            [[float(row[j]) for j in feat_idx] for row in body]
        )
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric feature value ({exc})") from None
    names = [header[j] for j in feat_idx]

    if standardize and x.size:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        scale = np.sqrt(np.maximum(var, variance_floor))
        x = (x - mean) / scale
    return x, y, names


def partition_data(
    x: np.ndarray,
    y: np.ndarray,
    n_agents: int,
    rng: np.random.Generator,
    per_agent: int | None = None,
):
    """Shuffle and split into equal disjoint per-agent shards.

    Default shard size is len(x) // n_agents; any remainder is dropped with
    a logged warning.  ``per_agent`` forces a smaller shard size (a seeded
    subsample), with the unused rows dropped the same way.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("feature/target row counts differ")
    size = n // n_agents if per_agent is None else int(per_agent)
    if size < 1:
        raise ValueError(
            f"cannot give each of {n_agents} agents at least one of "
            f"{n} points"
        )
    used = size * n_agents
    if used > n:
        raise ValueError(
            f"per_agent={size} needs {used} rows but only {n} available"
        )
    perm = rng.permutation(n)
    if used < n:
        logger.warning(
            "partition drops %d of %d rows (%d agents x %d points)",
            n - used,
            n,
            n_agents,
            size,
        )
    shards = []
    for i in range(n_agents):
        idx = perm[i * size : (i + 1) * size]
        shards.append((x[idx], y[idx]))
    return shards


def estimate_grad_noise(
    task,
    beta: np.ndarray,
    batch: int,
    n_draws: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of E ||xi||^2, the stacked gradient-noise power.

    xi stacks the per-agent minibatch deviations (stoch - full) at ``beta``;
    feeds the sigma^2 slot of the theory constants.
    """
    beta = np.asarray(beta, dtype=float)
    full = [task.full_grad(i, beta) for i in range(task.n_agents)]
    total = 0.0
    for _ in range(n_draws):
        acc = 0.0
        for i in range(task.n_agents):
            diff = task.stoch_grad(i, beta, batch, rng) - full[i]
            acc += float(diff @ diff)
        total += acc
    return total / n_draws
