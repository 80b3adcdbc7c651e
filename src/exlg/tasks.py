"""Bayesian regression targets: data generation, gradients, posteriors.

Two decentralized tasks, both over N agents holding disjoint shards:

- Linear regression with squared loss written with coefficient 1 (no
  1/(2 xi^2)), prior term ||beta||^2 / (2 lambda N) per agent.  Then
  sum_i f_i is a quadratic with Hessian A = 2 X^T X + I / lambda over the
  stacked shards, x* solves A x = 2 X^T y, and ``LinRegTask.target`` is
  exp(-sum_i f_i) = N(x*, A^-1).
- Logistic regression with labels folded into signed features
  s_j = 2 y_j - 1, prior ||beta||^2 / (2 N lambda) per agent.

Gradient conventions (the per-agent f_i everything samples from):

    linreg:  grad f_i = sum_j 2 (beta^T X_j - y_j) X_j + beta / (lambda N)
    logreg:  grad f_i = sum_j -s_j X_j sigma(-beta^T s_j X_j) + beta/(N lambda)

``partition_data`` cuts a dataset into the shards a task holds: one
(N, n, d) feature stack and one (N, n) target stack, n rows per agent.
Each task's ``grad_block(x, rows=None)`` evaluates these at every row of
an (R, N, d) block in one call, over whole shards or minibatch ``rows``;
it is the only gradient entry point.  ``rows(idx)`` gathers the rows of
one step's or a chunk's indices in one ``np.take`` from a flat
(features, N*n) copy of the shards, made once: a step's are (features,
replicas, agents, batch).  A row's bits do not depend on how many rows
share the call: products over the feature axis run as a fixed-order loop
of elementwise operations, and sums over data rows run along a
contiguous last axis.

A task answers for its model, so scoring and the bound ask it and never
branch on its class: ``minimizer()`` is x*, ``mu_L()`` the (mu, L)
curvature bounds of the f_i family, and ``target()`` the Gaussian law
exp(-sum_i f_i), or None where it has no closed form (logistic).

The logistic sigmoid is ``_sigmoid_neg``: numpy only, with the bits of
``scipy.special.expit``, so no command loads scipy.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from .linalg import sym_eig, symmetrized

__all__ = [
    "GaussianDist",
    "checked_cov",
    "LinRegTask",
    "LogRegTask",
    "gen_linreg_data",
    "gen_logreg_data",
    "LabelError",
    "load_csv_dataset",
    "partition_data",
]

logger = logging.getLogger("exlg")

# Feature variance of the synthetic logistic data
_LOGREG_FEATURE_VAR = 20.0
# LogRegTask.minimizer stops at ||grad|| <= _NEWTON_TOL (1 + ||beta||) and
# gives up after _NEWTON_ITERS Newton steps; it skips the line search when
# the predicted decrease g.step is at most _NEWTON_FLAT |value|
_NEWTON_TOL = 1e-10
_NEWTON_ITERS = 200
_NEWTON_FLAT = 4.0 * np.finfo(float).eps
# glibc's cexp scales its result once the real part passes
# (DBL_MAX_EXP - 1) ln 2, truncated, so its bits there may differ from exp's
_CEXP_EXACT = 709.0


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
    c = symmetrized(c)
    lo = np.linalg.eigvalsh(c)[..., 0]
    bad = lo < -1e-10 * np.maximum(1.0, np.max(np.abs(c), axis=(-2, -1)))
    if np.any(bad):
        raise ValueError(
            f"covariance not PSD: min eigenvalue {lo[bad][0]:.3e}")
    return c


def _exp_libm(v):
    """The C library's exp(v) for one float, inf where it overflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _sigmoid_neg(t):
    """1 / (1 + exp(t)) per entry of a float array: sigma(-t), bit for bit
    ``scipy.special.expit(-t)``.

    expit calls the C library's exp, whose last bits numpy's own float exp
    does not always match.  The real part of a complex exp with zero
    imaginary part is C99 cexp's, which is that exp up to _CEXP_EXACT.
    Entries above it, and NaN, take ``math.exp`` (the C library's too), so
    the complex exp never overflows and never warns.
    """
    if t.max(initial=-np.inf) <= _CEXP_EXACT:
        e = np.exp(t.astype(complex)).real
    else:
        slow = ~(t <= _CEXP_EXACT)
        e = np.exp(np.where(slow, 0.0, t).astype(complex)).real
        e[slow] = [_exp_libm(v) for v in t[slow].tolist()]
    return 1.0 / (1.0 + e)


def _matvec(m, v):
    """sum_j m[j] * v[j] over the leading (feature) axis, broadcast, as a
    fixed-order loop over j.

    Elementwise products and sums give every output entry the same bits
    whatever the other shapes, unlike a BLAS call over the whole stack.
    """
    out = m[0] * v[0]
    for j in range(1, len(m)):
        out += m[j] * v[j]
    return out


def _rmatvec(a, r):
    """Per block, a^T r with ``a`` feature-major: a is (d, R, n, b) (or
    broadcasts to it), r is (R, n, b); returns (R, n, d).

    One product and one sum over the contiguous last axis, so an entry's
    bits depend on b alone.
    """
    return np.sum(a * r, axis=-1).transpose(1, 2, 0)


class _ShardedTask:
    """What both tasks share: the shard stacks, the block gradient's
    argument checks, the minibatch gather `rows`, and the prior term.

    ``xs`` and ``ys`` are the (N, n, d) feature stack and (N, n) target
    stack that ``partition_data`` cuts (or a sequence of equal shards,
    stacked); ``prior_var`` is lambda.  Each subclass keeps its model
    state and ``_flat``, the feature-major (c, N*n) copy of an (N, n, c)
    stack of per-row data that `rows` reads.
    """

    def __init__(self, xs, ys, prior_var):
        """Keep copies of xs and ys as float stacks, checked: N >= 1 equal
        shards of n >= 1 rows and d >= 1 features, every entry finite,
        and a positive finite prior_var."""
        try:
            xs = np.array(xs, dtype=float)
            ys = np.array(ys, dtype=float)
        except ValueError:  # a ragged sequence of shards
            raise ValueError(
                "shards must be equal and nonempty; got a ragged sequence"
            ) from None
        if xs.ndim != 3 or ys.shape != xs.shape[:2] or 0 in xs.shape:
            raise ValueError(
                "shards must be equal and nonempty: need an (N, n, d) "
                f"feature stack and an (N, n) target stack, got {xs.shape} "
                f"and {ys.shape}")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("shards must hold finite numbers only")
        if not 0.0 < prior_var < np.inf:
            raise ValueError(
                f"prior_var must be positive and finite, got {prior_var}")
        self.xs, self.ys, self.prior_var = xs, ys, prior_var
        # agent a's shard is columns a*n on of the (c, N*n) ``_flat``
        self._row0 = np.arange(xs.shape[0]) * xs.shape[1]
        # per-call constants: a block's (N, d), and lambda N of the prior
        self._rows = (xs.shape[0], xs.shape[2])
        self._lam_n = prior_var * xs.shape[0]

    @property
    def n_agents(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[2]

    @property
    def shard_size(self) -> int:
        """Rows in every agent's shard."""
        return self.xs.shape[1]

    def _prior_grad(self, beta):
        return beta / self._lam_n

    def rows(self, idx):
        """The (..., c, R, N, b) `grad_block` rows of (..., R, N, b)
        minibatch indices, one ``np.take``: entry j, for leading indices
        j, is the rows of idx[j], agent i's in [0, shard_size).  Indices
        obey numpy's rules for indexing one shard: integers only, and
        negative ones count from the end."""
        idx = np.asarray(idx)
        if idx.ndim < 3 or idx.shape[-2] != self.n_agents:
            raise ValueError(f"index shape {idx.shape} is not "
                             f"(..., R, {self.n_agents}, b)")
        if idx.dtype.kind not in "iu":
            raise IndexError(
                f"minibatch indices must be integers, not {idx.dtype}")
        idx, n = idx.astype(np.intp, copy=False), self.shard_size
        lo = idx.min(initial=0)
        if lo < -n or idx.max(initial=0) >= n:
            raise IndexError(f"minibatch index outside [-{n}, {n})")
        idx = idx % n if lo < 0 else idx
        return np.moveaxis(
            np.take(self._flat, np.add(self._row0[:, None], idx, order="C"),
                    axis=1), 0, -4)

    def _block_args(self, x, rows):
        """x as an (R, N, d) float array, checked, with ``rows`` None or
        a (c, R, N, b) slice of `rows` for the same R and N."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[1:] != self._rows:
            raise ValueError(f"block shape {x.shape} is not "
                             f"(R, {self.n_agents}, {self.dim})")
        if rows is not None and rows.shape[1:-1] != x.shape[:2]:
            raise ValueError(f"index shape {rows.shape[1:]} is not "
                             f"{x.shape[:2]} + (b,)")
        return x


class LinRegTask(_ShardedTask):
    """Decentralized Bayesian linear regression.

    Full-batch gradients use per-agent sufficient statistics computed
    once: G_i = 2 X_i^T X_i and b_i = 2 X_i^T y_i, so
    grad f_i(x) = G_i x - b_i + x / (lambda N) whatever the shard size.
    """

    def __init__(self, xs, ys, prior_var):
        super().__init__(xs, ys, prior_var)
        # one stacked product each, with every agent's 2 X^T X and 2 X^T y
        # bits (tests/test_tasks.py holds them to the per-agent products)
        xt = self.xs.swapaxes(1, 2)
        self._gram = 2.0 * (xt @ self.xs)
        self._gram_t = self._gram.transpose(2, 0, 1)  # [j][a, c] = G_a[c, j]
        self._xty = 2.0 * (xt @ self.ys[..., None])[..., 0]
        xy = np.concatenate([self.xs, self.ys[..., None]], -1)
        self._flat = np.ascontiguousarray(xy.reshape(-1, self.dim + 1).T)

    def grad_block(self, x, rows=None):
        """Gradients at every row of an (R, N, d) block.

        Row i of replica r gets grad f_i(x[r, i]).  With ``rows``, a
        (c, R, N, b) slice of `rows`, the data part is the minibatch
        estimate over those shard rows, scaled by n / b.  A row's bits do
        not depend on R or on the other rows.
        """
        x = self._block_args(x, rows)
        xt = x.transpose(2, 0, 1)[..., None]
        if rows is None:
            data = _matvec(self._gram_t, xt) - self._xty
        else:  # rows: the d features, then y
            resid = _matvec(rows[:-1], xt) - rows[-1]
            data = (self.shard_size / rows.shape[-1]) \
                * (2.0 * _rmatvec(rows[:-1], resid))
        return data + self._prior_grad(x)

    def _normal_equations(self):
        """(A, b) = (2 X^T X + I / lambda, 2 X^T y) over the stacked
        shards: A is the Hessian of sum_i f_i, and x* solves A x = b."""
        x, y = self.xs.reshape(-1, self.dim), self.ys.ravel()
        return (2.0 * (x.T @ x) + np.eye(self.dim) / self.prior_var,
                2.0 * (x.T @ y))

    def minimizer(self) -> np.ndarray:
        """argmin of sum_i f_i, in closed form."""
        return np.linalg.solve(*self._normal_equations())

    def mu_L(self) -> tuple[float, float]:
        """Strong-convexity and smoothness constants of the f_i family:
        mu = min_i lam_min(2 X_i^T X_i) + 1/(lambda N),
        L  = max_i lam_max(2 X_i^T X_i) + 1/(lambda N),
        from one stacked eigensolve of the (N, d, d) Gram stack."""
        prior_curv = 1.0 / self._lam_n
        vals, _ = sym_eig(self._gram)
        return (float(vals[:, 0].min()) + prior_curv,
                float(vals[:, -1].max()) + prior_curv)

    def target(self) -> GaussianDist:
        """The stationary law exp(-sum_i f_i) = N(x*, A^-1)."""
        a, b = self._normal_equations()
        return GaussianDist(np.linalg.solve(a, b), np.linalg.inv(a))


class LogRegTask(_ShardedTask):
    """Decentralized Bayesian logistic regression, labels in {0, 1}."""

    def __init__(self, xs, ys, prior_var):
        super().__init__(xs, ys, prior_var)
        if not np.all((self.ys == 0.0) | (self.ys == 1.0)):
            raise ValueError("logistic labels must be 0 or 1")
        s = self.xs * (2.0 * self.ys - 1.0)[..., None]
        self._flat = np.ascontiguousarray(s.reshape(-1, self.dim).T)

    def mu_L(self) -> tuple[float, float]:
        """Strong-convexity and smoothness constants of the f_i family:
        mu = 1/(N lambda),
        L  = max_i (1/4) lam_max(X_i^T X_i) + 1/(N lambda),
        from one stacked eigensolve of the (N, d, d) X_i^T X_i stack."""
        prior_curv = 1.0 / self._lam_n
        vals, _ = sym_eig(self.xs.swapaxes(1, 2) @ self.xs)
        return prior_curv, 0.25 * float(vals[:, -1].max()) + prior_curv

    def target(self) -> None:
        """None: the logistic posterior has no closed form."""
        return None

    def grad_block(self, x, rows=None):
        """Gradients at every row of an (R, N, d) block.

        Row i of replica r gets grad f_i(x[r, i]).  With ``rows``, a
        (c, R, N, b) slice of `rows`, the data part is the minibatch
        estimate over those shard rows, scaled by n / b.  A row's bits do
        not depend on R or on the other rows.
        """
        x = self._block_args(x, rows)
        s = (self._flat.reshape(self.dim, 1, self.n_agents, -1)
             if rows is None else rows)
        z = _matvec(s, x.transpose(2, 0, 1)[..., None])
        data = -_rmatvec(s, _sigmoid_neg(z))
        if rows is not None:
            data = (self.shard_size / rows.shape[-1]) * data
        return data + self._prior_grad(x)

    def minimizer(self) -> np.ndarray:
        """argmin of sum_i f_i by damped Newton (backtracking line search)."""
        d, s = self.dim, self._flat  # s: the (d, N*n) signed features
        beta = np.zeros(d)

        def value(b):
            # -log sigma(z) = log(1 + exp(-z)), computed stably
            return (0.5 * float(b @ b) / self.prior_var
                    + float(np.sum(np.logaddexp(0.0, -(b @ s)))))

        def grad(b):
            # the agents' gradients at b, summed in agent order
            return sum(self.grad_block(
                np.broadcast_to(b, (1, self.n_agents, d)))[0])

        def hess(b):
            p = _sigmoid_neg(-(b @ s))
            return np.eye(d) / self.prior_var + (s * (p * (1.0 - p))) @ s.T

        for _ in range(_NEWTON_ITERS):
            g = grad(beta)
            if np.linalg.norm(g) <= _NEWTON_TOL * (1.0 + np.linalg.norm(beta)):
                return beta
            step = np.linalg.solve(hess(beta), g)
            t, v0, slope = 1.0, value(beta), float(g @ step)
            # a decrease below the rounding of value cannot be tested:
            # there the full Newton step is taken, not a search on noise
            while (slope > _NEWTON_FLAT * abs(v0) and t > 1e-12
                   and value(beta - t * step) > v0 - 1e-4 * t * slope):
                t *= 0.5
            beta = beta - t * step
        raise RuntimeError(
            f"Newton failed to reach tol={_NEWTON_TOL} in {_NEWTON_ITERS} "
            f"iterations (||grad|| = {np.linalg.norm(grad(beta)):.3e})"
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
):
    """X rows i.i.d. N(0, 20 I_d); uniform-threshold labels.

    y_j = 1 when sigma(beta^T X_j) >= u_j with u_j ~ U(0, 1), so the label
    law is exactly Bernoulli(sigma(beta^T X_j)).
    """
    beta_true = np.atleast_1d(np.asarray(beta_true, dtype=float))
    d = beta_true.size
    x = np.sqrt(_LOGREG_FEATURE_VAR) * rng.standard_normal((n_points, d))
    u = rng.uniform(size=n_points)
    y = (_sigmoid_neg(-(x @ beta_true)) >= u).astype(float)
    return x, y


class LabelError(ValueError):
    """The label column of a data file is missing or unusable."""


# load_csv_dataset scales each feature by sqrt(max(variance, this floor)),
# so a constant column comes out centered instead of divided by ~0
_VARIANCE_FLOOR = 1e-12


def load_csv_dataset(path, label_column=None):
    """Load a regression/classification table from CSV, standardized.

    The first row is treated as a header when any of its fields fails to
    parse as a number.  ``label_column`` picks the target by header name or
    by integer position in [-ncol, ncol) (default: the last column).  Every
    number must be finite.  The features are centered and scaled per
    column (see ``_VARIANCE_FLOOR``).

    Returns (X, y, feature_names).  A file that cannot be opened raises
    ``OSError``; one that cannot be parsed raises ``ValueError``, and
    ``LabelError`` when the fault is in the label column.
    """
    import csv as _csv

    try:
        with open(path, newline="") as fh:
            rows = [row for row in _csv.reader(fh) if row]
    except (UnicodeDecodeError, _csv.Error) as exc:
        raise ValueError(f"{path}: not a CSV text file ({exc})") from None
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
        if not -ncol <= label_column < ncol:
            raise LabelError(
                f"{path}: label column {label_column} is outside "
                f"[{-ncol}, {ncol}) for {ncol} columns"
            )
        label_idx = label_column % ncol
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise LabelError(
                f"{path}: no column named {label_column!r}; "
                f"header is {header}"
            ) from None

    raw_labels = [row[label_idx] for row in body]
    if all(numeric(tok) for tok in raw_labels):
        y = np.array([float(tok) for tok in raw_labels])
        if not np.all(np.isfinite(y)):
            raise LabelError(f"{path}: label column {header[label_idx]!r} "
                             "holds a non-finite value")
    else:
        classes = sorted(set(raw_labels))
        if len(classes) != 2:
            raise LabelError(
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
    if not np.all(np.isfinite(x)):
        r, j = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(
            f"{path}: row {r + 1}, column {names[j]!r} has the non-finite "
            f"value {body[r][feat_idx[j]]!r}"
        )

    if x.size:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        scale = np.sqrt(np.maximum(var, _VARIANCE_FLOOR))
        x = (x - mean) / scale
    return x, y, names


def partition_data(
    x: np.ndarray,
    y: np.ndarray,
    n_agents: int,
    rng: np.random.Generator,
    per_agent: int | None = None,
):
    """Shuffle and cut equal disjoint per-agent shards, as the (N, n, d)
    feature stack and (N, n) target stack a task holds.

    The shard size n is len(x) // n_agents, or ``per_agent`` when set (a
    seeded subsample), and at least 1.  Agent i gets rows
    ``perm[i*n:(i+1)*n]`` of one ``rng.permutation``; unused rows are
    dropped with a logged warning.  Data with fewer than N * n rows is a
    ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("feature/target row counts differ")
    size = max(n // n_agents if per_agent is None else int(per_agent), 1)
    used = size * n_agents
    if used > n:
        raise ValueError(f"{n_agents} agents x {size} points need {used} "
                         f"rows, the data has {n}")
    perm = rng.permutation(n)
    if used < n:
        logger.warning(
            "partition drops %d of %d rows (%d agents x %d points)",
            n - used,
            n,
            n_agents,
            size,
        )
    idx = perm[:used].reshape(n_agents, size)
    return x[idx], y[idx]

