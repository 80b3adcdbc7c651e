"""Decentralized Langevin chains: ULA, DE-SGLD, EXTRA variants, reference.

Update rules, all driven by one counter-based noise stream so that chains
sharing a seed see identical Gaussians regardless of algorithm:

    ULA         x+ = x - eta * grad f(x) + sqrt(2 eta) w
    DE-SGLD     x_i+ = sum_j W_ij x_j - eta g_i + sqrt(2 eta) w_i
    EXTRA       two-step recursion; the first transition uses the W-based
                bootstrap  x^1 = W x^0 - eta g^0 + sqrt(2 eta) w^1,  then
                x^{k+1} = x^k + W x^k - W~ x^{k-1} - eta (g^k - g^{k-1})
                          + sqrt(2 eta)(w^{k+1} - w^k)
    GEN-EXTRA   x+ = W~ x - eta (g + v) + sqrt(2 eta) w
                v+ = v - U (v + g - B x) + sqrt(2/eta) U w
    REFERENCE   x+ = x - (eta/N) sum_i g_i + sqrt(2 eta) w-bar

The iterate produced at index k+1 consumes Gaussian block k+1; a gradient
drawn at iterate k is evaluated once and reused wherever the recursion
references it again (the EXTRA difference term), so minibatch noise enters
each recursion exactly the way the gradient-noise variable does in the
algebra.
The same gradient draw and the same Gaussian block feed both halves of the
generalized update.  Temperature 0 switches every noise term off and leaves
the optimization skeleton (DGD, EXTRA).

`run_ensemble` advances R replicas together: the state is one
(R, rows, d) array, where rows is the agent count (1 for ULA and the
reference chain), and every chain starts at x = v = 0.  Each transition
is ``x, v = step(k, x, v)``, followed by one divergence guard and one
recording block.  ``step`` comes from a per-algorithm table whose
entries compute the update rules above term for term on the whole array,
with the noise scales formed once and, in the generalized chain, W~ x
formed once for both halves; the tests hold them bit-identical to
per-chain reference steps.  Mixing is one BLAS product per replica
slice, ``grad_block``, the one gradient method of the oracle (see
`run_ensemble`), returns every (replica, agent) gradient in one call,
and each replica's Gaussian block is drawn straight into its slice of
one fresh (R, rows, d) array.
The five algorithms take four step functions.  ULA and the reference
chain share the centralized one, x+ = x - s sum_i g_i(x) + sqrt(2 eta)
w-bar, which sums every agent's gradient at the one shared row: s is eta
for ULA and eta/N for the reference chain, and w-bar is the mean of the
stream's rows (ULA's stream has one row, so w-bar is that row exactly).
EXTRA's bootstrap calls the DE-SGLD rule, and its closure keeps the
previous iterate, gradient and Gaussian block.  Only the generalized chain
moves v, so only it guards and records v.  `run_ensemble` is the one way
to run chains: a single chain is a one-seed ensemble.

Replica r draws from its own stream, keyed by its seed, and each draw
depends on (seed, k, i) alone.  With row bits that do not depend on how
many rows share a call, a replica's values do not depend on how many
replicas run beside it.  A `NoiseStream` keeps one Philox generator and
resets its counter for every block, from a state held in plain ints
(which numpy's setter reads faster than arrays); that gives the same
draws as a fresh generator at that counter.

Minibatch indices never depend on the chain state, so they are drawn
ahead of it: `batch_table` fills the (steps, R, N, b) indices of a chunk
of steps at once, with a vectorized Philox4x64-10 (`philox4x64`) and a
copy of numpy's ``Generator.choice(n, b, replace=False)`` (Lemire's
bounded draw, Floyd's sampler, the final shuffle).  Each entry equals
``batch_rng(k, i).choice``, which stays the definition of the stream;
the copy was verified on numpy 2.4.6, and the tests compare the two so
that another numpy version cannot shift the streams unnoticed.

The dual average v-bar stays at exactly zero up to accumulated roundoff
because U's column sums vanish; the guard checks it at every step of the
generalized chain, replica by replica only when a check over the whole
array fails.  `run_ensemble` never materializes the integrated dual q.
"""

import dataclasses
import hashlib
import math

import numpy as np

from .linalg import mix_apply

__all__ = [
    "ALGORITHMS",
    "B_MODES",
    "CENTRALIZED",
    "ChainDivergenceError",
    "SamplerConfig",
    "ChainResult",
    "NoiseStream",
    "derive_seed",
    "philox4x64",
    "batch_table",
    "record_ks",
    "run_ensemble",
]

ALGORITHMS = (
    "ULA",
    "DE_SGLD",
    "EXTRA_SGLD",
    "GEN_EXTRA_SGLD",
    "REFERENCE_CHAIN",
)

# the chains that run one shared row and need no mixing set
CENTRALIZED = ("ULA", "REFERENCE_CHAIN")

B_MODES = ("wtilde-over-eta", "scaled-identity")

_DIVERGENCE_LIMIT = 1e12
# the dual average max |sum_i v_i| / N may drift from 0 by at most this
# much times max(1, max |v|)
_DUAL_TOL = 1e-8

# Philox counter word 3 tags the stream family; word 0 is the in-stream
# draw counter (little-endian), words 1 and 2 carry (k, i).
_TAG_NOISE = 1
_TAG_BATCH = 2


class ChainDivergenceError(RuntimeError):
    """An iterate left the guard ball (entries above 1e12 or non-finite),
    or the generalized chain's dual average left zero.

    ``algorithm``, ``replica`` (index into the run's seeds), ``k``,
    ``agent`` (the row holding the largest |entry|; None for the dual
    average) and ``value`` (that entry, or the dual drift) say where.
    """

    def __init__(self, message, *, algorithm=None, replica=None, k=None,
                 agent=None, value=None):
        super().__init__(message)
        self.algorithm = algorithm
        self.replica = replica
        self.k = k
        self.agent = agent
        self.value = value


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit sub-seed from a master seed and a label path.

    sha256 over the decimal master and the stringified parts; documented so
    runs can be reproduced piecemeal from a manifest.
    """
    text = ":".join([str(int(master))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


class NoiseStream:
    """Counter-based Gaussian supply, deterministic in (seed, k, i).

    ``gaussian_block(k)`` returns the (N, d) block for iterate k, row i
    agent i's draw.  ``batch_rng(k, i)`` hands out an independent
    Generator for agent i's minibatch indices at iterate k.  Streams are
    separated in the high Philox counter words, so no amount of drawing
    from one can reach another.

    One Philox generator is kept and its counter reset to [0, k, i, tag]
    for every draw, which yields exactly the draws of a fresh
    ``Philox(key=seed, counter=[0, k, i, tag])``.  So a Generator
    returned by ``batch_rng`` is valid only until the next draw from the
    same stream: use it at once.  The reset state is kept in plain ints,
    which numpy's setter reads faster than it unboxes numpy arrays.

    Agent i's minibatch at iterate k is ``batch_rng(k, i).choice(n, b,
    replace=False)``.  Chains read it from `batch_table` instead, which
    computes the same indices from ``seed`` for a chunk of steps at once
    and calls ``batch_rng`` only where its copy of numpy's draw does not
    apply.
    """

    def __init__(self, seed: int, n_agents: int, dim: int):
        self.seed = int(seed) & ((1 << 128) - 1)
        self.n_agents = int(n_agents)
        self.dim = int(dim)
        self._bits = np.random.Philox(key=self.seed)
        self._rng = np.random.Generator(self._bits)
        self._normal = self._rng.standard_normal
        self._shape = (self.n_agents, self.dim)
        self._fresh = self._bits.state  # key set, buffer empty
        st = self._fresh["state"]
        st["key"], self._fresh["buffer"] = [int(w) for w in st["key"]], [0] * 4
        # the setter copies the counter, so it is rewritten in place
        self._ctr = st["counter"] = [0, 0, 0, 0]

    def _gen(self, k: int, i: int, tag: int) -> np.random.Generator:
        ctr = self._ctr
        ctr[1] = k
        ctr[2] = i
        ctr[3] = tag
        self._bits.state = self._fresh
        return self._rng

    def gaussian_block(self, k: int, out=None) -> np.ndarray:
        """The (N, d) block for iterate k, written into ``out`` (a float64
        (N, d) array) when given."""
        self._gen(k, 0, _TAG_NOISE)
        return self._normal(self._shape, out=out)

    def batch_rng(self, k: int, i: int) -> np.random.Generator:
        return self._gen(k, i, _TAG_BATCH)


# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it: round
# multipliers and the Weyl increments of the key.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# bytes a chunk of the minibatch index table may take, with its temporaries
_TABLE_BYTES = 1 << 20


def _mulhilo(a, m):
    """High and low 64-bit words of the 128-bit products a * m; the high
    one from 32-bit halves as Hacker's Delight's mulhu forms it."""
    a0, a1 = a & _LO32, a >> _32
    m0, m1 = m & _LO32, m >> _32
    t = a1 * m0 + (a0 * m0 >> _32)
    w1 = a0 * m1 + (t & _LO32)
    return a1 * m1 + (t >> _32) + (w1 >> _32), a * m


def philox4x64(ctr, key):
    """The Philox4x64-10 block of each counter under its key.

    ``ctr`` is four uint64 arrays (word 0 first) and ``key`` two; the
    words broadcast together, and the early rounds run at the smaller
    shapes that their inputs broadcast to.  Returns the four output words:
    what numpy's ``Philox(key=...)`` yields, in that order, once its
    counter has been stepped to ``ctr``.
    """
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _floyd_rows(u32, n, b):
    """``Generator.choice(n, b, replace=False)`` of numpy's Floyd branch
    for S streams, from their 32-bit draws ``u32`` (S, m): a (b, S) array
    whose column s is stream s's indices, and a mask of the streams whose
    draws hit a Lemire rejection (numpy draws again; those are wrong).
    The draws, Lemire's bounded integers on [0, j], are one (draws, S)
    array.  Floyd's sampler (j = n-b .. n-1, no draw at j = 0) marks value
    v at s*n + v of a flat bitmap; the final shuffle (j = b-1 .. 1) swaps
    flat output entries t*S + s and v*S + s."""
    bound = np.concatenate([np.arange(max(n - b, 1), n),
                            np.arange(b - 1, 0, -1)]).astype(np.uint64)
    span = bound + np.uint64(1)
    m = u32[:, :bound.size].T * span[:, None]
    rejected = ((m & _LO32) < ((_LO32 - bound) % span)[:, None]).any(axis=0)
    draws = iter((m >> _32).astype(np.int64))
    cols = np.arange(u32.shape[0])
    out = np.empty((b, cols.size), dtype=np.int64)
    flat, taken = out.reshape(-1), np.zeros(cols.size * n, dtype=bool)
    at = cols * n
    for t, j in enumerate(range(n - b, n)):
        val = next(draws) if j else 0
        out[t] = np.where(taken[at + val], j, val)
        taken[at + out[t]] = True
    for t in range(b - 1, 0, -1):
        pos = next(draws) * cols.size + cols
        out[t], flat[pos] = flat[pos], out[t].copy()
    return out, rejected


def batch_table(noises, ks, n_agents, n, batch) -> np.ndarray:
    """Minibatch indices of every (step, replica, agent): a (len(ks), R,
    n_agents, batch) int64 table whose entry [t, r, i] equals
    ``noises[r].batch_rng(ks[t], i).choice(n, batch, replace=False)``.

    Stream (r, k, i) is Philox keyed by ``noises[r].seed`` at counters
    [1.., k, i, 2]; one `philox4x64` call serves every stream, and
    `_floyd_rows` turns each block's words into (batch, streams) indices.
    Two cases call the scalar ``batch_rng(k, i).choice`` instead: a
    stream that hits a Lemire rejection, and numpy's tail-shuffle branch
    (n > 10000 and b > n // 50).
    """
    if not 1 <= batch <= n:
        raise ValueError(f"batch size {batch} outside [1, {n}]")
    ks = np.asarray(ks, dtype=np.uint64)
    shape = (ks.size, len(noises), n_agents)
    if n > 10000 and batch > n // 50:
        table = np.empty(shape + (batch,), dtype=np.int64)
        scalar = np.ones(shape, dtype=bool)
    else:
        key = np.array([[nz.seed & 0xFFFFFFFFFFFFFFFF, nz.seed >> 64]
                        for nz in noises], dtype=np.uint64)[:, None, None]
        n_draws = 2 * batch - 1 - (n == batch)
        n_blocks = max(1, -(-n_draws // 8))  # 8 32-bit draws a block
        words = np.stack(philox4x64(
            (np.arange(1, n_blocks + 1, dtype=np.uint64),
             ks[:, None, None, None],
             np.arange(n_agents, dtype=np.uint64)[:, None],
             np.uint64(_TAG_BATCH)),
            (key[..., 0], key[..., 1])), axis=-1).reshape(-1, 4 * n_blocks)
        # each 64-bit word is two 32-bit draws, its low half first
        u32 = words.astype("<u8", copy=False).view("<u4")
        step = max(1, _TABLE_BYTES // n)  # Floyd bitmaps, n bytes a stream
        cols, rejected = zip(*(_floyd_rows(u32[s:s + step], n, batch)
                               for s in range(0, len(u32), step)))
        table = np.concatenate(cols, axis=1).T.reshape(shape + (batch,))
        scalar = np.concatenate(rejected).reshape(shape)
    for t, r, i in zip(*np.nonzero(scalar)):
        table[t, r, i] = noises[r].batch_rng(int(ks[t]), int(i)).choice(
            n, batch, replace=False)
    return table


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """One chain family's settings: the ``[sampler]`` config section.

    B, the free matrix of the generalized chain's dual update, is W~ / eta
    ("wtilde-over-eta") or ``b_scale`` * I ("scaled-identity"); `bx`
    applies it and `norm_b` is the ||B||_2 the bound constants read.  Bad
    fields raise one ValueError with a ``<key>: <problem>`` line each.
    """

    algorithm: str
    eta: float
    steps: int
    batch: int | None = None
    temperature: float = 1.0
    b_mode: str = "wtilde-over-eta"
    b_scale: float = 1.0

    def __post_init__(self):
        bad = {}
        if self.algorithm not in ALGORITHMS:
            bad["algorithm"] = f"{self.algorithm!r} not one of {ALGORITHMS}"
        if not self.eta > 0:
            bad["eta"] = f"must be > 0, got {self.eta}"
        if self.steps < 0:
            bad["steps"] = f"must be >= 0, got {self.steps}"
        if self.batch is not None and self.batch < 1:
            bad["batch"] = "must be >= 1 when set"
        if self.temperature not in (0.0, 1.0):
            bad["temperature"] = f"must be 0 or 1, got {self.temperature}"
        if self.b_mode not in B_MODES:
            bad["b_mode"] = f"{self.b_mode!r} not one of {B_MODES}"
        for key in ("eta", "temperature", "b_scale"):
            if not math.isfinite(getattr(self, key)):
                bad[key] = "must be finite"
        if bad:
            raise ValueError("\n".join(f"{k}: {v}" for k, v in bad.items()))

    def bx(self, x, wx):
        """B x, given x and W~ x."""
        if self.b_mode == "wtilde-over-eta":
            return wx / self.eta
        return self.b_scale * x

    def norm_b(self, norm_wt: float) -> float:
        """||B||_2, given ||W~||_2."""
        if self.b_mode == "wtilde-over-eta":
            return norm_wt / self.eta
        return abs(float(self.b_scale))


def record_ks(steps: int, record_every: int) -> list:
    """The iterates a run records: every ``record_every``-th, and the last."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    return sorted({*range(0, steps + 1, record_every), steps})


@dataclasses.dataclass(frozen=True)
class ChainResult:
    """Recorded trajectory: ks ascending, xs[j] the (R, rows, d) block at
    iterate ks[j], so ``xs`` is (n_rec, R, rows, d).  The final iterate is
    always recorded, so ``xs[-1]`` is the end state.  ``vs`` holds the
    dual blocks of the generalized chain and is None for the others,
    whose v stays zero.
    """

    ks: np.ndarray
    xs: np.ndarray
    vs: np.ndarray | None


def _inside(a):
    """Whether every entry of ``a`` is in the guard ball (NaN is not).

    A sum of squares within a quarter of the limit's square bounds every
    entry with room to spare for its rounding, in one pass; ``np.vdot``,
    unlike ``@``, stays silent when that sum overflows.  Anything else gets
    the exact test.
    """
    return (np.vdot(a, a) <= (0.5 * _DIVERGENCE_LIMIT) ** 2
            or a.max() <= _DIVERGENCE_LIMIT and a.min() >= -_DIVERGENCE_LIMIT)


def _dual_inside(v):
    """Whether every replica's dual drift max |sum_i v_i| / N of the
    (R, N, d) ``v`` is within _DUAL_TOL; a sum of squares first, as in
    `_inside`."""
    s, n = v.sum(axis=1), v.shape[1]
    return (np.vdot(s, s) <= (0.5 * _DUAL_TOL * n) ** 2
            or np.max(np.abs(s)) / n <= _DUAL_TOL)


def _guard(algo, k, x, v=None):
    """Raise ChainDivergenceError if some replica's x (or v, when given)
    left the ball, or its dual average left zero.

    x and v are (R, rows, d).  The lowest such replica is named; for it x
    is checked before v, and v before the dual average.  One global check
    passes a step first: every entry in the ball and every replica's dual
    drift within _DUAL_TOL, the least of the per-replica limits.  Only a
    step that fails it is searched replica by replica, and a replica's
    dual drift is summed only from a v inside the ball.
    """
    if _inside(x) and (v is None or _inside(v) and _dual_inside(v)):
        return  # no replica near a limit: nothing to search
    for r in range(x.shape[0]):
        blocks = [("x", x[r])] if v is None else [("x", x[r]), ("v", v[r])]
        for name, blk in blocks:
            m = float(np.max(np.abs(blk)))
            if not m <= _DIVERGENCE_LIMIT:  # NaN counts as out
                agent = int(np.argmax(np.abs(blk)) // blk.shape[1])
                raise ChainDivergenceError(
                    f"{algo} diverged at iteration {k}, agent {agent}: "
                    f"max |{name}| entry = {m:.6e} "
                    f"(limit {_DIVERGENCE_LIMIT:.1e})",
                    algorithm=algo, replica=r, k=k, agent=agent, value=m)
        if v is None:
            continue
        drift = float(np.max(np.abs(v[r].sum(axis=0)))) / v.shape[1]
        limit = _DUAL_TOL * max(1.0, m)  # m is v[r]'s peak
        if drift > limit:
            raise ChainDivergenceError(
                f"{algo} dual average left zero at iteration {k}: "
                f"max |sum_i v_i|/N = {drift:.6e} (limit {limit:.1e})",
                algorithm=algo, replica=r, k=k, agent=None, value=drift)


def _table_steps(n_streams, n, batch):
    """Steps per chunk of `batch_table`: about _TABLE_BYTES for
    ``n_streams`` streams a step over shards of n rows.  A stream
    takes about 25 bytes of Philox words and temporaries per 32-bit draw,
    and an n-byte Floyd bitmap."""
    return max(1, _TABLE_BYTES // (n_streams * (50 * batch + n)))


def _grads_fn(oracle, cfg: SamplerConfig, noises):
    """``grads(x, k)``: agent i's gradient at x[r, i] for every replica r
    and row i of an (R, N, d) block, from one ``oracle.grad_block`` call.

    Minibatch indices for (r, k, i) come from stream (k, i) of noises[r],
    read from a `batch_table` over ``oracle.shard_size`` rows that is
    drawn once per chunk of steps.
    """
    batch = cfg.batch
    if batch is None:
        return lambda x, _k: oracle.grad_block(x)
    n_agents, n = oracle.n_agents, oracle.shard_size
    chunk = _table_steps(len(noises) * n_agents, n, batch)
    k0, table = 0, ()

    def grads(x, k):
        nonlocal k0, table
        if not k0 <= k < k0 + len(table):
            k0, table = k, batch_table(
                noises, range(k, min(k + chunk, cfg.steps)), n_agents, n,
                batch)
        return oracle.grad_block(x, table[k - k0])
    return grads


def _step_fn(oracle, cfg: SamplerConfig, mixing, noises):
    """The transition (k, x^k, v^k) -> (x^{k+1}, v^{k+1}) of cfg.algorithm,
    over (R, rows, d) arrays with replica r drawing from noises[r]; each
    entry computes its update rule term for term."""
    eta = cfg.eta
    scale_x = scale_v = 0.0  # temperature 0: no noise, even where 2/eta = inf
    if cfg.temperature:
        scale_x, scale_v = np.sqrt(2.0 * eta), np.sqrt(2.0 / eta)
    if mixing is not None:
        w, w_tilde, u = (np.asarray(m, dtype=float)
                         for m in (mixing.w, mixing.w_tilde, mixing.u))
    grads = _grads_fn(oracle, cfg, noises)
    shape = (len(noises), noises[0].n_agents, noises[0].dim)

    def gaussians(k):
        out = np.empty(shape)  # fresh at every step: EXTRA keeps w^k
        for r, nz in enumerate(noises):
            nz.gaussian_block(k, out[r])
        return out

    def grad_sum(x, k):
        # every agent's gradient at the one shared row, summed in agent
        # order (accumulate never reorders the additions)
        shared = np.broadcast_to(x, (x.shape[0], oracle.n_agents, x.shape[2]))
        return np.add.accumulate(grads(shared, k), axis=1)[:, -1:]

    # the centralized step size: eta for ULA, eta/N for the reference chain
    s = eta / oracle.n_agents if cfg.algorithm == "REFERENCE_CHAIN" else eta

    def centralized(k, x, v):
        wbar = gaussians(k + 1).mean(axis=1, keepdims=True)
        return x - s * grad_sum(x, k) + scale_x * wbar, v

    def de_sgld_x(x, g, wblk):
        return mix_apply(w, x) - eta * g + scale_x * wblk

    def gen_extra(k, x, v):
        g, wx, wblk = grads(x, k), mix_apply(w_tilde, x), gaussians(k + 1)
        return (wx - eta * (g + v) + scale_x * wblk,
                v - mix_apply(u, v + g - cfg.bx(x, wx))
                + scale_v * mix_apply(u, wblk))

    prev = None  # EXTRA's (x^{k-1}, g^{k-1}, w^k)

    def extra(k, x, v):
        nonlocal prev
        g, wblk = grads(x, k), gaussians(k + 1)
        if k == 0:  # the W-based bootstrap is one DE-SGLD transition
            x_next = de_sgld_x(x, g, wblk)
        else:
            x_prev, g_prev, w_prev = prev
            x_next = x + mix_apply(w, x) - mix_apply(w_tilde, x_prev) \
                - eta * (g - g_prev) + scale_x * (wblk - w_prev)
        prev = (x, g, wblk)
        return x_next, v

    if cfg.algorithm in CENTRALIZED:
        return centralized
    return {
        "DE_SGLD": lambda k, x, v: (
            de_sgld_x(x, grads(x, k), gaussians(k + 1)), v),
        "EXTRA_SGLD": extra,
        "GEN_EXTRA_SGLD": gen_extra,
    }[cfg.algorithm]


def run_ensemble(
    oracle,
    cfg: SamplerConfig,
    seeds,
    mixing=None,
    record_every: int = 1,
    noises=None,
) -> ChainResult:
    """Run one chain per seed, all advancing together as one
    (R, rows, d) array from x = v = 0, for cfg.steps transitions.

    ``oracle`` is a task; a chain reads only its ``dim``, ``n_agents``,
    ``shard_size`` (the rows every agent holds, read when ``cfg.batch``
    is set) and ``grad_block(x, idx=None)``, which maps an (R, N, d)
    block to grad f_i(x[r, i]) at every row, or with ``idx`` (R, N, b)
    to the minibatch estimate over those shard rows.

    Records every ``record_every`` iterates (k = 0 and the final iterate
    always); ``xs`` is (n_rec, R, rows, d).  ``noises`` holds one
    `NoiseStream` (or subclass) per seed, in place of the default
    ``NoiseStream(seeds[r], ...)``; minibatch indices are keyed by their
    ``seed``, and ``gaussian_block(k, out)`` must write block k into
    ``out``.  Row r equals the one-seed ensemble at ``seeds[r]`` bit for
    bit, whatever R is, and reruns with identical arguments are
    bit-identical.  A divergence names the earliest iteration at which
    any replica left the ball, and the lowest replica index at that
    iteration.
    """
    ks = record_ks(cfg.steps, record_every)
    algo = cfg.algorithm
    centralized = algo in CENTRALIZED
    if not centralized and mixing is None:
        raise ValueError(f"{algo} needs a mixing set")
    n_rows = 1 if centralized else mixing.n
    if not centralized and oracle.n_agents != n_rows:
        raise ValueError(
            f"oracle has {oracle.n_agents} agents but mixing has {n_rows}"
        )
    if not len(seeds):
        raise ValueError("run_ensemble needs at least one seed")
    if noises is None:
        stream_rows = oracle.n_agents if algo == "REFERENCE_CHAIN" else n_rows
        noises = [NoiseStream(s, stream_rows, oracle.dim) for s in seeds]
    if len(noises) != len(seeds):
        raise ValueError(
            f"need one noise stream per seed, got {len(noises)} streams "
            f"for {len(seeds)} seeds"
        )
    step = _step_fn(oracle, cfg, mixing, noises)
    dual = algo == "GEN_EXTRA_SGLD"  # the only chain that moves v

    # record 0 is the zero start
    xs = np.zeros((len(ks), len(seeds), n_rows, oracle.dim))
    vs = np.zeros_like(xs) if dual else None
    x = np.zeros_like(xs[0])
    v = np.zeros_like(x)
    j = 1  # the next record
    with np.errstate(over="ignore", invalid="ignore"):  # _guard: inf, NaN
        for k in range(cfg.steps):
            x, v = step(k, x, v)
            _guard(algo, k + 1, x, v if dual else None)
            if k + 1 == ks[j]:
                xs[j] = x
                if dual:
                    vs[j] = v
                j += 1

    return ChainResult(ks=np.array(ks, dtype=int), xs=xs, vs=vs)
