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
generalized update.  Temperature 0 switches every noise term off, draws
no Gaussian block, and leaves the optimization skeleton (DGD, EXTRA).

`run_ensemble` advances R replicas together: the state is one
(R, rows, d) array, where rows is the agent count (1 for ULA and the
reference chain), and every chain starts at x = v = 0.  The steps run in
chunks, whose length one rule sets (`_chunk_steps`), and the state-free
work of a chunk is done once: one ``gaussian_blocks`` call per replica
draws its Gaussian blocks, the algorithm's ``form`` turns them into the
chunk's noise terms in one expression (elementwise, or one matmul per
slice), and on a minibatch chain `batch_table` and the oracle's ``rows``
gather its rows.  Each transition is ``x, v = step(k, x, v, noise,
rows)`` on its step's slices, written into the chunk's (C, R, rows, d)
buffer; the divergence guard checks that buffer once (see below), and
the chunk's x records leave it in one copy.  ``step`` is the algorithm's
step function, which computes the update rule above term for term on the
whole array, with the run's constants resolved once and, in the
generalized chain, W~ x and g + v formed once for both halves; the tests
hold them bit-identical to per-chain reference steps.  Mixing is one BLAS
product per replica slice, and ``grad_block``, the one gradient method
of the oracle (see `run_ensemble`), returns every (replica, agent)
gradient in one call, so a step does only the work that depends on x.
The five algorithms take four step functions.  ULA and the reference
chain share the centralized one, x+ = x - s sum_i g_i(x) + sqrt(2 eta)
w-bar, which sums every agent's gradient at the one shared row: s is eta
for ULA and eta/N for the reference chain, and w-bar is the mean of the
stream's rows (ULA's stream has one row, so w-bar is that row exactly).
EXTRA's bootstrap calls the DE-SGLD rule with w^0 = 0, its closure keeps
the previous iterate and gradient, and its ``form`` carries the last
block of a chunk into the next.  Only the generalized chain moves v, so
only it guards v.  `run_ensemble` is the one way to run chains: a single
chain is a one-seed ensemble.

Replica r draws from its own stream, keyed by its seed, and each draw
depends on (seed, k, i) alone.  With row bits that do not depend on how
many rows share a call, a replica's values do not depend on how many
replicas run beside it.  A `NoiseStream` keeps one Philox generator and
resets its counter for every block, from a state held in plain ints
(which numpy's setter reads faster than arrays); that gives the same
draws as a fresh generator at that counter.

Minibatch indices and rows never depend on the chain state, so they are
drawn ahead of it: `batch_table` fills the (steps, R, N, b) indices of a
chunk of steps with a vectorized Philox4x64-10 (`philox4x64`) and a copy
of numpy's ``Generator.choice(n, b, replace=False)`` (Lemire's bounded
draw, Floyd's sampler, the final shuffle), and the oracle's ``rows``
gathers them in one take.  Each entry equals ``batch_rng(k, i).choice``,
which stays the definition of the stream; the copy was verified on numpy
2.4.6, and the tests compare the two and pin digests.

The dual average v-bar stays at exactly zero up to accumulated roundoff
because U's column sums vanish.  The divergence guard checks every step:
the guard ball for x (and v), and the generalized chain's dual average.
One fast check bounds a chunk's iterates; a chunk that fails it is judged
(step, replica) pair by pair in one pass, so the error names the earliest
iteration and the lowest replica, as a check after every step would.
`run_ensemble` never materializes the integrated dual q.
"""

import dataclasses
import hashlib
import math

import numpy as np

from .linalg import mixing_matrix

__all__ = [
    "ALGORITHMS",
    "B_MODES",
    "CENTRALIZED",
    "ChainDivergenceError",
    "SamplerConfig",
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

    ``gaussian_blocks(k0, out)`` writes the (N, d) blocks of iterates k0,
    k0 + 1, ... into ``out``, in one call; row i of a block is agent i's
    draw.  ``batch_rng(k, i)`` hands out an independent
    Generator for agent i's minibatch indices at iterate k.  Streams are
    separated in the high Philox counter words, so no amount of drawing
    from one can reach another.

    One Philox generator is kept and its counter reset to [0, k, i, tag]
    for every draw, which yields exactly the draws of a fresh
    ``Philox(key=seed, counter=[0, k, i, tag])``.  So a Generator
    returned by ``batch_rng`` is valid only until the next draw from the
    same stream: use it at once.  The reset states, one per tag, are kept
    in plain ints, which numpy's setter reads faster than it unboxes numpy
    arrays.

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
        fresh = self._bits.state  # key set, buffer empty
        key, fresh["buffer"] = [int(w) for w in fresh["state"]["key"]], [0] * 4
        # the reset states of the noise and batch streams; the setter
        # copies a counter, so each is rewritten in place
        self._noise, self._batch = (
            {**fresh, "state": {"key": key, "counter": [0, 0, 0, tag]}}
            for tag in (_TAG_NOISE, _TAG_BATCH))

    def gaussian_blocks(self, k0: int, out) -> np.ndarray:
        """Block k0 + j into ``out[j]`` of a (C, N, d) float64 array or view
        whose (N, d) slices are contiguous."""
        bits, fresh, normal = self._bits, self._noise, self._normal
        ctr = fresh["state"]["counter"]
        for blk in out:
            ctr[1] = k0
            k0 += 1
            bits.state = fresh
            normal(out=blk)  # the block's shape: faster than passing it
        return out

    def batch_rng(self, k: int, i: int) -> np.random.Generator:
        self._batch["state"]["counter"][1:3] = k, i
        self._bits.state = self._batch
        return self._rng


# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it: round
# multipliers with their 32-bit halves, and the Weyl increments of the key.
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_PHILOX_M = tuple((m, m & _LO32, m >> _32) for m in (
    np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
# The budgets, in bytes.  batch_table runs its streams in blocks of
# _STREAM_BYTES of draws and bitmaps; a chain's chunk of steps
# (`_chunk_steps`) holds _NOISE_BYTES of Gaussian blocks, and on a
# minibatch chain at most one such block of streams and _TABLE_BYTES of
# rows and indices.
_STREAM_BYTES = 3 << 20
_TABLE_BYTES = 2 << 20
_NOISE_BYTES = 1 << 17


def _mulhilo(a, m):
    """High and low 64-bit words of the 128-bit products a * m, for ``m``
    (m, low half, high half) of `_PHILOX_M`; the high one from 32-bit
    halves as Hacker's Delight's mulhu forms it, mostly in place."""
    m, m0, m1 = m
    a0, a1 = a & _LO32, a >> _32
    t = a0 * m0 >> _32
    t += a1 * m0
    a0 *= m1
    a0 += t & _LO32
    a1 *= m1
    a1 += t >> _32
    a1 += a0 >> _32
    return a1, a * m


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


def _floyd_rows(draws, n, b):
    """``Generator.choice(n, b, replace=False)`` of numpy's Floyd branch
    for S streams, from their 32-bit draws ``draws`` (m, S) (uint64,
    overwritten): a (b, S) array whose column s is stream s's indices, and
    a mask of the streams whose draws hit a Lemire rejection (numpy draws
    again; those are wrong).  Lemire's bounded integers on [0, j] are
    formed on the (draws, S) rows.  Floyd's sampler (j = n-b .. n-1, no
    draw at j = 0) marks value v at s*n + v of a flat bitmap; the final
    shuffle (j = b-1 .. 1) swaps flat output entries t*S + s and v*S + s.
    """
    bound = np.concatenate([np.arange(max(n - b, 1), n),
                            np.arange(b - 1, 0, -1)]).astype(np.uint64)
    span = bound + np.uint64(1)
    m = draws[:bound.size]
    m *= span[:, None]
    rejected = ((m & _LO32) < ((_LO32 - bound) % span)[:, None]).any(axis=0)
    m >>= _32
    draws = iter(m.view(np.int64))
    cols = np.arange(m.shape[1])
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


def _stream_block(n, batch):
    """Streams of ``batch`` indices out of ``n`` in about _STREAM_BYTES of
    draws and bitmaps."""
    return max(1, _STREAM_BYTES // (n + 32 * (2 * batch - 1 - (n == batch))))


def batch_table(noises, ks, n_agents, n, batch) -> np.ndarray:
    """Minibatch indices of every (step, replica, agent): a (len(ks), R,
    n_agents, batch) int64 table whose entry [t, r, i] equals
    ``noises[r].batch_rng(ks[t], i).choice(n, batch, replace=False)``.

    Stream (r, k, i) is Philox keyed by ``noises[r].seed`` at counters
    [1.., k, i, 2].  In blocks of about _STREAM_BYTES of streams, one
    `philox4x64` call gives the (draws, streams) rows that `_floyd_rows`
    turns into (batch, streams) indices, which the table views.  Two
    cases call the scalar ``batch_rng(k, i).choice`` instead: a stream
    that hits a Lemire rejection, and numpy's tail-shuffle branch
    (n > 10000 and b > n // 50).
    """
    if not 1 <= batch <= n:
        raise ValueError(f"batch size {batch} outside [1, {n}]")
    ks = np.asarray(ks, dtype=np.uint64)
    shape = (ks.size, len(noises), n_agents)
    if n > 10000 and batch > n // 50 or not ks.size:  # or no step to draw
        table = np.empty(shape + (batch,), dtype=np.int64)
        scalar = np.ones(shape, dtype=bool)
    else:
        # counter words 1 and 2 and the key of every stream, in table order
        seeds = np.array([[nz.seed & 0xFFFFFFFFFFFFFFFF, nz.seed >> 64]
                          for nz in noises], dtype=np.uint64)
        key = np.broadcast_to(seeds[:, None], shape + (2,)).reshape(-1, 2).T
        k_word = np.broadcast_to(ks[:, None, None], shape).ravel()
        i_word = np.resize(np.arange(n_agents, dtype=np.uint64), k_word.size)
        n_draws = 2 * batch - 1 - (n == batch)
        n_blocks = max(1, -(-n_draws // 8))  # 8 32-bit draws a block
        block_ctr = np.arange(1, n_blocks + 1, dtype=np.uint64)[:, None]
        step = _stream_block(n, batch)
        cols, rejected = [], []
        for s in range(0, k_word.size, step):
            e = min(s + step, k_word.size)
            words = philox4x64(
                (block_ctr, k_word[s:e], i_word[s:e], np.uint64(_TAG_BATCH)),
                key[:, s:e])
            # 32-bit draw 8q + 2w + h is half h (the low one first) of
            # word w of Philox block q
            draws = np.empty((n_blocks, 4, 2, e - s), dtype=np.uint64)
            for w, word in enumerate(words):
                np.bitwise_and(word, _LO32, out=draws[:, w, 0])
                np.right_shift(word, _32, out=draws[:, w, 1])
            c, r = _floyd_rows(draws.reshape(8 * n_blocks, -1), n, batch)
            cols.append(c)
            rejected.append(r)
        cols = cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1)
        table = cols.T.reshape(shape + (batch,))
        scalar = np.concatenate(rejected).reshape(shape)
    for t, r, i in zip(*np.nonzero(scalar)):
        table[t, r, i] = noises[r].batch_rng(int(ks[t]), int(i)).choice(
            n, batch, replace=False)
    return table


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """One chain family's settings: the ``[sampler]`` config section.

    B, the free matrix of the generalized chain's dual update, is W~ / eta
    ("wtilde-over-eta") or ``b_scale`` * I ("scaled-identity"); `b_apply`
    gives the map that applies it and `norm_b` is the ||B||_2 the bound
    constants read.  Bad fields raise one ValueError with a ``<key>:
    <problem>`` line each.
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

    def b_apply(self):
        """The map (x, W~ x) -> B x."""
        eta, b_scale = self.eta, self.b_scale
        if self.b_mode == "wtilde-over-eta":
            return lambda _x, wx: wx / eta
        return lambda x, _wx: b_scale * x

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


def _inside(a):
    """Whether the sum of squares of ``a`` is within a quarter of the
    limit's square, which bounds every entry inside the guard ball with
    room to spare for its rounding (NaN fails); ``np.vdot``, unlike
    ``@``, stays silent when that sum overflows."""
    return np.vdot(a, a) <= (0.5 * _DIVERGENCE_LIMIT) ** 2


def _dual_inside(v):
    """Whether the dual drift max |sum_i v_i| / N of every (N, d) block of
    the (..., N, d) ``v`` is within half of _DUAL_TOL, by a sum of squares
    of the agent sums.  The half leaves room for the summation order of
    the one matmul, which need not be the exact pass's."""
    n = v.shape[-2]
    s = np.matmul(np.ones(n), v)
    return np.vdot(s, s) <= (0.5 * _DUAL_TOL * n) ** 2


def _guard(algo, k0, xs, vs=None):
    """Raise ChainDivergenceError if, at some step of the (G, R, rows, d)
    iterates ``xs`` (and ``vs``), step t at iteration k0 + t, a replica's
    x (or v) left the ball, or its dual average left zero.

    The earliest such step is named, and at it the lowest replica; for
    that pair x is checked before v, and v before the dual average, as a
    check after every step would.  The chunk's fast bounds pass it first:
    `_inside` of every iterate, and `_dual_inside`, the least of the
    per-pair dual limits.  A chunk that fails them is judged pair by pair
    in one pass: each (step, replica) peak |x| and |v|, and its dual
    drift against _DUAL_TOL * max(1, peak |v|).
    """
    blocks = [("x", xs)] if vs is None else [("x", xs), ("v", vs)]
    with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN
        if all(_inside(a) for _, a in blocks) and (
                vs is None or _dual_inside(vs)):
            return  # no pair near a limit: nothing to judge
        peaks = [np.abs(a).max(axis=(2, 3)) for _, a in blocks]
        bad = ~(peaks[0] <= _DIVERGENCE_LIMIT)  # NaN counts as out
        if vs is not None:
            drift = np.abs(vs.sum(axis=2)).max(axis=2) / vs.shape[2]
            limit = _DUAL_TOL * np.maximum(1.0, peaks[1])
            bad |= ~(peaks[1] <= _DIVERGENCE_LIMIT) | (drift > limit)
        if not bad.any():
            return
    t, r = (int(i) for i in np.argwhere(bad)[0])
    k = k0 + t
    for (name, a), peak in zip(blocks, peaks):
        m = float(peak[t, r])
        if not m <= _DIVERGENCE_LIMIT:
            agent = int(np.argmax(np.abs(a[t, r])) // a.shape[3])
            raise ChainDivergenceError(
                f"{algo} diverged at iteration {k}, agent {agent}: "
                f"max |{name}| entry = {m:.6e} "
                f"(limit {_DIVERGENCE_LIMIT:.1e})",
                algorithm=algo, replica=r, k=k, agent=agent, value=m)
    value = float(drift[t, r])
    raise ChainDivergenceError(
        f"{algo} dual average left zero at iteration {k}: "
        f"max |sum_i v_i|/N = {value:.6e} (limit {float(limit[t, r]):.1e})",
        algorithm=algo, replica=r, k=k, agent=None, value=value)


def _chunk_steps(shape, oracle, batch):
    """The steps of one chunk, the one chunk rule: _NOISE_BYTES of the
    chain's (R, rows, d) Gaussian blocks ``shape``, and on a minibatch
    chain (``batch`` set) at most one block of `batch_table` streams,
    R * N a step, and _TABLE_BYTES of rows (at most d + 1 floats each)
    and indices."""
    steps = _NOISE_BYTES // (8 * math.prod(shape))
    if batch is not None:
        per_block = min(_stream_block(oracle.shard_size, batch),
                        _TABLE_BYTES // (8 * (oracle.dim + 2) * batch))
        steps = min(steps, per_block // (shape[0] * oracle.n_agents))
    return max(1, steps)


def _step_fn(oracle, cfg: SamplerConfig, mixing, shape):
    """``(form, step)`` of cfg.algorithm over (R, rows, d) arrays.

    ``form`` maps a chunk's (C, R, rows, d) Gaussian blocks (``shape``
    each) to its noise terms in one expression, entry t those of the
    chunk's step t.  ``step(k, x^k, v^k, noise, rows)`` is the transition
    to (x^{k+1}, v^{k+1}) from its step's noise terms and minibatch rows
    (None at full batch), computing the update rule term for term."""
    eta, algo, grad_block = cfg.eta, cfg.algorithm, oracle.grad_block
    scale_x = scale_v = 0.0  # temperature 0: no noise, even where 2/eta = inf
    if cfg.temperature:
        scale_x, scale_v = np.sqrt(2.0 * eta), np.sqrt(2.0 / eta)

    if algo in CENTRALIZED:
        # eta for ULA, eta/N for the reference chain
        s = eta / oracle.n_agents if algo == "REFERENCE_CHAIN" else eta

        def central(_k, x, v, nk, rows):
            # every agent's gradient at the one shared row, summed in
            # agent order (accumulate never reorders the additions)
            shared = np.broadcast_to(x, (x.shape[0], oracle.n_agents,
                                         x.shape[2]))
            g = np.add.accumulate(grad_block(shared, rows), axis=1)[:, -1:]
            return x - s * g + nk, v
        return lambda b: scale_x * b.mean(axis=2, keepdims=True), central

    # the shape checks of mixing_matrix, once; then each product is its
    # one np.matmul
    w, w_tilde, u = (mixing_matrix(m, shape)
                     for m in (mixing.w, mixing.w_tilde, mixing.u))

    def de_sgld_x(x, g, nk):
        return np.matmul(w, x) - eta * g + nk

    if algo == "DE_SGLD":
        def de_sgld(_k, x, v, nk, rows):
            return de_sgld_x(x, grad_block(x, rows), nk), v
        return lambda b: scale_x * b, de_sgld

    if algo == "GEN_EXTRA_SGLD":
        bx = cfg.b_apply()

        def gen_extra(_k, x, v, nk, rows):
            g, wx = grad_block(x, rows), np.matmul(w_tilde, x)
            gv = g + v
            return (wx - eta * gv + nk[0],
                    v - np.matmul(u, gv - bx(x, wx)) + nk[1])
        return lambda b: np.stack(
            (scale_x * b, scale_v * np.matmul(u, b)), axis=1), gen_extra

    last = np.zeros(shape)  # w^0 = 0: the bootstrap's term is sqrt(2 eta) w^1

    def extra_noise(b):
        nonlocal last
        diff = np.diff(b, axis=0, prepend=last[None])
        last = b[-1].copy()
        return scale_x * diff
    prev = None  # EXTRA's (x^{k-1}, g^{k-1})

    def extra(k, x, v, nk, rows):
        nonlocal prev
        g = grad_block(x, rows)
        if k == 0:  # the W-based bootstrap is one DE-SGLD transition
            x_next = de_sgld_x(x, g, nk)
        else:
            x_prev, g_prev = prev
            x_next = x + np.matmul(w, x) - np.matmul(w_tilde, x_prev) \
                - eta * (g - g_prev) + nk
        prev = (x, g)
        return x_next, v
    return extra_noise, extra


def run_ensemble(
    oracle,
    cfg: SamplerConfig,
    seeds,
    mixing=None,
    record_every: int = 1,
    noises=None,
) -> np.ndarray:
    """Run one chain per seed, all advancing together as one
    (R, rows, d) array from x = v = 0, for cfg.steps transitions.

    ``oracle`` is a task; a chain reads only its ``dim``, ``n_agents``,
    ``grad_block(x, rows=None)``, which maps an (R, N, d) block to grad
    f_i(x[r, i]) at every row, and when ``cfg.batch`` is set
    ``shard_size`` and ``rows(idx)``: entry t of the rows of a chunk's
    (C, R, N, b) indices makes ``grad_block`` the minibatch estimate
    over the shard rows of idx[t].

    The steps run in chunks [k0, k0 + C) (the last one may be shorter).
    C is one rule, `_chunk_steps`: the steps whose Gaussian blocks fill
    _NOISE_BYTES, and on a minibatch chain at most those whose index
    streams fill one `batch_table` block and whose rows and indices fit
    _TABLE_BYTES.  Per chunk the noise terms are drawn and formed once and
    the rows gathered once, the C steps write their iterates into one
    (C, R, rows, d) buffer (and one for v), the guard checks that buffer
    once, and the x records that fall in the chunk leave it in one copy.

    Returns the (n_rec, R, rows, d) records of x: entry j is iterate
    ``record_ks(cfg.steps, record_every)[j]`` (every ``record_every``-th,
    and the last, so entry -1 is the end state).  v is never recorded;
    each chunk's v is the guard's input alone.  ``noises`` holds one
    `NoiseStream` (or subclass) per seed, in place of the default
    ``NoiseStream(seeds[r], ...)``; minibatch indices are keyed by their
    ``seed``, and ``gaussian_blocks(k0, out)`` must write block k0 + j
    into ``out[j]`` for every j of the (C, rows, d) view ``out``.  Row r
    equals the one-seed ensemble at ``seeds[r]`` bit for bit, whatever R
    or C is, and reruns with identical arguments are bit-identical.  A
    divergence names the earliest iteration at which any replica left the
    ball, and the lowest replica index at that iteration; it is raised at
    the end of its chunk, with the error a check after every step raises.
    """
    ks = np.array(record_ks(cfg.steps, record_every), dtype=int)
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
    shape = (len(noises), noises[0].n_agents, noises[0].dim)
    form, step = _step_fn(oracle, cfg, mixing, shape)
    chunk = _chunk_steps(shape, oracle, cfg.batch)
    dual = algo == "GEN_EXTRA_SGLD"  # the only chain that moves v

    # record 0 is the zero start
    xs = np.zeros((len(ks), len(seeds), n_rows, oracle.dim))
    x = np.zeros_like(xs[0])
    v = np.zeros_like(x)
    # each stream's slice of the chunk's blocks; at temperature 0 every
    # noise term is 0, and no block is drawn
    blocks = np.zeros((min(chunk, cfg.steps),) + shape)
    draws = [(nz.gaussian_blocks, blocks[:, r])
             for r, nz in enumerate(noises)] if cfg.temperature else []
    x_buf = np.empty((len(blocks),) + x.shape)
    v_buf = np.empty_like(x_buf) if dual else None
    j = 1  # the next record
    with np.errstate(over="ignore", invalid="ignore"):  # diverging steps
        for k0 in range(0, cfg.steps, chunk):
            c = min(chunk, cfg.steps - k0)
            if c < len(blocks):  # the last chunk, cut short
                blocks = blocks[:c]
                draws = [(draw, out[:c]) for draw, out in draws]
            for draw, out in draws:
                draw(k0 + 1, out)
            noise = form(blocks)
            rows = [None] * c if cfg.batch is None else oracle.rows(
                batch_table(noises, range(k0, k0 + c), oracle.n_agents,
                            oracle.shard_size, cfg.batch))
            for t in range(c):
                x, v = step(k0 + t, x, v, noise[t], rows[t])
                x_buf[t] = x
                if dual:
                    v_buf[t] = v
            del rows  # released before the next chunk's: 0.6 MB less peak
            _guard(algo, k0 + 1, x_buf[:c], v_buf[:c] if dual else None)
            e = np.searchsorted(ks, k0 + c, side="right")
            xs[j:e] = x_buf[ks[j:e] - k0 - 1]
            j = e
    return xs
