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

`run_chain` is one loop, ``x, v = step(k, x, v)``, followed by one
divergence guard and one recording block.  ``step`` comes from a
per-algorithm table built on the public ``step_*`` functions: EXTRA's
bootstrap is exactly one DE-SGLD step, and its closure keeps the previous
iterate, gradient and Gaussian block; the centralized chains sum every
agent's gradient at the one shared row.  Only the generalized chain moves
v, so only it guards and records v.  Because each draw depends on
(seed, k, i) alone, this reproduces every recursion bit for bit.

The dual average v-bar stays at exactly zero up to accumulated roundoff
because U's column sums vanish; `run_chain` never materializes the
integrated dual q.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from .linalg import mix_apply

__all__ = [
    "ALGORITHMS",
    "B_MODES",
    "ChainDivergenceError",
    "SamplerConfig",
    "EnsembleState",
    "ChainResult",
    "NoiseStream",
    "RawMixing",
    "derive_seed",
    "step_ula",
    "step_de_sgld",
    "step_gen_extra",
    "step_extra_two",
    "step_reference_chain",
    "run_chain",
]

ALGORITHMS = (
    "ULA",
    "DE_SGLD",
    "EXTRA_SGLD",
    "GEN_EXTRA_SGLD",
    "REFERENCE_CHAIN",
)

B_MODES = ("wtilde-over-eta", "scaled-identity", "custom")

_DIVERGENCE_LIMIT = 1e12

# Philox counter word 3 tags the stream family; word 0 is the in-stream
# draw counter (little-endian), words 1 and 2 carry (k, i).
_TAG_NOISE = 1
_TAG_BATCH = 2
_TAG_INIT = 3


class ChainDivergenceError(RuntimeError):
    """An iterate left the guard ball (entries above 1e12 or non-finite)."""


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

    ``gaussian_block(k)`` returns the (N, d) block for iterate k; row i is
    ``gaussian(k, i)``.  ``batch_rng(k, i)`` hands out an independent
    Generator for agent i's minibatch indices at iterate k.  Streams are
    separated in the high Philox counter words, so no amount of drawing
    from one can reach another.
    """

    def __init__(self, seed: int, n_agents: int, dim: int):
        self.seed = int(seed) & ((1 << 128) - 1)
        self.n_agents = int(n_agents)
        self.dim = int(dim)

    def _gen(self, k: int, i: int, tag: int) -> np.random.Generator:
        counter = np.array([0, k, i, tag], dtype=np.uint64)
        return np.random.Generator(
            np.random.Philox(key=self.seed, counter=counter)
        )

    def gaussian_block(self, k: int) -> np.ndarray:
        return self._gen(k, 0, _TAG_NOISE).standard_normal(
            (self.n_agents, self.dim)
        )

    def gaussian(self, k: int, i: int) -> np.ndarray:
        if not 0 <= i < self.n_agents:
            raise IndexError(f"agent {i} outside [0, {self.n_agents})")
        return self.gaussian_block(k)[i]

    def batch_rng(self, k: int, i: int) -> np.random.Generator:
        return self._gen(k, i, _TAG_BATCH)

    def init_rng(self) -> np.random.Generator:
        return self._gen(0, 0, _TAG_INIT)


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    algorithm: str
    eta: float
    steps: int
    seed: int
    batch: int | None = None
    temperature: float = 1.0
    b_mode: str = "wtilde-over-eta"
    b_scale: float = 1.0
    b_custom: np.ndarray | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {ALGORITHMS}"
            )
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch is not None and self.batch < 1:
            raise ValueError("batch must be >= 1 (or None for full)")
        if self.temperature not in (0.0, 1.0):
            raise ValueError(
                f"temperature is a 0/1 flag, got {self.temperature}"
            )
        if self.b_mode not in B_MODES:
            raise ValueError(
                f"unknown b_mode {self.b_mode!r}; choose from {B_MODES}"
            )
        if self.b_mode == "custom":
            if self.b_custom is None:
                raise ValueError("b_mode='custom' needs b_custom")
            b = np.asarray(self.b_custom, dtype=float)
            cols = b.sum(axis=0)
            dev = float(np.max(np.abs(cols - cols[0])))
            if dev > 1e-10 * max(1.0, float(np.max(np.abs(cols)))):
                raise ValueError(
                    f"custom B must have equal column sums "
                    f"(1^T B = c 1^T); max deviation {dev:.3e}"
                )
            object.__setattr__(self, "b_custom", b)


@dataclasses.dataclass(frozen=True)
class EnsembleState:
    k: int
    x: np.ndarray
    v: np.ndarray


@dataclasses.dataclass(frozen=True)
class ChainResult:
    """Recorded trajectory: ks ascending, xs[j] the block at iterate ks[j]."""

    ks: np.ndarray
    xs: np.ndarray
    vs: np.ndarray | None
    final: EnsembleState

    @property
    def means(self) -> np.ndarray:
        """Agent-averaged iterate x-bar at each recorded k: (n_rec, d)."""
        return self.xs.mean(axis=1)


@dataclasses.dataclass(frozen=True)
class RawMixing:
    """Bare mixing triple for driving samplers outside the Topology path
    (single-agent reductions, hand-built matrices in tests)."""

    w: np.ndarray
    w_tilde: np.ndarray
    u: np.ndarray

    @property
    def n(self) -> int:
        return np.asarray(self.w).shape[0]


def step_ula(x, grad_sum, eta, noise, temperature=1.0):
    return x - eta * grad_sum + temperature * np.sqrt(2.0 * eta) * noise


def step_de_sgld(x, grads, w, eta, noise, temperature=1.0):
    return (
        mix_apply(w, x) - eta * grads + temperature * np.sqrt(2.0 * eta) * noise
    )


def step_gen_extra(x, v, grads, bx, w_tilde, u, eta, noise, temperature=1.0):
    """One generalized-EXTRA transition; returns (x+, v+).

    ``grads``, ``bx``, and ``noise`` are the shared per-iterate blocks;
    both halves consume the same arrays.
    """
    x_next = (
        mix_apply(w_tilde, x)
        - eta * (grads + v)
        + temperature * np.sqrt(2.0 * eta) * noise
    )
    v_next = (
        v
        - mix_apply(u, v + grads - bx)
        + temperature * np.sqrt(2.0 / eta) * mix_apply(u, noise)
    )
    return x_next, v_next


def step_extra_two(
    x_curr, x_prev, grads_curr, grads_prev, w, w_tilde, eta, noise_diff,
    temperature=1.0,
):
    """The k >= 1 transition of the two-step form.

    ``noise_diff`` is w^{k+1} - w^k (drawn by the caller so the same blocks
    can be shared with other chains).
    """
    return (
        x_curr
        + mix_apply(w, x_curr)
        - mix_apply(w_tilde, x_prev)
        - eta * (grads_curr - grads_prev)
        + temperature * np.sqrt(2.0 * eta) * noise_diff
    )


def step_reference_chain(x, grad_sum, n_agents, eta, noise_mean,
                         temperature=1.0):
    return (
        x
        - (eta / n_agents) * grad_sum
        + temperature * np.sqrt(2.0 * eta) * noise_mean
    )


def _guard(algo, k, x, v=None):
    """Raise ChainDivergenceError if x (or v, when given) left the ball."""
    for name, blk in (("x", x), ("v", v)):
        if blk is None or not blk.size:
            continue
        m = float(np.max(np.abs(blk)))
        if not np.isfinite(m) or m > _DIVERGENCE_LIMIT:
            agent = int(np.argmax(np.abs(blk)) // blk.shape[1])
            raise ChainDivergenceError(
                f"{algo} diverged at iteration {k}, agent {agent}: "
                f"max |{name}| entry = {m:.6e} (limit {_DIVERGENCE_LIMIT:.1e})"
            )


def _grad_block(oracle, x, k, batch, noise):
    rows = []
    for i in range(x.shape[0]):
        if batch is None:
            rows.append(oracle.full_grad(i, x[i]))
        else:
            rows.append(
                oracle.stoch_grad(i, x[i], batch, noise.batch_rng(k, i))
            )
    return np.stack(rows)


def _initial_block(oracle, cfg, n_rows, init, noise):
    d = oracle.dim
    if isinstance(init, np.ndarray):
        x0 = np.array(init, dtype=float)
        if x0.shape != (n_rows, d):
            raise ValueError(
                f"init block shape {x0.shape} != ({n_rows}, {d})"
            )
        return x0
    if init == "zeros":
        return np.zeros((n_rows, d))
    if init == "prior":
        prior_var = getattr(oracle, "prior_var", None)
        if prior_var is None:
            raise ValueError("init='prior' needs an oracle with prior_var")
        return np.sqrt(prior_var) * noise.init_rng().standard_normal(
            (n_rows, d)
        )
    if init == "minimizer":
        m = oracle.minimizer()
        return np.tile(np.asarray(m, dtype=float), (n_rows, 1))
    raise ValueError(f"unknown init {init!r}")


def _b_apply(cfg: SamplerConfig, mixing, x: np.ndarray) -> np.ndarray:
    if cfg.b_mode == "wtilde-over-eta":
        return mix_apply(mixing.w_tilde, x) / cfg.eta
    if cfg.b_mode == "scaled-identity":
        return cfg.b_scale * x
    return mix_apply(cfg.b_custom, x)


def _step_fn(oracle, cfg: SamplerConfig, mixing, noise):
    """The transition (k, x^k, v^k) -> (x^{k+1}, v^{k+1}) of cfg.algorithm."""
    eta, temp = cfg.eta, cfg.temperature

    def grads(x, k):
        return _grad_block(oracle, x, k, cfg.batch, noise)

    def grad_sum(x, k):
        # every agent's gradient at the one shared row, summed in agent
        # order (accumulate never reorders the additions)
        shared = np.broadcast_to(x, (oracle.n_agents, x.shape[1]))
        return np.add.accumulate(grads(shared, k))[-1:]

    def ula(k, x, v):
        wblk = noise.gaussian_block(k + 1)[:1]
        return step_ula(x, grad_sum(x, k), eta, wblk, temp), v

    def reference(k, x, v):
        wbar = noise.gaussian_block(k + 1).mean(axis=0)[None, :]
        return step_reference_chain(x, grad_sum(x, k), oracle.n_agents, eta,
                                    wbar, temp), v

    def de_sgld(k, x, v):
        return step_de_sgld(x, grads(x, k), mixing.w, eta,
                            noise.gaussian_block(k + 1), temp), v

    def gen_extra(k, x, v):
        return step_gen_extra(x, v, grads(x, k), _b_apply(cfg, mixing, x),
                              mixing.w_tilde, mixing.u, eta,
                              noise.gaussian_block(k + 1), temp)

    prev = None  # EXTRA's (x^{k-1}, g^{k-1}, w^k)

    def extra(k, x, v):
        nonlocal prev
        g, wblk = grads(x, k), noise.gaussian_block(k + 1)
        if k == 0:  # the W-based bootstrap is one DE-SGLD transition
            x_next = step_de_sgld(x, g, mixing.w, eta, wblk, temp)
        else:
            x_prev, g_prev, w_prev = prev
            x_next = step_extra_two(x, x_prev, g, g_prev, mixing.w,
                                    mixing.w_tilde, eta, wblk - w_prev, temp)
        prev = (x, g, wblk)
        return x_next, v

    return {
        "ULA": ula,
        "DE_SGLD": de_sgld,
        "EXTRA_SGLD": extra,
        "GEN_EXTRA_SGLD": gen_extra,
        "REFERENCE_CHAIN": reference,
    }[cfg.algorithm]


def run_chain(
    oracle,
    cfg: SamplerConfig,
    mixing=None,
    record_every: int = 1,
    noise: NoiseStream | None = None,
    init="zeros",
) -> ChainResult:
    """Run one chain for cfg.steps transitions, recording every
    ``record_every`` iterates (k = 0 and the final iterate always).

    Reruns with identical arguments are bit-identical: all randomness flows
    through the counter-based stream keyed by cfg.seed.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    algo = cfg.algorithm
    centralized = algo in ("ULA", "REFERENCE_CHAIN")
    if not centralized and mixing is None:
        raise ValueError(f"{algo} needs a mixing set")
    n_rows = 1 if centralized else mixing.n
    if not centralized and getattr(oracle, "n_agents", n_rows) != n_rows:
        raise ValueError(
            f"oracle has {oracle.n_agents} agents but mixing has {n_rows}"
        )
    if noise is None:
        stream_rows = oracle.n_agents if algo == "REFERENCE_CHAIN" else n_rows
        noise = NoiseStream(cfg.seed, stream_rows, oracle.dim)
    step = _step_fn(oracle, cfg, mixing, noise)
    dual = algo == "GEN_EXTRA_SGLD"  # the only chain that moves v

    x = _initial_block(oracle, cfg, n_rows, init, noise)
    v = np.zeros_like(x)
    _guard(algo, 0, x)

    want = set(range(0, cfg.steps + 1, record_every))
    want.add(cfg.steps)
    rec_ks, rec_xs, rec_vs = [0], [x.copy()], [v.copy()] if dual else []
    for k in range(cfg.steps):
        x, v = step(k, x, v)
        _guard(algo, k + 1, x, v if dual else None)
        if k + 1 in want:
            rec_ks.append(k + 1)
            rec_xs.append(x.copy())
            if dual:
                rec_vs.append(v.copy())

    return ChainResult(
        ks=np.array(rec_ks, dtype=int),
        xs=np.stack(rec_xs),
        vs=np.stack(rec_vs) if dual else None,
        final=EnsembleState(k=cfg.steps, x=x.copy(), v=v.copy()),
    )
