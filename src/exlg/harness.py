"""Experiment orchestration: data, networks, replicas, metrics, CSVs.

Each ``cmd_*`` function implements one CLI command and returns a
process exit code (0 success, 2 config error, 3 assumption violation,
4 divergence; the CLI maps raised errors to the same codes).  A run's
replicas advance together as one ensemble (``samplers.run_ensemble``),
and ``series_for_run`` scores that ensemble one chunk of records at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import os
import re
import tempfile
import time
from typing import Optional

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .metrics import plateau, w2_batch
from .network import (
    MixingSet,
    build_mixing_set,
    make_topology,
    topology_from_file,
    validate_assumptions,
    with_h,
)
from .samplers import CENTRALIZED, derive_seed, record_ks, run_ensemble
from .tasks import (
    LabelError,
    LinRegTask,
    LogRegTask,
    gen_linreg_data,
    gen_logreg_data,
    load_csv_dataset,
    partition_data,
)
from .theory import (
    compute_constants,
    problem_params_from,
    shrink_to_admissible,
    validate_stepsize,
    bound_w2_mean,
    bound_w2_agents,
)

logger = logging.getLogger("exlg")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_DIVERGENCE = 4


class AssumptionError(RuntimeError):
    """A hard mixing-assumption violation without the override flag."""


# ---------------------------------------------------------------------------
# construction helpers

def _synthetic_data(t, rng: np.random.Generator):
    """(x, y, beta_true) of a synthetic task, drawn from ``rng``.

    beta_true is drawn first unless the config fixes it; ``build_task``
    and ``cmd_gen_data`` both call this, so dataset.csv is exactly the
    data a run shards.  A file-backed task has no such data: ConfigError.
    """
    if t.kind == "logreg-csv":
        raise ConfigError("gen-data only applies to synthetic tasks")
    if t.beta_true is not None:
        beta_true = np.asarray(t.beta_true, dtype=float)
    else:
        beta_true = rng.standard_normal(t.dim)
    if t.kind == "linreg":
        x, y = gen_linreg_data(t.n_points, beta_true, t.noise_std, rng)
    else:
        x, y = gen_logreg_data(t.n_points, beta_true, rng)
    return x, y, beta_true


def _csv_data(t):
    """(x, y) of a logreg-csv task's file.  The file is config input: what
    the loader rejects is a ConfigError naming ``task.csv_path``, or
    ``task.label_col`` when the labels are at fault."""
    label = t.label_col
    if label is not None and re.fullmatch(r"[+-]?[0-9]+", label):
        label = int(label)  # a position; anything else is a column name
    try:
        x, y, _names = load_csv_dataset(t.csv_path, label_column=label)
    except LabelError as e:
        raise ConfigError(f"task.label_col: {e}") from None
    except (ValueError, OSError) as e:
        raise ConfigError(f"task.csv_path: {e}") from None
    bad = y[(y != 0.0) & (y != 1.0)]
    if bad.size:
        raise ConfigError(
            f"task.label_col: {t.csv_path}: logistic labels must be 0 or "
            f"1, got {bad[0]:g}")
    return x, y


def build_task(cfg: ExperimentConfig):
    """Generate or load the dataset and shard it across agents: returns
    ``(task, holdout)``, the holdout an ``(X, y)`` pair for classification
    accuracy, or None.

    All draws come from the stream seeded by hash(master, "data"), so the
    dataset is a pure function of the config; the holdout set uses its own
    stream and never perturbs the training data.
    """
    t = cfg.task
    rng = np.random.default_rng(derive_seed(cfg.run.seed, "data"))

    if t.kind == "logreg-csv":
        x, y = _csv_data(t)
        n_hold = min(t.holdout, x.shape[0] // 5)
        perm = rng.permutation(x.shape[0])
        hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
        holdout = (x[hold_idx], y[hold_idx]) if n_hold else None
        x, y = x[train_idx], y[train_idx]
    else:
        x, y, beta_true = _synthetic_data(t, rng)
        holdout = None
        if t.kind == "logreg-synthetic":
            hold_rng = np.random.default_rng(
                derive_seed(cfg.run.seed, "holdout"))
            holdout = gen_logreg_data(t.holdout, beta_true, hold_rng)

    try:
        xs, ys = partition_data(x, y, cfg.network.n, rng,
                                per_agent=t.per_agent)
    except ValueError as e:
        key = "network.n" if t.per_agent is None else "task.per_agent"
        raise ConfigError(f"{key}: {e}") from None
    batch, size = cfg.sampler.batch, xs.shape[1]
    if batch is not None and batch > size:
        raise ConfigError(
            f"sampler.batch: {batch} exceeds the shard size {size}")
    cls = LinRegTask if t.kind == "linreg" else LogRegTask
    return cls(xs=xs, ys=ys, prior_var=t.prior_var), holdout


def build_mixing(cfg: ExperimentConfig) -> MixingSet:
    """Topology + W + W~ from the [network] section.

    Static domain violations (bad h, bad delta, an adjacency file that
    cannot be read or parsed) surface as ConfigError; they are knowable
    before anything runs.
    """
    net = cfg.network
    if net.topology == "custom":
        try:
            top = topology_from_file(net.adjacency)
        except (ValueError, OSError) as e:
            raise ConfigError(f"network.adjacency: {e}") from None
        if top.n != net.n:
            raise ConfigError(f"network.adjacency: {net.adjacency} has "
                              f"{top.n} nodes, network.n is {net.n}")
    try:
        if net.topology != "custom":
            top = make_topology(net.topology, net.n)
        # seeded so a drawn delta is part of the reproducible config
        return build_mixing_set(top, h=net.h, delta=net.delta, seed=int(
            derive_seed(cfg.run.seed, "delta") % (2 ** 31)))
    except ValueError as e:
        raise ConfigError(f"network: {e}") from None


def check_assumptions(ms: MixingSet, cfg: ExperimentConfig):
    """Run the mixing checks; raise AssumptionError unless overridden.
    The report is logged under a header naming the set's h."""
    report = validate_assumptions(ms)
    logger.info("assumption checks of the mixing set at h=%.6g:", ms.h)
    for line in report.lines():
        logger.info("%s", line)
    if not report.ok and not cfg.run.allow_assumption_violations:
        names = ", ".join(c.name for c in report.failed())
        raise AssumptionError(f"assumption checks failed: {names}")


# ---------------------------------------------------------------------------
# replica execution

def _replica_seeds(master: int, replicas: int, tag: str = "replica"):
    return [derive_seed(master, tag, r) for r in range(replicas)]


def series_for_run(task, xs_all, holdout: Optional[tuple],
                   temperature: float) -> dict:
    """The metric series a run emits, as {label: values per record}.

    Consensus error is always included.  Zero-temperature runs then
    report the worst-agent optimization error instead of distributional
    metrics.  Otherwise W2 series need a Gaussian ``task.target()`` and
    an ensemble (replicas >= 2), and a holdout gives the accuracy of the
    agent average.  No series reduces over records, so `_score` scores the
    (n_rec, R, A, d) ensemble in record chunks, each value the bits of its
    per-record definition (``w2_gaussian`` of the fit, and ``w2_agents``
    summed in agent order; ``tests/oracles.py``).
    """
    n_rec, reps, agents, dim = xs_all.shape
    xstar = task.minimizer() if temperature == 0.0 else None
    target = task.target() if xstar is None and reps >= 2 else None
    if target is not None and reps <= dim:
        logger.warning("W2 of a rank-deficient Gaussian fit: %d "
                       "replicas in %d dimensions", reps, dim)
    # cells per record: the chunk and its copies, w2_batch's covariances
    cells = agents * dim * max(reps, dim if target is not None else 1)
    if holdout is not None and xstar is None:  # a sign per holdout point
        cells = max(cells, reps * len(holdout[1]))
        holdout = holdout[0], holdout[1].astype(bool)  # labels are 0 or 1
    step = max(1, _CHUNK_CELLS // cells)
    chunks = [_score(xs_all[j:j + step], xstar, target, holdout)
              for j in range(0, n_rec, step)]
    return {label: np.concatenate([c[label] for c in chunks])
            for label in chunks[0]}


_CHUNK_CELLS = 1 << 16  # float cells in a _score chunk's largest temporary


def _score(xs_chunk, xstar, target, holdout) -> dict:
    """Every series of one (c, R, A, d) record chunk, as {label: (c,)}.
    ``xstar`` replaces W2 and accuracy; ``holdout`` is (X, bool labels)."""
    means = xs_chunk.mean(axis=2)
    dev = xs_chunk - means[:, :, None]
    out = {"consensus": np.sqrt(np.sum(dev * dev, axis=(2, 3))).mean(axis=1)}
    if xstar is not None:
        err = xs_chunk - xstar
        with np.errstate(over="ignore"):
            dist = np.linalg.norm(err, axis=3)
        if not np.isfinite(dist).all():  # a square overflowed: as w2_batch
            bad = ~np.isfinite(dist)
            e = np.frexp(np.abs(err[bad]).max())[1]
            dist[bad] = np.ldexp(
                np.linalg.norm(np.ldexp(err[bad], -e), axis=-1), e)
        out["opt_error"] = dist.max(axis=2).mean(axis=1)
        return out
    if target is not None:
        out["w2_mean"] = w2_batch(means, target)
        w2 = w2_batch(np.ascontiguousarray(np.moveaxis(xs_chunk, 2, 0)),
                      target)  # (A, c)
        # each record's agents summed in agent order, whatever the chunk
        out["w2_agents"] = np.add.accumulate(w2, axis=0)[-1] / len(w2)
    if holdout is not None:
        x, labels = holdout
        pred = (x @ means[..., None])[..., 0] >= 0.0  # b^T x >= 0
        # an exact count over H: the bits of the mean of the bools
        hits = np.count_nonzero(pred == labels, axis=-1) / len(labels)
        out["accuracy"] = hits.mean(axis=1)
    return out


# ---------------------------------------------------------------------------
# output files

@contextlib.contextmanager
def _atomic_open(path: str):
    """A text file that replaces ``path`` when the block ends, and is
    deleted instead if the block raises."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, chunks) -> int:
    """Write header + (text, row count) ``chunks`` atomically; returns rows."""
    count = 0
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for text, rows in chunks:
            fh.write(text)
            count += rows
    return count


def _row_lines(rows):
    """A `write_csv` chunk per row tuple, filled into a ``%`` template made
    for its tuple of cell types: ``%d`` for integers, ``%.17g`` for floats,
    ``%s`` otherwise, with bools written as true/false."""
    templates: dict = {}
    for row in rows:
        kinds = tuple(map(type, row))
        tmpl = templates.get(kinds)
        if tmpl is None:
            tmpl = templates[kinds] = ",".join(map(_cell_format, kinds)) + "\n"
        if bool in kinds:
            row = tuple(("true" if c else "false") if type(c) is bool else c
                        for c in row)
        yield tmpl % tuple(row), 1


def _cell_format(kind: type) -> str:
    if issubclass(kind, (int, np.integer)) and kind is not bool:
        return "%d"
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    return "%s"


def _trajectory_chunks(ks, xs_all):
    """`write_csv` chunks, one replica block each: ``r,k,agent`` and then
    ``,%.17g`` per coordinate on every line.

    Each block is laid out in one byte buffer of NUL-padded slots (the
    prefix's numbers, each coordinate's ``_g17_fields`` field and the
    newline), and the chunk is the buffer's non-NUL bytes."""
    n_rec, n_rep, n_agents, dim = xs_all.shape
    rows = n_rec * n_agents
    ks_text = np.array([str(k).encode() for k in np.asarray(ks).tolist()],
                       dtype=bytes)
    agents = np.array([str(a).encode() for a in range(n_agents)],
                      dtype=bytes)
    w_rep = len(str(max(n_rep - 1, 0))) + 1     # "r,"
    w_k = ks_text.dtype.itemsize + 1            # "k,"
    w_a = agents.dtype.itemsize
    pre = -(-(w_rep + w_k + w_a) // 4)          # prefix words
    words = np.zeros((n_rec, n_agents, pre + dim * _G17_WORDS + 1),
                     dtype=np.uint32)
    text = words.view(np.uint8)
    text[..., w_rep:w_rep + w_k - 1] = ks_text.view(np.uint8).reshape(
        n_rec, 1, w_k - 1)
    text[..., w_rep + w_k - 1] = ord(",")
    text[..., w_rep + w_k:w_rep + w_k + w_a] = agents.view(np.uint8).reshape(
        n_agents, w_a)
    words[..., -1] = np.frombuffer(b"\n\0\0\0", dtype=np.uint32)
    fields = words[..., pre:-1].reshape(n_rec, n_agents, dim, _G17_WORDS)
    flat = words.reshape(-1)
    for r in range(n_rep):
        text[..., :w_rep] = np.frombuffer(f"{r},".encode().ljust(w_rep, b"\0"),
                                          dtype=np.uint8)
        fields[...] = np.moveaxis(
            _g17_fields(xs_all[:, r].ravel()).reshape(_G17_WORDS, n_rec,
                                                      n_agents, dim), 0, -1)
        # a word pass first: about two in five words of a block are NUL
        flat_text = flat[flat != 0].view(np.uint8)
        yield flat_text[flat_text != 0].tobytes().decode("ascii"), rows


# `_g17_fields` lays out ``,%.17g`` of a value in 11 uint32 words, 44 bytes:
#   bytes  0-19  sep, sign, NUL, d0, d1 .. d16: the integer digits
#   bytes 20-21  '0' when the value is below 1, and the point
#   bytes 24-43  '0' '0' '0' d0 .. d16: the leading zeros and the fraction
# where d0..d16 are the 17 significant digits; a mask per (exponent,
# digits kept) NULs every byte that ``%.17g`` does not print.  Every word
# is made from bytes and meets only bitwise operations, so the bytes keep
# their text order on either byte order.
_G17_WORDS = 11
_TEN8 = 10 ** 8
# "0000" .. "9999" as bytes and as words, and the trailing zeros of each
_DIGITS4 = np.stack(np.meshgrid(
    *[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
    indexing="ij"), -1).reshape(10000, 4)
_G17_GROUPS = _DIGITS4.view(np.uint32).ravel()
_G17_ZEROS = np.logical_and.accumulate(_DIGITS4[:, ::-1] == ord("0"),
                                       axis=1).sum(axis=1, dtype=np.uint8)
_G17_POINT = np.frombuffer(b"0.\0\0", dtype=np.uint32)
_G17_SIGN = np.frombuffer(b",\0\0\0,-\0\0", dtype=np.uint32)


def _g17_mask():
    """The (11, 21 * 18) word masks of each (e + 4) * 18 + digits kept,
    e = -4 .. 16."""
    e = np.arange(-4, 17)[:, None, None]
    kept = np.arange(18)[None, :, None]
    j = np.arange(17)
    keep = np.zeros((21, 18, 4 * _G17_WORDS), dtype=bool)
    keep[..., 3:20] = j <= e
    keep[..., 20] = e[..., 0] < 0
    keep[..., 21] = kept[..., 0] > e[..., 0] + 1
    keep[..., 24:27] = np.arange(3) < -e - 1
    keep[..., 27:] = (e < j) & (j < kept)
    mask = keep.view(np.uint8) * np.uint8(255)
    return np.ascontiguousarray(
        mask.view(np.uint32).reshape(-1, _G17_WORDS).T)


def _veltkamp(x):
    """(hi, lo) halves of x with at most 26 significant bits each."""
    c = 134217729.0 * x                         # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


_G17_MASK = _g17_mask()
_POW10 = np.array([float(10 ** k) for k in range(21)])     # all exact
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _scaled(a, k):
    """a * 10^k as an unevaluated sum hi + lo of two doubles, exactly
    (Dekker's product), for 0 <= k <= 20."""
    hi = a * _POW10.take(k)
    a_hi, a_lo = _veltkamp(a)
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _g17_fields(v) -> np.ndarray:
    """``"," + "%.17g" % x`` of each x in the 1-d float array ``v``, as the
    NUL-padded (11, len(v)) uint32 words of one 44-byte field per value.

    For 1e-4 <= |x| < 1e17 the digits are computed here: e = floor(log10
    |x|) makes |x| 10^(16 - e) lie in [10^16, 10^17), the power 10^(16 - e)
    is an exact double, so the product is exact as hi + lo, and rounding
    it to the nearest integer, ties to even, gives the 17 digits ``%.17g``
    prints.  No double below a power of ten rounds up to it at 17 digits,
    so the digits never carry into an 18th.  ``%.17g`` prints such values
    in fixed notation, without trailing zeros.  Every other value (0, -0,
    tiny, huge, inf, NaN) takes ``"%.17g" % x``.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    hi, lo = _scaled(a, 16 - e)
    # log10 can be off by one next to a power of ten; the exact product
    # decides
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(below | above)
    if off.size:
        e[off] += above[off].astype(np.int64) - below[off]
        hi[off], lo[off] = _scaled(a[off], 16 - e[off])
    # hi >= 10^16 > 2^53 is an even integer, so hi + rint(lo) is hi + lo
    # rounded to an integer, ties to even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # d's digits as five groups: the first digit, then four of four
    g = np.empty((5, v.size), dtype=np.int64)
    top = d // _TEN8
    low = d - top * _TEN8
    np.floor_divide(top, _TEN8, out=g[0])
    top -= g[0] * _TEN8
    np.floor_divide(top, 10000, out=g[1])
    np.subtract(top, g[1] * 10000, out=g[2])
    np.floor_divide(low, 10000, out=g[3])
    np.subtract(low, g[3] * 10000, out=g[4])
    zeros = np.zeros(v.size, dtype=np.int64)
    trailing = np.ones(v.size, dtype=bool)
    for group in g[4:0:-1]:
        zeros += trailing * _G17_ZEROS.take(group)
        trailing &= group == 0
    words = np.empty((_G17_WORDS, v.size), dtype=np.uint32)
    _G17_GROUPS.take(g, out=words[:5], mode="clip")
    words[5] = _G17_POINT
    words[6:] = words[:5]
    code = (e + 4) * 18 + (17 - zeros)
    for row, mask in zip(words, _G17_MASK):
        row &= mask.take(code)
    words[0] |= _G17_SIGN.take((v < 0).view(np.uint8))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(("," + "%.17g" % x).encode().ljust(44, b"\0")
                        for x in v[slow].tolist())
        words[:, slow] = np.frombuffer(text, dtype=np.uint32).reshape(
            -1, _G17_WORDS).T
    return words


def metric_rows(ks, series: dict):
    """(k, label, value) rows of {label: values over ``ks``}, by label."""
    ks = np.asarray(ks).tolist()
    for label, values in series.items():
        for k, v in zip(ks, np.asarray(values).tolist()):
            yield (k, label, v)


class ManifestWriter:
    """Collects run facts and writes the manifest atomically at the end.

    Creates ``run.out``, or raises a ``ConfigError`` naming the key when
    it cannot; ``write_csv`` writes a CSV there and records its row count.
    """

    def __init__(self, cfg: ExperimentConfig, command: str):
        self.out = cfg.run.out
        try:
            os.makedirs(self.out, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"run.out: cannot make directory {self.out!r}: "
                              f"{e.strerror}") from None
        self.payload = {
            "command": command,
            "version": __version__,
            "master_seed": cfg.run.seed,
            "config": cfg.echo(),
            "files": {},
        }
        self._t0 = time.monotonic()

    def write_csv(self, name: str, header, chunks):
        n = write_csv(os.path.join(self.out, name), header, chunks)
        self.payload["files"][name] = {"rows": n}

    def finish(self, **extra):
        self.payload.update(extra)
        self.payload["wall_clock_s"] = round(time.monotonic() - self._t0, 3)
        with _atomic_open(os.path.join(self.out, "manifest.json")) as fh:
            fh.write(json.dumps(self.payload, indent=2, sort_keys=True,
                                default=str) + "\n")


def _problem_params(cfg: ExperimentConfig, task, ms: MixingSet):
    """The bound's inputs at the configured pair (`problem_params_from`
    with the [theory] sigma2 and w2_init), once in-domain values that
    leave the bound constants undefined are ruled out as config errors
    naming the key, or the quantity that overflows."""
    mu, L = task.mu_L()
    if not 0.0 < mu < L:
        # the prior curvature 1 / (prior_var N) swamps the data's or
        # overflows (mu = L), or is too small to lift a direction that the
        # shard data leave flat above the eigensolve's rounding (mu <= 0)
        why = (f"leaves the prior curvature alone, mu = L = {L:.6g}"
               if mu == L else f"leaves a flat direction, mu = {mu:.3g}")
        raise ConfigError(f"task.prior_var: {cfg.task.prior_var:g} {why}; "
                          "the bounds need 0 < mu < L")
    norm_b = cfg.sampler.norm_b(ms.spectral.norm_wt)
    if not np.isfinite(norm_b * norm_b):  # a vanishing eta, or huge B
        key = ("sampler.b_scale" if cfg.sampler.b_mode == "scaled-identity"
               else "sampler.eta")
        raise ConfigError(
            f"{key}: ||B|| = {norm_b:.3g} is too large for the bound "
            "constants (its square overflows)")
    p = problem_params_from(task, ms, cfg.sampler, sigma2=cfg.theory.sigma2,
                            w2_init=cfg.theory.w2_init, mu_L=(mu, L))
    for name, value in (("||grad F(x*)||^2", p.grad_at_min_sq),
                        ("w2_init", p.w2_init)):
        if not np.isfinite(value):
            raise ConfigError(f"task: {name} = {value:g} overflows at this "
                              "data scale; the bounds need it finite")
    return p


def _checked_mixing(cfg: ExperimentConfig, algorithms,
                    ms: Optional[MixingSet] = None) -> Optional[MixingSet]:
    """The checked mixing set, or None when every algorithm is centralized.
    A given set ``ms`` is moved to the configured h, not built again."""
    if all(a in CENTRALIZED for a in algorithms):
        return None
    ms = build_mixing(cfg) if ms is None else with_h(ms, cfg.network.h)
    check_assumptions(ms, cfg)
    return ms


def _chain_and_score(cfg: ExperimentConfig, task, holdout,
                     algorithm: str, seeds, ms: Optional[MixingSet]):
    """One variant: run ``algorithm``'s replicas (one per seed, over ``ms``,
    which a centralized chain ignores) on ``task`` and score them.
    Returns the `run_ensemble` result and its metric series."""
    res = run_ensemble(task,
                       dataclasses.replace(cfg.sampler, algorithm=algorithm),
                       seeds, mixing=ms, record_every=cfg.run.record_every)
    return res, series_for_run(task, res.xs, holdout,
                               cfg.sampler.temperature)


# ---------------------------------------------------------------------------
# commands

def cmd_validate(cfg: ExperimentConfig) -> int:
    """Build the mixing set, print the assumption and stepsize reports.

    Exit 3 on hard assumption violations (unless overridden).  The
    stepsize report is informational here: practical (h, eta) pairs sit
    far outside the conservative theorem clauses, and refusing them
    would make every realistic experiment unrunnable.  The theory
    command is where clause failures block.
    """
    ms = build_mixing(cfg)
    report = validate_assumptions(ms)
    for line in report.lines():
        print(line)
    task, _ = build_task(cfg)
    p = _problem_params(cfg, task, ms)
    cert = validate_stepsize(p)
    print("stepsize clauses (informational):")
    for line in cert.lines():
        print("  " + line)
    margin = cfg.sampler.eta * p.L / 2.0
    if margin >= 1.0:
        print(f"warning: eta*L/2 = {margin:.3g} >= 1; "
              "the discretization is unstable at this stepsize")
    if not report.ok:
        if cfg.run.allow_assumption_violations:
            print("assumption violations overridden by config flag")
            return EXIT_OK
        names = ", ".join(c.name for c in report.failed())
        print(f"FAILED: {names}")
        return EXIT_ASSUMPTION
    print("OK")
    return EXIT_OK


def cmd_run(cfg: ExperimentConfig) -> int:
    """Run R replicas, write trajectory/metric CSVs and the manifest."""
    manifest = ManifestWriter(cfg, "run")
    _run(cfg, *build_task(cfg), manifest,
         _checked_mixing(cfg, [cfg.sampler.algorithm]))
    return EXIT_OK


def _run(cfg: ExperimentConfig, task, holdout, manifest: ManifestWriter,
         ms: Optional[MixingSet]):
    """A `run` of cfg over a built task (and its holdout) and its checked
    mixing set (None for a centralized algorithm), its files written
    through ``manifest``; returns the metric series it wrote."""
    seeds = _replica_seeds(cfg.run.seed, cfg.run.replicas)
    res, series = _chain_and_score(cfg, task, holdout, cfg.sampler.algorithm,
                                   seeds, ms)

    coords = [f"coord_{j}" for j in range(res.xs.shape[-1])]
    manifest.write_csv("trajectory.csv", ["replica", "k", "agent", *coords],
                       _trajectory_chunks(res.ks, res.xs))
    manifest.write_csv("metrics.csv", ["k", "label", "value"],
                       _row_lines(metric_rows(res.ks, series)))
    manifest.write_csv("plateau.csv", ["algorithm", "label", "plateau"],
                       _row_lines((cfg.sampler.algorithm, label, plateau(v))
                                  for label, v in series.items()))
    manifest.finish(replica_seeds=[int(s) for s in seeds],
                    delta=None if ms is None else ms.delta)
    return series


def _compare_labels(algorithms):
    seen: dict = {}
    labels = []
    for a in algorithms:
        seen[a] = seen.get(a, 0) + 1
        labels.append(a if seen[a] == 1 else f"{a}.{seen[a]}")
    return labels


def cmd_compare(cfg: ExperimentConfig) -> int:
    """Same data and network, one chain family per algorithm.

    Sub-seeds hash (master, algorithm name, r), so a twice-listed
    algorithm reproduces its own series exactly.
    """
    algos = cfg.compare.algorithms
    if len(algos) < 2:
        raise ConfigError("compare.algorithms: need at least 2 entries")
    manifest = ManifestWriter(cfg, "compare")
    task, holdout = build_task(cfg)
    ms = _checked_mixing(cfg, algos)

    all_series = {}
    plateau_rows = []
    seed_map = {}
    for algo, label in zip(algos, _compare_labels(algos)):
        seeds = _replica_seeds(cfg.run.seed, cfg.run.replicas, tag=algo)
        seed_map[label] = [int(s) for s in seeds]
        for name, v in _chain_and_score(cfg, task, holdout, algo, seeds,
                                        ms)[1].items():
            all_series[f"{label}:{name}"] = v
            plateau_rows.append((label, name, plateau(v)))

    ks = record_ks(cfg.sampler.steps, cfg.run.record_every)
    manifest.write_csv("metrics.csv", ["k", "label", "value"],
                       _row_lines(metric_rows(ks, all_series)))
    manifest.write_csv("plateau.csv", ["algorithm", "label", "plateau"],
                       _row_lines(plateau_rows))
    manifest.finish(replica_seeds=seed_map,
                    delta=None if ms is None else ms.delta)
    return EXIT_OK


_SWEEP_OBJECTIVE = ("w2_mean", "accuracy", "opt_error", "consensus")


def cmd_sweep_h(cfg: ExperimentConfig) -> int:
    """A `run` per h on the grid; summarize plateaus and mark the best.

    The task is built once and shared by every point.  W is built once,
    at the first point, and the set is moved to each later h with
    `network.with_h`; each point's set is checked.  Point h runs in the
    subdirectory h_<h to 6 significant digits>; a grid whose points share
    one is a config error, raised before any output.
    The objective is the plateau of the first available label in
    {w2_mean, accuracy, opt_error, consensus}; accuracy plateaus are
    negated so "argmin" uniformly means "best".
    """
    sw = cfg.sweep
    grid = list(np.linspace(sw.h_min, sw.h_max, sw.points))
    names = [f"h_{h:.6g}" for h in grid]
    if len(set(names)) < len(names):
        raise ConfigError(
            f"sweep.points: {sw.points} points on [{sw.h_min}, {sw.h_max}] "
            f"give only {len(set(names))} distinct run directories (h to 6 "
            "significant digits); use fewer points or a wider range")
    manifest = ManifestWriter(cfg, "sweep-h")
    task, holdout = build_task(cfg)

    rows = []
    objectives = []
    ms = None
    for h, name in zip(grid, names):
        sub_out = os.path.join(manifest.out, name)
        sub = dataclasses.replace(
            cfg,
            network=dataclasses.replace(cfg.network, h=float(h)),
            run=dataclasses.replace(cfg.run, out=sub_out))
        point = ManifestWriter(sub, "run")
        ms = _checked_mixing(sub, [cfg.sampler.algorithm], ms)
        here = {label: plateau(v)
                for label, v in _run(sub, task, holdout, point, ms).items()}
        rows.extend((float(h), label, val) for label, val in here.items())
        for label in _SWEEP_OBJECTIVE:
            if label in here:
                obj = -here[label] if label == "accuracy" else here[label]
                objectives.append((obj, float(h), label))
                break

    best_h = min(objectives)[1] if objectives else None
    manifest.write_csv("sweep_summary.csv",
                       ["h", "label", "plateau", "is_argmin"],
                       _row_lines((h, label, val, h == best_h)
                                   for h, label, val in rows))
    manifest.finish(h_grid=[float(h) for h in grid], best_h=best_h)
    return EXIT_OK


def cmd_theory(cfg: ExperimentConfig) -> int:
    """Constants dump, admissibility report, and bound curves.

    At the configured (h, eta) the clauses must pass, or the command exits
    3 naming the binding clause; with [theory] shrink = true the pair is
    shrunk to admissibility first and both pairs are reported, and the
    mixing set at the shrunk h is checked like the configured one.
    """
    manifest = ManifestWriter(cfg, "theory")
    task, _ = build_task(cfg)
    ms = build_mixing(cfg)
    check_assumptions(ms, cfg)

    p = _problem_params(cfg, task, ms)
    if cfg.sampler.batch is not None and cfg.theory.sigma2 is None:
        print(f"minibatch gradient noise sigma^2 at x* = {p.sigma2:.6g}")
    cert = validate_stepsize(p)
    for line in cert.lines():
        print(line)
    if not cert.ok:
        if not cfg.theory.shrink:
            bad = [c.name for c in cert.failed()]
            print(f"inadmissible (h, eta); failing clauses: {', '.join(bad)}; "
                  f"binding eta clause: {cert.binding_eta}")
            return EXIT_ASSUMPTION
        print(f"shrinking to admissible from (h={ms.h:.6g}, "
              f"eta={cfg.sampler.eta:.6g})")
        try:
            p, ms = shrink_to_admissible(p, ms, cfg.sampler)
        except RuntimeError as e:
            raise AssumptionError(str(e)) from None
        check_assumptions(ms, cfg)
        print(f"admissible pair: h={p.h:.9g}, eta={p.eta:.9g}")
        cert = validate_stepsize(p)
        for line in cert.lines():
            print(line)

    steps = cfg.sampler.steps
    tau = 1.0 / (p.mu * p.eta * (1.0 - p.eta * p.L / 2))
    note = (f"; note: sampler.steps = {steps} covers {steps / tau:.2%} of it"
            if steps < tau else "")
    print(f"relaxation time 1/(mu*eta*(1 - eta*L/2)) = {tau:.6g} steps{note}")
    tc = compute_constants(p)
    manifest.write_csv("theory_constants.csv", ["name", "value"],
                       _row_lines(tc.as_rows()))

    ks = record_ks(cfg.sampler.steps, cfg.run.record_every)
    bounds = (("bound_w2_mean", bound_w2_mean),
              ("bound_w2_agents", bound_w2_agents))
    lines = _row_lines((k, label, bound(p, tc, k))
                       for label, bound in bounds for k in ks if k >= tc.K0)
    manifest.write_csv("theory_bounds.csv", ["k", "label", "value"], lines)
    manifest.finish(h_used=p.h, eta_used=p.eta, sigma2=p.sigma2, K0=tc.K0,
                    delta=ms.delta)
    return EXIT_OK


def cmd_gen_data(cfg: ExperimentConfig) -> int:
    """Write the configured synthetic dataset as a CSV with a header.

    Uses the same stream a run would (hash(master, "data")), so the file
    matches the data the chains consume before sharding.
    """
    t = cfg.task
    manifest = ManifestWriter(cfg, "gen-data")
    x, y, beta = _synthetic_data(
        t, np.random.default_rng(derive_seed(cfg.run.seed, "data")))
    header = [f"x_{j}" for j in range(t.dim)] + ["y"]
    manifest.write_csv("dataset.csv", header, _row_lines(
        (*row, yv) for row, yv in zip(x.tolist(), y.tolist())))
    manifest.finish(beta_true=[float(b) for b in beta])
    return EXIT_OK
