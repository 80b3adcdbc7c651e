"""Experiment orchestration: data, networks, replicas, metrics, CSVs.

Each ``cmd_*`` function implements one CLI subcommand and returns a
process exit code (0 success, 2 config error, 3 assumption violation,
4 divergence; the CLI maps raised errors to the same codes).  A run's
replicas advance together as one ensemble (``samplers.run_ensemble``).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import tempfile
import time
from typing import Optional

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .metrics import MetricSeries, plateau, w2_batch
from .network import (
    MixingSet,
    build_mixing_set,
    make_topology,
    topology_from_file,
    validate_assumptions,
)
from .samplers import (
    ChainDivergenceError,
    SamplerConfig,
    derive_seed,
    run_ensemble,
)
from .tasks import (
    LinRegTask,
    LogRegTask,
    gen_linreg_data,
    gen_logreg_data,
    load_csv_dataset,
    mu_L_bounds,
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

_CENTRALIZED = ("ULA", "REFERENCE_CHAIN")


class AssumptionError(RuntimeError):
    """A hard mixing-assumption violation without the override flag."""


# ---------------------------------------------------------------------------
# construction helpers

@dataclasses.dataclass(frozen=True)
class TaskBundle:
    task: object
    beta_true: Optional[np.ndarray]
    holdout: Optional[tuple]  # (X, y) for classification accuracy


def _synthetic_data(t, rng: np.random.Generator):
    """(x, y, beta_true) of a synthetic task, drawn from ``rng``.

    beta_true is drawn first unless the config fixes it; ``build_task``
    and ``cmd_gen_data`` both call this, so dataset.csv is exactly the
    data a run shards.
    """
    if t.beta_true is not None:
        beta_true = np.asarray(t.beta_true, dtype=float)
    else:
        beta_true = rng.standard_normal(t.dim)
    if t.kind == "linreg":
        x, y = gen_linreg_data(t.n_points, beta_true, t.noise_std, rng)
    else:
        x, y = gen_logreg_data(t.n_points, beta_true, rng)
    return x, y, beta_true


def build_task(cfg: ExperimentConfig) -> TaskBundle:
    """Generate or load the dataset and shard it across agents.

    All draws come from the stream seeded by hash(master, "data"), so the
    dataset is a pure function of the config; the holdout set uses its own
    stream and never perturbs the training data.
    """
    t = cfg.task
    n_agents = cfg.network.n
    rng = np.random.default_rng(derive_seed(cfg.run.seed, "data"))

    if t.kind == "logreg-csv":
        label = t.label_col
        if label is not None and label.lstrip("+-").isdigit():
            label = int(label)
        x, y, _names = load_csv_dataset(t.csv_path, label_column=label)
        n_hold = min(t.holdout, x.shape[0] // 5)
        perm = rng.permutation(x.shape[0])
        hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
        holdout = (x[hold_idx], y[hold_idx]) if n_hold else None
        x, y = x[train_idx], y[train_idx]
        beta_true = None
    else:
        x, y, beta_true = _synthetic_data(t, rng)
        holdout = None
        if t.kind == "logreg-synthetic":
            hold_rng = np.random.default_rng(
                derive_seed(cfg.run.seed, "holdout"))
            holdout = gen_logreg_data(t.holdout, beta_true, hold_rng)

    n_rows = x.shape[0]
    size = max(n_rows // n_agents if t.per_agent is None else t.per_agent, 1)
    if size * n_agents > n_rows:
        key = "network.n" if t.per_agent is None else "task.per_agent"
        raise ConfigError(
            f"{key}: {n_agents} agents x {size} points need "
            f"{size * n_agents} rows, the data has {n_rows}")
    batch = cfg.sampler.batch
    if batch is not None and batch > size:
        raise ConfigError(
            f"sampler.batch: {batch} exceeds the shard size {size}")
    shards = partition_data(x, y, n_agents, rng, per_agent=t.per_agent)
    xs = tuple(s[0] for s in shards)
    ys = tuple(s[1] for s in shards)
    if t.kind == "linreg":
        task = LinRegTask(xs=xs, ys=ys, prior_var=t.prior_var)
    else:
        task = LogRegTask(xs=xs, ys=ys, prior_var=t.prior_var)
    return TaskBundle(task=task, beta_true=beta_true, holdout=holdout)


def build_mixing(cfg: ExperimentConfig) -> MixingSet:
    """Topology + W + W~ from the [network] section.

    Static domain violations (bad h, bad delta, malformed adjacency file)
    surface as ConfigError; they are knowable before anything runs.
    """
    net = cfg.network
    try:
        if net.topology == "custom":
            top = topology_from_file(net.adjacency)
            if top.n != net.n:
                raise ValueError(
                    f"adjacency file has {top.n} nodes, config says {net.n}")
        else:
            top = make_topology(net.topology, net.n)
        delta = net.delta
        if delta is None:
            # seeded so the drawn delta is part of the reproducible config
            from .network import draw_delta

            delta = draw_delta(top, int(derive_seed(cfg.run.seed, "delta")
                                        % (2 ** 31)))
        return build_mixing_set(top, h=net.h, delta=delta,
                                de_sgld_mode=net.de_sgld_mode)
    except ValueError as e:
        raise ConfigError(f"network: {e}") from None


def check_assumptions(ms: MixingSet, cfg: ExperimentConfig):
    """Run the mixing checks; raise AssumptionError unless overridden."""
    report = validate_assumptions(ms)
    for line in report.lines():
        logger.info("%s", line)
    if not report.ok and not cfg.run.allow_assumption_violations:
        names = ", ".join(c.name for c in report.failed())
        raise AssumptionError(f"assumption checks failed: {names}")
    return report


# ---------------------------------------------------------------------------
# replica execution

def _replica_seeds(master: int, replicas: int, tag: str = "replica"):
    return [derive_seed(master, tag, r) for r in range(replicas)]


def run_replicas(task, ms: Optional[MixingSet], scfg: SamplerConfig,
                 seeds, record_every: int):
    """One chain per replica seed, all advanced together.

    Returns (ks, xs_all) with xs_all of shape (n_rec, R, A, d) where A is
    the number of chain rows (agents, or 1 for centralized samplers).
    Divergence is re-raised tagged with the replica index.
    """
    try:
        res = run_ensemble(task, scfg, seeds, mixing=ms,
                           record_every=record_every)
    except ChainDivergenceError as e:
        raise ChainDivergenceError(
            f"replica {e.replica}: {e}", algorithm=e.algorithm,
            replica=e.replica, k=e.k, agent=e.agent, value=e.value,
        ) from None
    return res.ks, res.xs


def series_for_run(cfg: ExperimentConfig, task, ks, xs_all,
                   holdout: Optional[tuple]):
    """The metric series a run emits, by task type and temperature.

    W2 series need a Gaussian target and an ensemble: linreg with
    replicas >= 2 at unit temperature.  Logistic runs report held-out
    accuracy of the agent average.  Zero-temperature runs report the
    worst-agent optimization error instead of distributional metrics.
    Consensus error is always included.  Each series is one array
    expression over the (n_rec, R, A, d) ensemble, averaged over
    replicas; every value equals the per-record function
    (``consensus_error``, ``w2_gaussian``, ``accuracy``) on that record.
    """
    ks = np.asarray(ks, dtype=int)
    out = []
    centered = xs_all - xs_all.mean(axis=2, keepdims=True)
    cons = np.sqrt(np.sum(centered * centered, axis=(2, 3))).mean(axis=1)
    out.append(MetricSeries(ks=ks, values=cons, label="consensus"))

    if cfg.sampler.temperature == 0.0:
        dist = np.linalg.norm(xs_all - task.minimizer(), axis=3)
        out.append(MetricSeries(ks=ks, values=dist.max(axis=2).mean(axis=1),
                                label="opt_error"))
        return out

    means = xs_all.mean(axis=2)
    if cfg.task.kind == "linreg" and xs_all.shape[1] >= 2:
        target = task.target()
        out.append(MetricSeries(ks=ks, values=w2_batch(means, target),
                                label="w2_mean"))
        by_agent = np.ascontiguousarray(np.moveaxis(xs_all, 2, 0))
        per_agent = w2_batch(by_agent, target).mean(axis=0)
        out.append(MetricSeries(ks=ks, values=per_agent, label="w2_agents"))

    if holdout is not None:
        acc = _accuracies(means, *holdout).mean(axis=1)
        out.append(MetricSeries(ks=ks, values=acc, label="accuracy"))
    return out


def _accuracies(means, hx, hy, chunk_cells: int = 1 << 16):
    """``accuracy`` of each (n_rec, R, d) agent average, as (n_rec, R).

    One matrix-vector product per (record, replica), as in ``accuracy``;
    records go in chunks of about ``chunk_cells`` (record, replica,
    point) cells, so the temporaries stay small.
    """
    step = max(1, chunk_cells // max(1, means.shape[1] * len(hy)))
    return np.concatenate([
        np.mean(((hx @ means[j:j + step, ..., None])[..., 0] >= 0.0)
                .astype(float) == hy, axis=-1)
        for j in range(0, len(means), step)])


# ---------------------------------------------------------------------------
# output files

def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> int:
    """Write header + rows atomically; floats at 17 significant digits.

    Each row is filled into a ``%`` template made for its tuple of cell
    types: ``%d`` for integers, ``%.17g`` for floats, ``%s`` otherwise,
    with bools written as true/false.  Returns the data row count (header
    excluded).
    """
    lines = [",".join(header)]
    templates: dict = {}
    for row in rows:
        kinds = tuple(map(type, row))
        tmpl = templates.get(kinds)
        if tmpl is None:
            tmpl = templates[kinds] = ",".join(map(_cell_format, kinds))
        if bool in kinds:
            row = tuple(("true" if c else "false") if type(c) is bool else c
                        for c in row)
        lines.append(tmpl % tuple(row))
    _atomic_write(path, "\n".join(lines) + "\n")
    return len(lines) - 1


def _cell_format(kind: type) -> str:
    if issubclass(kind, (int, np.integer)) and kind is not bool:
        return "%d"
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    return "%s"


def trajectory_rows(ks, xs_all):
    ks = np.asarray(ks).tolist()
    for r in range(xs_all.shape[1]):
        xs = xs_all[:, r].tolist()
        for k, block in zip(ks, xs):
            for a, x in enumerate(block):
                yield (r, k, a, *x)


def metric_rows(series_list):
    for s in series_list:
        for k, v in zip(np.asarray(s.ks).tolist(),
                        np.asarray(s.values).tolist()):
            yield (k, s.label, v)


class ManifestWriter:
    """Collects run facts and writes the manifest atomically at the end.

    Creates ``run.out``; ``write_csv`` writes a CSV there and records its
    row count.
    """

    def __init__(self, cfg: ExperimentConfig, command: str):
        self.out = cfg.run.out
        os.makedirs(self.out, exist_ok=True)
        self.payload = {
            "command": command,
            "version": __version__,
            "master_seed": cfg.run.seed,
            "config": cfg.echo(),
            "files": {},
        }
        self._t0 = time.monotonic()

    def write_csv(self, name: str, header, rows):
        n = write_csv(os.path.join(self.out, name), header, rows)
        self.payload["files"][name] = {"rows": n}

    def finish(self, **extra):
        self.payload.update(extra)
        self.payload["wall_clock_s"] = round(time.monotonic() - self._t0, 3)
        _atomic_write(os.path.join(self.out, "manifest.json"),
                      json.dumps(self.payload, indent=2, sort_keys=True,
                                 default=str) + "\n")


def _b_scale(cfg: ExperimentConfig) -> float:
    """The scale of B = b_scale * I in scaled-identity mode (default 1)."""
    return 1.0 if cfg.sampler.b_scale is None else cfg.sampler.b_scale


def _sampler_config(cfg: ExperimentConfig, algorithm: Optional[str] = None,
                    eta: Optional[float] = None) -> SamplerConfig:
    s = cfg.sampler
    return SamplerConfig(
        algorithm=algorithm or s.algorithm,
        eta=s.eta if eta is None else eta,
        steps=s.steps, seed=0, batch=s.batch,
        temperature=s.temperature, b_mode=s.b_mode,
        b_scale=_b_scale(cfg))


# ---------------------------------------------------------------------------
# commands

def cmd_validate(cfg: ExperimentConfig, echo=print) -> int:
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
        echo(line)
    bundle = build_task(cfg)
    try:
        p = problem_params_from(bundle.task, ms, cfg.sampler.eta,
                                b_mode=cfg.sampler.b_mode,
                                b_scale=_b_scale(cfg))
        cert = validate_stepsize(p)
        echo("stepsize clauses (informational):")
        for line in cert.lines():
            echo("  " + line)
    except ValueError as e:
        echo(f"stepsize report unavailable: {e}")
    margin = cfg.sampler.eta * mu_L_bounds(bundle.task)[1] / 2.0
    if margin >= 1.0:
        echo(f"warning: eta*L/2 = {margin:.3g} >= 1; "
             "the discretization is unstable at this stepsize")
    if not report.ok:
        if cfg.run.allow_assumption_violations:
            echo("assumption violations overridden by config flag")
            return EXIT_OK
        names = ", ".join(c.name for c in report.failed())
        echo(f"FAILED: {names}")
        return EXIT_ASSUMPTION
    echo("OK")
    return EXIT_OK


def cmd_run(cfg: ExperimentConfig) -> int:
    """Run R replicas, write trajectory/metric CSVs and the manifest."""
    _run(cfg)
    return EXIT_OK


def _run(cfg: ExperimentConfig):
    """cmd_run's work; returns the metric series it wrote."""
    manifest = ManifestWriter(cfg, "run")
    bundle, ms = build_task(cfg), None
    if cfg.sampler.algorithm not in _CENTRALIZED:
        ms = build_mixing(cfg)
        check_assumptions(ms, cfg)
    seeds = _replica_seeds(cfg.run.seed, cfg.run.replicas)
    ks, xs_all = run_replicas(bundle.task, ms, _sampler_config(cfg), seeds,
                              cfg.run.record_every)
    series = series_for_run(cfg, bundle.task, ks, xs_all, bundle.holdout)

    coords = [f"coord_{j}" for j in range(xs_all.shape[-1])]
    manifest.write_csv("trajectory.csv", ["replica", "k", "agent", *coords],
                       trajectory_rows(ks, xs_all))
    manifest.write_csv("metrics.csv", ["k", "label", "value"],
                       metric_rows(series))
    manifest.write_csv("plateau.csv", ["algorithm", "label", "plateau"],
                       ((cfg.sampler.algorithm, s.label, plateau(s.values))
                        for s in series))
    manifest.finish(replica_seeds=[int(s) for s in seeds])
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
    bundle = build_task(cfg)
    ms = None
    if any(a not in _CENTRALIZED for a in algos):
        ms = build_mixing(cfg)
        check_assumptions(ms, cfg)

    labels = _compare_labels(algos)
    all_series = []
    plateau_rows = []
    seed_map = {}
    for algo, label in zip(algos, labels):
        seeds = _replica_seeds(cfg.run.seed, cfg.run.replicas, tag=algo)
        seed_map[label] = [int(s) for s in seeds]
        use_ms = None if algo in _CENTRALIZED else ms
        ks, xs_all = run_replicas(bundle.task, use_ms,
                                  _sampler_config(cfg, algorithm=algo),
                                  seeds, cfg.run.record_every)
        for s in series_for_run(cfg, bundle.task, ks, xs_all,
                                bundle.holdout):
            all_series.append(
                dataclasses.replace(s, label=f"{label}:{s.label}"))
            plateau_rows.append((label, s.label, plateau(s.values)))

    manifest.write_csv("metrics.csv", ["k", "label", "value"],
                       metric_rows(all_series))
    manifest.write_csv("plateau.csv", ["algorithm", "label", "plateau"],
                       plateau_rows)
    manifest.finish(replica_seeds=seed_map)
    return EXIT_OK


_SWEEP_OBJECTIVE = ("w2_mean", "accuracy", "opt_error", "consensus")


def cmd_sweep_h(cfg: ExperimentConfig) -> int:
    """cmd_run once per h on the grid; summarize plateaus and mark the best.

    The objective is the plateau of the first available label in
    {w2_mean, accuracy, opt_error, consensus}; accuracy plateaus are
    negated so "argmin" uniformly means "best".
    """
    sw = cfg.sweep
    grid = list(np.linspace(sw.h_min, sw.h_max, sw.points))
    manifest = ManifestWriter(cfg, "sweep-h")

    rows = []
    objectives = []
    for h in grid:
        sub_out = os.path.join(manifest.out, f"h_{h:.6g}")
        sub = dataclasses.replace(
            cfg,
            network=dataclasses.replace(cfg.network, h=float(h)),
            run=dataclasses.replace(cfg.run, out=sub_out))
        here = {s.label: plateau(s.values) for s in _run(sub)}
        rows.extend((float(h), label, val) for label, val in here.items())
        for label in _SWEEP_OBJECTIVE:
            if label in here:
                obj = -here[label] if label == "accuracy" else here[label]
                objectives.append((obj, float(h), label))
                break

    best_h = min(objectives)[1] if objectives else None
    manifest.write_csv("sweep_summary.csv",
                       ["h", "label", "plateau", "is_argmin"],
                       ((h, label, val, h == best_h)
                        for h, label, val in rows))
    manifest.finish(h_grid=[float(h) for h in grid], best_h=best_h)
    return EXIT_OK


def cmd_theory(cfg: ExperimentConfig, echo=print) -> int:
    """Constants dump, admissibility report, and bound curves.

    At the configured (h, eta) the clauses must pass, or the command exits
    3 naming the binding clause; with [theory] shrink = true the pair is
    shrunk to admissibility first and both pairs are reported.
    """
    manifest = ManifestWriter(cfg, "theory")
    bundle = build_task(cfg)
    ms = build_mixing(cfg)
    check_assumptions(ms, cfg)

    sigma2 = cfg.theory.sigma2
    if sigma2 is None:
        sigma2 = 0.0
        if cfg.sampler.batch is not None:
            from .tasks import estimate_grad_noise

            rng = np.random.default_rng(
                derive_seed(cfg.run.seed, "noise-est"))
            sigma2 = estimate_grad_noise(
                bundle.task, bundle.task.minimizer(), cfg.sampler.batch,
                200, rng)
            echo(f"estimated gradient noise sigma^2 = {sigma2:.6g}")

    p = problem_params_from(bundle.task, ms, cfg.sampler.eta, sigma2=sigma2,
                            b_mode=cfg.sampler.b_mode, b_scale=_b_scale(cfg),
                            w2_init=cfg.theory.w2_init)
    cert = validate_stepsize(p)
    for line in cert.lines():
        echo(line)
    used_ms = ms
    if not cert.ok:
        if not cfg.theory.shrink:
            bad = [c.name for c in cert.failed()]
            echo(f"inadmissible (h, eta); failing clauses: {', '.join(bad)}; "
                 f"binding eta clause: {cert.binding_eta}")
            return EXIT_ASSUMPTION
        echo(f"shrinking to admissible from (h={ms.h:.6g}, "
             f"eta={cfg.sampler.eta:.6g})")
        p, used_ms = shrink_to_admissible(
            bundle.task, ms, cfg.sampler.eta, sigma2=sigma2,
            b_mode=cfg.sampler.b_mode, b_scale=_b_scale(cfg))
        echo(f"admissible pair: h={p.h:.9g}, eta={p.eta:.9g}")
        cert = validate_stepsize(p)
        for line in cert.lines():
            echo(line)

    tc = compute_constants(p)
    manifest.write_csv("theory_constants.csv", ["name", "value"],
                       tc.as_rows())

    ks = sorted(set(range(0, cfg.sampler.steps + 1, cfg.run.record_every))
                | {cfg.sampler.steps})
    rows = [(k, label, bound(p, tc, k))
            for label, bound in (("bound_w2_mean", bound_w2_mean),
                                 ("bound_w2_agents", bound_w2_agents))
            for k in ks if k >= tc.K0]
    manifest.write_csv("theory_bounds.csv", ["k", "label", "value"], rows)
    manifest.finish(h_used=p.h, eta_used=p.eta, sigma2=sigma2, K0=tc.K0)
    return EXIT_OK


def cmd_gen_data(cfg: ExperimentConfig) -> int:
    """Write the configured synthetic dataset as a CSV with a header.

    Uses the same stream a run would (hash(master, "data")), so the file
    matches the data the chains consume before sharding.
    """
    t = cfg.task
    if t.kind == "logreg-csv":
        raise ConfigError("gen-data only applies to synthetic tasks")
    manifest = ManifestWriter(cfg, "gen-data")
    x, y, beta = _synthetic_data(
        t, np.random.default_rng(derive_seed(cfg.run.seed, "data")))
    header = [f"x_{j}" for j in range(t.dim)] + ["y"]
    manifest.write_csv("dataset.csv", header,
                       ((*row, yv) for row, yv in zip(x.tolist(), y.tolist())))
    manifest.finish(beta_true=[float(b) for b in beta])
    return EXIT_OK
