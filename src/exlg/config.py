"""Flat key = value experiment configs with sections.

The schema is deliberately boring: configparser sections, no nesting, no
interpolation, every key typed and checked here so the commands can trust
what they receive.  Unknown sections or keys are hard errors naming the
offender; so are missing referenced files.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from typing import Optional

__all__ = [
    "ConfigError",
    "TaskConfig",
    "NetworkConfig",
    "SamplerSection",
    "RunConfig",
    "CompareConfig",
    "SweepConfig",
    "TheoryConfig",
    "ExperimentConfig",
    "load_config",
]

TASK_KINDS = ("linreg", "logreg-synthetic", "logreg-csv")


class ConfigError(ValueError):
    """Unparseable or invalid experiment config; message lists the fields."""


@dataclasses.dataclass(frozen=True)
class TaskConfig:
    kind: str
    n_points: int = 1000
    per_agent: Optional[int] = None
    dim: int = 2
    noise_std: float = 1.0
    prior_var: float = 1.0
    beta_true: Optional[tuple] = None  # None: drawn from the data stream
    csv_path: Optional[str] = None
    label_col: Optional[str] = None
    holdout: int = 1000


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    topology: str
    n: int
    h: float
    delta: Optional[float] = None
    adjacency: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class SamplerSection:
    algorithm: str
    eta: float
    steps: int
    batch: Optional[int] = None
    temperature: float = 1.0
    b_mode: str = "wtilde-over-eta"
    b_scale: float = 1.0


@dataclasses.dataclass(frozen=True)
class RunConfig:
    seed: int
    out: str
    replicas: int = 1
    record_every: int = 1
    threads: Optional[int] = None  # accepted and ignored
    allow_assumption_violations: bool = False


@dataclasses.dataclass(frozen=True)
class CompareConfig:
    algorithms: tuple = ()


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    h_min: float = 0.001
    h_max: float = 0.5
    points: int = 5


@dataclasses.dataclass(frozen=True)
class TheoryConfig:
    shrink: bool = False
    sigma2: Optional[float] = None  # None: 0 at full batch, estimated else
    w2_init: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    task: TaskConfig
    network: NetworkConfig
    sampler: SamplerSection
    run: RunConfig
    compare: CompareConfig = CompareConfig()
    sweep: SweepConfig = SweepConfig()
    theory: TheoryConfig = TheoryConfig()

    def echo(self) -> dict:
        """Resolved config as plain nested dicts (manifest payload)."""
        out = {}
        for name in ("task", "network", "sampler", "run", "compare",
                     "sweep", "theory"):
            section = dataclasses.asdict(getattr(self, name))
            out[name] = {k: (list(v) if isinstance(v, tuple) else v)
                         for k, v in section.items()}
        return out


# section -> key -> (converter name, required)
_SCHEMA = {
    "task": {
        "kind": ("str", True), "n_points": ("int", False),
        "per_agent": ("int", False), "dim": ("int", False),
        "noise_std": ("float", False), "prior_var": ("float", False),
        "beta_true": ("floats", False), "csv_path": ("str", False),
        "label_col": ("str", False), "holdout": ("int", False),
    },
    "network": {
        "topology": ("str", True), "n": ("int", True), "h": ("float", True),
        "delta": ("float", False), "adjacency": ("str", False),
    },
    "sampler": {
        "algorithm": ("str", True), "eta": ("float", True),
        "steps": ("int", True), "batch": ("int", False),
        "temperature": ("float", False), "b_mode": ("str", False),
        "b_scale": ("float", False),
    },
    "run": {
        "seed": ("int", True), "out": ("str", True),
        "replicas": ("int", False), "record_every": ("int", False),
        "threads": ("int", False),
        "allow_assumption_violations": ("bool", False),
    },
    "compare": {"algorithms": ("strs", False)},
    "sweep": {"h_min": ("float", False), "h_max": ("float", False),
              "points": ("int", False)},
    "theory": {"shrink": ("bool", False), "sigma2": ("float", False),
               "w2_init": ("float", False)},
}

_SECTION_TYPES = {
    "task": TaskConfig, "network": NetworkConfig, "sampler": SamplerSection,
    "run": RunConfig, "compare": CompareConfig, "sweep": SweepConfig,
    "theory": TheoryConfig,
}

_BOOL = {"true": True, "yes": True, "1": True,
         "false": False, "no": False, "0": False}


def _convert(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            try:
                return _BOOL[raw.lower()]
            except KeyError:
                raise ValueError(f"not a boolean: {raw!r}")
        if kind == "floats":
            return tuple(float(p) for p in raw.replace(",", " ").split())
        if kind == "strs":
            return tuple(p for p in raw.replace(",", " ").split() if p)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None
    raise AssertionError(kind)


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    ``overrides`` maps "section.key" to already-typed values (the CLI
    flags).  All problems found are reported together, each prefixed with
    its section.key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from None

    problems = []
    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"{section}: unknown section")
            continue
        values[section] = {}
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                problems.append(f"{section}.{key}: unknown key")
                continue
            if raw.strip() == "":
                continue  # empty value = unset
            kind, _ = _SCHEMA[section][key]
            try:
                values[section][key] = _convert(kind, raw, f"{section}.{key}")
            except ConfigError as e:
                problems.append(str(e))

    for skey, val in (overrides or {}).items():
        if val is None:
            continue
        section, key = skey.split(".", 1)
        values.setdefault(section, {})[key] = val

    for section, keys in _SCHEMA.items():
        present = values.get(section, {})
        for key, (_, required) in keys.items():
            if required and key not in present:
                problems.append(f"{section}.{key}: required key missing")

    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))

    built = {}
    for section, cls in _SECTION_TYPES.items():
        built[section] = cls(**values.get(section, {}))
    cfg = ExperimentConfig(**built)
    _validate_semantics(cfg, problems)
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))
    return cfg


def _validate_semantics(cfg: ExperimentConfig, problems: list):
    t, net, s, r = cfg.task, cfg.network, cfg.sampler, cfg.run
    for section, keys in _SCHEMA.items():
        for key, (kind, _) in keys.items():
            value = getattr(getattr(cfg, section), key)
            values = value if kind == "floats" else [value]
            if kind in ("float", "floats") and value is not None \
                    and not all(map(math.isfinite, values)):
                problems.append(f"{section}.{key}: must be finite")
    if t.kind not in TASK_KINDS:
        problems.append(f"task.kind: {t.kind!r} not one of {TASK_KINDS}")
    if t.kind == "logreg-csv":
        if not t.csv_path:
            problems.append("task.csv_path: required for logreg-csv")
        elif not os.path.exists(t.csv_path):
            problems.append(f"task.csv_path: file not found: {t.csv_path}")
    if t.n_points < 1:
        problems.append(f"task.n_points: must be >= 1, got {t.n_points}")
    if t.dim < 1:
        problems.append(f"task.dim: must be >= 1, got {t.dim}")
    if t.prior_var <= 0:
        problems.append("task.prior_var: must be > 0")
    if t.noise_std < 0:
        problems.append(f"task.noise_std: must be >= 0, got {t.noise_std}")
    if t.holdout < 1:
        problems.append(f"task.holdout: must be >= 1, got {t.holdout}")
    if t.per_agent is not None and t.per_agent < 1:
        problems.append("task.per_agent: must be >= 1 when set")
    if t.beta_true is not None and len(t.beta_true) != t.dim:
        problems.append(
            f"task.beta_true: {len(t.beta_true)} values for dim {t.dim}")

    if net.n < 2:
        problems.append(f"network.n: must be >= 2, got {net.n}")
    if net.topology == "custom":
        if not net.adjacency:
            problems.append("network.adjacency: required for custom topology")
        elif not os.path.exists(net.adjacency):
            problems.append(
                f"network.adjacency: file not found: {net.adjacency}")
    if not (0.0 < net.h <= 0.5):
        problems.append(f"network.h: must lie in (0, 1/2], got {net.h}")

    from .samplers import ALGORITHMS, B_MODES

    if s.algorithm not in ALGORITHMS:
        problems.append(
            f"sampler.algorithm: {s.algorithm!r} not one of {ALGORITHMS}")
    if s.eta <= 0:
        problems.append(f"sampler.eta: must be > 0, got {s.eta}")
    if s.steps < 0:
        problems.append(f"sampler.steps: must be >= 0, got {s.steps}")
    if s.batch is not None and s.batch < 1:
        problems.append("sampler.batch: must be >= 1 when set")
    if s.temperature not in (0.0, 1.0):
        problems.append(
            f"sampler.temperature: must be 0 or 1, got {s.temperature}")
    if s.b_mode not in B_MODES:
        problems.append(f"sampler.b_mode: {s.b_mode!r} not one of {B_MODES}")

    if r.replicas < 1:
        problems.append(f"run.replicas: must be >= 1, got {r.replicas}")
    if r.record_every < 1:
        problems.append(
            f"run.record_every: must be >= 1, got {r.record_every}")
    if r.threads is not None and r.threads < 1:
        problems.append("run.threads: must be >= 1 when set")
    if r.seed < 0:
        problems.append("run.seed: must be >= 0")

    for algo in cfg.compare.algorithms:
        if algo not in ALGORITHMS:
            problems.append(
                f"compare.algorithms: {algo!r} not one of {ALGORITHMS}")

    sw = cfg.sweep
    if not (0.0 < sw.h_min <= sw.h_max <= 0.5):
        problems.append(
            f"sweep: need 0 < h_min <= h_max <= 0.5, got "
            f"[{sw.h_min}, {sw.h_max}]")
    if sw.points < 1:
        problems.append(f"sweep.points: must be >= 1, got {sw.points}")
    if cfg.theory.sigma2 is not None and cfg.theory.sigma2 < 0:
        problems.append("theory.sigma2: must be >= 0 when set")
    if cfg.theory.w2_init is not None and cfg.theory.w2_init < 0:
        problems.append("theory.w2_init: must be >= 0 when set")
