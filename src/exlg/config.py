"""Flat key = value experiment configs with sections.

The schema is deliberately boring: configparser sections, no nesting, no
interpolation.  Each section is a dataclass field of `ExperimentConfig`:
its keys are the section dataclass's fields, parsed by their annotations,
and a field without a default is a required key.  Every value is checked
so the commands can trust what they receive; the ``[sampler]`` section is
a `SamplerConfig`, which checks its own fields.  Unknown sections or
keys are hard errors naming the offender; so are missing referenced
files.
"""

import configparser
import dataclasses
import math
import os
import typing
from typing import Optional

from .network import TOPOLOGY_KINDS
from .samplers import ALGORITHMS, SamplerConfig

__all__ = [
    "ConfigError",
    "TaskConfig",
    "NetworkConfig",
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
    # None: drawn from the data stream
    beta_true: Optional[tuple[float, ...]] = None
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
class RunConfig:
    seed: int
    out: str
    replicas: int = 1
    record_every: int = 1
    threads: Optional[int] = None  # accepted and ignored
    allow_assumption_violations: bool = False


@dataclasses.dataclass(frozen=True)
class CompareConfig:
    algorithms: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    h_min: float = 0.001
    h_max: float = 0.5
    points: int = 5


@dataclasses.dataclass(frozen=True)
class TheoryConfig:
    shrink: bool = False
    sigma2: Optional[float] = None  # None: 0 at full batch, exact else
    w2_init: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    task: TaskConfig
    network: NetworkConfig
    sampler: SamplerConfig
    run: RunConfig
    compare: CompareConfig = CompareConfig()
    sweep: SweepConfig = SweepConfig()
    theory: TheoryConfig = TheoryConfig()

    def echo(self) -> dict:
        """Resolved config as plain nested dicts (manifest payload)."""
        return {f.name: {k: (list(v) if isinstance(v, tuple) else v)
                         for k, v in dataclasses.asdict(
                             getattr(self, f.name)).items()}
                for f in dataclasses.fields(self)}


_BOOL = {"true": True, "yes": True, "1": True,
         "false": False, "no": False, "0": False}


def _parse(tp, raw: str):
    """``raw`` as a value of type ``tp``: Optional[X] parses as X, and a
    tuple[X, ...] as whitespace- or comma-separated items."""
    args = typing.get_args(tp)
    if type(None) in args:
        (tp,) = set(args) - {type(None)}
        args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return tuple(map(args[0], raw.replace(",", " ").split()))
    if tp is bool:
        if raw.lower() not in _BOOL:
            raise ValueError(f"not a boolean: {raw!r}")
        return _BOOL[raw.lower()]
    return tp(raw)


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    ``overrides`` maps "section.key" to already-typed values (the CLI
    flags).  All problems found are reported together, each prefixed with
    its section.key: unparseable values, unknown names, missing keys, and
    the domain problems of each section that has its required keys.
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

    # section -> its dataclass; a section's keys are the fields, typed by
    # their annotations, and a field without a default is a required key
    sections = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    fields = {name: {f.name: f for f in dataclasses.fields(cls)}
              for name, cls in sections.items()}
    problems = []
    unparsed = set()  # present but unparseable: not also "missing"
    values: dict = {}
    for section in parser.sections():
        if section not in fields:
            problems.append(f"{section}: unknown section")
            continue
        values[section] = {}
        for key, raw in parser[section].items():
            if key not in fields[section]:
                problems.append(f"{section}.{key}: unknown key")
                continue
            raw = raw.strip()
            if raw == "":
                continue  # empty value = unset
            try:
                values[section][key] = _parse(fields[section][key].type, raw)
            except ValueError as e:
                problems.append(f"{section}.{key}: {e}")
                unparsed.add((section, key))

    for skey, val in (overrides or {}).items():
        if val is None:
            continue
        section, key = skey.split(".", 1)
        values.setdefault(section, {})[key] = val

    built = {}
    for section, cls in sections.items():
        present = values.get(section, {})
        missing = [key for key, f in fields[section].items()
                   if f.default is dataclasses.MISSING and key not in present]
        problems += [f"{section}.{key}: required key missing"
                     for key in missing if (section, key) not in unparsed]
        if missing:
            continue
        try:
            built[section] = cls(**present)
        except ValueError as e:  # a SamplerConfig checks its own fields
            problems += [f"{section}.{line}" for line in str(e).splitlines()]
            continue
        if section != "sampler":
            problems += _section_problems(section, built[section])
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(problems))
    return ExperimentConfig(**built)


def _section_problems(section: str, s):
    """The problems of a built section other than the sampler."""
    for key, value in vars(s).items():
        items = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in items if isinstance(v, float)):
            yield f"{section}.{key}: must be finite"
    if section == "task":
        if s.kind not in TASK_KINDS:
            yield f"task.kind: {s.kind!r} not one of {TASK_KINDS}"
        if s.kind == "logreg-csv":
            if not s.csv_path:
                yield "task.csv_path: required for logreg-csv"
            elif not os.path.exists(s.csv_path):
                yield f"task.csv_path: file not found: {s.csv_path}"
        if s.n_points < 1:
            yield f"task.n_points: must be >= 1, got {s.n_points}"
        if s.dim < 1:
            yield f"task.dim: must be >= 1, got {s.dim}"
        if s.prior_var <= 0:
            yield "task.prior_var: must be > 0"
        if s.noise_std < 0:
            yield f"task.noise_std: must be >= 0, got {s.noise_std}"
        if s.holdout < 1:
            yield f"task.holdout: must be >= 1, got {s.holdout}"
        if s.per_agent is not None and s.per_agent < 1:
            yield "task.per_agent: must be >= 1 when set"
        if s.beta_true is not None and len(s.beta_true) != s.dim:
            yield f"task.beta_true: {len(s.beta_true)} values for dim {s.dim}"
    elif section == "network":
        if s.topology not in TOPOLOGY_KINDS:
            yield (f"network.topology: {s.topology!r} not one of "
                   f"{TOPOLOGY_KINDS}")
        if s.n < 2:
            yield f"network.n: must be >= 2, got {s.n}"
        if s.delta is not None and s.delta <= 0:
            yield "network.delta: must be > 0 when set"
        if s.topology == "custom":
            if not s.adjacency:
                yield "network.adjacency: required for custom topology"
            elif not os.path.exists(s.adjacency):
                yield f"network.adjacency: file not found: {s.adjacency}"
        if not (0.0 < s.h <= 0.5):
            yield f"network.h: must lie in (0, 1/2], got {s.h}"
    elif section == "run":
        if s.replicas < 1:
            yield f"run.replicas: must be >= 1, got {s.replicas}"
        if s.record_every < 1:
            yield f"run.record_every: must be >= 1, got {s.record_every}"
        if s.threads is not None and s.threads < 1:
            yield "run.threads: must be >= 1 when set"
        if s.seed < 0:
            yield "run.seed: must be >= 0"
    elif section == "compare":
        for algo in s.algorithms:
            if algo not in ALGORITHMS:
                yield f"compare.algorithms: {algo!r} not one of {ALGORITHMS}"
    elif section == "sweep":
        if s.h_min <= 0.0:
            yield f"sweep.h_min: must be > 0, got {s.h_min}"
        if not s.h_min <= s.h_max <= 0.5:
            yield (f"sweep.h_max: must lie in [h_min, 1/2] = "
                   f"[{s.h_min}, 0.5], got {s.h_max}")
        if s.points < 1:
            yield f"sweep.points: must be >= 1, got {s.points}"
    elif section == "theory":
        if s.sigma2 is not None and s.sigma2 < 0:
            yield "theory.sigma2: must be >= 0 when set"
        if s.w2_init is not None and s.w2_init < 0:
            yield "theory.w2_init: must be >= 0 when set"
