"""Config parsing: schema enforcement, typed diagnostics, overrides."""

import dataclasses
import importlib
import pkgutil
import re
import textwrap
from pathlib import Path
from typing import Optional

import pytest

import exlg
from exlg.config import TASK_KINDS, ConfigError, ExperimentConfig, load_config
from exlg.network import TOPOLOGY_KINDS
from exlg.samplers import ALGORITHMS, B_MODES

MINIMAL = """
[task]
kind = linreg

[network]
topology = ring
n = 6
h = 0.3

[sampler]
algorithm = GEN_EXTRA_SGLD
eta = 0.01
steps = 40

[run]
seed = 7
out = /tmp/unused
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


class TestLoading:
    def test_minimal_and_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.task.kind == "linreg"
        assert cfg.task.n_points == 1000
        assert cfg.task.per_agent is None
        assert cfg.network.delta is None
        assert cfg.sampler.temperature == 1.0
        assert cfg.sampler.b_mode == "wtilde-over-eta"
        assert cfg.run.replicas == 1
        assert cfg.run.record_every == 1
        assert not cfg.run.allow_assumption_violations
        assert cfg.sweep.h_min == 0.001
        assert cfg.sweep.h_max == 0.5
        assert cfg.sweep.points == 5
        assert not cfg.theory.shrink

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "nope.cfg"))

    def test_line_without_equals_exits_2(self, tmp_path, capsys):
        from exlg.cli import main

        path = write_cfg(tmp_path, MINIMAL.replace("n = 6", "n = 6\nsix"))
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config parse error: ")
        assert "]: 'six\\n'" in err
        assert "Traceback" not in err

    def test_unknown_section(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[plotting]\nstyle = ggplot\n")
        with pytest.raises(ConfigError, match="plotting: unknown section"):
            load_config(path)

    def test_unknown_key_names_section_and_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "\n[sweep]\nh_mid = 0.2\n")
        with pytest.raises(ConfigError, match="sweep.h_mid: unknown key"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        text = MINIMAL.replace("eta = 0.01\n", "")
        with pytest.raises(ConfigError, match="sampler.eta: required key"):
            load_config(write_cfg(tmp_path, text))

    def test_bad_int_diagnostic(self, tmp_path):
        text = MINIMAL.replace("n = 6", "n = six")
        with pytest.raises(ConfigError, match="network.n"):
            load_config(write_cfg(tmp_path, text))

    def test_unparseable_required_key_reported_once(self, tmp_path):
        # the key is present: one parse error, no "required key missing",
        # and the section is not built, so h = 0.7 draws no domain line
        text = MINIMAL.replace("n = 6", "n = six").replace("h = 0.3",
                                                           "h = 0.7")
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, text))
        assert str(err.value).splitlines() == [
            "invalid config:",
            "  network.n: invalid literal for int() with base 10: 'six'"]

    def test_bad_bool_diagnostic(self, tmp_path):
        text = MINIMAL + "\n[theory]\nshrink = maybe\n"
        with pytest.raises(ConfigError, match="theory.shrink"):
            load_config(write_cfg(tmp_path, text))

    def test_all_problems_reported_together(self, tmp_path):
        # a missing key, an unparseable value, an unknown section and
        # domain problems of the sections that could be built
        text = (MINIMAL.replace("seed = 7\n", "")
                .replace("eta = 0.01", "eta = 0")
                .replace("steps = 40", "steps = 40\nb_mode = fancy")
                .replace("n = 6", "n = six")
                .replace("kind = linreg", "kind = linreg\ndim = 0")
                + "\n[plotting]\nx = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, text))
        msg = str(err.value)
        assert "sampler.eta" in msg
        assert "network.n" in msg
        assert "plotting" in msg
        assert "run.seed: required key missing" in msg
        assert "sampler.eta: must be > 0, got 0.0" in msg
        assert "sampler.b_mode: 'fancy' not one of" in msg
        assert "task.dim: must be >= 1, got 0" in msg

    def test_two_bad_sampler_fields_both_named(self, tmp_path):
        text = MINIMAL.replace("steps = 40",
                               "steps = -1\ntemperature = 0.5")
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, text))
        assert str(err.value).splitlines()[1:] == [
            "  sampler.steps: must be >= 0, got -1",
            "  sampler.temperature: must be 0 or 1, got 0.5"]

    def test_empty_value_means_unset(self, tmp_path):
        # a blank delta must fall back to the default, not parse as 0
        text = MINIMAL.replace("h = 0.3", "h = 0.3\ndelta =")
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.network.delta is None

    def test_float_list(self, tmp_path):
        text = MINIMAL.replace("kind = linreg",
                               "kind = linreg\nbeta_true = 1.0, -0.5")
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.task.beta_true == (1.0, -0.5)

    def test_string_list(self, tmp_path):
        text = MINIMAL + "\n[compare]\nalgorithms = DE_SGLD, GEN_EXTRA_SGLD\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.compare.algorithms == ("DE_SGLD", "GEN_EXTRA_SGLD")

    def test_case_sensitive_keys(self, tmp_path):
        text = MINIMAL.replace("seed = 7", "Seed = 7\nseed = 7")
        with pytest.raises(ConfigError, match="run.Seed: unknown key"):
            load_config(write_cfg(tmp_path, text))


class TestOverrides:
    def test_override_applied(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL)
        cfg = load_config(path, {"run.seed": 99, "run.out": "/tmp/elsewhere"})
        assert cfg.run.seed == 99
        assert cfg.run.out == "/tmp/elsewhere"

    def test_none_override_skipped(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL),
                          {"run.seed": None, "run.replicas": 4})
        assert cfg.run.seed == 7
        assert cfg.run.replicas == 4

    def test_override_satisfies_required(self, tmp_path):
        text = MINIMAL.replace("out = /tmp/unused\n", "")
        with pytest.raises(ConfigError, match="run.out"):
            load_config(write_cfg(tmp_path, text))
        cfg = load_config(write_cfg(tmp_path, text), {"run.out": "/tmp/o"})
        assert cfg.run.out == "/tmp/o"


class TestSemantics:
    def check(self, tmp_path, text, fragment):
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, text))
        assert fragment in str(err.value)

    def test_bad_kind(self, tmp_path):
        self.check(tmp_path, MINIMAL.replace("kind = linreg", "kind = svm"),
                   "task.kind")

    def test_csv_task_needs_path(self, tmp_path):
        self.check(tmp_path,
                   MINIMAL.replace("kind = linreg", "kind = logreg-csv"),
                   "task.csv_path: required")

    def test_csv_path_must_exist(self, tmp_path):
        text = MINIMAL.replace(
            "kind = linreg", "kind = logreg-csv\ncsv_path = /no/such.csv")
        self.check(tmp_path, text, "file not found")

    def test_beta_true_length(self, tmp_path):
        text = MINIMAL.replace("kind = linreg",
                               "kind = linreg\ndim = 2\nbeta_true = 1 2 3")
        self.check(tmp_path, text, "task.beta_true")

    def test_h_above_half(self, tmp_path):
        self.check(tmp_path, MINIMAL.replace("h = 0.3", "h = 0.7"),
                   "network.h")

    def test_h_zero(self, tmp_path):
        self.check(tmp_path, MINIMAL.replace("h = 0.3", "h = 0.0"),
                   "network.h")

    def test_n_too_small(self, tmp_path):
        self.check(tmp_path, MINIMAL.replace("n = 6", "n = 1"), "network.n")

    def test_custom_topology_needs_adjacency(self, tmp_path):
        self.check(tmp_path,
                   MINIMAL.replace("topology = ring", "topology = custom"),
                   "network.adjacency")

    def test_unknown_algorithm(self, tmp_path):
        self.check(tmp_path,
                   MINIMAL.replace("GEN_EXTRA_SGLD", "HMC"),
                   "sampler.algorithm")

    def test_temperature_not_binary(self, tmp_path):
        text = MINIMAL.replace("steps = 40", "steps = 40\ntemperature = 0.5")
        self.check(tmp_path, text, "sampler.temperature")

    def test_temperature_zero_accepted(self, tmp_path):
        text = MINIMAL.replace("steps = 40", "steps = 40\ntemperature = 0")
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.sampler.temperature == 0.0

    def test_negative_eta(self, tmp_path):
        self.check(tmp_path, MINIMAL.replace("eta = 0.01", "eta = -0.01"),
                   "sampler.eta")

    def test_bad_b_mode(self, tmp_path):
        text = MINIMAL.replace("steps = 40", "steps = 40\nb_mode = fancy")
        self.check(tmp_path, text, "sampler.b_mode")

    def test_replicas_zero(self, tmp_path):
        text = MINIMAL.replace("seed = 7", "seed = 7\nreplicas = 0")
        self.check(tmp_path, text, "run.replicas")

    def test_threads_accepted_but_checked(self, tmp_path):
        text = MINIMAL.replace("seed = 7", "seed = 7\nthreads = 4")
        assert load_config(write_cfg(tmp_path, text)).run.threads == 4
        self.check(tmp_path, text.replace("threads = 4", "threads = 0"),
                   "run.threads")

    def test_compare_membership(self, tmp_path):
        text = MINIMAL + "\n[compare]\nalgorithms = DE_SGLD, HMC\n"
        self.check(tmp_path, text, "compare.algorithms")

    def test_sweep_bounds(self, tmp_path):
        # each problem names the key at fault, and only that one
        for keys, line in [
            ("h_min = 0.4\nh_max = 0.2",
             "sweep.h_max: must lie in [h_min, 1/2] = [0.4, 0.5], got 0.2"),
            ("h_max = 0.9",
             "sweep.h_max: must lie in [h_min, 1/2] = [0.001, 0.5], "
             "got 0.9"),
            ("h_min = 0", "sweep.h_min: must be > 0, got 0.0"),
            ("h_min = -0.1\nh_max = 0.2",
             "sweep.h_min: must be > 0, got -0.1"),
        ]:
            with pytest.raises(ConfigError) as err:
                load_config(write_cfg(tmp_path,
                                      f"{MINIMAL}\n[sweep]\n{keys}\n"))
            assert str(err.value).splitlines()[1:] == [f"  {line}"], keys

    def test_negative_sigma2(self, tmp_path):
        text = MINIMAL + "\n[theory]\nsigma2 = -1.0\n"
        self.check(tmp_path, text, "theory.sigma2")

    def test_negative_w2_init(self, tmp_path):
        text = MINIMAL + "\n[theory]\nw2_init = -1.0\n"
        self.check(tmp_path, text, "theory.w2_init: must be >= 0")

    def test_negative_noise_std(self, tmp_path):
        text = MINIMAL.replace("kind = linreg",
                               "kind = linreg\nnoise_std = -1")
        self.check(tmp_path, text, "task.noise_std: must be >= 0")

    def test_non_finite_values_reported_together(self, tmp_path):
        text = MINIMAL.replace("kind = linreg",
                               "kind = linreg\nprior_var = nan")
        text = text.replace("eta = 0.01", "eta = inf")
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, text))
        assert "task.prior_var: must be finite" in str(err.value)
        assert "sampler.eta: must be finite" in str(err.value)


class TestEcho:
    def test_echo_round_trips_values(self, tmp_path):
        text = MINIMAL + "\n[compare]\nalgorithms = DE_SGLD GEN_EXTRA_SGLD\n"
        cfg = load_config(write_cfg(tmp_path, text))
        echo = cfg.echo()
        assert echo["task"]["kind"] == "linreg"
        assert echo["run"]["seed"] == 7
        # tuples become lists so the manifest serializes as plain JSON
        assert echo["compare"]["algorithms"] == ["DE_SGLD", "GEN_EXTRA_SGLD"]
        assert set(echo) == {"task", "network", "sampler", "run",
                             "compare", "sweep", "theory"}


def test_readme_ini_block_names_the_loader_keys():
    """The README's example config lists every key, section by section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    documented = {}
    for line in block.splitlines():
        if line.startswith("["):
            section = documented.setdefault(line.strip("[]"), [])
        elif line.split(";")[0].strip():
            section.append(line.split("=")[0].strip())
    assert documented == {
        name: [f.name for f in dataclasses.fields(cls)]
        for name, cls in SECTIONS.items()}


# every exlg module that declares __all__
EXPORTING = [name for name in (f"exlg.{m.name}" for m in
                               pkgutil.iter_modules(exlg.__path__))
             if hasattr(importlib.import_module(name), "__all__")]


class TestModule:
    def test_exporting_modules_found(self):
        assert {"exlg.config", "exlg.linalg", "exlg.metrics",
                "exlg.network", "exlg.samplers", "exlg.tasks",
                "exlg.theory"} <= set(EXPORTING)

    @pytest.mark.parametrize("module", EXPORTING)
    def test_all_names_exist(self, module):
        mod = importlib.import_module(module)
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert missing == []


PROBE = {
    "task": {"kind": "linreg", "n_points": "120", "dim": "2",
             "beta_true": "1.0 -0.5"},
    "network": {"topology": "ring", "n": "6", "h": "0.3", "delta": "0.2"},
    "sampler": {"algorithm": "GEN_EXTRA_SGLD", "eta": "0.01", "steps": "5"},
    "run": {"seed": "7", "replicas": "2"},
    "compare": {"algorithms": "DE_SGLD GEN_EXTRA_SGLD"},
    "sweep": {"points": "2"},
    "theory": {"shrink": "true"},
}
# section -> its dataclass, as the loader reads them
SECTIONS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _keys_of(*types):
    """Every "section.key" whose field is annotated with one of ``types``."""
    return [f"{section}.{f.name}" for section, cls in SECTIONS.items()
            for f in dataclasses.fields(cls) if f.type in types]


FLOAT_KEYS = _keys_of(float, Optional[float], Optional[tuple[float, ...]])
NON_FINITE = ("nan", "inf", "-inf")


@pytest.mark.parametrize("value", NON_FINITE + ("-1",))
@pytest.mark.parametrize("skey", FLOAT_KEYS)
def test_float_key_probe_exits_cleanly(tmp_path, capsys, skey, value):
    """Every float key at nan, +-inf and -1, under every command: a clean
    exit code, and a config error for every non-finite value."""
    from exlg.cli import _COMMANDS, main

    section, key = skey.split(".")
    sections = {name: dict(keys) for name, keys in PROBE.items()}
    sections[section][key] = (f"{value} 0.5" if key == "beta_true"
                              else value)
    path = write_cfg(tmp_path, "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    for command in _COMMANDS:
        out = str(tmp_path / command)
        code = main([command, "--config", path, "--out", out])
        assert code in (0, 2, 3, 4), (command, code)
        if value in NON_FINITE:
            assert code == 2, command
            assert f"{skey}: must be finite" in capsys.readouterr().err


LOGREG_PROBE = {**PROBE,
             "task": {"kind": "logreg-synthetic", "n_points": "120",
                      "dim": "2", "beta_true": "1.0 -0.5", "holdout": "40"},
             "sampler": {**PROBE["sampler"], "batch": "4"}}
INT_KEYS = _keys_of(int, Optional[int])


def _probe_cfg(tmp_path, base, overrides):
    """``base`` with {"section.key": value} overrides, written as a
    config."""
    sections = {name: dict(keys) for name, keys in base.items()}
    for skey, value in overrides.items():
        section, key = skey.split(".")
        sections[section][key] = value
    return write_cfg(tmp_path, "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))


@pytest.mark.parametrize("value", ("0", "-1"))
@pytest.mark.parametrize("skey", INT_KEYS)
def test_int_key_probe_exits_cleanly(tmp_path, capsys, skey, value):
    """Every integer key at 0 and -1, under every command, on a minibatch
    logistic task: a clean exit code, and a config error naming the key
    for a holdout set that is empty or negative."""
    from exlg.cli import _COMMANDS, main

    path = _probe_cfg(tmp_path, LOGREG_PROBE, {skey: value})
    for command in _COMMANDS:
        out = str(tmp_path / command)
        code = main([command, "--config", path, "--out", out])
        assert code in (0, 2, 3, 4), (command, code)
        if skey == "task.holdout":
            assert code == 2, command
            assert "task.holdout: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("base, overrides, commands, code, message", [
    # ||B|| = ||W~|| / eta squares past the float range
    (PROBE, {"sampler.eta": "1e-300"}, ("validate", "theory"), 2,
     "sampler.eta: ||B|| = 1e+300 is too large"),
    # ... or is itself inf, at a subnormal eta
    (PROBE, {"sampler.eta": "1e-320"}, ("validate", "theory"), 2,
     "sampler.eta: ||B|| = inf is too large"),
    (PROBE, {"sampler.b_mode": "scaled-identity", "sampler.b_scale": "1e300"},
     ("validate", "theory"), 2,
     "sampler.b_scale: ||B|| = 1e+300 is too large"),
    # the prior curvature 1 / (prior_var N) swamps the data: mu = L
    (PROBE, {"task.prior_var": "1e-300"}, ("validate", "theory"), 2,
     "task.prior_var: 1e-300 leaves the prior curvature alone"),
    # ... or overflows, before a logistic task's Newton solve can fail
    (LOGREG_PROBE, {"task.prior_var": "1e-320"}, ("validate", "theory"), 2,
     "leaves the prior curvature alone, mu = L = inf"),
    # mu = 1 / (prior_var N) underflows every clause limit: no (h, eta)
    # to shrink to
    (LOGREG_PROBE, {"task.prior_var": "1e300"}, ("theory",), 3,
     "could not reach an admissible (h, eta)"),
    # ... or sets an eta limit so small that ||B|| = ||W~|| / eta at its
    # target squares past the float range
    (LOGREG_PROBE, {"task.prior_var": "1e60"}, ("theory",), 3,
     "could not reach an admissible (h, eta)"),
    # 2 points per agent in 5 dimensions leave a flat direction, and a
    # prior curvature of 1 / (6e300) cannot lift it: mu rounds below 0
    (PROBE, {"task.dim": "5", "task.beta_true": "", "task.per_agent": "2",
             "task.prior_var": "1e300"}, ("validate", "theory"), 2,
     "task.prior_var: 1e+300 leaves a flat direction, mu = -"),
    # the logistic Newton solve nears x* with a predicted decrease below
    # the rounding of its objective; a line search on that noise stalled
    (LOGREG_PROBE, {"task.beta_true": "-1 0.5"}, ("validate", "theory"), 0,
     "binding eta clause"),
], ids=["eta-tiny", "eta-subnormal", "b_scale-huge", "prior_var-tiny",
        "prior_var-subnormal", "prior_var-huge", "prior_var-eta-overflow",
        "prior_var-flat", "newton-flat"])
def test_degenerate_theory_inputs_exit_cleanly(tmp_path, capsys, base,
                                               overrides, commands, code,
                                               message):
    from exlg.cli import main

    path = _probe_cfg(tmp_path, base, overrides)
    for command in commands:
        assert main([command, "--config", path, "--out",
                     str(tmp_path / command)]) == code, command
        captured = capsys.readouterr()
        assert message in captured.out + captured.err, command


# the values every key is swept over, and the enum values of the keys
# that have them; int keys do not parse 1e300, so nothing allocates
EDGE_VALUES = ("", "0", "-1", "1e-320", "1e300", "nan", "abc")
ENUM_VALUES = {"task.kind": TASK_KINDS, "network.topology": TOPOLOGY_KINDS,
               "sampler.algorithm": ALGORITHMS, "sampler.b_mode": B_MODES,
               "compare.algorithms": ALGORITHMS,
               **{skey: ("true", "false") for skey in _keys_of(bool)}}
SWEEP_PROBE = {**PROBE, "run": {**PROBE["run"], "out": "out"}}
SWEEP_RUN = {**SWEEP_PROBE, "sampler": {**PROBE["sampler"], "steps": "20"},
             "run": {**SWEEP_PROBE["run"], "replicas": "1"}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e300 overflows
@pytest.mark.parametrize("skey", [f"{section}.{f.name}"
                                  for section, cls in SECTIONS.items()
                                  for f in dataclasses.fields(cls)])
def test_config_domain_sweep_exits_cleanly(tmp_path, monkeypatch, capsys,
                                           skey):
    """Every key at each edge value, a missing path, an existing file and
    each of its enum values: `validate` and `theory` on the probe config
    and `run` on a 1-replica, 20-step one exit 0, 2, 3 or 4, never with a
    traceback."""
    from exlg.cli import main

    monkeypatch.chdir(tmp_path)  # a relative run.out lands here
    missing = str(tmp_path / "missing" / "file")
    existing = tmp_path / "existing"
    existing.write_text("x\n")
    for value in (EDGE_VALUES + (missing, str(existing))
                  + ENUM_VALUES.get(skey, ())):
        if skey == "task.beta_true" and value:
            value += " 0.5"  # dim is 2
        for base, commands in ((SWEEP_PROBE, ("validate", "theory")),
                               (SWEEP_RUN, ("run",))):
            path = _probe_cfg(tmp_path, base, {skey: value})
            for command in commands:
                try:
                    code = main([command, "--config", path])
                except Exception as e:  # the CLI would exit 1
                    code = f"1, {type(e).__name__}: {e}"
                assert code in (0, 2, 3, 4), (command, value, code)
                assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["file", "file/sub", ""])
def test_unusable_out_is_a_config_error(tmp_path, capsys, bad):
    """An out that names a file, goes through one, or is empty: every
    command that writes exits 2 naming run.out."""
    from exlg.cli import main

    (tmp_path / "file").write_text("x\n")
    out = str(tmp_path / bad) if bad else bad
    path = _probe_cfg(tmp_path, PROBE, {})
    for command in ("run", "compare", "sweep-h", "theory", "gen-data"):
        assert main([command, "--config", path, "--out", out]) == 2, command
        assert "config error: run.out: " in capsys.readouterr().err, command


@pytest.mark.parametrize("skey, value, message", [
    ("network.topology", "moebius",
     f"network.topology: 'moebius' not one of {TOPOLOGY_KINDS}"),
    ("network.delta", "-1", "network.delta: must be > 0 when set"),
    ("network.delta", "0", "network.delta: must be > 0 when set"),
], ids=["topology-moebius", "delta-negative", "delta-zero"])
def test_static_network_values_are_config_errors(tmp_path, capsys, skey,
                                                 value, message):
    """An unknown topology or a delta <= 0 exits 2 naming the key under
    every command, also on a centralized (ULA) config, where `run` and
    `gen-data` build no mixing set that could reject it."""
    from exlg.cli import _COMMANDS, main

    ula = {**PROBE, "sampler": {**PROBE["sampler"], "algorithm": "ULA"}}
    path = _probe_cfg(tmp_path, ula, {skey: value})
    for command in _COMMANDS:
        assert main([command, "--config", path, "--out",
                     str(tmp_path / command)]) == 2, command
        assert message in capsys.readouterr().err, command


def test_de_sgld_mode_is_an_unknown_key(tmp_path, capsys):
    """DE-SGLD is ``sampler.algorithm = DE_SGLD``; the old network knob
    that set W~ = W is a config error under every command."""
    from exlg.cli import _COMMANDS, main

    path = _probe_cfg(tmp_path, PROBE, {"network.de_sgld_mode": "false"})
    for command in _COMMANDS:
        assert main([command, "--config", path, "--out",
                     str(tmp_path / command)]) == 2, command
        assert "network.de_sgld_mode: unknown key" in capsys.readouterr().err
