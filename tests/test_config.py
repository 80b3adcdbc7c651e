"""Config parsing: schema enforcement, typed diagnostics, overrides."""

import textwrap

import pytest

from exlg.config import _SCHEMA, ConfigError, load_config

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

    def test_bad_bool_diagnostic(self, tmp_path):
        text = MINIMAL + "\n[theory]\nshrink = maybe\n"
        with pytest.raises(ConfigError, match="theory.shrink"):
            load_config(write_cfg(tmp_path, text))

    def test_all_problems_reported_together(self, tmp_path):
        text = (MINIMAL.replace("eta = 0.01\n", "")
                .replace("n = 6", "n = six")
                + "\n[plotting]\nx = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, text))
        msg = str(err.value)
        assert "sampler.eta" in msg
        assert "network.n" in msg
        assert "plotting" in msg

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

    def test_h_zero_without_de_sgld_mode(self, tmp_path):
        self.check(tmp_path, MINIMAL.replace("h = 0.3", "h = 0.0"),
                   "network.h")

    def test_de_sgld_mode_forces_h_zero(self, tmp_path):
        text = MINIMAL.replace("h = 0.3", "h = 0.3\nde_sgld_mode = true")
        self.check(tmp_path, text, "network.h")
        ok = MINIMAL.replace("h = 0.3", "h = 0.0\nde_sgld_mode = true")
        cfg = load_config(write_cfg(tmp_path, ok))
        assert cfg.network.de_sgld_mode

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
        text = MINIMAL + "\n[sweep]\nh_min = 0.4\nh_max = 0.2\n"
        self.check(tmp_path, text, "sweep")
        text = MINIMAL + "\n[sweep]\nh_max = 0.9\n"
        self.check(tmp_path, text, "sweep")

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


class TestModule:
    def test_all_names_exist(self):
        import exlg.config as config

        missing = [n for n in config.__all__ if not hasattr(config, n)]
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
FLOAT_KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items()
              for key, (kind, _) in keys.items()
              if kind in ("float", "floats")]
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
