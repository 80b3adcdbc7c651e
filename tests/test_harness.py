"""Command-level behavior: exit codes, output files, determinism.

Everything here drives the real commands against small linear-regression
configs (N=6, a few dozen steps) so the whole module stays under a few
seconds.  The determinism checks compare emitted bytes, not parsed
values: that is the actual contract.
"""

import contextlib
import dataclasses
import functools
import json
import logging
import math
import operator
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exlg
from exlg import __version__, cli, harness, tasks, theory
from exlg.cli import main
from exlg.config import ConfigError, load_config
from exlg.harness import (
    EXIT_ASSUMPTION,
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_OK,
    _compare_labels,
    build_mixing,
    build_task,
    cmd_compare,
    cmd_gen_data,
    cmd_run,
    cmd_sweep_h,
    cmd_theory,
    cmd_validate,
    _g17_fields,
    _row_lines,
    _trajectory_chunks,
    write_csv,
)
from exlg.samplers import (
    ALGORITHMS,
    ChainDivergenceError,
    SamplerConfig,
    derive_seed,
    run_ensemble,
)
from exlg.tasks import gen_linreg_data
from exlg.theory import (
    bound_w2_agents,
    bound_w2_mean,
    compute_constants,
    problem_params_from,
    shrink_to_admissible,
)

from oracles import accuracy, consensus_error, estimate_moments, w2_gaussian

BASE = """
[task]
kind = linreg
n_points = 120
dim = 2
beta_true = 1.0 -0.5

[network]
topology = ring
n = 6
h = 0.3
delta = 0.2

[sampler]
algorithm = GEN_EXTRA_SGLD
eta = 0.01
steps = 40

[run]
seed = 7
out = {out}
replicas = 3
record_every = 5
"""


def make_cfg(tmp_path, out_name="out", text=BASE, **edits):
    body = textwrap.dedent(text).format(out=str(tmp_path / out_name))
    for old, new in edits.items():
        assert old in body, old
        body = body.replace(old, new)
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    return str(path)


@pytest.fixture
def nxn_solves(monkeypatch):
    """Counts `np.linalg.eigh` calls by matrix size: the fixture is a
    function of n giving the number of n x n solves made so far."""
    sizes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kw):
        sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return sizes.count


@pytest.mark.parametrize("delta", ["delta = 0.2", ""], ids=["given", "drawn"])
@pytest.mark.parametrize("command", ["run", "compare", "validate"])
def test_each_mixing_matrix_is_solved_once(tmp_path, nxn_solves, command,
                                           delta):
    # L, W and W~ where the set is built (a drawn delta reads the same
    # solve of L), then (I+W)/2 - W~ and U in the assumption checks
    text = BASE + "\n[compare]\nalgorithms = DE_SGLD GEN_EXTRA_SGLD\n"
    path = make_cfg(tmp_path, text=text, **{
        "n = 6": "n = 12", "delta = 0.2": delta, "steps = 40": "steps = 10"})
    assert main([command, "--config", path]) == EXIT_OK
    assert nxn_solves(12) == 5


@pytest.mark.parametrize("command, outs", [
    ("run", [""]), ("compare", [""]), ("theory", [""]),
    ("sweep-h", ["h_0.1", "h_0.3"])])
def test_manifest_records_a_drawn_delta(tmp_path, command, outs):
    text = BASE + ("\n[compare]\nalgorithms = DE_SGLD ULA\n"
                   "[sweep]\nh_min = 0.1\nh_max = 0.3\npoints = 2\n"
                   "[theory]\nshrink = true\n")
    path = make_cfg(tmp_path, text=text, **{"delta = 0.2": "",
                                            "steps = 40": "steps = 5"})
    assert main([command, "--config", path]) == EXIT_OK
    delta = build_mixing(load_config(path)).delta
    assert delta != 0.2
    for sub in outs:
        with open(tmp_path / "out" / sub / "manifest.json") as fh:
            assert json.load(fh)["delta"] == delta


def test_manifest_delta_is_null_without_a_mixing_set(tmp_path):
    path = make_cfg(tmp_path, **{"GEN_EXTRA_SGLD": "ULA"})
    assert main(["run", "--config", path]) == EXIT_OK
    with open(tmp_path / "out" / "manifest.json") as fh:
        assert json.load(fh)["delta"] is None


def read_metrics(path):
    series = {}
    with open(path) as fh:
        header = fh.readline().strip()
        assert header == "k,label,value"
        for line in fh:
            k, label, value = line.strip().split(",")
            series.setdefault(label, []).append((int(k), value))
    return series


class TestCli:
    def test_help_lists_every_command(self, capsys):
        from exlg.cli import _COMMANDS

        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        for name, fn in _COMMANDS.items():
            line = fn.__doc__.splitlines()[0]
            assert re.search(rf"^  {re.escape(name)} +{re.escape(line)}$",
                             out, re.MULTILINE), name

    def test_command_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["theory", "--help"])
        assert exit_.value.code == 0
        assert "--config PATH" in capsys.readouterr().out

    def test_unknown_command_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["thoery", "--config", make_cfg(tmp_path)])
        assert exit_.value.code == 2
        assert "invalid choice: 'thoery'" in capsys.readouterr().err

    def test_options_may_precede_the_command(self, tmp_path):
        path = make_cfg(tmp_path, text=BASE + "\n[theory]\nshrink = true\n")

        def csvs(argv, out):
            assert main(argv) == EXIT_OK
            return {n: (out / n).read_bytes() for n in sorted(os.listdir(out))
                    if n.endswith(".csv")}

        a, b, c = (tmp_path / name for name in "abc")
        usual = csvs(["theory", "--config", path, "--out", str(a)], a)
        assert usual
        assert csvs(["--config", path, "theory", "--out", str(b)], b) == usual
        assert csvs(["--out", str(c), "--config", path, "theory"], c) == usual

    def test_each_call_logs_to_its_own_stderr(self, tmp_path, monkeypatch):
        # no handler of a caller's (pytest's are set aside), so main logs
        # to stderr itself; the first file is closed before the second call
        root = logging.getLogger()
        monkeypatch.setattr(root, "handlers", [])
        monkeypatch.setattr(root, "level", root.level)
        path = make_cfg(tmp_path, text=BASE + "\n[theory]\nshrink = true\n")
        logs = []
        for name in ("first.log", "second.log"):
            with open(tmp_path / name, "w") as fh, \
                    contextlib.redirect_stderr(fh):
                assert main(["theory", "--config", path]) == EXIT_OK
            logs.append((tmp_path / name).read_text().splitlines())
        assert logs[0] and logs[0] == logs[1]
        assert all(re.match(r"^INFO \S", line) for line in logs[0])
        assert root.handlers == [cli._STDERR]

    def test_a_callers_handlers_stay(self, tmp_path, caplog, capsys):
        path = make_cfg(tmp_path, text=BASE + "\n[theory]\nshrink = true\n")
        with caplog.at_level(logging.INFO, logger="exlg"):
            assert main(["theory", "--config", path]) == EXIT_OK
        assert caplog.records
        assert cli._STDERR not in logging.getLogger().handlers
        assert "INFO" not in capsys.readouterr().err


class TestValidate:
    def test_ring_small_h_exits_zero(self, tmp_path, capsys):
        path = make_cfg(tmp_path, **{"h = 0.3": "h = 0.056",
                                     "eta = 0.01": "eta = 0.009"})
        assert main(["validate", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "OK" in out
        assert "stepsize clauses" in out

    @pytest.mark.parametrize("n, h", [("20", "1e-12"), ("50", "3.4e-23")])
    def test_connected_ring_at_tiny_h_passes_null_space(self, tmp_path,
                                                        capsys, n, h):
        # U = h (I - W) shrinks with h; the null-space floor shrinks too
        path = make_cfg(tmp_path, **{"n = 6": f"n = {n}",
                                     "h = 0.3": f"h = {h}"})
        assert main(["validate", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[pass] null-space: dim null(U) = 1," in out

    def test_disconnected_exits_three(self, tmp_path, capsys):
        path = make_cfg(tmp_path,
                        **{"topology = ring": "topology = disconnected"})
        assert main(["validate", "--config", path]) == EXIT_ASSUMPTION
        assert "FAILED" in capsys.readouterr().out

    def test_disconnected_override_exits_zero(self, tmp_path, capsys):
        path = make_cfg(
            tmp_path,
            **{"topology = ring": "topology = disconnected",
               "seed = 7": "seed = 7\nallow_assumption_violations = true"})
        assert main(["validate", "--config", path]) == EXIT_OK
        assert "overridden" in capsys.readouterr().out

    def test_h_out_of_range_is_config_error(self, tmp_path):
        path = make_cfg(tmp_path, **{"h = 0.3": "h = 0.7"})
        assert main(["validate", "--config", path]) == EXIT_CONFIG

    def test_unstable_eta_warns(self, tmp_path, capsys):
        path = make_cfg(tmp_path, **{"eta = 0.01": "eta = 5.0"})
        cmd_validate(load_config(path))
        assert "unstable" in capsys.readouterr().out


class TestRun:
    def test_initial_state_only(self, tmp_path):
        path = make_cfg(tmp_path, **{"steps = 40": "steps = 0",
                                     "replicas = 3": "replicas = 1"})
        assert main(["run", "--config", path]) == EXIT_OK
        out = tmp_path / "out"
        with open(out / "trajectory.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "replica,k,agent,coord_0,coord_1"
        assert len(lines) == 1 + 6  # one record, six agents
        assert all(line.split(",")[1] == "0" for line in lines[1:])
        series = read_metrics(out / "metrics.csv")
        assert [k for k, _ in series["consensus"]] == [0]

    def test_trajectory_schema_and_order(self, tmp_path):
        cfg = load_config(make_cfg(tmp_path))
        assert cmd_run(cfg) == EXIT_OK
        with open(tmp_path / "out" / "trajectory.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "replica,k,agent,coord_0,coord_1"
        ks_expected = list(range(0, 41, 5))
        keys = [tuple(int(c) for c in line.split(",")[:3])
                for line in lines[1:]]
        assert keys == [(r, k, a) for r in range(3)
                        for k in ks_expected for a in range(6)]

    def test_metric_labels_linreg(self, tmp_path):
        cfg = load_config(make_cfg(tmp_path))
        cmd_run(cfg)
        series = read_metrics(tmp_path / "out" / "metrics.csv")
        assert set(series) == {"consensus", "w2_mean", "w2_agents"}
        ks = [k for k, _ in series["w2_mean"]]
        assert ks == list(range(0, 41, 5))

    def test_single_replica_skips_w2(self, tmp_path):
        # sample covariance needs an ensemble; R=1 emits consensus only
        cfg = load_config(make_cfg(tmp_path,
                                   **{"replicas = 3": "replicas = 1"}))
        cmd_run(cfg)
        series = read_metrics(tmp_path / "out" / "metrics.csv")
        assert set(series) == {"consensus"}

    def test_zero_temperature_emits_opt_error(self, tmp_path):
        cfg = load_config(make_cfg(
            tmp_path, **{"steps = 40": "steps = 40\ntemperature = 0"}))
        cmd_run(cfg)
        series = read_metrics(tmp_path / "out" / "metrics.csv")
        assert set(series) == {"consensus", "opt_error"}
        vals = [float(v) for _, v in series["opt_error"]]
        assert vals[-1] < vals[0]

    def test_logreg_accuracy_series(self, tmp_path):
        cfg = load_config(make_cfg(
            tmp_path,
            **{"kind = linreg": "kind = logreg-synthetic\nholdout = 200",
               "n_points = 120": "n_points = 240",
               "beta_true = 1.0 -0.5": "beta_true = 2.0 -1.0",
               "replicas = 3": "replicas = 2"}))
        cmd_run(cfg)
        series = read_metrics(tmp_path / "out" / "metrics.csv")
        assert set(series) == {"consensus", "accuracy"}
        accs = [float(v) for _, v in series["accuracy"]]
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_manifest_contents(self, tmp_path):
        cfg = load_config(make_cfg(tmp_path))
        cmd_run(cfg)
        with open(tmp_path / "out" / "manifest.json") as fh:
            man = json.load(fh)
        assert man["command"] == "run"
        assert man["version"] == __version__
        assert man["master_seed"] == 7
        assert man["config"]["network"]["h"] == 0.3
        assert man["replica_seeds"] == [derive_seed(7, "replica", r)
                                        for r in range(3)]
        for name, meta in man["files"].items():
            with open(tmp_path / "out" / name) as fh:
                assert meta["rows"] == len(fh.read().splitlines()) - 1
        assert man["wall_clock_s"] >= 0

    def test_plateau_file(self, tmp_path):
        cfg = load_config(make_cfg(tmp_path))
        cmd_run(cfg)
        with open(tmp_path / "out" / "plateau.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "algorithm,label,plateau"
        labels = {line.split(",")[1] for line in lines[1:]}
        assert labels == {"consensus", "w2_mean", "w2_agents"}
        assert all(line.startswith("GEN_EXTRA_SGLD,") for line in lines[1:])

    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = load_config(make_cfg(tmp_path))
        cmd_run(cfg)
        names = os.listdir(tmp_path / "out")
        assert not [n for n in names if n.startswith(".tmp-")]


class TestDeterminism:
    def _run(self, tmp_path, out_name, extra):
        cfg = load_config(make_cfg(tmp_path, out_name=out_name, **extra))
        cmd_run(cfg)
        out = {}
        for name in ("trajectory.csv", "metrics.csv", "plateau.csv"):
            with open(tmp_path / out_name / name, "rb") as fh:
                out[name] = fh.read()
        return out

    def test_threads_do_not_change_bytes(self, tmp_path):
        a = self._run(tmp_path, "out1",
                      {"seed = 7": "seed = 7\nthreads = 1"})
        b = self._run(tmp_path, "out2",
                      {"seed = 7": "seed = 7\nthreads = 3"})
        assert a == b

    def test_rerun_is_byte_identical(self, tmp_path):
        a = self._run(tmp_path, "out1", {})
        b = self._run(tmp_path, "out2", {})
        assert a == b

    def test_blas_threads_do_not_change_bytes(self, tmp_path):
        # run and theory (whose shrink loop is eigensolve-bound) in fresh
        # interpreters, since BLAS reads its thread count at load time
        src = os.path.dirname(os.path.dirname(os.path.abspath(exlg.__file__)))
        pythonpath = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))

        def outputs(command, text, edits, threads, out_name):
            path = make_cfg(tmp_path, out_name=out_name, text=text, **edits)
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from exlg.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 command, "--config", path],
                env=env, capture_output=True, text=True)
            assert proc.returncode == EXIT_OK, proc.stderr
            out = tmp_path / out_name
            return {n: (out / n).read_bytes() for n in sorted(os.listdir(out))
                    if n.endswith(".csv")}

        for command, text, edits in (
                ("theory", BASE + "\n[theory]\nshrink = true\n",
                 {"n = 6": "n = 30", "n_points = 120": "n_points = 600"}),
                ("run", BASE, {})):
            one = outputs(command, text, edits, "1", f"{command}1")
            assert one
            assert outputs(command, text, edits, "2", f"{command}2") == one
            assert outputs(command, text, edits, "1", f"{command}1b") == one

    def test_seed_changes_trajectories(self, tmp_path):
        a = self._run(tmp_path, "out1", {})
        b = self._run(tmp_path, "out2", {"seed = 7": "seed = 8"})
        assert a["trajectory.csv"] != b["trajectory.csv"]


class TestCompare:
    def test_needs_two_algorithms(self, tmp_path):
        text = BASE + "\n[compare]\nalgorithms = DE_SGLD\n"
        cfg = load_config(make_cfg(tmp_path, text=text))
        with pytest.raises(ConfigError, match="at least 2"):
            cmd_compare(cfg)

    def test_identical_algorithm_twice_identical_series(self, tmp_path):
        text = BASE + "\n[compare]\nalgorithms = DE_SGLD DE_SGLD\n"
        cfg = load_config(make_cfg(tmp_path, text=text))
        assert cmd_compare(cfg) == EXIT_OK
        series = read_metrics(tmp_path / "out" / "metrics.csv")
        for label in ("consensus", "w2_mean", "w2_agents"):
            assert series[f"DE_SGLD:{label}"] == series[f"DE_SGLD.2:{label}"]

    def test_distinct_algorithms_distinct_seeds(self, tmp_path):
        text = BASE + "\n[compare]\nalgorithms = DE_SGLD GEN_EXTRA_SGLD\n"
        cfg = load_config(make_cfg(tmp_path, text=text))
        cmd_compare(cfg)
        with open(tmp_path / "out" / "manifest.json") as fh:
            man = json.load(fh)
        seeds = man["replica_seeds"]
        assert seeds["DE_SGLD"] == [derive_seed(7, "DE_SGLD", r)
                                    for r in range(3)]
        assert seeds["DE_SGLD"] != seeds["GEN_EXTRA_SGLD"]
        with open(tmp_path / "out" / "plateau.csv") as fh:
            lines = fh.read().splitlines()[1:]
        algos = {line.split(",")[0] for line in lines}
        assert algos == {"DE_SGLD", "GEN_EXTRA_SGLD"}

    def test_label_disambiguation(self):
        labels = _compare_labels(["A", "B", "A", "A"])
        assert labels == ["A", "B", "A.2", "A.3"]


class TestSweep:
    def test_single_point_matches_run(self, tmp_path):
        text = BASE + "\n[sweep]\nh_min = 0.3\nh_max = 0.3\npoints = 1\n"
        cfg = load_config(make_cfg(tmp_path, out_name="sweep", text=text))
        assert cmd_sweep_h(cfg) == EXIT_OK
        run_cfg = load_config(make_cfg(tmp_path, out_name="plain"))
        cmd_run(run_cfg)
        for name in ("trajectory.csv", "metrics.csv", "plateau.csv"):
            with open(tmp_path / "sweep" / "h_0.3" / name, "rb") as fh:
                swept = fh.read()
            with open(tmp_path / "plain" / name, "rb") as fh:
                assert swept == fh.read(), name

    def test_summary_marks_single_argmin(self, tmp_path):
        text = BASE + "\n[sweep]\nh_min = 0.1\nh_max = 0.5\npoints = 3\n"
        cfg = load_config(make_cfg(tmp_path, out_name="sweep", text=text,
                                   **{"steps = 40": "steps = 20"}))
        cmd_sweep_h(cfg)
        with open(tmp_path / "sweep" / "sweep_summary.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "h,label,plateau,is_argmin"
        marked = {line.split(",")[0] for line in lines[1:]
                  if line.endswith("true")}
        assert len(marked) == 1
        with open(tmp_path / "sweep" / "manifest.json") as fh:
            man = json.load(fh)
        assert man["h_grid"] == pytest.approx([0.1, 0.3, 0.5])
        assert {f"{man['best_h']:.17g}"} == marked

    def test_summary_rows_are_the_plateau_rows(self, tmp_path):
        text = BASE + "\n[sweep]\nh_min = 0.1\nh_max = 0.5\npoints = 3\n"
        cfg = load_config(make_cfg(tmp_path, out_name="sweep", text=text,
                                   **{"steps = 40": "steps = 20"}))
        cmd_sweep_h(cfg)
        with open(tmp_path / "sweep" / "sweep_summary.csv") as fh:
            summary = [line.split(",") for line in fh.read().splitlines()[1:]]
        by_h = {}
        for h, label, value, _mark in summary:
            by_h.setdefault(h, []).append([label, value])
        assert len(by_h) == 3
        for h, rows in by_h.items():
            sub = tmp_path / "sweep" / f"h_{float(h):.6g}" / "plateau.csv"
            with open(sub) as fh:
                plateau_rows = [line.split(",")[1:]
                                for line in fh.read().splitlines()[1:]]
            assert rows == plateau_rows

    def test_task_is_built_once_per_sweep(self, tmp_path, monkeypatch,
                                          caplog):
        # 6 agents x 10 points of 120 rows: the partition drops 60
        built = []

        def spy(cfg):
            built.append(cfg)
            return build_task(cfg)

        monkeypatch.setattr(harness, "build_task", spy)
        text = BASE + "\n[sweep]\nh_min = 0.1\nh_max = 0.3\npoints = 3\n"
        cfg = load_config(make_cfg(tmp_path, out_name="sweep", text=text,
                                   **{"dim = 2": "dim = 2\nper_agent = 10",
                                      "steps = 40": "steps = 10"}))
        with caplog.at_level(logging.WARNING, logger="exlg"):
            assert cmd_sweep_h(cfg) == EXIT_OK
        assert len(built) == 1
        drops = [r for r in caplog.records
                 if r.getMessage().startswith("partition drops 60 of 120")]
        assert len(drops) == 1
        for h in ("0.1", "0.2", "0.3"):
            assert (tmp_path / "sweep" / f"h_{h}" / "manifest.json").exists()

    @pytest.mark.parametrize("delta", ["delta = 0.2", ""],
                             ids=["given", "drawn"])
    def test_points_move_one_built_set(self, tmp_path, monkeypatch,
                                       nxn_solves, delta):
        # L and W once, then W~, (I+W)/2 - W~ and U at each of 9 points;
        # each point's set has the bits of a set built at its h
        checked = []
        real = harness.check_assumptions

        def spy(ms, cfg):
            checked.append(ms)
            return real(ms, cfg)

        monkeypatch.setattr(harness, "check_assumptions", spy)
        text = BASE + "\n[sweep]\nh_min = 0.05\nh_max = 0.45\npoints = 9\n"
        cfg = load_config(make_cfg(tmp_path, out_name="sweep", text=text, **{
            "n = 6": "n = 12", "delta = 0.2": delta,
            "steps = 40": "steps = 10"}))
        assert cmd_sweep_h(cfg) == EXIT_OK
        assert nxn_solves(12) == 2 + 3 * 9
        assert [ms.h for ms in checked] == list(np.linspace(0.05, 0.45, 9))
        for ms in checked:
            fresh = build_mixing(dataclasses.replace(
                cfg, network=dataclasses.replace(cfg.network, h=ms.h)))
            for field in ("w", "w_tilde", "u", "w_eigs", "wt_eigs"):
                assert np.array_equal(getattr(ms, field),
                                      getattr(fresh, field)), field
            assert (ms.delta, ms.spectral) == (fresh.delta, fresh.spectral)

    def test_divergence_partway_keeps_finished_points(self, tmp_path,
                                                      monkeypatch, capsys):
        calls = []

        def diverge_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ChainDivergenceError(
                    "GEN_EXTRA_SGLD diverged at iteration 3, agent 0",
                    algorithm="GEN_EXTRA_SGLD", replica=0, k=3, agent=0,
                    value=1e13)
            return run_ensemble(*args, **kwargs)

        monkeypatch.setattr(harness, "run_ensemble", diverge_second)
        text = BASE + "\n[sweep]\nh_min = 0.1\nh_max = 0.3\npoints = 3\n"
        path = make_cfg(tmp_path, out_name="sweep", text=text,
                        **{"steps = 40": "steps = 10"})
        assert main(["sweep-h", "--config", path]) == EXIT_DIVERGENCE
        assert "divergence: replica 0:" in capsys.readouterr().err
        assert len(calls) == 2
        sweep = tmp_path / "sweep"
        assert sorted(os.listdir(sweep / "h_0.1")) == [
            "manifest.json", "metrics.csv", "plateau.csv", "trajectory.csv"]
        assert os.listdir(sweep / "h_0.2") == []
        assert sorted(os.listdir(sweep)) == ["h_0.1", "h_0.2"]

    def test_grid_sharing_a_directory_is_a_config_error(self, tmp_path,
                                                        capsys):
        # all three points print as h_0.1, so two runs would be lost
        text = BASE + ("\n[sweep]\nh_min = 0.1\nh_max = 0.1000001\n"
                       "points = 3\n")
        path = make_cfg(tmp_path, out_name="sweep", text=text)
        with pytest.raises(ConfigError, match=r"^sweep\.points: 3 points .* "
                                              r"only 1 distinct run dir"):
            cmd_sweep_h(load_config(path))
        assert not (tmp_path / "sweep").exists()
        assert main(["sweep-h", "--config", path]) == EXIT_CONFIG
        assert "config error: sweep.points" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


class TestTheoryCmd:
    def test_inadmissible_exit_names_binding_clause(self, tmp_path, capsys):
        cfg = load_config(make_cfg(tmp_path))
        assert cmd_theory(cfg) == EXIT_ASSUMPTION
        out = capsys.readouterr().out
        assert "inadmissible (h, eta)" in out
        assert "binding eta clause" in out

    def test_shrink_produces_files(self, tmp_path, capsys):
        text = BASE + "\n[theory]\nshrink = true\n"
        cfg = load_config(make_cfg(tmp_path, text=text,
                                   **{"n = 6": "n = 4"}))
        assert cmd_theory(cfg) == EXIT_OK
        assert "admissible pair" in capsys.readouterr().out
        out = tmp_path / "out"
        with open(out / "theory_constants.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "name,value"
        assert len(lines) == 1 + 22
        with open(out / "manifest.json") as fh:
            man = json.load(fh)
        assert 0 < man["h_used"] < 0.3
        assert 0 < man["eta_used"] <= 0.01
        assert man["K0"] == 0  # zero-init transients

    @pytest.mark.parametrize("steps", [40, 10**9], ids=["short", "long"])
    def test_prints_relaxation_time(self, tmp_path, capsys, steps):
        # 1/(mu*eta*(1 - eta*L/2)) at the shrunk pair, after its report;
        # a run shorter than that gets a note
        text = BASE + "\n[theory]\nshrink = true\n"
        cfg = load_config(make_cfg(tmp_path, text=text, **{
            "n = 6": "n = 4", "steps = 40": f"steps = {steps}",
            "record_every = 5": f"record_every = {steps}"}))
        assert cmd_theory(cfg) == EXIT_OK
        p, _ = shrink_to_admissible(problem_params_from(
            build_task(cfg)[0], build_mixing(cfg), cfg.sampler),
            build_mixing(cfg), cfg.sampler)
        tau = 1.0 / (p.mu * p.eta * (1.0 - p.eta * p.L / 2))
        assert 40 < tau < 10**9
        note = (f"; note: sampler.steps = 40 covers {40 / tau:.2%} of it"
                if steps == 40 else "")
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (f"relaxation time 1/(mu*eta*(1 - eta*L/2)) = "
                        f"{tau:.6g} steps{note}")

    def test_bounds_match_direct_evaluation(self, tmp_path):
        text = BASE + "\n[theory]\nshrink = true\n"
        cfg = load_config(make_cfg(tmp_path, text=text,
                                   **{"n = 6": "n = 4"}))
        cmd_theory(cfg)
        task, _ = build_task(cfg)
        ms = build_mixing(cfg)
        p, _ = shrink_to_admissible(
            problem_params_from(task, ms, cfg.sampler), ms,
            cfg.sampler)
        tc = compute_constants(p)

        got = {}
        with open(tmp_path / "out" / "theory_bounds.csv") as fh:
            assert fh.readline().strip() == "k,label,value"
            for line in fh:
                k, label, value = line.strip().split(",")
                got[(int(k), label)] = float(value)
        ks = sorted({k for k, _ in got})
        assert ks == sorted(set(range(0, 41, 5)))
        for k in ks:
            assert got[(k, "bound_w2_mean")] == bound_w2_mean(p, tc, k)
            assert got[(k, "bound_w2_agents")] == bound_w2_agents(p, tc, k)
        mean_curve = [got[(k, "bound_w2_mean")] for k in ks]
        assert all(b <= a for a, b in zip(mean_curve, mean_curve[1:]))

    def test_shrink_keeps_configured_w2_init(self, tmp_path):
        # shrinking moves only (h, eta): a configured w2_init reaches the
        # bounds instead of the task's own point-mass distance
        text = BASE + "\n[theory]\nshrink = true\n"

        def bounds(out, extra=""):
            path = make_cfg(tmp_path, out_name=out, text=text + extra,
                            **{"n = 6": "n = 4"})
            assert main(["theory", "--config", path]) == EXIT_OK
            lines = (tmp_path / out / "theory_bounds.csv").read_text()
            rows = {}
            for line in lines.splitlines()[1:]:
                k, label, value = line.split(",")
                rows[(int(k), label)] = float(value)
            return path, rows

        _, unset = bounds("unset")
        path, five = bounds("five", "w2_init = 5\n")
        cfg = load_config(path)
        ms = build_mixing(cfg)
        p, _ = shrink_to_admissible(
            problem_params_from(build_task(cfg)[0], ms, cfg.sampler,
                                w2_init=5.0), ms, cfg.sampler)
        assert p.w2_init == 5.0
        tc = compute_constants(p)
        by_label = {"bound_w2_mean": bound_w2_mean,
                    "bound_w2_agents": bound_w2_agents}
        assert five == {(k, label): by_label[label](p, tc, k)
                        for k, label in unset}
        assert all(five[key] != unset[key] for key in unset)

    def test_shrink_reads_task_inputs_once(self, tmp_path, monkeypatch):
        # mu, L, x* and the bundle do not depend on (h, eta), so a
        # theory command derives each once however many shrink
        # iterations it runs; with a minibatch the closed-form sigma^2
        # reads the same x* (a Newton solve on logreg)
        calls = {}

        def count(name, fn):
            def counted(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return counted

        params = count("problem_params_from", theory.problem_params_from)
        monkeypatch.setattr(theory, "problem_params_from", params)
        monkeypatch.setattr(harness, "problem_params_from", params)
        for cls in (tasks.LinRegTask, tasks.LogRegTask):
            for name in ("mu_L", "minimizer"):
                monkeypatch.setattr(cls, name,
                                    count(name, getattr(cls, name)))
        text = BASE + "\n[theory]\nshrink = true\n"
        full_batch = {"n = 6": "n = 4"}
        logreg_minibatch = {
            "kind = linreg": "kind = logreg-synthetic\nholdout = 100",
            "n_points = 120": "n_points = 600",
            "steps = 40": "steps = 40\nbatch = 32"}
        for name, edits in (("full", full_batch),
                            ("minibatch", logreg_minibatch)):
            calls.update(dict.fromkeys(
                ("problem_params_from", "mu_L", "minimizer"), 0))
            cfg = load_config(make_cfg(tmp_path, out_name=name, text=text,
                                       **edits))
            assert cmd_theory(cfg) == EXIT_OK
            with open(tmp_path / name / "manifest.json") as fh:
                man = json.load(fh)
            assert man["h_used"] < 0.3  # the loop did run
            assert (man["sigma2"] > 0) == (name == "minibatch")
            assert calls == {"problem_params_from": 1, "mu_L": 1,
                             "minimizer": 1}, name

    def test_sigma2_in_closed_form_when_batch_set(self, tmp_path, capsys):
        text = BASE + "\n[theory]\nshrink = true\n"
        cfg = load_config(make_cfg(
            tmp_path, text=text,
            **{"n = 6": "n = 4", "steps = 40": "steps = 40\nbatch = 4"}))
        assert cmd_theory(cfg) == EXIT_OK
        task, _ = build_task(cfg)
        sigma2 = problem_params_from(task, build_mixing(cfg),
                                     cfg.sampler).sigma2
        assert sigma2 > 0
        assert (f"minibatch gradient noise sigma^2 at x* = {sigma2:.6g}\n"
                in capsys.readouterr().out)
        with open(tmp_path / "out" / "manifest.json") as fh:
            assert json.load(fh)["sigma2"] == sigma2

    def test_explicit_sigma2_skips_estimation(self, tmp_path, capsys):
        text = BASE + "\n[theory]\nshrink = true\nsigma2 = 0.25\n"
        cfg = load_config(make_cfg(
            tmp_path, text=text,
            **{"n = 6": "n = 4", "steps = 40": "steps = 40\nbatch = 4"}))
        assert cmd_theory(cfg) == EXIT_OK
        out = capsys.readouterr().out
        assert "admissible pair" in out
        assert "sigma^2" not in out
        with open(tmp_path / "out" / "manifest.json") as fh:
            assert json.load(fh)["sigma2"] == 0.25

    def test_draws_only_data_holdout_and_delta_streams(self, tmp_path,
                                                       monkeypatch):
        # sigma^2 is exact, so a minibatch theory run seeds no stream of
        # its own
        tags = []
        real = harness.derive_seed

        def spy(master, *parts):
            tags.append(parts[0])
            return real(master, *parts)

        monkeypatch.setattr(harness, "derive_seed", spy)
        cfg = load_config(make_cfg(
            tmp_path, text=BASE + "\n[theory]\nshrink = true\n",
            **{"kind = linreg": "kind = logreg-synthetic\nholdout = 100",
               "n_points = 120": "n_points = 600", "delta = 0.2\n": "",
               "steps = 40": "steps = 40\nbatch = 32"}))
        assert cmd_theory(cfg) == EXIT_OK
        assert sorted(set(tags)) == ["data", "delta", "holdout"]

    @pytest.mark.parametrize("topology, delta", [
        ("ring", "0.25"), ("star", "0.16666666666666666"),
        ("fully-connected", "0.16666666666666666")],
        ids=["ring", "star", "fully-connected"])
    def test_shrink_failure_names_the_notes(self, tmp_path, capsys,
                                            topology, delta):
        # delta = 1/lambda_max(L) puts 0 in W's spectrum, so
        # (1 - gammabar_w)(1 - gammabar_iw^2) = 0 at every h: no clause
        # fails, and the note is the whole cause
        path = make_cfg(tmp_path, text=BASE + "\n[theory]\nshrink = true\n",
                        **{"topology = ring": f"topology = {topology}",
                           "delta = 0.2": f"delta = {delta}"})
        assert main(["theory", "--config", path]) == EXIT_ASSUMPTION
        assert capsys.readouterr().err.splitlines()[-1] == (
            "assumption violation: could not reach an admissible (h, eta); "
            "failing clauses: none; note: (1 - gammabar_w)"
            "(1 - gammabar_iw^2) = 0.0 must be > 0")

    def test_shrink_stops_before_wt_leaves_positive_definite(
            self, tmp_path, capsys, monkeypatch):
        # delta = 1/lambda_max(L) on this graph: lambda_min(W) rounds
        # below 0, so W~ at the h-coupling target h ~ 1e-28 has a
        # negative least eigenvalue; h = 0.3 passes every check
        adj = tmp_path / "adj.txt"
        adj.write_text("6\n0 0 1 1 1 0\n0 0 0 1 1 1\n1 0 0 1 0 0\n"
                       "1 1 1 0 0 0\n1 1 0 0 0 1\n0 1 0 0 1 0\n")
        moves = []
        real = theory.with_h
        monkeypatch.setattr(theory, "with_h",
                            lambda ms, h: moves.append(h) or real(ms, h))
        path = make_cfg(tmp_path, text=BASE + "\n[theory]\nshrink = true\n",
                        **{"topology = ring":
                           f"topology = custom\nadjacency = {adj}"})
        cfg = load_config(path)
        ms = build_mixing(cfg)
        assert harness.validate_assumptions(ms).ok
        assert ms.w_eigs[0] < 0.0
        assert main(["theory", "--config", path]) == EXIT_ASSUMPTION
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(
            "assumption violation: could not reach an admissible (h, eta): "
            "the binding h clause h-coupling (max h = ")
        assert f"sets h = {moves[-1]:.9g}, where min eig(W~) = -" in err
        assert err.endswith(" is not > 0")
        assert len(moves) == 1  # it stops at the first such set


    def test_shrunk_mixing_set_is_checked(self, tmp_path, monkeypatch,
                                          capsys):
        # the set shrink returns is validated like the configured one, and
        # a failing check there is an assumption violation (exit 3)
        seen = []
        real = harness.validate_assumptions

        def spy(ms):
            seen.append(ms.h)
            return real(ms)

        monkeypatch.setattr(harness, "validate_assumptions", spy)
        text = BASE + "\n[theory]\nshrink = true\n"
        path = make_cfg(tmp_path, text=text, **{"n = 6": "n = 4"})
        assert main(["theory", "--config", path]) == EXIT_OK
        with open(tmp_path / "out" / "manifest.json") as fh:
            h_used = json.load(fh)["h_used"]
        assert seen == [0.3, h_used] and h_used < 0.3

        def fail_second(ms):
            seen.append(ms.h)
            report = real(ms)
            if len(seen) == 1:
                return report
            bad = dataclasses.replace(report.checks[0], passed=False)
            return dataclasses.replace(report,
                                       checks=(bad,) + report.checks[1:])

        seen.clear()
        capsys.readouterr()
        monkeypatch.setattr(harness, "validate_assumptions", fail_second)
        assert main(["theory", "--config", path]) == EXIT_ASSUMPTION
        assert seen == [0.3, h_used]
        err = capsys.readouterr().err
        assert "assumption violation" in err and "doubly-stochastic" in err

    def test_shrink_solves_each_matrix_once(self, tmp_path, capsys,
                                            nxn_solves):
        # a 50-agent ring: W, W~ and the Laplacian once for the configured
        # set, W~ once per shrink move, and (I+W)/2 - W~ and U in the
        # checks of each of the two sets
        n = 50
        text = BASE + "\n[theory]\nshrink = true\n"
        cfg = load_config(make_cfg(
            tmp_path, text=text,
            **{"n = 6": f"n = {n}", "n_points = 120": "n_points = 500",
               "delta = 0.2": "delta = 0.125", "eta = 0.01": "eta = 0.009"}))
        assert cmd_theory(cfg) == EXIT_OK
        assert "admissible pair: h=" in capsys.readouterr().out
        with open(tmp_path / "out" / "manifest.json") as fh:
            assert json.load(fh)["h_used"] < 0.3  # the loop did run
        assert nxn_solves(n) == 9

    def test_scaled_identity_bound_uses_b_scale(self, tmp_path, capsys):
        # ||B|| = |b_scale| enters gamma2; the chain runs with
        # B = b_scale * I, so the bound must be computed with it too
        text = BASE + "\n[theory]\nshrink = true\n"

        def gamma2(b_scale):
            out = f"out{b_scale}"
            cfg = load_config(make_cfg(
                tmp_path, out_name=out, text=text,
                **{"n = 6": "n = 4",
                   "steps = 40": "steps = 40\nb_mode = scaled-identity\n"
                                 f"b_scale = {b_scale}"}))
            assert cmd_theory(cfg) == EXIT_OK
            rows = dict(line.split(",") for line in
                        (tmp_path / out / "theory_constants.csv")
                        .read_text().splitlines()[1:])
            return cfg, float(rows["gamma2"])

        _, one = gamma2(1)
        cfg, fifty = gamma2(50)
        assert fifty != one
        task, _ = build_task(cfg)
        ms = build_mixing(cfg)
        assert cfg.sampler.b_scale == 50.0
        p, ms = shrink_to_admissible(
            problem_params_from(task, ms, cfg.sampler), ms,
            cfg.sampler)
        assert p.norm_B == 50.0  # ||B|| = |b_scale| whatever (h, eta)
        direct = compute_constants(problem_params_from(
            task, ms, dataclasses.replace(cfg.sampler, eta=p.eta)))
        assert fifty == direct.gamma2

    def test_b_scale_defaults_to_one(self, tmp_path):
        # the chain runs with B = I when b_scale is unset, so the bound
        # must certify ||B|| = 1 too, from the config and from the library
        cfg = load_config(make_cfg(
            tmp_path, **{"steps = 40": "steps = 40\nb_mode = scaled-identity"}))
        assert cfg.sampler.b_scale == 1.0
        task, _ = build_task(cfg)
        ms = build_mixing(cfg)
        p = problem_params_from(task, ms, SamplerConfig(
            "GEN_EXTRA_SGLD", eta=cfg.sampler.eta, steps=40,
            b_mode="scaled-identity"))
        assert p.norm_B == 1.0

    def test_shrink_labels_both_assumption_reports(self, tmp_path, capsys,
                                                   caplog):
        text = BASE + "\n[theory]\nshrink = true\n"
        cfg = load_config(make_cfg(tmp_path, text=text,
                                   **{"n = 6": "n = 4"}))
        with caplog.at_level(logging.INFO, logger="exlg"):
            assert cmd_theory(cfg) == EXIT_OK
        head = "assumption checks of the mixing set at h="
        messages = [r.getMessage() for r in caplog.records]
        hs = [float(m[len(head):-1]) for m in messages if m.startswith(head)]
        with open(tmp_path / "out" / "manifest.json") as fh:
            h_used = json.load(fh)["h_used"]
        assert hs == [0.3, pytest.approx(h_used, rel=1e-5, abs=0)]
        assert h_used < 0.3
        # each header comes right before its report
        for i, m in enumerate(messages):
            if m.startswith(head):
                assert messages[i + 1].startswith("[pass] ")
        assert head not in capsys.readouterr().out


class TestGenData:
    def test_dataset_round_trip(self, tmp_path):
        path = make_cfg(tmp_path)
        assert main(["gen-data", "--config", path]) == EXIT_OK
        out = tmp_path / "out"
        with open(out / "dataset.csv") as fh:
            header = fh.readline().strip()
        assert header == "x_0,x_1,y"
        data = np.genfromtxt(out / "dataset.csv", delimiter=",",
                             skip_header=1)
        assert data.shape == (120, 3)
        # same stream a run would use: beta comes from the config here,
        # so the draws start at the features directly
        rng = np.random.default_rng(derive_seed(7, "data"))
        x, y = gen_linreg_data(120, np.array([1.0, -0.5]), 1.0, rng)
        np.testing.assert_array_equal(data[:, :2], x)
        np.testing.assert_array_equal(data[:, 2], y)
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["beta_true"] == [1.0, -0.5]

    @pytest.mark.parametrize("edits", [
        {},
        {"beta_true = 1.0 -0.5": ""},
        {"kind = linreg": "kind = logreg-synthetic\nholdout = 50"},
    ], ids=["linreg", "linreg-drawn-beta", "logreg-synthetic"])
    def test_dataset_rows_are_the_shard_rows(self, tmp_path, edits):
        # 120 points over 6 agents: the shards hold every row exactly once
        path = make_cfg(tmp_path, **edits)
        assert main(["gen-data", "--config", path]) == EXIT_OK
        data = np.genfromtxt(tmp_path / "out" / "dataset.csv",
                             delimiter=",", skip_header=1)
        task, _ = build_task(load_config(path))
        shards = np.vstack([np.column_stack([x, y])
                            for x, y in zip(task.xs, task.ys)])

        def multiset(rows):
            return rows[np.lexsort(rows.T[::-1])]

        np.testing.assert_array_equal(multiset(data), multiset(shards))

    def test_rejects_csv_task(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,y\n1,2,0\n3,4,1\n")
        cfg = load_config(make_cfg(
            tmp_path,
            **{"kind = linreg":
               f"kind = logreg-csv\ncsv_path = {csv}\nlabel_col = y"}))
        with pytest.raises(ConfigError, match="synthetic"):
            cmd_gen_data(cfg)


def _csv_body(rows=40):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((rows, 2))
    return "".join(f"{a:.17g},{b:.17g},{int(a + b > 0)}\n" for a, b in x)


# Each data file a logreg-csv config can name, with the key its error names
_BAD_CSV = {
    "header-only": ("a,b,y\n", "y", "task.csv_path"),
    "short-row": ("a,b,y\n" + _csv_body() + "1,2\n", "y", "task.csv_path"),
    "non-numeric-feature": ("a,b,y\n" + _csv_body() + "1,x,0\n", "y",
                            "task.csv_path"),
    "label-3": ("a,b,y\n" + _csv_body() + "1,2,3\n", "y", "task.label_col"),
    "label-0.5": ("a,b,y\n" + _csv_body() + "1,2,0.5\n", "y",
                  "task.label_col"),
    "label--1": ("a,b,y\n" + _csv_body() + "1,2,-1\n", "y",
                 "task.label_col"),
    "no-such-column": ("a,b,y\n" + _csv_body(), "z", "task.label_col"),
    "label-position-7": ("a,b,y\n" + _csv_body(), "7", "task.label_col"),
    # not a signed ASCII integer, so a column name that is not there
    "label-name--1": ("a,b,y\n" + _csv_body(), "--1", "task.label_col"),
    "label-name-+-1": ("a,b,y\n" + _csv_body(), "+-1", "task.label_col"),
    "label-name-superscript-2": ("a,b,y\n" + _csv_body(), "\u00b2",
                                 "task.label_col"),
    "binary": (bytes(range(256)) * 4, "y", "task.csv_path"),
    "directory": (None, "y", "task.csv_path"),
    "nan-cell": ("a,b,y\n" + _csv_body() + "nan,2,0\n", "y",
                 "task.csv_path"),
    "inf-cell": ("a,b,y\n" + _csv_body() + "1,inf,1\n", "y",
                 "task.csv_path"),
    "1e400-cell": ("a,b,y\n" + _csv_body() + "1e400,2,0\n", "y",
                   "task.csv_path"),
}


def _write_input(path, content):
    """A directory for None, else the bytes or text ``content``."""
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def _csv_cfg(tmp_path, content, label):
    path = tmp_path / "data.csv"
    _write_input(path, content)
    return make_cfg(tmp_path, **{
        "kind = linreg": f"kind = logreg-csv\ncsv_path = {path}\n"
                         f"label_col = {label}\nholdout = 5",
        "n = 6": "n = 4"})


class TestCsvDataErrors:
    """A data file is config input: every fault in it exits 2 and names
    the key to fix, under each command that reads it."""

    @pytest.mark.parametrize("command", ["run", "validate", "theory"])
    @pytest.mark.parametrize("case", sorted(_BAD_CSV))
    def test_bad_file_exits_2_naming_the_key(self, tmp_path, capsys,
                                             command, case):
        content, label, key = _BAD_CSV[case]
        path = _csv_cfg(tmp_path, content, label)
        assert main([command, "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err
        assert "Traceback" not in err

    def test_good_file_passes(self, tmp_path, capsys):
        path = _csv_cfg(tmp_path, "a,b,y\n" + _csv_body(), "y")
        assert main(["validate", "--config", path]) == EXIT_OK
        assert capsys.readouterr().out.rstrip().endswith("OK")


# Each adjacency file a custom topology of n = 4 can name, with the text
# its error carries
_BAD_ADJACENCY = {
    "directory": (None, "Is a directory"),
    "binary": (bytes(range(256)) * 4, "adj.txt: not a text file"),
    "ragged": ("4\n0 1 0 1\n1 0 1\n0 1 0 1\n1 0 1 0\n",
               "row 2 of 4 has 3 entries"),
    "bad-count": ("3\n0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n",
                  "expected 3 rows after the count, got 4"),
    "non-numeric": ("4\n0 1 0 1\n1 0 x 0\n0 1 0 1\n1 0 1 0\n",
                    "adj.txt: row 2: could not convert string to float: 'x'"),
    "empty": ("\n\n", "adj.txt is empty"),
    "count-not-int": ("four\n0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n",
                      "adj.txt: first line must be the agent count, got "
                      "'four'"),
    "node-count": ("3\n0 1 1\n1 0 1\n1 1 0\n",
                   "adj.txt has 3 nodes, network.n is 4"),
}


@pytest.mark.parametrize("command", ["run", "validate", "theory"])
@pytest.mark.parametrize("case", sorted(_BAD_ADJACENCY))
def test_bad_adjacency_file_exits_2_naming_the_key(tmp_path, capsys,
                                                   command, case):
    content, fragment = _BAD_ADJACENCY[case]
    adjacency = tmp_path / "adj.txt"
    _write_input(adjacency, content)
    path = make_cfg(tmp_path, **{
        "topology = ring": f"topology = custom\nadjacency = {adjacency}",
        "n = 6": "n = 4"})
    assert main([command, "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: network.adjacency: " in err
    assert fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "validate", "theory"])
def test_missing_adjacency_file_exits_2_naming_the_key(tmp_path, capsys,
                                                       command):
    path = make_cfg(tmp_path, **{
        "topology = ring": f"topology = custom\nadjacency = "
                           f"{tmp_path / 'absent.txt'}",
        "n = 6": "n = 4"})
    assert main([command, "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"network.adjacency: file not found: {tmp_path}" in err
    assert "Traceback" not in err


@dataclasses.dataclass(frozen=True)
class SpikeOracle:
    """Agent 3's gradient alone leaves the guard ball at once."""

    n_agents: int = 6
    dim: int = 2

    def grad_block(self, x, rows=None):
        return x - 1e16 * (np.arange(self.n_agents) == 3)[:, None]


def test_divergence_names_replica_iteration_and_agent(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(harness, "build_task",
                        lambda cfg: (SpikeOracle(), None))
    path = make_cfg(tmp_path, **{"GEN_EXTRA_SGLD": "DE_SGLD",
                                 "steps = 40": "steps = 5",
                                 "record_every = 5": "record_every = 1"})
    with pytest.raises(ChainDivergenceError,
                       match=r"^DE_SGLD diverged at iteration 1, "
                             r"agent 3: max \|x\| entry") as info:
        cmd_run(load_config(path))
    e = info.value
    assert (e.algorithm, e.replica, e.k, e.agent) == ("DE_SGLD", 0, 1, 3)
    assert e.value == pytest.approx(0.01 * 1e16, rel=1e-9)
    # the CLI prefixes the replica
    assert main(["run", "--config", path]) == EXIT_DIVERGENCE
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (
        "divergence: replica 0: DE_SGLD diverged at iteration 1, agent 3: "
        "max |x| entry = 1.000000e+14 (limit 1.0e+12)")


def _series_per_record(task, xs_all, holdout, temperature):
    """The per-record metric loops that series_for_run replaced: the
    oracle of its array expressions, as (label, values) pairs."""
    n_rec, n_reps = xs_all.shape[0], xs_all.shape[1]
    out = [("consensus", [
        float(np.mean([consensus_error(xs_all[j, r])
                       for r in range(n_reps)]))
        for j in range(n_rec)])]
    if temperature == 0.0:
        xstar = task.minimizer()
        out.append(("opt_error", [
            float(np.mean([
                float(np.max(np.linalg.norm(xs_all[j, r] - xstar, axis=1)))
                for r in range(n_reps)]))
            for j in range(n_rec)]))
        return out
    means = xs_all.mean(axis=2)
    if isinstance(task, tasks.LinRegTask) and n_reps >= 2:
        target = task.target()

        def w2(blocks):
            return [w2_gaussian(estimate_moments(b).as_gaussian(), target)
                    for b in blocks]

        out.append(("w2_mean", w2(means)))
        by_agent = [w2(xs_all[:, :, a, :]) for a in range(xs_all.shape[2])]
        out.append(("w2_agents", [  # each record's agents, in agent order
            functools.reduce(operator.add, col) / len(col)
            for col in zip(*by_agent)]))
    if holdout is not None:
        out.append(("accuracy", [
            float(np.mean([accuracy(means[j, r], *holdout)
                           for r in range(n_reps)]))
            for j in range(n_rec)]))
    return out


class TestSeriesArrays:
    """series_for_run's array expressions equal the per-record loops, and
    scoring one record per chunk gives the bits of the default chunks."""

    def _check(self, tmp_path, monkeypatch, labels, **edits):
        calls, w2_inputs = [], []
        real_series, real_w2 = harness.series_for_run, harness.w2_batch

        def series_spy(*args):
            calls.append((args, real_series(*args)))
            return calls[-1][1]

        def w2_spy(xs, target):
            w2_inputs.append(xs)
            return real_w2(xs, target)

        monkeypatch.setattr(harness, "series_for_run", series_spy)
        monkeypatch.setattr(harness, "w2_batch", w2_spy)
        assert cmd_run(load_config(make_cfg(tmp_path, **edits))) == EXIT_OK
        (args, got), = calls
        want = _series_per_record(*args)
        assert list(got) == labels == [lb for lb, _ in want]
        for (label, values), (_, expect) in zip(got.items(), want):
            assert len(values) == len(args[1])  # one per record
            assert np.array_equal(values, expect), label
        assert len(args[1]) > 1
        monkeypatch.setattr(harness, "_CHUNK_CELLS", 1)  # a record a chunk
        chunked = real_series(*args)
        assert list(chunked) == labels
        for label, values in chunked.items():
            assert np.array_equal(values, got[label]), label
        assert all(xs.flags.c_contiguous for xs in w2_inputs)

    def test_linreg(self, tmp_path, monkeypatch):
        self._check(tmp_path, monkeypatch,
                    ["consensus", "w2_mean", "w2_agents"])

    def test_linreg_many_agents(self, tmp_path, monkeypatch):
        # past 8 agents numpy would sum a one-record (A, 1) stack pairwise
        self._check(tmp_path, monkeypatch,
                    ["consensus", "w2_mean", "w2_agents"],
                    **{"n = 6": "n = 20"})

    def test_logreg(self, tmp_path, monkeypatch):
        self._check(
            tmp_path, monkeypatch, ["consensus", "accuracy"],
            **{"kind = linreg": "kind = logreg-synthetic\nholdout = 200",
               "n_points = 120": "n_points = 240",
               "beta_true = 1.0 -0.5": "beta_true = 2.0 -1.0"})

    def test_zero_temperature(self, tmp_path, monkeypatch):
        self._check(tmp_path, monkeypatch, ["consensus", "opt_error"],
                    **{"steps = 40": "steps = 40\ntemperature = 0"})


@functools.lru_cache(maxsize=None)
def _linreg_task(agents):
    """A 2-D linear-regression task on ``agents`` shards of 4 points."""
    rng = np.random.default_rng(agents)
    x, y = gen_linreg_data(4 * agents, np.array([1.0, -0.5]), 0.5, rng)
    return tasks.LinRegTask(*tasks.partition_data(x, y, agents, rng),
                            prior_var=1.0)


@pytest.mark.parametrize("h", [1, 7, 1000, 4099])
def test_accuracy_count_equals_the_float_mean(h):
    # record 0's replica 0 predicts every holdout label and replica 1 (its
    # negation) none; the rest are random
    rng = np.random.default_rng(h)
    x = rng.standard_normal((h, 3))
    xs = rng.standard_normal((4, 5, 2, 3))
    xs[0, 1] = -xs[0, 0]
    labels = x @ xs[0, 0].mean(axis=0) >= 0.0
    pred = (x @ xs.mean(axis=2)[..., None])[..., 0] >= 0.0
    hits = pred == labels
    assert hits[0, 0].all() and not hits[0, 1].any()
    assert np.array_equal(np.count_nonzero(hits, axis=-1) / h,
                          hits.mean(axis=-1))
    # _score with bool labels, against the float mean of float labels
    got = harness._score(xs, None, None, (x, labels))["accuracy"]
    want = (pred == labels.astype(float)).mean(axis=-1).mean(axis=1)
    assert np.array_equal(got, want)
    assert harness._score(xs[:1, :1], None, None, (x, labels))[
        "accuracy"].tolist() == [1.0]
    assert harness._score(xs[:1, 1:2], None, None, (x, labels))[
        "accuracy"].tolist() == [0.0]


def test_one_record_matches_the_per_record_loops():
    # numpy would sum a one-record (A, 1) column of 20 agents pairwise
    task = _linreg_task(20)
    xs_all = np.random.default_rng(8).standard_normal((1, 6, 20, 2))
    got = harness.series_for_run(task, xs_all, None, 1.0)
    want = _series_per_record(task, xs_all, None, 1.0)
    assert list(got) == [label for label, _ in want]
    for label, expect in want:
        assert np.array_equal(got[label], expect), label


@settings(max_examples=150, deadline=None)
@given(agents=st.integers(1, 24), records=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_runs_first_records_score_as_a_shorter_run(agents, records, seed):
    # a record's values do not depend on how many records its run has
    task = _linreg_task(agents)
    xs_all = np.random.default_rng(seed).standard_normal(
        (records, 5, agents, 2))
    whole = harness.series_for_run(task, xs_all, None, 1.0)
    for j in range(1, records):
        part = harness.series_for_run(task, xs_all[:j], None, 1.0)
        assert list(part) == list(whole)
        for label, values in part.items():
            assert np.array_equal(values, whole[label][:j]), (label, j)


def test_scoring_memory_is_bounded_by_its_chunks():
    # the desk run's shape: 201 records of 200 replicas on 20 agents in 2-D,
    # a 12.9 MB ensemble; scoring it whole took 26 MB of temporaries
    rng = np.random.default_rng(5)
    x, y = gen_linreg_data(200, np.array([1.0, -0.5]), 0.5, rng)
    task = tasks.LinRegTask(*tasks.partition_data(x, y, 20, rng),
                            prior_var=1.0)
    xs_all = rng.standard_normal((201, 200, 20, 2))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        series = harness.series_for_run(task, xs_all, None, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(series) == ["consensus", "w2_mean", "w2_agents"]
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("dim, replicas", [(2, 2), (3, 3), (2, 3)],
                         ids=["2-in-2", "3-in-3", "3-in-2"])
def test_w2_from_too_few_replicas_warns_once(tmp_path, caplog, dim,
                                             replicas):
    # a Gaussian fit to R <= d replicas is rank-deficient; the series are
    # written all the same
    cfg = load_config(make_cfg(tmp_path, **{
        "dim = 2": f"dim = {dim}", "replicas = 3": f"replicas = {replicas}",
        "beta_true = 1.0 -0.5": "beta_true = " + " ".join(["0.5"] * dim)}))
    with caplog.at_level(logging.WARNING, logger="exlg"):
        assert cmd_run(cfg) == EXIT_OK
    warned = [r.getMessage() for r in caplog.records
              if r.levelno == logging.WARNING and "rank-deficient" in
              r.getMessage()]
    assert warned == ([] if replicas > dim else [
        f"W2 of a rank-deficient Gaussian fit: {replicas} replicas in "
        f"{dim} dimensions"])
    assert "w2_mean" in (tmp_path / "out" / "metrics.csv").read_text()


def _fmt(v) -> str:
    """The per-cell formatter write_csv's row templates replaced."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def test_write_csv_matches_per_cell_formatter(tmp_path):
    rows = [
        (1, "a", 0.1 + 0.2, True),
        (np.int64(-7), "b", 5, False),               # int in a float column
        (2 ** 53 + 1, "c", np.float64(1.0 / 3.0), np.bool_(True)),
        (np.uint64(2 ** 64 - 1), "d", -0.0, "text"),
        (-(2 ** 70), "e", float("nan"), None),
        (np.int32(3), "f", float("inf"), 2.5),
        (0, "g", float("-inf"), 7),
        (4, "h", 5e-324, np.float32(0.1)),           # subnormal
        (5, "i", 2.2250738585072014e-308 / 3, -2.5e17),
        (6, "j", np.float64(-1e300), 1e-300),
        (7, "k", 5.5, 0),
    ]
    path = str(tmp_path / "mixed.csv")
    assert write_csv(path, ["w", "x", "y", "z"],
                     _row_lines(iter(rows))) == len(rows)
    want = "w,x,y,z\n" + "".join(
        ",".join(_fmt(c) for c in row) + "\n" for row in rows)
    with open(path, newline="") as fh:
        assert fh.read() == want


def _reference_csv(header, rows):
    """write_csv's text and row count before it streamed: each row filled
    into the template of its cell types, every line kept in one list and
    joined at the end."""
    def cell(kind):
        if issubclass(kind, (int, np.integer)) and kind is not bool:
            return "%d"
        return "%.17g" if issubclass(kind, (float, np.floating)) else "%s"

    lines = [",".join(header)]
    templates: dict = {}
    for row in rows:
        kinds = tuple(map(type, row))
        tmpl = templates.get(kinds)
        if tmpl is None:
            tmpl = templates[kinds] = ",".join(map(cell, kinds))
        if bool in kinds:
            row = tuple(("true" if c else "false") if type(c) is bool else c
                        for c in row)
        lines.append(tmpl % tuple(row))
    return "\n".join(lines) + "\n", len(lines) - 1


def _reference_trajectory_rows(ks, xs_all):
    """trajectory.csv's rows as tuples, (replica, k, agent) in order."""
    ks = np.asarray(ks).tolist()
    for r in range(xs_all.shape[1]):
        xs = xs_all[:, r].tolist()
        for k, block in zip(ks, xs):
            for a, x in enumerate(block):
                yield (r, k, a, *x)


def _trajectory_header(dim):
    return ["replica", "k", "agent", *(f"coord_{j}" for j in range(dim))]


_ODD_CELLS = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324)
# either side of the formatter's fast range [1e-4, 1e17), a power of ten
# and its neighbours, exact ties at the 18th digit, and subnormals
_EDGE_CELLS = (np.nextafter(1e-4, 0.0), 1e-4, -np.nextafter(1e-4, 1.0),
               np.nextafter(1e17, 0.0), -1e17, np.nextafter(1e17, np.inf),
               np.nextafter(1000.0, 0.0), 1000.0, np.nextafter(1000.0, 2e3),
               -0.1, 1234567890123456.75, 1234567890123456.25, -2.5e-3,
               2.2250738585072014e-308 / 3, -5e-324, 0.0)


class TestStreamingWriter:
    """write_csv streams chunks into the temp file; the bytes and row
    counts equal the writer that joined the whole file first."""

    @pytest.mark.parametrize("n_rows", [0, 1, 11])
    def test_rows_equal_reference(self, tmp_path, n_rows):
        rows = [(k, "label", v, k % 2 == 0) for k, v in
                enumerate((0.1 + 0.2, *_ODD_CELLS, 1.0 / 3.0, -2.5e17,
                           np.float64(-1e300), 7.0, 1e-300))][:n_rows]
        path = tmp_path / "rows.csv"
        header = ["k", "label", "value", "even"]
        want, count = _reference_csv(header, rows)
        assert write_csv(str(path), header, _row_lines(rows)) == count \
            == n_rows
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("shape", [
        (0, 2, 3, 2),               # no records: the header alone
        (1, 1, 1, 2),               # one row
        (4, 2, 3, 1),               # d = 1
        (4, 2, 3, 5),               # d = 5
        (120, 3, 20, 2),            # blocks larger than the file buffer
    ], ids=["header-only", "one-row", "d1", "d5", "blocks-over-buffer"])
    def test_trajectory_equals_reference(self, tmp_path, shape):
        xs = np.random.default_rng(3).standard_normal(shape)
        every_third = np.arange(0, xs.size, 3)
        xs.reshape(-1)[every_third] = np.resize(_ODD_CELLS, every_third.size)
        next_cells = np.arange(1, xs.size, 3)
        xs.reshape(-1)[next_cells] = np.resize(_EDGE_CELLS, next_cells.size)
        ks = 3 * np.arange(shape[0])
        ks[-1:] += 1                # a final record off the stride
        header = _trajectory_header(shape[3])
        want, count = _reference_csv(header,
                                     _reference_trajectory_rows(ks, xs))
        path = tmp_path / "trajectory.csv"
        assert write_csv(str(path), header, _trajectory_chunks(ks, xs)) \
            == count == np.prod(shape[:3])
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("existing", [True, False],
                             ids=["target-kept", "no-target"])
    def test_failure_mid_stream_leaves_no_trace(self, tmp_path, existing):
        path = tmp_path / "trajectory.csv"
        if existing:
            path.write_bytes(b"old,bytes\n")

        def chunks():
            yield "0,0,0,1\n", 1
            raise RuntimeError("chain store lost")

        with pytest.raises(RuntimeError, match="chain store lost"):
            write_csv(str(path), _trajectory_header(1), chunks())
        assert os.listdir(tmp_path) == (["trajectory.csv"] if existing
                                        else [])
        if existing:
            assert path.read_bytes() == b"old,bytes\n"


def _g17_text(values):
    """The non-NUL bytes of `_g17_fields` over ``values``, as text."""
    fields = _g17_fields(np.asarray(values, dtype=float))
    text = np.ascontiguousarray(fields.T).view(np.uint8).ravel()
    return text[text != 0].tobytes().decode("ascii")


def _assert_g17(values):
    """`_g17_fields` writes ``"," + "%.17g" % x`` for each x, checked
    2^16 values at a time to bound a long test's memory."""
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, 2 ** 16):
        block = values[start:start + 2 ** 16].tolist()
        got = _g17_text(block)[1:].split(",")
        wrong = [(x, text, "%.17g" % x) for x, text in zip(block, got)
                 if text != "%.17g" % x]
        assert len(got) == len(block) and not wrong, wrong[:5]


def _exact_ties(rng, per_decade):
    """{e: doubles in [10^e, 10^(e+1)) halfway between two 17-digit
    decimals} for e = -4 .. 15: M / 2^(17 - e) with M odd, so that
    x 10^(16 - e) = M 5^(16 - e) / 2 is an odd number of halves."""
    ties = {}
    for e in range(-4, 16):
        lo = math.ceil(Fraction(10) ** e * 2 ** (17 - e))
        hi = min(math.ceil(Fraction(10) ** (e + 1) * 2 ** (17 - e)), 2 ** 53)
        m = rng.integers(lo // 2, hi // 2, per_decade) * 2 + 1
        ties[e] = np.ldexp(m.astype(float), e - 17)
    return ties


def _below_powers_of_ten():
    """The largest double below 10^k for k = -3 .. 17."""
    out = []
    for k in range(-3, 18):
        x = float(Fraction(10) ** k)
        out.append(x if Fraction(x) < Fraction(10) ** k
                   else float(np.nextafter(x, 0.0)))
    return np.array(out)


class TestG17Fields:
    """`_g17_fields` writes the bytes of ``"," + "%.17g" % x``."""

    def test_random_bit_patterns(self):
        # 1M patterns with exponents from 2^-20 to 2^63, most of them in
        # the computed range, and 100k with any exponent
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2 ** 64, 1_100_000, dtype=np.uint64)
        exponent = np.uint64(0x7FF) << np.uint64(52)
        bits[:1_000_000] &= ~exponent
        bits[:1_000_000] |= rng.integers(
            1023 - 20, 1023 + 64, 1_000_000).astype(np.uint64) << np.uint64(52)
        _assert_g17(bits.view(np.float64))

    def test_random_magnitudes(self):
        rng = np.random.default_rng(6)
        _assert_g17(rng.random(200_000) * 10.0 ** rng.uniform(-9, 19, 200_000)
                    * rng.choice([-1.0, 1.0], 200_000))

    @pytest.mark.parametrize("values", [
        pytest.param(np.concatenate(list(_exact_ties(
            np.random.default_rng(7), 2000).values())), id="exact-ties"),
        pytest.param(1234567890123456.75 + np.arange(-5000, 5000) / 4,
                     id="ties-near-1e15"),
        pytest.param(np.concatenate([
            np.nextafter(10.0 ** np.arange(-6, 19), 0.0),
            10.0 ** np.arange(-6, 19),
            np.nextafter(10.0 ** np.arange(-6, 19), np.inf)]),
            id="powers-of-ten"),
        pytest.param(np.random.default_rng(8).integers(
            0, 2 ** 60, 100_000).astype(float), id="integers"),
        pytest.param(np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                               -5e-324, 2.2250738585072014e-308 / 3,
                               1.7976931348623157e308,
                               -1.7976931348623157e308,
                               np.nextafter(1e-4, 0.0), 1e-4,
                               np.nextafter(1e17, 0.0), 1e17, 0.5, 100.0,
                               -1e16, 9007199254740993.0]), id="specials"),
    ])
    def test_edge_sets(self, values):
        _assert_g17(values)
        _assert_g17(-values)

    def test_exact_ties_round_half_to_even(self):
        for e, ties in _exact_ties(np.random.default_rng(9), 50).items():
            scale = Fraction(10) ** (16 - e)
            for x, text in zip(ties.tolist(), _g17_text(ties)[1:].split(",")):
                halves = Fraction(x) * scale
                assert halves % 1 == Fraction(1, 2)
                down = math.floor(halves)
                assert Fraction(text) * scale == down + down % 2

    def test_no_double_rounds_up_to_a_power_of_ten(self):
        # so 17 digits never carry into an 18th
        below = _below_powers_of_ten()
        for k, x in zip(range(-3, 18), below.tolist()):
            assert Fraction("%.17g" % x) < Fraction(10) ** k
        _assert_g17(below)


LOGREG_MINIBATCH = {"kind = linreg": "kind = logreg-synthetic\nholdout = 100",
                    "steps = 40": "steps = 40\nbatch = 8",
                    "record_every = 5": "record_every = 1"}


def test_run_and_sweep_trajectories_equal_reference(tmp_path, monkeypatch):
    """Every trajectory.csv of a minibatch `run` and a 3-point `sweep-h`
    holds the reference writer's bytes for the ensemble that produced it,
    and its manifest row count."""
    ensembles = []

    def recording(*args, **kwargs):
        ensembles.append(run_ensemble(*args, **kwargs))
        return ensembles[-1]

    monkeypatch.setattr(harness, "run_ensemble", recording)
    text = BASE + "\n[sweep]\nh_min = 0.1\nh_max = 0.3\npoints = 3\n"
    cfg = make_cfg(tmp_path, text=text, **LOGREG_MINIBATCH)
    assert main(["run", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == EXIT_OK
    assert main(["sweep-h", "--config", cfg, "--out",
                 str(tmp_path / "sweep")]) == EXIT_OK
    outs = [tmp_path / "run"] + [tmp_path / "sweep" / f"h_{h:.6g}"
                                 for h in (0.1, 0.2, 0.3)]
    assert len(ensembles) == len(outs)
    for out, res in zip(outs, ensembles):
        assert res.xs.shape == (41, 3, 6, 2)
        want, count = _reference_csv(
            _trajectory_header(2), _reference_trajectory_rows(res.ks, res.xs))
        assert (out / "trajectory.csv").read_bytes() == want.encode()
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["files"]["trajectory.csv"] == {
                "rows": count}


class TestCliPlumbing:
    def test_divergence_exit_code(self, tmp_path, capsys):
        path = make_cfg(tmp_path, **{"eta = 0.01": "eta = 50.0",
                                     "steps = 40": "steps = 2000",
                                     "replicas = 3": "replicas = 1"})
        assert main(["run", "--config", path]) == EXIT_DIVERGENCE
        assert "replica 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_overflow_is_a_divergence_without_warnings(
            self, tmp_path, capsys, algorithm):
        # eta * grad overflows at the first step: the guard reports it,
        # and numpy warns of nothing on the way
        path = make_cfg(tmp_path, **{"GEN_EXTRA_SGLD": algorithm,
                                     "eta = 0.01": "eta = 1e300",
                                     "1.0 -0.5": "1e6 1e6"})
        assert main(["run", "--config", path]) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert "diverged at iteration 1" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("temperature", ["1", "0"])
    def test_a_distance_whose_square_overflows_is_finite(
            self, tmp_path, capsys, temperature):
        # noise_std = 1e200 puts x* near 1e199, so |x - x*|^2 overflows at
        # the zero start: the run writes the distance, and numpy warns of
        # nothing
        path = make_cfg(tmp_path, **{
            "dim = 2": "dim = 2\nnoise_std = 1e200",
            "steps = 40": f"steps = 0\ntemperature = {temperature}"})
        assert main(["run", "--config", path]) == EXIT_OK
        assert "RuntimeWarning" not in capsys.readouterr().err
        task, _ = build_task(load_config(path))
        if temperature == "0":  # the worst agent's distance to x*
            want = {"opt_error": math.hypot(*task.minimizer())}
        else:  # a zero fit: W2^2 = |m|^2 + tr S of the target
            t = task.target()
            w2 = math.hypot(*t.mean, math.sqrt(np.trace(t.cov)))
            want = {"w2_mean": w2, "w2_agents": w2}
        series = read_metrics(tmp_path / "out" / "metrics.csv")
        for label, value in want.items():
            assert value > 1e154  # its square is past the float range
            (k, got), = series[label]
            assert float(got) == pytest.approx(value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("edits, message", [
        ({"steps = 40": "steps = 40\nb_mode = custom"},
         "sampler.b_mode: 'custom' not one of ('wtilde-over-eta', "
         "'scaled-identity')"),
        ({"steps = 40": "steps = 40\nbatch = 21"},          # shard is 20
         "sampler.batch: 21 exceeds the shard size 20"),
        ({"dim = 2": "dim = 2\nper_agent = 21"},            # 6 x 21 > 120
         "task.per_agent: 6 agents x 21 points"),
        ({"n_points = 120": "n_points = 5"},                # 6 agents
         "network.n: 6 agents x 1 points"),
    ], ids=["b-mode-custom", "batch-over-shard", "per-agent-over-data",
            "agents-over-data"])
    def test_unsuppliable_inputs_exit_two(self, tmp_path, capsys, edits,
                                          message):
        path = make_cfg(tmp_path, **edits)
        assert main(["run", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert message in err

    def test_log_level_warning_silences_assumption_lines(self, tmp_path):
        # fresh interpreters, so logging is configured by main alone
        src = os.path.dirname(os.path.dirname(os.path.abspath(exlg.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        path = make_cfg(tmp_path)

        def stderr(*flags):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from exlg.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "run", "--config", path, *flags],
                env=env, capture_output=True, text=True)
            assert proc.returncode == EXIT_OK, proc.stderr
            return proc.stderr

        assert "INFO [pass]" in stderr()
        assert "[pass]" not in stderr("--log-level", "WARNING")

    def test_log_level_does_not_change_bytes(self, tmp_path):
        logger = logging.getLogger("exlg")
        saved = logger.level
        files = {}
        try:
            for level in ("DEBUG", "INFO", "WARNING", "ERROR"):
                out = tmp_path / level
                assert main(["run", "--config", make_cfg(tmp_path),
                             "--out", str(out), "--log-level", level]) \
                    == EXIT_OK
                assert logger.level == getattr(logging, level)
                files[level] = {n: (out / n).read_bytes()
                                for n in sorted(os.listdir(out))
                                if n.endswith(".csv")}
        finally:
            logger.setLevel(saved)
        assert files["INFO"]
        assert all(f == files["INFO"] for f in files.values())

    def test_cli_overrides_reach_config(self, tmp_path):
        path = make_cfg(tmp_path)
        other = str(tmp_path / "other")
        assert main(["run", "--config", path, "--out", other,
                     "--seed", "21", "--replicas", "2"]) == EXIT_OK
        with open(os.path.join(other, "manifest.json")) as fh:
            man = json.load(fh)
        assert man["master_seed"] == 21
        assert len(man["replica_seeds"]) == 2

    def test_fmt_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        floats = (0.1 + 0.2, 1.0 / 3.0, 1e-300, -2.5e17)
        write_csv(path, ["c"] * 8,
                  _row_lines([(True, False, 3, np.int64(4), *floats)]))
        with open(path) as fh:
            cells = fh.read().splitlines()[1].split(",")
        assert cells[:4] == ["true", "false", "3", "4"]
        assert [float(c) for c in cells[4:]] == list(floats)

    def test_write_csv_counts_rows(self, tmp_path):
        path = str(tmp_path / "t.csv")
        n = write_csv(path, ["a", "b"], _row_lines([(1, 2.5), (3, 4.0)]))
        assert n == 2
        with open(path) as fh:
            assert fh.read() == "a,b\n1,2.5\n3,4\n"
