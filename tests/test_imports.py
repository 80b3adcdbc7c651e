"""No command loads scipy.

exlg runs on numpy alone: the logistic sigmoid is numpy code with the bits
of ``scipy.special.expit`` (``tasks._sigmoid_neg``), so importing ``exlg``
and running any command on a linear- or logistic-regression config must
never load scipy; most of scipy's import time goes to modules exlg never
uses.  scipy stays a test dependency, as the sigmoid's oracle.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import exlg

SRC = pathlib.Path(exlg.__file__).parent

COMMANDS = ("gen-data", "validate", "run", "compare", "sweep-h", "theory")


def _imports(tree):
    """Every Import and ImportFrom node, function bodies included."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def _names(node):
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return [node.module or ""] if node.level == 0 else []


def test_no_module_imports_scipy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _imports(tree):
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in _names(node)
                      if name.split(".")[0] == "scipy"]
    assert not found


def test_import_scan_sees_every_body():
    tree = ast.parse(textwrap.dedent("""
        import scipy
        if True:
            from scipy import linalg
        class A:
            from scipy.special import expit
            def f(self):
                import scipy.stats
        def g():
            from scipy import optimize
        from . import tasks
    """))
    assert sorted(n for node in _imports(tree) for n in _names(node)) == [
        "scipy", "scipy", "scipy", "scipy.special", "scipy.stats"]


SCRIPT = f"""
import sys
from exlg.cli import main

for kind, config in zip(("linreg", "logreg"), sys.argv[1:3]):
    for command in {COMMANDS!r}:
        rc = main([command, "--config", config, "--out",
                   sys.argv[3] + "/" + kind + "-" + command])
        assert rc == 0, (kind, command, rc)
        assert "scipy" not in sys.modules, (kind, command)

import numpy as np
from exlg.tasks import LogRegTask, gen_logreg_data

x, y = gen_logreg_data(24, np.array([1.0, -0.5]),
                       np.random.default_rng(0))
task = LogRegTask(xs=x.reshape(4, 6, 2), ys=y.reshape(4, 6), prior_var=2.0)
task.grad_block(np.zeros((2, 4, 2)))
task.grad_block(np.zeros((2, 4, 2)), np.zeros((2, 4, 3), dtype=int))
task.minimizer()
assert "scipy" not in sys.modules
"""

TASKS = {
    "linreg": """
[task]
kind = linreg
n_points = 120
dim = 2
beta_true = 1.0 -0.5
""",
    "logreg": """
[task]
kind = logreg-synthetic
n_points = 120
dim = 2
beta_true = 1.0 -0.5
holdout = 50
""",
}
# the logistic commands run minibatch chains, the linear ones full batch
BATCH = {"linreg": "", "logreg": "batch = 8"}

CONFIG = """
[network]
topology = ring
n = 6
h = 0.3
delta = 0.2

[sampler]
algorithm = GEN_EXTRA_SGLD
eta = 0.01
steps = 20
{batch}

[run]
seed = 7
out = {out}
replicas = 2
record_every = 5

[compare]
algorithms = DE_SGLD GEN_EXTRA_SGLD

[sweep]
h_min = 0.1
h_max = 0.3
points = 2

[theory]
shrink = true
"""


def test_no_command_loads_scipy(tmp_path):
    # one fresh interpreter, so nothing else in the session has loaded it
    paths = []
    for kind, task in TASKS.items():
        path = tmp_path / f"{kind}.cfg"
        path.write_text(task + CONFIG.format(
            batch=BATCH[kind], out=tmp_path / "out"))
        paths.append(str(path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *paths, str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for kind in TASKS:
        for command in COMMANDS:
            if command != "validate":  # it writes nothing
                assert any((tmp_path / f"{kind}-{command}").iterdir()), (
                    kind, command)
