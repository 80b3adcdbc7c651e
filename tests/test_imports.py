"""Which commands load scipy.

Only the logistic task needs scipy (``scipy.special.expit``), so importing
``exlg`` and running a linear-regression or ``theory`` command must never
load it; most of scipy's import time goes to modules exlg never uses.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import exlg

SRC = pathlib.Path(exlg.__file__).parent


def _import_time_imports(tree):
    """The Import and ImportFrom nodes that run when the module is
    imported: everything outside function bodies (class bodies run)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _names(node):
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return [node.module or ""] if node.level == 0 else []


def test_no_module_imports_scipy_at_import_time():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _import_time_imports(tree):
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in _names(node)
                      if name.split(".")[0] == "scipy"]
    assert not found


def test_import_scan_sees_class_bodies_not_functions():
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
    assert sorted(n for node in _import_time_imports(tree)
                  for n in _names(node)) == ["scipy", "scipy", "scipy.special"]


SCRIPT = """
import builtins, sys
from exlg.cli import main

for command in ("gen-data", "run", "compare", "sweep-h", "theory"):
    rc = main([command, "--config", sys.argv[1], "--out",
               sys.argv[2] + "/" + command])
    assert rc == 0, (command, rc)
    assert "scipy" not in sys.modules, command

import numpy as np
from exlg.tasks import LogRegTask, gen_logreg_data

x, y = gen_logreg_data(24, np.array([1.0, -0.5]),
                       np.random.default_rng(0))
assert "scipy.special" in sys.modules
task = LogRegTask(xs=x.reshape(4, 6, 2), ys=y.reshape(4, 6), prior_var=2.0)

# the task binds expit once: its gradient and minimizer import nothing
seen, real_import = [], builtins.__import__

def spy(name, *args, **kwargs):
    seen.append(name)
    return real_import(name, *args, **kwargs)

builtins.__import__ = spy
try:
    task.grad_block(np.zeros((2, 4, 2)))
    task.grad_block(np.zeros((2, 4, 2)), np.zeros((2, 4, 3), dtype=int))
    task.minimizer()
finally:
    builtins.__import__ = real_import
assert not [n for n in seen if n.startswith("scipy")], seen
"""

CONFIG = """
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
steps = 20

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


def test_linreg_commands_do_not_load_scipy(tmp_path):
    # one fresh interpreter, so nothing else in the session has loaded it
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG.format(out=tmp_path / "out"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path), str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for command in ("gen-data", "run", "compare", "sweep-h", "theory"):
        assert any((tmp_path / command).iterdir()), command
