"""The demos stay in step with the current public API.

Every demo but 03 runs to completion, each in a fresh interpreter from
an empty working directory.  Demo 03 (a few seconds: its chains differ
in eta, so they cannot share one ensemble) is left to manual runs, so
every demo's ``from exlg.<mod> import X`` names are also checked against
the package without running it: a demo that imports a name the package
no longer has fails here either way.  The README's ``python`` blocks
run too, in order, in one namespace.
"""

import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys

import pytest

import exlg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(exlg.__file__)))
DEMOS = sorted(f[:-3] for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


@pytest.mark.parametrize("name", ["01_gossip_matrices",
                                  "02_sampling_a_posterior",
                                  "04_topology_study", "05_theory_bounds",
                                  "06_reproducible_streams"])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_demo_is_checked():
    assert len(DEMOS) == 6, DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_imports_exist(name):
    with open(os.path.join(ROOT, "demos", f"{name}.py")) as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "exlg"
                for alias in node.names]
    assert imported, f"{name} imports nothing from exlg"
    missing = [f"{mod}.{attr}" for mod, attr in imported
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"{name} imports names exlg lacks: {missing}"


def test_readme_python_blocks_run_in_order():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(),
                            re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2, blocks
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
