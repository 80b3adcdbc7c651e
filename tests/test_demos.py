"""The fast demos run to completion against the current public API.

Each runs in a fresh interpreter from an empty working directory, so a
demo that imports a name the package no longer exports fails here.  The
slower demos (02-04, several seconds each) are left to manual runs.
"""

import os
import subprocess
import sys

import pytest

import exlg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(exlg.__file__)))


@pytest.mark.parametrize("name", ["01_gossip_matrices", "05_theory_bounds",
                                  "06_reproducible_streams"])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
