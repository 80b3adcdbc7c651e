"""The benchmark's per-layer metrics count and time spans by function name.

`perfbench/tracing.py` lists those names in ``GROUPS``; a name that no
longer matches a function of `exlg` makes its metric read 0 without any
error.  This test reads ``GROUPS`` from the source file (so nothing under
perfbench is imported or changed) and checks each name the way the tracer
wraps functions: ``layer.function`` is a public function defined in
``exlg.layer``, and ``layer.Class.method`` a public method defined on a
public class there.  Names already known to be stale are listed below and
must stay unresolved, so the list shrinks when the benchmark is mended.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# names in GROUPS whose functions were renamed or removed from exlg (or,
# like w2_gaussian, moved to the tests); their metrics read 0 until
# perfbench names the functions that run instead
KNOWN_STALE = {
    "tasks.LinRegTask.full_grad",
    "tasks.LinRegTask.stoch_grad",
    "tasks.LogRegTask.full_grad",
    "tasks.LogRegTask.stoch_grad",
    "tasks.mu_L_bounds",
    "samplers.run_chain",
    "metrics.w2_gaussian",
    "linalg.mix_apply",
    "samplers.NoiseStream.gaussian_block",
}


def _groups() -> dict:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GROUPS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no GROUPS assignment in {TRACING}")


def _traced_names() -> list:
    return sorted({n for names in _groups().values() for n in names})


def _wrappable(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def _resolves(name: str) -> bool:
    """Whether the tracer finds a function to wrap under ``name``."""
    layer, *path = name.split(".")
    mod = importlib.import_module(f"exlg.{layer}")
    obj = vars(mod).get(path[0])
    if path[0].startswith("_") or getattr(obj, "__module__", None) \
            != mod.__name__:
        return False
    if len(path) == 1:
        return _wrappable(obj)
    return (len(path) == 2 and inspect.isclass(obj)
            and not path[1].startswith("_")
            and _wrappable(vars(obj).get(path[1])))


def test_groups_parse():
    names = _traced_names()
    assert "linalg.sym_eig" in names and "harness.build_task" in names
    assert KNOWN_STALE <= set(names)


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves_or_is_known_stale(name):
    if name in KNOWN_STALE:
        assert not _resolves(name), (
            f"{name} resolves again: drop it from KNOWN_STALE")
    else:
        assert _resolves(name), (
            f"{name} is named in perfbench/tracing.py GROUPS but no exlg "
            "function matches it, so its layer metric would read 0")
