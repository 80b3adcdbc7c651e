"""``tools/same_outputs.py``: a tree matches itself, and a chain defect
shows as differing CSVs with their relative deviation.

Each check runs a few entries of the tool's matrix, not all of it, to keep
tier-1 short; the matrix itself is checked for the commands it promises.
"""

import importlib.util
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _entries(*names):
    found = {e[0]: e for e in same_outputs.matrix()}
    return [found[name] for name in names]


def test_matrix_covers_the_workloads_algorithms_and_commands():
    names = [e[0] for e in same_outputs.matrix()]
    assert len(names) == len(set(names)) == 34
    assert {"linreg-compare@42", "linreg-compare@7",
            "logreg-minibatch-run@1010", "ring50-theory-shrink@7",
            "validate", "gen-data", "sweep-h",
            "run-GEN_EXTRA_SGLD-scaled-identity-T0", "run-EXTRA_SGLD-T0",
            "run-DE_SGLD-T0", "run-flag-overrides", "logreg-compare",
            "logreg-sweep-h", "run-GEN_EXTRA_SGLD-batch10",
            "run-EXTRA_SGLD-batch10", "run-GEN_EXTRA_SGLD-eta0.02",
            "logreg-run-batch100", "logreg-run-61-steps",
            "run-tiny-T0", "run-beta-1e9", "run-beta-1e9-r200",
            "run-GEN_EXTRA_SGLD-r200-every1",
            "run-GEN_EXTRA_SGLD-batch10-eta0.02", "run-EXTRA_SGLD-203-steps",
            "run-GEN_EXTRA_SGLD-203-steps",
            "run-EXTRA_SGLD-batch10-203-steps",
            "ring400-theory-shrink"} <= set(names)
    assert {f"run-{a}" for a in same_outputs.ALGORITHMS} <= set(names)
    flags = {e[0]: e[3] for e in same_outputs.matrix() if e[3]}
    assert list(flags) == ["run-flag-overrides"]
    assert {"--seed", "--replicas", "--log-level"} <= set(
        flags["run-flag-overrides"])
    assert {e[1] for e in same_outputs.matrix()} == {
        "compare", "run", "theory", "validate", "gen-data", "sweep-h"}


def test_a_tree_matches_itself(capsys):
    names = ("linreg-compare@42", "run-DE_SGLD", "validate", "sweep-h")
    assert same_outputs.compare_trees(ROOT, ROOT, _entries(*names))
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"identical  {name}" for name in names]


def test_scaled_de_sgld_noise_is_flagged(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    samplers = tmp_path / "src" / "exlg" / "samplers.py"
    rule = "return lambda b: scale_x * b, de_sgld"
    text = samplers.read_text()
    assert text.count(rule) == 1
    samplers.write_text(text.replace(rule, rule.replace(
        "scale_x", "1.01 ** 0.5 * scale_x")))
    assert not same_outputs.compare_trees(
        ROOT, tmp_path, _entries("run-DE_SGLD", "validate"))
    flagged, same = capsys.readouterr().out.splitlines()
    assert flagged.startswith("DIFFERS    run-DE_SGLD: ")
    for name in ("metrics.csv", "plateau.csv", "trajectory.csv"):
        assert f"{name} (max rel dev " in flagged
    assert "manifest.json" not in flagged
    assert same == "identical  validate"


def test_usage(capsys):
    assert same_outputs.main(["one-tree"]) == 2
    assert "PARENT_TREE CHANGE_TREE" in capsys.readouterr().err
