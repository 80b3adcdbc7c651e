"""Tests of the benchmark's own logic.

    python -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_is_parent_minus_union_of_children():
    spans = [  # (start, end, parent)
        (0, 100, -1),    # 0: root
        (10, 30, 0),     # 1
        (20, 50, 0),     # 2: overlaps 1, so [10, 50] counts once
        (60, 70, 0),     # 3
        (62, 65, 3),     # 4: grandchild, only 3 loses it
        (90, 120, 0),    # 5: clipped to the root's end
        (200, 260, -1),  # 6: a second root
        (210, 220, 6),   # 7
    ]
    start, end, parent = (np.array(c) for c in zip(*spans))
    got = tracing.self_times(start, end, parent)
    assert got.tolist() == [100 - 40 - 10 - 10, 20, 30, 10 - 3, 3, 30,
                            60 - 10, 10]


def test_self_time_of_a_leaf_is_its_duration():
    got = tracing.self_times([5, 7], [9, 8], [-1, -1])
    assert got.tolist() == [4, 1]


def test_metric_names_follow_the_grammar():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    named = bench["workloads"] + bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in named]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]), m
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_grammar_rejects_bad_names():
    for bad in ("", "_lead", "has space", "slash/name", "x" * 65):
        assert not NAME.match(bad)


def test_max_rel_dev():
    ref = [["k", "label", "value"], ["0", "a", "2.0"], ["1", "a", "0"]]
    assert workloads.max_rel_dev(ref, ref) == 0.0
    moved = [["k", "label", "value"], ["0", "a", "2.2"], ["1", "a", "0"]]
    assert workloads.max_rel_dev(moved, ref) == pytest.approx(0.2 / 2.2)
    renamed = [["k", "label", "value"], ["0", "b", "2.0"], ["1", "a", "0"]]
    assert workloads.max_rel_dev(renamed, ref) == float("inf")
    assert workloads.max_rel_dev(ref[:2], ref) == float("inf")


def test_summary_tail_has_ten_samples_beyond_it():
    s = run.summary(list(range(1, 21)))
    assert s["n"] == 20 and s["median"] == 10.5
    assert s["tail"] == 10 and s["tail_percentile"] == 50.0
    assert "tail" not in run.summary(list(range(10)))


def test_refs_divide_command_time_by_the_sampled_block_time():
    # a host at half speed half of the time: blocks of 1 ms and 2 ms
    assert refclock.to_refs(3.0, [0.001, 0.002]) == pytest.approx(2250.0)
    assert refclock.to_refs(2.0, [0.002] * 7) == pytest.approx(1000.0)


def test_ref_clock_samples_blocks_and_leaves_no_timer_behind():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock(period=0.005) as clock:
        assert len(clock.blocks) == refclock.MIN_BLOCKS
        mark = clock.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        wall = time.perf_counter() - t0
        refs = clock.refs_since(mark, wall)
        assert len(clock.blocks) > refclock.MIN_BLOCKS + 5
        # a command too short to see a block borrows the latest ones
        assert clock.refs_since(clock.mark(), 0.01) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < refs < wall / min(clock.blocks)


# Shrunk copies of the workload configs, so each command runs in a second.
_SMALL = {"replicas = 10\n": "replicas = 3\n",
          "replicas = 5\n": "replicas = 3\n",
          "steps = 200\n": "steps = 30\n",
          "steps = 500\n": "steps = 30\n",
          "n = 50\n": "n = 6\n"}


def _run_cli(argv):
    from exlg import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_leaves_csv_bytes_unchanged(name, tmp_path):
    from exlg import linalg

    w = workloads.WORKLOADS[name]
    out = str(tmp_path / "out")
    text = w.config_text(7, out)
    for old, new in _SMALL.items():
        text = text.replace(old, new)
    config = tmp_path / "config.ini"
    config.write_text(text)
    argv = w.argv(str(config), out)

    def outputs():
        return {n: (tmp_path / "out" / n).read_bytes() for n in w.outputs}

    assert _run_cli(argv) == 0
    plain = outputs()
    shutil.rmtree(out)

    original = linalg.sym_eig
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linalg.sym_eig is not original
        tracer.begin_command()
        assert _run_cli(argv) == 0
        layers = tracer.end_command()
    finally:
        tracer.uninstall()
    assert linalg.sym_eig is original
    assert outputs() == plain
    assert set(layers) | {"trace.overhead_frac"} \
        == set(tracing.PER_LAYER_UNITS)
    assert layers["linalg.sym_eig_calls"] > 0
    assert layers["trace.coverage"] >= tracing.COVERAGE_MIN
