"""Minor page faults and CPU time of each benchmark workload's command.

    python tools/alloc_churn.py [--tree TREE] [--repeat N] [WORKLOAD ...]

For each workload of ``perfbench/workloads.py`` (read, not changed; all
three when none is named) the command runs ``N`` times (default 10) in
one process, through ``exlg.cli.main`` as the benchmark's loop calls it,
and then once as a fresh ``python -m exlg.cli`` process.  Each command
gets one line: its minor page faults (``ru_minflt``), user and system
milliseconds and wall milliseconds, from ``resource.getrusage`` of the
loop process and from ``os.wait4`` of the fresh one, whose line also
counts interpreter start-up and imports and gives its ``ru_maxrss``.
A line per workload gives the medians of the in-process commands after
the first, and the loop process's ``ru_maxrss`` at its end.

``TREE`` is a checkout of this repository (default: the one holding this
script); its ``src`` goes first on ``PYTHONPATH``.  Every process runs
with one BLAS thread, at the workload's pinned seed, in a temporary
directory.  Standard library only.  The exit code is 1 when a command
exits non-zero, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402  (stdlib only; perfbench is not a package)

_ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# argv: the command's argv as JSON, the output directory, the repeat count;
# prints one JSON row per command
_LOOP = """
import contextlib, io, json, resource, shutil, sys, time
from exlg import cli

argv, out, n = json.loads(sys.argv[1]), sys.argv[2], int(sys.argv[3])
for _ in range(n):
    shutil.rmtree(out, ignore_errors=True)
    r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps([code, r1.ru_minflt - r0.ru_minflt,
                      1e3 * (r1.ru_utime - r0.ru_utime),
                      1e3 * (r1.ru_stime - r0.ru_stime), 1e3 * (t1 - t0),
                      r1.ru_maxrss / 1024.0]), flush=True)
"""


def _line(label: str, code, minflt, user, sys_, wall, maxrss=None) -> str:
    return (f"  {label:<12} exit {code!s:<3} minflt {minflt:>7.0f}  "
            f"user {user:7.1f} ms  sys {sys_:6.1f} ms  wall {wall:7.1f} ms"
            + (f"  maxrss {maxrss:6.1f} MB" if maxrss is not None else ""))


def churn(tree: str, name: str, repeat: int) -> bool:
    """Print one workload's commands; whether each exited 0."""
    w = workloads.WORKLOADS[name]
    env = dict(os.environ, **_ONE_THREAD,
               PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    ok = True
    print(f"{name} ({w.command}), {tree}", flush=True)
    with tempfile.TemporaryDirectory(prefix="alloc-churn-") as tmp:
        cfg = os.path.join(tmp, "exp.ini")
        with open(cfg, "w") as fh:
            fh.write(w.config_text(w.pinned_seed, os.path.join(tmp, "out")))
        argv = w.argv(cfg, os.path.join(tmp, "out"))
        loop = subprocess.run(
            [sys.executable, "-c", _LOOP, json.dumps(argv),
             os.path.join(tmp, "out"), str(repeat)],
            env=env, capture_output=True, text=True)
        rows = [json.loads(ln) for ln in loop.stdout.splitlines()]
        if loop.returncode != 0 or len(rows) != repeat:
            print(loop.stderr, file=sys.stderr)
            return False
        for i, row in enumerate(rows, 1):
            ok = ok and row[0] == 0
            print(_line(f"in-process {i}", *row[:5]))
        if len(rows) > 1:
            print(_line("median 2..", "", *(statistics.median(r[k] for r in
                                                              rows[1:])
                                             for k in range(1, 5)),
                        rows[-1][5]))

        proc = subprocess.Popen([sys.executable, "-m", "exlg.cli", *argv],
                                cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        t0 = time.perf_counter()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = 1e3 * (time.perf_counter() - t0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        ok = ok and code == 0
        print(_line("fresh", code, ru.ru_minflt, 1e3 * ru.ru_utime,
                    1e3 * ru.ru_stime, wall, ru.ru_maxrss / 1024.0),
              flush=True)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help="workloads to run (default: all): "
                         + ", ".join(workloads.WORKLOADS))
    ap.add_argument("--tree", default=ROOT,
                    help="checkout whose src runs (default: this one)")
    ap.add_argument("--repeat", type=int, default=10, metavar="N",
                    help="in-process commands per workload (default 10)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    unknown = set(args.workloads) - set(workloads.WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    ok = True
    for name in args.workloads or workloads.WORKLOADS:
        ok = churn(args.tree, name, args.repeat) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
