"""The exlg benchmark: run a CLI workload in a closed loop and report it.

    python3 perfbench/run.py                  # all workloads, pinned seeds
    python3 perfbench/run.py --workload linreg-compare --seed 7 \\
        --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``exlg`` from
``src/``.  Each workload runs in its own child processes, one command at a
time, with the chains and BLAS on one thread.  ``--trace 0`` reports the
end-to-end metrics, command times in refs (see refclock.py); ``--trace 1``
reports the per-layer metrics of a traced run.  Everything it writes goes under ``.bench_out/``.  The last
line of standard output is the result as JSON; the line before it holds
sample summaries and machine facts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 20
PLAN = ("setup", "loop", "setup", "loop", "setup")
"""The fresh processes of a plain run, in order.  Every one times a set-up
and setup_s is the median of the five; set-up-only processes alternate
with the loops, so a few busy seconds on the host do not slow them all.
The two loop processes split --seconds: the same command runs up to ~6%
faster or slower from one process to the next, so a single process would
carry its luck into the run's figure."""

BUDGET_S = 170
"""Wall-clock limit on one workload's run, set-ups included."""

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"wall_ref": "ref", "setup_s": "s",
             "agent_steps_per_ref": "1/ref", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list, base: str, deadline: float) -> dict:
    """Run child.py to completion and return the JSON it wrote."""
    result = os.path.join(base, "child-result.json")
    if os.path.exists(result):
        os.unlink(result)
    with open(os.path.join(base, "child.log"), "a") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *args,
             "--result", result],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"child ran past the {BUDGET_S} s budget; "
                             f"see {log.name}") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0 or not os.path.exists(result):
        raise BenchError(f"child exited with {rc}; see {log.name}")
    with open(result) as fh:
        return json.load(fh)


def summary(values: list) -> dict:
    """Median, the highest percentile with ten samples beyond it, count."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n > 10:
        out["tail"] = xs[n - 11]
        out["tail_percentile"] = 100.0 * (n - 10) / n
    return out


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "exlg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_workload(name: str, seed, seconds: float, trace: int) -> dict:
    w = WORKLOADS[name]
    seed = w.pinned_seed if seed is None else seed
    deadline = time.monotonic() + BUDGET_S
    base = os.path.join(OUT, name, f"seed-{seed}")
    os.makedirs(base, exist_ok=True)
    config = os.path.join(base, "config.ini")
    out = os.path.join(base, "out")
    with open(config, "w") as fh:
        fh.write(w.config_text(seed, out))
    pinned = int(seed == w.pinned_seed)
    common = ["--workload", name, "--config", config, "--out", out,
              "--pinned", str(pinned)]

    def child(secs: float, *extra) -> dict:
        return run_child(common + ["--seconds", str(secs), *extra], base,
                         deadline)

    if trace:
        loops = [child(seconds, "--trace", "1")]
        done = loops
    else:
        share = seconds / PLAN.count("loop")
        done = [child(share) if kind == "loop" else child(0, "--setup-only")
                for kind in PLAN]
        loops = [c for c in done if "wall_s" in c]
    setups = [c["setup_s"] for c in done]

    walls = [x for c in loops for x in c["wall_s"]]
    attempted = sum(c["attempted"] for c in loops)
    failed = sum(c["failed"] for c in loops)
    problems = [p for c in loops for p in c["problems"]]
    if len({json.dumps(c["digests"]) for c in loops}) > 1:
        # one more check, counted like a command
        attempted += 1
        failed += 1
        problems.append("CSV bytes differ between loop processes")
    if trace:
        metrics = {k: {"value": v, "unit": loops[0]["units"][k]}
                   for k, v in loops[0]["layers"].items()}
    else:
        refs = [x for c in loops for x in c["wall_ref"]]
        ref = statistics.median(refs)
        values = {"wall_ref": ref,
                  "setup_s": statistics.median(setups),
                  "agent_steps_per_ref": w.agent_steps / ref,
                  "peak_rss_mb": max(c["peak_rss_mb"] for c in loops)}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
    info = {
        "workload": name, "seed": seed, "pinned_seed": w.pinned_seed,
        "seconds": seconds, "trace": trace,
        "samples": {"wall_s": summary(walls), "setup_s": summary(setups),
                    "setup_wall_s": summary([c["setup_wall_s"]
                                             for c in done])},
        "failed_share": failed / attempted,
        "result_max_rel_dev": (max(c["max_rel_dev"] for c in loops)
                               if pinned else None),
        "problems": problems[:20],
        "machine": {**loops[0]["machine"],
                    "nproc": os.cpu_count(),
                    "cpus_usable": len(os.sched_getaffinity(0)),
                    "threads_env": {v: child_env()[v] for v in THREAD_VARS},
                    "git_commit": git_commit(),
                    "src_sha256": source_digest()},
    }
    if trace:
        info["samples"]["traced_wall_s"] = summary(loops[0]["traced_wall_s"])
    else:
        info["samples"]["wall_ref"] = summary(refs)
        info["ref_block_s"] = statistics.median(c["ref_block_s"]
                                                for c in loops)
    report = {"info": info,
              "result": {"correct": failed == 0, "attempted": attempted,
                         "failed": failed, "metrics": metrics}}
    with open(os.path.join(base, f"result-trace{trace}.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int,
                    help="master seed (default: each workload's pinned seed)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a SIGTERM unwinds through run_child, which stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "exlg", "cli.py")):
        print(f"perfbench: no exlg sources at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, args.trace)
            reports.append(report)
            for metric, m in report["result"]["metrics"].items():
                print(f"{name:22s} {metric:30s} {m['value']:16.6g} "
                      f"{m['unit']}")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if len(reports) == 1:
        info, result = reports[0]["info"], reports[0]["result"]
    else:
        info = [r["info"] for r in reports]
        result = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{r['info']['workload']}.{k}": v for r in reports
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
