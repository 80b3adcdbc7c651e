"""Alternating pairs of benchmark runs on two source trees, in one file.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE [--label LABEL]
        [--pairs N] [--seconds S] [--claim JSON] [WORKLOAD ...]

Each tree is a checkout of this repository, best a copy of its own: the
benchmark compiles the tree's sources and writes under its
``.bench_out/``.  For each workload (default: every one that
``BENCHMARK.json`` declares) and each of N pairs (default 10),
``perfbench/run.py --workload W --seconds S`` runs in both trees, the
parent first in odd pairs and the change first in even ones.

``BENCH_<LABEL>.json`` (default label ``pairs``) is written at the root
of the checkout holding this script.  It keeps every run's ``result``
line and gives, per workload, the failed and attempted commands of each
side, whether every run was correct, and for each end-to-end metric of
``BENCHMARK.json`` both sides' medians and quartiles
(``statistics.quantiles``), the change's median over the parent's minus
1, and the pairs in which the change was better.  ``--claim`` is the
file's ``claim`` (a JSON value; default null).  Standard library only.
The exit code is 1 when a run fails or is not correct, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def bench(tree: str, workload: str, seconds: float) -> tuple:
    """One benchmark run of ``workload`` in ``tree``: its ``info`` and
    ``result`` (the last two stdout lines), or (None, None) when it
    exits non-zero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None, None
    info, result = proc.stdout.splitlines()[-2:]
    return json.loads(info), json.loads(result)


def summarize(runs: list, metrics: list) -> dict:
    """The per-metric summary of one workload's ``runs``."""
    out = {}
    for m in metrics:
        name = m["name"]
        better = ((lambda c, p: c < p) if m["better"] == "lower"
                  else (lambda c, p: c > p))
        value = {(r["pair"], r["side"]): r["result"]["metrics"][name]["value"]
                 for r in runs if r["result"] is not None}
        row = {"unit": m["unit"]}
        for side in SIDES:
            vals = [v for (_, s), v in value.items() if s == side]
            q1, median, q3 = (statistics.quantiles(vals, n=4)
                              if len(vals) > 1 else [None] * 3)
            row.update({f"{side}_median": median, f"{side}_q1": q1,
                        f"{side}_q3": q3})
        row["change_over_parent"] = (
            row["change_median"] / row["parent_median"] - 1.0
            if row["change_median"] is not None
            and row["parent_median"] is not None else None)
        row["pairs_change_better"] = sum(
            better(value[p, "change"], value[p, "parent"])
            for p, side in value
            if side == "change" and (p, "parent") in value)
        out[name] = row
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT_TREE")
    ap.add_argument("change", metavar="CHANGE_TREE")
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help="workloads to run (default: all): "
                         + ", ".join(names))
    ap.add_argument("--label", default="pairs")
    ap.add_argument("--pairs", type=int, default=10, metavar="N")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    metavar="S")
    ap.add_argument("--claim", type=json.loads, default=None,
                    metavar="JSON")
    args = ap.parse_intermixed_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2")
    unknown = set(args.workloads) - set(names)
    if unknown:
        ap.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    trees = {"parent": args.parent, "change": args.change}

    ok, machine, sources, workloads = True, None, {}, {}
    for name in args.workloads or names:
        runs = []
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                info, result = bench(trees[side], name, args.seconds)
                ok = ok and result is not None and result["correct"]
                runs.append({"pair": pair, "side": side, "result": result})
                if info is not None:
                    machine = machine or info["machine"]
                    sources[side] = {k: info["machine"][k]
                                     for k in ("git_commit", "src_sha256")}
                print(f"{name} pair {pair} {side}: "
                      + ("failed" if result is None else json.dumps(
                          {k: v["value"]
                           for k, v in result["metrics"].items()})),
                      flush=True)
        done = [r for r in runs if r["result"] is not None]
        workloads[name] = {
            "pairs": args.pairs,
            "failed": {s: sum(r["result"]["failed"] for r in done
                              if r["side"] == s) for s in SIDES},
            "attempted": {s: sum(r["result"]["attempted"] for r in done
                                 if r["side"] == s) for s in SIDES},
            "correct": {s: all(
                r["result"] is not None and r["result"]["correct"]
                for r in runs if r["side"] == s) for s in SIDES},
            "summary": summarize(runs, spec["end_to_end"]),
            "runs": runs,
        }

    if machine is None:
        print("bench_pairs: no run finished", file=sys.stderr)
        return 1
    blas = machine["blas"].get("blas", {}) if isinstance(
        machine["blas"], dict) else {}
    report = {
        "what": (
            f"Alternating pairs of `python3 perfbench/run.py --workload W "
            f"--seconds {args.seconds:g}` (pinned seeds, trace off) on the "
            f"parent tree and on the change tree, each run from its own "
            f"copy, on one machine with {machine['nproc']} CPUs "
            f"({machine['cpus_usable']} usable; Python {machine['python']}, "
            f"numpy {machine['numpy']}, {blas.get('name', 'BLAS')} "
            f"{blas.get('version', '')}, BLAS threads "
            f"{machine['threads_env'].get('OPENBLAS_NUM_THREADS')}). Odd "
            f"pairs ran the parent first, even pairs the change first. "
            f"Every run's last stdout line (`result`: correctness, "
            f"attempts, failures and the end-to-end metrics) is kept."),
        "claim": args.claim,
        **{side: {**sources.get(side, {}),
                  "note": "src_sha256 is sha256 over the name and bytes of "
                          "each src/exlg/*.py, sorted by name, as "
                          "perfbench/run.py computes it; git_commit is null "
                          "for a tree without .git"}
           for side in SIDES},
        "workloads": workloads,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
