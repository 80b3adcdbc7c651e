"""One benchmark process: time the set-up, then run one workload's command
in a closed loop and check every output.

Started by ``run.py``, never by hand.  The set-up clock starts before
``exlg`` (and with it numpy) is imported; interpreter start-up is not
counted.  The result goes to ``--result`` as JSON.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

MIN_COMMANDS = 1
"""Commands a run makes even when they outlast ``--seconds``.  Beyond
that, a command starts only if the median so far says it ends in time."""


def timed_setup(config_path: str) -> dict:
    """Import exlg and build the run's inputs through the public harness:
    load_config, build_task, build_mixing, check_assumptions.

    Returns the set-up's wall seconds and its refs, converted to seconds
    at ``refclock.QUIET_BLOCK_S`` per ref.  The clock starts once numpy is
    imported, and its blocks stand for the host's speed over the whole
    set-up."""
    import refclock

    with refclock.RefClock() as clock:
        from exlg import config, harness

        cfg = config.load_config(config_path)
        harness.build_task(cfg)
        harness.check_assumptions(harness.build_mixing(cfg), cfg)
        wall = time.perf_counter() - T_START
    refs = clock.refs_since((0, 0.0), wall)
    return {"setup_s": refs * refclock.QUIET_BLOCK_S, "setup_wall_s": wall}


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k][f] for f in ("name", "version",
                                             "openblas configuration")
                    if f in deps[k]}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Loop:
    """Runs the workload's command and checks each run's outputs."""

    def __init__(self, workload: str, config_path: str, out: str,
                 pinned: bool):
        from exlg import cli

        self.cli = cli
        self.workload = workloads.WORKLOADS[workload]
        self.out = out
        self.argv = self.workload.argv(config_path, out)
        self.pinned = pinned
        self.clock = None     # a RefClock, when commands are timed in refs
        self.refs = []
        self.digests = None
        self.max_rel_dev = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_once(self) -> float:
        """One command; returns its wall time.  Failures are recorded."""
        shutil.rmtree(self.out, ignore_errors=True)
        buf = io.StringIO()
        self.attempted += 1
        mark = self.clock.mark() if self.clock else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(self.argv)
        except SystemExit as e:
            rc = e.code
        except Exception:  # the loop keeps running and counts the failure
            traceback.print_exc()
            rc = "exception"
        wall = time.perf_counter() - t0
        if self.clock:
            self.refs.append(self.clock.refs_since(mark, wall))

        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        missing = [n for n in self.workload.outputs
                   if not os.path.exists(os.path.join(self.out, n))]
        if missing:
            problems.append(f"missing outputs {missing}")
        if not problems:
            digests = {n: _digest(os.path.join(self.out, n))
                       for n in self.workload.outputs}
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("CSV bytes differ from an earlier run")
            try:
                problems += workloads.sanity_problems(
                    self.workload, self.out, buf.getvalue())
                if self.pinned:
                    dev = workloads.reference_dev(self.workload, self.out)
                    self.max_rel_dev = max(self.max_rel_dev, dev)
                    if not dev <= workloads.REL_TOL:
                        problems.append(f"deviation {dev!r} from the "
                                        "pinned reference")
            except (OSError, ValueError) as e:
                problems.append(f"unreadable output: {e}")
        if problems:
            self.failed += 1
            self.problems.append("; ".join(problems))
        return wall

    def run_for(self, seconds: float, at_least: int) -> list:
        walls = []
        t_end = time.perf_counter() + seconds
        while len(walls) < at_least or (
                time.perf_counter() + statistics.median(walls) <= t_end):
            walls.append(self.run_once())
        return walls


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pinned", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    result = timed_setup(args.config)
    if not args.setup_only:
        loop = Loop(args.workload, args.config, args.out, bool(args.pinned))
        if args.trace:
            result.update(traced_loop(loop, args))
        else:
            import refclock

            with refclock.RefClock() as loop.clock:
                result["wall_s"] = loop.run_for(args.seconds, MIN_COMMANDS)
            result["wall_ref"] = loop.refs
            result["ref_block_s"] = statistics.median(loop.clock.blocks)
        result.update(attempted=loop.attempted, failed=loop.failed,
                      problems=loop.problems[:20], digests=loop.digests,
                      max_rel_dev=loop.max_rel_dev if args.pinned else None,
                      machine=machine_facts())
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def traced_loop(loop: Loop, args) -> dict:
    """Untraced commands for half the time, then traced ones.

    The traced phase must leave the CSV bytes as the untraced one wrote
    them; the loop's digest check enforces that.
    """
    import tracing

    untraced = loop.run_for(args.seconds / 2, 1)
    tracer = tracing.Tracer()
    tracer.install()
    traced, per_command = [], []
    t_end = time.perf_counter() + args.seconds / 2
    try:
        while not traced or time.perf_counter() < t_end:
            tracer.begin_command()
            traced.append(loop.run_once())
            per_command.append(tracer.end_command())
    finally:
        tracer.uninstall()
    tracer.save(os.path.join(os.path.dirname(args.result), "spans.npz"))
    layers = {name: statistics.median_low(m[name] for m in per_command)
              for name in per_command[0]}
    layers["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(untraced) - 1.0)
    if layers["trace.coverage"] < tracing.COVERAGE_MIN:
        # one more check, counted like a command
        loop.attempted += 1
        loop.failed += 1
        loop.problems.append(
            f"layer spans cover {layers['trace.coverage']:.3f} of cli.main, "
            f"below {tracing.COVERAGE_MIN}")
    return {"layers": layers, "units": tracing.PER_LAYER_UNITS,
            "wall_s": untraced, "traced_wall_s": traced}


if __name__ == "__main__":
    main()
