"""Spans and counters around the public functions of each ``exlg`` module.

``Tracer.install`` replaces every public function and public method of
the nine ``exlg`` modules with a timing wrapper, in each module namespace
and module-level table that refers to it, and ``uninstall`` puts the
originals back; no file of the program changes.  Each call records a span
(name, start, end, parent) in memory.  Spans nest on one stack, so the
program must run on one thread (``run.threads = 1``), as the benchmark
runs it.  Generator functions are left unwrapped: a span around one would
close before the generator does any work.

Per-layer metrics are computed per traced command from its spans.  A
span's self time is its duration minus the union of its children's
intervals; a layer's self time is the sum over the spans of its module.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("cli", "config", "harness", "tasks", "samplers", "linalg",
          "network", "metrics", "theory")

# metric prefix -> the spans it counts and times
GROUPS = {
    "tasks.grad": ("tasks.LinRegTask.full_grad", "tasks.LinRegTask.stoch_grad",
                   "tasks.LogRegTask.full_grad", "tasks.LogRegTask.stoch_grad"),
    "tasks.curvature": ("tasks.mu_L_bounds",),
    "tasks.minimizer": ("tasks.LinRegTask.minimizer",
                        "tasks.LogRegTask.minimizer"),
    "tasks.target": ("tasks.LinRegTask.target",),
    "samplers.chain": ("samplers.run_chain",),
    "samplers.noise": ("samplers.NoiseStream.gaussian_block",),
    "samplers.batch_stream": ("samplers.NoiseStream.batch_rng",),
    "linalg.mix_apply": ("linalg.mix_apply",),
    "linalg.sym_eig": ("linalg.sym_eig",),
    "linalg.psd_sqrt": ("linalg.psd_sqrt",),
    "network.mixing_build": ("network.build_mixing_set",),
    "network.validate": ("network.validate_assumptions",),
    "theory.params": ("theory.problem_params_from",),
    "theory.certify": ("theory.validate_stepsize",),
    "theory.shrink": ("theory.shrink_to_admissible",),
    "theory.constants": ("theory.compute_constants",),
    "metrics.w2": ("metrics.w2_gaussian",),
    "harness.series": ("harness.series_for_run",),
    "harness.write_csv": ("harness.write_csv",),
    "config.load": ("config.load_config",),
    "harness.build_task": ("harness.build_task",),
}

# metric name -> (group, "calls" | "s")
_GROUP_METRICS = {
    "tasks.grad_calls": ("tasks.grad", "calls"),
    "tasks.grad_s": ("tasks.grad", "s"),
    "tasks.curvature_calls": ("tasks.curvature", "calls"),
    "tasks.minimizer_calls": ("tasks.minimizer", "calls"),
    "tasks.target_calls": ("tasks.target", "calls"),
    "samplers.chain_calls": ("samplers.chain", "calls"),
    "samplers.chain_s": ("samplers.chain", "s"),
    "samplers.noise_blocks": ("samplers.noise", "calls"),
    "samplers.noise_s": ("samplers.noise", "s"),
    "samplers.batch_streams": ("samplers.batch_stream", "calls"),
    "samplers.batch_stream_s": ("samplers.batch_stream", "s"),
    "linalg.mix_apply_calls": ("linalg.mix_apply", "calls"),
    "linalg.mix_apply_s": ("linalg.mix_apply", "s"),
    "linalg.sym_eig_calls": ("linalg.sym_eig", "calls"),
    "linalg.sym_eig_s": ("linalg.sym_eig", "s"),
    "linalg.psd_sqrt_calls": ("linalg.psd_sqrt", "calls"),
    "network.mixing_builds": ("network.mixing_build", "calls"),
    "network.mixing_build_s": ("network.mixing_build", "s"),
    "network.validate_s": ("network.validate", "s"),
    "theory.params_calls": ("theory.params", "calls"),
    "theory.params_s": ("theory.params", "s"),
    "theory.certify_s": ("theory.certify", "s"),
    "theory.shrink_s": ("theory.shrink", "s"),
    "theory.constants_s": ("theory.constants", "s"),
    "metrics.w2_calls": ("metrics.w2", "calls"),
    "metrics.w2_s": ("metrics.w2", "s"),
    "harness.series_s": ("harness.series", "s"),
    "harness.write_csv_s": ("harness.write_csv", "s"),
    "config.load_s": ("config.load", "s"),
    "harness.build_task_s": ("harness.build_task", "s"),
}

COVERAGE_MIN = 0.90
"""Share of the traced ``cli.main`` time the layer spans must cover."""

PER_LAYER_UNITS = {
    **{name: ("count" if kind == "calls" else "s")
       for name, (_g, kind) in _GROUP_METRICS.items()},
    "samplers.chain_self_s": "s",
    "linalg.sym_eig_distinct_frac": "ratio",
    "harness.csv_rows": "count",
    "harness.csv_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    Children are clipped to their parent's interval; overlapping children
    count once.  Integer times (nanoseconds) give exact results.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    g = parent[kids]
    lo = np.maximum(start[kids], start[g])
    hi = np.maximum(np.minimum(end[kids], end[g]), lo)
    order = np.lexsort((lo, g))
    g, lo, hi = g[order], lo[order], hi[order]
    # Shift each parent's children into a band of their own, so one running
    # maximum merges overlapping intervals without crossing parents.
    t0 = int(start.min())
    band = int(end.max()) - t0 + 1
    klo = g * band + (lo - t0)
    khi = g * band + (hi - t0)
    reach = np.concatenate(([-1], np.maximum.accumulate(khi)[:-1]))
    covered = np.maximum(khi - np.maximum(klo, reach), 0)
    np.subtract.at(out, g, covered)
    return out


def _outermost(mask, parent) -> np.ndarray:
    """Spans in ``mask`` with no ancestor in ``mask``."""
    has_parent = parent >= 0
    p = np.where(has_parent, parent, 0)
    inside = np.zeros_like(mask)
    while True:
        nxt = has_parent & (mask[p] | inside[p])
        if np.array_equal(nxt, inside):
            return mask & ~inside
        inside = nxt


class Tracer:
    """Wraps ``exlg`` functions with span recorders; one thread only."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.command = array("i")   # index of the first span per command
        self._stack: list = []
        self._restore: list = []
        self._eig_inputs: list = []
        self._csv = [0, 0]          # rows, bytes

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"exlg.{layer}")
                   for layer in LAYERS}
        observers = {"linalg.sym_eig": self._observe_sym_eig,
                     "harness.write_csv": self._observe_write_csv}
        wrapped = {}
        for layer, mod in modules.items():
            for key, obj in vars(mod).items():
                if key.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if _wrappable(obj):
                    name = f"{layer}.{key}"
                    wrapped[obj] = self._wrap(name, obj, observers.get(name))
                elif inspect.isclass(obj) and not issubclass(
                        obj, BaseException) \
                        and not getattr(obj, "_is_protocol", False):
                    for mkey, meth in list(vars(obj).items()):
                        if not mkey.startswith("_") and _wrappable(meth):
                            self._set(obj, mkey, self._wrap(
                                f"{layer}.{key}.{mkey}", meth))
        for mod in modules.values():
            for key, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, key, wrapped[obj])
                elif isinstance(obj, dict):
                    # tables such as the CLI's command map
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._set_item(obj, k, wrapped[v])

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def _set(self, target, key, value):
        old = getattr(target, key)
        setattr(target, key, value)
        self._restore.append(lambda: setattr(target, key, old))

    def _set_item(self, table, key, value):
        old = table[key]
        table[key] = value
        self._restore.append(lambda: table.__setitem__(key, old))

    def _wrap(self, name, fn, observe=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents = self.name, self.start, self.end, \
            self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_sym_eig(self, args, kwargs, _result):
        a = args[0] if args else kwargs["a"]
        data = np.ascontiguousarray(np.asarray(a, dtype=float))
        self._eig_inputs.append(
            hashlib.sha1(repr(data.shape).encode() + data.tobytes()).digest())

    def _observe_write_csv(self, args, kwargs, rows):
        path = args[0] if args else kwargs["path"]
        self._csv[0] += int(rows)
        self._csv[1] += os.path.getsize(path)

    # -- per-command metrics ----------------------------------------------

    def begin_command(self):
        self.command.append(len(self.start))
        self._eig_inputs = []
        self._csv = [0, 0]

    def end_command(self) -> dict:
        """Per-layer metrics of the spans since ``begin_command``."""
        first = self.command[-1]
        name = np.asarray(self.name[first:], dtype=np.int64)
        start = np.asarray(self.start[first:], dtype=np.int64)
        end = np.asarray(self.end[first:], dtype=np.int64)
        parent = np.asarray(self.parent[first:], dtype=np.int64)
        parent = np.where(parent >= 0, parent - first, -1)
        dur = end - start
        own = self_times(start, end, parent)

        def mask_of(pred):
            ids = [i for i, n in enumerate(self.names) if pred(n)]
            return np.isin(name, ids)

        def seconds(ns):
            return float(ns) / 1e9

        out = {}
        group_mask = {g: mask_of(lambda n, s=set(names): n in s)
                      for g, names in GROUPS.items()}
        for metric, (group, kind) in _GROUP_METRICS.items():
            mask = group_mask[group]
            if kind == "calls":
                out[metric] = int(mask.sum())
            else:
                out[metric] = seconds(dur[_outermost(mask, parent)].sum())
        chain = mask_of(lambda n: n == "samplers.run_chain"
                        or n.startswith("samplers.step_"))
        out["samplers.chain_self_s"] = seconds(own[chain].sum())
        calls = len(self._eig_inputs)
        out["linalg.sym_eig_distinct_frac"] = (
            len(set(self._eig_inputs)) / calls if calls else 1.0)
        out["harness.csv_rows"], out["harness.csv_bytes"] = self._csv
        for layer in LAYERS:
            out[f"{layer}.self_s"] = seconds(
                own[mask_of(lambda n: n.startswith(layer + "."))].sum())
        root = mask_of(lambda n: n == "cli.main")
        command = root | mask_of(lambda n: n.startswith("harness.cmd_"))
        total = dur[root].sum()
        inner = dur[_outermost(~command, parent)].sum()
        out["trace.coverage"] = float(inner / total) if total else 0.0
        return out

    def save(self, path: str):
        """Write every recorded span, with its command index."""
        n = len(self.start)
        command = np.zeros(n, dtype=np.int32)
        for c, first in enumerate(self.command):
            command[first:] = c
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name=np.asarray(self.name, dtype=np.int32),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int32),
            command=command)


def _wrappable(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
