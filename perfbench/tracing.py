"""In-memory spans and counters for the benchmark's traced run.

The tracer wraps the public functions of the sparsedom layers from outside
the package: every module attribute that refers to one of those function
objects (including names bound by ``from .lattice import cube_cells``) is
replaced by a wrapper while the tracer is installed, and restored when it
is removed.  No source file of the package changes.

Each call becomes a span (name, start, end, parent span, trial id).  Spans
live in typed arrays until the run ends, when ``save`` writes them out.  A
span's self time is its duration minus the durations of its direct child
spans; per-layer times are sums of self time, so nested layers are never
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("lattice", "maximal", "sparse", "weights", "operators", "harness")

# Several entry points of one layer that report as one group.
GROUPS = {
    "weights.rc_characteristic": "weights.characteristic",
    "weights.muckenhoupt_characteristic": "weights.characteristic",
    "weights.reverse_holder_characteristic": "weights.characteristic",
    "weights.multilinear_characteristic": "weights.characteristic",
    "harness.ReportBuilder.write": "harness.report_write",
    "operators.discrete_bht.apply": "operators.bht_apply",
}


def _count_verdict(tracer, args, kwargs, result):
    tracer.count("sparse.verify_feasible", int(bool(result.feasible)))


def _count_cells(tracer, args, kwargs, result):
    g = args[1] if len(args) > 1 else kwargs.get("g")
    size = getattr(g, "size", None)
    tracer.count("maximal.cube_averages_cells",
                 int(size) if size is not None else args[0].ncells)


def _count_construction(tracer, args, kwargs, result):
    nodes = result.nodes
    tracer.count("sparse.stopping_nodes", len(nodes))
    tracer.count("sparse.calibration_doublings",
                 sum(int(n.doublings) for n in nodes))


class Tracer:
    """Span and counter store; install() patches, remove() restores."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_trial = array("q")
        self.trial = -1
        self._stack = []          # [span index, start ns, child ns, group]
        self._patches = []        # (owner, attribute, original)
        self.reset_totals()
        self._after = {
            "sparse.verify_sparsity": _count_verdict,
            "maximal.cube_averages": _count_cells,
            "sparse.build_sparse_collection": _count_construction,
            "operators.discrete_bht": self._wrap_operator_apply,
        }

    # -- totals ---------------------------------------------------------

    def reset_totals(self):
        """Start a fresh accumulation of self times, calls and counters."""
        self.self_ns = {}
        self.calls = {}
        self.counters = {}

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self) -> dict:
        """Self seconds, call counts and counters accumulated since reset."""
        out = {f"{g}_s": ns / 1e9 for g, ns in self.self_ns.items()}
        out.update({f"{g}_calls": n for g, n in self.calls.items()})
        out.update(self.counters)
        return out

    # -- spans ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int, group: str):
        index = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter_ns()
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(parent)
        self.span_trial.append(self.trial)
        self._stack.append([index, start, 0, group])

    def _exit(self):
        end = time.perf_counter_ns()
        index, start, child_ns, group = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_ns[group] = self.self_ns.get(group, 0) + duration - child_ns
        if not self._stack or self._stack[-1][3] != group:
            self.calls[group] = self.calls.get(group, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        group = GROUPS.get(name, name)
        after = self._after.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name_id, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def _wrap_operator_apply(self, tracer, args, kwargs, result):
        apply = getattr(result, "apply", None)
        if apply is not None:
            result.apply = self._wrap("operators.discrete_bht.apply", apply)

    # -- patching -------------------------------------------------------

    def install(self, package):
        """Wrap every public function of the layers, wherever it is bound."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue   # a span would close before the work is done
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        harness = importlib.import_module(f"{package.__name__}.harness")
        builder = getattr(harness, "ReportBuilder", None)
        if builder is not None and "write" in vars(builder):
            original = vars(builder)["write"]
            self._patches.append((builder, "write", original))
            builder.write = self._wrap("harness.ReportBuilder.write", original)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ---------------------------------------------------------

    def save(self, path):
        """Write all spans as typed arrays plus the name table (.npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            trial=np.frombuffer(self.span_trial, dtype=np.int64))
