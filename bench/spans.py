"""Per-layer tracing of rdhte from outside the package.

Every public function of every ``rdhte`` module is wrapped, and the
wrapper is bound in place of the original in each ``rdhte.*`` namespace
that holds it.  Rebinding everywhere matters: ``fit_side`` is imported by
name into ``bandwidth`` and ``estimands``, ``kernel_eval`` into
``fitting``, and a call through such a copy would otherwise bypass the
wrapper.  Calls made through a module attribute at call time (including
function-local ``from .x import y``) pick the wrapper up as well.

Each call records one span (function, start, end, parent span, op id) in
memory.  A function's self time is its span duration minus the durations
of its direct child spans; spans never overlap on the single caller
thread, so that difference is exactly the uncovered part of the span.
"""

import functools
import inspect
import os
import statistics
import sys
import time

import numpy as np

MODULES = (
    "cli",
    "model",
    "render",
    "estimands",
    "bandwidth",
    "fitting",
    "kernels",
    "basis",
    "inference",
    "simulate",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


#: counters recorded at function boundaries:
#: function -> (counter, amount computed from args, kwargs and result)
COUNTERS = {
    "cli.load_csv": ("cli.bytes_in", lambda a, k, out: os.path.getsize(
        _arg(a, k, 0, "path"))),
    "estimands.fit_hte": ("estimands.records", lambda a, k, out: len(
        out.records)),
    "estimands.cate_at": ("estimands.records", lambda a, k, out: 1),
    "estimands.contrast": ("estimands.records", lambda a, k, out: 1),
    "fitting.side_design": ("fitting.rows_in_window", lambda a, k, out: (
        out[2].size)),
    "kernels.kernel_eval": ("kernels.kernel_eval.rows", lambda a, k, out: (
        np.size(_arg(a, k, 0, "u")))),
    "basis.design_rows": ("basis.design_rows.rows", lambda a, k, out: len(
        _arg(a, k, 0, "u"))),
    "simulate.monte_carlo": ("simulate.rep_failures", lambda a, k, out: (
        out.failures)),
}
COUNTER_NAMES = {key for key, _ in COUNTERS.values()}


class Tracer:
    """Wraps rdhte's public functions and aggregates their spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = {}
        self.op = 0
        self._stack = []
        self._bindings = []
        self._wrappers = {}  # id(original) -> wrapper
        for short in MODULES:
            mod = sys.modules[f"rdhte.{short}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    self._wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        self.functions = sorted(w.span_name for w in self._wrappers.values())

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                key, amount = count
                counters[key] = counters.get(key, 0) + amount(
                    args, kwargs, out)
            return out

        wrapper.span_name = name
        return wrapper

    def install(self):
        """Bind every wrapper in every rdhte namespace holding its original."""
        for modname, mod in list(sys.modules.items()):
            if modname != "rdhte" and not modname.startswith("rdhte."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()

    def summary(self):
        """Per function: calls, inclusive seconds, self seconds, durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
            )
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            row["durations"].append(end - start)
        return out


def layer_metrics(tracer, names, traced_s, untraced_s):
    """Per-op value of each named per-layer metric.

    ``traced_s`` and ``untraced_s`` are the op times of the traced and the
    untraced ops of the same run; every value is divided by the number of
    traced ops, except medians and ratios.
    """
    ops = len(traced_s)
    summary = tracer.summary()
    counters = tracer.counters

    def total(fn, stat):
        return summary.get(fn, {}).get(stat, 0.0)

    derived = {
        "fitting.window_yield": lambda: (
            counters.get("fitting.rows_in_window", 0)
            / counters["kernels.kernel_eval.rows"]
            if counters.get("kernels.kernel_eval.rows") else 0.0),
        "inference.hc_weights.share": lambda: (
            total("inference.hc_weights", "s") / sum(traced_s)),
        "trace.op_s.p50": lambda: statistics.median(traced_s),
        "trace.overhead": lambda: (
            statistics.median(traced_s) / statistics.median(untraced_s)),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]()
        elif name in COUNTER_NAMES:
            values[name] = counters.get(name, 0) / ops
        elif name.endswith(".s.p50"):
            durations = summary.get(name[: -len(".s.p50")], {}).get(
                "durations")
            values[name] = statistics.median(durations) if durations else 0.0
        else:
            fn, _, stat = name.rpartition(".")
            if fn not in tracer.functions or stat not in ("calls", "s",
                                                          "self_s"):
                raise KeyError(f"no tracer rule for metric {name!r}")
            values[name] = total(fn, stat) / ops
    return values

