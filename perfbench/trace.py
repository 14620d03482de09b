"""Spans around calls into the ttckit layers, recorded from outside the package.

Tracer wraps every public function (the names in ``__all__``) of each
layer module in a timing wrapper and installs the wrapper in every
ttckit namespace that holds the function: ``cli`` imports names
directly, and a module's own globals serve its internal calls. Spans are
kept in memory as (name, start, end, parent index) and restored
namespaces leave the package as it was.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "fileio", "simulate", "epipole", "ttc", "camera", "clustering", "stereo")


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Work counts taken at layer boundaries: span name -> hook(args, kwargs,
# result or None when the call raised, parent span name) -> {counter: n}.
COUNT_HOOKS = {
    "fileio.read_tracks_csv": lambda a, kw, r, parent: (
        {"fileio.rows_read": sum(len(t) for t in r[1])} if r else {}
    ),
    "fileio.write_json": lambda a, kw, r, parent: (
        {"fileio.json_bytes": os.path.getsize(path)} if os.path.exists(path := _first(a, kw, "path")) else {}
    ),
    "simulate.simulate": lambda a, kw, r, parent: {"simulate.points": len(r[1].points)} if r else {},
    "simulate.collision_map": lambda a, kw, r, parent: {"simulate.cells": r.min_ttc.size} if r else {},
    "ttc.ttc_batch": lambda a, kw, r, parent: {"ttc.ttc_batch_rows": len(_first(a, kw, "p0"))},
    # a hypothesis is a two-flow least-squares epipole asked for by cluster_flows
    "epipole.epipole_least_squares": lambda a, kw, r, parent: (
        {"clustering.hypotheses": 1}
        if parent == "clustering.cluster_flows" and len(_first(a, kw, "flows")) == 2
        else {}
    ),
    "clustering.cluster_flows": lambda a, kw, r, parent: {"clustering.clusters": len(r[0])} if r else {},
    "stereo.orientation_error_sweep": lambda a, kw, r, parent: (
        {"stereo.trials": r.trials * len(r.rows)} if r else {}
    ),
}
COUNTERS = (
    "fileio.rows_read",
    "fileio.json_bytes",
    "simulate.points",
    "simulate.cells",
    "ttc.ttc_batch_rows",
    "clustering.hypotheses",
    "clustering.clusters",
    "stereo.trials",
)


class Tracer:
    """Context manager: while active, every layer call leaves a span."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.functions: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.functions = []
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ttckit.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
                    self.functions.append(name)
        for modname, module in list(sys.modules.items()):
            if modname != "ttckit" and not modname.startswith("ttckit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def reset(self) -> None:
        """Drop the spans and counts kept so far."""
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack
            parent, parent_name = stack[-1] if stack else (-1, None)
            index = len(self.spans)
            self.spans.append(None)
            stack.append((index, name))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                self.spans[index] = (name, start, end, parent)
                if hook is not None:
                    self.counts.update(hook(args, kwargs, result, parent_name))

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, float]:
        """Totals of the spans kept so far.

        For each wrapped function: <name>_s (summed span time) and
        <name>_calls; for each layer: <layer>.self_s, its spans' time
        minus the time of their child spans; and every counter.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            own[name.split(".", 1)[0]] += end - start - child[i]
        values = {}
        for name in self.functions:
            values[f"{name}_s"] = total[name]
            values[f"{name}_calls"] = calls[name]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = own[layer]
        for counter in COUNTERS:
            values[counter] = self.counts[counter]
        return values

    def write_spans(self, path) -> None:
        """Spans as CSV: name, start and end in seconds, parent row (-1: none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            fh.writelines(f"{n},{s!r},{e!r},{p}\n" for n, s, e, p in self.spans)
