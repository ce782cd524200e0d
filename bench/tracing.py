"""Spans around every call into the program's modules, recorded from outside.

Tracer replaces each public function of each given module with a wrapper
that records a span (layer, function, start, end, parent). The CLI looks
these functions up as module attributes at call time, and the modules call
one another the same way, so nested calls become child spans and a function
a module adds later is attributed to its layer without listing it here.
Spans stay in memory until the caller summarises them.
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

import numpy as np


def _time_series_counts(args):
    # the grid rule of ctqw.time_series: t = 0, dt, ... up to t_max inclusive
    samples = int(np.floor(args["t_max"] / args["dt"] + 1e-9)) + 1
    n = len(args["p"].eigenvalues)
    return {"samples": samples, "tensor_bytes": samples * n * n * 16}


def _rank_nodes_counts(args):
    g = args["g"]
    steps = args["steps"] if args["steps"] is not None else 10 * g.node_count ** 2
    # one coin-and-route update per arc slot per step; a graph has 2E arc slots
    return {"steps": steps, "arc_updates": steps * 2 * len(g.edges)}


# Work counts computed from call arguments, not measured: named "computed"
# wherever they are reported.
COUNTERS = {
    ("ctqw", "time_series"): _time_series_counts,
    ("dtqw", "rank_nodes"): _rank_nodes_counts,
}
COMPUTED_COUNTS = ("ctqw.samples", "ctqw.tensor_bytes", "dtqw.steps", "dtqw.arc_updates")


def public_functions(module):
    """Public functions defined in (not imported into) a module."""
    return {
        name: fn for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


class Tracer:
    """Install with `with tracer:`; read and clear the spans with summary()."""

    def __init__(self, layers):
        self.layers = layers
        self.spans = []
        self.counts = Counter()
        self.counter_errors = []
        self._stack = []
        self._originals = []

    def __enter__(self):
        for layer, module in self.layers.items():
            for name, fn in public_functions(module).items():
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(layer, name, fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals.clear()
        self._stack.clear()

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get((layer, name))
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, name, start, end, parent)
                if counter:
                    self._count(layer, name, counter, signature, args, kwargs)

        return traced

    def _count(self, layer, name, counter, signature, args, kwargs):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts = counter(bound.arguments)
        except (TypeError, KeyError, AttributeError) as exc:
            # a changed signature loses the count, never the run
            self.counter_errors.append(f"{layer}.{name}: {exc!r}")
            return
        for key, value in counts.items():
            self.counts[f"{layer}.{key}"] += value

    def summary(self):
        """Per-layer self time and calls, counts and the spans; clears them.

        A span's self time is its duration minus its direct children's, so
        the layers' self times add up to the time spent inside any layer.
        """
        child_time = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in self.layers}
        functions = Counter()
        inside = 0.0
        for (layer, name, start, end, parent), children in zip(self.spans, child_time):
            layers[layer]["self_s"] += end - start - children
            layers[layer]["calls"] += 1
            functions[f"{layer}.{name}"] += 1
            if parent < 0:
                inside += end - start
        origin = self.spans[0][2] if self.spans else 0.0
        spans = [(layer, name, start - origin, end - origin, parent)
                 for layer, name, start, end, parent in self.spans]
        result = {"layers": layers, "counts": dict(self.counts),
                  "functions": dict(functions), "inside_s": inside, "spans": spans}
        self.spans = []
        self.counts = Counter()
        return result
