"""Spans around genlink's public functions, installed from outside the
package.

A span is (id, parent id, name, metric, start, end, op): name is the
wrapped function's qualified name, metric the name it is reported under
(`orders.compare` covers both term orders), and op numbers the CLI
invocation that caused it. The spans of the current pass stay in memory;
the last pass's are written out once, when the run ends. A layer is a module; a function's self time is its span
minus the time its child spans cover.

`monomial` gets no spans: its calls are too small and too frequent to wrap,
so their cost shows in the self time of the callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("ideals", "linkage", "orders", "serialize", "verify", "cli")


# Size counts taken at the span boundary: metric -> (args, result) -> {count: amount}.
COUNTERS = {
    "ideals.symbolic_power": lambda args, r: {"ideals.symbolic_power.gens_out": len(r.gens)},
    "ideals.minimal_primes": lambda args, r: {"ideals.minimal_primes.primes_out": len(r)},
    "ideals.product": lambda args, r: {
        "ideals.product.candidates": len(args[0].gens) * len(args[1].gens),
        "ideals.product.gens_out": len(r.gens),
    },
    "ideals.contains": lambda args, r: {"ideals.contains.hits": int(r)},
}


def _serialized_bytes(args, result):
    return {"serialize.bytes_out": len(result.encode())} if isinstance(result, str) else {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # this pass's; span id = base + index
        self.base = 0
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    def start_pass(self) -> None:
        """Drop the previous pass's spans and counts; ids keep increasing."""
        self.base += len(self.spans)
        self.spans.clear()
        self.counts.clear()

    def wrap(self, span_name: str, metric: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(metric)
        if metric.startswith("serialize."):
            counter = _serialized_bytes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            sid = self.base + index
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (sid, parent, span_name, metric, start, end, self.op)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    counts[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method defined in the traced
        layers, wherever a genlink module holds a reference to it."""
        for layer in LAYERS:
            importlib.import_module(f"genlink.{layer}")
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "genlink" or name.startswith("genlink.")
        }
        replaced = {}
        for layer in LAYERS:
            mod = modules[f"genlink.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{name}", f"{layer}.{name}", obj)
                    replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        span = f"{layer}.{name}.{attr}"
                        setattr(obj, attr, self.wrap(span, f"{layer}.{attr}", fn))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(mod, name, replaced[id(obj)][1])

    def write(self, path) -> None:
        """Write this pass's spans, one JSON array per line, after a header
        line naming the fields."""
        with open(path, "w") as handle:
            handle.write(json.dumps(["id", "parent", "name", "metric", "start", "end", "op"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def summarize(spans, counts) -> dict[str, float]:
    """Per-function calls and self time, per-layer self time, and the size
    counts, for the given spans (one pass)."""
    child = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: defaultdict[str, float] = defaultdict(int)
    for sid, _, _, metric, start, end, _ in spans:
        own = end - start - child[sid]
        out[metric + ".self_s"] += own
        out[metric + ".calls"] += 1
        out[metric.split(".")[0] + ".self_s"] += own
    out.update(counts)
    return dict(out)
