"""Span tracer that wraps the public functions of the smlc modules from outside.

`Tracer.install` replaces every listed function by a wrapper that records a
span: name, start, end, parent span and the instance id the benchmark set.
Each function is rebound under every name that refers to it in every loaded
smlc module, because the modules import each other's functions by name (for
example `regular` is imported by passes, generators, serialize and pipeline);
rebinding only the defining module would miss those calls.  Spans stay in
memory until `write` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer (the smlc module name) -> the public functions traced in it
LAYERS = {
    "circuit": ("regular", "infer_order", "validate"),
    "serialize": ("loads", "dumps", "bouquet_from_obj", "circuit_from_obj", "circuit_to_obj"),
    "passes": ("compose", "reverse", "project", "merge_summands", "monotone_subsequence"),
    "poly": ("eval_circuit", "eval_bouquet", "expand", "expand_bouquet", "reference_det"),
    "generators": ("det_regular_circuit", "det_bouquet"),
    "pipeline": ("reduce_to_single", "normalize_first"),
    "cli": ("main",),
}


def _bouquet_nodes(bouquet) -> int:
    return sum(len(rc.circuit.nodes) for rc in bouquet.summands)


# span name -> counters it records, from its first argument and its result
COUNTERS = {
    "circuit.regular": lambda arg, out: {"circuit.regular.nodes": len(arg.nodes)},
    # dumps writes ASCII-only JSON, so characters are bytes; encoding 17 MB
    # here would bill the parent span for the measurement
    "serialize.loads": lambda arg, out: {"serialize.bytes_in": len(arg)},
    "serialize.dumps": lambda arg, out: {"serialize.bytes_out": len(out)},
    "passes.project": lambda arg, out: {
        "passes.project.nodes_in": _bouquet_nodes(arg),
        "passes.project.nodes_out": _bouquet_nodes(out),
    },
    "poly.eval_circuit": lambda arg, out: {"poly.eval_circuit.nodes": len(arg.nodes)},
    "pipeline.reduce_to_single": lambda arg, out: {"pipeline.steps": len(out[1].steps)},
}

COUNTER_UNITS = {
    "circuit.regular.nodes": "nodes",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
    "passes.project.nodes_in": "nodes",
    "passes.project.nodes_out": "nodes",
    "poly.eval_circuit.nodes": "nodes",
    "pipeline.steps": "steps",
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "counts")

    def __init__(self, name: str, parent: int | None, instance: str):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = 0.0
        self.counts: dict[str, int] | None = None

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "instance": self.instance,
            "counts": self.counts,
        }


class Tracer:
    """Records spans while installed; `instance` tags every span opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = ""
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.instance)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counts = count(args[0], out)
            return out

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key == "smlc" or key.startswith("smlc.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"smlc.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def summary(self, prefix: str) -> tuple[dict, dict, float]:
        """Per span name (calls, self seconds), counter totals and root-span time.

        Only spans whose instance id starts with `prefix` are included.  Self
        time is a span's duration minus the durations of its direct children;
        calls within one instance never overlap, so that is the part of the
        interval no child covers.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        roots = 0.0
        for idx, span in enumerate(self.spans):
            if not span.instance.startswith(prefix):
                continue
            duration = span.end - span.start
            calls[span.name] += 1
            self_s[span.name] += duration - child_time[idx]
            if span.parent is None:
                roots += duration
            for key, amount in (span.counts or {}).items():
                counts[key] += amount
        return {name: (calls[name], self_s[name]) for name in SPAN_NAMES}, dict(counts), roots

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_obj(), separators=(",", ":")))
                fh.write("\n")
