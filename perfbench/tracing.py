"""Spans, counters and the tape census, recorded from the benchmark's files.

Nothing under src/ is edited.  The traced run wraps the calls that cross a
layer boundary: the field handed to integrate_adaptive, the dynamics function
inside each RK4 rollout, and the loss, backward and optimizer calls that
train() makes.  Wrappers are installed for the traced rounds only, so the
plain rounds of the same process run the plain code.
"""
from __future__ import annotations

import gc
import resource
import statistics
import time
import types
from collections import Counter, defaultdict


class Tracer:
    """In-memory spans: (name, start, end, parent index), written out at the end."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((name, time.perf_counter(), 0.0, parent))
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                name_, start, _, parent_ = self.spans[index]
                self.spans[index] = (name_, start, time.perf_counter(), parent_)
        return traced

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span with this name."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self, name: str) -> list[float]:
        """Span duration minus the time its direct child spans cover."""
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (n, start, end, _) in enumerate(self.spans) if n == name]


class Patch:
    """Set attributes for the duration of a with-block, then restore them."""

    def __init__(self, *triples):
        self.triples = triples
        self.saved = []

    def __enter__(self):
        for owner, attr, value in self.triples:
            # an instance attribute shadowing a method is deleted again, not kept
            self.saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, value)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.saved):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self.saved.clear()


def traced_rollout(tracer: Tracer, original, span: str):
    """rollout_fixed whose dynamics calls are child spans, so its self time is RK4's own."""
    def rollout(f, z0, times, substeps=1):
        return tracer.wrap(span, original)(tracer.wrap("dynamics", f), z0, times, substeps)
    return rollout


def module_with(module, **overrides):
    """A stand-in for `module` in one caller's namespace, with some names replaced."""
    stand_in = types.SimpleNamespace(**vars(module))
    for name, value in overrides.items():
        setattr(stand_in, name, value)
    return stand_in


def tape_census(tape, start: int, end: int) -> dict:
    """Node count and array elements by op for tape nodes [start, end)."""
    elements = Counter()
    for node in tape.nodes[start:end]:
        elements[node.op or "input"] += node.value.size
    return {"nodes": end - start, "elements": dict(sorted(elements.items()))}


class ProcessCounters:
    """GC pauses (from gc.callbacks) and minor faults (from getrusage) of this process."""

    def __init__(self):
        self.pauses: list[float] = []
        self._gc_start = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.pauses.append(time.perf_counter() - self._gc_start)

    def snapshot(self) -> tuple[int, int]:
        """(collections so far, minor faults so far)."""
        return len(self.pauses), resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def since(self, mark: tuple[int, int]) -> dict:
        collections, minflt = self.snapshot()
        return {"gc.collections": collections - mark[0],
                "gc.pause_ms": 1e3 * sum(self.pauses[mark[0]:collections]),
                "minflt": minflt - mark[1]}

    def close(self):
        gc.callbacks.remove(self._on_gc)


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def percentile(values, q: int, default=0.0) -> float:
    """q-th percentile with linear interpolation between samples."""
    if not values:
        return default
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
