"""In-memory span tracer that wraps the public functions of ``xbarnet`` modules.

A span is (id, name, start, end, parent). Spans nest by call order: the span
open when a wrapped function is entered becomes the parent of the new one.
Self time is a span's duration minus the part of its interval that its child
spans cover. Counters ride along at the same call boundaries.

The package imports functions by name (``from .spectral import eig_smallest``),
so a function is bound under several module attributes. :meth:`Tracer.install`
wraps it at every ``xbarnet`` module attribute that holds the same object, and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return {s.id: s.duration - _covered(children[s.id]) for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += own[s.id]
    return dict(out)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def wrap(self, fn, name: str, before=None, after=None, label=None):
        """Wrap ``fn`` in a span; hooks see (args, kwargs[, result]).

        ``before`` may return a replacement kwargs dict. ``label`` maps
        (args, kwargs) to a suffix appended to the span name.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                kwargs = before(args, kwargs) or kwargs
            span_name = f"{name}.{label(args, kwargs)}" if label is not None else name
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self, module_name: str, func_name: str, **hooks) -> int:
        """Wrap ``module.func`` at every xbarnet module attribute bound to it."""
        original = getattr(sys.modules[module_name], func_name)
        traced = self.wrap(original, f"{module_name.split('.')[-1]}.{func_name}", **hooks)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "xbarnet" or mod_name.startswith("xbarnet.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._patched.append((mod, attr, original))
                    bound += 1
        return bound

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
