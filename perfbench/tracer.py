"""In-memory span and count recorder for the traced benchmark run.

A span is ``(name, start, end, parent, op)``: the benchmark opens one around
each public library call it makes, so spans nest only as deep as the
benchmark's own calls do (an op span, the library calls inside it, and the
CLI stages read back from each manifest).  Nothing inside the library is
instrumented.  Spans stay in memory until :meth:`Tracer.write` at the end of
the run.

``NULL`` is the untraced stand-in: the same interface, no bookkeeping.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records spans and per-op counts; ``op`` tags everything recorded."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[int | None, Counter] = defaultdict(Counter)
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the block; yields the span's index for :meth:`add_child`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add_child(self, parent: int, name: str, start: float, ms: float) -> None:
        """Record a finished span of known duration under ``parent``."""
        self.spans.append(Span(name, start, start + ms / 1e3, parent, self.op))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.op][name] += amount

    def self_ms(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ms
        return own

    def per_op_self_ms(self, ops: set[int]) -> dict[str, float]:
        """Self time summed by span name over ``ops``, divided by their number."""
        totals: Counter = Counter()
        for s, own in zip(self.spans, self.self_ms()):
            if s.op in ops:
                totals[s.name] += own
        return {name: ms / max(len(ops), 1) for name, ms in totals.items()}

    def per_op_calls(self, ops: set[int]) -> dict[str, float]:
        calls: Counter = Counter(s.name for s in self.spans if s.op in ops)
        return {name: n / max(len(ops), 1) for name, n in calls.items()}

    def per_op_counts(self, ops: set[int]) -> dict[str, float]:
        totals: Counter = Counter()
        for op in ops:
            totals.update(self.counts.get(op, {}))
        return {name: n / max(len(ops), 1) for name, n in totals.items()}

    def write(self, path, extra: dict) -> None:
        """Write every span with its self time, plus ``extra``, as JSON."""
        origin = min((s.start for s in self.spans), default=0.0)
        rows = [
            {"name": s.name, "start_ms": round((s.start - origin) * 1e3, 4),
             "end_ms": round((s.end - origin) * 1e3, 4), "parent": s.parent,
             "op": s.op, "self_ms": round(own, 4)}
            for s, own in zip(self.spans, self.self_ms())
        ]
        counts = {str(op): dict(c) for op, c in self.counts.items()}
        payload = dict(extra, spans=rows, counts=counts)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


class _NullTracer:
    @contextmanager
    def span(self, name):
        yield None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add_child(self, parent, name, start, ms):
        pass

    def count(self, name, amount=1):
        pass


NULL = _NullTracer()
