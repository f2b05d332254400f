"""In-memory span tracing around the calls one layer makes into another.

A traced run replaces module attributes (``stablespline.gibbs.posterior_moments``
and the like) with timing wrappers, so every call a layer makes through that
name records a span: its metric name, its parent span, start and end times,
whether it failed, and the bytes it moved for file readers and writers.
Spans stay in memory until the run ends.  Nothing under ``src/`` changes: the
wrappers live only in this process and are removed by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float | None = None
    failed: bool = False
    nbytes: int = 0


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        s = self._open(name)
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            self._close(s)

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` wrapped in a span; ``after(span, args, result)`` runs
        once the span is closed, so its own cost is not counted."""

        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.failed = True
                raise
            finally:
                self._close(s)
            if after is not None:
                after(s, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, after))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end,
                    "failed": s.failed, "bytes": s.nbytes,
                }) + "\n")


def record_file_size(span: Span, args, result) -> None:
    """For a reader or writer whose first argument is the file path."""
    span.nbytes = os.path.getsize(args[0])


def mark_nonfinite_failed(span: Span, args, result) -> None:
    """An objective evaluation that returns inf or nan counts as failed."""
    if not math.isfinite(result):
        span.failed = True


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s.parent is None else out[s.parent])
    return out
