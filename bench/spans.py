"""In-memory spans around the benchmark's calls into tribraid.

A span records a name, start and end (perf_counter seconds), the span that
caused it and an operation id shared by every span of one benchmark
operation, plus counts attached at the same point.  Spans are kept in a
list and written out once, when the run ends.  A disabled tracer hands out
one shared no-op span, so untraced rounds pay only a method call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("sid", "name", "parent", "op_id", "start", "end", "counts")

    def __init__(self, sid, name, parent, op_id, counts):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op_id = op_id
        self.counts = counts
        self.start = self.end = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> dict:
        self.tracer.spans.append(self.span)
        self.tracer.stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span.counts

    def __exit__(self, *exc) -> bool:
        self.span.end = time.perf_counter()
        self.tracer.stack.pop()
        return False


class _Disabled:
    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> bool:
        return False


_DISABLED = _Disabled()


class Tracer:
    """`with tracer.span(name, **counts) as counts:` times one call; counts
    known only after the call are added to the yielded dict."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.ops = 0

    def span(self, name: str, **counts):
        if not self.enabled:
            return _DISABLED
        if self.stack:
            parent = self.stack[-1]
            span = Span(len(self.spans), name, parent.sid, parent.op_id, counts)
        else:
            self.ops += 1
            span = Span(len(self.spans), name, None, self.ops, counts)
        return _Open(self, span)

    def write(self, path) -> None:
        rows = [
            {
                "id": s.sid,
                "name": s.name,
                "parent": s.parent,
                "op": s.op_id,
                "start": s.start,
                "end": s.end,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def self_seconds(spans) -> dict:
    """Self time per layer: each span's duration minus the time its direct
    children cover (children of one span never overlap)."""
    covered: dict = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    out: dict = defaultdict(float)
    for s in spans:
        out[s.layer] += s.duration - covered[s.sid]
    return out
