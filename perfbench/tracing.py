"""In-memory spans recorded around the benchmark's calls into hlevels.

A span has a name, start and end (perf_counter seconds), the id of the span
open around it, the id of the op (trace) it belongs to, and attributes.
Spans are kept in memory and written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _NullTracer:
    """Records nothing; used for every untraced measurement."""

    def begin_trace(self):
        pass

    def span(self, name, **attrs):
        return _NULL_SPAN


NULL_TRACER = _NullTracer()


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.record = {"name": name, "attrs": attrs}

    def __enter__(self):
        t = self.tracer
        t.next_id += 1
        self.record["id"] = t.next_id
        self.record["parent"] = t.stack[-1] if t.stack else None
        self.record["trace"] = t.trace_id
        t.stack.append(t.next_id)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record["end"] = time.perf_counter()
        self.record["error"] = exc_type.__name__ if exc_type else None
        self.tracer.stack.pop()
        self.tracer.spans.append(self.record)
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.trace_id = 0

    def begin_trace(self):
        """Start a new trace id: the spans of one op share it."""
        self.trace_id += 1

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def durations_ms(self, name, **attrs) -> list:
        return [
            1e3 * (s["end"] - s["start"])
            for s in self.spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def median_ms(self, name, **attrs) -> float:
        durations = self.durations_ms(name, **attrs)
        if not durations:
            raise LookupError(f"no span {name} {attrs}")
        return statistics.median(durations)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
