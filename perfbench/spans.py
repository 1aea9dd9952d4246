"""In-memory spans for the traced run.

A span records (name, start, end, parent, run id, attrs). Spans stay in a
list until the process ends and are then written out as JSON in one go.
Self time is a span's duration minus the time its direct children cover;
calls are single threaded, so children never overlap.

Untraced runs get NullTracer instead, whose span() and wrap() cost
nothing.
"""

from __future__ import annotations

import contextlib
import json
import time

now = time.perf_counter


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index, attrs]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = [name, now(), None, self._stack[-1] if self._stack else None, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec[4]
        finally:
            self._stack.pop()
            rec[2] = now()

    def wrap(self, name, fn, **attrs):
        """Callable that runs fn inside a span of its own."""
        if fn is None:
            return None

        def wrapped(*args, **kwargs):
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapped

    def dump(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id, "attrs": a}
            for n, s, e, p, a in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


class NullTracer:
    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield attrs

    def wrap(self, name, fn, **attrs):
        return fn


def self_times(spans):
    """Self time per span: its duration minus its direct children's."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
