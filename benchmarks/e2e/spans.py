"""The benchmark's own span recorder.

Spans are recorded *around* calls into each layer's public entry
points, from the benchmark's files only (``src/`` carries no span).
One :class:`Recorder` holds every span of a traced run in memory and
writes them out once, at exit.

A span is ``(id, parent, request, name, start_ms, end_ms)``.  Spans of
one replayed request share ``request``; ``parent`` is the span that
was open when this one started, so a layer's *self time* is its
duration minus the part its children cover (:func:`self_times`).
"""

import json
import time
from contextlib import contextmanager


class Recorder:
    """In-memory span store for one traced run (single-threaded)."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._request = None
        self._origin = time.perf_counter()

    def _now_ms(self):
        return (time.perf_counter() - self._origin) * 1000.0

    @contextmanager
    def request(self, request_id):
        """Tag every span opened inside the block with ``request_id``."""
        previous, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = previous

    @contextmanager
    def span(self, name):
        """Record one span around the block; yields its dict so the
        caller can read ``duration_ms`` afterwards."""
        record = {"id": len(self.spans),
                  "parent": self._open[-1] if self._open else None,
                  "request": self._request, "name": name,
                  "start_ms": self._now_ms(), "end_ms": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end_ms"] = self._now_ms()
            record["duration_ms"] = record["end_ms"] - record["start_ms"]

    def add_children(self, parent, children):
        """Child spans of known duration, laid back to back from the
        parent's start — how ``MILTrace`` rows (timed by the
        interpreter, not by us) join the tree as ``operators.<op>``
        spans.  ``children`` is ``[(name, duration_ms), ...]``."""
        cursor = parent["start_ms"]
        for name, duration_ms in children:
            self.spans.append({
                "id": len(self.spans), "parent": parent["id"],
                "request": parent["request"], "name": name,
                "start_ms": cursor, "end_ms": cursor + duration_ms,
                "duration_ms": duration_ms})
            cursor += duration_ms

    def write(self, path, header):
        with open(path, "w") as handle:
            json.dump({"header": header, "spans": self.spans}, handle)


def self_times(spans):
    """{span id: duration minus the duration of its direct children}."""
    own = {span["id"]: span["duration_ms"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["duration_ms"]
    return own
