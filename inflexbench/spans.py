"""In-memory spans for the traced run, and the self-time arithmetic.

A span is ``(id, name, start, end, parent, request_id, tag)``: times are
``time.monotonic()`` seconds, ``parent`` is the id of the span that was
open when this one started (``None`` for a root), ``request_id`` ties
the spans of one HTTP request together and ``tag`` carries a route for
request roots.  Recording is an ``append`` to a list, so spans from the
event loop and from the executor thread interleave safely.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (children may overlap, e.g. the queries
of one ``/query_batch``, so the covered part is a union, not a sum).
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import itertools
import json
import time

FIELDS = ("id", "name", "start", "end", "parent", "request_id", "tag")


class SpanRecorder:
    """Collects spans and named counts until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "inflexbench_span", default=None
        )

    def add(self, name, start, end, parent=None, request_id=None, tag=None):
        """Record a finished span with explicit bounds; returns its id."""
        span_id = next(self._ids)
        self.spans.append(
            (span_id, name, start, end, parent, request_id, tag)
        )
        return span_id

    def open(self, name, request_id=None, tag=None):
        """Start a span that :meth:`close` finishes (across awaits)."""
        return [next(self._ids), name, time.monotonic(), self.current.get(),
                request_id, tag]

    def close(self, opened) -> None:
        span_id, name, start, parent, request_id, tag = opened
        self.spans.append(
            (span_id, name, start, time.monotonic(), parent, request_id, tag)
        )

    @contextlib.contextmanager
    def span(self, name, request_id=None):
        """Time the body as a child of the caller's current span."""
        opened = self.open(name, request_id)
        token = self.current.set(opened[0])
        try:
            yield opened
        finally:
            self.current.reset(token)
            self.close(opened)

    def reset(self) -> None:
        """Forget everything recorded so far, in place (wrappers hold
        references to ``counts``)."""
        self.spans.clear()
        self.counts.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": FIELDS, "spans": self.spans,
                 "counts": dict(self.counts)},
                handle,
            )


def load(path) -> tuple[list[dict], dict]:
    """Spans (as dicts) and counts written by :meth:`SpanRecorder.dump`."""
    with open(path) as handle:
        raw = json.load(handle)
    fields = raw["fields"]
    return [dict(zip(fields, row)) for row in raw["spans"]], raw["counts"]


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_lo = run_hi = None
    for a, b in clipped:
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> dict:
    """``{span id: self seconds}`` for every span in ``spans``."""
    children = collections.defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_length(span["start"], span["end"], children[span["id"]])
        for span in spans
    }


def layer_totals(spans) -> dict:
    """Per span name: ``calls``, inclusive and self seconds."""
    own = self_times(spans)
    totals: dict = collections.defaultdict(
        lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        entry = totals[span["name"]]
        entry["calls"] += 1
        entry["inclusive_s"] += span["end"] - span["start"]
        entry["self_s"] += own[span["id"]]
    return dict(totals)
