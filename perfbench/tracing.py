"""Spans recorded by the benchmark around its own calls into each eprbm layer.

A span has a name ``<layer>.<call>``, a start and end time, the id of the
span that encloses it, and the id of the operation it belongs to. Spans are
kept in memory and written once the run ends. The untraced tracer records
nothing, so the same workload code runs with tracing on or off.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext

from pytest_benchmark.timers import default_timer

LAYERS = ("epr", "rbm", "trainer", "exact", "bell", "cli")

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    def span(self, name: str, op: str):
        return _NULL


class Tracer:
    """Tracing on: every span is appended to ``spans`` as a dict."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, op: str):
        return _Span(self, name, op)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, op: str):
        self.tracer = tracer
        open_spans = tracer._open
        self.record = {
            "id": len(tracer.spans),
            "parent": open_spans[-1] if open_spans else None,
            "op": op,
            "name": name,
            "start": 0.0,
            "end": 0.0,
        }

    def __enter__(self):
        tracer = self.tracer
        tracer.spans.append(self.record)
        tracer._open.append(self.record["id"])
        self.record["start"] = default_timer()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = default_timer()
        self.tracer._open.pop()
        return False


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds each layer spent in its own spans, children's time excluded.

    Spans of one thread nest without overlap, so the part of a span that its
    children cover is the sum of their durations. Spans whose name does not
    start with a layer of eprbm (the benchmark's own ``bench.*`` spans) are
    reported under their own prefix.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        own = span["end"] - span["start"] - child_time[span["id"]]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
