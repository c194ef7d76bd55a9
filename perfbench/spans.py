"""In-memory span recorder for the traced run.

A span has a name, a start, an end, a parent span and the id of the request
that caused it.  Spans are kept in memory and written out once, at the end of
the run.  Counters are recorded at the same boundaries as the spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, request id]
        self.counters: dict[str, list] = {}
        self.request_id: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._open[-1] if self._open else None, self.request_id]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counters.setdefault(name, []).append(value)

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def self_times(self) -> dict[str, dict]:
        """Calls, total and self time per span name.

        Self time is a span's duration minus the time its children cover.  One
        thread runs the spans of a request, so children never overlap and the
        covered time is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return table

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [dict(zip(keys, span)) for span in self.spans], "counters": self.counters}, handle)
