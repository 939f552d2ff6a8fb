"""In-memory span recorder for the traced benchmark pass.

A span is one call into a library layer, timed from the benchmark's own code:
name, start, end, parent span and run id.  Spans stay in memory until the run
ends; the parent process writes them out.  A span's self time is its duration
minus the durations of its children.  Spans are opened and closed on one
thread in strict nesting order, so children never overlap and their union is
their sum.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def wrap(self, name: str, fn):
        """fn with every call timed as a span called name."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def export(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "run_id": self.run_id}
            for name, start, end, parent in self.spans
        ]


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span of one run id: duration minus children's durations."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def covered_time(spans: list[dict]) -> float:
    """Total duration of the top-level spans of one run id."""
    return sum(span["end"] - span["start"] for span in spans if span["parent"] is None)
