"""In-memory spans around the benchmark's calls into spintorus.

A span records its name, start, end and parent span.  Spans stay in memory
while the workload runs and are written out once, when the run ends, so the
file I/O never lands inside a timed op.  `NullTracer` has the same interface
and records nothing; the untraced ops use it, so the difference between the
traced and the untraced op times is the cost of tracing itself.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Records nothing; used for every op whose time feeds an end-to-end metric."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Collects spans of one run; `op` tags every span with the op it belongs to."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "op": self.op,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the summed self time of each span name.

        Self time is a span's duration minus the durations of its direct
        children; benchmark spans never overlap their siblings.
        """
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        per_op: dict[int, dict[str, float]] = {}
        for rec in self.spans:
            own = rec["end"] - rec["start"] - child_time[rec["id"]]
            names = per_op.setdefault(rec["op"], {})
            names[rec["name"]] = names.get(rec["name"], 0.0) + own
        return per_op

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
