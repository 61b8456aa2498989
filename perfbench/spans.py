"""In-memory span recorder and the sample statistics the report uses.

A span is one timed call into a Tempest layer, recorded from outside the
program: name, start, end, parent span and the id of the operation it
belongs to.  Spans stay in a list until :meth:`SpanRecorder.dump`
writes them once, at the end of a run.  A disabled recorder records
nothing and costs one attribute test per span.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Optional


class SpanRecorder:
    def __init__(self, *, enabled: bool):
        self.enabled = enabled
        #: (span id, name, start, end, parent id or -1, run id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.gauges: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.run_id)

    def gauge(self, name: str, value: float) -> None:
        """Set a count read after a call (only while recording)."""
        if self.enabled:
            self.gauges[name] = value

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, the self time of every span of that name.

        Self time is the span's duration minus the part of it that its
        child spans cover.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for sid, name, start, end, _parent, _run in self.spans:
            out[name].append((end - start) - child_time[sid])
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "run": run}
                for sid, name, start, end, parent, run in self.spans
            ],
            "gauges": self.gauges,
        }, indent=1) + "\n")


def median(values: list[float]) -> float:
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return 0.0
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def tail(values: list[float]) -> Optional[tuple[int, float]]:
    """(percentile, value) of the highest whole percentile with at least
    :data:`TAIL_BEYOND` samples above it, or ``None`` when that
    percentile would not lie above the median."""
    n = len(values)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n) if n else 0
    if pct <= 50:
        return None
    vals = sorted(values)
    return pct, vals[n - TAIL_BEYOND - 1]
