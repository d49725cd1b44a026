"""The benchmark's own span recorder.

Every call the benchmark makes into a layer of the program is wrapped in
a span — name, layer, start, end, parent span, frame id — held in memory
and written out when the run ends (Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` load directly).  The recorder lives in
the benchmark, not in the program: this PR measures every layer from
outside; spans inside the program are a later change.

A layer's *self time* is its spans' duration minus the part their child
spans cover.  The driver is single-threaded, so spans nest strictly and
the open-span stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()

# Span record layout (a list, mutated once to set ``end``).
NAME, LAYER, START, END, PARENT, FRAME = range(6)


class SpanRecorder:
    """Collects spans while ``enabled``; a disabled recorder hands out a
    shared null context so the untraced passes pay one attribute test
    per call site."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, layer: str, frame: int | None = None):
        if not self.enabled:
            return _NULL
        return self._record(name, layer, frame)

    @contextlib.contextmanager
    def _record(self, name: str, layer: str, frame: int | None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, layer, time.perf_counter(), None, parent, frame]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    # -- queries ---------------------------------------------------------
    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations (seconds) of every finished span called ``name``
        recorded at index ``since`` or later."""
        return [span[END] - span[START] for span in self.spans[since:]
                if span[NAME] == name and span[END] is not None]

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per layer over the subtree under span ``root``
        (inclusive): each span's duration minus its children's."""
        child_total: dict[int, float] = defaultdict(float)
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            span = self.spans[index]
            if span[PARENT] in inside and span[END] is not None:
                inside.add(index)
                child_total[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = defaultdict(float)
        for index in inside:
            span = self.spans[index]
            totals[span[LAYER]] += (span[END] - span[START]
                                    - child_total[index])
        return dict(totals)

    def child_coverage(self, root: int) -> float:
        """Share of span ``root``'s duration its direct children cover —
        the "rung spans sum to the rung's wall" check."""
        span = self.spans[root]
        covered = sum(child[END] - child[START] for child in self.spans
                      if child[PARENT] == root)
        return covered / (span[END] - span[START])

    # -- export ----------------------------------------------------------
    def chrome_events(self) -> list[dict]:
        """One "X" complete event per span on a single driver track;
        ``args`` carries the span id, its parent's id and the pool frame
        index so parent links survive the export."""
        events = [{"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
                   "args": {"name": "benchmark driver"}}]
        for index, span in enumerate(self.spans):
            if span[END] is None:
                continue
            events.append({
                "ph": "X", "name": span[NAME], "cat": span[LAYER],
                "pid": 0, "tid": 0, "ts": span[START] * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "args": {"id": index, "parent": span[PARENT],
                         "frame": span[FRAME]}})
        return events
