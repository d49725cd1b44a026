"""Frame-lifecycle tracing: bounded per-frame event records.

When a p99 frame is slow, :class:`~repro.runtime.stats.RuntimeStats`
says *that* it was slow; this module says *where* the time went.  A
:class:`FrameTracer` hands out one :class:`FrameTrace` per submitted
frame and the runtime stamps lifecycle events onto it as the frame
crosses stage boundaries — ``submit`` → ``admit`` → ``first-lane`` →
(``degrade`` / ``expedite`` / ``evict``) → ``detect-done`` →
``viterbi`` → ``crc`` → ``decode-done`` → ``resolve`` / ``expire`` /
``cancel`` — plus the farm-side annotations (``route``, ``restart``,
``replay``) the supervisor adds when a worker dies and its ledger is
replayed.

Design constraints, in order:

* **Near-free when off.**  Tracing is disabled by default;
  :meth:`FrameTracer.start` then returns ``None`` and every
  :meth:`FrameTracer.emit` call is a single ``is None`` test — the
  ladder's ``obs.tracer_overhead_fraction`` (``benchmarks/ladder/``)
  reads the *enabled* overhead at ~1% of runtime throughput, inside its
  own run-to-run spread, so disabled overhead is noise.
* **Bounded.**  A resident runtime must stay O(1) in memory: finished
  traces live in a ring of :data:`RETAIN_FRAMES` entries, each trace
  caps its event list at :data:`MAX_EVENTS_PER_FRAME` (overflow is
  *counted*, never silent), so the tracer's footprint is a product of two
  constants no matter how long the runtime serves.
* **Results-invariant.**  Tracing only reads clocks and appends tuples
  — it performs no float math on any decode quantity, so every decode
  path is bit-identical with tracing on or off (``tests/test_obs.py``
  sweeps this across admission orders, shard counts and tick
  strategies).

Events are ``(t, name, attrs)`` tuples on the tracer's clock
(:func:`time.perf_counter` by default — ``CLOCK_MONOTONIC`` on Linux,
which forked farm workers share, so farm-side and worker-side events
merge onto one comparable timeline via :func:`merge_traces`).  Exports:
one-record-per-line JSONL (:func:`export_jsonl`) and the Chrome
trace-event format (:func:`chrome_trace_events`), which Perfetto and
``chrome://tracing`` open directly — stage spans appear as nested "X"
slices per frame, everything else as instant markers.
"""

from __future__ import annotations

import json
import time
from collections import deque

__all__ = [
    "MAX_EVENTS_PER_FRAME",
    "RETAIN_FRAMES",
    "FrameTrace",
    "FrameTracer",
    "chrome_trace",
    "chrome_trace_events",
    "export_jsonl",
    "merge_traces",
]

#: Finished traces retained by a tracer (ring buffer).
RETAIN_FRAMES = 1024

#: Events one frame's trace may hold; overflow increments
#: :attr:`FrameTrace.dropped` instead of growing the list.
MAX_EVENTS_PER_FRAME = 64

#: Chrome-export stage spans, derived from lifecycle marker pairs: each
#: entry is ``(end_marker, span_name)``; a span runs from the previous
#: present marker to this one.  Markers a frame never crossed (an
#: uncoded frame has no ``decode-done``; an expired one no ``resolve``)
#: simply drop out.
_SPAN_MARKERS = (
    ("first-lane", "queue-wait"),
    ("detect-done", "detect"),
    ("decode-done", "decode"),
    ("resolve", "resolve"),
    ("expire", "expired"),
    ("cancel", "cancelled"),
)


class FrameTrace:
    """One frame's lifecycle record: labels plus a bounded event list.

    Events are plain ``(t, name, attrs)`` tuples (``attrs`` is ``None``
    or a small dict), appended in program order by a single-threaded
    runtime, so the list is time-ordered by construction.  The record
    crosses the farm's worker pipes inside result payloads, as one
    record of the service's wire schema (:mod:`repro.service.wire`).
    """

    __slots__ = ("frame_id", "labels", "events", "dropped")

    def __init__(self, frame_id: int, labels: dict | None = None) -> None:
        self.frame_id = frame_id
        self.labels = dict(labels) if labels else {}
        self.events: list[tuple] = []
        self.dropped = 0

    def add(self, t: float, name: str, attrs: dict | None) -> None:
        """Append one event, or count it dropped past the cap."""
        if len(self.events) >= MAX_EVENTS_PER_FRAME:
            self.dropped += 1
            return
        self.events.append((t, name, attrs))

    # -- queries ---------------------------------------------------------
    def names(self) -> list[str]:
        """Event names in order."""
        return [name for _, name, _ in self.events]

    def first(self, name: str) -> float | None:
        """Timestamp of the first event called ``name`` (or ``None``)."""
        for t, event_name, _ in self.events:
            if event_name == name:
                return t
        return None

    def absorb(self, other: "FrameTrace | None") -> "FrameTrace":
        """Merge another trace's events into this one, in time order.

        The farm uses this to fold a worker-side trace (decoded in a
        forked child) into its own routing/supervision trace for the
        same frame: ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux,
        shared across fork, so the two timelines are comparable.  This
        trace's ``frame_id`` wins; the other's labels fill in missing
        keys; dropped counts add.
        """
        if other is None:
            return self
        self.events = sorted(self.events + other.events,
                             key=lambda event: event[0])
        for key, value in other.labels.items():
            self.labels.setdefault(key, value)
        self.dropped += other.dropped
        return self

    def __repr__(self) -> str:
        return (f"FrameTrace(frame_id={self.frame_id}, "
                f"events={self.names()}, dropped={self.dropped})")


class FrameTracer:
    """Hands out, collects and exports :class:`FrameTrace` records.

    Parameters
    ----------
    enabled:
        Off by default.  Disabled, :meth:`start` returns ``None`` and
        every stamping call degenerates to an ``is None`` test, so call
        sites stay unconditionally in place.
    clock:
        Timestamp source, default :func:`time.perf_counter`.  The
        runtime passes its own (possibly fake, for deterministic
        deadline tests) clock in, so trace timestamps and deadline
        decisions share one timeline.
    """

    def __init__(self, *, enabled: bool = False,
                 clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.frames_traced = 0
        self.events_dropped = 0
        self._finished: deque[FrameTrace] = deque(maxlen=RETAIN_FRAMES)

    # -- recording -------------------------------------------------------
    def start(self, frame_id: int, **labels) -> FrameTrace | None:
        """Open a trace for one frame (``None`` when disabled)."""
        if not self.enabled:
            return None
        self.frames_traced += 1
        return FrameTrace(frame_id, labels)

    def emit(self, trace: FrameTrace | None, name: str, *,
             t: float | None = None, **attrs) -> None:
        """Stamp one event onto a live trace; no-op for ``None``."""
        if trace is None:
            return
        trace.add(self.clock() if t is None else t, name, attrs or None)

    def finish(self, trace: FrameTrace | None) -> None:
        """Move a resolved frame's trace into the bounded ring."""
        if trace is None:
            return
        self.events_dropped += trace.dropped
        self._finished.append(trace)

    # -- retrieval / export ---------------------------------------------
    def traces(self) -> list[FrameTrace]:
        """Finished traces, oldest first (a bounded snapshot)."""
        return list(self._finished)

    def clear(self) -> None:
        self._finished.clear()

    def export_jsonl(self) -> str:
        """Retained traces as JSONL (see :func:`export_jsonl`)."""
        return export_jsonl(self.traces())

    def chrome_trace(self) -> dict:
        """Retained traces as a Chrome trace-event document (see
        :func:`chrome_trace`)."""
        return chrome_trace(self.traces())


def merge_traces(primary: FrameTrace | None,
                 other: FrameTrace | None) -> FrameTrace | None:
    """Fold two traces of the same frame into one time-ordered record.

    ``primary`` wins the frame id and label precedence (the farm's
    routing trace absorbs the worker's decode trace).  Either side may
    be ``None``; the survivor (or ``None``) comes back.
    """
    if primary is None:
        return other
    return primary.absorb(other)


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------

def jsonl_records(traces) -> list[dict]:
    """Plain-dict records for a JSONL export: one ``frame`` header per
    trace (labels, event count, dropped tally) followed by its
    ``event`` records."""
    records = []
    for trace in traces:
        records.append({"type": "frame", "frame_id": trace.frame_id,
                        "labels": trace.labels,
                        "events": len(trace.events),
                        "dropped": trace.dropped})
        for t, name, attrs in trace.events:
            record = {"type": "event", "frame_id": trace.frame_id,
                      "t": t, "name": name}
            if attrs:
                record["attrs"] = attrs
            records.append(record)
    return records


def export_jsonl(traces) -> str:
    """Serialise traces as JSON Lines — one record per line, streamable
    into any log pipeline."""
    return "\n".join(json.dumps(record, default=float)
                     for record in jsonl_records(traces))


def chrome_trace_events(traces) -> list[dict]:
    """Chrome trace-event list: per frame, one thread (tid = frame id)
    carrying "X" complete events for the stage spans derived from the
    lifecycle markers (queue-wait / detect / decode / resolve — see
    ``_SPAN_MARKERS``) plus an "i" instant for every raw event.
    Timestamps are microseconds on the tracer clock; durations clamp at
    zero so cross-process residue cannot render negative slices."""
    events = []
    for trace in traces:
        if not trace.events:
            continue
        tid = int(trace.frame_id)
        pid = int(trace.labels.get("shard", 0))
        label = ", ".join(f"{key}={value}"
                          for key, value in trace.labels.items())
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid,
                       "args": {"name": f"frame {trace.frame_id}"
                                + (f" ({label})" if label else "")}})
        first_of: dict[str, float] = {}
        for t, name, _ in trace.events:
            first_of.setdefault(name, t)
        previous = first_of.get("submit", trace.events[0][0])
        for marker, span in _SPAN_MARKERS:
            at = first_of.get(marker)
            if at is None:
                continue
            events.append({"ph": "X", "name": span, "cat": "stage",
                           "pid": pid, "tid": tid,
                           "ts": previous * 1e6,
                           "dur": max(0.0, at - previous) * 1e6})
            previous = at
        for t, name, attrs in trace.events:
            event = {"ph": "i", "name": name, "cat": "lifecycle",
                     "pid": pid, "tid": tid, "ts": t * 1e6, "s": "t"}
            if attrs:
                event["args"] = attrs
            events.append(event)
    return events


def chrome_trace(traces) -> dict:
    """A complete Chrome trace-event document (the JSON-object form),
    loadable by Perfetto / ``chrome://tracing`` as-is."""
    return {"traceEvents": chrome_trace_events(traces),
            "displayTimeUnit": "ms"}
