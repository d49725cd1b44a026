"""Observability: frame-lifecycle tracing and the metrics export plane.

Two complementary answers to "where did the time go":

* :mod:`repro.obs.trace` — per-frame lifecycle traces (bounded,
  off-by-default, carried across the farm's worker pipes as wire
  records) exportable
  as JSONL and Chrome trace-event JSON.
* :mod:`repro.obs.metrics` — a counter/gauge/summary registry that
  renders :class:`~repro.runtime.stats.RuntimeStats` summaries as
  Prometheus text exposition, served by the cell-site ``metrics`` verb.
* :mod:`repro.obs.ledger` — the one table declaring every scalar
  runtime metric, read by the stats layer and the export plane alike.
"""

from .metrics import (COUNTER_KEYS, GAUGE_KEYS, MetricsRegistry,
                      prometheus_text, registry_from_summary)
from .trace import (MAX_EVENTS_PER_FRAME, RETAIN_FRAMES, FrameTrace,
                    FrameTracer, chrome_trace, chrome_trace_events,
                    export_jsonl, merge_traces)

__all__ = [
    "COUNTER_KEYS",
    "FrameTrace",
    "FrameTracer",
    "GAUGE_KEYS",
    "MAX_EVENTS_PER_FRAME",
    "MetricsRegistry",
    "RETAIN_FRAMES",
    "chrome_trace",
    "chrome_trace_events",
    "export_jsonl",
    "merge_traces",
    "prometheus_text",
    "registry_from_summary",
]
