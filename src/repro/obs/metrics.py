"""Metrics export plane: a tiny registry rendered as Prometheus text.

:class:`RuntimeStats <repro.runtime.stats.RuntimeStats>` already holds
every number an operator would scrape — this module is the *wire
format*: a counter/gauge/summary registry whose :meth:`MetricsRegistry.
render` emits the Prometheus text exposition format (``# HELP`` /
``# TYPE`` headers, ``name{label="value"} 1.0`` samples), so the
``metrics`` verb on :class:`~repro.service.server.CellSiteServer` and
the examples can serve a scrape body with no new dependency.

:func:`registry_from_summary` maps a ``RuntimeStats.summary()`` (or a
farm aggregate from :func:`~repro.runtime.stats.aggregate_summaries`)
onto metrics mechanically.  :data:`COUNTER_KEYS` / :data:`GAUGE_KEYS`
(``summary()`` key -> Prometheus name) are views of the one table in
:mod:`repro.obs.ledger` that the stats layer builds ``summary()`` and
the farm aggregate from; tests iterate them to assert every exported
sample equals its summary source — the export plane never re-derives.
"""

from __future__ import annotations

from .ledger import COUNTER, COUNTER_KEYS, GAUGE_KEYS, METRICS

__all__ = [
    "COUNTER_KEYS",
    "GAUGE_KEYS",
    "MetricsRegistry",
    "prometheus_text",
    "registry_from_summary",
]

#: Percentile sub-reports → Prometheus summary metrics (quantile
#: samples).  ``latency_percentiles_by_class_s`` and the per-stage
#: report additionally carry ``priority`` / ``stage`` labels.
_QUANTILE_KEYS = {
    "latency_percentiles_s": "repro_frame_latency_seconds",
    "tick_duration_percentiles_s": "repro_tick_duration_seconds",
}


def _escape(value) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


class MetricsRegistry:
    """An insertion-ordered set of metric families with labelled samples.

    Deliberately minimal — enough of the Prometheus data model (counter,
    gauge, summary-with-quantiles) to render a valid scrape body, and
    nothing that needs a client library.
    """

    def __init__(self) -> None:
        # name -> (type, help, [(labels, value), ...])
        self._families: dict[str, tuple[str, str, list]] = {}

    def _sample(self, kind: str, name: str, value: float, help_text: str,
                labels: dict | None) -> None:
        family = self._families.get(name)
        if family is None:
            family = (kind, help_text, [])
            self._families[name] = family
        family[2].append((dict(labels) if labels else {}, value))

    def counter(self, name: str, value: float, help_text: str = "",
                labels: dict | None = None) -> None:
        self._sample("counter", name, value, help_text, labels)

    def gauge(self, name: str, value: float, help_text: str = "",
              labels: dict | None = None) -> None:
        self._sample("gauge", name, value, help_text, labels)

    def quantile(self, name: str, percentile: float, value: float,
                 help_text: str = "", labels: dict | None = None) -> None:
        """One quantile sample of a summary metric (percentile given on
        the 0-100 scale; rendered as the 0-1 ``quantile`` label)."""
        merged = dict(labels) if labels else {}
        merged["quantile"] = f"{percentile / 100.0:g}"
        self._sample("summary", name, value, help_text, merged)

    def render(self) -> str:
        """The Prometheus text exposition body (version 0.0.4)."""
        lines = []
        for name, (kind, help_text, samples) in self._families.items():
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                if labels:
                    rendered = ",".join(
                        f'{key}="{_escape(val)}"'
                        for key, val in labels.items())
                    lines.append(f"{name}{{{rendered}}} {value}")
                else:
                    lines.append(f"{name} {value}")
        return "\n".join(lines) + "\n"


def _quantiles(registry: MetricsRegistry, name: str, report: dict,
               labels: dict | None, extra: dict | None = None) -> None:
    merged = dict(labels or {})
    if extra:
        merged.update(extra)
    for percentile, value in report.items():
        registry.quantile(name, float(percentile), value,
                          "Windowed percentile report.", merged)


def registry_from_summary(summary: dict, *,
                          labels: dict | None = None) -> MetricsRegistry:
    """Map one ``RuntimeStats.summary()`` / farm-aggregate dict onto a
    registry.

    Flat keys follow the ledger's :data:`~repro.obs.ledger.METRICS`
    rows; percentile sub-reports become summary quantile samples; the
    farm's per-shard list keys (``frames_routed``, ``restarts``,
    ``per_shard``) become shard-labelled samples.  Keys absent from the
    summary are simply not exported — the same registry code serves a
    lone runtime and a farm aggregate.
    """
    registry = MetricsRegistry()
    for key, kind, _, name in METRICS:
        if key in summary:
            total = " running total" if kind == COUNTER else ""
            registry._sample(kind, name, summary[key],
                             f"RuntimeStats '{key}'{total}.", labels)
    for key, name in _QUANTILE_KEYS.items():
        if key in summary:
            _quantiles(registry, name, summary[key], labels)
    for priority, report in summary.get(
            "latency_percentiles_by_class_s", {}).items():
        _quantiles(registry, "repro_frame_latency_seconds", report, labels,
                   {"priority": priority})
    for stage, report in summary.get(
            "stage_latency_percentiles_s", {}).items():
        _quantiles(registry, "repro_stage_latency_seconds", report, labels,
                   {"stage": stage})
    for key, name in (("frames_routed", "repro_shard_frames_routed_total"),
                      ("restarts", "repro_shard_restarts_total")):
        values = summary.get(key)
        if values is not None:
            for shard, value in enumerate(values):
                merged = dict(labels or {}, shard=shard)
                registry.counter(name, value,
                                 f"Farm '{key}' per shard.", merged)
    per_shard = summary.get("per_shard")
    if per_shard is not None:
        for shard, shard_summary in enumerate(per_shard):
            merged = dict(labels or {}, shard=shard)
            registry.gauge("repro_shard_up",
                           0.0 if shard_summary is None else 1.0,
                           "1 when the shard answered the stats poll.",
                           merged)
            if shard_summary is not None:
                registry.counter(
                    "repro_shard_frames_completed_total",
                    shard_summary.get("frames_completed", 0),
                    "Per-shard completed-frame total.", merged)
    return registry


def prometheus_text(summary: dict, *, labels: dict | None = None) -> str:
    """One-call convenience: summary dict in, scrape body out."""
    return registry_from_summary(summary, labels=labels).render()
