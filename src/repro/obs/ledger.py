"""The metric ledger: every scalar runtime metric, declared once.

:data:`METRICS` has one row per metric — its ``summary()`` key, its kind
(counter or gauge), how it folds across concurrently running shards, and
its Prometheus name.  :class:`RuntimeStats
<repro.runtime.stats.RuntimeStats>` builds the scalar part of
``summary()`` from it, :func:`~repro.runtime.stats.aggregate_summaries`
folds per-shard summaries by its fold column, and
:mod:`repro.obs.metrics` exports by its name column — so a metric cannot
be exported but not aggregated, or aggregated by a second formula.  A
ratio metric is *derived*: one function of the summed counters, below,
which the live object and the farm aggregate both call.  Imports
nothing: ``repro.runtime`` imports ``repro.obs``, never the reverse.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["COUNTER", "COUNTER_KEYS", "DERIVED", "GAUGE", "GAUGE_KEYS", "MAX",
           "METRICS", "Metric", "SUM"]


# -- derived metrics: one formula each, over summed counters ------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mean_lane_occupancy(counters) -> float:
    """Tick-weighted mean lane occupancy.  ``lane_occupancy_sum`` (the
    per-tick occupancies added up) is the one summed term no summary
    carries: the aggregate rebuilds it as mean x ticks per shard."""
    return _ratio(counters["lane_occupancy_sum"], counters["ticks"])


def tick_orchestration_s(counters) -> float:
    """Tick time outside kernel work, clamped at zero once over the
    summed pair (the two clocks bracket slightly different spans, so a
    tiny negative residue is noise, not credit)."""
    return max(0.0, counters["tick_duration_s"] - counters["tick_kernel_s"])


def kernel_time_fraction(counters) -> float:
    return min(1.0, _ratio(counters["tick_kernel_s"],
                           counters["tick_duration_s"]))


def _failure_rate(passed: float, decoded: float) -> float:
    return 1.0 - passed / decoded if decoded else 0.0


def crc_failure_rate(counters) -> float:
    return _failure_rate(counters["streams_crc_ok"],
                         counters["streams_decoded"])


def degraded_crc_failure_rate(counters) -> float:
    return _failure_rate(counters["degraded_streams_crc_ok"],
                         counters["degraded_streams_decoded"])


def deadline_miss_rate(counters) -> float:
    return _ratio(counters["frames_expired"]
                  + counters["deadline_near_misses"],
                  counters["deadline_frames_resolved"])


# -- the table ----------------------------------------------------------
COUNTER, GAUGE = "counter", "gauge"
SUM, MAX = "sum", "max"


class Metric(NamedTuple):
    """One row of the ledger."""

    key: str      # in RuntimeStats.summary() / DetectorFarm.stats()
    kind: str     # COUNTER (monotone running total) or GAUGE
    #: Across shards: SUM (concurrent shards add), MAX, a derived-metric
    #: formula over the summed counters, or None — not folded (a
    #: farm-level value, or one only ``per_shard`` shows).
    fold: object
    name: str     # Prometheus metric name


def _counter(key: str) -> Metric:
    """Counters sum across shards and are named ``repro_<key>_total``;
    accumulated seconds (``*_s``) spell the unit out."""
    stem = key[:-2] + "_seconds" if key.endswith("_s") else key
    return Metric(key, COUNTER, SUM, f"repro_{stem}_total")


METRICS = (
    *map(_counter, (
        "frames_submitted", "frames_completed", "frames_expired",
        "frames_cancelled", "frames_degraded", "searches_completed", "ticks",
        "visited_nodes", "ped_calcs", "streams_decoded", "streams_crc_ok",
        "payload_bits_ok", "degraded_streams_decoded",
        "degraded_streams_crc_ok", "deadline_frames_resolved",
        "deadline_frames_met", "deadline_near_misses", "tick_duration_s",
        "tick_kernel_s", "stage_queue_wait_s", "stage_detect_s",
        "stage_decode_s", "stage_resolve_s")),
    # Busy time is wall clock, not CPU-seconds: the busiest shard's.
    Metric("elapsed_s", GAUGE, MAX, "repro_busy_seconds"),
    # Each shard's rate is over its own busy time and shards run
    # concurrently, so the farm's rate is their sum.
    Metric("frames_per_second", GAUGE, SUM, "repro_frames_per_second"),
    Metric("goodput_bits_per_second", GAUGE, SUM,
           "repro_goodput_bits_per_second"),
    Metric("mean_lane_occupancy", GAUGE, mean_lane_occupancy,
           "repro_mean_lane_occupancy"),
    Metric("tick_orchestration_s", GAUGE, tick_orchestration_s,
           "repro_tick_orchestration_seconds"),
    Metric("kernel_time_fraction", GAUGE, kernel_time_fraction,
           "repro_kernel_time_fraction"),
    Metric("crc_failure_rate", GAUGE, crc_failure_rate,
           "repro_crc_failure_rate"),
    Metric("degraded_crc_failure_rate", GAUGE, degraded_crc_failure_rate,
           "repro_degraded_crc_failure_rate"),
    Metric("deadline_miss_rate", GAUGE, deadline_miss_rate,
           "repro_deadline_miss_rate"),
    Metric("tick_duration_ema_s", GAUGE, None,
           "repro_tick_duration_ema_seconds"),
    Metric("tick_duration_max_s", GAUGE, MAX,
           "repro_tick_duration_max_seconds"),
    Metric("shards", GAUGE, None, "repro_shards"),
    Metric("shards_reporting", GAUGE, None, "repro_shards_reporting"),
    Metric("outstanding", GAUGE, None, "repro_outstanding_frames"),
)

#: Views of the table: key -> Prometheus name per kind, key -> formula.
COUNTER_KEYS = {m.key: m.name for m in METRICS if m.kind == COUNTER}
GAUGE_KEYS = {m.key: m.name for m in METRICS if m.kind == GAUGE}
DERIVED = {m.key: m.fold for m in METRICS if callable(m.fold)}
