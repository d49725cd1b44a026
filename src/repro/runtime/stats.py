"""Runtime telemetry: sustained throughput, latency tails, QoS accounting.

The Geosphere pitch is *consistent* throughput under sustained load, so
the runtime's observability is framed the way queueing evaluations frame
it: frames per second over the accumulated **busy time** — wall time
with at least one frame in flight, counted exactly, so the rate
describes what the engine sustains while it has work — per-frame latency
percentiles overall and per priority class (tail latency is where
straggler searches and queueing delay show up), lane occupancy (how full
the lanes the pools have allocated actually run), and the visited-node/PED totals
that tie wall-clock back to the paper's complexity metrics.  Frames that
run the coded chain additionally feed goodput accounting: payload bits
over CRC-passing streams per second and the CRC failure rate — the
headline numbers deployed-network evaluations actually report.

Deadline-tagged traffic adds the SLO ledger the delay-constrained MIMO
throughput literature frames: how many frames met their deadline,
completed late (a *near miss* — the frame finished in the same tick its
deadline tripped, so it resolves with its real result), were expired
unfinished, or were degraded (node budgets shrunk to make the deadline)
— plus the BER-side cost of degradation, tracked as a separate CRC
failure rate over degraded frames only.  Degraded and expired frames are
always *counted*, never silent.

Every scalar metric is declared once, in :mod:`repro.obs.ledger`: each
counter is a :class:`RuntimeStats` attribute named by its key, and
``summary()`` / :func:`aggregate_summaries` are loops over that table.
The session layer feeds one sample per tick and one record per frame;
everything here is cheap enough to leave on permanently.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np

from ..obs import ledger
from ..obs.ledger import COUNTER_KEYS, DERIVED, GAUGE, MAX, METRICS, SUM
from ..sphere.counters import ComplexityCounters

__all__ = ["RuntimeStats", "STAGES", "aggregate_summaries", "fold_counters"]

#: Per-frame latency samples retained for the percentile reports.  A
#: bounded sliding window keeps a permanently-resident runtime's
#: telemetry O(1) in memory; recent frames are also what a tail-latency
#: report should describe.
LATENCY_WINDOW = 4096

#: Smoothing factor of the exponential moving average over tick
#: durations (reported as ``tick_duration_ema_s``).
_TICK_EMA_ALPHA = 0.1

#: Per-frame latency decomposition stages, in pipeline order: time
#: queued before the frame's first search took a lane, time in sphere
#: detection, time in the decode stage (Viterbi + CRC), and the resolve
#: residue (finalisation bookkeeping).  The components partition each
#: frame's submit-to-completion latency.
STAGES = ("queue_wait", "detect", "decode", "resolve")


def _window() -> deque:
    return deque(maxlen=LATENCY_WINDOW)


def _windows_by_stage() -> dict[str, deque]:
    return {stage: _window() for stage in STAGES}


def _percentile_report(window, percentiles) -> dict[int, float]:
    """``{percentile: value}`` over a window of samples — an **empty
    dict** for an empty window rather than raising, so callers can probe
    a runtime at any point in its life."""
    if not len(window):
        return {}
    values = np.percentile(np.asarray(window), percentiles)
    return {int(p): float(v) for p, v in zip(percentiles, values)}


class RuntimeStats:
    """Aggregated telemetry for one :class:`~repro.runtime.session.UplinkRuntime`.

    Counts, rates and occupancy are running aggregates — each counter of
    the ledger (:data:`~repro.obs.ledger.COUNTER_KEYS`) is an attribute
    named by its ``summary()`` key; latency percentiles are computed
    over a sliding window of the most recent :data:`LATENCY_WINDOW`
    completions (overall and per priority class), so a resident
    runtime's footprint stays bounded no matter how long it serves.
    """

    def __init__(self) -> None:
        for key in COUNTER_KEYS:      # frames_submitted, ticks, stage_detect_s...
            setattr(self, key, 0.0 if key.endswith("_s") else 0)
        #: Per-tick lane occupancies added up (``mean_lane_occupancy``).
        self.lane_occupancy_sum = 0.0
        self.counters = ComplexityCounters()
        self._latencies = _window()
        self._class_latencies: dict[int, deque] = defaultdict(_window)
        # Stage-latency percentile windows, overall and per priority
        # class (the running totals are the stage_<name>_s counters).
        self._stage_windows = _windows_by_stage()
        self._class_stage_windows: dict[int, dict[str, deque]] = (
            defaultdict(_windows_by_stage))
        # Busy time: closed in-flight intervals summed into _busy_s,
        # plus the open one [_busy_since, _last_event] while any frame
        # is in flight.
        self._busy_s = 0.0
        self._busy_since: float | None = None
        self._last_event = float("-inf")
        self._tick_duration_ema_s: float | None = None
        #: The longest timed tick: the one that drains a pool's
        #: stragglers, or a large admission into a full frontier.
        self.tick_duration_max_s = 0.0
        self._tick_durations = _window()

    # -- busy-time bookkeeping ------------------------------------------
    @property
    def in_flight(self) -> int:
        """Frames submitted and not yet completed, expired or cancelled."""
        return (self.frames_submitted - self.frames_completed
                - self.frames_expired - self.frames_cancelled)

    def _stamp(self, now: float) -> None:
        """Note one event at ``now`` (after its counters moved); the
        event that leaves nothing in flight closes the busy interval.
        ``max()``: stamps can arrive out of order — a tick's expiries
        carry the tick's clock reading, its completions later ones."""
        self._last_event = max(self._last_event, now)
        if self._busy_since is not None and self.in_flight <= 0:
            self._busy_s += self._last_event - self._busy_since
            self._busy_since = None

    # -- recording hooks (called by the session) ------------------------
    def record_submit(self, now: float) -> None:
        self.frames_submitted += 1
        if self._busy_since is None:
            # In-flight 0 -> 1 opens an interval — never before the last
            # close: a backpressured submit, stamped on arrival ahead of
            # the ticks it then waited through, extends that interval.
            self._busy_since = max(now, self._last_event)
        self._stamp(now)

    def record_tick(self, occupancy: float, now: float,
                    duration_s: float | None = None,
                    kernel_s: float | None = None) -> None:
        """One engine tick: lane occupancy, plus (when the session
        measured them) the tick's wall duration and the share of it
        spent inside kernel work — the compiled core, or the scalar
        search where there is none — as opposed to Python
        orchestration."""
        self.ticks += 1
        self.lane_occupancy_sum += occupancy
        if duration_s is not None:
            self.tick_duration_s += duration_s
            self.tick_duration_max_s = max(self.tick_duration_max_s,
                                           duration_s)
            self._tick_durations.append(duration_s)
            if self._tick_duration_ema_s is None:
                self._tick_duration_ema_s = duration_s
            else:
                self._tick_duration_ema_s += _TICK_EMA_ALPHA * (
                    duration_s - self._tick_duration_ema_s)
        if kernel_s is not None:
            self.tick_kernel_s += kernel_s
        self._stamp(now)

    def record_complete(self, now: float, latency_s: float, detections: int,
                        counters: ComplexityCounters, *, priority: int = 0,
                        had_deadline: bool = False,
                        missed_deadline: bool = False,
                        stages: dict | None = None) -> None:
        self.frames_completed += 1
        self.searches_completed += detections
        self._latencies.append(latency_s)
        self._class_latencies[priority].append(latency_s)
        if stages is not None:
            class_windows = self._class_stage_windows[priority]
            fields = vars(self)
            for stage in STAGES:
                seconds = stages.get(stage, 0.0)
                fields[f"stage_{stage}_s"] += seconds
                self._stage_windows[stage].append(seconds)
                class_windows[stage].append(seconds)
        self.counters.merge(counters)
        self.visited_nodes += counters.visited_nodes
        self.ped_calcs += counters.ped_calcs
        if had_deadline:
            self.deadline_frames_resolved += 1
            if missed_deadline:
                self.deadline_near_misses += 1
            else:
                self.deadline_frames_met += 1
        self._stamp(now)

    def record_degraded(self, now: float) -> None:
        """One frame's budgets shrunk to chase its deadline.  Counted
        at degradation time, so frames that degrade and *still* expire
        are counted once in each ledger."""
        self.frames_degraded += 1
        self._stamp(now)

    def record_expired(self, now: float) -> None:
        """One deadline-tagged frame dropped unfinished — a full miss."""
        self.deadline_frames_resolved += 1
        self.record_dropped(now)

    def record_dropped(self, now: float) -> None:
        """One undated frame dropped unfinished (its shard's restarts
        ran out): an expiry, with no deadline to miss."""
        self.frames_expired += 1
        self._stamp(now)

    def record_cancelled(self, now: float) -> None:
        """One frame explicitly removed by the caller (not a deadline
        event, so it never enters the miss-rate denominator)."""
        self.frames_cancelled += 1
        self._stamp(now)

    def record_decisions(self, decisions, *, degraded: bool = False) -> None:
        """Tally one decoded frame's per-stream CRC verdicts.

        Goodput counts payload bits over CRC-*passing* streams only —
        a frame the check sequence rejects delivered nothing.  Degraded
        frames are additionally tallied apart, so the BER/CRC cost of
        shrinking their search budgets is reportable on its own.
        """
        for decision in decisions:
            self.streams_decoded += 1
            if degraded:
                self.degraded_streams_decoded += 1
            if decision.crc_ok:
                self.streams_crc_ok += 1
                self.payload_bits_ok += int(decision.payload_bits.size)
                if degraded:
                    self.degraded_streams_crc_ok += 1

    # -- derived metrics ------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        """Accumulated busy time: wall time with at least one frame in
        flight — an interval opens at the submit that takes in-flight
        from 0 to 1 and closes at the resolution that takes it back (an
        open one reads up to the latest event), so neither a quiet hour
        nor a 10 ms lull deflates the rates.  The engine ticks only with
        frames in flight, so (on one time base — the session's default
        clock is the tick timer's) ``elapsed_s >= tick_duration_s``."""
        if self._busy_since is None:
            return self._busy_s
        return self._busy_s + (self._last_event - self._busy_since)

    def _rate(self, count: int) -> float:
        """``count`` events over the busy time, with well-defined
        degenerate cases: zero events is 0.0, and a positive count over
        a zero-width interval (a single frame completing faster than the
        clock resolves) is ``inf`` — never an understating 0.0."""
        if count == 0:
            return 0.0
        elapsed = self.elapsed_s
        return count / elapsed if elapsed > 0.0 else float("inf")

    def frames_per_second(self) -> float:
        """Sustained completion rate over the accumulated busy time."""
        return self._rate(self.frames_completed)

    def goodput_bps(self) -> float:
        """Payload bits per second over CRC-passing streams — the
        delivered-throughput number a deployed-network evaluation
        reports (degenerate cases as in :meth:`frames_per_second`)."""
        return self._rate(self.payload_bits_ok)

    # The ledger's formulas (shared with the farm aggregate), applied here.
    def crc_failure_rate(self) -> float:
        """Fraction of decoded streams whose frame check sequence
        failed; 0.0 before any stream has been decoded."""
        return ledger.crc_failure_rate(vars(self))

    def degraded_crc_failure_rate(self) -> float:
        """CRC failure rate over *degraded* frames' streams only — the
        error-rate price of shrinking search budgets to make deadlines;
        0.0 before any degraded stream has been decoded."""
        return ledger.degraded_crc_failure_rate(vars(self))

    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-tagged frames that missed: expired
        unfinished, or completed past their deadline (near misses).
        0.0 before any deadline-tagged frame has resolved."""
        return ledger.deadline_miss_rate(vars(self))

    def mean_lane_occupancy(self) -> float:
        """Average fraction of the allocated lanes busy per tick
        (:meth:`StreamingFrontier.occupancy
        <repro.runtime.engine.StreamingFrontier.occupancy>`: against
        what the pools have actually allocated, not the global lane
        budget)."""
        return ledger.mean_lane_occupancy(vars(self))

    def tick_orchestration_s(self) -> float:
        """Measured tick time spent *outside* kernel work."""
        return ledger.tick_orchestration_s(vars(self))

    def kernel_time_fraction(self) -> float:
        """Share of measured tick time spent inside kernel work; 0.0
        before any timed tick."""
        return ledger.kernel_time_fraction(vars(self))

    @property
    def stage_totals_s(self) -> dict[str, float]:
        """Running per-stage latency totals, keyed by stage name."""
        return {stage: getattr(self, f"stage_{stage}_s") for stage in STAGES}

    def latency_percentiles(self, percentiles=(50, 90, 99), *,
                            priority: int | None = None) -> dict[int, float]:
        """Per-frame submit-to-completion latency percentiles (seconds)
        over the most recent window of completions; ``priority`` narrows
        the window to one priority class.  Empty dict for an empty
        window — a fresh runtime, or a class that has completed
        nothing."""
        window = (self._latencies if priority is None
                  else self._class_latencies.get(priority, ()))
        return _percentile_report(window, percentiles)

    def class_latency_percentiles(self, percentiles=(50, 90, 99)
                                  ) -> dict[int, dict[int, float]]:
        """Latency percentiles per priority class (classes that have
        completed at least one frame)."""
        return {priority: self.latency_percentiles(percentiles,
                                                   priority=priority)
                for priority in sorted(self._class_latencies)}

    def stage_latency_percentiles(self, percentiles=(50, 90, 99), *,
                                  priority: int | None = None
                                  ) -> dict[str, dict[int, float]]:
        """Per-stage latency percentiles (seconds) over the most recent
        window of stage-decomposed completions, keyed by stage name
        (see :data:`STAGES`); ``priority`` narrows the windows to one
        priority class.  Stages with an empty window are omitted; a
        runtime that has completed nothing returns an empty dict."""
        windows = (self._stage_windows if priority is None
                   else self._class_stage_windows.get(priority, {}))
        reports = ((stage, _percentile_report(windows.get(stage, ()),
                                              percentiles))
                   for stage in STAGES)
        return {stage: report for stage, report in reports if report}

    def tick_duration_percentiles(self, percentiles=(50, 90, 99)
                                  ) -> dict[int, float]:
        """Per-tick wall-duration percentiles (seconds) over the most
        recent window of timed ticks; empty dict before any timed
        tick."""
        return _percentile_report(self._tick_durations, percentiles)

    def summary(self) -> dict:
        """One dict with the headline numbers (benchmark ``extra_info``
        friendly): every ledger counter and derived metric, the
        busy-time gauges, and the percentile sub-reports with samples."""
        fields = vars(self)
        report = {key: fields[key] for key in COUNTER_KEYS}
        for key, formula in DERIVED.items():
            report[key] = formula(fields)
        report["elapsed_s"] = self.elapsed_s
        report["frames_per_second"] = self.frames_per_second()
        report["goodput_bits_per_second"] = self.goodput_bps()
        stage_percentiles = self.stage_latency_percentiles()
        if stage_percentiles:
            report["stage_latency_percentiles_s"] = stage_percentiles
        if self._tick_duration_ema_s is not None:
            report["tick_duration_ema_s"] = self._tick_duration_ema_s
        if self._tick_durations:
            report["tick_duration_max_s"] = self.tick_duration_max_s
            report["tick_duration_percentiles_s"] = (
                self.tick_duration_percentiles())
        if self._latencies:
            report["latency_percentiles_s"] = self.latency_percentiles()
        if len(self._class_latencies) > 1:
            report["latency_percentiles_by_class_s"] = (
                self.class_latency_percentiles())
        return report


def fold_counters(summaries: list[dict]) -> dict:
    """The counters of several summaries summed, and every derived
    metric recomputed from the sums (never averaged, so a busy shard
    weighs as much as its traffic; lane occupancy is tick-weighted).
    The result folds again like a summary, which is how the farm
    supervisor carries the ledgers of workers it has replaced."""
    report = {key: sum(summary.get(key, 0) for summary in summaries)
              for key in COUNTER_KEYS}
    totals = dict(report, lane_occupancy_sum=sum(
        summary.get("mean_lane_occupancy", 0.0) * summary.get("ticks", 0)
        for summary in summaries))
    for key, formula in DERIVED.items():
        report[key] = formula(totals)
    return report


def aggregate_summaries(summaries: list[dict], retired=()) -> dict:
    """Fold per-shard :meth:`RuntimeStats.summary` dicts into one
    farm-level view, each metric by the fold its ledger row declares.

    Counters sum exactly and derived metrics are recomputed from the
    sums (:func:`fold_counters`) — ``tick_orchestration_s`` included:
    per-shard values are clamped at zero, so summing them would let
    clamp residue inflate the farm total.  ``retired`` mappings
    (:func:`fold_counters` results for shard incarnations that no longer
    run) add to the counters and nothing else.  Rates sum and
    ``elapsed_s`` is the busiest shard's (the table rows say why).

    Latency/tick percentiles and the tick-duration EMA cannot be merged
    from per-shard reports, so instead of silently dropping them the
    input summaries ride along verbatim under ``per_shard`` (``None``
    entries — shards that answered no stats poll — are tolerated and
    counted out via ``shards_reporting``), keeping shard skew visible
    from the one aggregate dict.
    """
    present = [summary for summary in summaries if summary is not None]
    report: dict = {"shards": len(summaries),
                    "shards_reporting": len(present)}
    report.update(fold_counters(present + list(retired)))
    for metric in METRICS:
        if metric.kind == GAUGE and metric.fold in (SUM, MAX):
            values = [summary.get(metric.key, 0.0) for summary in present]
            report[metric.key] = (sum(values) if metric.fold == SUM
                                  else max(values, default=0.0))
    report["per_shard"] = list(summaries)
    return report
