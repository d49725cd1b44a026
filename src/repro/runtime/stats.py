"""Runtime telemetry: sustained throughput, latency tails, QoS accounting.

The Geosphere pitch is *consistent* throughput under sustained load, so
the runtime's observability is framed the way queueing evaluations frame
it: frames per second over the accumulated **busy time** (idle gaps
between traffic bursts are excluded, so the rate describes what the
engine sustains while it actually has work), per-frame latency
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

The session layer feeds one sample per tick and one record per frame;
everything here is cheap enough to leave on permanently.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..sphere.counters import ComplexityCounters
from ..utils.validation import require

__all__ = ["RuntimeStats", "STAGES", "aggregate_summaries"]

#: Per-frame latency samples retained for the percentile reports.  A
#: bounded sliding window keeps a permanently-resident runtime's
#: telemetry O(1) in memory; recent frames are also what a tail-latency
#: report should describe.
DEFAULT_LATENCY_WINDOW = 4096

#: Busy-interval segmentation: a silence longer than this many recent
#: tick durations (but never shorter than ``MIN_IDLE_GAP_S``) closes the
#: current busy interval, so the gap between two traffic bursts does not
#: deflate ``frames_per_second()`` / ``goodput_bps()``.
IDLE_GAP_TICKS = 25.0
MIN_IDLE_GAP_S = 1e-3

#: Smoothing factor of the exponential moving average over tick
#: durations (reported as ``tick_duration_ema_s``, and what adapts the
#: idle-gap threshold to however fast this machine ticks).
_TICK_EMA_ALPHA = 0.1

#: Per-frame latency decomposition stages, in pipeline order: time
#: queued before the frame's first search took a lane, time in sphere
#: detection, time in the decode stage (Viterbi + CRC), and the resolve
#: residue (finalisation bookkeeping).  The components partition each
#: frame's submit-to-completion latency.
STAGES = ("queue_wait", "detect", "decode", "resolve")


class RuntimeStats:
    """Aggregated telemetry for one :class:`~repro.runtime.session.UplinkRuntime`.

    Counts, rates and occupancy are running aggregates; latency
    percentiles are computed over a sliding window of the most recent
    ``latency_window`` completions (overall and per priority class), so
    a resident runtime's footprint stays bounded no matter how long it
    serves.

    Parameters
    ----------
    latency_window:
        Completions retained per percentile window.
    idle_gap_s:
        Silence that closes a busy interval.  ``None`` (default) adapts
        to the observed tick cost: a gap longer than ``IDLE_GAP_TICKS``
        recent tick durations (floored at ``MIN_IDLE_GAP_S``) ends the
        interval, so bursty workloads report rates over time the
        runtime actually had work.
    """

    def __init__(self, latency_window: int = DEFAULT_LATENCY_WINDOW,
                 idle_gap_s: float | None = None) -> None:
        require(latency_window >= 1, "latency window must be positive")
        require(idle_gap_s is None or idle_gap_s > 0.0,
                "idle gap must be positive when given")
        self._latency_window = latency_window
        self._idle_gap_s = idle_gap_s
        self.frames_submitted = 0
        self.frames_completed = 0
        self.frames_expired = 0
        self.frames_cancelled = 0
        self.frames_degraded = 0
        self.searches_completed = 0
        self.streams_decoded = 0
        self.streams_crc_ok = 0
        self.payload_bits_ok = 0
        self.degraded_streams_decoded = 0
        self.degraded_streams_crc_ok = 0
        self.deadline_frames_resolved = 0
        self.deadline_frames_met = 0
        self.deadline_near_misses = 0
        self.ticks = 0
        self.counters = ComplexityCounters()
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._class_latencies: dict[int, deque[float]] = {}
        # Stage-latency decomposition: running totals (additive across
        # shards) plus bounded percentile windows, overall and per
        # priority class.
        self.stage_totals_s = {stage: 0.0 for stage in STAGES}
        self._stage_windows: dict[str, deque[float]] = {
            stage: deque(maxlen=latency_window) for stage in STAGES}
        self._class_stage_windows: dict[int, dict[str, deque[float]]] = {}
        self._occupancy_sum = 0.0
        # Busy-time accumulation: closed intervals summed into _busy_s,
        # plus one open interval [_interval_start, _last_event].
        self._busy_s = 0.0
        self._interval_start: float | None = None
        self._last_event: float | None = None
        # Tick-time observability: how long ticks take, and how much of
        # that is kernel work (the numpy step / compiled cores) versus
        # Python orchestration around it.
        self.tick_duration_s = 0.0
        self.tick_kernel_s = 0.0
        self._tick_duration_ema_s: float | None = None
        self._tick_durations: deque[float] = deque(maxlen=latency_window)

    # -- busy-interval bookkeeping --------------------------------------
    def _gap_threshold(self) -> float:
        if self._idle_gap_s is not None:
            return self._idle_gap_s
        if self._tick_duration_ema_s is None:
            return MIN_IDLE_GAP_S
        return max(MIN_IDLE_GAP_S,
                   IDLE_GAP_TICKS * self._tick_duration_ema_s)

    def _touch(self, now: float, busy_s: float = 0.0) -> None:
        """Note one submit/tick/complete event that ended at ``now``
        after keeping the runtime busy for ``busy_s``: extend the open
        busy interval, or close it and start a new one if the runtime
        sat silent for longer than the idle-gap threshold *before the
        event began*.  The event's own span is busy time by definition
        — however long a tick runs, it never reads as an idle gap."""
        began = now - busy_s
        if self._interval_start is None:
            self._interval_start = began
            self._last_event = now
            return
        if began - self._last_event > self._gap_threshold():
            self._busy_s += self._last_event - self._interval_start
            self._interval_start = began
        # max(): a submit is stamped on arrival but recorded after its
        # backpressure ticks, so events can arrive out of order.
        self._last_event = max(self._last_event, now)

    # -- recording hooks (called by the session) ------------------------
    def record_submit(self, now: float) -> None:
        self.frames_submitted += 1
        self._touch(now)

    def record_tick(self, occupancy: float, now: float,
                    duration_s: float | None = None,
                    kernel_s: float | None = None) -> None:
        """One engine tick: lane occupancy, plus (when the session
        measured them) the tick's wall duration and the share of it
        spent inside kernel work — the numpy step or the compiled
        cores — as opposed to Python orchestration."""
        self.ticks += 1
        self._occupancy_sum += occupancy
        if duration_s is not None:
            self.tick_duration_s += duration_s
            self._tick_durations.append(duration_s)
            if self._tick_duration_ema_s is None:
                self._tick_duration_ema_s = duration_s
            else:
                self._tick_duration_ema_s += _TICK_EMA_ALPHA * (
                    duration_s - self._tick_duration_ema_s)
        if kernel_s is not None:
            self.tick_kernel_s += kernel_s
        self._touch(now, duration_s or 0.0)

    def record_complete(self, now: float, latency_s: float, detections: int,
                        counters: ComplexityCounters, *, priority: int = 0,
                        had_deadline: bool = False,
                        missed_deadline: bool = False,
                        stages: dict | None = None) -> None:
        self.frames_completed += 1
        self.searches_completed += detections
        self._latencies.append(latency_s)
        window = self._class_latencies.get(priority)
        if window is None:
            window = deque(maxlen=self._latency_window)
            self._class_latencies[priority] = window
        window.append(latency_s)
        if stages is not None:
            class_windows = self._class_stage_windows.get(priority)
            if class_windows is None:
                class_windows = {stage: deque(maxlen=self._latency_window)
                                 for stage in STAGES}
                self._class_stage_windows[priority] = class_windows
            for stage in STAGES:
                seconds = stages.get(stage, 0.0)
                self.stage_totals_s[stage] += seconds
                self._stage_windows[stage].append(seconds)
                class_windows[stage].append(seconds)
        self._touch(now)
        self.counters.merge(counters)
        if had_deadline:
            self.deadline_frames_resolved += 1
            if missed_deadline:
                self.deadline_near_misses += 1
            else:
                self.deadline_frames_met += 1

    def record_degraded(self, now: float) -> None:
        """One frame's budgets shrunk to chase its deadline.  Counted
        at degradation time, so frames that degrade and *still* expire
        are counted once in each ledger."""
        self.frames_degraded += 1
        self._touch(now)

    def record_expired(self, now: float) -> None:
        """One frame dropped unfinished at its deadline — a full miss."""
        self.frames_expired += 1
        self.deadline_frames_resolved += 1
        self._touch(now)

    def record_cancelled(self, now: float) -> None:
        """One frame explicitly removed by the caller (not a deadline
        event, so it never enters the miss-rate denominator)."""
        self.frames_cancelled += 1
        self._touch(now)

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
        """Accumulated busy time: the sum of intervals during which the
        runtime saw events (submits, ticks, completions), with silences
        longer than the idle-gap threshold excluded — so a quiet hour
        between two bursts does not deflate the rates.  Every timed
        tick lies wholly inside a busy interval, so (on one time base —
        the session's default clock is the tick timer's)
        ``elapsed_s >= tick_duration_s`` always."""
        if self._interval_start is None:
            return 0.0
        return self._busy_s + (self._last_event - self._interval_start)

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

    def crc_failure_rate(self) -> float:
        """Fraction of decoded streams whose frame check sequence
        failed; 0.0 before any stream has been decoded."""
        if self.streams_decoded == 0:
            return 0.0
        return 1.0 - self.streams_crc_ok / self.streams_decoded

    def degraded_crc_failure_rate(self) -> float:
        """CRC failure rate over *degraded* frames' streams only — the
        error-rate price of shrinking search budgets to make deadlines;
        0.0 before any degraded stream has been decoded."""
        if self.degraded_streams_decoded == 0:
            return 0.0
        return 1.0 - (self.degraded_streams_crc_ok
                      / self.degraded_streams_decoded)

    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-tagged frames that missed: expired
        unfinished, or completed past their deadline (near misses).
        0.0 before any deadline-tagged frame has resolved."""
        if self.deadline_frames_resolved == 0:
            return 0.0
        return ((self.frames_expired + self.deadline_near_misses)
                / self.deadline_frames_resolved)

    def latency_percentiles(self, percentiles=(50, 90, 99), *,
                            priority: int | None = None) -> dict[int, float]:
        """Per-frame submit-to-completion latency percentiles (seconds)
        over the most recent window of completions.

        ``priority`` narrows the window to one priority class.  An empty
        window — a fresh runtime, or a class that has completed nothing —
        returns an **empty dict** rather than raising, so direct callers
        can probe a runtime at any point in its life.
        """
        window = (self._latencies if priority is None
                  else self._class_latencies.get(priority, ()))
        if not len(window):
            return {}
        values = np.percentile(np.asarray(window), percentiles)
        return {int(p): float(v) for p, v in zip(percentiles, values)}

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
        (see :data:`STAGES`).

        ``priority`` narrows the windows to one priority class.  Stages
        with an empty window are omitted; a runtime that has completed
        nothing returns an empty dict.
        """
        windows = (self._stage_windows if priority is None
                   else self._class_stage_windows.get(priority, {}))
        report = {}
        for stage in STAGES:
            window = windows.get(stage, ())
            if not len(window):
                continue
            values = np.percentile(np.asarray(window), percentiles)
            report[stage] = {int(p): float(v)
                             for p, v in zip(percentiles, values)}
        return report

    def mean_lane_occupancy(self) -> float:
        """Average fraction of the allocated lanes busy per tick
        (:meth:`StreamingFrontier.occupancy
        <repro.runtime.engine.StreamingFrontier.occupancy>`: against
        what the pools have actually allocated, not the global lane
        budget)."""
        return self._occupancy_sum / self.ticks if self.ticks else 0.0

    def tick_orchestration_s(self) -> float:
        """Measured tick time spent *outside* kernel work (clamped at
        zero: the two clocks bracket slightly different spans, so tiny
        negative residues are measurement noise, not credit)."""
        return max(0.0, self.tick_duration_s - self.tick_kernel_s)

    def kernel_time_fraction(self) -> float:
        """Share of measured tick time spent inside kernel work; 0.0
        before any timed tick."""
        if self.tick_duration_s <= 0.0:
            return 0.0
        return min(1.0, self.tick_kernel_s / self.tick_duration_s)

    def tick_duration_percentiles(self, percentiles=(50, 90, 99)
                                  ) -> dict[int, float]:
        """Per-tick wall-duration percentiles (seconds) over the most
        recent window of timed ticks; empty dict before any timed
        tick."""
        if not len(self._tick_durations):
            return {}
        values = np.percentile(np.asarray(self._tick_durations), percentiles)
        return {int(p): float(v) for p, v in zip(percentiles, values)}

    def summary(self) -> dict:
        """One dict with the headline numbers (benchmark ``extra_info``
        friendly)."""
        report = {
            "frames_submitted": self.frames_submitted,
            "frames_completed": self.frames_completed,
            "frames_expired": self.frames_expired,
            "frames_cancelled": self.frames_cancelled,
            "frames_degraded": self.frames_degraded,
            "searches_completed": self.searches_completed,
            "ticks": self.ticks,
            "elapsed_s": self.elapsed_s,
            "frames_per_second": self.frames_per_second(),
            "mean_lane_occupancy": self.mean_lane_occupancy(),
            "tick_duration_s": self.tick_duration_s,
            "tick_kernel_s": self.tick_kernel_s,
            "tick_orchestration_s": self.tick_orchestration_s(),
            "kernel_time_fraction": self.kernel_time_fraction(),
            "visited_nodes": self.counters.visited_nodes,
            "ped_calcs": self.counters.ped_calcs,
            "streams_decoded": self.streams_decoded,
            "streams_crc_ok": self.streams_crc_ok,
            "payload_bits_ok": self.payload_bits_ok,
            "degraded_streams_decoded": self.degraded_streams_decoded,
            "degraded_streams_crc_ok": self.degraded_streams_crc_ok,
            "deadline_frames_resolved": self.deadline_frames_resolved,
            "deadline_frames_met": self.deadline_frames_met,
            "deadline_near_misses": self.deadline_near_misses,
            "crc_failure_rate": self.crc_failure_rate(),
            "goodput_bits_per_second": self.goodput_bps(),
            "deadline_miss_rate": self.deadline_miss_rate(),
            "degraded_crc_failure_rate": self.degraded_crc_failure_rate(),
        }
        for stage in STAGES:
            report[f"stage_{stage}_s"] = self.stage_totals_s[stage]
        stage_percentiles = self.stage_latency_percentiles()
        if stage_percentiles:
            report["stage_latency_percentiles_s"] = stage_percentiles
        if self._tick_duration_ema_s is not None:
            report["tick_duration_ema_s"] = self._tick_duration_ema_s
        if self._tick_durations:
            report["tick_duration_percentiles_s"] = (
                self.tick_duration_percentiles())
        if self._latencies:
            report["latency_percentiles_s"] = self.latency_percentiles()
        if len(self._class_latencies) > 1:
            report["latency_percentiles_by_class_s"] = (
                self.class_latency_percentiles())
        return report


#: ``summary()`` keys that sum exactly across concurrently running
#: runtimes (the sharded farm's per-shard ledgers).  Deliberately
#: absent: ``tick_orchestration_s`` is per-shard *clamped* at zero, so
#: summing it would let clamp residue inflate the farm total — the
#: aggregate recomputes it from the summed duration and kernel time.
_ADDITIVE_KEYS = (
    "frames_submitted", "frames_completed", "frames_expired",
    "frames_cancelled", "frames_degraded", "searches_completed", "ticks",
    "visited_nodes", "ped_calcs", "streams_decoded", "streams_crc_ok",
    "payload_bits_ok", "degraded_streams_decoded", "degraded_streams_crc_ok",
    "deadline_frames_resolved", "deadline_frames_met",
    "deadline_near_misses", "tick_duration_s", "tick_kernel_s",
    "stage_queue_wait_s", "stage_detect_s", "stage_decode_s",
    "stage_resolve_s",
)


def _ratio(numerator: float, denominator: float) -> float:
    if denominator == 0:
        return 0.0
    return numerator / denominator


def aggregate_summaries(summaries: list[dict]) -> dict:
    """Fold per-shard :meth:`RuntimeStats.summary` dicts into one
    farm-level view.

    Counts sum exactly; rates (frames/sec, goodput) sum because the
    shards run *concurrently* — each shard's rate is over its own busy
    time; ratio metrics (CRC failure, deadline misses) are recomputed
    from the summed numerators and denominators rather than averaged, so
    a busy shard weighs as much as its traffic; ``elapsed_s`` is the
    busiest shard's busy time (wall clock, not CPU-seconds) and lane
    occupancy is tick-weighted.  ``tick_orchestration_s`` is recomputed
    from the summed duration/kernel totals — per-shard values are
    clamped at zero, so summing them would let clamp residue inflate
    the farm's orchestration time.

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
    for key in _ADDITIVE_KEYS:
        report[key] = sum(summary.get(key, 0) for summary in present)
    report["tick_orchestration_s"] = max(
        0.0, report["tick_duration_s"] - report["tick_kernel_s"])
    report["elapsed_s"] = max(
        (summary.get("elapsed_s", 0.0) for summary in present),
        default=0.0)
    report["frames_per_second"] = sum(
        summary.get("frames_per_second", 0.0) for summary in present)
    report["goodput_bits_per_second"] = sum(
        summary.get("goodput_bits_per_second", 0.0)
        for summary in present)
    report["mean_lane_occupancy"] = _ratio(
        sum(summary.get("mean_lane_occupancy", 0.0) * summary.get("ticks", 0)
            for summary in present), report["ticks"])
    report["crc_failure_rate"] = 1.0 - _ratio(
        report["streams_crc_ok"], report["streams_decoded"]) if (
        report["streams_decoded"]) else 0.0
    report["degraded_crc_failure_rate"] = 1.0 - _ratio(
        report["degraded_streams_crc_ok"],
        report["degraded_streams_decoded"]) if (
        report["degraded_streams_decoded"]) else 0.0
    report["deadline_miss_rate"] = _ratio(
        report["frames_expired"] + report["deadline_near_misses"],
        report["deadline_frames_resolved"])
    report["kernel_time_fraction"] = min(1.0, _ratio(
        report["tick_kernel_s"], report["tick_duration_s"]))
    report["per_shard"] = list(summaries)
    return report
