"""One workload, measured: the code that runs inside each child process.

Two entry points, one per child mode:

``end_to_end``     set up, then untraced passes -> the end-to-end metrics.
``traced``         set up, alternate untraced / traced passes (the
                   benchmark's span recorder and the program's own public
                   tracing both on), then the layer ladder -> the
                   per-layer metrics and the span trace file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

import oracle
from driver import PassResult, Session, peak_rss_mb
from ladder import run_ladder
from probe import PROBE_REF_S, SpeedProbe, speed_factor
from spans import END, START, SpanRecorder
from workloads import (
    OUTSTANDING,
    WORKLOADS,
    arrival_schedule,
    inputs_digest,
)
from repro.obs import chrome_trace_events
from repro.sphere.tick_kernel import NUMBA_AVAILABLE

TRACED_PASS_PAIRS = 2
#: A traced run spends this share of ``--seconds`` in its passes; the
#: ladder takes the rest.
TRACED_PASS_SHARE = 0.6
#: Probe readings per set-up stage (four stages).
SETUP_PROBES = 5
OPEN_LOOP_WARM_S = 1.0


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Prepared:
    """Set-up done: pool, oracle, a warm primed session, and how long
    it all took since the parent spawned this process."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        # The yardstick is read at each stage of set-up, not once at the
        # end: box speed drifts within the two to five seconds this takes.
        probe = SpeedProbe()
        samples: list[float] = []

        def read_probe() -> None:
            samples.extend(probe.run() for _ in range(SETUP_PROBES))

        #: Open loop: the schedule of every pass run so far.
        self.schedules: list = []
        read_probe()
        self.pool = self.workload.make_pool(args.seed, args.corpus_seed,
                                            args.smoke)
        read_probe()
        self.expected = oracle.build_oracle(self.pool, args.seed)
        read_probe()
        self.session = self.new_session(trace=False)
        # Warm-up is one whole pool cycle: every kernel-pool signature
        # allocated, caches hot.
        self.warm(self.session, len(self.pool))
        read_probe()
        self.setup_raw_s = time.time() - args.spawned_at - sum(samples)
        self.setup_speed = speed_factor(samples)

    def new_session(self, trace: bool, recorder=None) -> Session:
        return Session(self.workload.make_sut(trace), self.pool,
                       self.expected, recorder)

    def warm(self, session: Session, frames: int) -> None:
        session.prime(OUTSTANDING, settle=frames)
        if self.workload.loop == "open":
            # The first scheduled arrival must meet a warm, *empty*
            # runtime, and the pass's clock probe readings taken the way
            # a pass takes them: in idle gaps.
            session.drain()
            if self.run_pass(session, OPEN_LOOP_WARM_S).mismatched:
                raise AssertionError("open-loop warm-up decoded a frame "
                                     "differently from the oracle")

    def run_pass(self, session: Session, pass_seconds: float) -> PassResult:
        if self.workload.loop == "closed":
            return session.closed_pass(pass_seconds)
        self.schedules.append(arrival_schedule(
            self.args.seed, len(self.schedules), pass_seconds))
        return session.open_pass(*self.schedules[-1])


# -- end to end ----------------------------------------------------------------
def _over_passes(raw: list[float], calibrated: list[float]) -> dict:
    """A per-pass metric: median and quartiles over the passes."""
    q1, q2, q3 = _quartiles(calibrated)
    return {"value": q2, "q1": q1, "q3": q3, "passes": calibrated,
            "raw": statistics.median(raw)}


def _latency_ms(passes, percentile: int) -> dict:
    """A latency percentile over the calibrated samples of all passes
    pooled.  The per-pass percentiles ride along (``passes``, ``q1``,
    ``q3``) so ``compare.py`` can see how far they scatter."""
    def ms(chosen, calibrated: bool = True) -> float:
        return float(np.percentile(np.concatenate(
            [np.multiply(p.latencies_s, p.latency_speeds) if calibrated
             else np.asarray(p.latencies_s) for p in chosen]),
            percentile)) * 1e3

    per_pass = [ms([p]) for p in passes]
    q1, _, q3 = _quartiles(per_pass)
    return {"value": ms(passes), "q1": q1, "q3": q3, "passes": per_pass,
            "raw": ms(passes, calibrated=False),
            "samples": sum(len(p.latencies_s) for p in passes)}


def summarise_passes(passes: list[PassResult]) -> dict:
    """The end-to-end metrics (all but ``setup_s`` and ``peak_rss_mb``)
    from a run's verified passes, in reference time: durations are
    multiplied by the pass's speed factor, rates divided."""
    def rate(values):
        return _over_passes(values, [value / p.rate_speed
                                     for value, p in zip(values, passes)])

    cpu = [p.cpu_s / max(p.ok, 1) for p in passes]
    slo = [p.slo_met / p.attempted for p in passes]
    return {
        "frames_per_s": rate([p.ok / p.wall_s for p in passes]),
        "goodput_mbps": rate([p.good_bits / p.wall_s / 1e6 for p in passes]),
        "latency_p50_ms": _latency_ms(passes, 50),
        "latency_p95_ms": _latency_ms(passes, 95),
        "cpu_s_per_frame": _over_passes(
            cpu, [value * p.speed for value, p in zip(cpu, passes)]),
        "slo_met_fraction": _over_passes(slo, slo),
    }


def _counts(passes: list[PassResult]) -> dict:
    return {key: sum(getattr(p, key) for p in passes)
            for key in ("attempted", "failed", "mismatched", "expired",
                        "degraded", "ok")}


def end_to_end(args) -> dict:
    prepared = Prepared(args)
    session = prepared.session
    pass_seconds = args.seconds / args.passes
    passes = [prepared.run_pass(session, pass_seconds)
              for _ in range(args.passes)]
    session.drain()
    metrics = summarise_passes(passes)
    rss = peak_rss_mb()
    session.sut.close()
    metrics["peak_rss_mb"] = {"value": rss, "raw": rss}
    metrics["setup_s"] = {
        "value": prepared.setup_raw_s * prepared.setup_speed,
        "raw": prepared.setup_raw_s}
    counts = _counts(passes)
    return {
        "metrics": metrics,
        **counts,
        "correct": counts["mismatched"] == 0,
        "inputs_digest": inputs_digest(prepared.pool, prepared.schedules),
        "results_digest": oracle.results_digest(session.seen_results),
        "corpus_seed": args.corpus_seed,
        "pool_frames": len(prepared.pool),
        "frames_per_pass": [p.attempted for p in passes],
        "speed_factors": [p.speed for p in passes],
    }


# -- traced --------------------------------------------------------------------
def _percentile_ms(durations, percentile) -> float:
    if not durations:
        return 0.0
    return float(np.percentile(np.asarray(durations), percentile)) * 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(session, recorder, roots, traced, plain) -> dict:
    """Per-layer metrics of the traced passes: the benchmark's spans
    around its calls, plus the program's public stats."""
    sut = session.sut
    layer = sut.layer
    summary = sut.summary()
    speed = statistics.median(p.speed for p in traced)

    def ms(name: str, percentile: int) -> float:
        return _percentile_ms(recorder.durations(name, roots[0]),
                              percentile) * speed

    self_s: dict[str, float] = {}
    for root in roots:
        for name, seconds in recorder.self_times(root).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    pass_wall = sum(recorder.spans[root][END] - recorder.spans[root][START]
                    for root in roots)
    polls = sum(p.polls for p in traced)
    frames = sum(p.attempted for p in traced)
    stage = summary.get("stage_latency_percentiles_s", {})
    ticks = summary.get("tick_duration_percentiles_s", {})
    completed = summary["frames_completed"]
    submitted = summary["frames_submitted"]
    in_flight = [n for p in traced for n in p.in_flight_samples]
    stage_total = sum(summary[f"stage_{name}_s"]
                      for name in ("queue_wait", "detect", "decode",
                                   "resolve"))
    traces = sut.frame_traces()

    metrics = {
        f"{layer}.self_fraction": _ratio(self_s.get(layer, 0.0), pass_wall),
        "runtime.ticks_per_frame": _ratio(summary["ticks"], completed),
        "runtime.tick_ms_p50": ticks.get(50, 0.0) * 1e3 * speed,
        # The farm's stats verb exposes p50/p90/p99 only.
        "runtime.tick_ms_p95": ticks.get(95, 0.0) * 1e3 * speed,
        "runtime.kernel_time_fraction": summary["kernel_time_fraction"],
        "runtime.lane_occupancy_mean": summary["mean_lane_occupancy"],
        "runtime.degraded_fraction": _ratio(summary["frames_degraded"],
                                            submitted),
        "runtime.expired_fraction": _ratio(summary["frames_expired"],
                                           submitted),
        "runtime.deadline_miss_fraction": summary["deadline_miss_rate"],
        "runtime.in_flight_mean": statistics.fmean(in_flight),
        "runtime.backlog_max": float(max(in_flight)),
        # Wall the system had work in hand, against the program's own
        # busy-time figure: 1.0 when its stats agree with the clock.
        "runtime.stats_elapsed_over_wall": _ratio(summary["elapsed_s"],
                                                  session.active_s),
        "obs.events_per_frame": (
            statistics.fmean(len(trace.events) for trace in traces)
            if traces else 0.0),
        "obs.stage_sum_over_latency": _ratio(stage_total,
                                             session.program_latency_s),
        "bench.loadgen_lateness_p95_ms": _percentile_ms(
            [late for p in traced for late in p.lateness_s], 95) * speed,
        "bench.self_fraction": _ratio(self_s.get("bench", 0.0), pass_wall),
        "bench.trace_overhead_fraction": 1.0 - _ratio(
            statistics.median(p.ok / p.wall_s / p.rate_speed
                              for p in traced),
            statistics.median(p.ok / p.wall_s / p.rate_speed
                              for p in plain)),
        "bench.probe_share": _ratio(
            sum(p.probe_s for p in traced),
            sum(p.probe_s + p.wall_s for p in traced)),
    }
    for name in ("queue_wait", "detect", "decode", "resolve"):
        metrics[f"runtime.{name}_ms_p50"] = (
            stage.get(name, {}).get(50, 0.0) * 1e3 * speed)
    probe_speeds = [PROBE_REF_S / sample
                    for p in traced + plain for sample in p.probe_samples]
    q1, q2, q3 = _quartiles(probe_speeds)
    metrics["bench.speed_factor_p50"] = q2
    metrics["bench.speed_factor_spread"] = (q3 - q1) / q2
    if layer == "runtime":
        metrics["runtime.submit_ms_p50"] = ms("runtime.submit", 50)
        metrics["runtime.poll_ms_p50"] = ms("runtime.poll", 50)
        metrics["runtime.poll_ms_p95"] = ms("runtime.poll", 95)
    else:
        cpu = sum(p.cpu_s for p in traced)
        driver_cpu = sum(p.driver_cpu_s for p in traced)
        metrics.update({
            "service.submit_rtt_ms_p50": ms("service.submit", 50),
            "service.poll_rtt_ms_p50": ms("service.poll", 50),
            "service.empty_poll_fraction": _ratio(
                sum(p.empty_polls for p in traced), polls),
            "service.idle_fraction": _ratio(
                sum(recorder.durations("bench.idle", roots[0])), pass_wall),
            "service.driver_cpu_share": _ratio(driver_cpu, cpu),
            "service.worker_cpu_s_per_frame": _ratio(cpu - driver_cpu,
                                                     frames) * speed,
            "service.restarts": float(sum(summary["restarts"])),
        })
    return metrics


def traced(args, per_layer_names: list[str]) -> dict:
    prepared = Prepared(args)
    closed = prepared.workload.loop == "closed"
    recorder = SpanRecorder(enabled=True)
    plain_session = prepared.session
    plain_session.drain()
    traced_session = prepared.new_session(trace=True, recorder=recorder)
    prepared.warm(traced_session, 2 * OUTSTANDING)
    traced_session.drain()
    pass_seconds = (args.seconds * TRACED_PASS_SHARE
                    / (2 * TRACED_PASS_PAIRS))

    def one_pass(session) -> PassResult:
        if closed:
            session.prime(OUTSTANDING, settle=OUTSTANDING)
        result = prepared.run_pass(session, pass_seconds)
        session.drain()
        return result

    # Untraced and traced passes alternate so drift hits both sides;
    # their ratio is the tracing overhead.
    plain, traced_passes, roots = [], [], []
    for _ in range(TRACED_PASS_PAIRS):
        plain.append(one_pass(plain_session))
        with recorder.span("pass", "bench") as root:
            traced_passes.append(one_pass(traced_session))
        roots.append(root)
    metrics = _layer_metrics(traced_session, recorder, roots, traced_passes,
                             plain)
    # The program's own frame traces ride along on tracks of their own.
    program_events = chrome_trace_events(traced_session.sut.frame_traces())
    for event in program_events:
        event["pid"] = 1 + event.get("pid", 0)
    plain_session.sut.close()
    traced_session.sut.close()

    ladder_metrics, coverage = run_ladder(
        prepared.workload, prepared.pool, prepared.expected, recorder,
        args.smoke)
    metrics.update(ladder_metrics)
    metrics["bench.rung_span_coverage_min"] = min(coverage.values())

    unknown = sorted(set(metrics) - set(per_layer_names))
    if unknown:
        raise AssertionError(f"metrics missing from BENCHMARK.json: {unknown}")
    trace_path = Path(args.out) / f"{args.workload}.trace.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(
        {"traceEvents": recorder.chrome_events() + program_events,
         "displayTimeUnit": "ms"}))
    counts = _counts(traced_passes + plain)
    return {
        # A layer this workload does not exercise reads zero.
        "metrics": {name: metrics.get(name, 0.0)
                    for name in per_layer_names},
        **counts,
        "correct": counts["mismatched"] == 0,
        "trace_file": str(trace_path),
        "rung_span_coverage": coverage,
    }


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "numba_available": NUMBA_AVAILABLE}
