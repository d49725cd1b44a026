"""Observability: lifecycle tracing, stage latency, metrics export (ISSUE-10).

The contract under test has three legs.  **Tracing is truthful**: a
traced frame's event record is the complete ordered story of its
lifecycle — submit → admit → first-lane → (degrade/expedite/evict) →
detect-done → viterbi → crc → decode-done → resolve/expire/cancel —
across the single runtime *and* the farm (route/restart/replay ride the
same trace through worker pipes and supervisor replays).  **Tracing is
free of side effects**: every decode path is bit-identical with tracing
on or off, for every admission order and shard count.
**The export plane never re-derives**: every Prometheus sample equals
its ``summary()`` source, iterated straight off the COUNTER_KEYS /
GAUGE_KEYS tables, including over the service socket.

Plus the stats satellites: the farm aggregate recomputes (not sums) the
clamped orchestration residue, tolerates shards that answered no stats
poll, keeps percentile windows bounded, and round-trips a single shard's
summary unchanged.
"""

import json
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.constellation import qam
from repro.obs import (
    COUNTER_KEYS,
    GAUGE_KEYS,
    FrameTrace,
    FrameTracer,
    chrome_trace,
    chrome_trace_events,
    export_jsonl,
    merge_traces,
    prometheus_text,
)
from repro.obs import trace as trace_module
from repro.obs.ledger import COUNTER, DERIVED, METRICS, SUM
from repro.runtime import STAGES, RuntimeStats, UplinkRuntime
from repro.runtime import stats as stats_module
from repro.runtime.stats import aggregate_summaries
from repro.service import CellSiteClient, CellSiteServer, DetectorFarm
from repro.service.wire import decode, encode
from repro.sphere import ComplexityCounters, ListSphereDecoder, SphereDecoder

from test_engine import pinned_runtime
from test_runtime import (
    _assert_identical,
    _coded_config,
    _make_coded_frame,
    _make_frame,
    _reference,
)
from test_runtime_qos import _Clock, _tagged_frame
from test_service import _check_all, _mixed_frames


# ----------------------------------------------------------------------
# Tracer mechanics: off-by-default, bounded, mergeable, picklable
# ----------------------------------------------------------------------

def test_tracer_disabled_is_a_noop():
    tracer = FrameTracer()                      # off by default
    trace = tracer.start(0, kind="hard")
    assert trace is None
    tracer.emit(trace, "submit", t=1.0)         # all no-ops on None
    tracer.finish(trace)
    assert tracer.frames_traced == 0
    assert tracer.traces() == []
    assert tracer.export_jsonl() == ""
    assert tracer.chrome_trace()["traceEvents"] == []


def test_tracer_buffers_are_bounded_and_overflow_is_counted(monkeypatch):
    monkeypatch.setattr(trace_module, "RETAIN_FRAMES", 2)
    monkeypatch.setattr(trace_module, "MAX_EVENTS_PER_FRAME", 3)
    tracer = FrameTracer(enabled=True, clock=lambda: 0.0)
    for frame_id in range(3):
        trace = tracer.start(frame_id)
        for event in range(5):                  # two past the cap
            tracer.emit(trace, f"e{event}")
        assert trace.names() == ["e0", "e1", "e2"]
        assert trace.dropped == 2
        tracer.finish(trace)
    assert tracer.frames_traced == 3
    assert tracer.events_dropped == 6
    retained = tracer.traces()                  # ring kept the newest two
    assert [trace.frame_id for trace in retained] == [1, 2]
    assert json.loads(export_jsonl(retained).splitlines()[0])["dropped"] == 2
    tracer.clear()
    assert tracer.traces() == []


def test_merge_traces_interleaves_by_time_and_fills_labels():
    farm_side = FrameTrace(7, {"shard": 1})
    farm_side.add(1.0, "route", {"shard": 1})
    farm_side.add(9.0, "replay", None)
    worker_side = FrameTrace(7, {"shard": 0, "kind": "hard"})
    worker_side.add(2.0, "submit", None)
    worker_side.add(3.0, "detect-done", None)
    worker_side.dropped = 4

    merged = merge_traces(farm_side, worker_side)
    assert merged is farm_side
    assert merged.names() == ["route", "submit", "detect-done", "replay"]
    assert merged.labels == {"shard": 1, "kind": "hard"}  # primary wins
    assert merged.dropped == 4
    assert merged.first("submit") == 2.0
    assert merged.first("missing") is None

    only = FrameTrace(8)
    assert merge_traces(None, only) is only
    assert merge_traces(only, None) is only
    assert merge_traces(None, None) is None


def test_frame_trace_round_trips_through_pickle():
    """Traces cross the farm's worker pipes inside result payloads."""
    trace = FrameTrace(3, {"shard": 2})
    trace.add(0.5, "submit", {"deadline_s": 1.0})
    trace.add(0.7, "resolve", None)
    clone = pickle.loads(pickle.dumps(trace))
    assert clone.frame_id == 3
    assert clone.labels == {"shard": 2}
    assert clone.events == trace.events
    assert clone.dropped == 0
    assert "resolve" in repr(clone)


def test_frame_trace_round_trips_on_the_wire():
    """...and cross them in the service's wire schema, int label keys,
    event attributes, drop tally and all."""
    trace = FrameTrace(3, {"shard": 2, 7: "seven"})
    trace.add(0.5, "submit", {"deadline_s": 1.0, "priority": 1})
    trace.add(0.7, "resolve", None)
    trace.dropped = 4
    verb, clone = decode(bytearray(encode(("ok", trace)))[4:])
    assert verb == "ok" and type(clone) is FrameTrace
    assert clone.frame_id == 3
    assert clone.labels == {"shard": 2, 7: "seven"}
    assert clone.events == trace.events
    assert clone.dropped == 4
    assert "resolve" in repr(clone)


# ----------------------------------------------------------------------
# Runtime lifecycle traces
# ----------------------------------------------------------------------

def test_runtime_traces_complete_ordered_lifecycle():
    rng = np.random.default_rng(0)
    runtime = UplinkRuntime(trace=True)
    hard = _make_frame(SphereDecoder(qam(16)), 4, 2, 18.0, rng)
    soft = _make_frame(ListSphereDecoder(qam(4), list_size=4), 3, 2, 15.0,
                       rng, soft=True)
    handles = [runtime.submit(hard), runtime.submit(soft)]
    runtime.drain()

    traces = runtime.tracer.traces()
    assert len(traces) == 2
    by_id = {trace.frame_id: trace for trace in traces}
    for handle, kind in zip(handles, ("hard", "soft")):
        trace = by_id[handle.frame_id]
        assert trace.names() == ["submit", "admit", "first-lane",
                                 "detect-done", "resolve"]
        assert trace.labels == {"kind": kind, "priority": 0}
        times = [t for t, _, _ in trace.events]
        assert times == sorted(times)
        assert trace.first("submit") == handle.submitted_at
        assert trace.first("resolve") == handle.completed_at
        resolve_attrs = trace.events[-1][2]
        assert resolve_attrs["resolution"] == "completed"
        assert not resolve_attrs["degraded"]


def test_coded_frame_trace_includes_decode_stage_events():
    rng = np.random.default_rng(1)
    runtime = UplinkRuntime(trace=True)
    config = _coded_config(4, payload_bits=40)
    handle = runtime.submit(_make_coded_frame(config, SphereDecoder(qam(4)),
                                              25.0, rng))
    runtime.drain()
    (trace,) = runtime.tracer.traces()
    assert trace.names() == ["submit", "admit", "first-lane", "detect-done",
                             "viterbi", "crc", "decode-done", "resolve"]
    crc_attrs = next(attrs for _, name, attrs in trace.events
                     if name == "crc")
    assert crc_attrs["streams"] == 2
    assert 0 <= crc_attrs["crc_ok"] <= 2
    assert handle.resolution == "completed"


def test_qos_events_are_traced_expire_degrade_expedite():
    # Expiry: past-deadline frame records evict + expire, never resolve.
    rng = np.random.default_rng(2)
    clock = _Clock()
    runtime = UplinkRuntime(capacity=4, clock=clock, trace=True)
    decoder = SphereDecoder(qam(16))
    runtime.submit(_tagged_frame(decoder, rng, deadline_s=1.0,
                                 num_subcarriers=4, num_symbols=3))
    clock.now = 10.0
    runtime.drain()
    doomed = next(trace for trace in runtime.tracer.traces()
                  if "expire" in trace.names())
    names = doomed.names()
    assert "evict" in names and "resolve" not in names
    assert names[-1] == "expire"
    assert names.index("evict") < names.index("expire")

    # Degradation: degrade is stamped before the queue expedite.
    rng = np.random.default_rng(3)
    clock = _Clock()
    runtime = pinned_runtime(capacity=8, drain_threshold=0, clock=clock,
                             trace=True)
    handle = runtime.submit(_tagged_frame(decoder, rng, deadline_s=10.0,
                                          num_subcarriers=4, num_symbols=3,
                                          snr_db=8.0))
    clock.now = 8.0                     # inside the degrade margin
    runtime.drain()
    assert handle.degraded
    (trace,) = runtime.tracer.traces()
    names = trace.names()
    assert "degrade" in names
    assert names.index("degrade") < names.index("detect-done")
    resolve_attrs = trace.events[-1][2]
    assert resolve_attrs["degraded"] is True

    # Cancellation: the trace closes with an explicit cancel event.
    rng = np.random.default_rng(4)
    runtime = UplinkRuntime(trace=True)
    victim = runtime.submit(_make_frame(decoder, 3, 2, 15.0, rng))
    runtime.cancel(victim)
    (trace,) = runtime.tracer.traces()
    assert trace.names()[-1] == "cancel"
    assert trace.first("cancel") == victim.completed_at


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------

def _traced_runtime(seed=5):
    rng = np.random.default_rng(seed)
    runtime = UplinkRuntime(trace=True)
    frames = [_make_frame(SphereDecoder(qam(16)), 4, 2, 18.0, rng),
              _make_frame(ListSphereDecoder(qam(4), list_size=4), 3, 2,
                          15.0, rng, soft=True)]
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    return runtime, frames, handles


def test_jsonl_export_is_parseable_and_complete():
    runtime, _, handles = _traced_runtime()
    records = [json.loads(line)
               for line in runtime.tracer.export_jsonl().splitlines()]
    headers = [r for r in records if r["type"] == "frame"]
    events = [r for r in records if r["type"] == "event"]
    assert {r["frame_id"] for r in headers} == {h.frame_id for h in handles}
    assert all(r["dropped"] == 0 for r in headers)
    assert sum(r["events"] for r in headers) == len(events)
    submits = [r for r in events if r["name"] == "submit"]
    assert {r["frame_id"] for r in submits} == {h.frame_id for h in handles}
    assert all(set(r) <= {"type", "frame_id", "t", "name", "attrs"}
               for r in events)


def test_chrome_trace_spans_are_viewable_and_nonnegative():
    runtime, _, handles = _traced_runtime(seed=6)
    document = runtime.tracer.chrome_trace()
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    json.dumps(document)                        # loadable by Perfetto
    metadata = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["tid"] for e in metadata} == {h.frame_id for h in handles}
    # Each completed uncoded frame contributes its three stage spans.
    for handle in handles:
        mine = [e["name"] for e in spans if e["tid"] == handle.frame_id]
        assert mine == ["queue-wait", "detect", "resolve"]
    assert all(e["dur"] >= 0.0 for e in spans)
    assert all(e["s"] == "t" for e in instants)
    # Span chain is contiguous: each span starts where the previous ended.
    for handle in handles:
        mine = sorted((e for e in spans if e["tid"] == handle.frame_id),
                      key=lambda e: e["ts"])
        for left, right in zip(mine, mine[1:]):
            assert right["ts"] == pytest.approx(left["ts"] + left["dur"])
    assert chrome_trace_events([]) == []
    assert chrome_trace([])["traceEvents"] == []
    assert chrome_trace_events([FrameTrace(0)]) == []   # eventless trace


# ----------------------------------------------------------------------
# Bit-exactness: tracing is pure observation
# ----------------------------------------------------------------------

def test_tracing_bit_identical_across_orders_and_tick_strategies():
    rng = np.random.default_rng(7)
    frames = _mixed_frames(rng, repeats=1)
    references = [_reference(frame) for frame in frames]
    for order in (list(range(len(frames))),
                  list(reversed(range(len(frames))))):
        for trace in (False, True):
            runtime = UplinkRuntime(trace=trace)
            handles = {index: runtime.submit(frames[index])
                       for index in order}
            runtime.drain()
            for index, handle in handles.items():
                _assert_identical(
                    handle.result(), references[index],
                    frames[index].noise_variance is not None)


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_traced_inline_farm_bit_identical(num_shards):
    rng = np.random.default_rng(8)
    frames = _mixed_frames(rng)
    with DetectorFarm(num_shards, backend="inline", trace=True) as farm:
        handles = [farm.submit(frame) for frame in frames]
        farm.drain()
        _check_all(handles, frames)
        traces = farm.tracer.traces()
    assert len(traces) == len(frames)
    for trace in traces:
        names = trace.names()
        assert names[0] == "route"
        assert names[-1] == "resolve"
        assert {"submit", "admit", "first-lane", "detect-done"} <= set(names)
        assert 0 <= trace.labels["shard"] < num_shards


def test_farm_close_ends_the_traces_of_the_frames_it_expires():
    """A frame ``close()`` expires ends its trace like any other: an
    ``expire`` event (``reason="close"``), and the trace lands in the
    farm tracer's ring."""
    rng = np.random.default_rng(10)
    farm = DetectorFarm(1, backend="inline", trace=True)
    handle = farm.submit(_make_frame(SphereDecoder(qam(4)), 3, 2, 15.0,
                                     rng))
    farm.close()
    (trace,) = farm.tracer.traces()
    assert trace is handle.trace
    assert trace.names() == ["route", "expire"]
    assert trace.events[-1][2] == {"reason": "close"}
    assert handle.expired and handle.latency_s >= 0.0


def test_killed_worker_replay_annotates_the_same_trace():
    """SIGKILL one shard mid-load with tracing on: the replayed frames'
    traces carry the supervision story (route → restart → replay) fused
    with the fresh worker's decode events, and every result is still
    bit-identical."""
    rng = np.random.default_rng(9)
    frames = _mixed_frames(rng)
    with DetectorFarm(2, backend="process", trace=True) as farm:
        handles = [farm.submit(frame) for frame in frames]
        farm.kill_shard(0)
        farm.drain()
        _check_all(handles, frames)
        assert sum(farm.stats()["restarts"]) >= 1
        traces = farm.tracer.traces()
    assert len(traces) == len(frames)
    replayed = [trace for trace in traces if "restart" in trace.names()]
    assert replayed, "the killed shard had in-flight frames"
    for trace in replayed:
        names = trace.names()
        assert names.index("route") < names.index("restart")
        assert names.index("restart") < names.index("replay")
        assert names.index("replay") < names.index("submit")
        assert names[-1] == "resolve"
        restart_attrs = next(attrs for _, name, attrs in trace.events
                             if name == "restart")
        assert restart_attrs["shard"] == 0
        assert restart_attrs["restarts"] >= 1


# ----------------------------------------------------------------------
# Stage-latency decomposition
# ----------------------------------------------------------------------

def test_stage_components_partition_frame_latency():
    rng = np.random.default_rng(10)
    runtime = UplinkRuntime()
    config = _coded_config(4, payload_bits=40)
    frames = [_make_frame(SphereDecoder(qam(16)), 4, 2, 18.0, rng),
              _make_coded_frame(config, SphereDecoder(qam(4)), 25.0, rng)]
    for frame in frames:
        runtime.submit(frame)
    done = runtime.drain()

    stats = runtime.stats
    total_latency = sum(handle.latency_s for handle in done)
    total_stages = sum(stats.stage_totals_s.values())
    assert total_stages == pytest.approx(total_latency)
    assert all(value >= 0.0 for value in stats.stage_totals_s.values())

    report = stats.stage_latency_percentiles()
    assert set(report) == set(STAGES)
    for stage_report in report.values():
        assert set(stage_report) == {50, 90, 99}
        assert stage_report[50] <= stage_report[99]
    assert stats.stage_latency_percentiles(priority=0) == report
    assert stats.stage_latency_percentiles(priority=9) == {}

    summary = stats.summary()
    for stage in STAGES:
        assert summary[f"stage_{stage}_s"] == pytest.approx(
            stats.stage_totals_s[stage])
    assert summary["stage_latency_percentiles_s"] == report
    assert RuntimeStats().stage_latency_percentiles() == {}


# ----------------------------------------------------------------------
# Metrics export plane
# ----------------------------------------------------------------------

def _parse_prometheus(text):
    """Scrape body -> {(name, sorted-label-items): value}, validating
    the HELP/TYPE discipline along the way."""
    samples, typed = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE"):
            _, _, name, kind = line.split()
            typed[name] = kind
            continue
        if not line or line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        if "{" in name_part:
            name, label_body = name_part.split("{", 1)
            labels = tuple(sorted(
                tuple(pair.split("=", 1))
                for pair in label_body.rstrip("}").split(",")))
        else:
            name, labels = name_part, ()
        assert name in typed, f"untyped sample {name}"
        samples[(name, labels)] = float(value)
    return samples


def test_prometheus_samples_equal_their_summary_sources():
    runtime, _, _ = _traced_runtime(seed=11)
    summary = runtime.stats.summary()
    samples = _parse_prometheus(prometheus_text(summary))
    for key, name in COUNTER_KEYS.items():
        if key in summary:
            assert samples[(name, ())] == pytest.approx(float(summary[key]))
    for key, name in GAUGE_KEYS.items():
        if key in summary:
            assert samples[(name, ())] == pytest.approx(float(summary[key]))
    for percentile, value in summary["latency_percentiles_s"].items():
        labels = (("quantile", f'"{percentile / 100.0:g}"'),)
        assert samples[("repro_frame_latency_seconds", labels)] == (
            pytest.approx(value))
    for stage, report in summary["stage_latency_percentiles_s"].items():
        for percentile, value in report.items():
            labels = tuple(sorted(
                [("quantile", f'"{percentile / 100.0:g}"'),
                 ("stage", f'"{stage}"')]))
            assert samples[("repro_stage_latency_seconds", labels)] == (
                pytest.approx(value))

    # Per-class latency quantiles pick up a priority label.
    summary["latency_percentiles_by_class_s"] = {0: {50: 0.1}, 2: {50: 0.3}}
    samples = _parse_prometheus(prometheus_text(summary))
    labels = tuple(sorted([("quantile", '"0.5"'), ("priority", '"2"')]))
    assert samples[("repro_frame_latency_seconds", labels)] == (
        pytest.approx(0.3))

    # Instance labels reach every sample.
    labelled = prometheus_text(summary, labels={"cell": "a"})
    assert 'cell="a"' in labelled.splitlines()[-1]


def test_metrics_verb_matches_stats_over_the_socket():
    rng = np.random.default_rng(12)
    frames = _mixed_frames(rng, repeats=1)
    with CellSiteServer(DetectorFarm(2, backend="inline")) as server:
        with CellSiteClient(server.address) as cell:
            for frame in frames:
                cell.submit(frame)
            cell.drain()
            stats = cell.stats()
            samples = _parse_prometheus(cell.metrics())
    assert samples[("repro_frames_completed_total", ())] == len(frames)
    assert samples[("repro_shards", ())] == 2.0
    assert samples[("repro_shards_reporting", ())] == 2.0
    for shard, routed in enumerate(stats["frames_routed"]):
        labels = (("shard", f'"{shard}"'),)
        assert samples[("repro_shard_frames_routed_total", labels)] == routed
        assert samples[("repro_shard_up", labels)] == 1.0
    assert samples[("repro_searches_completed_total", ())] == (
        stats["searches_completed"])


# ----------------------------------------------------------------------
# Stats satellites: aggregation, windows, round-trips
# ----------------------------------------------------------------------

def test_aggregate_recomputes_orchestration_from_summed_totals():
    """Per-shard orchestration is clamped at zero, so the farm total
    must come from the summed duration/kernel pair — naively summing the
    clamped per-shard values would report 1.5 s here, not 1.0 s."""
    shard_a = {"tick_duration_s": 1.0, "tick_kernel_s": 1.5}   # clamps to 0
    shard_b = {"tick_duration_s": 2.0, "tick_kernel_s": 0.5}   # 1.5
    report = aggregate_summaries([shard_a, shard_b])
    assert report["tick_orchestration_s"] == pytest.approx(1.0)
    assert report["kernel_time_fraction"] == pytest.approx(2.0 / 3.0)


def test_aggregate_tolerates_unreporting_shards():
    rng = np.random.default_rng(13)
    runtime = UplinkRuntime()
    runtime.submit(_make_frame(SphereDecoder(qam(4)), 3, 2, 15.0, rng))
    runtime.drain()
    summary = runtime.stats.summary()
    report = aggregate_summaries([summary, None])
    assert report["shards"] == 2
    assert report["shards_reporting"] == 1
    assert report["frames_completed"] == 1
    assert report["per_shard"] == [summary, None]
    samples = _parse_prometheus(prometheus_text(report))
    assert samples[("repro_shard_up", (("shard", '"0"'),))] == 1.0
    assert samples[("repro_shard_up", (("shard", '"1"'),))] == 0.0
    assert ("repro_shard_frames_completed_total",
            (("shard", '"1"'),)) not in samples


def test_latency_windows_evict_oldest_samples(monkeypatch):
    monkeypatch.setattr(stats_module, "LATENCY_WINDOW", 4)
    stats = RuntimeStats()
    for index in range(10):
        stats.record_complete(
            float(index), latency_s=float(index + 1), detections=1,
            counters=ComplexityCounters(),
            stages={"queue_wait": float(index + 1), "detect": 0.0,
                    "decode": 0.0, "resolve": 0.0})
    window = [7.0, 8.0, 9.0, 10.0]              # the newest four only
    expected = {int(p): float(np.percentile(window, p))
                for p in (50, 90, 99)}
    assert stats.latency_percentiles() == pytest.approx(expected)
    assert stats.stage_latency_percentiles()["queue_wait"] == (
        pytest.approx(expected))
    # Totals keep counting across evictions; windows do not.
    assert stats.stage_totals_s["queue_wait"] == pytest.approx(55.0)
    assert stats.latency_percentiles(priority=0) == pytest.approx(expected)
    assert stats.latency_percentiles(priority=3) == {}


def test_single_shard_summary_round_trips_through_aggregation():
    rng = np.random.default_rng(14)
    runtime = UplinkRuntime()
    for _ in range(3):
        runtime.submit(_make_frame(SphereDecoder(qam(16)), 4, 2, 18.0, rng))
    runtime.drain()
    summary = runtime.stats.summary()
    report = aggregate_summaries([summary])
    assert report["shards"] == report["shards_reporting"] == 1
    for key in ("frames_submitted", "frames_completed", "searches_completed",
                "ticks", "visited_nodes", "ped_calcs", "elapsed_s",
                "frames_per_second", "mean_lane_occupancy",
                "tick_duration_s", "tick_kernel_s", "tick_orchestration_s",
                "kernel_time_fraction", "crc_failure_rate",
                "deadline_miss_rate", "stage_queue_wait_s",
                "stage_detect_s", "stage_decode_s", "stage_resolve_s"):
        assert report[key] == pytest.approx(summary[key]), key
    # The unmergeable sub-reports ride along verbatim.
    assert report["per_shard"] == [summary]
    assert report["per_shard"][0]["latency_percentiles_s"] == (
        summary["latency_percentiles_s"])
    assert "tick_duration_ema_s" in report["per_shard"][0]


# ----------------------------------------------------------------------
# The ledger: one table, a frozen public contract
# ----------------------------------------------------------------------

# Copied from the commit before the ledger existed (PR 19): the public
# key sets and metric names the table must keep producing.
_SUMMARY_KEYS = {
    "crc_failure_rate", "deadline_frames_met", "deadline_frames_resolved",
    "deadline_miss_rate", "deadline_near_misses",
    "degraded_crc_failure_rate", "degraded_streams_crc_ok",
    "degraded_streams_decoded", "elapsed_s", "frames_cancelled",
    "frames_completed", "frames_degraded", "frames_expired",
    "frames_per_second", "frames_submitted", "goodput_bits_per_second",
    "kernel_time_fraction", "latency_percentiles_by_class_s",
    "latency_percentiles_s", "mean_lane_occupancy", "payload_bits_ok",
    "ped_calcs", "searches_completed", "stage_decode_s", "stage_detect_s",
    "stage_latency_percentiles_s", "stage_queue_wait_s", "stage_resolve_s",
    "streams_crc_ok", "streams_decoded", "tick_duration_ema_s",
    "tick_duration_max_s", "tick_duration_percentiles_s", "tick_duration_s",
    "tick_kernel_s", "tick_orchestration_s", "ticks", "visited_nodes"}
_UNMERGEABLE_KEYS = {
    "latency_percentiles_by_class_s", "latency_percentiles_s",
    "stage_latency_percentiles_s", "tick_duration_ema_s",
    "tick_duration_percentiles_s"}
_AGGREGATE_KEYS = (_SUMMARY_KEYS - _UNMERGEABLE_KEYS) | {
    "per_shard", "shards", "shards_reporting"}
_FARM_KEYS = _AGGREGATE_KEYS | {"frames_routed", "outstanding", "restarts"}
_SUMMARY_METRICS = {
    "repro_busy_seconds", "repro_crc_failure_rate",
    "repro_deadline_frames_met_total",
    "repro_deadline_frames_resolved_total", "repro_deadline_miss_rate",
    "repro_deadline_near_misses_total", "repro_degraded_crc_failure_rate",
    "repro_degraded_streams_crc_ok_total",
    "repro_degraded_streams_decoded_total", "repro_frame_latency_seconds",
    "repro_frames_cancelled_total", "repro_frames_completed_total",
    "repro_frames_degraded_total", "repro_frames_expired_total",
    "repro_frames_per_second", "repro_frames_submitted_total",
    "repro_goodput_bits_per_second", "repro_kernel_time_fraction",
    "repro_mean_lane_occupancy", "repro_payload_bits_ok_total",
    "repro_ped_calcs_total", "repro_searches_completed_total",
    "repro_stage_decode_seconds_total", "repro_stage_detect_seconds_total",
    "repro_stage_latency_seconds", "repro_stage_queue_wait_seconds_total",
    "repro_stage_resolve_seconds_total", "repro_streams_crc_ok_total",
    "repro_streams_decoded_total", "repro_tick_duration_ema_seconds",
    "repro_tick_duration_max_seconds", "repro_tick_duration_seconds",
    "repro_tick_duration_seconds_total",
    "repro_tick_kernel_seconds_total", "repro_tick_orchestration_seconds",
    "repro_ticks_total", "repro_visited_nodes_total"}
_FARM_METRICS = (_SUMMARY_METRICS - {
    "repro_frame_latency_seconds", "repro_stage_latency_seconds",
    "repro_tick_duration_ema_seconds", "repro_tick_duration_seconds"}) | {
    "repro_outstanding_frames", "repro_shard_frames_completed_total",
    "repro_shard_frames_routed_total", "repro_shard_restarts_total",
    "repro_shard_up", "repro_shards", "repro_shards_reporting"}


def _contract_frames():
    """One hard frame, one coded soft frame in another priority class,
    one deadline-tagged frame."""
    rng = np.random.default_rng(20)
    hard = _make_frame(SphereDecoder(qam(16)), 4, 2, 18.0, rng)
    soft = _make_coded_frame(_coded_config(4, payload_bits=40),
                             ListSphereDecoder(qam(4), list_size=4), 25.0,
                             rng, soft=True)
    soft.priority = 1
    urgent = _make_frame(SphereDecoder(qam(4)), 3, 2, 15.0, rng)
    urgent.deadline_s = 3600.0
    return [hard, soft, urgent]


def _metric_names(text):
    return {line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE")}


def test_public_stats_contract_is_frozen():
    runtime = UplinkRuntime(lane_policy="deadline")
    for frame in _contract_frames():
        runtime.submit(frame)
    runtime.drain()
    summary = runtime.stats.summary()
    with DetectorFarm(2, backend="inline",
                      runtime_kwargs={"lane_policy": "deadline"}) as farm:
        for frame in _contract_frames():
            farm.submit(frame)
        farm.drain()
        farm_stats = farm.stats()
    assert set(summary) == _SUMMARY_KEYS
    assert set(aggregate_summaries([summary, None])) == _AGGREGATE_KEYS
    assert set(farm_stats) == _FARM_KEYS
    assert _metric_names(prometheus_text(summary)) == _SUMMARY_METRICS
    assert _metric_names(prometheus_text(farm_stats)) == _FARM_METRICS


def _play(script, *ledgers):
    """Feed one scripted shard's events to every given ledger."""
    for hook, args, kwargs in script:
        for stats in ledgers:
            getattr(stats, hook)(*args, **kwargs)


def _shard_script(start, occupancy, crc_ok):
    verdict = [SimpleNamespace(crc_ok=ok, payload_bits=np.zeros(40))
               for ok in crc_ok]
    stages = {"queue_wait": 0.001, "detect": 0.004 + occupancy / 100,
              "decode": 0.002, "resolve": 0.0005}
    return [
        ("record_submit", (start,), {}),
        ("record_submit", (start + 0.001,), {}),
        ("record_submit", (start + 0.002,), {}),
        ("record_submit", (start + 0.003,), {}),
        ("record_tick", (occupancy, start + 0.004),
         {"duration_s": 0.003, "kernel_s": 0.002}),
        ("record_degraded", (start + 0.004,), {}),
        ("record_tick", (occupancy / 2, start + 0.008),
         {"duration_s": 0.004, "kernel_s": 0.0045}),
        ("record_complete",
         (start + 0.008, 0.008, 6,
          ComplexityCounters(ped_calcs=90, visited_nodes=40)),
         {"had_deadline": True, "stages": stages}),
        ("record_decisions", (verdict,), {"degraded": True}),
        ("record_complete",
         (start + 0.009, 0.008, 4,
          ComplexityCounters(ped_calcs=int(50 * occupancy) + 7,
                             visited_nodes=11)),
         {"priority": 2, "had_deadline": True, "missed_deadline": True,
          "stages": stages}),
        ("record_decisions", (verdict[:1],), {}),
        ("record_expired", (start + 0.010,), {}),
        ("record_cancelled", (start + 0.011,), {}),
    ]


def test_ledger_table_is_consistent_with_the_live_stats():
    """Every counter folds by ``sum``; every derived formula *is* the
    live method; and two shards aggregated equal one ledger fed both
    shards' events, on every counter and every derived metric — so the
    farm view can only differ from a single runtime's in the metrics
    that are genuinely per-clock (busy time, rates)."""
    for metric in METRICS:
        if metric.kind == COUNTER:
            assert metric.fold == SUM, metric.key

    shard_a, shard_b, both = RuntimeStats(), RuntimeStats(), RuntimeStats()
    _play(_shard_script(10.0, 0.5, [True, False, True]), shard_a, both)
    _play(_shard_script(50.0, 0.2, [False, True]), shard_b, both)
    assert both.frames_completed == 4 and both.in_flight == 0

    for stats in (shard_a, shard_b, both):
        summary = stats.summary()
        alone = aggregate_summaries([summary])
        for key, formula in DERIVED.items():
            live = getattr(stats, key)()
            assert formula(vars(stats)) == live == summary[key], key
            assert alone[key] == pytest.approx(live), key
    assert 0.0 < both.crc_failure_rate() < 1.0
    assert both.deadline_miss_rate() == pytest.approx(4 / 6)

    farm_view = aggregate_summaries([shard_a.summary(), shard_b.summary()])
    one_ledger = both.summary()
    for metric in METRICS:
        if metric.kind == COUNTER or metric.key in DERIVED:
            assert farm_view[metric.key] == pytest.approx(
                one_ledger[metric.key]), metric.key

