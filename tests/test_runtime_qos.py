"""Deadline-aware QoS: priorities, expiry, degradation, lifecycle fixes.

The ISSUE-7 contract in tests: the admission queue serves strict
priority between classes and FIFO within, frames past their deadline
expire with an explicit :class:`FrameExpired` resolution (never a hang,
never a fabricated result), frames about to miss are degraded as a
*marked, counted* mode, and a completion racing its deadline in the same
tick resolves with the real result as a near miss.  Plus the satellite
regressions: empty percentile windows, busy-time accumulation across
bursts, metadata aliasing, and the overload edge cases
(``max_in_flight=1`` backpressure, ``poll(max_ticks=0)``).

Deadline tests run on an injected fake clock, so every deadline event is
deterministic — no sleeps, no flaky wall-clock margins.
"""

import numpy as np
import pytest

from repro.constellation import qam
from repro.frame import rotate_frame, triangularize_frame
from repro.runtime import (
    AdmissionQueue,
    CellWorkload,
    DEFAULT_QOS_MIX,
    FrameExpired,
    FrameJob,
    QosClass,
    RuntimeStats,
    UplinkRuntime,
    synthetic_cell_trace,
)
from repro.runtime.engine import _LOCKSTEP_ATTEMPTS, StreamingFrontier
from repro.sphere import ComplexityCounters, ListSphereDecoder, SphereDecoder

from test_engine import needs_core, pinned_frontier, pinned_runtime
from test_runtime import (
    _assert_identical,
    _coded_config,
    _make_coded_frame,
    _make_frame,
    _reference,
)


class _Clock:
    """Controllable runtime clock for deterministic deadline tests."""

    def __init__(self, now=0.0, step=0.0):
        self.now = now
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def _tagged_frame(decoder, rng, *, deadline_s=None, priority=0, soft=False,
                  num_subcarriers=3, num_symbols=2, snr_db=15.0):
    frame = _make_frame(decoder, num_subcarriers, num_symbols, snr_db, rng,
                        soft=soft)
    frame.deadline_s = deadline_s
    frame.priority = priority
    return frame


# ----------------------------------------------------------------------
# Class-aware admission queue
# ----------------------------------------------------------------------

def _job(rng, decoder, frame_id, priority):
    frame = _tagged_frame(decoder, rng, priority=priority)
    return FrameJob(frame_id, frame)


def test_queue_strict_priority_between_classes_fifo_within():
    rng = np.random.default_rng(0)
    decoder = SphereDecoder(qam(4))
    background = _job(rng, decoder, 0, priority=2)
    urgent_a = _job(rng, decoder, 1, priority=0)
    urgent_b = _job(rng, decoder, 2, priority=0)
    queue = AdmissionQueue()
    queue.push(background)
    queue.push(urgent_a)
    queue.push(urgent_b)
    assert queue.head_priority == 0
    # Strict priority: both urgent frames drain fully before any
    # background search, FIFO between the two urgent frames.
    order = [job.frame_id for job, _ in queue.take(99)]
    assert order == [1, 2, 0]
    assert queue.head_priority is None

    # fifo=True ignores classes: pure arrival order.
    fifo = AdmissionQueue(fifo=True)
    for job in (background, urgent_a, urgent_b):
        fifo.push(job)
    assert [job.frame_id for job, _ in fifo.take(99)] == [0, 1, 2]


def test_queue_remove_reprioritise_expedite():
    rng = np.random.default_rng(1)
    decoder = SphereDecoder(qam(4))
    first = _job(rng, decoder, 0, priority=1)
    second = _job(rng, decoder, 1, priority=1)
    third = _job(rng, decoder, 2, priority=1)
    queue = AdmissionQueue()
    for job in (first, second, third):
        queue.push(job)
    per_frame = first.num_problems

    # Partially consume the head frame, then remove it: only the
    # untaken remainder is dropped.
    queue.take(2)
    assert queue.remove(first) == per_frame - 2
    assert queue.remove(first) == 0                 # already gone
    assert queue.pending == 2 * per_frame

    # Expedite jumps to the front of the class...
    assert queue.expedite(third)
    assert [job.frame_id for job, _ in queue.take(1)] == [2]
    # ...and reprioritise moves to the *back* of the target class.
    assert queue.reprioritise(third, 0)
    assert queue.reprioritise(second, 0)
    order = [job.frame_id for job, _ in queue.take(99)]
    assert order == [2, 1]

    assert not queue.reprioritise(first, 0)         # nothing queued
    assert not queue.expedite(first)


# ----------------------------------------------------------------------
# Deadline expiry and degradation (tentpole)
# ----------------------------------------------------------------------

def test_expired_frame_resolves_explicitly_never_hangs():
    rng = np.random.default_rng(2)
    clock = _Clock()
    runtime = UplinkRuntime(capacity=4, clock=clock)
    decoder = SphereDecoder(qam(16))
    doomed = runtime.submit(_tagged_frame(decoder, rng, deadline_s=1.0,
                                          priority=0, num_subcarriers=4,
                                          num_symbols=3))
    safe_frame = _tagged_frame(decoder, rng)         # no deadline
    safe = runtime.submit(safe_frame)
    clock.now = 10.0                                  # blow the deadline
    done = runtime.drain()                            # returns — no hang
    assert doomed in done and safe in done
    assert doomed.expired and doomed.resolution == "expired"
    assert doomed.done and doomed.latency_s == 10.0
    with pytest.raises(FrameExpired):
        doomed.result()
    # The survivor is untouched by the eviction: still bit-identical.
    _assert_identical(safe.result(), _reference(safe_frame), False)
    stats = runtime.stats
    assert stats.frames_expired == 1
    assert stats.deadline_miss_rate() == 1.0
    assert stats.summary()["frames_expired"] == 1


def test_degraded_frame_is_marked_counted_and_budget_capped():
    rng = np.random.default_rng(3)
    clock = _Clock()
    # drain_threshold=0 keeps every search in lockstep, where the
    # per-lane shrunk budgets are enforced.
    runtime = pinned_runtime(capacity=8, drain_threshold=0, clock=clock)
    decoder = SphereDecoder(qam(16))
    frame = _tagged_frame(decoder, rng, deadline_s=10.0, priority=0,
                          num_subcarriers=4, num_symbols=3, snr_db=8.0)
    handle = runtime.submit(frame)
    clock.now = 8.0            # inside the default 25% margin (> 7.5)
    done = runtime.drain()     # never reaches 10.0: degraded, not expired
    assert done == [handle]
    assert handle.resolution == "completed"
    assert handle.degraded and not handle.expired
    result = handle.result()
    # Real banked work under the shrunk budget: every search stopped at
    # (or under) the degraded cap of num_streams visited nodes.
    budget = frame.channels.shape[2]
    reference = _reference(frame)
    assert result.counters.visited_nodes <= budget * 4 * 3
    assert result.counters.visited_nodes < reference.counters.visited_nodes
    stats = runtime.stats
    assert stats.frames_degraded == 1
    assert stats.frames_expired == 0
    assert stats.deadline_frames_met == 1
    assert stats.summary()["frames_degraded"] == 1


def test_degraded_coded_frame_feeds_degraded_crc_ledger():
    rng = np.random.default_rng(4)
    clock = _Clock()
    runtime = pinned_runtime(capacity=8, drain_threshold=0, clock=clock,
                             degraded_node_budget=2)
    config = _coded_config(4, payload_bits=40)
    frame = _make_coded_frame(config, SphereDecoder(qam(4)), 25.0, rng)
    frame.deadline_s = 10.0
    handle = runtime.submit(frame)
    clock.now = 9.0
    runtime.drain()
    assert handle.degraded
    decisions = handle.result().decisions
    assert decisions is not None and len(decisions) == 2
    stats = runtime.stats
    assert stats.degraded_streams_decoded == 2
    assert 0.0 <= stats.degraded_crc_failure_rate() <= 1.0
    assert (stats.degraded_streams_crc_ok
            == 2 - round(2 * stats.degraded_crc_failure_rate()))


def test_completion_racing_expiry_resolves_with_real_result():
    """A frame finishing in the very tick its deadline trips is a near
    miss — it resolves with its real (bit-identical) result, not a drop."""
    decoder = SphereDecoder(qam(16))

    # Twin run: learn exactly how many ticks this frame needs.
    rng = np.random.default_rng(5)
    frame = _make_frame(decoder, 4, 3, 18.0, rng)
    pilot = pinned_runtime(capacity=8, drain_threshold=0, clock=_Clock())
    pilot.submit(frame)
    pilot.drain()
    ticks_needed = pilot.stats.ticks

    # Same frame again, deadline tripped just before the final tick.
    rng = np.random.default_rng(5)
    frame = _make_frame(decoder, 4, 3, 18.0, rng)
    frame.deadline_s = 5.0
    clock = _Clock()
    runtime = pinned_runtime(capacity=8, drain_threshold=0, clock=clock,
                             degrade_margin_s=0.0)
    handle = runtime.submit(frame)
    for _ in range(ticks_needed - 1):
        assert runtime.poll(max_ticks=1) == []
    clock.now = 10.0                    # past the deadline
    done = runtime.poll(max_ticks=1)    # the completing tick
    assert done == [handle]
    assert handle.resolution == "completed" and not handle.expired
    assert handle.missed_deadline
    _assert_identical(handle.result(), _reference(frame), False)
    stats = runtime.stats
    assert stats.deadline_near_misses == 1
    assert stats.frames_expired == 0
    assert stats.deadline_miss_rate() == 1.0


def test_fifo_policy_measures_deadlines_but_never_intervenes():
    rng = np.random.default_rng(6)
    clock = _Clock()
    runtime = UplinkRuntime(capacity=8, lane_policy="fifo", clock=clock)
    decoder = SphereDecoder(qam(4))
    frame = _tagged_frame(decoder, rng, deadline_s=1.0)
    handle = runtime.submit(frame)
    clock.now = 50.0
    runtime.drain()
    # No expiry, no degradation — but the miss is measured.
    assert handle.resolution == "completed"
    assert not handle.degraded and handle.missed_deadline
    _assert_identical(handle.result(), _reference(frame), False)
    assert runtime.stats.deadline_miss_rate() == 1.0
    assert runtime.stats.frames_expired == 0


def _assert_element_is(job, result, element, decoder, frame):
    """Element ``element`` of a finished job (its tallies) and of its
    finalised ``result`` equals ``decoder``'s scalar search of it."""
    q_stack, r_stack = triangularize_frame(frame.channels)
    y_hat = rotate_frame(q_stack, frame.received)
    s, t = divmod(int(element), job.num_symbols)
    if frame.noise_variance is None:
        one = decoder.decode_triangular(r_stack[s], y_hat[s, t])
        assert result.distances_sq[t, s] == one.distance_sq
    else:
        one = decoder.decode_soft_triangular(r_stack[s], y_hat[s, t],
                                             frame.noise_variance)
        assert np.array_equal(result.llrs[t, s], one.llrs)
    assert np.array_equal(result.symbol_indices[t, s], one.symbol_indices)
    counters = one.counters
    assert ((job.ped[element], job.visited[element], job.expanded[element],
             job.leaves[element], job.prunes[element])
            == (counters.ped_calcs, counters.visited_nodes,
                counters.expanded_nodes, counters.leaves,
                counters.geometric_prunes))


@needs_core
@pytest.mark.parametrize("soft", [False, True])
def test_mid_flight_degrade_and_evict_under_the_core_step(soft):
    """The lockstep tick is the QoS quantum.  A frame degraded fifteen
    candidate attempts (whole ticks of the engine's allowance) into its
    searches stops at the shrunk cap B: a search already past it keeps
    what it has banked, one short of it runs on to it and then equals
    the scalar decoder built with ``node_budget=B``, and one that had
    already finished equals the unbudgeted scalar search.  A frame
    evicted mid-search frees its lanes at once."""
    rng = np.random.default_rng(41)
    make = ((lambda **budget: ListSphereDecoder(qam(16), list_size=4,
                                                **budget)) if soft
            else (lambda **budget: SphereDecoder(qam(16), **budget)))
    decoder = make()
    frames = [_make_frame(decoder, 4, 3, 8.0, rng, soft=soft)
              for _ in range(2)]
    engine = pinned_frontier(capacity=24, drain_threshold=0)
    degraded, evicted = (FrameJob(frame_id, frame)
                         for frame_id, frame in enumerate(frames))
    engine.submit(degraded)
    engine.submit(evicted)
    pool = degraded.pool
    for _ in range(15 // _LOCKSTEP_ATTEMPTS):
        assert engine.tick() == []               # both mid-search
    in_use = engine.in_use
    dropped = engine.remove(evicted)
    assert dropped > 0 and engine.in_use == in_use - dropped
    # Which searches of the surviving frame are running, and the nodes
    # each has visited, right now.
    running = np.zeros(degraded.num_problems, dtype=bool)
    seen = np.zeros(degraded.num_problems, dtype=np.int64)
    running[pool.elem_of[pool.active]] = True
    seen[pool.elem_of[pool.active]] = pool.state["tally"][pool.active, 1]
    budget = int(np.median(seen[running]))
    degraded.degraded_budget = budget
    engine.degrade(degraded, budget)
    completed = []
    while not engine.idle:
        completed += engine.tick()
    assert completed == [degraded] and engine.in_use == 0
    past = running & (seen >= budget)
    assert past.any() and (running & (seen < budget)).any()
    assert np.array_equal(degraded.visited[past], seen[past])
    result = degraded.finalise()
    capped = make(node_budget=budget)
    for element in np.flatnonzero(~past):
        _assert_element_is(degraded, result, element,
                           capped if running[element] else decoder,
                           frames[0])
    assert (result.counters.visited_nodes
            < _reference(frames[0]).counters.visited_nodes)


def test_pools_without_a_core_have_nothing_in_flight():
    """A ``hess`` pool — like every pool on a box without a C compiler —
    runs each search to completion in the tick that admits it, so
    between ticks no search is in a lane: ``degrade`` reaches only the
    queued searches, which start under the shrunk budget, and ``remove``
    drops only queued ones."""
    rng = np.random.default_rng(43)
    decoder = SphereDecoder(qam(16), enumerator="hess",
                            geometric_pruning=False)
    frame = _make_frame(decoder, 4, 3, 8.0, rng)
    engine = StreamingFrontier(capacity=4)
    degraded, evicted = FrameJob(0, frame), FrameJob(1, frame)
    engine.submit(degraded)
    engine.submit(evicted)
    assert engine.tick() == [] and engine.in_use == 0
    assert degraded.remaining == degraded.num_problems - 4
    budget = 3
    degraded.degraded_budget = budget
    engine.degrade(degraded, budget)
    assert engine.remove(evicted) == evicted.num_problems
    while not engine.idle:
        assert engine.tick() in ([], [degraded]) and engine.in_use == 0
    result = degraded.finalise()
    capped = SphereDecoder(qam(16), enumerator="hess",
                           geometric_pruning=False, node_budget=budget)
    for element in range(degraded.num_problems):
        _assert_element_is(degraded, result, element,
                           decoder if element < 4 else capped, frame)
    assert (degraded.visited[:4] > budget).any()


def test_cancel_and_reprioritise_lifecycle():
    rng = np.random.default_rng(7)
    decoder = ListSphereDecoder(qam(4), list_size=4)
    runtime = UplinkRuntime(capacity=4, max_in_flight=3)
    keep_frame = _tagged_frame(decoder, rng, soft=True, priority=1)
    keep = runtime.submit(keep_frame)
    drop = runtime.submit(_tagged_frame(decoder, rng, soft=True))
    assert runtime.cancel(drop)
    assert not runtime.cancel(drop)              # already resolved
    assert drop.resolution == "cancelled" and drop.done
    with pytest.raises(FrameExpired):
        drop.result()
    runtime.reprioritise(keep, 0)
    assert keep.priority == 0
    done = runtime.drain()
    assert done == [keep]                        # cancel resolves sync
    _assert_identical(keep.result(), _reference(keep_frame), True)
    assert runtime.stats.frames_cancelled == 1
    assert runtime.stats.deadline_miss_rate() == 0.0   # not a miss
    with pytest.raises(ValueError):
        runtime.reprioritise(keep, 1)            # already resolved


def test_qos_validation():
    rng = np.random.default_rng(8)
    decoder = SphereDecoder(qam(4))
    with pytest.raises(ValueError):
        FrameJob(0, _tagged_frame(decoder, rng, deadline_s=0.0))
    with pytest.raises(ValueError):
        FrameJob(0, _tagged_frame(decoder, rng, priority=-1))
    with pytest.raises(ValueError):
        UplinkRuntime(lane_policy="urgent-first")
    with pytest.raises(ValueError):
        UplinkRuntime(degrade_margin_s=-0.1)
    with pytest.raises(ValueError):
        UplinkRuntime(degraded_node_budget=0)
    with pytest.raises(ValueError):
        QosClass("x", priority=-1, deadline_s=None, weight=1.0)
    with pytest.raises(ValueError):
        QosClass("x", priority=0, deadline_s=-1.0, weight=1.0)
    with pytest.raises(ValueError):
        QosClass("x", priority=0, deadline_s=None, weight=0.0)


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------

def test_metadata_copied_at_admission():
    """ISSUE-7 regression: mutating the request's dict after submit()
    must not rewrite the handle's tags."""
    rng = np.random.default_rng(9)
    decoder = SphereDecoder(qam(4))
    frame = _make_frame(decoder, 2, 2, 15.0, rng)
    frame.metadata = {"user": "alice"}
    runtime = UplinkRuntime(capacity=4)
    handle = runtime.submit(frame)
    frame.metadata["user"] = "mallory"
    frame.metadata["extra"] = True
    assert handle.metadata == {"user": "alice"}
    runtime.drain()
    assert handle.metadata == {"user": "alice"}


def test_busy_time_accumulates_across_bursts():
    """ISSUE-7 regression: a long idle gap between two traffic bursts
    must not deflate the rates — elapsed_s is busy time (time with a
    frame in flight), not span."""
    stats = RuntimeStats()
    for start in (0.0, 1000.0):                  # two bursts, huge gap
        stats.record_submit(start)
        stats.record_tick(0.5, start + 0.1)
        stats.record_complete(start + 0.2, 0.2, 4,
                              RuntimeStats().counters)
    assert stats.frames_completed == 2
    assert stats.elapsed_s == pytest.approx(0.4)
    assert stats.frames_per_second() == pytest.approx(2 / 0.4)

    # Span-based accounting would report ~0.002 fps; busy-time keeps the
    # two-burst rate equal to the single-burst rate.
    single = RuntimeStats()
    single.record_submit(0.0)
    single.record_tick(0.5, 0.1)
    single.record_complete(0.2, 0.2, 4, RuntimeStats().counters)
    assert stats.frames_per_second() == pytest.approx(
        single.frames_per_second())


def test_busy_time_is_exactly_the_time_with_a_frame_in_flight():
    """Open loop on a fake clock: each frame in flight 10 ms of 1 ms
    ticks, then 15 ms of silence — *shorter* than the 25 recent tick
    durations the retired idle-gap heuristic needed before it would
    close an interval, so it counted every silence as busy.  Busy time
    is the in-flight intervals, summed, whatever the silences are."""
    stats = RuntimeStats()
    now, in_flight_s = 100.0, 0.0
    for _ in range(20):
        submitted = now
        stats.record_submit(submitted)
        for _ in range(10):
            now += 1e-3
            stats.record_tick(0.5, now, duration_s=1e-3)
        stats.record_complete(now, now - submitted, 4, ComplexityCounters())
        in_flight_s += now - submitted
        now += 15e-3
    assert stats.elapsed_s == in_flight_s
    assert stats.elapsed_s == pytest.approx(20 * 10e-3)
    assert stats.frames_per_second() == pytest.approx(100.0)

    # Overlapping frames share one interval, and intervals never
    # overlap: frame B arrived at 4 ms but was recorded only after the
    # backpressure ticks that resolved A (and closed its interval) at
    # 10 ms, so it extends that interval from 10 ms, not from 4.
    stats = RuntimeStats()
    stats.record_submit(0.0)
    stats.record_submit(0.002)
    stats.record_expired(0.006)
    assert stats.in_flight == 1 and stats.elapsed_s == 0.006
    stats.record_complete(0.010, 0.010, 4, ComplexityCounters())
    assert stats.in_flight == 0 and stats.elapsed_s == 0.010
    stats.record_submit(0.004)
    stats.record_cancelled(0.020)
    assert stats.elapsed_s == 0.020


def test_tick_duration_always_counts_as_busy_time():
    """ISSUE-15 invariant: ``elapsed_s >= tick_duration_s`` after every
    tick.  Two shapes that used to break it: a straggler-drain tick far
    longer than the tick cadence (it read as an idle gap and its own
    duration was dropped), and a machine whose ticks all take >= 1 ms
    (the cadence estimate never seeded, so every tick closed a
    zero-width interval)."""
    for durations in ([0.0004] * 20 + [0.035] + [0.0004] * 5,
                      [0.002] * 10 + [0.050] + [0.003] * 10):
        stats = RuntimeStats()
        now = 10.0
        stats.record_submit(now)
        for duration in durations:
            now += 1e-5 + duration            # back to back
            stats.record_tick(0.5, now, duration_s=duration)
            assert stats.elapsed_s >= stats.tick_duration_s
        # Back-to-back ticks: busy time is the whole span, not less.
        assert stats.elapsed_s == pytest.approx(now - 10.0)


def test_frames_per_second_agrees_with_an_external_wall_clock():
    """Closed loop, back to back, real clock: the runtime's own rate
    must be within 5 % of frames over externally measured wall time —
    and its busy time can never undercut its measured tick time."""
    import time
    rng = np.random.default_rng(23)
    decoder = SphereDecoder(qam(16))
    frames = [_make_frame(decoder, 16, 4, 17.0, rng) for _ in range(8)]
    runtime = UplinkRuntime()
    total, submitted, done = 48, 0, 0
    started = time.perf_counter()
    while done < total:
        while runtime.in_flight < 4 and submitted < total:
            runtime.submit(frames[submitted % len(frames)])
            submitted += 1
        done += len(runtime.poll(max_ticks=10))
        assert runtime.stats.elapsed_s >= runtime.stats.tick_duration_s
    wall = time.perf_counter() - started
    stats = runtime.stats
    assert stats.frames_completed == total
    assert stats.elapsed_s <= wall
    assert stats.frames_per_second() == pytest.approx(total / wall, rel=0.05)


def test_busy_time_excludes_the_gap_between_bursts_through_runtime():
    """End-to-end two-burst run on a stepping fake clock: the last
    resolution of a burst closes the busy interval, so busy time is
    each burst's first submit to its last completion."""
    rng = np.random.default_rng(10)
    decoder = SphereDecoder(qam(4))
    clock = _Clock(step=1e-5)
    runtime = UplinkRuntime(capacity=8, clock=clock)
    in_flight_s = 0.0
    for burst_start in (0.0, 500.0):
        clock.now = burst_start
        handles = [runtime.submit(_make_frame(decoder, 2, 2, 15.0, rng))
                   for _ in range(2)]
        runtime.drain()
        in_flight_s += (max(handle.completed_at for handle in handles)
                        - handles[0].submitted_at)
    stats = runtime.stats
    assert stats.frames_completed == 4
    assert stats.elapsed_s == pytest.approx(in_flight_s)
    assert stats.elapsed_s < 1.0                 # not ~500
    assert stats.frames_per_second() > 4.0


def test_backpressure_with_in_flight_budget_of_one():
    rng = np.random.default_rng(11)
    decoder = SphereDecoder(qam(4))
    frames = [_make_frame(decoder, 3, 2, 15.0, rng) for _ in range(4)]
    runtime = UplinkRuntime(capacity=4, max_in_flight=1)
    handles = []
    for frame in frames:
        handles.append(runtime.submit(frame))
        assert runtime.in_flight <= 1
    done = runtime.drain()
    assert len(done) == 4
    for frame, handle in zip(frames, handles):
        _assert_identical(handle.result(), _reference(frame), False)


def test_poll_zero_ticks_returns_only_backlog():
    rng = np.random.default_rng(12)
    decoder = SphereDecoder(qam(4))
    runtime = UplinkRuntime(capacity=8, max_in_flight=1)
    first = runtime.submit(_make_frame(decoder, 2, 2, 15.0, rng))
    # Backpressure forces the first frame to finish into the backlog.
    second = runtime.submit(_make_frame(decoder, 2, 2, 15.0, rng))
    ticks_before = runtime.stats.ticks
    assert runtime.poll(max_ticks=0) == [first]
    assert runtime.stats.ticks == ticks_before   # engine not advanced
    assert not second.done
    assert runtime.poll(max_ticks=0) == []       # backlog drained
    runtime.drain()
    assert second.done


# ----------------------------------------------------------------------
# Per-class telemetry and workload tagging
# ----------------------------------------------------------------------

def test_per_class_latency_percentiles():
    rng = np.random.default_rng(13)
    decoder = SphereDecoder(qam(4))
    runtime = UplinkRuntime(capacity=8, max_in_flight=4)
    for priority in (0, 0, 2, 2):
        runtime.submit(_tagged_frame(decoder, rng, priority=priority))
    runtime.drain()
    by_class = runtime.stats.class_latency_percentiles()
    assert sorted(by_class) == [0, 2]
    for report in by_class.values():
        assert set(report) == {50, 90, 99}
    summary = runtime.stats.summary()
    assert summary["latency_percentiles_by_class_s"] == by_class
    assert runtime.stats.latency_percentiles(priority=1) == {}


def test_cell_workload_qos_mix_tags_arrivals():
    trace = synthetic_cell_trace(3, 6, 4, 4, rng=14)
    workload = CellWorkload(trace, num_users=6, group_size=4,
                            qos_mix=DEFAULT_QOS_MIX, rng=15)
    frames = workload.frames(40)
    names = {frame.metadata["qos"] for frame in frames}
    assert names == {"urgent", "interactive", "background"}
    for frame in frames:
        qos = next(cls for cls in DEFAULT_QOS_MIX
                   if cls.name == frame.metadata["qos"])
        assert frame.priority == qos.priority
        assert frame.deadline_s == qos.deadline_s
    # Untagged workloads stay the pre-QoS shape.
    plain = CellWorkload(trace, num_users=6, group_size=4, rng=16)
    frame = plain.next_frame()
    assert frame.deadline_s is None and frame.priority == 0
    assert "qos" not in frame.metadata
    # Scaled deadlines keep best-effort classes deadline-free.
    scaled = [cls.scaled(2.0) for cls in DEFAULT_QOS_MIX]
    assert scaled[0].deadline_s == pytest.approx(0.040)
    assert scaled[2].deadline_s is None
    with pytest.raises(ValueError):
        CellWorkload(trace, num_users=6, group_size=4, qos_mix=())


# ----------------------------------------------------------------------
# Degraded budgets through the straggler drain (ISSUE-8 satellite)
# ----------------------------------------------------------------------

def test_degraded_budget_enforced_through_scalar_drain():
    """A degraded frame handed to the straggler drain must honour the
    shrunken per-lane budget.  Degrading an *unbudgeted* frame to B
    before the first tick makes the whole run equivalent to a decoder
    built with ``node_budget=B`` — so with ``drain_threshold=capacity``
    (every lane finishes through the tail) the results must be
    bit-identical to that budgeted ``decode_frame``.  Before the fix the
    drain ran at the decoder's own (unlimited) budget and searched past
    the cap."""
    rng = np.random.default_rng(17)
    budget = 6
    for soft in (False, True):
        decoder = (ListSphereDecoder(qam(16), list_size=4) if soft
                   else SphereDecoder(qam(16)))
        frame = _make_frame(decoder, 4, 2, 8.0, rng, soft=soft)
        job = FrameJob(0, frame)
        engine = pinned_frontier(capacity=4, drain_threshold=4)
        engine.submit(job)
        job.degraded_budget = budget
        job.pool.degrade(job, budget)
        completed = []
        while not engine.idle:
            completed.extend(engine.tick())
        assert completed == [job]
        assert (job.visited <= budget).all()

        capped = (ListSphereDecoder(qam(16), list_size=4,
                                    node_budget=budget) if soft
                  else SphereDecoder(qam(16), node_budget=budget))
        reference = (capped.decode_frame(frame.channels, frame.received,
                                         frame.noise_variance) if soft
                     else capped.decode_frame(frame.channels,
                                              frame.received))
        _assert_identical(job.finalise(), reference, soft)


def test_degraded_drain_frame_feeds_degraded_crc_ledger():
    """Session-level corner: a coded frame degraded *and* finished via
    the straggler drain still lands in the degraded-CRC ledger with its
    budget capped."""
    rng = np.random.default_rng(18)
    clock = _Clock()
    # drain_threshold=capacity sends every search through the drain.
    runtime = pinned_runtime(capacity=8, drain_threshold=8, clock=clock,
                             degraded_node_budget=2)
    config = _coded_config(4, payload_bits=40)
    frame = _make_coded_frame(config, SphereDecoder(qam(4)), 25.0, rng)
    frame.deadline_s = 10.0
    handle = runtime.submit(frame)
    clock.now = 9.0
    runtime.drain()
    assert handle.degraded and handle.resolution == "completed"
    assert (handle.result().counters.visited_nodes
            <= 2 * frame.received.shape[0] * frame.received.shape[1]
            * frame.channels.shape[2])
    stats = runtime.stats
    assert stats.degraded_streams_decoded == 2
    assert stats.summary()["degraded_streams_decoded"] == 2
