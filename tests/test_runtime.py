"""Streaming runtime: bit-exactness, admission-order invariance, API.

The runtime contract is that pipelining frames through the resident
frontier engine is *pure scheduling*: per-frame results and
``ComplexityCounters`` must be bit-identical to standalone
``decode_frame`` for every admission order, in-flight budget, lane
capacity and drain threshold.  The sweeps here mix hard and soft frames,
constellations, stream counts and SNRs in one runtime, and the
hypothesis property randomises the interleaving itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import awgn, noise_variance_for_snr, rayleigh_channels
from repro.coding import WIFI_CODE
from repro.constellation import qam
from repro.phy import (
    PhyConfig,
    build_uplink_frame,
    random_payloads,
    recover_uplink,
    recover_uplink_soft,
)
from repro.runtime import (
    AdmissionQueue,
    CellWorkload,
    FrameJob,
    FrameRequest,
    RuntimeStats,
    UplinkRuntime,
    synthetic_cell_trace,
)
from repro.runtime.cell import ofdm_for_subcarriers
from repro.service import DetectorFarm
from repro.sphere import KBestDecoder, ListSphereDecoder, SphereDecoder
from repro.sphere.tick_kernel import core

from test_engine import pinned_runtime


def _make_frame(decoder, num_subcarriers, num_symbols, snr_db, rng,
                soft=False, num_rx=4):
    order = len(decoder.constellation.points)
    num_tx = min(4, num_rx)
    channels = rayleigh_channels(num_subcarriers, num_rx, num_tx, rng)
    sent = rng.integers(0, order,
                        size=(num_symbols, num_subcarriers, num_tx))
    clean = np.einsum("tsc,sac->tsa", decoder.constellation.points[sent],
                      channels)
    noise_variance = float(np.mean(
        [noise_variance_for_snr(channels[s], snr_db)
         for s in range(num_subcarriers)]))
    received = clean + awgn(clean.shape, noise_variance, rng)
    return FrameRequest(channels=channels, received=received,
                        decoder=decoder,
                        noise_variance=noise_variance if soft else None)


def _coded_config(order, payload_bits=120, num_subcarriers=8, coded=True):
    """A small coded PhyConfig whose numerology matches the test traces
    (8 data subcarriers keeps the interleaver block a multiple of 16)."""
    return PhyConfig(constellation=qam(order),
                     code=WIFI_CODE if coded else None,
                     ofdm=ofdm_for_subcarriers(num_subcarriers),
                     payload_bits=payload_bits)


def _make_coded_frame(config, decoder, snr_db, rng, soft=False, num_rx=4,
                      num_clients=2):
    """Real coded traffic over a Rayleigh channel: payloads through the
    transmit chain, then a FrameRequest carrying the config and pad
    count so the runtime decodes bits."""
    payloads = random_payloads(num_clients, config, rng)
    uplink = build_uplink_frame(payloads, config)
    symbols = uplink.symbol_tensor                 # (T, S, nc)
    num_subcarriers = symbols.shape[1]
    channels = rayleigh_channels(num_subcarriers, num_rx, num_clients, rng)
    clean = np.einsum("tsc,sac->tsa", symbols, channels)
    noise_variance = float(np.mean(
        [noise_variance_for_snr(channels[s], snr_db)
         for s in range(num_subcarriers)]))
    received = clean + awgn(clean.shape, noise_variance, rng)
    return FrameRequest(channels=channels, received=received,
                        decoder=decoder,
                        noise_variance=noise_variance if soft else None,
                        config=config,
                        num_pad_bits=uplink.streams[0].num_pad_bits,
                        metadata={"payloads": payloads})


def _assert_decisions_match_standalone(result, frame):
    """The coded-chain contract: runtime decisions equal the standalone
    recover path run on the same detections."""
    if frame.noise_variance is None:
        expected = recover_uplink(result.symbol_indices,
                                  frame.num_pad_bits, frame.config)
    else:
        expected = recover_uplink_soft(result.llrs, frame.num_pad_bits,
                                       frame.config)
    assert result.decisions is not None
    assert len(result.decisions) == len(expected)
    for got, want in zip(result.decisions, expected):
        assert got.crc_ok == want.crc_ok
        assert np.array_equal(got.payload_bits, want.payload_bits)


def _reference(frame):
    if frame.noise_variance is None:
        return frame.decoder.decode_frame(frame.channels, frame.received)
    return frame.decoder.decode_frame(frame.channels, frame.received,
                                      frame.noise_variance)


def _assert_identical(result, reference, soft):
    if soft:
        assert np.array_equal(result.llrs, reference.llrs)
        assert np.array_equal(result.symbol_indices,
                              reference.symbol_indices)
        assert np.array_equal(result.list_sizes, reference.list_sizes)
    else:
        assert np.array_equal(result.found, reference.found)
        assert np.array_equal(result.symbol_indices,
                              reference.symbol_indices)
        assert np.array_equal(result.distances_sq, reference.distances_sq)
    assert result.counters == reference.counters


# ----------------------------------------------------------------------
# Bit-exactness sweeps
# ----------------------------------------------------------------------

def test_mixed_stream_bit_identical_to_decode_frame():
    """One runtime, interleaved hard/soft frames across constellations,
    stream counts and enumerators — every frame equals ``decode_frame``."""
    rng = np.random.default_rng(1)
    decoders = [
        (SphereDecoder(qam(16)), False),
        (SphereDecoder(qam(4), enumerator="shabany"), False),
        (SphereDecoder(qam(16), enumerator="hess", geometric_pruning=False),
         False),
        (ListSphereDecoder(qam(4), list_size=6), True),
        (ListSphereDecoder(qam(16), list_size=4, enumerator="shabany"),
         True),
    ]
    frames = []
    for repeat in range(2):
        for decoder, soft in decoders:
            frames.append(_make_frame(decoder, 5, 3, 18.0 + 2 * repeat,
                                      rng, soft=soft))
    runtime = UplinkRuntime(capacity=24, max_in_flight=6)
    handles = [runtime.submit(frame) for frame in frames]
    done = runtime.drain()
    assert runtime.idle
    assert len(done) == len(frames)
    for frame, handle in zip(frames, handles):
        _assert_identical(handle.result(), _reference(frame),
                          frame.noise_variance is not None)


@pytest.mark.parametrize("capacity,drain_threshold",
                         [(3, None), (16, 0), (64, 5)])
def test_knob_sweep_bit_identical(capacity, drain_threshold):
    """Tiny lane pools force heavy cross-frame packing; zero drain keeps
    everything lockstep; both stay bit-identical."""
    rng = np.random.default_rng(2)
    decoder = SphereDecoder(qam(16))
    soft_decoder = ListSphereDecoder(qam(16), list_size=5)
    frames = [_make_frame(decoder, 4, 2, 20.0, rng),
              _make_frame(soft_decoder, 3, 3, 17.0, rng, soft=True),
              _make_frame(decoder, 6, 2, 23.0, rng)]
    runtime = pinned_runtime(capacity=capacity,
                             drain_threshold=drain_threshold,
                             max_in_flight=len(frames))
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    for frame, handle in zip(frames, handles):
        _assert_identical(handle.result(), _reference(frame),
                          frame.noise_variance is not None)


def test_node_budget_frames_stream_identically():
    """Budget-stopped searches finish mid-stream and keep their lanes
    recyclable; results still match the budgeted ``decode_frame``."""
    rng = np.random.default_rng(3)
    decoder = SphereDecoder(qam(16), node_budget=25)
    soft_decoder = ListSphereDecoder(qam(16), list_size=8, node_budget=40)
    frames = [_make_frame(decoder, 5, 3, 12.0, rng),
              _make_frame(soft_decoder, 5, 2, 12.0, rng, soft=True)]
    runtime = UplinkRuntime(capacity=8, max_in_flight=2)
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    for frame, handle in zip(frames, handles):
        _assert_identical(handle.result(), _reference(frame),
                          frame.noise_variance is not None)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_admission_order_invariance(data):
    """The ISSUE-5 property, extended with ISSUE-7's QoS axes: any
    submission permutation, in-flight budget, lane policy and priority
    mix — with generous never-tripping deadlines sprinkled in — yields
    per-frame results and counters bit-identical to sequential
    ``decode_frame``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1),
                                          label="seed"))
    hard = SphereDecoder(qam(4))
    soft = ListSphereDecoder(qam(4), list_size=4)
    num_frames = data.draw(st.integers(2, 5), label="num_frames")
    frames = []
    for _ in range(num_frames):
        is_soft = bool(rng.integers(2))
        frame = _make_frame(soft if is_soft else hard,
                            int(rng.integers(2, 5)),
                            int(rng.integers(1, 4)),
                            float(rng.uniform(8.0, 20.0)), rng,
                            soft=is_soft, num_rx=3)
        # QoS tags must never change results: random priority classes,
        # and deadlines so generous they are always comfortably met.
        frame.priority = int(rng.integers(0, 3))
        if bool(rng.integers(2)):
            frame.deadline_s = 3600.0
        frames.append(frame)
    order = data.draw(st.permutations(range(num_frames)), label="order")
    budget = data.draw(st.integers(1, num_frames), label="max_in_flight")
    capacity = data.draw(st.integers(2, 32), label="capacity")
    lane_policy = data.draw(st.sampled_from(["deadline", "fifo"]),
                            label="lane_policy")
    runtime = UplinkRuntime(capacity=capacity, max_in_flight=budget,
                            lane_policy=lane_policy)
    handles = {}
    for index in order:
        handles[index] = runtime.submit(frames[index])
        # Random poll interleaving between submissions.
        if data.draw(st.booleans(), label="poll"):
            runtime.poll(max_ticks=data.draw(st.integers(1, 6),
                                             label="ticks"))
    runtime.drain()
    for index, frame in enumerate(frames):
        assert not handles[index].degraded
        _assert_identical(handles[index].result(), _reference(frame),
                          frame.noise_variance is not None)


# ----------------------------------------------------------------------
# Session semantics: backpressure, poll, handles
# ----------------------------------------------------------------------

def test_backpressure_bounds_in_flight():
    rng = np.random.default_rng(4)
    decoder = SphereDecoder(qam(4))
    frames = [_make_frame(decoder, 3, 2, 15.0, rng) for _ in range(6)]
    runtime = UplinkRuntime(capacity=4, max_in_flight=2)
    for frame in frames:
        runtime.submit(frame)
        assert runtime.in_flight <= 2
    done = runtime.drain()
    assert len(done) == 6
    assert runtime.idle
    assert runtime.stats.frames_completed == 6


def test_poll_returns_completions_incrementally():
    rng = np.random.default_rng(5)
    decoder = SphereDecoder(qam(4))
    frames = [_make_frame(decoder, 3, 2, 15.0, rng) for _ in range(3)]
    runtime = UplinkRuntime(capacity=32, max_in_flight=3)
    handles = [runtime.submit(frame) for frame in frames]
    collected = []
    for _ in range(10_000):
        collected.extend(runtime.poll())
        if len(collected) == 3:
            break
    assert {handle.frame_id for handle in collected} == {
        handle.frame_id for handle in handles}
    assert all(handle.done and handle.latency_s >= 0.0
               for handle in collected)
    assert runtime.poll() == []


def test_handle_errors_and_empty_frame():
    rng = np.random.default_rng(6)
    decoder = SphereDecoder(qam(4))
    runtime = UplinkRuntime(capacity=4)
    frame = _make_frame(decoder, 2, 2, 15.0, rng)
    handle = runtime.submit(frame)
    with pytest.raises(ValueError):
        handle.result()
    runtime.drain()
    assert handle.result() is not None

    # Degenerate frames: zero OFDM symbols complete immediately, hard
    # and soft alike, with the same empty results ``decode_frame`` builds.
    empty = FrameRequest(channels=frame.channels,
                         received=frame.received[:0], decoder=decoder)
    empty_soft = FrameRequest(channels=frame.channels,
                              received=frame.received[:0],
                              decoder=ListSphereDecoder(qam(4), list_size=4),
                              noise_variance=0.1)
    empty_handle = runtime.submit(empty)
    empty_soft_handle = runtime.submit(empty_soft)
    done = runtime.poll()
    assert empty_handle in done and empty_handle.done
    assert empty_soft_handle in done
    assert empty_handle.result().counters.ped_calcs == 0
    assert empty_soft_handle.result().llrs.shape == (0, 2, 8)

    with pytest.raises(ValueError):
        runtime.submit(FrameRequest(channels=frame.channels,
                                    received=frame.received,
                                    decoder=KBestDecoder(qam(4), k=4)))
    with pytest.raises(ValueError):
        # Soft frames need a noise variance.
        runtime.submit(FrameRequest(
            channels=frame.channels, received=frame.received,
            decoder=ListSphereDecoder(qam(4), list_size=4)))
    with pytest.raises(ValueError):
        UplinkRuntime(max_in_flight=0)


@pytest.mark.parametrize("field,value", [
    ("received", np.nan), ("received", np.inf), ("channels", np.nan),
    ("channels", -np.inf), ("noise_variance", np.nan),
    ("noise_variance", np.inf)])
def test_non_finite_frame_is_rejected_at_submit_and_costs_only_itself(
        field, value):
    """One bad frame costs exactly itself: a NaN/inf anywhere in a frame
    raises ``ValueError`` at ``submit`` — it used to pass admission and
    blow up mid-tick inside the shared frontier — while frames already
    in flight on the same runtime complete bit-exactly and the runtime
    keeps accepting work."""
    rng = np.random.default_rng(77)
    hard = SphereDecoder(qam(16))
    soft = ListSphereDecoder(qam(16), list_size=4)
    good = [_make_frame(hard, 6, 3, 14.0, rng),
            _make_frame(soft, 4, 2, 14.0, rng, soft=True)]
    runtime = UplinkRuntime(capacity=16)
    handles = [runtime.submit(frame) for frame in good]
    # Searches mid-flight (a drain may have resolved a frame already).
    resolved = runtime.poll(max_ticks=3)

    template = good[1]
    bad = FrameRequest(channels=np.array(template.channels),
                       received=np.array(template.received),
                       decoder=soft, noise_variance=template.noise_variance)
    if field == "noise_variance":
        bad.noise_variance = value
    else:
        getattr(bad, field)[0, 1, 2] = value
    with pytest.raises(ValueError, match="finite|positive"):
        runtime.submit(bad)
    assert runtime.in_flight == len(good) - len(resolved)
    assert runtime.stats.frames_submitted == len(good)

    late = runtime.submit(good[0])             # still accepting
    runtime.drain()
    for handle, frame in zip(handles + [late], good + [good[0]]):
        assert handle.resolution == "completed"
        _assert_identical(handle.result(), _reference(frame),
                          frame.noise_variance is not None)


def test_list_decoder_budget_below_stream_count_is_refused_at_the_front_door(
        monkeypatch):
    """A list search stopped before ``num_streams`` visited nodes never
    reaches a leaf, so its frame can never finalise: such a frame used
    to pass admission, raise out of ``drain()`` and leave every
    co-resident handle unresolved for good.  The front door refuses it
    — at ``submit`` (the runtime untouched), at the farm's ``submit``
    (in the caller) and in ``decode_frame`` (before any search) — and a
    budget of exactly the stream count still decodes."""
    rng = np.random.default_rng(78)
    good = _make_frame(ListSphereDecoder(qam(16), list_size=4), 4, 2,
                       14.0, rng, soft=True)
    starved = ListSphereDecoder(qam(16), list_size=4, node_budget=3)
    bad = FrameRequest(channels=good.channels, received=good.received,
                       decoder=starved, noise_variance=good.noise_variance)

    runtime = UplinkRuntime(capacity=16)
    with pytest.raises(ValueError, match="node_budget"):
        runtime.submit(bad)
    assert runtime.in_flight == 0
    assert runtime.stats.frames_submitted == 0
    handle = runtime.submit(good)
    runtime.drain()
    assert handle.resolution == "completed"
    _assert_identical(handle.result(), _reference(good), True)

    with DetectorFarm(1, backend="inline") as farm:
        with pytest.raises(ValueError, match="node_budget"):
            farm.submit(bad)
        assert farm.outstanding == 0

    def searched(job):
        raise AssertionError("decode_frame searched a refused frame")

    with monkeypatch.context() as patch:
        patch.setattr("repro.runtime.engine.run_frame", searched)
        with pytest.raises(ValueError, match="node_budget"):
            starved.decode_frame(good.channels, good.received,
                                 good.noise_variance)

    greedy = FrameRequest(channels=good.channels, received=good.received,
                          decoder=ListSphereDecoder(qam(16), list_size=4,
                                                    node_budget=4),
                          noise_variance=good.noise_variance)
    handle = runtime.submit(greedy)
    runtime.drain()
    _assert_identical(handle.result(), _reference(greedy), True)


def test_admission_queue_tags_and_fifo():
    rng = np.random.default_rng(7)
    decoder = SphereDecoder(qam(4))
    jobs = [FrameJob(i, _make_frame(decoder, 2, 2, 15.0, rng))
            for i in range(2)]
    queue = AdmissionQueue()
    for job in jobs:
        queue.push(job)
    assert queue.pending == 8
    batches = queue.take(5)
    # Frame-FIFO across the boundary: all of frame 0, then frame 1's head.
    assert [(job.frame_id, list(elements)) for job, elements in batches] \
        == [(0, [0, 1, 2, 3]), (1, [0])]
    assert queue.pending == 3
    assert [(job.frame_id, list(elements))
            for job, elements in queue.take(99)] == [(1, [1, 2, 3])]
    assert queue.take(4) == []


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------

def test_stats_report_consistency():
    rng = np.random.default_rng(8)
    decoder = SphereDecoder(qam(16))
    frames = [_make_frame(decoder, 4, 3, 20.0, rng) for _ in range(4)]
    runtime = UplinkRuntime(capacity=16, max_in_flight=2)
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    stats = runtime.stats
    summary = stats.summary()
    assert summary["frames_completed"] == 4
    assert summary["searches_completed"] == 4 * 4 * 3
    assert summary["frames_per_second"] > 0.0
    assert 0.0 < summary["mean_lane_occupancy"] <= 1.0
    percentiles = stats.latency_percentiles((50, 90, 99))
    assert percentiles[50] <= percentiles[90] <= percentiles[99]
    assert summary["visited_nodes"] == sum(
        handle.result().counters.visited_nodes for handle in handles)
    # Occupancy is read against the lanes the pools allocated, not the
    # global budget: one 64-search frame on a default runtime (2048
    # lanes of budget, 64 allocated) keeps its lanes mostly busy —
    # given a core to drain into: without one the last few searches keep
    # the tick alive at a handful of lanes and the mean reads ~0.2.  The
    # drain tick counts the lanes it ran, though it retires them all.
    lone = UplinkRuntime()
    lone.submit(_make_frame(decoder, 16, 4, 20.0, rng))
    lone.drain()
    assert ((0.5 if core() is not None else 0.1)
            < lone.stats.summary()["mean_lane_occupancy"] <= 1.0)
    # ISSUE-7 regression: an empty window returns an empty dict — a
    # fresh runtime (or an unseen priority class) must be probeable
    # without raising.
    assert UplinkRuntime().stats.latency_percentiles() == {}
    assert stats.latency_percentiles(priority=7) == {}


# ----------------------------------------------------------------------
# Cell workload generator
# ----------------------------------------------------------------------

def test_cell_workload_mixes_traffic_and_streams_identically():
    trace = synthetic_cell_trace(4, 6, 4, 4, rng=9)
    workload = CellWorkload(trace, num_users=6, group_size=4,
                            num_symbols=2, soft_fraction=0.4,
                            snr_window_db=6.0, list_size=4, rng=10)
    frames = workload.frames(12)
    arrivals = [frame.metadata["arrival_s"] for frame in frames]
    assert all(later > earlier
               for earlier, later in zip(arrivals, arrivals[1:]))
    orders = {frame.metadata["order"] for frame in frames}
    kinds = {frame.metadata["kind"] for frame in frames}
    assert len(orders) >= 2, "SNR span should mix constellations"
    assert kinds == {"hard", "soft"}
    groups = {frame.metadata["group"] for frame in frames}
    assert len(groups) > 1, "the TDMA schedule should rotate groups"
    stream_counts = {frame.channels.shape[2] for frame in frames}
    assert len(stream_counts) > 1, (
        "the SNR window should shrink some serving groups (heterogeneous "
        "MIMO orders)")
    assert all(frame.channels.shape[2] >= 2 for frame in frames)

    runtime = UplinkRuntime(capacity=48, max_in_flight=4)
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    for frame, handle in zip(frames, handles):
        _assert_identical(handle.result(), _reference(frame),
                          frame.noise_variance is not None)


def test_cell_workload_validation():
    trace = synthetic_cell_trace(1, 2, 4, 2, rng=0)
    with pytest.raises(ValueError):
        CellWorkload(trace, group_size=4)          # trace too narrow
    with pytest.raises(ValueError):
        CellWorkload(trace, num_users=1, group_size=2)
    with pytest.raises(ValueError):
        CellWorkload(trace, group_size=2, soft_fraction=1.5)


# ----------------------------------------------------------------------
# The coded chain through the runtime (ISSUE-6 tentpole)
# ----------------------------------------------------------------------

def test_coded_decisions_match_standalone_recover():
    """Frames submitted with a PhyConfig resolve with per-stream payload
    bits and CRC verdicts bit-identical to ``recover_uplink`` /
    ``recover_uplink_soft`` on the same detections, with an unconfigured
    frame mixed in."""
    rng = np.random.default_rng(12)
    config4 = _coded_config(4, payload_bits=72)
    config16 = _coded_config(16, payload_bits=88)
    hard4 = SphereDecoder(qam(4))
    soft4 = ListSphereDecoder(qam(4), list_size=4)
    hard16 = SphereDecoder(qam(16))
    frames = [
        _make_coded_frame(config4, hard4, 27.0, rng),
        _make_coded_frame(config4, soft4, 27.0, rng, soft=True),
        _make_coded_frame(config16, hard16, 30.0, rng, num_clients=3),
        _make_frame(hard4, 4, 2, 15.0, rng),       # detection-only frame
    ]
    runtime = UplinkRuntime(capacity=24, max_in_flight=4)
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    for frame, handle in zip(frames[:3], handles[:3]):
        _assert_identical(handle.result(), _reference(frame),
                          frame.noise_variance is not None)
        _assert_decisions_match_standalone(handle.result(), frame)
    assert handles[3].result().decisions is None

    # At these SNRs the seeded channels decode cleanly: the delivered
    # payloads are the transmitted ones and the goodput counters add up.
    for frame, handle in zip(frames[:3], handles[:3]):
        for payload, decision in zip(frame.metadata["payloads"],
                                     handle.result().decisions):
            assert decision.crc_ok
            assert np.array_equal(decision.payload_bits, payload)
    stats = runtime.stats
    assert stats.streams_decoded == 2 + 2 + 3
    assert stats.streams_crc_ok == stats.streams_decoded
    assert stats.payload_bits_ok == 72 * 2 + 72 * 2 + 88 * 3
    assert stats.goodput_bps() > 0.0
    assert stats.crc_failure_rate() == 0.0


def test_uncoded_config_frames_decode_without_trellis():
    """config.code=None hard frames skip the Viterbi sweep but still
    resolve with CRC-judged decisions identical to recover_uplink."""
    rng = np.random.default_rng(13)
    config = _coded_config(4, payload_bits=72, coded=False)
    frame = _make_coded_frame(config, SphereDecoder(qam(4)), 30.0, rng)
    runtime = UplinkRuntime(capacity=16)
    handle = runtime.submit(frame)
    runtime.drain()
    _assert_decisions_match_standalone(handle.result(), frame)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_coded_admission_order_invariance(data):
    """The coded chain's acceptance sweep: any admission order and
    in-flight budget yields decisions bit-identical to the standalone
    recover chain, coded hard/soft frames interleaved."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1),
                                          label="seed"))
    config = _coded_config(4, payload_bits=64)
    hard = SphereDecoder(qam(4))
    soft = ListSphereDecoder(qam(4), list_size=4)
    num_frames = data.draw(st.integers(2, 4), label="num_frames")
    frames = []
    for _ in range(num_frames):
        is_soft = bool(rng.integers(2))
        frames.append(_make_coded_frame(
            config, soft if is_soft else hard,
            float(rng.uniform(12.0, 24.0)), rng, soft=is_soft,
            num_rx=3, num_clients=2))
    order = data.draw(st.permutations(range(num_frames)), label="order")
    budget = data.draw(st.integers(1, num_frames), label="max_in_flight")
    runtime = UplinkRuntime(capacity=data.draw(st.integers(2, 24),
                                               label="capacity"),
                            max_in_flight=budget)
    handles = {}
    for index in order:
        handles[index] = runtime.submit(frames[index])
        if data.draw(st.booleans(), label="poll"):
            runtime.poll(max_ticks=data.draw(st.integers(1, 6),
                                             label="ticks"))
    runtime.drain()
    for index, frame in enumerate(frames):
        _assert_identical(handles[index].result(), _reference(frame),
                          frame.noise_variance is not None)
        _assert_decisions_match_standalone(handles[index].result(), frame)


def test_coded_frame_request_validation():
    """Config mistakes fail loudly at submission, not mid-decode."""
    rng = np.random.default_rng(14)
    config = _coded_config(4, payload_bits=72)
    frame = _make_coded_frame(config, SphereDecoder(qam(4)), 25.0, rng)
    runtime = UplinkRuntime(capacity=8)

    with pytest.raises(ValueError):
        # Config constellation differs from the decoder's.
        runtime.submit(FrameRequest(
            channels=frame.channels, received=frame.received,
            decoder=SphereDecoder(qam(4)),
            config=_coded_config(16), num_pad_bits=frame.num_pad_bits))
    with pytest.raises(ValueError):
        # Soft decoding without a convolutional code.
        runtime.submit(FrameRequest(
            channels=frame.channels, received=frame.received,
            decoder=ListSphereDecoder(qam(4), list_size=4),
            noise_variance=0.1,
            config=_coded_config(4, coded=False), num_pad_bits=0))
    with pytest.raises(ValueError):
        # 6 subcarriers cannot carry whole interleaver blocks of the
        # 8-subcarrier numerology.
        runtime.submit(FrameRequest(
            channels=frame.channels[:6], received=frame.received[:, :6, :],
            decoder=SphereDecoder(qam(4)), config=config, num_pad_bits=0))
    with pytest.raises(ValueError):
        # Pad count at/above the per-stream coded length.
        runtime.submit(FrameRequest(
            channels=frame.channels, received=frame.received,
            decoder=SphereDecoder(qam(4)), config=config,
            num_pad_bits=10**6))


def test_coded_frame_that_can_reach_no_leaf_is_refused_at_both_doors():
    """A search stopped before its first leaf — a node budget under the
    stream count, or a finite initial radius holding no point — leaves
    the ``-1`` "no leaf" marker, which names no symbol: a coded frame
    used to decode it as Gray bits and count CRC-failing payloads.  The
    front door refuses a coded frame whose searches could do that (hard
    or soft; the runtime untouched), and the bit mapping refuses the
    marker itself, so ``recover_uplink`` cannot decode one either."""
    rng = np.random.default_rng(15)
    config = _coded_config(16, payload_bits=88)
    frame = _make_coded_frame(config, SphereDecoder(qam(16)), 30.0, rng)
    runtime = UplinkRuntime(capacity=16)
    for decoder, what in (
            (SphereDecoder(qam(16), node_budget=1), "node_budget"),
            (ListSphereDecoder(qam(16), list_size=4, node_budget=1),
             "node_budget"),
            (SphereDecoder(qam(16), initial_radius_sq=1e-9),
             "initial_radius_sq")):
        with pytest.raises(ValueError, match=what):
            runtime.submit(FrameRequest(
                channels=frame.channels, received=frame.received,
                decoder=decoder, noise_variance=0.1, config=config,
                num_pad_bits=frame.num_pad_bits))
    assert runtime.in_flight == 0 and runtime.stats.frames_submitted == 0
    # The same starved decoder on an uncoded frame is a legal (if
    # useless) detection: the marker reaches the caller as -1.
    starved = SphereDecoder(qam(16), node_budget=1)
    handle = runtime.submit(FrameRequest(channels=frame.channels,
                                         received=frame.received,
                                         decoder=starved))
    runtime.drain()
    indices = handle.result().symbol_indices
    assert (indices == -1).all()
    # A budget of exactly the stream count reaches a leaf every time.
    greedy = FrameRequest(
        channels=frame.channels, received=frame.received,
        decoder=SphereDecoder(qam(16), node_budget=2), config=config,
        num_pad_bits=frame.num_pad_bits)
    handle = runtime.submit(greedy)
    runtime.drain()
    assert (handle.result().symbol_indices >= 0).all()
    _assert_decisions_match_standalone(handle.result(), greedy)

    for bad in ([-1], [16], [3, -1, 5]):
        with pytest.raises(ValueError, match=r"in \[0, 16\)"):
            qam(16).indices_to_bits(bad)
    with pytest.raises(ValueError, match=r"in \[0, 16\)"):
        recover_uplink(indices, frame.num_pad_bits, config)

def test_cell_workload_coded_traffic_decodes():
    trace = synthetic_cell_trace(3, 8, 4, 4, rng=15)
    workload = CellWorkload(trace, num_users=6, group_size=4,
                            soft_fraction=0.5, snr_span_db=(18.0, 30.0),
                            list_size=4, coded=True, payload_bits=56,
                            rng=16)
    frames = workload.frames(6)
    assert all(frame.config is not None for frame in frames)
    assert all("payloads" in frame.metadata for frame in frames)
    runtime = UplinkRuntime(capacity=48, max_in_flight=3)
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    for frame, handle in zip(frames, handles):
        _assert_identical(handle.result(), _reference(frame),
                          frame.noise_variance is not None)
        _assert_decisions_match_standalone(handle.result(), frame)
    assert runtime.stats.streams_decoded == sum(
        frame.channels.shape[2] for frame in frames)

    narrow = synthetic_cell_trace(1, 6, 4, 4, rng=0)
    with pytest.raises(ValueError, match="divisible by 8"):
        CellWorkload(narrow, coded=True)


# ----------------------------------------------------------------------
# Telemetry degenerate cases (ISSUE-6 satellite)
# ----------------------------------------------------------------------

def test_stats_zero_frames_report_zero_rates():
    stats = RuntimeStats()
    assert stats.frames_per_second() == 0.0
    assert stats.goodput_bps() == 0.0
    assert stats.crc_failure_rate() == 0.0
    summary = stats.summary()
    assert summary["frames_per_second"] == 0.0
    assert summary["goodput_bits_per_second"] == 0.0
    assert summary["crc_failure_rate"] == 0.0
    assert "latency_percentiles_s" not in summary


def test_stats_zero_width_interval_reports_inf_not_zero():
    """One frame under a frozen clock: the busy interval is zero-width,
    and a positive completion count over it must read as ``inf``, never
    an understating 0.0."""
    rng = np.random.default_rng(17)
    config = _coded_config(4, payload_bits=40)
    frame = _make_coded_frame(config, SphereDecoder(qam(4)), 30.0, rng)
    runtime = UplinkRuntime(capacity=16, clock=lambda: 42.0)
    handle = runtime.submit(frame)
    runtime.drain()
    stats = runtime.stats
    assert handle.latency_s == 0.0
    assert stats.elapsed_s == 0.0
    assert stats.frames_per_second() == float("inf")
    assert stats.payload_bits_ok > 0
    assert stats.goodput_bps() == float("inf")
    summary = stats.summary()
    assert summary["frames_per_second"] == float("inf")
    assert summary["latency_percentiles_s"][99] == 0.0


# ----------------------------------------------------------------------
# Demand-grown kernel pools (ISSUE-8 satellite)
# ----------------------------------------------------------------------

def test_demand_grown_pools_are_invisible_to_results():
    """A runtime whose first frames are tiny starts with a tiny lane
    allocation (a pool is born with its first frame's searches) and
    grows its pools geometrically under load — and the growth must be
    pure capacity: results and counters bit-identical to an
    eagerly-allocated runtime, for hard and soft pools alike."""
    rng = np.random.default_rng(21)
    decoder = SphereDecoder(qam(16))
    soft_decoder = ListSphereDecoder(qam(16), list_size=4)
    frames = [_make_frame(decoder, 1, 2, 14.0, rng),
              _make_frame(soft_decoder, 1, 2, 14.0, rng, soft=True),
              _make_frame(decoder, 8, 3, 14.0, rng),
              _make_frame(soft_decoder, 6, 3, 14.0, rng, soft=True),
              _make_frame(decoder, 8, 2, 20.0, rng)]
    runtime = UplinkRuntime(capacity=64, max_in_flight=5)
    handles = [runtime.submit(frame) for frame in frames[:2]]
    pools = list(runtime._engine._pools.values())
    assert len(pools) == 2, "the sweep must instantiate two kernel pools"
    assert [pool.allocated for pool in pools] == [2, 2]
    handles += [runtime.submit(frame) for frame in frames[2:]]
    runtime.drain()
    assert all(pool.allocated > 2 for pool in pools), (
        "the workload must actually force growth")
    assert all(pool.allocated <= 64 for pool in pools)
    for frame, handle in zip(frames, handles):
        _assert_identical(handle.result(), _reference(frame),
                          frame.noise_variance is not None)


# ----------------------------------------------------------------------
# The detector farm inherits the contract (ISSUE-8 tentpole)
# ----------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_farm_shard_counts_bit_identical(data):
    """The ISSUE-8 acceptance sweep: for shard counts {1, 2, 4}, any
    admission order, either lane policy and a random QoS mix, every
    frame decoded by the farm is bit-identical to standalone
    ``decode_frame`` — results, LLRs and counters."""
    from repro.service import DetectorFarm

    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1),
                                          label="seed"))
    decoders = [(SphereDecoder(qam(4)), False),
                (SphereDecoder(qam(16)), False),
                (ListSphereDecoder(qam(4), list_size=4), True)]
    num_frames = data.draw(st.integers(2, 5), label="num_frames")
    frames = []
    for _ in range(num_frames):
        decoder, soft = decoders[int(rng.integers(len(decoders)))]
        frame = _make_frame(decoder, int(rng.integers(2, 5)),
                            int(rng.integers(1, 3)),
                            float(rng.uniform(10.0, 20.0)), rng,
                            soft=soft, num_rx=3)
        frame.priority = int(rng.integers(0, 3))
        if bool(rng.integers(2)):
            frame.deadline_s = 3600.0
        frames.append(frame)
    order = data.draw(st.permutations(range(num_frames)), label="order")
    num_shards = data.draw(st.sampled_from([1, 2, 4]), label="num_shards")
    lane_policy = data.draw(st.sampled_from(["deadline", "fifo"]),
                            label="lane_policy")
    farm = DetectorFarm(num_shards, backend="inline",
                        runtime_kwargs={
                            "capacity": data.draw(st.integers(2, 24),
                                                  label="capacity"),
                            "lane_policy": lane_policy})
    with farm:
        handles = {}
        for index in order:
            handles[index] = farm.submit(frames[index])
            if data.draw(st.booleans(), label="pump"):
                farm.pump()
        farm.drain()
        for index, frame in enumerate(frames):
            assert handles[index].resolution == "completed"
            _assert_identical(handles[index].result(), _reference(frame),
                              frame.noise_variance is not None)
