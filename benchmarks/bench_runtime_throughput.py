"""Streaming-runtime benchmark: pipelined vs frame-at-a-time throughput.

The ISSUE-5 acceptance numbers: a stream of uplink frames decoded through
one resident :class:`~repro.runtime.session.UplinkRuntime` (frames
pipelined through the shared lane pool, stragglers of frame N overlapping
frame N+1's fresh searches) against the frame-at-a-time baseline (one
``decode_frame`` call per frame, each paying its own engine spin-up and
straggler tail).  Workload: 16-QAM 4x4 x 64 subcarriers, short 4-symbol
frames — the regime where per-frame tails dominate and pipelining pays
the most, i.e. the bursty short-frame traffic an access point actually
serves.
"""

import time

import numpy as np
import pytest

import repro.runtime.engine as engine
from repro.channel import awgn, noise_variance_for_snr, rayleigh_channels
from repro.constellation import qam
from repro.runtime import FrameRequest, UplinkRuntime
from repro.sphere import ListSphereDecoder, SphereDecoder
from repro.sphere.tick_kernel import core

#: The pipelining floors measure the engine in the compiled core;
#: without a C compiler every search runs to completion in its admission
#: tick, so there is no tail for pipelining to overlap.
needs_core = pytest.mark.skipif(
    core() is None, reason="no C compiler: the engine runs the scalar search")

SUBCARRIERS = 64
OFDM_SYMBOLS = 4
NUM_FRAMES = 24
SNR_DB = 21.0


def _frame_stream(order, num_tx, num_rx, count, decoder, snr_db, seed=7,
                  soft=False):
    """``count`` independent frames of fresh Rayleigh traffic."""
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    frames = []
    for _ in range(count):
        channels = rayleigh_channels(SUBCARRIERS, num_rx, num_tx, rng)
        sent = rng.integers(0, order,
                            size=(OFDM_SYMBOLS, SUBCARRIERS, num_tx))
        clean = np.einsum("tsc,sac->tsa", constellation.points[sent],
                          channels)
        noise_variance = float(np.mean(
            [noise_variance_for_snr(channels[s], snr_db)
             for s in range(SUBCARRIERS)]))
        received = clean + awgn(clean.shape, noise_variance, rng)
        frames.append(FrameRequest(
            channels=channels, received=received, decoder=decoder,
            noise_variance=noise_variance if soft else None))
    return frames


def _pipelined(frames, **runtime_kwargs):
    runtime = UplinkRuntime(**runtime_kwargs)
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    return runtime, handles


def _interleaved_best_of(first, second, repeats=5):
    """Best-of-``repeats`` wall clock of two callables, timed in
    alternation (first, second, first, ...), so a slow spell of the box
    lands on both sides instead of on whichever ran during it."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, function in enumerate((first, second)):
            start = time.perf_counter()
            function()
            best[side] = min(best[side], time.perf_counter() - start)
    return best


@needs_core
def test_runtime_pipelined_vs_frame_at_a_time(benchmark, speedup_floor):
    """The CI floor: sustained pipelined throughput must beat
    frame-at-a-time by >= 1.3x on 16-QAM 4x4 x 64 subcarriers while
    every frame stays bit-identical to standalone ``decode_frame``.

    Measured on the reference machine: ~1.5x with 4-symbol frames (the
    win is occupancy: ~8 frames share the lane pool, so the frontier
    never idles through a straggler tail).  It was ~2.4x while each
    frame's tail cost ~27 us/node; the interpreted tail (PR 15) and
    then the compiled one (PR 21, ~0.1 us/node) sped both sides up and
    the frame-at-a-time baseline more (0.50 -> 0.25 -> 0.13 s against
    0.23 -> 0.17 -> 0.08 s for the 24 frames; ~1.6x now), so the margin
    over the 1.3x floor is thinner than it was.  The two sides are
    timed in alternation, best of 5 each (:func:`_interleaved_best_of`),
    so a slow spell of the box lands on both.  Ten runs each on a shared
    2-vCPU box, one attempt per tick and the sides timed one after the
    other: 1.01-1.54x, median 1.33x, five under the floor; two attempts
    per tick, interleaved: 1.12-1.53x, median 1.33x, three under it.
    Two attempts a tick shorten the frame-at-a-time tail this floor
    measures pipelining against, so the margin did not grow.
    ``speedup`` in extra_info carries the real number, and the runtime's
    own telemetry (frames/sec, latency percentiles, occupancy) lands
    there too.
    """
    decoder = SphereDecoder(qam(16))
    frames = _frame_stream(16, 4, 4, NUM_FRAMES, decoder, SNR_DB)

    def frame_at_a_time():
        return [decoder.decode_frame(frame.channels, frame.received)
                for frame in frames]

    references = frame_at_a_time()
    runtime, handles = benchmark(_pipelined, frames)
    for handle, reference in zip(handles, references):
        result = handle.result()
        assert np.array_equal(result.symbol_indices,
                              reference.symbol_indices)
        assert np.array_equal(result.distances_sq, reference.distances_sq)
        assert result.counters == reference.counters

    sequential_s, pipelined_s = _interleaved_best_of(
        frame_at_a_time, lambda: _pipelined(frames))
    benchmark.extra_info["frames"] = NUM_FRAMES
    benchmark.extra_info["frames_per_second"] = (
        runtime.stats.frames_per_second())
    benchmark.extra_info["mean_lane_occupancy"] = (
        runtime.stats.mean_lane_occupancy())
    benchmark.extra_info["latency_percentiles_s"] = (
        runtime.stats.latency_percentiles())
    speedup_floor(sequential_s, pipelined_s, 1.3,
                  baseline="frame_at_a_time", candidate="pipelined")


@needs_core
def test_two_attempts_a_tick_halve_the_ticks(monkeypatch):
    """Untimed: the floor's 24-frame stream takes at most 0.6x the ticks
    at the engine's shipped allowance that it takes at one attempt per
    lane per tick (measured 0.51x), with results bit-identical — a tick's
    fixed cost is paid half as often."""
    decoder = SphereDecoder(qam(16))
    frames = _frame_stream(16, 4, 4, NUM_FRAMES, decoder, SNR_DB)
    shipped, handles = _pipelined(frames)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_LOCKSTEP_ATTEMPTS", 1)
        one, references = _pipelined(frames)
    for handle, reference in zip(handles, references):
        result, expected = handle.result(), reference.result()
        assert np.array_equal(result.symbol_indices, expected.symbol_indices)
        assert np.array_equal(result.distances_sq, expected.distances_sq)
        assert result.counters == expected.counters
    assert shipped.stats.ticks <= 0.6 * one.stats.ticks


@needs_core
def test_pipelining_takes_at_most_half_the_ticks():
    """Untimed guard of what the pipelined floor above protects: the
    floor's 24-frame stream through one resident runtime takes at most
    half the ticks it takes frame at a time (``max_in_flight=1``: each
    frame alone in the engine, as ``decode_frame`` runs it; measured 139
    against 379), with results bit-identical.  A tick count does not
    depend on the box's speed: this fails exactly when frames stop
    overlapping in the lanes (``max_in_flight=1`` on both sides reads
    1.0x)."""
    decoder = SphereDecoder(qam(16))
    frames = _frame_stream(16, 4, 4, NUM_FRAMES, decoder, SNR_DB)
    pipelined, handles = _pipelined(frames)
    alone, references = _pipelined(frames, max_in_flight=1)
    for handle, reference in zip(handles, references):
        result, expected = handle.result(), reference.result()
        assert np.array_equal(result.symbol_indices, expected.symbol_indices)
        assert np.array_equal(result.distances_sq, expected.distances_sq)
        assert result.counters == expected.counters
    assert pipelined.stats.ticks <= 0.5 * alone.stats.ticks


@needs_core
def test_soft_pipelining_takes_at_most_half_the_ticks():
    """Untimed guard of what the soft-stream floor below protects, the
    soft twin of the guard above: :func:`test_runtime_soft_stream`'s
    list-8 16-QAM stream through one resident runtime takes at most half
    the ticks it takes frame at a time (``max_in_flight=1``; measured
    181 against 842), with LLRs, list sizes and counters bit-identical.
    It fails exactly when frames stop overlapping in the lanes."""
    decoder = ListSphereDecoder(qam(16), list_size=8)
    frames = _frame_stream(16, 4, 4, 8, decoder, SNR_DB, seed=13, soft=True)
    pipelined, handles = _pipelined(frames)
    alone, references = _pipelined(frames, max_in_flight=1)
    for handle, reference in zip(handles, references):
        result, expected = handle.result(), reference.result()
        assert np.array_equal(result.llrs, expected.llrs)
        assert np.array_equal(result.symbol_indices, expected.symbol_indices)
        assert np.array_equal(result.list_sizes, expected.list_sizes)
        assert result.counters == expected.counters
    assert pipelined.stats.ticks <= 0.5 * alone.stats.ticks


@pytest.mark.parametrize("max_in_flight", [2, 8])
def test_runtime_backpressure_sweep(benchmark, max_in_flight):
    """Report how the in-flight budget trades throughput for latency —
    no floor, just the recorded trajectory numbers."""
    decoder = SphereDecoder(qam(16))
    frames = _frame_stream(16, 4, 4, 12, decoder, SNR_DB, seed=11)
    runtime, _ = benchmark(_pipelined, frames, max_in_flight=max_in_flight)
    benchmark.extra_info["max_in_flight"] = max_in_flight
    benchmark.extra_info["frames_per_second"] = (
        runtime.stats.frames_per_second())
    benchmark.extra_info["latency_percentiles_s"] = (
        runtime.stats.latency_percentiles())


def test_core_vs_scalar_fallback_runtime_speedup(benchmark, best_of,
                                                 speedup_floor, core_hidden):
    """The ISSUE-9 acceptance numbers, runtime edition: the same frame
    stream through one resident engine stepping its lockstep ticks in
    the compiled core (with the core's drain for the last stragglers —
    the default wherever it built) vs the scalar fallback (the core
    hidden, as on a box without a C compiler: every search runs through
    the scalar decoder in its admission tick).  Results stay
    bit-identical frame by frame; frames/sec and the
    kernel-vs-orchestration split land in extra_info.  The fallback side
    takes seconds, so it is timed once.  The 2x floor is gated wherever
    the core loaded (any box with a C compiler); without one both sides
    are the fallback, so only the numbers are recorded.
    """
    decoder = SphereDecoder(qam(16))
    frames = _frame_stream(16, 4, 4, NUM_FRAMES, decoder, SNR_DB, seed=17)

    with core_hidden():
        reference_runtime, references = _pipelined(frames)
        scalar_s = best_of(lambda: _pipelined(frames), repeats=1)
    runtime, handles = benchmark(_pipelined, frames)
    for handle, reference in zip(handles, references):
        result = handle.result()
        expected = reference.result()
        assert np.array_equal(result.symbol_indices,
                              expected.symbol_indices)
        assert np.array_equal(result.distances_sq, expected.distances_sq)
        assert result.counters == expected.counters

    compiled_s = best_of(lambda: _pipelined(frames), repeats=3)
    benchmark.extra_info["core_loaded"] = core() is not None
    benchmark.extra_info["frames_per_second_scalar"] = (
        reference_runtime.stats.frames_per_second())
    benchmark.extra_info["frames_per_second_compiled"] = (
        runtime.stats.frames_per_second())
    benchmark.extra_info["kernel_time_fraction"] = (
        runtime.stats.kernel_time_fraction())
    if core() is not None:
        speedup_floor(scalar_s, compiled_s, 2.0,
                      baseline="scalar", candidate="compiled")
    else:
        benchmark.extra_info["scalar_s"] = scalar_s
        benchmark.extra_info["compiled_s"] = compiled_s
        benchmark.extra_info["speedup"] = scalar_s / compiled_s


@needs_core
def test_runtime_soft_stream(benchmark, best_of, speedup_floor):
    """The soft path pipelines too: list frames through the resident
    engine vs soft ``decode_frame`` per frame, bit-identical LLRs, with
    a softer 1.1x floor (soft trees are deeper, so per-frame tails are a
    smaller share of the work)."""
    decoder = ListSphereDecoder(qam(16), list_size=8)
    frames = _frame_stream(16, 4, 4, 8, decoder, SNR_DB, seed=13, soft=True)

    def frame_at_a_time():
        return [decoder.decode_frame(frame.channels, frame.received,
                                     frame.noise_variance)
                for frame in frames]

    references = frame_at_a_time()
    runtime, handles = benchmark(_pipelined, frames)
    for handle, reference in zip(handles, references):
        result = handle.result()
        assert np.array_equal(result.llrs, reference.llrs)
        assert np.array_equal(result.list_sizes, reference.list_sizes)
        assert result.counters == reference.counters

    sequential_s = best_of(frame_at_a_time)
    pipelined_s = best_of(lambda: _pipelined(frames))
    speedup_floor(sequential_s, pipelined_s, 1.1,
                  baseline="frame_at_a_time", candidate="pipelined")
