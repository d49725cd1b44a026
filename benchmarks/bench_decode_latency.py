"""Micro-benchmarks: wall-clock latency of sphere decoding.

Complements the PED-calculation counters with actual Python runtime for a
single maximum-likelihood detection, decoder by decoder, plus the
scalar-vs-batch comparison that tracks the batch detection engine's
speedup in the perf trajectory.  Fixed channel and observations per case
so the numbers are comparable across decoders and runs.
"""

import numpy as np
import pytest

from repro.channel import awgn, noise_variance_for_snr, rayleigh_channel
from repro.constellation import qam
from repro.frame import rotate_frame, triangular_frame, triangularize_frame
from repro.runtime import FrameJob
from repro.runtime.engine import StreamingFrontier
from repro.sphere import (
    KBestDecoder,
    ListSphereDecoder,
    SphereDecoder,
    eth_sd_decoder,
    geosphere_decoder,
    geosphere_zigzag_only,
    triangularize,
)
from repro.sphere.tick_kernel import core

#: The engine-speed floors measure the compiled core; without a C
#: compiler every pool runs the scalar search, so they have nothing to
#: measure (the results contract is still the tests').
needs_core = pytest.mark.skipif(
    core() is None, reason="no C compiler: the engine runs the scalar search")


def _fixed_instance(order, num_tx, num_rx, snr_db, seed=42):
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    channel = rayleigh_channel(num_rx, num_tx, rng)
    sent = rng.integers(0, order, size=num_tx)
    noise_variance = noise_variance_for_snr(channel, snr_db)
    y = channel @ constellation.points[sent] + awgn(num_rx, noise_variance, rng)
    return channel, y


def _fixed_block(order, num_tx, num_rx, num_vectors, snr_db, seed=42):
    """One channel, ``num_vectors`` observations — a frame's worth of
    subcarriers under the paper's flat per-frame Rayleigh convention —
    rotated into the triangular domain."""
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    channel = rayleigh_channel(num_rx, num_tx, rng)
    sent = rng.integers(0, order, size=(num_vectors, num_tx))
    noise_variance = noise_variance_for_snr(channel, snr_db)
    received = (constellation.points[sent] @ channel.T
                + awgn((num_vectors, num_rx), noise_variance, rng))
    q, r = triangularize(channel)
    return r, received @ np.conj(q)


def _fixed_frame(order, num_tx, num_rx, num_subcarriers, num_symbols,
                 snr_db, seed=42):
    """One whole uplink frame: per-subcarrier channels and ``(T, S, na)``
    observations, the workload ``decode_frame`` runs on one frontier."""
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    channels = np.stack([rayleigh_channel(num_rx, num_tx, rng)
                         for _ in range(num_subcarriers)])
    sent = rng.integers(0, order,
                        size=(num_symbols, num_subcarriers, num_tx))
    clean = np.einsum("tsc,sac->tsa", constellation.points[sent], channels)
    noise_variance = float(np.mean(
        [noise_variance_for_snr(channels[s], snr_db)
         for s in range(num_subcarriers)]))
    received = clean + awgn(clean.shape, noise_variance, rng)
    return channels, received


CASES = [
    ("16qam_4x4", 16, 4, 20.0),
    ("64qam_4x4", 64, 4, 27.0),
    ("256qam_4x4", 256, 4, 33.0),
    ("256qam_2x4", 256, 2, 33.0),
]

FACTORIES = {
    "geosphere": geosphere_decoder,
    "zigzag-only": geosphere_zigzag_only,
    "eth-sd": eth_sd_decoder,
}


@pytest.mark.parametrize("case_name,order,num_tx,snr_db", CASES)
@pytest.mark.parametrize("decoder_kind", sorted(FACTORIES))
def test_decode_latency(benchmark, case_name, order, num_tx, snr_db,
                        decoder_kind):
    channel, y = _fixed_instance(order, num_tx, 4, snr_db)
    decoder = FACTORIES[decoder_kind](qam(order))
    result = benchmark(decoder.decode, channel, y)
    assert result.found
    benchmark.extra_info["ped_calcs"] = result.counters.ped_calcs
    benchmark.extra_info["visited_nodes"] = result.counters.visited_nodes


# ----------------------------------------------------------------------
# Scalar loop vs batch engine (the ISSUE-1 acceptance numbers)
# ----------------------------------------------------------------------

SUBCARRIERS = 64


def test_kbest_batch_speedup(benchmark, best_of, speedup_floor):
    """Vectorised K-best over a 64-subcarrier block must beat the scalar
    loop by >= 3x wall-clock while staying bit-identical.

    Baseline note: the scalar loop timed here accumulates interference
    via per-column ``np.multiply`` (required for the bit-exact batch
    contract), which is slightly slower than the seed's single BLAS dot;
    the measured ~50x is vs this contract-compliant scalar path, and the
    3x floor holds with wide margin against either baseline.
    """
    r, y_hat = _fixed_block(16, 4, 4, SUBCARRIERS, snr_db=20.0)
    decoder = KBestDecoder(qam(16), k=16)

    def scalar_loop():
        return [decoder.decode_triangular(r, y_hat[t])
                for t in range(SUBCARRIERS)]

    scalar_s = best_of(scalar_loop)
    batch_s = best_of(lambda: decoder.decode_batch(r, y_hat))

    result = benchmark(decoder.decode_batch, r, y_hat)
    scalars = scalar_loop()
    assert np.array_equal(result.symbol_indices[:, 0],
                          np.stack([s.symbol_indices for s in scalars]))
    assert np.array_equal(result.distances_sq[:, 0],
                          np.array([s.distance_sq for s in scalars]))

    speedup_floor(scalar_s, batch_s, 3.0,
                  baseline="scalar", candidate="batch")


@pytest.mark.parametrize("decoder_kind", sorted(FACTORIES))
def test_sphere_batch_vs_scalar(benchmark, best_of, decoder_kind):
    """Depth-first decoders run the lockstep engine through
    ``decode_batch``; report its speedup over the scalar loop."""
    r, y_hat = _fixed_block(16, 4, 4, SUBCARRIERS, snr_db=20.0)
    decoder = FACTORIES[decoder_kind](qam(16))

    scalar_s = best_of(lambda: [decoder.decode_triangular(r, y_hat[t])
                                for t in range(SUBCARRIERS)])
    result = benchmark(decoder.decode_batch, r, y_hat)
    assert result.found.all()
    batch_s = best_of(lambda: decoder.decode_batch(r, y_hat))
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["batch_s"] = batch_s
    benchmark.extra_info["speedup"] = scalar_s / batch_s
    benchmark.extra_info["ped_calcs"] = result.counters.ped_calcs


@needs_core
def test_sphere_frontier_vs_loop_speedup(benchmark, best_of,
                                         speedup_floor):
    """The ISSUE-2 acceptance numbers: the breadth-synchronised engine
    behind ``decode_batch`` vs the scalar row loop
    (``_decode_batch_loop``) on 16-QAM 4x4 x 64 subcarriers.

    Both paths are bit-identical (asserted below); the frontier's win is
    pure scheduling — batched axis orders, vectorised pruning/PED work,
    the compiled core for the stragglers.  Measured on the reference
    machine: ~5x at 20 dB and ~6.5x at the 22 dB operating point timed
    here, against a ~1x loop baseline before this engine existed.  The
    assertion floor is 3x so noisy CI runners cannot flake the suite;
    the recorded ``speedup`` in extra_info carries the real number.
    """
    r, y_hat = _fixed_block(16, 4, 4, SUBCARRIERS, snr_db=22.0)
    decoder = SphereDecoder(qam(16))

    loop_result = decoder._decode_batch_loop(r, y_hat)
    result = benchmark(decoder.decode_batch, r, y_hat)
    assert np.array_equal(result.symbol_indices, loop_result.symbol_indices)
    assert np.array_equal(result.distances_sq, loop_result.distances_sq)
    assert result.counters.ped_calcs == loop_result.counters.ped_calcs
    assert result.counters.visited_nodes == loop_result.counters.visited_nodes

    loop_s = best_of(lambda: decoder._decode_batch_loop(r, y_hat))
    frontier_s = best_of(lambda: decoder.decode_batch(r, y_hat))
    speedup_floor(loop_s, frontier_s, 3.0,
                  baseline="loop", candidate="frontier")


# ----------------------------------------------------------------------
# Straggler tail vs the scalar oracle (the ISSUE-15 / ISSUE-21 numbers)
# ----------------------------------------------------------------------


@needs_core
def test_tail_vs_oracle_per_node(benchmark, best_of, speedup_floor):
    """What a tree node costs in the straggler tail — the compiled
    search core (:mod:`repro.sphere.tick_kernel`) resuming searches the
    lockstep frontier hands over — against the scalar oracle's
    ``_search``, on the searches the tail exists for: the heavy ones
    (>= 40 visited nodes) of a 16-QAM 4x4 block over an ill-conditioned
    channel (seed 3: ~300 of 512 searches qualify).

    A frontier whose (private) drain threshold is the batch size hands
    every search over in its admission tick, so the frontier run below
    is the core plus admission and retirement of the batch.  Both sides walk
    the same rows and are bit-identical (asserted, counters included),
    so the time ratio is the per-node ratio.  Measured ~250x (0.16 vs
    39 us/node; the interpreted tail this replaced read 4.6); the floor
    is a conservative 30x.
    """
    r, y_hat = _fixed_block(16, 4, 4, 512, snr_db=14.0, seed=3)
    decoder = SphereDecoder(qam(16))
    visited = np.array([decoder.decode_triangular(r, row)
                        .counters.visited_nodes for row in y_hat])
    heavy = y_hat[visited >= 40]
    nodes = int(visited[visited >= 40].sum())
    assert heavy.shape[0] >= 100

    def tail():
        job = FrameJob.from_triangular(decoder, r, heavy)
        frontier = StreamingFrontier(capacity=heavy.shape[0])
        frontier._drain_threshold = heavy.shape[0]
        frontier.submit(job)
        frontier.tick()
        return job.finalise()

    oracle = decoder._decode_batch_loop(r, heavy)
    result = benchmark(tail)
    assert np.array_equal(result.symbol_indices, oracle.symbol_indices)
    assert np.array_equal(result.distances_sq, oracle.distances_sq)
    assert result.counters == oracle.counters
    assert result.counters.visited_nodes == nodes

    oracle_s = best_of(lambda: decoder._decode_batch_loop(r, heavy))
    tail_s = best_of(tail)
    benchmark.extra_info["searches"] = int(heavy.shape[0])
    benchmark.extra_info["oracle_us_per_node"] = oracle_s / nodes * 1e6
    benchmark.extra_info["tail_us_per_node"] = tail_s / nodes * 1e6
    speedup_floor(oracle_s, tail_s, 30.0, baseline="oracle", candidate="tail")


# ----------------------------------------------------------------------
# One frontier per frame vs one per subcarrier (the ISSUE-3 numbers)
# ----------------------------------------------------------------------

OFDM_SYMBOLS = 16


@needs_core
def test_frame_vs_per_subcarrier_speedup(benchmark, best_of,
                                         speedup_floor):
    """The ISSUE-3 acceptance numbers: one frontier over all 64
    subcarriers (``decode_frame``) vs one private frontier per
    subcarrier (its own QR and rotation, ``triangular_frame`` of that
    subcarrier, and ``decode_batch`` each) on
    16-QAM 4x4 x 64 subcarriers x 16 OFDM symbols — the same engine, fed
    a frame or fed in 64 pieces.

    Both are bit-identical (asserted below, counters included); the
    frame's win is pure scheduling — one QR call, one lane
    pool, one hand-off per frame instead of 64.  Both sides run the one
    schedule on the same executor: the lockstep step in the compiled
    core, and the core's drain once at most 32 searches remain — which
    a 16-row batch is from its first tick, so each per-subcarrier call
    is one admission and one drain, while the frame steps 1 024
    searches in lockstep before its drain.  Measured ~6x (24-25 vs
    3.9-4.0 ms); without a C compiler both sides run every search
    through the scalar decoder.  The assertion floor stays the
    conservative 2x so noisy CI runners cannot flake the suite;
    ``speedup`` in extra_info carries the real number.
    """
    channels, received = _fixed_frame(16, 4, 4, SUBCARRIERS, OFDM_SYMBOLS,
                                      snr_db=21.0)
    decoder = SphereDecoder(qam(16))

    def per_subcarrier():
        blocks = []
        for s in range(SUBCARRIERS):
            r, y_hat, _, _ = triangular_frame(channels[s:s + 1],
                                              received[:, s:s + 1])
            blocks.append(decoder.decode_batch(r[0], y_hat[0]))
        return blocks

    blocks = per_subcarrier()
    result = benchmark(decoder.decode_frame, channels, received)
    for s, block in enumerate(blocks):
        assert np.array_equal(result.symbol_indices[:, s:s + 1],
                              block.symbol_indices)
        assert np.array_equal(result.distances_sq[:, s:s + 1],
                              block.distances_sq)
    assert result.counters.ped_calcs == sum(
        block.counters.ped_calcs for block in blocks)
    assert result.counters.visited_nodes == sum(
        block.counters.visited_nodes for block in blocks)

    per_subcarrier_s = best_of(per_subcarrier)
    frame_s = best_of(lambda: decoder.decode_frame(channels, received))
    speedup_floor(per_subcarrier_s, frame_s, 2.0,
                  baseline="per_subcarrier", candidate="frame")


# ----------------------------------------------------------------------
# Compiled search core vs the scalar fallback (the ISSUE-9 / ISSUE-21 numbers)
# ----------------------------------------------------------------------


def test_core_vs_scalar_fallback_frame_speedup(benchmark, best_of,
                                               speedup_floor, core_hidden):
    """The lockstep schedule stepped in the compiled core (with the
    core's drain for the last stragglers — the default wherever it
    built) vs the scalar fallback, on a whole 16-QAM 4x4 x
    64-subcarrier x 16-symbol frame.

    Both paths are bit-identical (asserted below, counters included —
    the core replays the scalar loop's exact float programs, FMA
    contraction in the interference accumulation included).  The
    fallback side is taken with the core hidden, as on a box without a
    C compiler: every search runs through the scalar decoder.  The 2x
    floor is gated wherever the core loaded (any box with a C
    compiler); without one both sides are the fallback, so the floor is
    skipped and only the (then ~1x) numbers are recorded.
    """
    channels, received = _fixed_frame(16, 4, 4, SUBCARRIERS, OFDM_SYMBOLS,
                                      snr_db=21.0)
    decoder = SphereDecoder(qam(16))

    with core_hidden():
        reference = decoder.decode_frame(channels, received)
        scalar_s = best_of(lambda: decoder.decode_frame(channels, received),
                           repeats=1)
    result = benchmark(decoder.decode_frame, channels, received)
    assert np.array_equal(result.symbol_indices, reference.symbol_indices)
    assert np.array_equal(result.distances_sq, reference.distances_sq)
    assert result.counters == reference.counters

    compiled_s = best_of(lambda: decoder.decode_frame(channels, received))
    benchmark.extra_info["core_loaded"] = core() is not None
    if core() is not None:
        speedup_floor(scalar_s, compiled_s, 2.0,
                      baseline="scalar", candidate="compiled")
    else:
        benchmark.extra_info["scalar_s"] = scalar_s
        benchmark.extra_info["compiled_s"] = compiled_s
        benchmark.extra_info["speedup"] = scalar_s / compiled_s


# ----------------------------------------------------------------------
# A frame's preprocessing: the core's Householder program vs the oracle
# ----------------------------------------------------------------------


def test_core_vs_fallback_preprocess_speedup(benchmark, best_of,
                                             speedup_floor, core_hidden):
    """A frame's QR and rotation — ``triangular_frame``, what every
    ``FrameJob`` runs at submit — in one core call vs the compiler-less
    loop of the Python oracle over subcarriers, on the fixed 16-QAM 4x4
    x 64-subcarrier x 4-symbol frame.

    Both are the same Householder program, so their outputs are
    bit-identical (asserted below).  The 3x floor is gated wherever the
    core loaded; ``speedup`` in extra_info carries the real ratio
    (hundreds of x: the oracle runs in Python floats).
    """
    channels, received = _fixed_frame(16, 4, 4, SUBCARRIERS, 4, snr_db=21.0)
    with core_hidden():
        reference = triangular_frame(channels, received)
        oracle_s = best_of(lambda: triangular_frame(channels, received),
                           repeats=3)
    result = benchmark(triangular_frame, channels, received)
    for ours, theirs in zip(result, reference):
        assert np.array_equal(ours, theirs)

    core_s = best_of(lambda: triangular_frame(channels, received),
                     repeats=50)
    benchmark.extra_info["core_loaded"] = core() is not None
    if core() is not None:
        speedup_floor(oracle_s, core_s, 3.0,
                      baseline="oracle", candidate="core")
    else:
        benchmark.extra_info["oracle_s"] = oracle_s
        benchmark.extra_info["core_s"] = core_s
        benchmark.extra_info["speedup"] = oracle_s / core_s


# ----------------------------------------------------------------------
# Soft decode_frame vs the scalar list search (the ISSUE-4 numbers)
# ----------------------------------------------------------------------


@needs_core
def test_soft_frame_vs_scalar_speedup(benchmark, best_of,
                                      speedup_floor):
    """The ISSUE-4 acceptance numbers: the whole-frame *list* frontier vs
    the scalar list search per slot on 16-QAM 4x4 x 64 subcarriers x 16
    OFDM symbols (list size 16).

    Both paths are bit-identical (asserted below — LLRs, list sizes,
    hard decisions and counters); the frame frontier's win is the same
    scheduling story as the hard path, amplified by the soft search's
    larger trees (the list radius stays loose until ``list_size`` leaves
    are banked).  Measured on the reference machine: ~18x.  The
    assertion floor is a conservative 2x (raised from 1.5x in PR 15) so
    noisy CI runners cannot flake the suite; ``speedup`` in extra_info
    carries the real number.
    """
    channels, received = _fixed_frame(16, 4, 4, SUBCARRIERS, OFDM_SYMBOLS,
                                      snr_db=21.0)
    noise_variance = float(np.mean(
        [noise_variance_for_snr(channels[s], 21.0)
         for s in range(SUBCARRIERS)]))
    decoder = ListSphereDecoder(qam(16), list_size=16)
    q_stack, r_stack = triangularize_frame(channels)
    y_hat = rotate_frame(q_stack, received)

    def scalar_slots():
        """One scalar list search per slot, QR already hoisted."""
        return [[decoder.decode_soft_triangular(r_stack[s], y_hat[s, t],
                                                noise_variance)
                 for s in range(SUBCARRIERS)] for t in range(OFDM_SYMBOLS)]

    scalar = scalar_slots()
    result = benchmark(decoder.decode_frame, channels, received,
                       noise_variance)
    for field, attribute in [("llrs", "llrs"),
                             ("symbol_indices", "symbol_indices"),
                             ("list_sizes", "list_size_used")]:
        assert np.array_equal(
            getattr(result, field),
            np.array([[getattr(slot, attribute) for slot in row]
                      for row in scalar]))
    assert result.counters.visited_nodes == sum(
        slot.counters.visited_nodes for row in scalar for slot in row)
    assert result.counters.ped_calcs == sum(
        slot.counters.ped_calcs for row in scalar for slot in row)

    scalar_s = best_of(scalar_slots, repeats=3)
    frame_s = best_of(lambda: decoder.decode_frame(
        channels, received, noise_variance), repeats=3)
    speedup_floor(scalar_s, frame_s, 2.0,
                  baseline="scalar", candidate="frame")
