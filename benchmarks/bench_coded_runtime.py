"""Coded-chain benchmark: the frame-batched Viterbi sweep and goodput.

First the trellis itself: decoding a frame's worth of equal-length
coded blocks in ONE call of the compiled trellis
(:func:`repro.coding.viterbi.viterbi_decode_soft_batch`) against the
scalar block-by-block baseline, bit-identical decisions enforced on the
spot.  Then the chain end to end: a stream of coded frames through
the resident :class:`~repro.runtime.session.UplinkRuntime` — detection,
deinterleave, frame-batched Viterbi, CRC — reporting the delivered
quantity a deployed-network evaluation reports: CRC-passing goodput.
"""

import numpy as np

from repro.coding import (
    WIFI_CODE,
    viterbi_decode_soft,
    viterbi_decode_soft_batch,
)
from repro.phy import recover_uplink, recover_uplink_soft
from repro.runtime import CellWorkload, UplinkRuntime, synthetic_cell_trace
from repro.sphere.tick_kernel import core

#: Frame-sized trellis batch: one coded block per stream per in-flight
#: frame — 8 frames x 4 streams at the example cell's block length.
BATCH_BLOCKS = 32
INFO_BITS = 158            # 120 payload + 32 CRC + 6 tail
NUM_FRAMES = 16


def _reliability_batch(seed=5):
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 2, (BATCH_BLOCKS, INFO_BITS)).astype(np.uint8)
    coded = np.stack([WIFI_CODE.encode(m) for m in messages])
    return (1.0 - 2.0 * coded.astype(np.float64)
            + rng.normal(0.0, 0.5, coded.shape))


def test_batched_viterbi_vs_scalar(benchmark, best_of, speedup_floor):
    """The CI floor: the batched decoder — one pattern-cost product, then
    the compiled trellis (add-compare-select and traceback in C) — over a
    frame-sized stack of coded blocks must beat the scalar block-by-block
    numpy loop by >= 18x.

    Measured on a 2-vCPU x86-64 box (gcc 12, numpy 2.4): ~36x at 32
    blocks of K = 7.  The floor is half of that, so noisy CI runners
    cannot flake it; ``speedup`` in extra_info carries the real number.
    It asserts only where the core loaded: without a compiler both sides
    run the scalar trellis and the numbers are recorded, not judged.
    """
    reliabilities = _reliability_batch()

    def batched():
        return viterbi_decode_soft_batch(reliabilities, WIFI_CODE)

    def scalar():
        return np.stack([viterbi_decode_soft(row, WIFI_CODE)
                         for row in reliabilities])

    assert np.array_equal(batched(), scalar()), "must be bit-identical"
    benchmark(batched)
    scalar_s = best_of(scalar, repeats=3)
    batched_s = best_of(batched)
    benchmark.extra_info["blocks"] = BATCH_BLOCKS
    benchmark.extra_info["coded_bits_per_block"] = (
        WIFI_CODE.coded_length(INFO_BITS))
    benchmark.extra_info["core_loaded"] = core() is not None
    if core() is not None:
        speedup_floor(scalar_s, batched_s, 18.0,
                      baseline="scalar", candidate="batched")
    else:
        benchmark.extra_info["scalar_s"] = scalar_s
        benchmark.extra_info["batched_s"] = batched_s
        benchmark.extra_info["speedup"] = scalar_s / batched_s


def test_coded_runtime_goodput(benchmark, run_once):
    """End to end: coded cell traffic through the runtime — decisions
    bit-identical to the standalone recover chain, goodput recorded.

    No speedup floor here (the trellis is a small share of a sphere-
    detected frame); the gate is correctness plus the goodput telemetry
    landing in the benchmark JSON.
    """
    trace = synthetic_cell_trace(num_links=4, num_subcarriers=16,
                                 num_ap_antennas=4, num_clients=4, rng=6)
    workload = CellWorkload(trace, num_users=8, group_size=4,
                            soft_fraction=0.25, snr_span_db=(16.0, 27.0),
                            list_size=8, coded=True, payload_bits=120,
                            rng=7)
    frames = workload.frames(NUM_FRAMES)

    def run():
        runtime = UplinkRuntime(max_in_flight=8)
        handles = [runtime.submit(frame) for frame in frames]
        runtime.drain()
        return runtime, handles

    runtime, handles = run_once(run)
    for frame, handle in zip(frames, handles):
        result = handle.result()
        if frame.noise_variance is None:
            expected = recover_uplink(result.symbol_indices,
                                      frame.num_pad_bits, frame.config)
        else:
            expected = recover_uplink_soft(result.llrs, frame.num_pad_bits,
                                           frame.config)
        for got, want in zip(result.decisions, expected):
            assert got.crc_ok == want.crc_ok
            assert np.array_equal(got.payload_bits, want.payload_bits)

    stats = runtime.stats
    assert stats.streams_decoded == sum(
        frame.channels.shape[2] for frame in frames)
    benchmark.extra_info["frames"] = NUM_FRAMES
    benchmark.extra_info["frames_per_second"] = stats.frames_per_second()
    benchmark.extra_info["goodput_bits_per_second"] = stats.goodput_bps()
    benchmark.extra_info["crc_failure_rate"] = stats.crc_failure_rate()
    benchmark.extra_info["streams_decoded"] = stats.streams_decoded
