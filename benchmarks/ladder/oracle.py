"""Expected results: what every pool frame must decode to.

The oracle chain is the repository's own standing contract: standalone
``decoder.decode_frame`` (+ ``recover_uplink[_soft]`` for coded frames)
gives each pool frame's expected result, and the *scalar* decoder — the
single oracle every other path is pinned to — checks a seeded sample of
slots of every frame (decisions and distances / LLRs) plus one whole
frame's counter totals.  Every path the benchmark drives is bit-identical
to this by contract, so comparisons are exact, never toleranced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.phy import recover_uplink, recover_uplink_soft
from repro.sphere import ComplexityCounters

SPOT_CHECK_SLOTS = 8


@dataclass
class Expected:
    result: object                  # FrameDecodeResult | SoftFrameResult
    decisions: list | None          # per-stream StreamDecision when coded
    #: Bits this frame contributes to goodput when decoded correctly:
    #: CRC-passing payload bits equal to the sent payload (coded), or
    #: all detected bits (uncoded).
    good_bits: int


def is_soft(request) -> bool:
    return request.noise_variance is not None


def decode_standalone(request):
    """``decode_frame`` exactly as a caller without a runtime would."""
    if is_soft(request):
        return request.decoder.decode_frame(
            request.channels, request.received, request.noise_variance)
    return request.decoder.decode_frame(request.channels, request.received)


def recover_standalone(request, result) -> list:
    if is_soft(request):
        return recover_uplink_soft(result.llrs, request.num_pad_bits,
                                   request.config)
    return recover_uplink(result.symbol_indices, request.num_pad_bits,
                          request.config)


def expected_for(request) -> Expected:
    result = decode_standalone(request)
    if request.config is None:
        bits = request.decoder.constellation.bits_per_symbol
        return Expected(result, None, int(result.symbol_indices.size * bits))
    decisions = recover_standalone(request, result)
    good_bits = sum(
        int(decision.payload_bits.size)
        for decision, sent in zip(decisions, request.metadata["payloads"])
        if decision.crc_ok and np.array_equal(decision.payload_bits, sent))
    return Expected(result, decisions, good_bits)


def scalar_decode(request, symbol: int, subcarrier: int):
    """One slot through the scalar decoder — the repository's oracle."""
    channel = request.channels[subcarrier]
    received = request.received[symbol, subcarrier]
    if is_soft(request):
        return request.decoder.decode_soft(channel, received,
                                           request.noise_variance)
    return request.decoder.decode(channel, received)


def _slot_matches(request, result, scalar, symbol: int, subcarrier: int
                  ) -> bool:
    slot = (symbol, subcarrier)
    if not np.array_equal(scalar.symbol_indices, result.symbol_indices[slot]):
        return False
    if is_soft(request):
        return (np.array_equal(scalar.llrs, result.llrs[slot])
                and scalar.list_size_used == result.list_sizes[slot])
    return scalar.distance_sq == result.distances_sq[slot]


def scalar_spot_check(request, expected: Expected, rng,
                      whole_frame: bool = False) -> None:
    """Pin ``expected`` to the scalar decoder on a seeded sample of
    slots; with ``whole_frame`` sweep every slot and also require the
    frame's counter totals to equal the sum of the scalar counters."""
    num_symbols, num_subcarriers = expected.result.symbol_indices.shape[:2]
    if whole_frame:
        slots = [(t, s) for t in range(num_symbols)
                 for s in range(num_subcarriers)]
    else:
        flat = rng.choice(num_symbols * num_subcarriers,
                          size=SPOT_CHECK_SLOTS, replace=False)
        slots = [divmod(int(index), num_subcarriers) for index in flat]
    totals = ComplexityCounters()
    for symbol, subcarrier in slots:
        scalar = scalar_decode(request, symbol, subcarrier)
        if not _slot_matches(request, expected.result, scalar, symbol,
                             subcarrier):
            raise AssertionError(
                f"decode_frame disagrees with the scalar oracle at symbol "
                f"{symbol}, subcarrier {subcarrier}")
        totals.merge(scalar.counters)
    if whole_frame and totals != expected.result.counters:
        raise AssertionError(
            f"frame counters {expected.result.counters} are not the sum of "
            f"the scalar counters {totals}")


def build_oracle(pool: list, seed: int) -> list[Expected]:
    rng = np.random.default_rng([seed, 5])
    oracle = []
    for index, request in enumerate(pool):
        expected = expected_for(request)
        scalar_spot_check(request, expected, rng, whole_frame=index == 0)
        oracle.append(expected)
    return oracle


def _arrays(result) -> tuple:
    if hasattr(result, "llrs"):
        return (result.llrs, result.symbol_indices, result.list_sizes)
    return (result.symbol_indices, result.distances_sq, result.found)


def matches(expected: Expected, result) -> bool:
    """Bit-exact: decisions, distances / LLRs, counters, and (coded)
    every stream's payload bits and CRC verdict."""
    want = expected.result
    if type(result) is not type(want) or result.counters != want.counters:
        return False
    if not all(np.array_equal(got, ref)
               for got, ref in zip(_arrays(result), _arrays(want))):
        return False
    if expected.decisions is None:
        return result.decisions is None
    return (result.decisions is not None
            and len(result.decisions) == len(expected.decisions)
            and all(got.crc_ok == ref.crc_ok
                    and np.array_equal(got.payload_bits, ref.payload_bits)
                    for got, ref in zip(result.decisions,
                                        expected.decisions)))


def result_digest(result) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    for array in _arrays(result):
        digest.update(np.ascontiguousarray(array).tobytes())
    for decision in result.decisions or ():
        digest.update(np.ascontiguousarray(decision.payload_bits).tobytes())
        digest.update(bytes([decision.crc_ok]))
    return digest.digest()


def results_digest(per_frame: dict[int, bytes]) -> str:
    """One digest over the first un-degraded result seen for each pool
    frame, in pool order — equal across two runs of one seed exactly
    when they decoded the same thing."""
    digest = hashlib.blake2b(digest_size=16)
    for index in sorted(per_frame):
        digest.update(index.to_bytes(4, "big"))
        digest.update(per_frame[index])
    return digest.hexdigest()
