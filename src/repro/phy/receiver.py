"""Uplink receive chain: frame-level MIMO detection, then undo the
transmit chain.

The front half (:func:`detect_uplink`) is frame-first: the *whole*
``(S, na, nc)`` channel tensor and ``(T, S, na)`` observation tensor go
to the detector's ``detect_frame`` in one call — for sphere decoders
that is the lockstep engine (:mod:`repro.runtime.engine`), which
preprocesses every subcarrier in one stacked QR sweep and advances all
S×T searches through a single breadth-synchronised frontier, returning
frame-level counter totals.  The back half turns the resulting hard
symbol indices per (OFDM symbol, subcarrier, stream) into per-stream
payloads and CRC verdicts.  Frame success is judged exactly the way
real link layers judge it — by the frame check sequence — never by
comparing against the transmitted bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..coding.crc import CRC_BITS, check_crc
from ..coding.interleaver import deinterleave
from ..coding.scrambler import descramble
from ..coding.viterbi import viterbi_decode, viterbi_decode_soft
from ..frame.preprocess import check_frame_arrays
from ..frame.results import FrameDetectionResult
from ..utils.validation import require
from .config import PhyConfig

__all__ = ["StreamDecision", "detect_uplink", "recover_stream",
           "recover_stream_soft", "recover_uplink", "recover_uplink_soft",
           "finish_stream", "stream_coded_bits", "stream_coded_reliabilities"]


def detect_uplink(channels, received, detector,
                  noise_variance: float) -> FrameDetectionResult:
    """Detect a whole uplink frame through ``detector.detect_frame``.

    ``channels`` is ``(S, na, nc)`` — one matrix per data subcarrier;
    ``received`` is ``(T, S, na)`` — the frequency-domain observations for
    ``T`` OFDM symbols.  The result's ``symbol_indices`` is the
    ``(T, S, nc)`` tensor :func:`recover_uplink` consumes; its counters
    are summed over every (symbol, subcarrier) detection when the
    detector tracks them, else ``None``.
    """
    matrices, observations = check_frame_arrays(channels, received)
    return detector.detect_frame(matrices, observations, noise_variance)


@dataclass
class StreamDecision:
    """Decoded payload and CRC verdict for one stream."""

    payload_bits: np.ndarray
    crc_ok: bool


def _strip_padding(deinterleaved: np.ndarray,
                   num_pad_bits: int) -> np.ndarray:
    """Drop the tail padding the transmitter added, with bounds checked.

    ``deinterleaved[:-num_pad_bits]`` with ``num_pad_bits >=
    deinterleaved.size`` silently returns an empty (or, negative,
    re-sliced) array that only fails later with a confusing Viterbi
    length error — so the bound is enforced here, where the mistake is
    made.
    """
    require(0 <= num_pad_bits < deinterleaved.size,
            f"num_pad_bits must be in [0, {deinterleaved.size}) — the "
            f"deinterleaved block holds {deinterleaved.size} bits, got "
            f"{num_pad_bits} pad bits")
    if num_pad_bits:
        return deinterleaved[:-num_pad_bits]
    return deinterleaved


def stream_coded_bits(symbol_indices, num_pad_bits: int,
                      config: PhyConfig) -> np.ndarray:
    """Undo the bit-level transmit chain front half for one stream:
    detected indices -> Gray bits -> deinterleave -> strip padding.

    The result is the (possibly corrupted) coded block the trellis
    consumes — shared by :func:`recover_stream` and the runtime's
    frame-batched decode stage so both feed the Viterbi sweep identical
    inputs.
    """
    indices = np.asarray(symbol_indices).reshape(-1)
    bits = config.constellation.indices_to_bits(indices)
    n_cbps = config.coded_bits_per_ofdm_symbol
    require(bits.size % n_cbps == 0,
            f"detected bit count {bits.size} is not a whole number of OFDM "
            "symbols")
    deinterleaved = deinterleave(bits, n_cbps, config.bits_per_symbol)
    return _strip_padding(deinterleaved, num_pad_bits)


def stream_coded_reliabilities(reliabilities, num_pad_bits: int,
                               config: PhyConfig) -> np.ndarray:
    """Soft twin of :func:`stream_coded_bits`: per-coded-bit LLRs ->
    deinterleave -> strip padding, ready for the soft trellis."""
    values = np.asarray(reliabilities, dtype=np.float64).reshape(-1)
    n_cbps = config.coded_bits_per_ofdm_symbol
    require(values.size % n_cbps == 0,
            f"reliability count {values.size} is not a whole number of OFDM "
            "symbols")
    deinterleaved = deinterleave(values, n_cbps, config.bits_per_symbol)
    return _strip_padding(deinterleaved, num_pad_bits)


def finish_stream(framed_bits: np.ndarray) -> StreamDecision:
    """Back half of stream recovery: descramble the decoded frame and
    judge it by its CRC — shared by the scalar recover paths and the
    runtime decode stage."""
    descrambled = descramble(framed_bits)
    require(descrambled.size >= CRC_BITS + 1, "frame too short for a CRC")
    payload = descrambled[:-CRC_BITS]
    return StreamDecision(payload_bits=payload, crc_ok=check_crc(descrambled))


def recover_stream(symbol_indices, num_pad_bits: int,
                   config: PhyConfig) -> StreamDecision:
    """Decode one stream's detected symbol indices back to a payload."""
    deinterleaved = stream_coded_bits(symbol_indices, num_pad_bits, config)
    if config.code is not None:
        framed = viterbi_decode(deinterleaved, config.code)
    else:
        framed = deinterleaved
    return finish_stream(framed)


def recover_stream_soft(reliabilities, num_pad_bits: int,
                        config: PhyConfig) -> StreamDecision:
    """Decode one stream from per-coded-bit reliabilities (soft decisions).

    ``reliabilities`` follow the convention of
    :mod:`repro.coding.viterbi`: positive values favour bit 0.  This is
    the receive path for soft demapping (see :mod:`repro.detect.llr`),
    the infrastructure behind the paper's future-work direction of
    soft-output detection.  Requires a coded configuration.
    """
    require(config.code is not None,
            "soft decoding requires a convolutional code in the config")
    deinterleaved = stream_coded_reliabilities(reliabilities, num_pad_bits,
                                               config)
    framed = viterbi_decode_soft(deinterleaved, config.code)
    return finish_stream(framed)


def recover_uplink(detected_indices, num_pad_bits: int,
                   config: PhyConfig) -> list[StreamDecision]:
    """Decode every stream of an uplink frame.

    ``detected_indices`` has shape ``(num_ofdm_symbols, num_subcarriers,
    num_clients)`` matching
    :attr:`repro.phy.transmitter.UplinkFrame.symbol_tensor`.
    """
    tensor = np.asarray(detected_indices)
    require(tensor.ndim == 3,
            "detected indices must be (symbols, subcarriers, clients)")
    return [recover_stream(tensor[:, :, client], num_pad_bits, config)
            for client in range(tensor.shape[2])]


def recover_uplink_soft(llrs, num_pad_bits: int,
                        config: PhyConfig) -> list[StreamDecision]:
    """Decode every stream of an uplink frame from per-bit LLRs.

    The soft twin of :func:`recover_uplink`: ``llrs`` has shape
    ``(num_ofdm_symbols, num_subcarriers, num_clients * bits_per_symbol)``
    matching :attr:`repro.frame.results.SoftFrameResult.llrs` — stream
    ``c``'s reliabilities occupy the ``[c*Q, (c+1)*Q)`` slice of the last
    axis at every (symbol, subcarrier) slot.
    """
    tensor = np.asarray(llrs, dtype=np.float64)
    require(tensor.ndim == 3,
            "LLRs must be (symbols, subcarriers, clients * bits_per_symbol)")
    bits_per_symbol = config.bits_per_symbol
    require(tensor.shape[2] % bits_per_symbol == 0,
            f"LLR depth {tensor.shape[2]} is not a multiple of "
            f"bits_per_symbol {bits_per_symbol}")
    num_clients = tensor.shape[2] // bits_per_symbol
    return [recover_stream_soft(
        tensor[:, :, client * bits_per_symbol:(client + 1) * bits_per_symbol],
        num_pad_bits, config) for client in range(num_clients)]
