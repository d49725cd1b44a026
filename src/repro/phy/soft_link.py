"""Soft-decision uplink receiver (the paper's section-7 receiver, built).

Combines the list sphere decoder (:mod:`repro.sphere.soft`) with the
soft-decision Viterbi pipeline: every (OFDM symbol, subcarrier) detection
produces per-bit LLRs for all streams, which are deinterleaved and decoded
per stream.  This is the non-iterative soft receiver the paper names as
the promising next step beyond hard-output Geosphere; the soft-vs-hard
ablation quantifies what it buys.

Like the hard receive chain, the soft front half is frame-first: the
whole frame goes to
:meth:`~repro.sphere.soft.ListSphereDecoder.decode_frame` — one stacked
QR sweep, one breadth-synchronised list frontier over all S×T searches,
each leaving it with its LLRs — bit-identical (LLRs, list membership,
counters) to the scalar list search per slot, which the engine sweep and
the soft link goldens enforce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel.noise import awgn
from ..sphere.counters import ComplexityCounters
from ..sphere.soft import ListSphereDecoder
from ..utils.rng import as_generator
from ..utils.validation import require
from .config import PhyConfig
from .link import _noise_variance, _normalise_channels
from .receiver import recover_uplink_soft
from .transmitter import build_uplink_frame, random_payloads

__all__ = ["SoftFrameOutcome", "simulate_frame_soft"]


@dataclass
class SoftFrameOutcome:
    """Result of one soft-decoded uplink frame."""

    stream_success: np.ndarray
    num_ofdm_symbols: int
    detections: int
    counters: ComplexityCounters


def simulate_frame_soft(channels, decoder: ListSphereDecoder,
                        config: PhyConfig, snr_db: float, rng=None,
                        payloads=None) -> SoftFrameOutcome:
    """Simulate one uplink frame through the soft receive chain.

    Mirrors :func:`repro.phy.link.simulate_frame` but every detection
    yields LLRs; per-stream reliability sequences then run through
    :func:`repro.phy.receiver.recover_stream_soft`.
    """
    require(config.code is not None,
            "the soft receiver requires a coded configuration")
    generator = as_generator(rng)
    num_subcarriers = config.ofdm.num_data_subcarriers
    matrices = _normalise_channels(channels, num_subcarriers)
    num_antennas, num_clients = matrices.shape[1:]
    require(decoder.constellation is config.constellation,
            "decoder and config must share the constellation")

    if payloads is None:
        payloads = random_payloads(num_clients, config, generator)
    frame = build_uplink_frame(payloads, config)
    tensor = frame.symbol_tensor                       # (T, S, nc)
    num_symbols = tensor.shape[0]

    noise_variance = _noise_variance(matrices, snr_db)
    received = np.empty((num_symbols, num_subcarriers, num_antennas),
                        dtype=np.complex128)
    for s in range(num_subcarriers):
        clean = tensor[:, s, :] @ matrices[s].T
        received[:, s, :] = clean + awgn(clean.shape, noise_variance,
                                         generator)

    detection = decoder.decode_frame(matrices, received, noise_variance)
    # llrs[t, s, c*Q:(c+1)*Q] = stream c's bit reliabilities at (t, s).
    totals = detection.counters
    detections = detection.detections

    decisions = recover_uplink_soft(detection.llrs,
                                    frame.streams[0].num_pad_bits, config)
    success = np.array([decision.crc_ok for decision in decisions])
    return SoftFrameOutcome(stream_success=success,
                            num_ofdm_symbols=num_symbols,
                            detections=detections,
                            counters=totals)
