"""Adapter exposing tree-search decoders through the Detector protocol.

Keeps :mod:`repro.sphere` focused on the tree search while link-level code
talks to every receiver through :class:`repro.detect.base.Detector`.  The
adapter wraps anything with the sphere-decoder calling convention —
:class:`~repro.sphere.decoder.SphereDecoder` and
:class:`~repro.sphere.kbest.KBestDecoder` both qualify — and routes block
detection through the decoder's ``decode_block`` batch entry point, so
the QR factorisation happens once per (channel, frame), the K-best path
runs fully vectorised, and the depth-first path runs the lockstep engine
(:mod:`repro.runtime.engine`).  Receivers upstream (``detect_uplink``,
``simulate_frame``) need no call-site changes to pick either up.
"""

from __future__ import annotations

import numpy as np

from ..frame.results import FrameDetectionResult
from ..sphere.counters import ComplexityCounters
from .base import BatchDetectionResult, DetectionResult

__all__ = ["SphereDetector"]


class SphereDetector:
    """Detector backed by a sphere or K-best decoder."""

    def __init__(self, decoder, name: str | None = None) -> None:
        self.decoder = decoder
        self.constellation = decoder.constellation
        if name is None:
            enumerator = getattr(decoder, "enumerator", None)
            if enumerator is not None:
                pruning = "+prune" if decoder.geometric_pruning else ""
                name = f"sphere[{enumerator}{pruning}]"
            elif hasattr(decoder, "k"):
                name = f"k-best[{decoder.k}]"
            else:
                name = "sphere"
        self.name = name
        #: Counters accumulated by the most recent block detection.
        self.last_block_counters = ComplexityCounters()
        self.last_block_detections = 0

    def detect(self, channel, received, noise_variance: float = 0.0) -> DetectionResult:
        result = self.decoder.decode(channel, received)
        return DetectionResult(symbols=result.symbols,
                               symbol_indices=result.symbol_indices,
                               counters=result.counters)

    def detect_batch(self, channel, received_block,
                     noise_variance: float = 0.0) -> BatchDetectionResult:
        """Detect a ``(T, na)`` block over one channel via ``decode_block``.

        The QR factorisation is shared across the block — exactly how the
        per-frame OFDM receiver amortises preprocessing — and the
        aggregated complexity counters (equal to the sum of per-vector
        counters) are returned on the result and mirrored into
        :attr:`last_block_counters`.
        """
        result = self.decoder.decode_block(channel, received_block)
        self.last_block_counters = result.counters
        self.last_block_detections = len(result)
        return BatchDetectionResult(symbols=result.symbols,
                                    symbol_indices=result.symbol_indices,
                                    counters=result.counters)

    def detect_frame(self, channels, received,
                     noise_variance: float = 0.0) -> FrameDetectionResult:
        """Detect a whole uplink frame — ``(S, na, nc)`` channels,
        ``(T, S, na)`` observations — in one decoder call.

        Decoders with a ``decode_frame`` entry point (the depth-first
        sphere decoder's lockstep engine, the cross-subcarrier K-best
        expansion) receive every (symbol, subcarrier) search at once;
        anything else falls back to one ``decode_block`` per subcarrier,
        so the adapter's frame surface is uniform across the decoder
        zoo.  Either way the aggregated counters land on the result
        (frame-level totals, no per-subcarrier merge for frame decoders)
        and are mirrored into :attr:`last_block_counters`.
        """
        decode_frame = getattr(self.decoder, "decode_frame", None)
        if decode_frame is not None:
            result = decode_frame(channels, received)
            counters = result.counters
            indices = result.symbol_indices
            symbols = result.symbols
        else:
            observations = np.asarray(received, dtype=np.complex128)
            num_symbols, num_subcarriers = observations.shape[:2]
            num_streams = np.asarray(channels).shape[2]
            indices = np.empty((num_symbols, num_subcarriers, num_streams),
                               dtype=np.int64)
            symbols = np.empty_like(indices, dtype=np.complex128)
            counters = ComplexityCounters()
            for s in range(num_subcarriers):
                block = self.decoder.decode_block(channels[s],
                                                  observations[:, s, :])
                indices[:, s, :] = block.symbol_indices
                symbols[:, s, :] = block.symbols
                counters.merge(block.counters)
        self.last_block_counters = counters
        self.last_block_detections = int(indices.shape[0] * indices.shape[1])
        return FrameDetectionResult(symbols=symbols, symbol_indices=indices,
                                    counters=counters)

    def detect_block(self, channel, received_block,
                     noise_variance: float = 0.0) -> np.ndarray:
        """Legacy block interface; returns the ``(T, nc)`` index array."""
        return self.detect_batch(channel, received_block,
                                 noise_variance).symbol_indices
