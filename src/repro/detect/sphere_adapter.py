"""Adapter exposing tree-search decoders through the Detector protocol.

Keeps :mod:`repro.sphere` focused on the tree search while link-level code
talks to every receiver through :class:`repro.detect.base.Detector`.  The
adapter wraps anything with the sphere-decoder calling convention and a
``decode_frame`` entry point —
:class:`~repro.sphere.decoder.SphereDecoder` and
:class:`~repro.sphere.kbest.KBestDecoder` both qualify — and hands it the
whole frame: the QR factorisation is one stacked sweep over every
subcarrier, the K-best path runs fully vectorised, and the depth-first
path runs the lockstep engine (:mod:`repro.runtime.engine`).
"""

from __future__ import annotations

from ..frame.results import FrameDetectionResult
from ..utils.validation import require
from .base import DetectionResult

__all__ = ["SphereDetector"]


class SphereDetector:
    """Detector backed by a sphere or K-best decoder."""

    def __init__(self, decoder, name: str | None = None) -> None:
        require(callable(getattr(decoder, "decode_frame", None)),
                f"{type(decoder).__name__} has no decode_frame entry point; "
                "SphereDetector needs a frame decoder")
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

    def detect(self, channel, received, noise_variance: float = 0.0) -> DetectionResult:
        result = self.decoder.decode(channel, received)
        return DetectionResult(symbols=result.symbols,
                               symbol_indices=result.symbol_indices,
                               counters=result.counters)

    def detect_frame(self, channels, received,
                     noise_variance: float = 0.0) -> FrameDetectionResult:
        """Detect a whole uplink frame — ``(S, na, nc)`` channels,
        ``(T, S, na)`` observations — in one ``decode_frame`` call, every
        (symbol, subcarrier) search at once, with frame-level counter
        totals on the result."""
        result = self.decoder.decode_frame(channels, received)
        return FrameDetectionResult(symbols=result.symbols,
                                    symbol_indices=result.symbol_indices,
                                    counters=result.counters)
