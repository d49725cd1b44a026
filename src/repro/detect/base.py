"""Common detector interface.

Every MIMO detector — linear, SIC, exhaustive ML, sphere or hybrid —
answers the same two questions, so link-level simulations
(:mod:`repro.phy.link`) can swap detectors the way the paper's
evaluation swaps zero-forcing for Geosphere.

The interface is *frame-first*: real OFDM receivers never detect one
vector at a time — each subcarrier's channel is preprocessed once per
frame and every symbol vector of the frame is detected against it.
:meth:`Detector.detect_frame` is therefore the primary entry point, and
the per-vector :meth:`Detector.detect` is the convenience path for tests
and worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..frame.results import FrameDetectionResult
from ..sphere.counters import ComplexityCounters
from ..utils.validation import as_complex_matrix, as_complex_vector

__all__ = ["DetectionResult", "Detector", "detect_one_slot"]


@dataclass
class DetectionResult:
    """Hard decisions for one channel use.

    Attributes
    ----------
    symbols:
        Detected complex constellation points, one per transmit stream.
    symbol_indices:
        Flattened constellation indices of those points.
    counters:
        Complexity tallies when the detector tracks them (sphere decoders),
        else ``None``.
    """

    symbols: np.ndarray
    symbol_indices: np.ndarray
    counters: ComplexityCounters | None = None


@runtime_checkable
class Detector(Protocol):
    """Protocol implemented by all detectors in :mod:`repro.detect`."""

    name: str

    def detect(self, channel: np.ndarray, received: np.ndarray,
               noise_variance: float) -> DetectionResult:
        """Detect the transmitted symbol vector.

        ``noise_variance`` is the total complex noise power per receive
        antenna; detectors that do not need it (ZF, ML) ignore it.
        """

    def detect_frame(self, channels: np.ndarray, received: np.ndarray,
                     noise_variance: float) -> FrameDetectionResult:
        """Detect a whole frame: ``(S, na, nc)`` channels, ``(T, S, na)``
        observations.

        Channel-only preprocessing (pseudo-inverse, MMSE filters, QR) is
        performed once per subcarrier for every symbol of the frame, as
        one stacked sweep; the per-slot work runs across subcarriers.
        This is the entry point the OFDM receive chain uses.
        """


def detect_one_slot(detector, channel, received,
                    noise_variance: float) -> DetectionResult:
    """``detector.detect`` as a one-slot ``detector.detect_frame``.

    For the detectors whose frame path is their only implementation
    (MMSE-SIC, exhaustive ML): one channel use is a frame of one symbol
    on one subcarrier, so the vector and frame answers cannot drift.
    """
    matrix = as_complex_matrix(channel, "channel")
    y = as_complex_vector(received, "received")
    frame = detector.detect_frame(matrix[None], y[None, None], noise_variance)
    return DetectionResult(symbols=frame.symbols[0, 0],
                           symbol_indices=frame.symbol_indices[0, 0],
                           counters=frame.counters)
