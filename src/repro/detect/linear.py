"""Linear detectors: zero-forcing and MMSE (paper sections 1 and 6).

Zero-forcing is the baseline the whole paper argues against: it decouples
streams by (pseudo-)inverting ``H``, which on a poorly-conditioned channel
amplifies the noise term ``H^{-1} w`` and costs throughput.  MMSE balances
interference suppression against noise amplification but "cannot provide
substantial throughput gains compared to zero-forcing in the medium and
high SNR regime".
"""

from __future__ import annotations

import numpy as np

from ..constellation.qam import QamConstellation
from ..frame.preprocess import (
    apply_frame_filters,
    mmse_frame_filters,
    zf_frame_filters,
)
from ..frame.results import FrameDetectionResult, hard_decision_frame
from ..utils.validation import as_complex_matrix, as_complex_vector, require
from .base import DetectionResult

__all__ = ["ZeroForcingDetector", "MmseDetector", "zf_equalize", "mmse_equalize"]


def _check_system(channel: np.ndarray, received: np.ndarray) -> None:
    require(channel.shape[0] >= channel.shape[1],
            f"need num_rx >= num_tx, got {channel.shape[0]}x{channel.shape[1]}")
    require(received.shape[0] == channel.shape[0],
            f"received length {received.shape[0]} does not match channel rows "
            f"{channel.shape[0]}")


def zf_equalize(channel, received) -> np.ndarray:
    """Soft zero-forcing estimates ``H^+ y`` (the paper's ``H^{-1} y``)."""
    matrix = as_complex_matrix(channel, "channel")
    y = as_complex_vector(received, "received")
    _check_system(matrix, y)
    estimates, *_ = np.linalg.lstsq(matrix, y, rcond=None)
    return estimates


def mmse_equalize(channel, received, noise_variance: float) -> np.ndarray:
    """Soft MMSE estimates ``(H*H + N0 I)^{-1} H* y`` (unit symbol energy)."""
    matrix = as_complex_matrix(channel, "channel")
    y = as_complex_vector(received, "received")
    _check_system(matrix, y)
    require(noise_variance >= 0.0, "noise variance must be non-negative")
    num_tx = matrix.shape[1]
    gram = matrix.conj().T @ matrix + noise_variance * np.eye(num_tx)
    return np.linalg.solve(gram, matrix.conj().T @ y)


class ZeroForcingDetector:
    """Hard-decision zero-forcing receiver."""

    name = "zero-forcing"

    def __init__(self, constellation: QamConstellation) -> None:
        self.constellation = constellation

    def detect(self, channel, received, noise_variance: float = 0.0) -> DetectionResult:
        estimates = zf_equalize(channel, received)
        indices = self.constellation.slice_indices(estimates)
        return DetectionResult(symbols=self.constellation.points[indices],
                               symbol_indices=np.asarray(indices))

    def detect_frame(self, channels, received,
                     noise_variance: float = 0.0) -> FrameDetectionResult:
        """Frame entry point: ``(S, na, nc)`` channels, ``(T, S, na)``
        observations — one stacked pseudo-inverse sweep
        (:func:`repro.frame.preprocess.zf_frame_filters`), one stacked
        matmul, ``T*S`` sliced decisions."""
        estimates = apply_frame_filters(zf_frame_filters(channels), received)
        return hard_decision_frame(self.constellation,
                                   self.constellation.slice_indices(estimates))


class MmseDetector:
    """Hard-decision MMSE receiver."""

    name = "mmse"

    def __init__(self, constellation: QamConstellation) -> None:
        self.constellation = constellation

    def detect(self, channel, received, noise_variance: float) -> DetectionResult:
        estimates = mmse_equalize(channel, received, noise_variance)
        indices = self.constellation.slice_indices(estimates)
        return DetectionResult(symbols=self.constellation.points[indices],
                               symbol_indices=np.asarray(indices))

    def detect_frame(self, channels, received,
                     noise_variance: float) -> FrameDetectionResult:
        """Frame entry point: the whole filter bank from one stacked
        solve (:func:`repro.frame.preprocess.mmse_frame_filters`), then
        every (symbol, subcarrier) estimate in one stacked matmul."""
        filters = mmse_frame_filters(channels, noise_variance)
        estimates = apply_frame_filters(filters, received)
        return hard_decision_frame(self.constellation,
                                   self.constellation.slice_indices(estimates))
