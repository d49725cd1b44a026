"""Condition-number-switching hybrid detector (Maurer et al., section 6.1).

The related-work proposal Geosphere argues against: run cheap zero-forcing
when ``kappa(H)`` is below a threshold and fall back to the sphere decoder
otherwise.  The paper's counter-argument — "Geosphere actually adjusts its
computational complexity to the current SNR ... obviating the need for a
hybrid system" — is quantified by the hybrid ablation benchmark using this
implementation.
"""

from __future__ import annotations

import numpy as np

from ..channel.metrics import condition_number_sq_db
from ..constellation.qam import QamConstellation
from ..frame.results import FrameDetectionResult
from ..sphere.counters import ComplexityCounters
from ..sphere.decoder import geosphere_decoder
from ..utils.validation import require
from .base import DetectionResult
from .linear import ZeroForcingDetector
from .sphere_adapter import SphereDetector

__all__ = ["HybridDetector"]


class HybridDetector:
    """ZF below a conditioning threshold, Geosphere above it."""

    def __init__(self, constellation: QamConstellation,
                 threshold_db: float = 10.0) -> None:
        require(threshold_db >= 0.0, "threshold must be non-negative")
        self.constellation = constellation
        self.threshold_db = threshold_db
        self._zf = ZeroForcingDetector(constellation)
        self._sphere = SphereDetector(geosphere_decoder(constellation))
        self.name = f"hybrid[{threshold_db:.0f}dB]"
        self.sphere_fraction = 0.0
        self._sphere_uses = 0
        self._total_uses = 0

    def _use_sphere(self, channel) -> bool:
        return condition_number_sq_db(channel) > self.threshold_db

    def detect(self, channel, received, noise_variance: float = 0.0) -> DetectionResult:
        self._total_uses += 1
        if self._use_sphere(channel):
            self._sphere_uses += 1
            return self._sphere.detect(channel, received, noise_variance)
        return self._zf.detect(channel, received, noise_variance)

    def detect_frame(self, channels, received,
                     noise_variance: float = 0.0) -> FrameDetectionResult:
        """Frame entry point: the switch is made per subcarrier.

        The well-conditioned subcarriers go to one zero-forcing
        ``detect_frame``, the rest to one sphere ``detect_frame``; the
        counters are the sphere subset's (empty when zero-forcing took
        every subcarrier).  :attr:`sphere_fraction` counts subcarrier
        channels.
        """
        matrices = np.asarray(channels, dtype=np.complex128)
        observations = np.asarray(received, dtype=np.complex128)
        require(matrices.ndim == 3, "channels must be (S, na, nc)")
        require(observations.ndim == 3
                and observations.shape[1:] == matrices.shape[:2],
                "received must be (T, S, na) matching the channel stack")
        sphere = np.array([self._use_sphere(matrix) for matrix in matrices],
                          dtype=bool)
        self._total_uses += sphere.size
        self._sphere_uses += int(sphere.sum())
        if self._total_uses:
            self.sphere_fraction = self._sphere_uses / self._total_uses
        indices = np.empty(observations.shape[:2] + matrices.shape[2:],
                           dtype=np.int64)
        counters = ComplexityCounters()
        if not sphere.all():
            linear = ~sphere
            indices[:, linear] = self._zf.detect_frame(
                matrices[linear], observations[:, linear],
                noise_variance).symbol_indices
        if sphere.any():
            result = self._sphere.detect_frame(
                matrices[sphere], observations[:, sphere], noise_variance)
            indices[:, sphere] = result.symbol_indices
            counters = result.counters
        return FrameDetectionResult(symbols=self.constellation.points[indices],
                                    symbol_indices=indices, counters=counters)
