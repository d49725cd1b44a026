"""MIMO detectors: linear baselines, SIC, exhaustive ML, sphere adapter,
hybrid switching and soft demapping.

Two entry points
----------------
Every detector answers a vector or a frame:

``detect(channel, received, noise_variance)``
    One channel use → :class:`DetectionResult`.  Convenience path for
    tests and worked examples.

``detect_frame(channels, received, noise_variance)``
    The whole uplink frame — ``(S, na, nc)`` channels, ``(T, S, na)``
    observations — in one call →
    :class:`repro.frame.results.FrameDetectionResult`.  This is what
    the receive chain (:func:`repro.phy.receiver.detect_uplink`) uses:
    preprocessing is one stacked ``numpy.linalg`` sweep across all
    subcarriers, and per-slot work runs cross-subcarrier — the lockstep
    engine of :mod:`repro.runtime.engine` for tree searches, stacked
    filter banks for the linear detectors and the MMSE-SIC chain, one
    ``H s`` hypothesis table per subcarrier for exhaustive ML.
    Detectors that track the paper's complexity counters return them
    aggregated over the frame; the aggregate equals the sum of
    per-vector counters exactly.
"""

from .base import DetectionResult, Detector
from .hybrid import HybridDetector
from .linear import MmseDetector, ZeroForcingDetector, mmse_equalize, zf_equalize
from .llr import axis_bit_partitions, max_log_llrs
from .ml import ExhaustiveMLDetector
from .sic import MmseSicDetector
from .sphere_adapter import SphereDetector

__all__ = [
    "DetectionResult",
    "Detector",
    "ExhaustiveMLDetector",
    "HybridDetector",
    "MmseDetector",
    "MmseSicDetector",
    "SphereDetector",
    "ZeroForcingDetector",
    "axis_bit_partitions",
    "max_log_llrs",
    "mmse_equalize",
    "zf_equalize",
]
