"""MIMO detectors: linear baselines, SIC, exhaustive ML, sphere adapter,
hybrid switching and soft demapping.

Batch detection API
-------------------
Every detector implements two entry points, and most a third:

``detect(channel, received, noise_variance)``
    One channel use → :class:`DetectionResult`.  Convenience path for
    tests and worked examples.

``detect_batch(channel, received_block, noise_variance)``
    A ``(T, na)`` block of channel uses over one channel →
    :class:`BatchDetectionResult`.  Channel-only preprocessing
    (pseudo-inverse, MMSE filter bank, QR factorisation) is paid once
    per block and the per-vector work is vectorised wherever the
    algorithm allows — fully for the linear, MMSE-SIC and K-best
    detectors, the breadth-synchronised frontier for the depth-first
    sphere decoder.  Detectors that track the paper's complexity
    counters return them aggregated over the block; the aggregate
    equals the sum of per-vector counters exactly.

``detect_frame(channels, received, noise_variance)``
    The whole uplink frame — ``(S, na, nc)`` channels, ``(T, S, na)``
    observations — in one call →
    :class:`repro.frame.results.FrameDetectionResult`.  This is what
    the receive chain (:func:`repro.phy.receiver.detect_uplink`) uses
    by default: preprocessing is one stacked ``numpy.linalg`` sweep
    across all subcarriers, and per-slot work runs cross-subcarrier —
    the lockstep engine of :mod:`repro.runtime.engine` for tree searches,
    stacked filter banks for the linear detectors.  Results and
    counters are bit-identical to per-subcarrier ``detect_batch``
    calls; detectors without this entry point (exhaustive ML, hybrid)
    are handled by the receive chain's per-subcarrier fallback.

The older ``detect_block`` methods (returning the bare index array)
remain as thin wrappers for backwards compatibility.
"""

from .base import BatchDetectionResult, DetectionResult, Detector
from .hybrid import HybridDetector
from .linear import MmseDetector, ZeroForcingDetector, mmse_equalize, zf_equalize
from .llr import axis_bit_partitions, max_log_llrs
from .ml import ExhaustiveMLDetector
from .sic import MmseSicDetector
from .sphere_adapter import SphereDetector

__all__ = [
    "BatchDetectionResult",
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
