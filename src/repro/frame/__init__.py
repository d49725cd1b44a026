"""Frame-level detection plumbing: stacked preprocessing and results.

Geosphere's throughput argument needs sphere detection on *every*
subcarrier of *every* OFDM symbol, so the receive chain treats the whole
frame as one detection problem.  :mod:`~repro.frame.preprocess`
triangularises all subcarrier channels and rotates the frame into their
bases in one call — the Householder program of :mod:`repro.sphere.qr`,
written once in Python (the oracle) and once in the compiled core (the
executor) — and builds the linear detectors' stacked filter banks, and
:mod:`~repro.frame.results` carries the ``(T, S)``-shaped results and the
frame-aggregated complexity counters back to the receive chain.  The
S×T searches themselves run on the lockstep engine
(:mod:`repro.runtime.engine`) — ``decode_frame`` on a private frontier,
:class:`~repro.runtime.session.UplinkRuntime` on a resident one.
"""

from .preprocess import (
    apply_frame_filters,
    mmse_frame_filters,
    rotate_frame,
    triangular_frame,
    triangularize_frame,
    zf_frame_filters,
)
from .results import (
    FrameDecodeResult,
    FrameDetectionResult,
    SoftFrameResult,
    empty_frame_result,
    empty_soft_frame_result,
    hard_decision_frame,
)

__all__ = [
    "FrameDecodeResult",
    "FrameDetectionResult",
    "SoftFrameResult",
    "apply_frame_filters",
    "empty_frame_result",
    "empty_soft_frame_result",
    "hard_decision_frame",
    "mmse_frame_filters",
    "rotate_frame",
    "triangular_frame",
    "triangularize_frame",
    "zf_frame_filters",
]
