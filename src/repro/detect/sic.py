"""Ordered MMSE successive interference cancellation (paper section 5.2.1).

"MMSE-SIC receiver processing ... orders users by descending SNR, then
performs MMSE detection and interference cancellation successively for
each user, an approach known to be capable of reaching multi-user
capacity" — but, as Fig. 13 shows, error propagation keeps it short of
Geosphere in practice, and its sequential structure adds decoding latency.
Both effects emerge naturally from this symbol-level implementation.
"""

from __future__ import annotations

import numpy as np

from ..constellation.qam import QamConstellation
from ..frame.results import FrameDetectionResult, hard_decision_frame
from ..utils.validation import require
from .base import DetectionResult, detect_one_slot

__all__ = ["MmseSicDetector"]


class MmseSicDetector:
    """MMSE detection + cancellation, strongest stream first."""

    name = "mmse-sic"

    def __init__(self, constellation: QamConstellation) -> None:
        self.constellation = constellation

    def detect(self, channel, received, noise_variance: float) -> DetectionResult:
        return detect_one_slot(self, channel, received, noise_variance)

    def detect_frame(self, channels, received,
                     noise_variance: float) -> FrameDetectionResult:
        """Frame entry point: every subcarrier's cancellation chain runs
        in lockstep.

        ``channels`` is ``(S, na, nc)``; ``received`` is ``(T, S, na)``.
        The detection *order* differs per subcarrier (it follows each
        subcarrier's own column energies), so stage ``k`` detects a
        possibly different stream on every subcarrier — the per-stage
        MMSE filter banks come from one stacked solve over the gathered
        remaining columns, and the estimate / slice / cancel step is one
        ``(S, T)``-shaped array op per stage instead of ``S`` separate
        chains.
        """
        matrices = np.asarray(channels, dtype=np.complex128)
        observations = np.asarray(received, dtype=np.complex128)
        require(matrices.ndim == 3, "channels must be (S, na, nc)")
        require(observations.ndim == 3
                and observations.shape[1] == matrices.shape[0]
                and observations.shape[2] == matrices.shape[1],
                "received must be (T, S, na) matching the channel stack")
        require(matrices.shape[1] >= matrices.shape[2],
                f"need num_rx >= num_tx, got "
                f"{matrices.shape[1]}x{matrices.shape[2]} per subcarrier")
        require(noise_variance >= 0.0, "noise variance must be non-negative")
        num_subcarriers, _, num_tx = matrices.shape
        num_symbols = observations.shape[0]
        points = self.constellation.points

        # Paper ordering per subcarrier: descending column energy.
        order = np.argsort(-np.sum(np.abs(matrices) ** 2, axis=1), axis=1,
                           kind="stable")
        indices = np.zeros((num_subcarriers, num_symbols, num_tx),
                           dtype=np.int64)
        residual = np.moveaxis(observations, 1, 0).copy()      # (S, T, na)
        for stage in range(num_tx):
            remaining = order[:, stage:]
            active = np.take_along_axis(matrices, remaining[:, None, :],
                                        axis=2)                # (S, na, m)
            hermitian = active.conj().transpose(0, 2, 1)
            gram = (np.matmul(hermitian, active)
                    + noise_variance * np.eye(num_tx - stage))
            # Row 0 of each solve is the to-be-detected stream's filter.
            filter_rows = np.linalg.solve(gram, hermitian)[:, 0, :]
            estimates = np.matmul(residual, filter_rows[:, :, None])[:, :, 0]
            detected = self.constellation.slice_indices(estimates)  # (S, T)
            stream = order[:, stage]
            np.put_along_axis(
                indices,
                np.broadcast_to(stream[:, None, None],
                                (num_subcarriers, num_symbols, 1)),
                detected[:, :, None], axis=2)
            # Cancel the hard decisions on every (symbol, subcarrier) at
            # once; wrong decisions propagate, exactly as per subcarrier.
            column = np.take_along_axis(matrices, stream[:, None, None],
                                        axis=2)[:, :, 0]       # (S, na)
            residual = residual - points[detected][:, :, None] * column[:, None, :]
        return hard_decision_frame(self.constellation,
                                   indices.transpose(1, 0, 2))
