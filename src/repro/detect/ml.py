"""Exhaustive maximum-likelihood detection (paper Eq. 1).

Evaluates ``||y - Hs||^2`` for every ``s`` in ``O^{nc}`` — the
exponential-cost search the sphere decoder exists to avoid.  It serves as
ground truth: the sphere decoder property tests assert exact agreement
with this detector on every random instance.
"""

from __future__ import annotations

import numpy as np

from ..constellation.qam import QamConstellation
from ..frame.results import FrameDetectionResult, hard_decision_frame
from ..utils.validation import as_complex_matrix, as_complex_vector, require
from .base import DetectionResult, detect_one_slot

__all__ = ["ExhaustiveMLDetector"]


class ExhaustiveMLDetector:
    """Brute-force ML detector with a memory guard."""

    name = "exhaustive-ml"

    def __init__(self, constellation: QamConstellation,
                 max_hypotheses: int = 1 << 20) -> None:
        self.constellation = constellation
        self.max_hypotheses = max_hypotheses

    def detect(self, channel, received, noise_variance: float = 0.0) -> DetectionResult:
        return detect_one_slot(self, channel, received, noise_variance)

    def detect_frame(self, channels, received,
                     noise_variance: float = 0.0) -> FrameDetectionResult:
        """Frame entry point: ``(S, na, nc)`` channels, ``(T, S, na)``
        observations.

        The ``H_s s`` hypothesis table is built once per subcarrier and
        scanned once per symbol.  The scan stays a loop on purpose — the
        ``(T, na, M^nc)`` residual tensor would not fit in memory for the
        dense constellations this detector guards against.
        """
        matrices = np.asarray(channels, dtype=np.complex128)
        observations = np.asarray(received, dtype=np.complex128)
        require(matrices.ndim == 3, "channels must be (S, na, nc)")
        require(observations.ndim == 3
                and observations.shape[1:] == matrices.shape[:2],
                "received must be (T, S, na) matching the channel stack")
        num_subcarriers, _, num_tx = matrices.shape
        order = self.constellation.order
        hypotheses = order ** num_tx
        require(hypotheses <= self.max_hypotheses,
                f"{order}-QAM over {num_tx} streams needs {hypotheses} "
                f"hypotheses, above the limit of {self.max_hypotheses}")

        # Enumerate O^nc as a mixed-radix counter, vectorised.
        grids = np.indices((order,) * num_tx).reshape(num_tx, -1)
        points = self.constellation.points[grids]              # (nc, M^nc)
        indices = np.empty((observations.shape[0], num_subcarriers, num_tx),
                           dtype=np.int64)
        for s in range(num_subcarriers):
            candidates = matrices[s] @ points                  # (na, M^nc)
            for t in range(observations.shape[0]):
                residuals = observations[t, s][:, None] - candidates
                distances = np.sum(np.abs(residuals) ** 2, axis=0)
                indices[t, s] = grids[:, int(np.argmin(distances))]
        return hard_decision_frame(self.constellation, indices)

    def distance_of(self, channel, received, symbol_indices) -> float:
        """``||y - Hs||^2`` for a given hypothesis (test helper)."""
        matrix = as_complex_matrix(channel, "channel")
        y = as_complex_vector(received, "received")
        s = self.constellation.points[np.asarray(symbol_indices)]
        return float(np.sum(np.abs(y - matrix @ s) ** 2))
