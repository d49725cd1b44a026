"""Fixed-complexity sphere decoder (Barbero & Thompson; paper section 6.1).

"The fixed-complexity sphere decoder is a specific type of breadth-first
sphere decoder that initially searches the first p levels of the tree,
then plunges depth first, but using a branching factor of only one."

Jalden et al. showed it approaches ML performance only asymptotically at
high SNR and costs more than depth-first decoders — both observable with
this implementation: complexity is exactly ``|O|**p`` leaves' worth of
work regardless of channel quality, and at finite SNR it can miss the ML
solution (tests and the ablation benchmark quantify this against
Geosphere).
"""

from __future__ import annotations

import numpy as np

from ..constellation.qam import QamConstellation
from ..utils.validation import require
from .counters import ComplexityCounters
from .decoder import SphereDecoderResult
from .qr import triangular_system

__all__ = ["FixedComplexityDecoder"]


class FixedComplexityDecoder:
    """FCSD: full expansion over ``full_levels``, then greedy descent."""

    def __init__(self, constellation: QamConstellation,
                 full_levels: int = 1) -> None:
        require(full_levels >= 0, "full_levels must be non-negative")
        self.constellation = constellation
        self.full_levels = full_levels

    def decode(self, channel, received) -> SphereDecoderResult:
        return self.decode_triangular(*triangular_system(channel, received))

    def decode_triangular(self, r: np.ndarray,
                          y_hat: np.ndarray) -> SphereDecoderResult:
        num_streams = r.shape[1]
        full = min(self.full_levels, num_streams)
        order = self.constellation.order
        points = self.constellation.points
        counters = ComplexityCounters()
        diag = np.real(np.diag(r))

        # Enumerate every combination of the top `full` levels.
        top_levels = list(range(num_streams - 1, num_streams - 1 - full, -1))
        if full:
            grids = np.indices((order,) * full).reshape(full, -1)
        else:
            grids = np.zeros((0, 1), dtype=np.int64)
        num_branches = grids.shape[1]

        best_distance = np.inf
        best_indices: np.ndarray | None = None
        for branch in range(num_branches):
            indices = np.zeros(num_streams, dtype=np.int64)
            symbols = np.zeros(num_streams, dtype=np.complex128)
            distance = 0.0
            for position, level in enumerate(top_levels):
                index = int(grids[position, branch])
                indices[level] = index
                symbols[level] = points[index]
                residual = (y_hat[level]
                            - r[level, level:] @ symbols[level:])
                distance += float(np.abs(residual) ** 2)
                counters.ped_calcs += 1
                counters.visited_nodes += 1
            # Greedy single-branch descent through the remaining levels.
            for level in range(num_streams - 1 - full, -1, -1):
                interference = complex(r[level, level + 1:]
                                       @ symbols[level + 1:])
                point = complex((y_hat[level] - interference) / diag[level])
                index = int(self.constellation.slice_indices(point))
                indices[level] = index
                symbols[level] = points[index]
                residual = y_hat[level] - r[level, level:] @ symbols[level:]
                distance += float(np.abs(residual) ** 2)
                counters.ped_calcs += 1
                counters.visited_nodes += 1
            counters.leaves += 1
            if distance < best_distance:
                best_distance = distance
                best_indices = indices.copy()

        counters.expanded_nodes = num_branches * num_streams
        counters.complex_mults = counters.ped_calcs * (num_streams + 1)
        assert best_indices is not None
        return SphereDecoderResult(found=True, symbol_indices=best_indices,
                                   symbols=points[best_indices],
                                   distance_sq=float(best_distance),
                                   counters=counters)
