"""Max-log LLR soft demapping (infrastructure for the paper's future work).

Section 7: "iterative soft receiver processing is required to reach MIMO
capacity ... a promising next step is to extend our techniques to this
setting."  This module provides the receiver side of that path: per-bit
max-log log-likelihood ratios from soft symbol estimates, which feed the
soft-decision Viterbi decoder.

Sign convention matches :mod:`repro.coding.viterbi`: positive reliability
means bit 0 is more likely.  Square-QAM Gray labelling makes the LLRs
separable per I/Q axis, so the computation is two 1-D problems instead of
one |O|-point search.

The per-axis Gray bit table is the constellation's own
(``QamConstellation.gray_bits``), and the per-bit zero/one level masks
the vectorised minimum runs over are read straight off it.  The per-bit
Python loop this module used to carry is gone — one masked ``min`` per
axis covers every bit position at once, bit-identical to the loop it
replaced.
"""

from __future__ import annotations

import numpy as np

from ..constellation.qam import QamConstellation
from ..utils.validation import require

__all__ = ["max_log_llrs", "axis_bit_partitions"]


def axis_bit_partitions(constellation: QamConstellation) -> np.ndarray:
    """Per-axis bit values: ``bits[level_index, bit_position]``.

    Both axes share the same Gray labelling, so one table serves I and Q:
    the constellation's :attr:`~QamConstellation.gray_bits`, built once
    with it and read-only — ``copy()`` it before mutating.
    """
    return constellation.gray_bits


def _axis_llrs(coordinates: np.ndarray, levels: np.ndarray,
               one_masks: np.ndarray, noise_scale: float) -> np.ndarray:
    """Max-log LLRs for one axis: shape ``(N, bits_per_axis)``.

    ``one_masks`` is the per-bit level partition; the per-bit
    minima come from one masked reduction over the shared ``(N, side)``
    distance table instead of a Python loop over bit positions.
    """
    distances = (coordinates[:, None] - levels[None, :]) ** 2  # (N, side)
    spread = distances[:, None, :]                      # (N, 1, side)
    zero_min = np.where(one_masks[None], np.inf, spread).min(axis=2)
    one_min = np.where(one_masks[None], spread, np.inf).min(axis=2)
    return (one_min - zero_min) / noise_scale


def max_log_llrs(estimates, constellation: QamConstellation,
                 noise_scale: float = 1.0) -> np.ndarray:
    """Per-bit reliabilities for a stream of soft symbol estimates.

    ``noise_scale`` is the effective post-equalisation noise variance
    (uniform scaling only affects soft-Viterbi metrics by a constant, so
    a per-stream average is sufficient).  Output is ordered like
    :meth:`QamConstellation.indices_to_bits`: I-axis bits then Q-axis bits
    per symbol, flattened.
    """
    values = np.asarray(estimates, dtype=np.complex128).reshape(-1)
    require(values.size > 0, "need at least one estimate")
    require(noise_scale > 0.0, "noise scale must be positive")
    # (bits_per_axis, side): which levels label each bit 1.
    one_masks = constellation.gray_bits.T.astype(bool)
    i_llrs = _axis_llrs(values.real, constellation.levels, one_masks,
                        noise_scale)
    q_llrs = _axis_llrs(values.imag, constellation.levels, one_masks,
                        noise_scale)
    return np.concatenate([i_llrs, q_llrs], axis=1).reshape(-1)
