"""802.11-style block interleaver.

Interleaving spreads adjacent coded bits across subcarriers and
constellation bit positions so that a deep fade (or a burst of sphere-
decoder symbol errors on one poorly-conditioned subcarrier) does not
overwhelm the convolutional decoder.  We use the two-permutation
interleaver of 802.11a/g/n, applied per OFDM symbol per spatial stream.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..utils.validation import as_bit_array, require

__all__ = ["interleaver_permutation", "interleave", "deinterleave"]


@lru_cache(maxsize=64)
def interleaver_permutation(n_cbps: int, n_bpsc: int) -> np.ndarray:
    """The 802.11 write-index permutation for one OFDM symbol.

    ``n_cbps`` — coded bits per OFDM symbol (per stream); ``n_bpsc`` —
    coded bits per subcarrier (``log2`` of the constellation order).
    Returns ``perm`` with ``interleaved[perm[k]] = coded[k]``, memoised
    per ``(n_cbps, n_bpsc)`` and therefore read-only.
    """
    require(n_cbps % 16 == 0, f"n_cbps must be a multiple of 16, got {n_cbps}")
    require(n_bpsc >= 1, f"n_bpsc must be >= 1, got {n_bpsc}")
    require(n_cbps % n_bpsc == 0,
            f"n_cbps ({n_cbps}) must be divisible by n_bpsc ({n_bpsc})")
    k = np.arange(n_cbps)
    # First permutation: adjacent coded bits land on distant subcarriers.
    i = (n_cbps // 16) * (k % 16) + k // 16
    # Second permutation: alternate between bit positions of a symbol so
    # no long run maps onto low-reliability (high-order) bits.
    s = max(n_bpsc // 2, 1)
    j = s * (i // s) + (i + n_cbps - (16 * i // n_cbps)) % s
    j.setflags(write=False)
    return j


def interleave(bits, n_cbps: int, n_bpsc: int) -> np.ndarray:
    """Interleave a coded stream in per-symbol blocks of ``n_cbps`` bits."""
    array = as_bit_array(bits)
    require(array.size % n_cbps == 0,
            f"bit count {array.size} is not a multiple of n_cbps {n_cbps}")
    perm = interleaver_permutation(n_cbps, n_bpsc)
    blocks = array.reshape(-1, n_cbps)
    out = np.empty_like(blocks)
    out[:, perm] = blocks
    return out.reshape(-1)


def deinterleave(bits, n_cbps: int, n_bpsc: int) -> np.ndarray:
    """Invert :func:`interleave` (also valid for float reliabilities)."""
    array = np.asarray(bits)
    require(array.ndim == 1 and array.size % n_cbps == 0,
            f"bit count {array.size} is not a multiple of n_cbps {n_cbps}")
    perm = interleaver_permutation(n_cbps, n_bpsc)
    blocks = array.reshape(-1, n_cbps)
    return blocks[:, perm].reshape(-1)
