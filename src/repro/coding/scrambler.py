"""802.11 frame scrambler.

The self-synchronising scrambler ``x^7 + x^4 + 1`` whitens the payload so
constant data cannot bias the constellation statistics (and so our
synthetic all-zero test frames still exercise every symbol).  Scrambling
is an involution for a fixed seed: applying it twice restores the input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..utils.validation import as_bit_array, require

__all__ = ["scramble", "descramble", "scrambler_sequence"]

_REGISTER_BITS = 7


@lru_cache(maxsize=64)
def scrambler_sequence(length: int, seed: int = 0b1011101) -> np.ndarray:
    """The pseudo-random bit sequence of the 802.11 scrambler LFSR.

    Memoised per ``(length, seed)`` (a frame chain asks for the same few
    lengths over and over), so the array is read-only.
    """
    require(length >= 0, "length must be non-negative")
    require(0 < seed < (1 << _REGISTER_BITS),
            f"seed must be a non-zero {_REGISTER_BITS}-bit value, got {seed}")
    state = seed
    out = np.empty(length, dtype=np.uint8)
    for index in range(length):
        # Feedback = x7 xor x4 (bits 6 and 3 of the register).
        feedback = ((state >> 6) ^ (state >> 3)) & 1
        out[index] = feedback
        state = ((state << 1) | feedback) & ((1 << _REGISTER_BITS) - 1)
    out.setflags(write=False)
    return out


def scramble(bits, seed: int = 0b1011101) -> np.ndarray:
    """XOR ``bits`` with the scrambler sequence."""
    array = as_bit_array(bits)
    return array ^ scrambler_sequence(array.size, seed)


def descramble(bits, seed: int = 0b1011101) -> np.ndarray:
    """Inverse of :func:`scramble` (the same operation)."""
    return scramble(bits, seed)
