"""One-dimensional PAM building blocks.

A square M-QAM constellation is the product of two sqrt(M)-PAM axes.  All
of Geosphere's geometric reasoning (slicing, the 1-D zigzag rule of paper
Fig. 4, the per-column "PAM sub-constellation" bookkeeping of the 2-D
zigzag) reduces to operations on these axes, so they live here in one
place and are reused by every enumerator.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

import numpy as np

from ..utils.validation import check_power_of_two, require

__all__ = ["pam_levels", "slice_to_index", "zigzag_indices", "zigzag_order",
           "zigzag_order_table"]


def pam_levels(size: int, scale: float = 1.0) -> np.ndarray:
    """Return the ``size`` amplitude levels ``scale * (2k - (size-1))``.

    With ``scale=1`` the levels are the odd integers ``-size+1, ..., -1, 1,
    ..., size-1`` spaced two units apart — the lattice in which the paper's
    geometric-pruning bound (Eq. 9) is expressed.
    """
    check_power_of_two(size, "PAM size")
    require(scale > 0.0, f"scale must be positive, got {scale}")
    return scale * (2.0 * np.arange(size) - (size - 1))


def slice_to_index(value, size: int, scale: float = 1.0):
    """Slice real coordinate(s) to the index of the nearest PAM level.

    This is the paper's "slicing on the constellation's decision
    boundaries": a rounding, not a search.  Works on scalars and arrays.
    """
    index = np.round((np.asarray(value) / scale + (size - 1)) / 2.0)
    clipped = np.clip(index, 0, size - 1).astype(np.int64)
    if np.isscalar(value) or np.asarray(value).ndim == 0:
        return int(clipped)
    return clipped


def zigzag_indices(start: int, size: int, prefer_positive: bool) -> Iterator[int]:
    """Yield level indices in 1-D zigzag order around ``start``.

    The order is ``start, start+d, start-d, start+2d, ...`` with
    ``d = +1`` when ``prefer_positive`` (the received coordinate lies above
    the sliced level) and ``d = -1`` otherwise.  Out-of-range indices are
    skipped, so after one side of the constellation is exhausted the walk
    marches monotonically along the other side.  For a received coordinate
    inside ``start``'s decision cell this enumerates levels in
    non-decreasing distance — the invariant Schnorr–Euchner enumeration
    relies on.
    """
    require(0 <= start < size, f"start index {start} outside [0, {size})")
    yield start
    direction = 1 if prefer_positive else -1
    step = 1
    emitted = 1
    while emitted < size:
        candidate = start + direction * step
        if 0 <= candidate < size:
            yield candidate
            emitted += 1
        # Alternate sides; increase the magnitude every second hop.
        if direction != (1 if prefer_positive else -1):
            step += 1
        direction = -direction


@cache
def zigzag_order_table(side: int) -> np.ndarray:
    """``(side, 2, side)`` read-only table of every 1-D zigzag ordering.

    The walk depends only on the sliced start index and the preferred
    direction, so ``table[start, int(prefer_positive)]`` is exactly the
    sequence :func:`zigzag_indices` yields — materialised *from that
    generator*, so the correspondence is by construction.  The batched
    K-best expansion and the compiled search core read it.
    """
    table = np.empty((side, 2, side), dtype=np.int64)
    for start in range(side):
        for prefer_positive in (False, True):
            table[start, int(prefer_positive)] = np.fromiter(
                zigzag_indices(start, side, prefer_positive),
                dtype=np.int64, count=side)
    table.setflags(write=False)
    return table


def zigzag_order(value: float, size: int, scale: float = 1.0) -> list[int]:
    """Full zigzag ordering of all levels for received coordinate ``value``.

    Convenience wrapper used by tests and by the exhaustive enumerator:
    slices ``value`` and materialises :func:`zigzag_indices`.
    """
    start = slice_to_index(value, size, scale)
    levels = pam_levels(size, scale)
    prefer_positive = bool(value >= levels[start])
    return list(zigzag_indices(start, size, prefer_positive))
