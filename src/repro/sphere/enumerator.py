"""Shared machinery for Schnorr–Euchner child enumeration.

All enumerators answer one question for a tree node: *which constellation
point should the search try next, in non-decreasing distance from the
received point* ``y~_l``?  They differ — and this difference is the core
of the paper — in how much computation answering costs.

Every enumerator works in *position space*: the two PAM axes of the
constellation are re-ordered by their 1-D zigzag sequences around the
sliced coordinate, so position ``(i, j)`` denotes the i-th closest column
and j-th closest row.  Distances are then separable
(``dist^2(i, j) = dI^2[i] + dQ^2[j]``) and both axes are non-decreasing in
their position index, which is what makes frontier-based enumeration
correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..constellation.pam import slice_to_index, zigzag_indices
from ..constellation.qam import QamConstellation

__all__ = ["Candidate", "NodeEnumerator", "AxisOrder", "build_axes"]


@dataclass(frozen=True)
class Candidate:
    """One enumerated constellation point.

    ``dist_sq`` is the squared Euclidean distance from the node's received
    point in constellation units (i.e. before the ``|r_ll|^2`` scaling that
    turns it into a branch cost).
    """

    col: int
    row: int
    dist_sq: float


class NodeEnumerator(Protocol):
    """Protocol every child enumerator implements."""

    def next_candidate(self, budget_sq: float) -> Candidate | None:
        """Return the next-closest unexplored point with
        ``dist_sq < budget_sq``, or ``None`` when no such point exists.

        ``budget_sq`` is the sphere constraint mapped into constellation
        units at this node: ``(r^2 - d(parent)) / |r_ll|^2``.  It can only
        shrink between calls (the radius tightens as leaves are found), so
        ``None`` is a final answer.
        """


class AxisOrder:
    """One PAM axis of a node, ordered by the 1-D zigzag around the slice.

    Attributes
    ----------
    indices:
        Level indices in zigzag (non-decreasing distance) order.
    residual_sq:
        ``(levels[indices[p]] - coordinate)^2`` for each position ``p``.
    offsets:
        ``|indices[p] - start|`` — the lattice offsets feeding the
        geometric-pruning table.  Non-decreasing in ``p``.
    """

    __slots__ = ("indices", "residual_sq", "offsets", "size")

    def __init__(self, coordinate: float, levels: np.ndarray) -> None:
        size = levels.shape[0]
        scale = float(levels[1] - levels[0]) / 2.0 if size > 1 else 1.0
        start = slice_to_index(coordinate, size, scale)
        prefer_positive = bool(coordinate >= levels[start])
        order = np.fromiter(zigzag_indices(start, size, prefer_positive),
                            dtype=np.int64, count=size)
        residuals = levels[order] - coordinate
        self.indices = order
        self.residual_sq = residuals * residuals
        self.offsets = np.abs(order - start)
        self.size = size


def build_axes(constellation: QamConstellation,
               received: complex) -> tuple[AxisOrder, AxisOrder]:
    """Zigzag-ordered I and Q axes for a node's received point."""
    levels = constellation.levels
    return (AxisOrder(received.real, levels), AxisOrder(received.imag, levels))
