"""Frontier arrays for the compiled search core.

The lockstep engine (:mod:`repro.runtime.engine`) keeps every search of
a kernel pool in lane-indexed arrays, and the compiled search core
(:mod:`repro.sphere.tick_kernel`, ``search_core.c``) advances them **in
place**.  The *kernels* here own the enumerator half of that state, one
row per (lane, tree level) slot, and fill it when a search is admitted:

* ``zigzag`` — Geosphere's lazy 2-D zigzag in **column form**.  The
  paper's invariant (section 3.1.1: at most one queued candidate per
  entered PAM column, hence its sqrt(|O|) queue bound) is used as the
  *layout*, not just as a capacity: a slot's priority queue is a row of
  ``side`` distances, and a pop is ``argmin`` over the row (ties to the
  lowest column, which is ``heapq``'s ``(distance, i, j)`` order
  because queued columns are distinct);
* ``shabany`` — both successors every time behind a seen-set, so a
  column can hold several candidates: a bounded unordered heap per slot
  whose pop takes the lexicographic ``(distance, i, j)`` minimum.

``search_core.c`` reads and writes ``axis_int`` / ``axis_res`` and each
kernel's queue (``col_d`` / ``col_j`` / ``last_i``; ``heap_*`` /
``has_last`` / ``seen``) in the layout declared here, so a layout change
is a change to both files.  Axis orders and residuals come from
:func:`repro.sphere.batch.batched_axis_orders` (bit-exact with the scalar
:class:`~repro.sphere.enumerator.AxisOrder`), and ``init`` tallies the
root candidate exactly where the scalar enumerators do.  The ``hess`` and
``exhaustive`` baselines have no kernel: the engine runs them through
the scalar decoder.
"""

from __future__ import annotations

import numpy as np

from .batch import batched_axis_orders
from .tick_kernel import core

__all__ = ["make_kernel"]


def _grown(array: np.ndarray, rows: int, fill=0) -> np.ndarray:
    """Reallocate ``array`` to ``rows`` leading rows: existing rows are
    copied (live per-slot state carries over bit-for-bit), new rows get
    ``fill`` — the same value construction used, and ``init`` fully
    rewrites a row before anything reads it."""
    out = np.full((rows,) + array.shape[1:], fill, dtype=array.dtype)
    out[:array.shape[0]] = array
    return out


class _KernelBase:
    """Axis-order state shared by both kernels.

    State lives in flat ``(num_slots, ...)`` arrays indexed by
    ``slot = lane * num_streams + level`` — one slot per (lane, tree
    level) pair, matching the one-enumerator-per-stack-entry shape
    of the scalar search.

    The per-axis tables are stacked slot-major — ``axis_int[slot]`` is
    ``[ord_i, ord_q]`` (``[ord_i, off_i, ord_q, off_q]`` with a pruning
    table), ``axis_res[slot]`` is ``[res_i, res_q]`` — so a node's tables
    are one contiguous row and :meth:`init_axes` writes each stack with a
    single scatter.
    """

    def __init__(self, num_slots: int, side: int, levels: np.ndarray,
                 ped: np.ndarray, prunes: np.ndarray,
                 table: np.ndarray | None = None) -> None:
        self.side = side
        self.levels = levels
        self.ped = ped
        self.prunes = prunes
        self.table = table
        self.axis_int = np.zeros(
            (num_slots, 2 if table is None else 4, side), dtype=np.int64)
        self.axis_res = np.zeros((num_slots, 2, side), dtype=np.float64)

    def grow(self, num_slots: int, ped: np.ndarray,
             prunes: np.ndarray) -> None:
        """Extend per-slot state to ``num_slots`` rows (demand-grown
        pools).  Existing rows are copied so live searches carry over
        bit-for-bit; ``ped``/``prunes`` re-point the element tallies the
        caller reallocated alongside the kernel."""
        self.ped = ped
        self.prunes = prunes
        self.axis_int = _grown(self.axis_int, num_slots)
        self.axis_res = _grown(self.axis_res, num_slots)

    def init_axes(self, slots: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Zigzag-order both PAM axes for freshly expanded nodes; returns
        the ``(count, 2, side)`` squared residuals just written.

        The I and Q coordinates go through one fused
        ``batched_axis_orders`` call (rows are independent, so fusing
        them is exact), interleaved: that is a free view of the complex
        points, and it leaves each node's tables adjacent, ready for the
        slot-major stacks.
        """
        count = points.shape[0]
        coordinates = np.ascontiguousarray(
            points, dtype=np.complex128).view(np.float64)
        tables, residual = batched_axis_orders(
            coordinates, self.levels, offsets=self.table is not None)
        residual = residual.reshape(count, 2, self.side)
        self.axis_int[slots] = tables.reshape(count, -1, self.side)
        self.axis_res[slots] = residual
        return residual


class _ZigzagKernel(_KernelBase):
    """The :class:`GeosphereEnumerator` (lazy 2-D zigzag) frontier, in
    the paper's own queue layout.

    Geosphere's 2-D zigzag enters each PAM column at its sliced row and
    keeps at most one queued candidate per entered column (paper section
    3.1.1, the sqrt(|O|) queue bound), so the priority queue of a slot
    *is* a row of ``side`` distances: ``col_d[slot, i]`` is the queued
    distance of column ``i`` (``inf`` = none queued) and ``col_j[slot,
    i]`` that candidate's row pointer.  A pop is ``argmin`` over the row
    — first occurrence = smallest ``i``, which is ``heapq``'s ``(distance,
    i, j)`` order because queued columns are distinct — and consuming it
    is one ``inf`` write.  ``last_i[slot]`` is the column of the
    candidate handed out last (``-1`` = none pending); its row is still
    in ``col_j``, and its deferred successors — vertical ``(i, j + 1)``
    always, horizontal ``(i + 1, 0)`` from the column's entry point —
    are proposed when the *next* candidate is requested, exactly like
    the scalar enumerator.
    """

    def __init__(self, num_slots: int, side: int, levels: np.ndarray,
                 ped: np.ndarray, prunes: np.ndarray,
                 table: np.ndarray | None) -> None:
        super().__init__(num_slots, side, levels, ped, prunes, table)
        self.col_d = np.full((num_slots, side), np.inf)
        self.col_j = np.zeros((num_slots, side), dtype=np.int64)
        self.last_i = np.full(num_slots, -1, dtype=np.int64)

    def grow(self, num_slots: int, ped, prunes) -> None:
        super().grow(num_slots, ped, prunes)
        self.col_d = _grown(self.col_d, num_slots, np.inf)
        self.col_j = _grown(self.col_j, num_slots)
        self.last_i = _grown(self.last_i, num_slots, -1)

    def init(self, slots: np.ndarray, elements: np.ndarray,
             points: np.ndarray) -> None:
        residual = self.init_axes(slots, points)
        # Step 2 of the paper's algorithm: enqueue the sliced point; its
        # lower bound is zero, so it bypasses the pruning check.
        self.col_d[slots] = np.inf
        self.col_d[slots, 0] = residual[:, 0, 0] + residual[:, 1, 0]
        self.col_j[slots, 0] = 0
        self.last_i[slots] = -1
        self.ped[elements] += 1

    def frontier_arrays(self) -> dict:
        """The queue as ``search_core.c`` names it: no ``seen`` grid
        selects its column-form frontier."""
        return dict(queue_d=self.col_d, queue_j=self.col_j,
                    last_i=self.last_i)


class _ShabanyKernel(_KernelBase):
    """The :class:`ShabanyEnumerator` frontier: both successors proposed
    every time, deduplicated with a per-slot seen grid.

    Without Geosphere's entry-point rule a column can hold several
    queued candidates, so this kernel keeps a general frontier: a
    bounded unordered array per slot (``heap_d`` / ``heap_i`` /
    ``heap_j``, ``heap_n`` occupied) whose pop takes the lexicographic
    ``(distance, i, j)`` minimum — ``heapq`` tuple order.  The queued
    cells form (near-)antichains of the position grid, so the frontier
    stays O(side); the capacity plus the core's overflow check keeps the
    bound honest.
    """

    def __init__(self, num_slots: int, side: int, levels: np.ndarray,
                 ped: np.ndarray, prunes: np.ndarray,
                 table: np.ndarray | None) -> None:
        super().__init__(num_slots, side, levels, ped, prunes, table)
        capacity = 2 * side + 4
        self.heap_d = np.full((num_slots, capacity), np.inf)
        self.heap_i = np.zeros((num_slots, capacity), dtype=np.int64)
        self.heap_j = np.zeros((num_slots, capacity), dtype=np.int64)
        self.heap_n = np.zeros(num_slots, dtype=np.int64)
        self.last_i = np.zeros(num_slots, dtype=np.int64)
        self.last_j = np.zeros(num_slots, dtype=np.int64)
        self.has_last = np.zeros(num_slots, dtype=bool)
        self.seen = np.zeros((num_slots, side * side), dtype=bool)

    def grow(self, num_slots: int, ped, prunes) -> None:
        super().grow(num_slots, ped, prunes)
        self.heap_d = _grown(self.heap_d, num_slots, np.inf)
        self.heap_i = _grown(self.heap_i, num_slots)
        self.heap_j = _grown(self.heap_j, num_slots)
        self.heap_n = _grown(self.heap_n, num_slots)
        self.last_i = _grown(self.last_i, num_slots)
        self.last_j = _grown(self.last_j, num_slots)
        self.has_last = _grown(self.has_last, num_slots)
        self.seen = _grown(self.seen, num_slots)

    def init(self, slots: np.ndarray, elements: np.ndarray,
             points: np.ndarray) -> None:
        residual = self.init_axes(slots, points)
        # Enqueue the sliced point; its lower bound is zero, so it
        # bypasses the pruning check.
        self.heap_d[slots, 0] = residual[:, 0, 0] + residual[:, 1, 0]
        self.heap_i[slots, 0] = 0
        self.heap_j[slots, 0] = 0
        self.heap_n[slots] = 1
        self.has_last[slots] = False
        self.seen[slots] = False
        self.seen[slots, 0] = True  # position (0, 0)
        self.ped[elements] += 1

    def frontier_arrays(self) -> dict:
        """The queue as ``search_core.c`` names it: the ``seen`` grid
        selects its bounded-heap frontier."""
        return dict(queue_d=self.heap_d, queue_i=self.heap_i,
                    queue_j=self.heap_j, queue_n=self.heap_n,
                    last_i=self.last_i, last_j=self.last_j,
                    has_last=self.has_last, seen=self.seen)


def make_kernel(decoder, num_slots: int, levels: np.ndarray,
                ped: np.ndarray, prunes: np.ndarray):
    """The kernel the compiled core runs ``decoder``'s searches on, or
    ``None`` where there is none: a ``hess`` / ``exhaustive`` decoder,
    or a box where the core could not be built.

    ``num_slots`` rows of per-(lane, tree level) state; ``ped`` and
    ``prunes`` are the per-lane tally arrays ``init`` increments
    (indexed by the ``elements`` ids passed to it).
    """
    kernel = {"zigzag": _ZigzagKernel,
              "shabany": _ShabanyKernel}.get(decoder.enumerator)
    if kernel is None or core() is None:
        return None
    pruner = decoder._pruner
    return kernel(num_slots, int(levels.shape[0]), levels, ped, prunes,
                  pruner.table if pruner is not None else None)
