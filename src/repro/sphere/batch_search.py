"""Vectorised enumerator kernels for the lockstep engine.

The scalar search in :mod:`repro.sphere.decoder` instantiates one child
enumerator per expanded tree node.  The lockstep engine
(:mod:`repro.runtime.engine`) advances many searches one tree-node step
per tick, so each scalar enumerator has a vectorised *kernel* here
holding its state for every (lane, tree level) slot as flat arrays:

* ``zigzag`` — Geosphere's lazy 2-D zigzag in **column form**.  The
  paper's invariant (section 3.1.1: at most one queued candidate per
  entered PAM column, hence its sqrt(|O|) queue bound) is used as the
  *layout*, not just as a capacity: a slot's priority queue is a row of
  ``side`` distances, a pop is ``argmin`` over the row (ties to the
  lowest column, which is ``heapq``'s ``(distance, i, j)`` order
  because queued columns are distinct), and the two deferred successor
  proposals share one bounds → pruning-table → tally → write pass;
* ``shabany`` — both successors every time behind a seen-set, so a
  column can hold several candidates: a bounded unordered heap per slot
  whose pop takes the lexicographic ``(distance, i, j)`` minimum;
* ``hess`` — ETH-SD's row-parallel 1-D zigzag: per-row position and
  distance arrays, refill-on-demand;
* ``exhaustive`` — compute-all-then-stable-argsort, cursor per slot.

Every kernel reproduces its scalar enumerator candidate for candidate:
axis orders and residuals come from
:func:`repro.sphere.batch.batched_axis_orders` (bit-exact with the
scalar :class:`~repro.sphere.enumerator.AxisOrder`), candidate distances
are plain elementwise real arithmetic, and the PED / geometric-prune
tallies are incremented at exactly the points the scalar enumerators
increment theirs.  The frontier kernels (``zigzag``, ``shabany``) have
a second executor (``kernel.has_tail``): the compiled search core
(:mod:`repro.sphere.tick_kernel`) takes a search — half run, or fresh
from admission — **in place on these very arrays**, one candidate
attempt per tick or to completion: ``search_core.c`` reads and writes
``axis_int`` / ``axis_res`` and each kernel's queue (``col_d`` /
``col_j`` / ``last_i``; ``heap_*`` / ``has_last`` / ``seen``) in the
layout declared here, so a layout change is a change to both files.
Where the core built, the engine steps these two kernels through it and
their ``step`` methods are the compiler-less fallback (still what
``init`` / ``grow`` and admission run on); ``hess`` and ``exhaustive``
are comparison baselines and always step here.
"""

from __future__ import annotations

import numpy as np

from .batch import batched_axis_orders

__all__ = ["make_kernel"]

#: What a frontier kernel's ``step`` returns when no stepped slot
#: yielded a candidate.
_NO_DISTANCES = np.zeros(0)
_NO_INDICES = np.zeros(0, dtype=np.int64)


def _grown(array: np.ndarray, rows: int, fill=0) -> np.ndarray:
    """Reallocate ``array`` to ``rows`` leading rows: existing rows are
    copied (live per-slot state carries over bit-for-bit), new rows get
    ``fill`` — the same value construction used, and ``init`` fully
    rewrites a row before anything reads it."""
    out = np.full((rows,) + array.shape[1:], fill, dtype=array.dtype)
    out[:array.shape[0]] = array
    return out


class _KernelBase:
    """Axis-order state shared by every enumerator kernel.

    State lives in flat ``(num_slots, ...)`` arrays indexed by
    ``slot = lane * num_streams + level`` — one slot per (lane, tree
    level) pair, matching the one-enumerator-per-stack-entry shape
    of the scalar search.

    The per-axis tables are stacked slot-major — ``axis_int[slot]`` is
    ``[ord_i, ord_q]`` (``[ord_i, off_i, ord_q, off_q]`` with a pruning
    table), ``axis_res[slot]`` is ``[res_i, res_q]`` — so a node's tables
    are one contiguous row and :meth:`init_axes` writes each stack with a
    single scatter; ``ord_i`` ... ``res_q`` are ``(num_slots, side)``
    views into them.
    """

    #: Whether the compiled core (:mod:`repro.sphere.tick_kernel`) can
    #: run this kernel's searches — step them or finish them; kernels
    #: without one step here, in lockstep to the end whatever the drain
    #: threshold says.
    has_tail = False

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
        self._bind_axes()
        self._iota = np.arange(num_slots, dtype=np.int64)

    def _bind_axes(self) -> None:
        per_axis = self.axis_int.shape[1] // 2
        self.ord_i = self.axis_int[:, 0]
        self.ord_q = self.axis_int[:, per_axis]
        if per_axis == 2:
            self.off_i = self.axis_int[:, 1]
            self.off_q = self.axis_int[:, 3]
        self.res_i = self.axis_res[:, 0]
        self.res_q = self.axis_res[:, 1]

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
        self._bind_axes()
        self._iota = np.arange(num_slots, dtype=np.int64)

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
    """Vectorised :class:`GeosphereEnumerator` (lazy 2-D zigzag), in the
    paper's own queue layout.

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

    has_tail = True

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

    def _successors(self, slots, elements, i, budget) -> None:
        """Deferred step 3 of the paper's algorithm for each slot's
        previously dequeued ``(i, j)``: the vertical successor
        ``(i, j + 1)`` always, the horizontal ``(i + 1, 0)`` only from
        the column's entry point ``j == 0`` — both through one bounds →
        pruning table → tally → write pass.  A slot can contribute two
        proposals, hence the unbuffered ``np.add.at`` tallies; the
        written ``(slot, column)`` cells are distinct (columns ``i`` and
        ``i + 1``)."""
        inner = self.side - 1
        j = self.col_j[slots, i]
        vertical = np.flatnonzero(j < inner)
        horizontal = np.flatnonzero((j == 0) & (i < inner))
        pick = np.concatenate([vertical, horizontal])
        slots = slots[pick]
        elements = elements[pick]
        i = i[pick]
        j = j[pick] + 1
        i[vertical.size:] += 1
        j[vertical.size:] = 0
        if self.table is not None:
            pruned = (self.table[self.off_i[slots, i], self.off_q[slots, j]]
                      >= budget[pick])
            if pruned.any():
                np.add.at(self.prunes, elements[pruned], 1)
                keep = ~pruned
                slots = slots[keep]
                elements = elements[keep]
                i = i[keep]
                j = j[keep]
        np.add.at(self.ped, elements, 1)
        self.col_d[slots, i] = self.res_i[slots, i] + self.res_q[slots, j]
        self.col_j[slots, i] = j

    # -- one next_candidate() per active slot ---------------------------
    def step(self, slots, elements, budget):
        pending = self.last_i[slots]
        deferred = pending >= 0
        if deferred.all():
            self._successors(slots, elements, pending, budget)
        elif deferred.any():
            self._successors(slots[deferred], elements[deferred],
                             pending[deferred], budget[deferred])
        queued = self.col_d[slots]
        column = queued.argmin(axis=1)
        # (A gather: a second row reduction costs ~8 % of the whole tick.)
        distance = queued[self._iota[:slots.size], column]
        got = distance < budget
        if got.all():
            self.last_i[slots] = column
        else:
            self.last_i[slots] = np.where(got, column, -1)
            slots = slots[got]
            if slots.size == 0:
                return got, _NO_DISTANCES, _NO_INDICES, _NO_INDICES
            column = column[got]
            distance = distance[got]
        row = self.col_j[slots, column]
        self.col_d[slots, column] = np.inf
        return got, distance, self.ord_i[slots, column], self.ord_q[slots, row]

    def frontier_arrays(self) -> dict:
        """The queue as ``search_core.c`` names it: no ``seen`` grid
        selects its column-form frontier."""
        return dict(queue_d=self.col_d, queue_j=self.col_j,
                    last_i=self.last_i)


class _ShabanyKernel(_KernelBase):
    """Vectorised :class:`ShabanyEnumerator`: both successors proposed
    every time, deduplicated with a per-slot seen grid.

    Without Geosphere's entry-point rule a column can hold several
    queued candidates, so this kernel keeps a general frontier: a
    bounded unordered array per slot (``heap_d`` / ``heap_i`` /
    ``heap_j``, ``heap_n`` occupied) whose pop takes the lexicographic
    ``(distance, i, j)`` minimum — ``heapq`` tuple order.  The queued
    cells form (near-)antichains of the position grid, so the frontier
    stays O(side); the capacity plus the overflow guard in ``_propose``
    keeps the bound honest.
    """

    has_tail = True

    def __init__(self, num_slots: int, side: int, levels: np.ndarray,
                 ped: np.ndarray, prunes: np.ndarray,
                 table: np.ndarray | None) -> None:
        super().__init__(num_slots, side, levels, ped, prunes, table)
        capacity = 2 * side + 4
        self.heap_d = np.full((num_slots, capacity), np.inf)
        self.heap_i = np.zeros((num_slots, capacity), dtype=np.int64)
        self.heap_j = np.zeros((num_slots, capacity), dtype=np.int64)
        self.heap_n = np.zeros(num_slots, dtype=np.int64)
        self._positions = np.arange(capacity, dtype=np.int64)
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

    def _propose(self, slots, elements, i, j, budget) -> None:
        """Bounds-check, dedupe, prune-check, then enqueue one successor
        per listed slot (``slots`` are unique within a call, so plain
        fancy writes suffice)."""
        in_bounds = (i < self.side) & (j < self.side)
        if not in_bounds.all():
            slots = slots[in_bounds]
            elements = elements[in_bounds]
            i = i[in_bounds]
            j = j[in_bounds]
            budget = budget[in_bounds]
            if slots.size == 0:
                return
        code = i * self.side + j
        fresh = ~self.seen[slots, code]
        if not fresh.all():
            slots = slots[fresh]
            elements = elements[fresh]
            i = i[fresh]
            j = j[fresh]
            code = code[fresh]
            budget = budget[fresh]
            if slots.size == 0:
                return
        # Mark before the pruning check, exactly like the scalar seen-set.
        self.seen[slots, code] = True
        if self.table is not None:
            bound = self.table[self.off_i[slots, i], self.off_q[slots, j]]
            pruned = bound >= budget
            if pruned.any():
                self.prunes[elements[pruned]] += 1
                keep = ~pruned
                slots = slots[keep]
                elements = elements[keep]
                i = i[keep]
                j = j[keep]
                if slots.size == 0:
                    return
        self.ped[elements] += 1
        position = self.heap_n[slots]
        if (position >= self.heap_d.shape[1]).any():
            raise RuntimeError("frontier queue capacity exceeded; "
                               "the enumeration invariant was violated")
        self.heap_d[slots, position] = (self.res_i[slots, i]
                                        + self.res_q[slots, j])
        self.heap_i[slots, position] = i
        self.heap_j[slots, position] = j
        self.heap_n[slots] = position + 1

    # -- one next_candidate() per active slot ---------------------------
    def step(self, slots, elements, budget):
        deferred = self.has_last[slots]
        if deferred.any():
            # No PAM-sub-constellation rule: both successors of the
            # previously dequeued point, every time.
            slots_d = slots[deferred]
            elements_d = elements[deferred]
            budget_d = budget[deferred]
            i = self.last_i[slots_d]
            j = self.last_j[slots_d]
            self.has_last[slots_d] = False
            self._propose(slots_d, elements_d, i, j + 1, budget_d)
            self._propose(slots_d, elements_d, i + 1, j, budget_d)
        occupancy = self.heap_n[slots]
        valid = self._positions < occupancy[:, None]
        distance = np.where(valid, self.heap_d[slots], np.inf)
        min_distance = distance.min(axis=1)
        got = min_distance < budget
        slots_g = slots[got]
        if slots_g.size == 0:
            return got, _NO_DISTANCES, _NO_INDICES, _NO_INDICES
        # Lexicographic (distance, i, j) minimum == heapq tuple order.
        tie_code = self.heap_i[slots_g] * self.side + self.heap_j[slots_g]
        tie_code = np.where(distance[got] == min_distance[got][:, None],
                            tie_code, self.side * self.side)
        position = tie_code.argmin(axis=1)
        i_g = self.heap_i[slots_g, position]
        j_g = self.heap_j[slots_g, position]
        # Remove the popped entry: swap in the last occupied slot.
        tail = occupancy[got] - 1
        self.heap_d[slots_g, position] = self.heap_d[slots_g, tail]
        self.heap_i[slots_g, position] = self.heap_i[slots_g, tail]
        self.heap_j[slots_g, position] = self.heap_j[slots_g, tail]
        self.heap_n[slots_g] = tail
        self.last_i[slots_g] = i_g
        self.last_j[slots_g] = j_g
        self.has_last[slots_g] = True
        return (got, min_distance[got], self.ord_i[slots_g, i_g],
                self.ord_q[slots_g, j_g])

    def frontier_arrays(self) -> dict:
        """The queue as ``search_core.c`` names it: the ``seen`` grid
        selects its bounded-heap frontier."""
        return dict(queue_d=self.heap_d, queue_i=self.heap_i,
                    queue_j=self.heap_j, queue_n=self.heap_n,
                    last_i=self.last_i, last_j=self.last_j,
                    has_last=self.has_last, seen=self.seen)


class _HessKernel(_KernelBase):
    """Vectorised :class:`HessEnumerator` (ETH-SD row-parallel zigzag)."""

    def __init__(self, num_slots, side, levels, ped, prunes) -> None:
        super().__init__(num_slots, side, levels, ped, prunes)
        self.row_position = np.zeros((num_slots, side), dtype=np.int64)
        self.row_distance = np.zeros((num_slots, side), dtype=np.float64)
        self.pending = np.full(num_slots, -1, dtype=np.int64)

    def grow(self, num_slots: int, ped, prunes) -> None:
        super().grow(num_slots, ped, prunes)
        self.row_position = _grown(self.row_position, num_slots)
        self.row_distance = _grown(self.row_distance, num_slots)
        self.pending = _grown(self.pending, num_slots, -1)

    def init(self, slots, elements, points) -> None:
        residual = self.init_axes(slots, points)
        self.row_position[slots] = 0
        # Every row's best point up front: sqrt(|O|) PED calcs per node.
        self.row_distance[slots] = residual[:, 0, :1] + residual[:, 1]
        self.pending[slots] = -1
        self.ped[elements] += self.side

    def step(self, slots, elements, budget):
        pending = self.pending[slots]
        refill = pending >= 0
        if refill.any():
            slots_r = slots[refill]
            row = pending[refill]
            self.pending[slots_r] = -1
            position = self.row_position[slots_r, row] + 1
            alive = position < self.side
            slots_a = slots_r[alive]
            row_a = row[alive]
            position_a = position[alive]
            self.row_position[slots_a, row_a] = position_a
            self.row_distance[slots_a, row_a] = (
                self.res_i[slots_a, position_a] + self.res_q[slots_a, row_a])
            self.ped[elements[refill][alive]] += 1
            slots_x = slots_r[~alive]
            self.row_position[slots_x, row[~alive]] = -1
            self.row_distance[slots_x, row[~alive]] = np.inf
        row_distance = self.row_distance[slots]
        best_row = row_distance.argmin(axis=1)
        distance = row_distance[self._iota[:slots.size], best_row]
        got = np.isfinite(distance) & (distance < budget)
        slots_g = slots[got]
        row_g = best_row[got]
        self.pending[slots_g] = row_g
        position_g = self.row_position[slots_g, row_g]
        return (got, distance[got], self.ord_i[slots_g, position_g],
                self.ord_q[slots_g, row_g])


class _ExhaustiveKernel(_KernelBase):
    """Vectorised :class:`ExhaustiveEnumerator` (sort on node entry)."""

    def __init__(self, num_slots, side, levels, ped, prunes) -> None:
        super().__init__(num_slots, side, levels, ped, prunes)
        grid = side * side
        self.cand_d = np.zeros((num_slots, grid), dtype=np.float64)
        self.cand_col = np.zeros((num_slots, grid), dtype=np.int64)
        self.cand_row = np.zeros((num_slots, grid), dtype=np.int64)
        self.cursor = np.zeros(num_slots, dtype=np.int64)

    def grow(self, num_slots: int, ped, prunes) -> None:
        super().grow(num_slots, ped, prunes)
        self.cand_d = _grown(self.cand_d, num_slots)
        self.cand_col = _grown(self.cand_col, num_slots)
        self.cand_row = _grown(self.cand_row, num_slots)
        self.cursor = _grown(self.cursor, num_slots)

    def init(self, slots, elements, points) -> None:
        residual = self.init_axes(slots, points)
        side = self.side
        grid = (residual[:, 0, :, None]
                + residual[:, 1, None, :]).reshape(slots.size, -1)
        self.ped[elements] += side * side
        # Stable argsort in (i * side + j) flat order — the scalar
        # enumerator's tie-breaking, row for row.
        positions = np.argsort(grid, axis=1, kind="stable")
        self.cand_d[slots] = np.take_along_axis(grid, positions, axis=1)
        self.cand_col[slots] = np.take_along_axis(
            self.ord_i[slots], positions // side, axis=1)
        self.cand_row[slots] = np.take_along_axis(
            self.ord_q[slots], positions % side, axis=1)
        self.cursor[slots] = 0

    def step(self, slots, elements, budget):
        grid = self.side * self.side
        cursor = self.cursor[slots]
        position = np.minimum(cursor, grid - 1)
        distance = self.cand_d[slots, position]
        got = (cursor < grid) & (distance < budget)
        slots_g = slots[got]
        position_g = position[got]
        self.cursor[slots_g] = cursor[got] + 1
        return (got, distance[got], self.cand_col[slots_g, position_g],
                self.cand_row[slots_g, position_g])


def make_kernel(decoder, num_slots: int, levels: np.ndarray,
                ped: np.ndarray, prunes: np.ndarray):
    """Instantiate the vectorised enumerator kernel for ``decoder``.

    ``num_slots`` rows of per-(lane, tree level) state; ``ped`` and
    ``prunes`` are the per-lane tally arrays the kernel increments
    (indexed by the ``elements`` ids passed to ``init``/``step``).
    """
    side = int(levels.shape[0])
    pruner = decoder._pruner
    table = pruner.table if pruner is not None else None
    name = decoder.enumerator
    if name == "zigzag":
        return _ZigzagKernel(num_slots, side, levels, ped, prunes, table)
    if name == "shabany":
        return _ShabanyKernel(num_slots, side, levels, ped, prunes, table)
    if name == "hess":
        return _HessKernel(num_slots, side, levels, ped, prunes)
    return _ExhaustiveKernel(num_slots, side, levels, ped, prunes)
