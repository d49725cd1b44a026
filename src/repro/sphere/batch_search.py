"""Vectorised enumerator kernels for the lockstep engine.

The scalar search in :mod:`repro.sphere.decoder` instantiates one child
enumerator per expanded tree node.  The lockstep engine
(:mod:`repro.runtime.engine`) advances many searches one tree-node step
per tick, so each scalar enumerator has a vectorised *kernel* here
holding its state for every (lane, tree level) slot as flat arrays:

* ``zigzag`` — Geosphere's lazy 2-D zigzag: a bounded per-slot frontier
  array replaces the heap (pop = lexicographic ``(distance, i, j)``
  minimum, matching ``heapq`` tuple order), with deferred successor
  proposals and optional geometric-pruning table lookups;
* ``shabany`` — the same frontier plus the seen-set and the second
  (horizontal) successor proposal;
* ``hess`` — ETH-SD's row-parallel 1-D zigzag: per-row position and
  distance arrays, refill-on-demand;
* ``exhaustive`` — compute-all-then-stable-argsort, cursor per slot.

Every kernel reproduces its scalar enumerator candidate for candidate:
axis orders and residuals come from
:func:`repro.sphere.batch.batched_axis_orders` (bit-exact with the
scalar :class:`~repro.sphere.enumerator.AxisOrder`), candidate distances
are plain elementwise real arithmetic, and the PED / geometric-prune
tallies are incremented at exactly the points the scalar enumerators
increment theirs.  Only the frontier kernels (``zigzag``, ``shabany``)
can hand a half-run search to the numpy-free tail
(:mod:`repro.sphere.tail`, ``kernel.has_tail``); ``hess`` and
``exhaustive`` are comparison baselines and finish in lockstep.
"""

from __future__ import annotations

import numpy as np

from .batch import batched_axis_orders

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
    """Axis-order state shared by every enumerator kernel.

    State lives in flat ``(num_slots, ...)`` arrays indexed by
    ``slot = lane * num_streams + level`` — one slot per (lane, tree
    level) pair, matching the one-enumerator-per-stack-entry shape
    of the scalar search.
    """

    #: Whether :mod:`repro.sphere.tail` can finish this kernel's searches
    #: outside the lockstep frontier; kernels without a tail stay in
    #: lockstep to the end whatever the drain threshold says.
    has_tail = False

    def __init__(self, num_slots: int, side: int, levels: np.ndarray,
                 ped: np.ndarray, prunes: np.ndarray) -> None:
        self.side = side
        self.levels = levels
        self.ped = ped
        self.prunes = prunes
        self.ord_i = np.zeros((num_slots, side), dtype=np.int64)
        self.res_i = np.zeros((num_slots, side), dtype=np.float64)
        self.ord_q = np.zeros((num_slots, side), dtype=np.int64)
        self.res_q = np.zeros((num_slots, side), dtype=np.float64)
        self._iota = np.arange(num_slots, dtype=np.int64)

    def grow(self, num_slots: int, ped: np.ndarray,
             prunes: np.ndarray) -> None:
        """Extend per-slot state to ``num_slots`` rows (demand-grown
        pools).  Existing rows are copied so live searches carry over
        bit-for-bit; ``ped``/``prunes`` re-point the element tallies the
        caller reallocated alongside the kernel."""
        self.ped = ped
        self.prunes = prunes
        self.ord_i = _grown(self.ord_i, num_slots)
        self.res_i = _grown(self.res_i, num_slots)
        self.ord_q = _grown(self.ord_q, num_slots)
        self.res_q = _grown(self.res_q, num_slots)
        self._iota = np.arange(num_slots, dtype=np.int64)

    def init_axes(self, slots: np.ndarray, points: np.ndarray) -> None:
        """Zigzag-order both PAM axes for freshly expanded nodes.

        The I and Q coordinates go through one fused
        ``batched_axis_orders`` call (rows are independent, so stacking
        them is exact) to halve the per-tick call overhead.
        """
        count = points.shape[0]
        coordinates = np.concatenate([points.real, points.imag])
        order, residual = batched_axis_orders(coordinates, self.levels)
        self.ord_i[slots] = order[:count]
        self.res_i[slots] = residual[:count]
        self.ord_q[slots] = order[count:]
        self.res_q[slots] = residual[count:]


class _ZigzagKernel(_KernelBase):
    """Vectorised :class:`GeosphereEnumerator` (lazy 2-D zigzag).

    The scalar heap becomes a bounded unordered slot array; a pop takes
    the lexicographic ``(distance, i, j)`` minimum, which is exactly the
    order ``heapq`` yields for the scalar tuples.  Geosphere's invariant
    (at most one queued candidate per entered column) bounds occupancy by
    ``side``; the Shabany subclass widens the bound.
    """

    #: extra queue slots beyond ``side`` (transient headroom).
    capacity_slack = 2
    has_tail = True

    def __init__(self, num_slots: int, side: int, levels: np.ndarray,
                 ped: np.ndarray, prunes: np.ndarray,
                 table: np.ndarray | None) -> None:
        super().__init__(num_slots, side, levels, ped, prunes)
        self.table = table
        if table is not None:
            self.off_i = np.zeros((num_slots, side), dtype=np.int64)
            self.off_q = np.zeros((num_slots, side), dtype=np.int64)
        capacity = self._capacity(side)
        self.heap_d = np.full((num_slots, capacity), np.inf)
        self.heap_i = np.zeros((num_slots, capacity), dtype=np.int64)
        self.heap_j = np.zeros((num_slots, capacity), dtype=np.int64)
        self.heap_n = np.zeros(num_slots, dtype=np.int64)
        self._positions = np.arange(capacity, dtype=np.int64)
        self.last_i = np.zeros(num_slots, dtype=np.int64)
        self.last_j = np.zeros(num_slots, dtype=np.int64)
        self.has_last = np.zeros(num_slots, dtype=bool)

    def _capacity(self, side: int) -> int:
        return side + self.capacity_slack

    def grow(self, num_slots: int, ped, prunes) -> None:
        super().grow(num_slots, ped, prunes)
        if self.table is not None:
            self.off_i = _grown(self.off_i, num_slots)
            self.off_q = _grown(self.off_q, num_slots)
        self.heap_d = _grown(self.heap_d, num_slots, np.inf)
        self.heap_i = _grown(self.heap_i, num_slots)
        self.heap_j = _grown(self.heap_j, num_slots)
        self.heap_n = _grown(self.heap_n, num_slots)
        self.last_i = _grown(self.last_i, num_slots)
        self.last_j = _grown(self.last_j, num_slots)
        self.has_last = _grown(self.has_last, num_slots)

    def init_axes(self, slots: np.ndarray, points: np.ndarray) -> None:
        count = points.shape[0]
        coordinates = np.concatenate([points.real, points.imag])
        order, residual = batched_axis_orders(coordinates, self.levels)
        self.ord_i[slots] = order[:count]
        self.res_i[slots] = residual[:count]
        self.ord_q[slots] = order[count:]
        self.res_q[slots] = residual[count:]
        if self.table is not None:
            # order[:, 0] is the sliced start, so the pruning offsets of
            # both axes come from one fused |order - start| pass.
            offsets = np.abs(order - order[:, :1])
            self.off_i[slots] = offsets[:count]
            self.off_q[slots] = offsets[count:]

    def init(self, slots: np.ndarray, elements: np.ndarray,
             points: np.ndarray) -> None:
        self.init_axes(slots, points)
        # Step 2 of the paper's algorithm: enqueue the sliced point; its
        # lower bound is zero, so it bypasses the pruning check.
        self.heap_d[slots, 0] = self.res_i[slots, 0] + self.res_q[slots, 0]
        self.heap_i[slots, 0] = 0
        self.heap_j[slots, 0] = 0
        self.heap_n[slots] = 1
        self.has_last[slots] = False
        self.ped[elements] += 1

    # -- proposal chain -------------------------------------------------
    def _admit(self, slots, elements, i, j, budget) -> None:
        """Prune-check then enqueue in-bounds, unseen proposals.

        Shared tail of both frontier kernels' proposal chains — the
        geometric-prunes accounting, capacity guard and heap write must
        stay identical between them, so they live in exactly one place.
        ``slots`` are unique within one call (each stepping slot proposes
        a given successor at most once), so plain fancy writes suffice.
        """
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

    def _propose(self, slots, elements, i, j, budget) -> None:
        in_bounds = (i < self.side) & (j < self.side)
        if not in_bounds.all():
            slots = slots[in_bounds]
            elements = elements[in_bounds]
            i = i[in_bounds]
            j = j[in_bounds]
            budget = budget[in_bounds]
            if slots.size == 0:
                return
        self._admit(slots, elements, i, j, budget)

    def _deferred(self, slots, elements, i, j, budget) -> None:
        """Successors of the previously dequeued point (paper step 3):
        vertical zigzag always, horizontal only from the column's entry
        point ``(i, 0)``."""
        self._propose(slots, elements, i, j + 1, budget)
        horizontal = j == 0
        if horizontal.any():
            self._propose(slots[horizontal], elements[horizontal],
                          i[horizontal] + 1, j[horizontal], budget[horizontal])

    # -- one next_candidate() per active slot ---------------------------
    def step(self, slots, elements, budget):
        deferred = self.has_last[slots]
        if deferred.all():
            self.has_last[slots] = False
            self._deferred(slots, elements, self.last_i[slots],
                           self.last_j[slots], budget)
        elif deferred.any():
            slots_d = slots[deferred]
            self.has_last[slots_d] = False
            self._deferred(slots_d, elements[deferred], self.last_i[slots_d],
                           self.last_j[slots_d], budget[deferred])
        occupancy = self.heap_n[slots]
        valid = self._positions < occupancy[:, None]
        distance = np.where(valid, self.heap_d[slots], np.inf)
        min_distance = distance.min(axis=1)
        got = min_distance < budget
        slots_g = slots[got]
        if slots_g.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return got, np.zeros(0), empty, empty
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


class _ShabanyKernel(_ZigzagKernel):
    """Vectorised :class:`ShabanyEnumerator`: both successors proposed,
    deduplicated with a per-slot seen grid.

    The queued cells form (near-)antichains of the position grid, so the
    frontier stays O(side); the widened capacity plus the overflow guard
    in ``_admit`` keeps the bound honest.
    """

    capacity_slack = 4

    def __init__(self, num_slots, side, levels, ped, prunes, table) -> None:
        super().__init__(num_slots, side, levels, ped, prunes, table)
        self.seen = np.zeros((num_slots, side * side), dtype=bool)

    def _capacity(self, side: int) -> int:
        return 2 * side + self.capacity_slack

    def grow(self, num_slots: int, ped, prunes) -> None:
        super().grow(num_slots, ped, prunes)
        self.seen = _grown(self.seen, num_slots)

    def init(self, slots, elements, points) -> None:
        super().init(slots, elements, points)
        self.seen[slots] = False
        self.seen[slots, 0] = True  # position (0, 0)

    def _propose(self, slots, elements, i, j, budget) -> None:
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
        self._admit(slots, elements, i, j, budget)

    def _deferred(self, slots, elements, i, j, budget) -> None:
        # No PAM-sub-constellation rule: both successors, every time.
        self._propose(slots, elements, i, j + 1, budget)
        self._propose(slots, elements, i + 1, j, budget)


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
        self.init_axes(slots, points)
        self.row_position[slots] = 0
        # Every row's best point up front: sqrt(|O|) PED calcs per node.
        self.row_distance[slots] = self.res_i[slots, :1] + self.res_q[slots]
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
        self.init_axes(slots, points)
        side = self.side
        grid = (self.res_i[slots][:, :, None]
                + self.res_q[slots][:, None, :]).reshape(slots.size, -1)
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
