"""Slot scheduler: packs a frame's searches into a bounded set of lanes.

The frame engine (:mod:`repro.frame.engine`) runs one breadth-synchronised
frontier over every (symbol, subcarrier) search problem of a frame.  Its
vectorised kernels hold per-(search, tree level) state in flat arrays, so
*somebody* has to decide which rows of those arrays belong to which
search.  That is this scheduler's whole job: it owns a fixed pool of
``capacity`` **lanes** (each lane = ``num_streams`` contiguous kernel
slots) and a frame-wide FIFO work queue of search problems.  Searches
from *different subcarriers* share the same kernel arrays — the engine
carries a per-element subcarrier index and gathers each element's ``R``
rows on demand — and whenever a search finishes (its root enumerator runs
dry, its node budget trips, or it is handed to the numpy-free tail) its
lane is released and immediately refilled from the queue, so the lockstep
frontier stays full instead of draining to a handful of stragglers once
per subcarrier.

The scheduler is deliberately dumb about *which* problem goes next (plain
frame order): every search is independent, so packing order cannot change
any result — it only changes how densely the kernel arrays are used.
Correlated-channel frames (similar per-subcarrier ``R``) and
heterogeneous-SNR frames (a few heavy subcarriers) both benefit from the
same mechanism: cheap searches finish early and their lanes are recycled
into the remaining heavy ones.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import require

__all__ = ["LanePool", "SlotScheduler"]


class LanePool:
    """Fixed pool of kernel lanes: take on admission, release on finish.

    The bookkeeping half of lane scheduling, factored out so the one-shot
    frame scheduler below and the resident streaming runtime
    (:mod:`repro.runtime.engine`) share it: lane identity never affects a
    search's float program — kernel slots are fully re-initialised at
    admission — so any component that takes and releases lanes through
    this pool inherits the frame engine's packing behaviour.
    """

    def __init__(self, capacity: int) -> None:
        require(capacity >= 1, "lane pool needs at least one lane")
        self.capacity = capacity
        # Stack of free lanes; popping from the end hands out lane 0 first.
        self._free = list(range(capacity - 1, -1, -1))

    @property
    def free_lanes(self) -> int:
        return len(self._free)

    @property
    def in_use(self) -> int:
        return self.capacity - len(self._free)

    def grow(self, capacity: int) -> None:
        """Add lanes ``[old capacity, capacity)`` to the pool (demand-grown
        streaming pools).  The new lanes join the *bottom* of the free
        stack, so previously existing free lanes still hand out first —
        a pool that never needed to grow hands out the same lane sequence
        as one built at full size, and lane identity never affects a
        search's float program either way."""
        require(capacity >= self.capacity,
                f"cannot shrink lane pool from {self.capacity} to {capacity}")
        if capacity == self.capacity:
            return
        self._free[:0] = list(range(capacity - 1, self.capacity - 1, -1))
        self.capacity = capacity

    def take(self, count: int) -> np.ndarray:
        """Pop ``count`` free lanes (callers bound ``count`` by
        :attr:`free_lanes`)."""
        require(count <= len(self._free),
                f"cannot take {count} lanes with {len(self._free)} free")
        return np.array([self._free.pop() for _ in range(count)],
                        dtype=np.int64)

    def release(self, lanes) -> None:
        """Return finished searches' lanes to the free pool."""
        self._free.extend(int(lane) for lane in np.asarray(lanes).reshape(-1))


class SlotScheduler:
    """Lane pool + frame-wide work queue for the frame engine.

    Parameters
    ----------
    num_problems:
        Total number of (symbol, subcarrier) searches in the frame.
    capacity:
        Number of lanes (concurrent lockstep searches).  Clamped to
        ``num_problems`` — allocating lanes that could never fill would
        only waste kernel memory.
    """

    def __init__(self, num_problems: int, capacity: int) -> None:
        require(num_problems >= 0, "num_problems must be non-negative")
        require(capacity >= 1, "scheduler needs at least one lane")
        self.num_problems = num_problems
        self._pool = LanePool(min(capacity, max(num_problems, 1)))
        self._next = 0

    @property
    def capacity(self) -> int:
        return self._pool.capacity

    @property
    def pending(self) -> int:
        """Problems still waiting in the work queue."""
        return self.num_problems - self._next

    @property
    def free_lanes(self) -> int:
        return self._pool.free_lanes

    def admit(self) -> tuple[np.ndarray, np.ndarray]:
        """Fill free lanes from the queue; returns ``(lanes, elements)``.

        Both arrays have one entry per newly admitted search.  Either may
        be empty (no free lanes, or queue exhausted).
        """
        count = min(self._pool.free_lanes, self.pending)
        if count == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        lanes = self._pool.take(count)
        elements = np.arange(self._next, self._next + count, dtype=np.int64)
        self._next += count
        return lanes, elements

    def release(self, lanes) -> None:
        """Return finished searches' lanes to the free pool."""
        self._pool.release(lanes)
