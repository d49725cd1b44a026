"""The lockstep engine: lane-indexed search pools behind one frontier.

Every depth-first sphere search the library runs in bulk goes through
this module.  A :class:`StreamingFrontier` owns **pools** of lanes — one
pool per search signature — and advances every search in a pool two
candidate attempts per tick in the compiled search core (below).  Hard
(maximum-likelihood) and soft (list) searches differ only in the pool's
leaf policy; ``zigzag`` / ``shabany`` only in the frontier arrays the
pool holds for the core (laid out by
:func:`repro.sphere.tick_kernel.frontier`).

Three entry points feed it, and they differ only in who owns the
frontier and how long it lives:

* ``decode_batch(r, y_hat)`` — a one-subcarrier job built from an
  already-triangular system, on a private frontier (:func:`run_frame`);
* ``decode_frame(channels, received)`` — one frame's S×T searches on a
  private frontier, ticked until idle (:func:`run_frame`);
* :class:`~repro.runtime.session.UplinkRuntime` — a **resident**
  frontier: frontier arrays and lanes are allocated once and survive
  across frames, freed lanes are refilled from the frame-tagged
  admission queue (:mod:`repro.runtime.queue`) regardless of which frame
  the next search belongs to, so consecutive frames pipeline and the
  straggler hand-off happens when the queue runs dry — typically once
  per *workload*, not once per frame.

Who executes a tick, and the straggler drain
-------------------------------------------
The tick is the engine's *schedule* — admission, budget stops and the
QoS hooks (``degrade`` / ``evict``) all act between ticks.  A pool with
frontier arrays (``pool.has_core``: ``zigzag`` / ``shabany``, wherever
:mod:`repro.sphere.tick_kernel` could build the core) executes its step
**in the core**: one native call gives every active lane two candidate
attempts (``_LOCKSTEP_ATTEMPTS``), in place on the pool's own frontier
and lane arrays, and flags the lanes that finished (tree exhausted or
per-lane node budget reached); they retire through
``_finish_lockstep``.  Admission only writes a search's lane rows and
leaves it above its root: the core expands the root, with the same
program as every other node, in the call that gives the search its
first attempts.  A tick costs ~0.05 ms + ~0.1 microseconds per lane,
however many attempts it runs: two per tick halve the ticks a frame
takes against one, and keep every QoS point at most two scalar-loop
iterations away.

Sphere-search cost is heavy-tailed, and that fixed ~0.05 ms is paid
however few lanes are live.  When a pool's queue is dry and its active
set is down to ``drain_threshold`` lanes, the same call is made with an
unlimited allowance: one tick runs the survivors to completion, each
under its own lane budget (so a deadline-degraded frame stops at its
shrunk cap there too).  That drain is the only place a core pool runs
searches to completion; everywhere else the tick, and with it every QoS
point, stays two candidate attempts long.

Every other pool — ``hess`` / ``exhaustive``, or any pool on a box
without a C compiler (one warning) — has no frontier and
``drain_threshold`` 0: the tick that admits a search runs it to
completion through the decoder's own scalar search, under its lane
budget, and retires it the same way, so such a pool never has a search
in flight between ticks.
Time in the core or the scalar search counts as kernel time in the tick
telemetry (``last_tick_kernel_s``).

Bit-exactness argument: every search reads only per-lane copies of its
element's own ``R``, observation and diagonal scalings, and executes the
scalar loop's iterations in order — the core operation for operation
(its header lists the float programs it keeps), a pool without a core
by running the loop itself — regardless of which searches, of which
frames, share a tick with it.  So results and counters are
bit-identical to per-slot ``decode_triangular`` /
``decode_soft_triangular`` for *every* capacity, drain threshold,
attempt allowance, admission order and in-flight interleaving
(``tests/test_engine.py`` pins all three entry points to the scalar
oracle; ``tests/test_runtime.py`` adds a hypothesis sweep over
submission permutations and budgets).

Searches are grouped into **pools** by search signature
(:func:`~repro.runtime.queue.search_signature`, which the detector farm
routes by too: hard/soft, constellation, stream count, enumerator,
pruning, node budget, list size): searches in one pool share frontier
arrays and tick together, and the pools share the frontier's global
lane budget, so a mixed-constellation cell workload still keeps every
lane busy.  A homogeneous workload — the benchmark's 16-QAM 4x4 stream
— is exactly one pool.

Each pool allocates its frontier and lane arrays **on demand**: a pool
starts at :data:`DEFAULT_INITIAL_LANES` lanes (or the global capacity if
smaller) and grows geometrically whenever admission wants more lanes
than it has allocated, up to the shared global budget — so shards ×
signatures stays bounded by what the workload actually uses instead of
``capacity`` lanes of frontier state per signature.  Growth is
invisible to results: every array keeps its existing rows bit-for-bit
(live searches carry over), new rows hold construction fills that
admission or the core's node expansion rewrites before use, and the new
lanes join the bottom of the free stack so lane hand-out order — which
never affects a search's float program anyway — matches a pool built at
full size.
"""

from __future__ import annotations

import time

import numpy as np

from ..sphere import tick_kernel
from ..obs.trace import FrameTracer
from ..utils.validation import require
from .queue import AdmissionQueue, FrameJob, search_signature

__all__ = ["DEFAULT_INITIAL_LANES", "DEFAULT_LANE_CAPACITY",
           "DRAIN_THRESHOLD_CAP", "LANE_POLICIES", "LanePool",
           "StreamingFrontier", "run_frame"]

#: Default global lane budget.  Large enough that typical frames (64
#: subcarriers x tens of OFDM symbols) keep the whole frame in lockstep,
#: small enough that the per-slot frontier arrays stay cache- and
#: memory-friendly for dense constellations; workloads with more
#: searches stream through the admission queue's refill.
DEFAULT_LANE_CAPACITY = 2048

#: Ceiling for the default straggler-drain threshold (``capacity // 6``
#: below it): the frontier stays efficient down to a small *absolute*
#: active count.  Measured on the ladder's hard 16-QAM 4x4 x
#: 64-subcarrier corpus (coded hard+soft cell mix in brackets), closed
#: loop, ticks without admission: a tick is ~0.05 ms + ~0.1 us x lanes
#: (~0.10 ms + ~0.13), of which the core call is ~0.02 ms + ~0.08 us x
#: lanes — 40 us at 33-64 lanes, 59 at 129-256, 146 above 512 — and a
#: drain of <= 32 survivors ~0.27 ms at 0.1 us/node.  The last searches
#: of a workload outlive the rest by tens of ticks, a tick's fixed
#: ~0.05 ms buys <= 3 us of search at <= 32 lanes, and one drain tick
#: saves all of them.  Above 32 the one tick that drains a *list* (soft)
#: pool gets long enough to move the median latency of the light frames
#: sharing the runtime (the sweep over {16, 24, 32, 48} that set the
#: cap, when the step ran as numpy array ops, read ``coded_soft_cell``
#: p50 102-104 ms at 32 against 141-171 at 48).  With the core stepping
#: two attempts a tick (:data:`_LOCKSTEP_ATTEMPTS`) the cap still holds
#: the drain tick under the light frames' latency; raising it moves QoS
#: points the same way a larger allowance does.
DRAIN_THRESHOLD_CAP = 32

# Candidate attempts each active search gets per lockstep tick.  A
# tick's fixed ~0.05 ms is paid once per call however many attempts the
# core runs, so two attempts halve the ticks per frame (hard 16-QAM 4x4
# ladder frames: 12.3 -> 6.25) and every QoS point between ticks stays
# at most two scalar-loop iterations away.  Larger allowances were
# measured (8: ~1.8x the frames/s of one attempt) but grow the results
# the benchmark's closed loop holds per pass past its memory bound and
# narrow the pipelining margin; they wait for both to be measured
# differently.
# Any allowance is the same program per search, so results, LLRs and
# counters do not depend on it.
_LOCKSTEP_ATTEMPTS = 2

#: Lanes a pool allocates up front; pools grow geometrically on
#: demand from here, capped by the engine's global lane budget.
DEFAULT_INITIAL_LANES = 64

_EMPTY = np.empty(0, dtype=np.int64)

#: Per-lane node-budget value meaning "no cap": larger than any count a
#: search can accumulate, so the always-on budget check is a no-op for
#: unbudgeted, undegraded searches.
_NO_BUDGET = np.iinfo(np.int64).max

#: Lane-refill policies.  ``"deadline"`` (default) serves admission
#: queues class-aware (strict priority, expedited frames first) and
#: ticks the pool holding the most urgent queued work first, so it wins
#: the shared lane budget; ``"fifo"`` ignores priorities entirely — the
#: pre-QoS behaviour, kept as the SLO benchmark's baseline.
LANE_POLICIES = ("deadline", "fifo")


def _grown(array: np.ndarray, rows: int, fill=0) -> np.ndarray:
    """Reallocate ``array`` to ``rows`` leading rows: existing rows are
    copied (live per-lane state carries over bit-for-bit), new rows get
    ``fill`` — the same value construction used."""
    out = np.full((rows,) + array.shape[1:], fill, dtype=array.dtype)
    out[:array.shape[0]] = array
    return out


class _ResultArena:
    """Result rows of a pool's in-flight frames.

    A frame's searches finish a few per tick, interleaved with other
    frames'.  Each frame owns a contiguous run of rows here from its
    first lane to its completion and every lane knows its destination
    row, so one tick's retirements cost one gather and one scatter per
    result array however many frames they belong to; the frame takes a
    copy of its rows when its last search retires.  The rows stand in
    for per-frame result arrays a frame would otherwise hold while in
    flight (and are recycled between equal-sized frames), so the arena
    costs no resident memory.
    """

    def __init__(self, lane_arrays) -> None:
        # One array per lane-indexed result array, same dtype and
        # trailing shape.
        self._arrays = tuple(np.empty((0,) + array.shape[1:], array.dtype)
                             for array in lane_arrays)
        self._top = 0
        self._claims = 0
        self._spare: dict[int, list[int]] = {}

    def claim(self, rows: int) -> int:
        """First row of a fresh ``rows``-row run."""
        self._claims += 1
        spare = self._spare.get(rows)
        if spare:
            return spare.pop()
        base = self._top
        self._top = base + rows
        size = self._arrays[0].shape[0]
        if self._top > size:
            # Untouched rows of an ``empty`` array are not resident, so
            # doubling is free until frames actually use the rows.
            grown = []
            for array in self._arrays:
                bigger = np.empty((max(2 * size, self._top),)
                                  + array.shape[1:], array.dtype)
                bigger[:base] = array[:base]
                grown.append(bigger)
            self._arrays = tuple(grown)
        return base

    def release(self, base: int, rows: int) -> None:
        self._claims -= 1
        if self._claims:
            self._spare.setdefault(rows, []).append(base)
        else:
            # Nothing in flight: start over, so a drifting frame size
            # cannot strand rows for the life of the pool.
            self._top = 0
            self._spare.clear()

    def retire(self, dest: np.ndarray, lanes: np.ndarray,
               lane_arrays) -> None:
        for array, lane_array in zip(self._arrays, lane_arrays):
            array[dest] = lane_array[lanes]

    def take(self, base: int, rows: int) -> tuple:
        return tuple(array[base:base + rows].copy()
                     for array in self._arrays)


class LanePool:
    """Pool of lanes: take on admission, release on finish.

    Each lane is ``num_streams`` contiguous frontier slots.  Lane
    identity never affects a search's float program — the core rewrites
    a slot whole when it expands a node into it — so which lane a search
    lands in only changes how densely the arrays are used.
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
        pools).  The new lanes join the *bottom* of the free stack, so
        previously existing free lanes still hand out first — a pool
        that never needed to grow hands out the same lane sequence as
        one built at full size, and lane identity never affects a
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
        keep = len(self._free) - count
        taken = self._free[keep:]
        del self._free[keep:]
        taken.reverse()                  # the order successive pops give
        return np.array(taken, dtype=np.int64)

    def release(self, lanes) -> None:
        """Return finished searches' lanes to the free pool."""
        self._free.extend(np.asarray(lanes).reshape(-1).tolist())


class _PoolBase:
    """Frontier arrays + lane state for one search signature.

    All per-search state is *lane*-indexed: a search owns its lane from
    admission to finish, its outcome moves to its frame's rows of the
    pool's result arena the moment it finishes, and the lane is recycled
    for the next queued search of any frame.
    """

    def __init__(self, engine: "StreamingFrontier",
                 template: FrameJob) -> None:
        decoder = template.decoder
        capacity = min(engine.capacity, engine.initial_lanes)
        num_streams = template.num_streams
        self.engine = engine
        self.decoder = decoder
        self.constellation = decoder.constellation
        self.num_streams = num_streams
        self.node_budget = decoder.node_budget
        self.initial_radius_sq = decoder.initial_radius_sq
        if engine._drain_threshold is None:
            # From the *global* capacity — the drain hand-off point is a
            # latency trade-off, not an allocation detail, so it must not
            # move when the pool grows.
            self.drain_threshold = max(1, min(DRAIN_THRESHOLD_CAP,
                                              engine.capacity // 6))
        else:
            self.drain_threshold = engine._drain_threshold
        self.queue = AdmissionQueue(fifo=engine.lane_policy == "fifo")
        self.allocated = capacity
        self.lanes = LanePool(capacity)
        self.active = _EMPTY
        # Per-lane node budget: the decoder's own budget normally, a
        # shrunk value for lanes of a degraded frame, _NO_BUDGET when
        # the decoder is unbudgeted.
        self.lane_budget = np.full(capacity, _NO_BUDGET, dtype=np.int64)

        # Per-lane complexity tallies, packed one row per lane so a
        # reset or a retirement moves all five at once; the named
        # columns are views.
        self.tally = np.zeros((capacity, 5), dtype=np.int64)
        self._bind_tallies()
        #: The frontier arrays the compiled core steps this pool's
        #: searches on, keyed by ``search_t`` field, or ``None``: a
        #: ``hess`` / ``exhaustive`` pool or a box without the core runs
        #: each search to completion through the decoder's scalar search
        #: instead, with nothing to drain.
        self.frontier = tick_kernel.frontier(decoder, capacity * num_streams)
        # The core's marshalled view of this pool's arrays (tick_kernel.run).
        self._marshalled: dict = {}
        if self.frontier is None:
            self.drain_threshold = 0
            self._enumerate = decoder._enumerator_factory()
        # Which (frame, element) each lane is running.  Frames are
        # interned to dense integer ids so the per-tick grouping and the
        # QoS lane scans are array compares instead of per-lane Python
        # identity walks rebuilt every tick.
        self.jobidx_of = np.zeros(capacity, dtype=np.int64)
        self._jobidx: dict[int, int] = {}
        #: frame id -> (frame, first arena row of its results).
        self._jobs_by_idx: dict[int, tuple[FrameJob, int]] = {}
        self._next_jobidx = 0
        self.elem_of = np.zeros(capacity, dtype=np.int64)
        # The arena row each lane's outcome retires to (see _ResultArena).
        self.dest_of = np.zeros(capacity, dtype=np.int64)
        # Per-lane copies of the element's channel: its subcarrier's R,
        # rotated observation and diagonal scalings.
        self.lane_r = np.zeros((capacity, num_streams, num_streams),
                               dtype=np.complex128)
        self.lane_y = np.zeros((capacity, num_streams), dtype=np.complex128)
        self.lane_diag = np.ones((capacity, num_streams))
        self.lane_diag_sq = np.ones((capacity, num_streams))
        # Search-path state, lane-indexed.
        self.level = np.zeros(capacity, dtype=np.int64)
        self.radius = np.zeros(capacity)
        self.parent = np.zeros((capacity, num_streams))
        self.path_cols = np.zeros((capacity, num_streams), dtype=np.int64)
        self.path_rows = np.zeros((capacity, num_streams), dtype=np.int64)
        self.chosen = np.zeros((capacity, num_streams), dtype=np.complex128)

    def _bind_tallies(self) -> None:
        (self.ped, self.visited, self.expanded, self.leaves,
         self.prunes) = self.tally.T

    @property
    def has_core(self) -> bool:
        """Whether the compiled core executes this pool's searches."""
        return self.frontier is not None

    @property
    def has_work(self) -> bool:
        return bool(self.active.size or self.queue.pending)

    # -- demand growth --------------------------------------------------
    def _grow(self, capacity: int) -> None:
        """Reallocate every lane-indexed array to ``capacity`` rows.

        Existing rows are copied bit-for-bit (live searches keep their
        state mid-search) and new rows hold the construction fills —
        which admission, or the core when it expands a node, rewrites
        before anything reads them — so growth cannot change any result.
        """
        self.lanes.grow(capacity)
        self.lane_budget = _grown(self.lane_budget, capacity, _NO_BUDGET)
        self.tally = _grown(self.tally, capacity)
        self._bind_tallies()
        if self.frontier is not None:
            self.frontier = {
                name: _grown(array, capacity * self.num_streams)
                for name, array in self.frontier.items()}
        self.jobidx_of = _grown(self.jobidx_of, capacity)
        self.elem_of = _grown(self.elem_of, capacity)
        self.dest_of = _grown(self.dest_of, capacity)
        self.lane_r = _grown(self.lane_r, capacity)
        self.lane_y = _grown(self.lane_y, capacity)
        self.lane_diag = _grown(self.lane_diag, capacity, 1.0)
        self.lane_diag_sq = _grown(self.lane_diag_sq, capacity, 1.0)
        self.level = _grown(self.level, capacity)
        self.radius = _grown(self.radius, capacity)
        self.parent = _grown(self.parent, capacity)
        self.path_cols = _grown(self.path_cols, capacity)
        self.path_rows = _grown(self.path_rows, capacity)
        self.chosen = _grown(self.chosen, capacity)
        self.allocated = capacity

    # -- admission ------------------------------------------------------
    def _reset_lanes(self, lanes: np.ndarray) -> None:
        # Above the root: the core expands it (and writes the root's
        # parent distance) before the first attempt, and a search writes
        # each level's path and decided symbol before reading them.
        self.level[lanes] = self.num_streams
        self.lane_budget[lanes] = (_NO_BUDGET if self.node_budget is None
                                   else self.node_budget)
        self.radius[lanes] = self.initial_radius_sq
        self.tally[lanes] = 0

    def _admit(self) -> None:
        """Refill free lanes from the frame-tagged queue."""
        want = min(self.engine.free_budget, self.queue.pending)
        if want > self.lanes.free_lanes and self.allocated < self.engine.capacity:
            # Demand growth: at least double (amortised-constant
            # reallocation), at most the global budget, at least enough
            # for everything admission wants right now.
            in_lane = self.allocated - self.lanes.free_lanes
            self._grow(min(self.engine.capacity,
                           max(2 * self.allocated, in_lane + want)))
        room = min(self.lanes.free_lanes, want)
        if room <= 0:
            return
        admitted = []
        for job, elements in self.queue.take(room):
            lanes = self.lanes.take(elements.size)
            index, base = self._intern(job)
            self.jobidx_of[lanes] = index
            self.elem_of[lanes] = elements
            self.dest_of[lanes] = base + elements
            subcarriers = elements // job.num_symbols
            self.lane_r[lanes] = job.r_stack[subcarriers]
            self.lane_y[lanes] = job.y_flat[elements]
            self.lane_diag[lanes] = job.diag_stack[subcarriers]
            self.lane_diag_sq[lanes] = job.diag_sq_stack[subcarriers]
            self._reset_lanes(lanes)
            if job.degraded_budget is not None:
                # Searches of a degraded frame start under the shrunk
                # budget (never looser than the decoder's own).
                self.lane_budget[lanes] = np.minimum(
                    self.lane_budget[lanes], job.degraded_budget)
            if job.first_lane_at is None:
                # Stage-boundary stamp: the frame's first search took a
                # lane — queue wait ends here.  Stamped with tracing off
                # too (one clock read per frame); the event itself is
                # free unless the frame carries a live trace.
                job.first_lane_at = self.engine.tracer.clock()
                self.engine.tracer.emit(job.trace, "first-lane",
                                        t=job.first_lane_at,
                                        lanes=int(elements.size))
            admitted.append(lanes)
        lanes = np.concatenate(admitted)
        self.engine.in_use += lanes.size
        if self.active.size == 0:
            self.active = lanes
        else:
            self.active = np.concatenate([self.active, lanes])

    # -- retirement -----------------------------------------------------
    def _intern(self, job: FrameJob) -> tuple[int, int]:
        """``(dense id, arena base)`` of a frame with searches in lanes,
        claimed when its first search is admitted."""
        index = self._jobidx.get(id(job))
        if index is None:
            index = self._next_jobidx
            self._next_jobidx = index + 1
            self._jobidx[id(job)] = index
            self._jobs_by_idx[index] = (job, self.arena.claim(
                job.num_problems))
        return index, self._jobs_by_idx[index][1]

    def _forget(self, job: FrameJob) -> None:
        """Drop a finished/abandoned frame's id mapping and arena rows
        (stale ``jobidx_of`` rows belong to free lanes, which admission
        rewrites before any tick reads them)."""
        index = self._jobidx.pop(id(job), None)
        if index is not None:
            _, base = self._jobs_by_idx.pop(index)
            self.arena.release(base, job.num_problems)

    def _release(self, lanes: np.ndarray) -> None:
        self.lanes.release(lanes)
        self.engine.in_use -= lanes.size

    def _retire(self, index: int, count: int, completed: list) -> None:
        job, base = self._jobs_by_idx[index]
        job.remaining -= count
        if job.remaining == 0:
            job.collect(*self.arena.take(base, job.num_problems))
            completed.append(job)
            self._forget(job)

    # -- QoS hooks (driven by the session's deadline machinery) ---------
    def degrade(self, job: FrameJob, budget: int) -> None:
        """Shrink the node budget of the job's in-lane searches.

        Queued searches pick the shrunk budget up at admission (the job
        carries ``degraded_budget``); this caps the ones already
        running.  A lane whose search has already visited that many
        nodes finishes at the next tick's budget stop with its
        best-so-far — exactly the scalar early-break semantics, so the
        degraded result is real work delivered early, never fabricated.
        A pool without a core has no search in a lane between ticks, so
        there only the queued searches are degraded.
        """
        jobidx = self._jobidx.get(id(job))
        if jobidx is None or not self.active.size:
            return
        lanes = self.active[self.jobidx_of[self.active] == jobidx]
        if lanes.size:
            self.lane_budget[lanes] = np.minimum(self.lane_budget[lanes],
                                                 budget)

    def evict(self, job: FrameJob) -> int:
        """Abandon the job's in-lane searches (expiry / cancellation):
        remove them from the active set and free their lanes (a pool
        without a core has none between ticks).  Returns how many
        searches were evicted."""
        jobidx = self._jobidx.get(id(job))
        if jobidx is None:
            return 0
        self._forget(job)
        if not self.active.size:
            return 0
        mask = self.jobidx_of[self.active] == jobidx
        if not mask.any():
            return 0
        victims = self.active[mask]
        self.active = self.active[~mask]
        self._release(victims)
        return int(victims.size)

    def _finish_lockstep(self, lanes: np.ndarray, completed: list) -> None:
        """Retire finished searches (``lanes`` is non-empty): one gather
        and scatter per result array moves every outcome to its frame's
        arena rows, whatever mix of frames finishes this tick; frames
        whose last search this was complete in first-lane order."""
        self.arena.retire(self.dest_of[lanes], lanes, self._results())
        keys = self.jobidx_of[lanes]
        oldest = int(keys.min())
        if oldest == int(keys.max()):
            # The common streaming case: one frame's lanes.
            self._retire(oldest, lanes.size, completed)
        else:
            counts = np.bincount(keys - oldest)
            for offset in np.flatnonzero(counts).tolist():
                self._retire(oldest + offset, int(counts[offset]), completed)
        self._release(lanes)

    def _advance(self, completed: list, attempts: int | None) -> None:
        """Give every active search ``attempts`` candidate attempts
        (``_LOCKSTEP_ATTEMPTS``: a lockstep step; ``None``: to
        completion), each under its own lane budget, and retire the
        finished ones."""
        active = self.active
        self.engine.last_tick_lanes += active.size
        started = time.perf_counter()
        done = self._run(active, attempts)
        self.engine.last_tick_kernel_s += time.perf_counter() - started
        if done.any():
            self.active = active[~done]
            self._finish_lockstep(active[done], completed)

    def _run(self, active: np.ndarray, attempts: int | None) -> np.ndarray:
        if self.frontier is None:
            return self._run_scalar(active)
        # Lane-indexed everywhere: a search's state rows, frontier slots
        # and channel copy all live at its lane, and its absolute budget
        # sits in lane_budget (visited starts at zero).
        return tick_kernel.run(self.decoder, self._core_arrays(), active,
                               self.lane_budget[active], attempts,
                               self._marshalled)

    def _core_arrays(self) -> dict:
        """Every array of this pool the core reads or writes, keyed by
        ``search_t`` field (the pool's own names, bar the channel
        copies)."""
        return dict(self.frontier, r=self.lane_r, y=self.lane_y,
                    diag=self.lane_diag, diag_sq=self.lane_diag_sq,
                    level=self.level, radius=self.radius, parent=self.parent,
                    path_cols=self.path_cols, path_rows=self.path_rows,
                    chosen=self.chosen, ped=self.ped, visited=self.visited,
                    expanded=self.expanded, leaves=self.leaves,
                    prunes=self.prunes,
                    **{name: getattr(self, name) for name in self._LEAF})

    def _run_scalar(self, active: np.ndarray) -> np.ndarray:
        """A pool without a core: run each listed search to completion
        through the decoder's own scalar search, under its lane budget,
        and write the lane rows the core would have — the five tallies,
        then the leaf policy's (``_bank``).  Everything finishes."""
        search = self._scalar_search()
        for lane in active.tolist():
            outcome = search(self.lane_r[lane], self.lane_y[lane],
                             self.lane_diag[lane], self.lane_diag_sq[lane],
                             self._enumerate, int(self.lane_budget[lane]))
            counters = outcome.counters
            self.tally[lane] = (counters.ped_calcs, counters.visited_nodes,
                                counters.expanded_nodes, counters.leaves,
                                counters.geometric_prunes)
            self._bank(lane, outcome)
        return np.ones(active.size, dtype=bool)

    # -- one breadth-synchronised step ----------------------------------
    def tick(self, completed: list) -> None:
        """Advance every active search ``_LOCKSTEP_ATTEMPTS`` (two)
        candidate attempts, frame boundaries ignored: budget stops,
        refill, drain check, then the step in the compiled core, which
        re-checks each lane's budget before every attempt.  Once the
        queue is dry and at most ``drain_threshold`` searches remain,
        the core runs them to completion instead, each under its own
        lane budget.  A pool without a core finishes every search in the
        tick that admits it."""
        if self.active.size:
            # Per-lane budgets: the decoder's own node budget for every
            # undegraded search (bit-exact with the scalar early break),
            # a shrunk value for degraded frames, _NO_BUDGET otherwise.
            over = self.visited[self.active] >= self.lane_budget[self.active]
            if over.any():
                # Engineering guard, per element: stop and keep what the
                # search banked so far — exactly the scalar early break.
                self._finish_lockstep(self.active[over], completed)
                self.active = self.active[~over]
        if self.queue.pending and self.lanes.free_lanes:
            self._admit()
        if self.active.size == 0:
            return
        drain = (not self.queue.pending
                 and self.active.size <= self.drain_threshold)
        self._advance(completed, None if drain else _LOCKSTEP_ATTEMPTS)


class _HardPool(_PoolBase):
    """Maximum-likelihood searches under the Schnorr–Euchner radius."""

    #: The best-leaf rows the core writes, named as ``search_t`` and
    #: this pool name them.
    _LEAF = ("best_cols", "best_rows", "best_dist")

    def __init__(self, engine, template) -> None:
        super().__init__(engine, template)
        capacity = self.allocated
        self.best_cols = np.full((capacity, self.num_streams), -1,
                                 dtype=np.int64)
        self.best_rows = np.full((capacity, self.num_streams), -1,
                                 dtype=np.int64)
        self.best_dist = np.full(capacity, np.inf)
        self.arena = _ResultArena(self._results())

    def _results(self):
        # What FrameJob.collect takes for a hard frame.
        return self.tally, self.best_dist, self.best_cols, self.best_rows

    def _grow(self, capacity: int) -> None:
        super()._grow(capacity)
        self.best_cols = _grown(self.best_cols, capacity, -1)
        self.best_rows = _grown(self.best_rows, capacity, -1)
        self.best_dist = _grown(self.best_dist, capacity, np.inf)

    def _reset_lanes(self, lanes) -> None:
        super()._reset_lanes(lanes)
        self.best_cols[lanes] = -1
        self.best_rows[lanes] = -1
        self.best_dist[lanes] = np.inf

    def _scalar_search(self):
        return self.decoder._search

    def _bank(self, lane: int, result) -> None:
        if result.found:
            self.best_dist[lane] = result.distance_sq
            self.best_cols[lane], self.best_rows[lane] = (
                self.constellation.col_row(result.symbol_indices))


class _SoftPool(_PoolBase):
    """List searches under the bounded-best-leaf radius policy."""

    #: The leaf-list rows the core writes (``list_d``'s width is the
    #: list size), named as ``search_t`` and this pool name them.
    _LEAF = ("list_d", "list_seq", "list_cols", "list_rows", "list_n",
             "leaf_seq")

    def __init__(self, engine, template) -> None:
        super().__init__(engine, template)
        capacity = self.allocated
        list_size = template.decoder.list_size
        self.list_d = np.full((capacity, list_size), np.inf)
        self.list_seq = np.zeros((capacity, list_size), dtype=np.int64)
        self.list_cols = np.zeros((capacity, list_size, self.num_streams),
                                  dtype=np.int64)
        self.list_rows = np.zeros((capacity, list_size, self.num_streams),
                                  dtype=np.int64)
        self.list_n = np.zeros(capacity, dtype=np.int64)
        self.leaf_seq = np.zeros(capacity, dtype=np.int64)
        self.arena = _ResultArena(self._results())

    def _results(self):
        # What FrameJob.collect takes for a soft frame.
        return (self.tally, self.list_d, self.list_seq, self.list_cols,
                self.list_rows, self.list_n)

    def _grow(self, capacity: int) -> None:
        super()._grow(capacity)
        self.list_d = _grown(self.list_d, capacity, np.inf)
        self.list_seq = _grown(self.list_seq, capacity)
        self.list_cols = _grown(self.list_cols, capacity)
        self.list_rows = _grown(self.list_rows, capacity)
        self.list_n = _grown(self.list_n, capacity)
        self.leaf_seq = _grown(self.leaf_seq, capacity)

    def _reset_lanes(self, lanes) -> None:
        super()._reset_lanes(lanes)
        self.list_d[lanes] = np.inf
        self.list_seq[lanes] = 0
        self.list_cols[lanes] = 0
        self.list_rows[lanes] = 0
        self.list_n[lanes] = 0
        self.leaf_seq[lanes] = 0

    def _scalar_search(self):
        return self.decoder._search_soft

    def _bank(self, lane: int, state) -> None:
        self.leaf_seq[lane] = state.leaf_counter
        self.list_n[lane] = state.into(self.list_d[lane], self.list_seq[lane],
                                       self.list_cols[lane],
                                       self.list_rows[lane])


class StreamingFrontier:
    """The one lockstep engine: resident behind
    :class:`~repro.runtime.session.UplinkRuntime`, private to a call
    behind ``decode_frame`` / ``decode_batch`` (:func:`run_frame`).

    Parameters
    ----------
    capacity:
        Global lane budget shared by every pool (default
        :data:`DEFAULT_LANE_CAPACITY`) — how many searches, across all
        in-flight frames, advance in lockstep at once.
    lane_policy:
        Lane-refill policy, one of :data:`LANE_POLICIES`.
        ``"deadline"`` (default) serves admission queues class-aware and
        hands the shared lane budget to the pool with the most urgent
        queued work first; ``"fifo"`` ignores priorities — the pre-QoS
        baseline.  Either way each search runs the same float program,
        so per-frame results are policy-independent.
    initial_lanes:
        Lanes each pool allocates up front (default
        :data:`DEFAULT_INITIAL_LANES`, clamped to ``capacity``); pools
        grow geometrically on demand up to the global budget.  Purely an
        allocation knob — growth is invisible to results.
    tracer:
        :class:`~repro.obs.trace.FrameTracer` shared with the owning
        session, for engine-side lifecycle events (first-lane, evict,
        expedite).  ``None`` (default) installs a disabled tracer.
    """

    def __init__(self, *, capacity: int | None = None,
                 lane_policy: str = "deadline",
                 initial_lanes: int | None = None,
                 tracer: FrameTracer | None = None) -> None:
        if capacity is None:
            capacity = DEFAULT_LANE_CAPACITY
        if initial_lanes is None:
            initial_lanes = DEFAULT_INITIAL_LANES
        require(capacity >= 1, "streaming frontier needs at least one lane")
        require(initial_lanes >= 1,
                "pools need at least one initial lane")
        require(lane_policy in LANE_POLICIES,
                f"unknown lane policy {lane_policy!r}; choose from "
                f"{LANE_POLICIES}")
        self.capacity = capacity
        # The straggler hand-off point pools read when they are built:
        # ``None`` is ``capacity // 6`` capped at DRAIN_THRESHOLD_CAP.
        # The engine picks it, not the caller; tests pin another value
        # by setting this before the first submit (0 keeps every search
        # in lockstep to the end).
        self._drain_threshold: int | None = None
        self.lane_policy = lane_policy
        self.initial_lanes = initial_lanes
        #: Lifecycle tracer shared with the owning session.  A frame's
        #: engine-side events (first-lane, evict, expedite) stamp onto
        #: ``job.trace`` through it; the default is a disabled tracer so
        #: a standalone frontier pays only `is None` tests.  Its clock
        #: also stamps ``first_lane_at`` for the stage decomposition.
        self.tracer = tracer if tracer is not None else FrameTracer()
        #: Seconds the last tick() spent inside kernel work (the compiled
        #: core or the scalar search), for the runtime's
        #: kernel-vs-orchestration split, and the lanes it ran there.
        self.last_tick_kernel_s = 0.0
        self.last_tick_lanes = 0
        self.in_use = 0
        self._pools: dict[tuple, _PoolBase] = {}

    @property
    def free_budget(self) -> int:
        """Lanes left under the global budget, across all pools."""
        return self.capacity - self.in_use

    @property
    def pending(self) -> int:
        """Searches queued but not yet in a lane, across all pools."""
        return sum(pool.queue.pending for pool in self._pools.values())

    @property
    def idle(self) -> bool:
        return not any(pool.has_work for pool in self._pools.values())

    def occupancy(self) -> float:
        """Lanes the last tick advanced, as a fraction of the lanes
        *allocated* (0 before any pool exists) — counted when the tick
        ran them, so a drain tick that has retired every lane by the
        time it returns still reads as full as it was.
        Pools allocate on demand, so this is how full the kernel arrays
        a tick actually sweeps are, not how much of the global budget a
        workload happens to need."""
        allocated = sum(pool.allocated for pool in self._pools.values())
        return self.last_tick_lanes / allocated if allocated else 0.0

    def submit(self, job: FrameJob) -> None:
        """Queue every search of an admitted frame, tagged with its id,
        in the pool of its :func:`search_signature`."""
        key = search_signature(job.decoder, job.num_streams)
        pool = self._pools.get(key)
        if pool is None:
            pool = (_SoftPool if job.kind == "soft" else _HardPool)(self, job)
            self._pools[key] = pool
        job.pool = pool
        pool.queue.push(job)

    def remove(self, job: FrameJob) -> int:
        """Abandon every unfinished search of a frame — queued and
        in-lane alike — freeing its lanes for the refill.  Returns how
        many searches were dropped (0 for a frame the engine never saw,
        e.g. a degenerate empty frame)."""
        pool = job.pool
        if pool is None:
            return 0
        dropped = pool.queue.remove(job) + pool.evict(job)
        if dropped and job.trace is not None:
            self.tracer.emit(job.trace, "evict", searches=dropped)
        return dropped

    def degrade(self, job: FrameJob, budget: int) -> None:
        """Shrink the node budgets of a frame's remaining searches (the
        job's ``degraded_budget`` covers the queued ones at admission;
        this caps the in-lane ones) and expedite its queued searches to
        the front of their class."""
        pool = job.pool
        if pool is None:
            return
        pool.degrade(job, budget)
        if pool.queue.expedite(job) and job.trace is not None:
            self.tracer.emit(job.trace, "expedite")

    def reprioritise(self, job: FrameJob, priority: int) -> None:
        """Move a frame's still-queued searches to another priority
        class (in-lane searches keep their lanes — reprioritising never
        undoes work already started)."""
        if job.pool is not None:
            job.pool.queue.reprioritise(job, priority)

    def _tick_order(self) -> list[_PoolBase]:
        pools = [pool for pool in self._pools.values() if pool.has_work]
        if self.lane_policy == "deadline" and len(pools) > 1:
            # The pool holding the most urgent queued work admits first,
            # so it wins the shared lane budget.  Sort stability keeps
            # the submission order between equally urgent pools.
            def urgency(pool: _PoolBase) -> float:
                head = pool.queue.head_priority
                return float("inf") if head is None else float(head)

            pools.sort(key=urgency)
        return pools

    def tick(self) -> list[FrameJob]:
        """One breadth-synchronised step of every pool with work.

        Returns the frames that finished their last search this tick.
        """
        self.last_tick_kernel_s = 0.0
        self.last_tick_lanes = 0
        completed: list[FrameJob] = []
        for pool in self._tick_order():
            pool.tick(completed)
        return completed


def run_frame(job: FrameJob):
    """One frame on a private frontier: the whole engine run behind
    ``decode_frame`` and ``decode_batch``.

    The job is built exactly as ``UplinkRuntime.submit`` builds it (or,
    for ``decode_batch``, by :meth:`FrameJob.from_triangular`); it is
    submitted to a fresh :class:`StreamingFrontier` sized to the frame,
    ticked until idle and finalised.
    """
    frontier = StreamingFrontier(initial_lanes=max(1, job.num_problems))
    frontier.submit(job)
    while not frontier.idle:
        frontier.tick()
    # A pool and its frontier reference each other; dropping the pools
    # frees the pool arrays on return instead of leaving every call's
    # worth to the cycle collector.
    frontier._pools.clear()
    return job.finalise()
