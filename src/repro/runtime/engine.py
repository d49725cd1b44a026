"""The lockstep engine: lane-indexed search pools behind one frontier.

Every depth-first sphere search the library runs in bulk goes through
this module.  A :class:`StreamingFrontier` owns **pools** of lanes — one
pool per search signature — and advances every search in a pool two
candidate attempts per tick in the compiled search core (below).  A
pool holds every array its searches own in one dict (``pool.state``,
keyed by ``search_t`` field and laid out by
:func:`repro.sphere.tick_kernel.lanes`): hard (maximum-likelihood) and
soft (list) searches differ only in its leaf rows, ``zigzag`` /
``shabany`` only in its frontier slots.

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
The tick is the engine's *schedule* — admission and the QoS hooks
(``degrade`` / ``evict``) act between ticks.  A pool with
frontier slots (``pool.has_core``: ``zigzag`` / ``shabany``, wherever
:mod:`repro.sphere.tick_kernel` could build the core) executes its step
**in the core**: one native call gives every active lane two candidate
attempts (``_LOCKSTEP_ATTEMPTS``), in place on ``pool.state``, and
flags the lanes that finished (tree exhausted or per-lane node budget
reached — the core checks each lane's budget before every attempt, so
a lane already at its budget finishes in the call with no attempt);
they retire through ``_finish_lockstep``.  A list search leaves the
core with its max-log LLRs and best member already in its lane rows,
so a soft search retires a few rows, as a hard one does.  Admission
only writes a search's channel copy and fresh values
(:func:`~repro.sphere.tick_kernel.fresh`) and leaves it above its
root: the core expands the root, with the same program as every other
node, in the call that gives the search its first attempts.  A tick
costs ~0.05 ms + ~0.1 microseconds per lane, however many attempts it
runs: two per tick halve the ticks a frame takes against one, and keep
every QoS point at most two scalar-loop iterations away.

Sphere-search cost is heavy-tailed, and that fixed ~0.05 ms is paid
however few lanes are live.  When a pool's queue is dry and its active
set is down to ``drain_threshold`` lanes, the same call is made with an
unlimited allowance: one tick runs the survivors to completion, each
under its own lane budget (so a deadline-degraded frame stops at its
shrunk cap there too).  That drain is the only place a core pool runs
searches to completion; everywhere else the tick, and with it every QoS
point, stays two candidate attempts long.

Every other pool — ``hess`` / ``exhaustive``, or any pool on a box
without a C compiler (one warning) — has no frontier slots and
``drain_threshold`` 0: the tick that admits a search runs it to
completion through the decoder's own scalar search, under its lane
budget, fills the rows the core would have (a list pool's LLRs in one
vectorised :func:`~repro.sphere.soft.soft_outputs_from_lists` call per
tick) and retires it the same way, so such a pool never has a search
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
pruning, node budget, list size and LLR clamp): searches in one pool
share its arrays and tick together, and the pools share the frontier's
global lane budget, so a mixed-constellation cell workload still keeps
every lane busy.  A homogeneous workload — the benchmark's 16-QAM 4x4
stream — is exactly one pool.

Each pool allocates its lane arrays **on demand**: a pool
starts at :data:`DEFAULT_INITIAL_LANES` lanes (or the global capacity if
smaller) and grows geometrically whenever admission wants more lanes
than it has allocated, up to the shared global budget — so shards ×
signatures stays bounded by what the workload actually uses instead of
``capacity`` lanes of frontier state per signature.  Growth is
invisible to results: every array keeps its existing rows bit-for-bit
(live searches carry over), new rows are zeroed as at construction
(admission or the core's node expansion rewrites them before use), and
the new lanes join the bottom of the free stack so lane hand-out order
— which never affects a search's float program anyway — matches a pool
built at full size.
"""

from __future__ import annotations

import time

import numpy as np

from ..sphere import tick_kernel
from ..sphere.soft import soft_outputs_from_lists
from ..obs.trace import FrameTracer
from ..utils.validation import require
from .queue import AdmissionQueue, FrameJob, search_signature

__all__ = ["DEFAULT_INITIAL_LANES", "DEFAULT_LANE_CAPACITY",
           "DRAIN_THRESHOLD_CAP", "LANE_POLICIES", "StreamingFrontier",
           "run_frame"]

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


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """Reallocate ``array`` to ``rows`` leading rows: existing rows are
    copied (live per-lane state carries over bit-for-bit), new rows are
    zeroed."""
    out = np.zeros((rows,) + array.shape[1:], dtype=array.dtype)
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


class _Pool:
    """The lanes of one search signature, and the searches in them.

    A search owns its lane from admission to finish: the lane indexes
    its rows of every array in :attr:`state` (its frontier slots are
    ``lane * num_streams + level``) and of the pool's bookkeeping, its
    outcome moves to its frame's rows of the pool's result arena the
    moment it finishes, and the lane is recycled for the next queued
    search of any frame.  Lane identity never affects a search's float
    program — the core rewrites a slot whole when it expands a node into
    it — so which lane a search lands in only changes how densely the
    arrays are used.  Hard and soft pools differ only in the rows the
    arena collects: a hard search's best leaf, a list search's LLRs,
    best member and list length (its leaf list never leaves the lane).
    """

    def __init__(self, engine: "StreamingFrontier",
                 template: FrameJob) -> None:
        decoder = template.decoder
        allocated = min(engine.capacity, engine.initial_lanes)
        num_streams = template.num_streams
        self.engine = engine
        self.decoder = decoder
        self.soft = template.kind == "soft"
        if engine._drain_threshold is None:
            # From the *global* capacity — the drain hand-off point is a
            # latency trade-off, not an allocation detail, so it must not
            # move when the pool grows.
            self.drain_threshold = max(1, min(DRAIN_THRESHOLD_CAP,
                                              engine.capacity // 6))
        else:
            self.drain_threshold = engine._drain_threshold
        self.queue = AdmissionQueue(fifo=engine.lane_policy == "fifo")
        self.allocated = allocated
        # Stack of free lanes; popping from the end hands out lane 0 first.
        self._free = list(range(allocated - 1, -1, -1))
        self.active = _EMPTY
        #: Every array the searches own, keyed by ``search_t`` field as
        #: :func:`repro.sphere.tick_kernel.lanes` lays them out: frontier
        #: slots only where the compiled core steps the searches.  A
        #: ``hess`` / ``exhaustive`` pool or a box without the core runs
        #: each search to completion through the decoder's scalar search
        #: instead, with nothing to drain.
        self.state = tick_kernel.lanes(decoder, num_streams, allocated)
        self.has_core = "axis_int" in self.state
        # What admission writes into a fresh search's rows.
        self._fresh = tick_kernel.fresh(decoder, num_streams)
        # The core's marshalled view of this pool's arrays (tick_kernel.run).
        self._marshalled: dict = {}
        if not self.has_core:
            self.drain_threshold = 0
            self._enumerate = decoder._enumerator_factory()
        # The lane rows a finished search's outcome retires from: what
        # FrameJob.collect takes.
        self._outcome = ("tally",) + (
            ("llrs", "best_cols", "best_rows", "list_n")
            if self.soft else ("best_dist", "best_cols", "best_rows"))
        self.arena = _ResultArena(self._results())
        # Per-lane node budget: the decoder's own budget normally, a
        # shrunk value for lanes of a degraded frame, _NO_BUDGET when
        # the decoder is unbudgeted.
        self._budget = (_NO_BUDGET if decoder.node_budget is None
                        else decoder.node_budget)
        self.lane_budget = np.zeros(allocated, dtype=np.int64)
        # Which (frame, element) each lane is running.  Frames are
        # interned to dense integer ids so the per-tick grouping and the
        # QoS lane scans are array compares instead of per-lane Python
        # identity walks rebuilt every tick.
        self.jobidx_of = np.zeros(allocated, dtype=np.int64)
        self._jobidx: dict[int, int] = {}
        #: frame id -> (frame, first arena row of its results).
        self._jobs_by_idx: dict[int, tuple[FrameJob, int]] = {}
        self._next_jobidx = 0
        self.elem_of = np.zeros(allocated, dtype=np.int64)
        # The arena row each lane's outcome retires to (see _ResultArena).
        self.dest_of = np.zeros(allocated, dtype=np.int64)

    @property
    def has_work(self) -> bool:
        return bool(self.active.size or self.queue.pending)

    def _results(self) -> list:
        return [self.state[name] for name in self._outcome]

    # -- demand growth --------------------------------------------------
    def _grow(self, allocated: int) -> None:
        """Reallocate every lane-indexed array to ``allocated`` lanes.

        Existing rows are copied bit-for-bit (live searches keep their
        state mid-search) and new rows are zeroed, as
        :func:`~repro.sphere.tick_kernel.lanes` allocates them —
        admission, or the core when it expands a node, rewrites them
        before anything reads them — so growth cannot change any result.
        The new lanes join the *bottom* of the free stack, so a pool
        that grows hands out the same lane sequence as one built at
        full size.
        """
        self._free[:0] = range(allocated - 1, self.allocated - 1, -1)
        for name, array in self.state.items():
            self.state[name] = _grown(
                array, array.shape[0] // self.allocated * allocated)
        self.lane_budget, self.jobidx_of, self.elem_of, self.dest_of = (
            _grown(array, allocated) for array in (
                self.lane_budget, self.jobidx_of, self.elem_of,
                self.dest_of))
        self.allocated = allocated

    # -- admission ------------------------------------------------------
    def _admit(self) -> None:
        """Refill free lanes from the frame-tagged queue."""
        want = min(self.engine.free_budget, self.queue.pending)
        if want > len(self._free) and self.allocated < self.engine.capacity:
            # Demand growth: at least double (amortised-constant
            # reallocation), at most the global budget, at least enough
            # for everything admission wants right now.
            in_lane = self.allocated - len(self._free)
            self._grow(min(self.engine.capacity,
                           max(2 * self.allocated, in_lane + want)))
        room = min(len(self._free), want)
        if room <= 0:
            return
        state = self.state
        admitted = []
        for job, elements in self.queue.take(room):
            # The lanes successive pops would give.
            keep = len(self._free) - elements.size
            lanes = np.array(self._free[keep:][::-1], dtype=np.int64)
            del self._free[keep:]
            index, base = self._intern(job)
            self.jobidx_of[lanes] = index
            self.elem_of[lanes] = elements
            self.dest_of[lanes] = base + elements
            subcarriers = elements // job.num_symbols
            state["r"][lanes] = job.r_stack[subcarriers]
            state["y"][lanes] = job.y_flat[elements]
            state["diag"][lanes] = job.diag_stack[subcarriers]
            state["diag_sq"][lanes] = job.diag_sq_stack[subcarriers]
            if self.soft:
                state["noise_var"][lanes] = job.noise_variance
            for name, value in self._fresh.items():
                state[name][lanes] = value
            # Searches of a degraded frame start under the shrunk budget
            # (never looser than the decoder's own).
            self.lane_budget[lanes] = (
                self._budget if job.degraded_budget is None
                else min(self._budget, job.degraded_budget))
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
        self._free.extend(lanes.tolist())
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
        nodes finishes in the next core call with its best-so-far, no
        attempt made — exactly the scalar early-break semantics, so the
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
        if not self.has_core:
            return self._run_scalar(active)
        # Lane-indexed everywhere: a search's state rows, frontier slots
        # and channel copy all live at its lane, and its absolute budget
        # sits in lane_budget (visited starts at zero).
        return tick_kernel.run(self.decoder, self.state, active,
                               self.lane_budget[active], attempts,
                               self._marshalled)

    def _run_scalar(self, active: np.ndarray) -> np.ndarray:
        """A pool without a core: run each listed search to completion
        through the decoder's own scalar search, under its lane budget,
        and write the lane rows the core would have — the five tallies,
        then the leaf; for a list pool, then the LLRs and best member of
        every search that kept a leaf, in one
        :func:`~repro.sphere.soft.soft_outputs_from_lists` call.
        Everything finishes."""
        state = self.state
        for lane in active.tolist():
            outcome = self.decoder._search(
                state["r"][lane], state["y"][lane], state["diag"][lane],
                state["diag_sq"][lane], self._enumerate,
                int(self.lane_budget[lane]))
            counters = outcome.counters
            state["tally"][lane] = (
                counters.ped_calcs, counters.visited_nodes,
                counters.expanded_nodes, counters.leaves,
                counters.geometric_prunes)
            if self.soft:
                state["leaf_seq"][lane] = counters.leaves
                state["list_n"][lane] = outcome.into(
                    state["list_d"][lane], state["list_seq"][lane],
                    state["list_cols"][lane], state["list_rows"][lane])
            elif outcome.leaves:
                neg_distance, _, cols, rows = outcome.leaves[0]
                state["best_dist"][lane] = -neg_distance
                state["best_cols"][lane] = cols
                state["best_rows"][lane] = rows
        if self.soft:
            # A search that kept no leaf has no LLRs: finalise refuses it.
            lanes = active[state["list_n"][active] > 0]
            if lanes.size:
                constellation = self.decoder.constellation
                llrs, best, _ = soft_outputs_from_lists(
                    constellation, state["list_d"][lanes],
                    state["list_seq"][lanes], state["list_cols"][lanes],
                    state["list_rows"][lanes], state["list_n"][lanes],
                    state["noise_var"][lanes], self.decoder.clamp)
                state["llrs"][lanes] = llrs
                state["best_cols"][lanes], state["best_rows"][lanes] = (
                    constellation.col_row(best))
        return np.ones(active.size, dtype=bool)

    # -- one breadth-synchronised step ----------------------------------
    def tick(self, completed: list) -> None:
        """Advance every active search ``_LOCKSTEP_ATTEMPTS`` (two)
        candidate attempts, frame boundaries ignored: refill, drain
        check, then the step in the compiled core, which checks each
        lane's budget before every attempt — a lane already at its
        budget (a degraded frame's) finishes there with no attempt, its
        best-so-far kept, exactly the scalar early break.  Once the
        queue is dry and at most ``drain_threshold`` searches remain,
        the core runs them to completion instead, each under its own
        lane budget.  A pool without a core finishes every search in the
        tick that admits it."""
        if self.queue.pending and self._free:
            self._admit()
        if self.active.size == 0:
            return
        drain = (not self.queue.pending
                 and self.active.size <= self.drain_threshold)
        self._advance(completed, None if drain else _LOCKSTEP_ATTEMPTS)


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
        self._pools: dict[tuple, _Pool] = {}

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
            pool = _Pool(self, job)
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

    def _tick_order(self) -> list[_Pool]:
        pools = [pool for pool in self._pools.values() if pool.has_work]
        if self.lane_policy == "deadline" and len(pools) > 1:
            # The pool holding the most urgent queued work admits first,
            # so it wins the shared lane budget.  Sort stability keeps
            # the submission order between equally urgent pools.
            def urgency(pool: _Pool) -> float:
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
