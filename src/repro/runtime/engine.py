"""The lockstep engine: lane-indexed search pools behind one frontier.

Every depth-first sphere search the library runs in bulk goes through
this module.  A :class:`StreamingFrontier` owns **pools** of lanes — one
pool per search signature — and advances every search in a pool two
candidate attempts per tick in the compiled search core (below).  A
pool holds every array its searches own in one dict (``pool.state``,
keyed by ``search_t`` field and laid out by
:func:`repro.sphere.tick_kernel.lanes`): hard (maximum-likelihood) and
soft (list) searches differ only in its leaf rows.

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
(``degrade`` / ``evict``) act between ticks.  A pool with lanes
(``pool.has_core``: ``zigzag``, wherever the core built)
runs its whole tick in **one native call**
(:func:`~repro.sphere.tick_kernel.run`), in place on ``pool.state``:
it admits the searches Python took off the queue, gives every active
lane two candidate attempts (``_LOCKSTEP_ATTEMPTS``; a lane already at
its node budget finishes with no attempt), and retires every finished
search — a list search with its LLRs and best member — straight into
its row of its frame's own outcome arrays, its lane back on the free
stack.  A lane is its search's own state only: the search reads its
channel in place in its frame's stacks, and every PAM position it
keeps is one byte, so a hard 16-QAM 4x4 lane is 684 B and the default
2048 lanes fit one core's L2.  Python keeps the queue and frame
interning, and counts finished searches against their frames.  A tick costs ~0.01 ms + ~0.1 microseconds per
lane up to ~1 000 lanes (~0.2 ms at 2 048), the lanes' part almost all
search: two attempts per tick halve the ticks a frame takes against
one, and keep every QoS point at most two scalar-loop iterations away.

Sphere-search cost is heavy-tailed, and that fixed ~0.02 ms is paid
however few lanes are live.  When a pool's queue is dry and its active
set is down to ``drain_threshold`` lanes, the same call is made with an
unlimited allowance: one tick runs the survivors to completion, each
under its own lane budget (so a deadline-degraded frame stops at its
shrunk cap there too).  That drain is the only place a core pool runs
searches to completion; everywhere else the tick, and with it every QoS
point, stays two candidate attempts long.

Every other pool — the baselines ``shabany`` / ``hess`` /
``exhaustive``, or any pool on a box without a C compiler (one warning)
— keeps no lanes and has ``drain_threshold`` 0: the tick that admits a
search runs it to completion through the decoder's own scalar search,
straight from its frame's stacks and under its node cap, and writes the
outcome rows the core would have (a list pool's LLRs in one vectorised
:func:`~repro.sphere.soft.soft_outputs_from_lists` call per tick), so
such a pool never has a search in flight between ticks.
Time in the core or the scalar search counts as kernel time in the tick
telemetry (``last_tick_kernel_s``).

Bit-exactness argument: every search reads only its element's own
``R``, observation and diagonal scalings (the core and the scalar search
alike straight from its frame's stacks), and executes the
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

Each pool allocates its lane arrays **on demand**: a pool is born
with one lane per search of the frame that creates it (at most the
global capacity) and grows geometrically whenever admission wants more
lanes than it has allocated, up to the shared global budget — so shards
× signatures stays bounded by what the workload actually uses instead
of ``capacity`` lanes of frontier state per signature.  Growth is
invisible to results: every array keeps its existing rows bit-for-bit
(live searches carry over), new rows are zeroed as at construction
(the core's admission or node expansion rewrites them before use), and
the new lanes join the bottom of the free stack so lane hand-out order
— which never affects a search's float program anyway — matches a pool
built at full size.
"""

from __future__ import annotations

import time
from itertools import compress

import numpy as np

from ..sphere import tick_kernel
from ..sphere.soft import soft_outputs_from_lists
from ..obs.trace import FrameTracer
from ..utils.validation import require
from .queue import AdmissionQueue, FrameJob, search_signature

__all__ = ["DEFAULT_LANE_CAPACITY", "DRAIN_THRESHOLD_CAP", "LANE_POLICIES",
           "StreamingFrontier", "run_frame"]

#: Default global lane budget.  Large enough that typical frames (64
#: subcarriers x tens of OFDM symbols) keep the whole frame in lockstep,
#: small enough that the lanes a tick sweeps stay in one core's L2: a
#: hard 16-QAM 4x4 lane is 684 B (list-16: 1 068 B), so 2048 of them take
#: 1.4 MB; workloads with more searches stream through the admission
#: queue's refill.
DEFAULT_LANE_CAPACITY = 2048

#: Ceiling for the default straggler-drain threshold (``capacity // 6``
#: below it): the frontier stays efficient down to a small *absolute*
#: active count.  Measured on the ladder's hard 16-QAM 4x4 x
#: 64-subcarrier corpus, closed loop of 8 frames, ticks without
#: admission, two attempts a lane (2 vCPU, gcc 12.2): a tick is ~0.01 ms
#: + ~0.1 us x lanes up to ~1 000 lanes, of which the core call is
#: ~0.005 ms + ~0.1 us x lanes — 14 us (core 9) at 33-64 lanes, 29-30
#: (22-24) at 129-256, 84-86 (75-77) at 513-1024, 204-214 (194-199)
#: above 1024 — and, measured while lanes still copied their frame's
#: channel, the core's drain of <= 32 survivors ~0.13 ms (the coded
#: hard+soft cell mix: 19 us a tick at 33-64 lanes, 49 at 129-256).  The
#: last searches of a workload outlive the rest by tens of ticks, a
#: tick's fixed ~0.01 ms buys <= 3 us of search at <= 32 lanes, and one
#: drain tick saves all of them.  Above 32 the one tick that drains a *list* (soft)
#: pool gets long enough to move the median latency of the light frames
#: sharing the runtime (the sweep over {16, 24, 32, 48} that set the
#: cap, when the step ran as numpy array ops, read ``coded_soft_cell``
#: p50 102-104 ms at 32 against 141-171 at 48).  With the core stepping
#: two attempts a tick (:data:`_LOCKSTEP_ATTEMPTS`) the cap still holds
#: the drain tick under the light frames' latency; raising it moves QoS
#: points the same way a larger allowance does.
DRAIN_THRESHOLD_CAP = 32

# Candidate attempts each active search gets per lockstep tick.  A
# tick's fixed ~0.02 ms is paid once per call however many attempts the
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

_EMPTY = np.empty(0, dtype=np.int64)
# A core call that admits nothing: no (slot, first, count, cap) rows.
_NO_RUNS = np.empty((0, 4), dtype=np.int64)
# A scalar search that found no leaf: -1 symbols at inf.
_NO_LEAF = (-np.inf, 0, -1, -1)

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


class _Pool:
    """The lanes of one search signature, and the searches in them.

    A search owns its lane from admission to finish: the lane indexes
    its rows of every array in :attr:`state` (its frontier slots are
    ``lane * num_streams + level``), and is recycled for the next queued
    search of any frame once the search's outcome is in its frame's
    outcome arrays.  Lane identity never affects a search's float
    program — the core rewrites a slot whole when it expands a node into
    it.  The lanes' bookkeeping is in :attr:`state` too, where the core
    reads and writes it: each lane's node cap, frame-table row and
    element in that frame (``dest_of``), the
    active list (its first :attr:`running` entries, in admission order)
    and the free-lane stack (its first ``_idle``, top handed out first).
    A pool without the core keeps no lanes: :attr:`state` is empty.
    """

    def __init__(self, engine: "StreamingFrontier",
                 template: FrameJob) -> None:
        decoder = template.decoder
        # Born with its first frame's searches.  A frame with none (it
        # never ticks) still gets one lane: _grow reads each array's
        # rows per lane off the lanes allocated.
        allocated = max(1, min(engine.capacity, template.num_problems))
        num_streams = template.num_streams
        self.engine = engine
        self.decoder = decoder
        self.num_streams = num_streams
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
        #: Every array the lanes own, as
        #: :func:`repro.sphere.tick_kernel.lanes` lays them out — none
        #: for a pool of any enumerator but ``zigzag``, or without the
        #: core: it runs each search through the scalar decoder in the
        #: tick that admits it, with nothing to drain.
        self.state = tick_kernel.lanes(decoder, num_streams, allocated)
        self.has_core = bool(self.state)
        self.running = 0                    # lanes with a search in flight
        self._idle = allocated              # free lanes
        #: One row per interned frame (one with searches admitted), its
        #: *slot*: where the core runs, where the frame's stacks and
        #: outcome arrays are.
        self.frame_table = np.zeros(8, tick_kernel.FRAME)
        self._slots = list(range(7, -1, -1))        # free rows
        # slot -> (first-lane order, frame).
        self._interned: dict[int, tuple[int, FrameJob]] = {}
        self._slot_of: dict[int, int] = {}          # id(frame) -> slot
        self._order = 0
        if self.has_core:
            self.state["free"][:] = np.arange(allocated - 1, -1, -1)
            self._marshalled: dict = {}     # tick_kernel.run's cache
        else:
            self.drain_threshold = 0
            self._enumerate = decoder._enumerator_factory()
        # A search's node cap: the decoder's budget (_NO_BUDGET if none),
        # shrunk for a degraded frame's.
        self._budget = (_NO_BUDGET if decoder.node_budget is None
                        else decoder.node_budget)

    @property
    def active(self) -> np.ndarray:
        """The lanes with a search in flight, in admission order."""
        return self.state.get("active", _EMPTY)[:self.running]

    @property
    def has_work(self) -> bool:
        return bool(self.running or self.queue.pending)

    # -- demand growth --------------------------------------------------
    def _grow(self, allocated: int) -> None:
        """Reallocate every lane array to ``allocated`` lanes: existing
        rows copied bit-for-bit (live searches keep their state), new
        rows zeroed as :func:`~repro.sphere.tick_kernel.lanes` allocates
        them (the core rewrites them before reading), so growth cannot
        change any result.  The new lanes join the *bottom* of the free
        stack: the lane hand-out order of a pool built at full size."""
        added = allocated - self.allocated
        for name, array in self.state.items():
            self.state[name] = _grown(
                array, array.shape[0] // self.allocated * allocated)
        if self.has_core:
            free = self.state["free"]
            free[added:added + self._idle] = free[:self._idle].copy()
            free[:added] = np.arange(allocated - 1, self.allocated - 1, -1)
        self._idle += added
        self.allocated = allocated

    # -- admission ------------------------------------------------------
    def _admit(self) -> list:
        """Take as many queued searches as there are free lanes under
        the global budget (growing the pool first if admission wants
        more): the queue's ``(frame, elements)`` runs."""
        want = min(self.engine.free_budget, self.queue.pending)
        if want > self._idle and self.allocated < self.engine.capacity:
            # Demand growth: at least double (amortised-constant
            # reallocation), at most the global budget, at least enough
            # for everything admission wants right now.
            self._grow(min(self.engine.capacity,
                           max(2 * self.allocated, self.running + want)))
        room = min(self._idle, want)
        if room <= 0:
            return []
        batches = self.queue.take(room)
        for job, elements in batches:
            if job.first_lane_at is None:
                # Stage-boundary stamp: the frame's first search took a
                # lane — queue wait ends here.  Stamped with tracing off
                # too (one clock read per frame); the event itself is
                # free unless the frame carries a live trace.
                job.first_lane_at = self.engine.tracer.clock()
                self.engine.tracer.emit(job.trace, "first-lane",
                                        t=job.first_lane_at,
                                        lanes=int(elements.size))
        return batches

    def _intern(self, job: FrameJob) -> int:
        """The frame-table slot of a frame with searches in lanes,
        claimed when its first search is admitted.  Where the core runs,
        the frame's stacks and outcome arrays are checked and entered in
        its row here, once."""
        slot = self._slot_of.get(id(job))
        if slot is not None:
            return slot
        record = None
        if self.has_core:
            record = tick_kernel.frame(
                self.decoder, self.num_streams, job.r_stack, job.y_flat,
                job.diag_stack, job.diag_sq_stack, job.num_symbols,
                job.noise_variance if self.soft else 0.0, job.outcome)
        if not self._slots:
            size = len(self.frame_table)
            self.frame_table = np.concatenate(
                [self.frame_table, np.zeros(size, tick_kernel.FRAME)])
            self._slots.extend(range(2 * size - 1, size - 1, -1))
        slot = self._slots.pop()
        if record is not None:
            self.frame_table[slot] = record
        self._slot_of[id(job)] = slot
        self._interned[slot] = (self._order, job)
        self._order += 1
        return slot

    def _cap(self, job: FrameJob) -> int:
        """Node cap of the frame's searches admitted now: the decoder's
        budget, or a degraded frame's shrunk one (never looser)."""
        return (self._budget if job.degraded_budget is None
                else min(self._budget, job.degraded_budget))

    # -- retirement -----------------------------------------------------
    def _forget(self, job: FrameJob) -> None:
        """Drop a finished/abandoned frame's slot (stale lane rows
        belong to free lanes, which admission rewrites before any tick
        reads them)."""
        slot = self._slot_of.pop(id(job), None)
        if slot is not None:
            del self._interned[slot]
            # A vacant row admits and retires nothing (the core refuses it).
            self.frame_table[slot] = 0
            self._slots.append(slot)

    def _retire(self, counts, completed: list) -> None:
        """Count a tick's finished searches against their frames —
        ``counts`` is ``(slot, searches)`` pairs — and complete the
        frames whose last search this was, in first-lane order."""
        for (_, job), count in sorted(
                (self._interned[slot], count) for slot, count in counts
                if count):
            job.remaining -= count
            if job.remaining == 0:
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
        slot = self._slot_of.get(id(job))
        if slot is None or not self.running:
            return
        active = self.active
        lanes = active[self.state["frame_of"][active] == slot]
        budgets = self.state["lane_budget"]
        budgets[lanes] = np.minimum(budgets[lanes], budget)

    def evict(self, job: FrameJob) -> int:
        """Abandon the job's in-lane searches (expiry / cancellation):
        remove them from the active list and free their lanes (a pool
        without a core has none between ticks).  Returns how many
        searches were evicted."""
        slot = self._slot_of.get(id(job))
        if slot is None:
            return 0
        self._forget(job)
        if not self.running:
            return 0
        active = self.active
        mask = self.state["frame_of"][active] == slot
        victims = active[mask]
        if not victims.size:
            return 0
        kept = active[~mask]
        active[:kept.size] = kept
        self.running = kept.size
        free = self.state["free"]
        free[self._idle:self._idle + victims.size] = victims
        self._idle += victims.size
        self.engine.in_use -= victims.size
        return int(victims.size)

    # -- one breadth-synchronised step ----------------------------------
    def tick(self, completed: list) -> None:
        """Admit queued searches into free lanes and advance every
        active search ``_LOCKSTEP_ATTEMPTS`` (two) candidate attempts,
        frame boundaries ignored — or, once the queue is dry and at most
        ``drain_threshold`` searches remain, to completion (the drain) —
        each under its lane's node budget, retiring the finished ones:
        one call into the compiled core.  A lane already at its budget
        (a degraded frame's) finishes there with no attempt, its
        best-so-far kept, exactly the scalar early break.  A pool
        without a core finishes every search in the tick that admits
        it."""
        batches = self._admit() if self.queue.pending and self._idle else []
        if self.has_core:
            self._step(batches, completed)
        elif batches:
            self._run_scalar(batches, completed)

    def _step(self, batches: list, completed: list) -> None:
        runs = _NO_RUNS
        if batches:
            runs = np.array([(self._intern(job), elements[0],
                              elements.size, self._cap(job))
                             for job, elements in batches], dtype=np.int64)
        admitted = sum(elements.size for _, elements in batches)
        running = self.running + admitted
        if not running:
            return
        drain = not self.queue.pending and running <= self.drain_threshold
        self.engine.last_tick_lanes += running
        started = time.perf_counter()
        finished = tick_kernel.run(
            self.decoder, self.state, self.frame_table, runs, self.running,
            self._idle, None if drain else _LOCKSTEP_ATTEMPTS,
            self._marshalled)
        self.engine.last_tick_kernel_s += time.perf_counter() - started
        self.running = running - finished
        self._idle += finished - admitted
        self.engine.in_use += admitted - finished
        if finished:
            lanes = self.state["free"][self._idle - finished:self._idle]
            self._retire(enumerate(np.bincount(
                self.state["frame_of"][lanes]).tolist()), completed)

    def _run_scalar(self, batches: list, completed: list) -> None:
        """A pool without a core: run every admitted search to
        completion through the decoder's scalar search, straight from
        its frame's stacks, under its node cap, into the outcome rows
        the core would write — a list pool's LLRs and best members in
        one :func:`~repro.sphere.soft.soft_outputs_from_lists` call."""
        decoder = self.decoder
        started = time.perf_counter()
        done, owners, noise = {}, [], []
        if self.soft:
            shape = (sum(elements.size for _, elements in batches),
                     decoder.list_size)
            lists = (np.zeros(shape), np.zeros(shape, np.int64),
                     np.zeros(shape + (self.num_streams,), np.int64),
                     np.zeros(shape + (self.num_streams,), np.int64))
        for job, elements in batches:
            slot, cap, out = self._intern(job), self._cap(job), job.outcome
            for element in elements.tolist():
                subcarrier = element // job.num_symbols
                outcome = decoder._search(
                    job.r_stack[subcarrier], job.y_flat[element],
                    job.diag_stack[subcarrier],
                    job.diag_sq_stack[subcarrier], self._enumerate, cap)
                counters = outcome.counters
                out["tally"][element] = (
                    counters.ped_calcs, counters.visited_nodes,
                    counters.expanded_nodes, counters.leaves,
                    counters.geometric_prunes)
                if self.soft:
                    out["list_n"][element] = outcome.into(
                        *(array[len(owners)] for array in lists))
                    owners.append((out, element))
                    noise.append(job.noise_variance)
                else:
                    (neg_distance, _, out["best_cols"][element],
                     out["best_rows"][element]) = (outcome.leaves[0]
                                                   if outcome.leaves
                                                   else _NO_LEAF)
                    out["best_dist"][element] = -neg_distance
            done[slot] = elements.size
        # A search that kept no leaf has no LLRs: finalise refuses it.
        counts = np.array([out["list_n"][element]
                           for out, element in owners], dtype=np.int64)
        kept = counts > 0
        if kept.any():
            llrs, best, _ = soft_outputs_from_lists(
                decoder.constellation, *(array[kept] for array in lists),
                counts[kept], np.array(noise)[kept], decoder.clamp)
            for (out, element), *row in zip(
                    compress(owners, kept), llrs,
                    *decoder.constellation.col_row(best)):
                (out["llrs"][element], out["best_cols"][element],
                 out["best_rows"][element]) = row
        self.engine.last_tick_lanes += sum(done.values())
        self.engine.last_tick_kernel_s += time.perf_counter() - started
        self._retire(done.items(), completed)


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
    tracer:
        :class:`~repro.obs.trace.FrameTracer` shared with the owning
        session, for engine-side lifecycle events (first-lane, evict,
        expedite).  ``None`` (default) installs a disabled tracer.
    """

    def __init__(self, *, capacity: int | None = None,
                 lane_policy: str = "deadline",
                 tracer: FrameTracer | None = None) -> None:
        if capacity is None:
            capacity = DEFAULT_LANE_CAPACITY
        require(capacity >= 1, "streaming frontier needs at least one lane")
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
    submitted to a fresh :class:`StreamingFrontier` — whose pool is
    born sized to the frame — ticked until idle and finalised.
    """
    frontier = StreamingFrontier()
    frontier.submit(job)
    while not frontier.idle:
        frontier.tick()
    # A pool and its frontier reference each other; dropping the pools
    # frees the pool arrays on return instead of leaving every call's
    # worth to the cycle collector.
    frontier._pools.clear()
    return job.finalise()
