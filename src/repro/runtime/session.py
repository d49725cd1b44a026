"""Session API of the streaming uplink runtime: submit / poll / drain.

:class:`UplinkRuntime` is the cell-scale entry point of the lockstep
engine: callers hand it whole frames (hard or soft) as they arrive and
get :class:`PendingFrame` handles back; one resident
:class:`~repro.runtime.engine.StreamingFrontier` advances every in-flight
frame's searches together, so frame N+1 fills the lanes frame N's
stragglers no longer need.  Backpressure is a bounded in-flight frame
budget: when the cell offers more load than the engine clears,
:meth:`UplinkRuntime.submit` runs the shared tick loop until a frame
completes and its budget slot frees — arrival rate degrades gracefully to
service rate instead of queue state growing without bound.

Frames submitted with a :class:`~repro.phy.config.PhyConfig` continue
past detection through the coded chain: every frame completing a tick
contributes its streams' coded blocks to one frame-batched Viterbi sweep
(:mod:`~repro.runtime.decode`), and the resolved result carries decoded
payload bits plus per-stream CRC verdicts — the runtime delivers what a
real AP delivers, and :class:`~repro.runtime.stats.RuntimeStats` reports
CRC-passing goodput.

**Deadline semantics.**  Frames may carry a latency budget
(``FrameRequest.deadline_s``, measured from arrival) and a priority
class.  Under the default ``lane_policy="deadline"`` the runtime
degrades gracefully instead of failing silently, in three explicit,
counted steps:

1. *Met* — a frame decoded without deadline pressure (no deadline, or
   deadline comfortably met) is **bit-identical** to standalone
   ``decode_frame``; QoS only reorders lane refills, which cannot
   change any per-frame result.
2. *Degraded* — once a frame enters its deadline margin, its remaining
   searches' node budgets are shrunk to ``num_streams`` nodes (the
   greedy first descent — the same point a K=1 K-best pass keeps)
   and its queued searches are expedited.  The result is real banked
   work delivered early (the scalar early-break semantics), the handle
   is marked ``degraded`` and the stats count it, including the CRC
   cost over degraded frames.
3. *Expired* — a frame still unfinished past its deadline is dropped:
   its searches are abandoned, the handle resolves with an explicit
   expired state (``result()`` raises :class:`FrameExpired`) and
   ``poll``/``drain`` return it — never a hang, never a fabricated
   result.  A frame whose completion *races* its deadline in the same
   tick resolves with its real result and is counted a near miss, not
   a drop.

Per-frame results are **bit-identical** to standalone
``SphereDecoder.decode_frame`` / ``ListSphereDecoder.decode_frame``
(results, LLRs, counters) for every admission order, priority mix and
interleaving, and decoded decisions are bit-identical to standalone
``recover_uplink`` / ``recover_uplink_soft`` on the same detections —
the runtime contract ``tests/test_runtime.py`` enforces.  Degradation
and expiry apply only to deadline-tagged frames under pressure.
"""

from __future__ import annotations

import time

from ..obs.trace import FrameTracer
from ..utils.validation import require
from .decode import DecodeStage
from .engine import LANE_POLICIES, StreamingFrontier
from .queue import FrameJob, FrameRequest, decoder_kind
from .stats import RuntimeStats

__all__ = ["FrameExpired", "PendingFrame", "RESOLUTIONS", "UplinkRuntime"]

#: Default bound on frames decoded concurrently.  Deep enough to bridge
#: every frame's straggler tail with the next frames' fresh searches,
#: shallow enough that per-frame latency stays a small multiple of the
#: frame-at-a-time latency under overload.
DEFAULT_MAX_IN_FLIGHT = 8

#: A frame enters degradation once this fraction of its deadline budget
#: remains.
DEGRADE_MARGIN_FRACTION = 0.25

#: How a frame can resolve, each with the trace event that ends its
#: lifecycle.  :meth:`PendingFrame.resolve` refuses anything else.
RESOLUTIONS = {"completed": "resolve", "expired": "expire",
               "cancelled": "cancel"}


class FrameExpired(RuntimeError):
    """Raised by :meth:`PendingFrame.result` when the frame was expired
    at its deadline (or cancelled) instead of completing — the explicit
    resolution that replaces both hanging and fabricating a result."""


class PendingFrame:
    """Handle for one submitted frame — to an :class:`UplinkRuntime` or
    to a :class:`~repro.service.router.DetectorFarm`.

    Resolves when the runtime finishes the frame's last search — or,
    for deadline-tagged frames, when the deadline policy expires it.
    :attr:`resolution` records which (one of :data:`RESOLUTIONS`);
    :meth:`result` returns exactly what standalone
    ``decode_frame`` would have for completed frames (a
    :class:`~repro.frame.results.FrameDecodeResult` or
    :class:`~repro.frame.results.SoftFrameResult`) and raises
    :class:`FrameExpired` otherwise.  Frames submitted with a
    :class:`~repro.phy.config.PhyConfig` additionally resolve with
    ``result().decisions`` — one
    :class:`~repro.phy.receiver.StreamDecision` (payload bits + CRC
    verdict) per stream, bit-identical to standalone
    ``recover_uplink`` / ``recover_uplink_soft``.

    Deadline bookkeeping lives on the handle: ``deadline_at`` (absolute,
    on the runtime clock), ``degraded`` (budgets were shrunk — the
    result is marked, never silently approximate) and
    ``missed_deadline`` (completed, but past the deadline — a near
    miss).  These, ``completed_at`` and ``latency_s`` are written by
    :meth:`resolve` alone.
    """

    # A caller that keeps its resolved handles keeps these alone: no
    # per-handle ``__dict__``.
    __slots__ = ("frame_id", "kind", "metadata", "submitted_at",
                 "deadline_s", "priority", "deadline_at", "completed_at",
                 "latency_s", "resolution", "degraded", "missed_deadline",
                 "trace", "_result")

    def __init__(self, frame_id: int, request: FrameRequest,
                 submitted_at: float) -> None:
        self.frame_id = frame_id
        self.kind = decoder_kind(request.decoder)
        # Copy: the caller may keep mutating its dict after submit();
        # the handle's tags must reflect admission time.
        self.metadata = dict(request.metadata)
        self.submitted_at = submitted_at
        self.deadline_s = request.deadline_s
        self.priority = int(request.priority)
        self.deadline_at = (None if self.deadline_s is None
                            else submitted_at + self.deadline_s)
        self.completed_at: float | None = None
        self.latency_s: float | None = None     # submit to resolution
        self.resolution: str | None = None
        self.degraded = False
        self.missed_deadline = False
        #: The frame's lifecycle trace (:class:`~repro.obs.trace.
        #: FrameTrace`) when its owner traces — from a farm, the farm's
        #: events merged with the worker's; ``None`` otherwise.
        self.trace = None
        self._result = None

    @property
    def done(self) -> bool:
        """Resolved — completed, expired or cancelled."""
        return self.resolution is not None

    @property
    def expired(self) -> bool:
        return self.resolution == "expired"

    def resolve(self, resolution: str, at: float, *, result=None,
                degraded: bool = False, missed_deadline: bool | None = None,
                latency_s: float | None = None) -> None:
        """Resolve the handle, once, at ``at`` on its owner's clock.

        By default a completion past ``deadline_at`` is a near miss and
        the latency is ``at - submitted_at``; the farm passes what a
        worker's payload says instead, and marks its own expiries
        missed."""
        require(resolution in RESOLUTIONS,
                f"unknown resolution {resolution!r}")
        require(not self.done, f"frame {self.frame_id} has already resolved")
        if missed_deadline is None:
            missed_deadline = (resolution == "completed"
                               and self.deadline_at is not None
                               and at > self.deadline_at)
        self.resolution = resolution
        self.completed_at = at
        self.latency_s = (at - self.submitted_at if latency_s is None
                          else latency_s)
        self.degraded = degraded
        self.missed_deadline = missed_deadline
        self._result = result

    def result(self):
        require(self.done, f"frame {self.frame_id} has not resolved; "
                "poll() or drain() the runtime first")
        if self.resolution != "completed":
            raise FrameExpired(
                f"frame {self.frame_id} was {self.resolution} "
                f"{'at its deadline ' if self.expired else ''}after "
                f"{self.latency_s:.6f}s; no result was produced")
        return self._result


class UplinkRuntime:
    """Streaming uplink receiver: many frames through one resident engine.

    Parameters
    ----------
    capacity:
        The :class:`~repro.runtime.engine.StreamingFrontier`'s shared
        lane budget.  Each of its pools is born with the searches of
        the first frame it gets and grows on demand up to it, invisibly
        to results.
    max_in_flight:
        In-flight frame budget (backpressure): ``submit`` blocks — by
        running the tick loop — while this many frames are unfinished.
    lane_policy:
        ``"deadline"`` (default): class-aware lane refills plus the
        deadline machinery (degradation and expiry) for deadline-tagged
        frames.  ``"fifo"``: priority-ignorant refills and **no**
        degradation or expiry — deadlines are still *measured* (misses
        land in :meth:`RuntimeStats.deadline_miss_rate`), making it the
        like-for-like baseline the SLO benchmark compares against.
    trace:
        Frame-lifecycle tracing (:mod:`repro.obs.trace`).  Off by
        default: every stamping site then costs one ``is None`` test.
        ``trace=True`` builds a :class:`~repro.obs.trace.FrameTracer`
        on the runtime's clock (``runtime.tracer``); resolved handles
        carry their trace (``handle.trace``) and the tracer retains a
        bounded ring of finished traces for export.  Tracing reads
        clocks and appends event tuples only — results, LLRs and
        counters stay bit-identical with it on or off.
    """

    def __init__(self, *, capacity: int | None = None,
                 max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
                 lane_policy: str = "deadline",
                 clock=time.perf_counter,
                 trace: bool = False) -> None:
        require(max_in_flight >= 1, "need an in-flight budget of at least 1")
        self.tracer = FrameTracer(enabled=trace, clock=clock)
        self._engine = StreamingFrontier(capacity=capacity,
                                         lane_policy=lane_policy,
                                         tracer=self.tracer)
        self._decode = DecodeStage(tracer=self.tracer)
        self.max_in_flight = max_in_flight
        self.lane_policy = lane_policy
        self.stats = RuntimeStats()
        self._clock = clock
        self._next_frame_id = 0
        self._handles: dict[int, PendingFrame] = {}
        self._jobs: dict[int, FrameJob] = {}
        # The unresolved deadline-tagged frames, under the deadline
        # policy: the only ones the deadline machinery walks.
        self._deadlines: dict[int, PendingFrame] = {}
        self._completed_backlog: list[PendingFrame] = []

    # -- introspection --------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Submitted frames not yet resolved."""
        return len(self._handles)

    @property
    def idle(self) -> bool:
        return self._engine.idle and not self._handles

    @property
    def capacity(self) -> int:
        return self._engine.capacity

    # -- the tick loop --------------------------------------------------
    def _tick(self) -> list[PendingFrame]:
        if self._deadlines:
            # Degrade before the engine admits: a pool without the core
            # runs every search it admits to completion in that tick.
            now = self._clock()
            for handle in list(self._deadlines.values()):
                self._degrade_if_due(handle, now)
        started = time.perf_counter()
        finished = self._engine.tick()
        duration_s = time.perf_counter() - started
        now = self._clock()
        self.stats.record_tick(self._engine.occupancy(), now,
                               duration_s=duration_s,
                               kernel_s=self._engine.last_tick_kernel_s)
        resolved = self._complete_all(finished)
        if self._deadlines:
            # Completions first: a frame finishing in the same tick its
            # deadline trips resolves with its real result (a counted
            # near miss), and only then do still-unfinished frames
            # expire.
            resolved.extend(self._enforce_deadlines(now))
        return resolved

    def _complete_all(self, jobs: list[FrameJob]) -> list[PendingFrame]:
        """Finalise detections, then decode every configured frame's
        streams in one frame-batched trellis sweep before resolving the
        handles — frames completing the same tick share the sweep."""
        completed = []
        for job in jobs:
            result = job.finalise()
            job.detect_done_at = self._clock()
            self.tracer.emit(job.trace, "detect-done", t=job.detect_done_at)
            completed.append((job, result))
        self._decode.attach_decisions(completed)
        decode_done = self._clock()
        for job, _ in completed:
            job.decode_done_at = decode_done
            if job.config is not None and job.num_problems:
                self.tracer.emit(job.trace, "decode-done", t=decode_done)
        return [self._complete(job, result) for job, result in completed]

    def _stage_components(self, handle: PendingFrame,
                          job: FrameJob) -> dict[str, float]:
        """Partition one completed frame's latency into the pipeline
        stages (:data:`~repro.runtime.stats.STAGES`).  Boundaries a
        frame never crossed (a degenerate frame has no first-lane; an
        uncoded one spends nothing in decode) fall back to the next
        known stamp, so that stage reads zero and the components always
        sum to the frame's latency up to clock noise."""
        done = handle.completed_at
        detect_done = (job.detect_done_at
                       if job.detect_done_at is not None else done)
        first_lane = (job.first_lane_at
                      if job.first_lane_at is not None else detect_done)
        decode_done = (job.decode_done_at
                       if job.decode_done_at is not None else detect_done)
        return {
            "queue_wait": max(0.0, first_lane - handle.submitted_at),
            "detect": max(0.0, detect_done - first_lane),
            "decode": max(0.0, decode_done - detect_done),
            "resolve": max(0.0, done - decode_done),
        }

    def _resolve(self, job: FrameJob, resolution: str,
                 result=None) -> PendingFrame:
        """The one way a frame leaves the runtime: pop its handle and
        job, abandon the searches of a frame that did not complete,
        resolve the handle on the runtime clock, and end the frame's
        trace with its resolution's event."""
        handle = self._handles.pop(job.frame_id)
        del self._jobs[job.frame_id]
        self._deadlines.pop(job.frame_id, None)
        completed = resolution == "completed"
        abandoned = None if completed else self._engine.remove(job)
        handle.resolve(resolution, self._clock(), result=result,
                       degraded=job.degraded)
        if job.trace is not None:
            attrs = ({"resolution": resolution, "degraded": handle.degraded,
                      "missed_deadline": handle.missed_deadline}
                     if completed else {"searches_abandoned": abandoned})
            self.tracer.emit(job.trace, RESOLUTIONS[resolution],
                             t=handle.completed_at, **attrs)
            self.tracer.finish(job.trace)
        return handle

    def _complete(self, job: FrameJob, result) -> PendingFrame:
        handle = self._resolve(job, "completed", result)
        self.stats.record_complete(
            handle.completed_at, handle.latency_s, job.num_problems,
            result.counters, priority=handle.priority,
            had_deadline=handle.deadline_at is not None,
            missed_deadline=handle.missed_deadline,
            stages=self._stage_components(handle, job))
        if result.decisions is not None:
            self.stats.record_decisions(result.decisions,
                                        degraded=handle.degraded)
        return handle

    # -- deadline machinery ---------------------------------------------
    def _enforce_deadlines(self, now: float) -> list[PendingFrame]:
        """Expire past-deadline frames; degrade frames inside their
        margin.  Runs after the tick's completions, so it only ever
        sees genuinely unfinished frames."""
        expired: list[PendingFrame] = []
        for handle in list(self._deadlines.values()):
            if now > handle.deadline_at:
                handle = self._resolve(self._jobs[handle.frame_id],
                                       "expired")
                self.stats.record_expired(handle.completed_at)
                expired.append(handle)
            else:
                self._degrade_if_due(handle, now)
        return expired

    def _degrade_if_due(self, handle: PendingFrame, now: float) -> None:
        """Degrade a frame once it is inside its deadline margin — not
        past the deadline: such a frame either completes in the next
        tick with its real result (a near miss) or expires after it."""
        job = self._jobs[handle.frame_id]
        if (not job.degraded
                and handle.deadline_at - DEGRADE_MARGIN_FRACTION
                * handle.deadline_s < now <= handle.deadline_at):
            budget = job.num_streams    # one greedy descent
            job.degraded = True
            job.degraded_budget = budget
            # Before the engine call: degrade precedes the expedite
            # event the engine may emit for the same decision.
            self.tracer.emit(job.trace, "degrade", budget=budget)
            self._engine.degrade(job, budget)
            self.stats.record_degraded(now)

    # -- public API -----------------------------------------------------
    def submit(self, frame: FrameRequest) -> PendingFrame:
        """Admit one frame; returns its pending handle.

        Preprocessing (the stacked QR sweep) happens here; the frame's
        searches then enter the shared admission queue tagged with its
        frame id and priority class.  If the in-flight budget is full,
        the runtime ticks the engine until a frame resolves before
        admitting this one.

        The handle's ``submitted_at`` is stamped *on arrival* — before
        any backpressure wait and before preprocessing — so latency
        percentiles include queueing delay, the quantity that actually
        grows under overload.  Deadlines are measured from the same
        stamp.
        """
        submitted_at = self._clock()
        while len(self._handles) >= self.max_in_flight:
            self._completed_backlog.extend(self._tick())
        frame_id = self._next_frame_id
        job = FrameJob(frame_id, frame)      # validates; may raise
        self._next_frame_id += 1
        self.stats.record_submit(submitted_at)
        handle = PendingFrame(frame_id, frame, submitted_at)
        self._handles[frame_id] = handle
        self._jobs[frame_id] = job
        if handle.deadline_at is not None and self.lane_policy == "deadline":
            self._deadlines[frame_id] = handle
        trace = self.tracer.start(frame_id, kind=job.kind,
                                  priority=job.priority)
        if trace is not None:
            job.trace = trace
            handle.trace = trace
            self.tracer.emit(trace, "submit", t=submitted_at,
                             deadline_s=job.deadline_s)
            self.tracer.emit(trace, "admit", searches=job.num_problems)
        if job.num_problems == 0:
            # Degenerate frame (no subcarriers or no symbols): complete
            # immediately with the same empty result ``decode_frame``
            # builds (nothing to decode, so no decisions either).
            self._completed_backlog.extend(self._complete_all([job]))
        else:
            self._engine.submit(job)
        return handle

    def cancel(self, handle: PendingFrame) -> bool:
        """Drop an unresolved frame: abandon its searches, free its
        lanes, resolve the handle as ``"cancelled"`` (``result()``
        raises :class:`FrameExpired`).  Returns ``False`` if the frame
        had already resolved.  Cancellation resolves synchronously —
        the handle is *not* also returned by ``poll``/``drain``."""
        if handle.done:
            return False
        self._resolve(self._jobs[handle.frame_id], "cancelled")
        self.stats.record_cancelled(handle.completed_at)
        return True

    def poll(self, max_ticks: int | None = None) -> list[PendingFrame]:
        """Advance the engine and return frames resolved so far
        (completed and expired alike).

        Runs the tick loop until at least one frame resolves, the
        runtime goes idle, or ``max_ticks`` elapses; resolutions that
        piled up during backpressured ``submit`` calls are returned
        first (``max_ticks=0`` returns *only* that backlog).
        """
        done = self._completed_backlog
        self._completed_backlog = []
        ticks = 0
        while (not done and self._handles
               and (max_ticks is None or ticks < max_ticks)):
            done.extend(self._tick())
            ticks += 1
        return done

    def drain(self) -> list[PendingFrame]:
        """Run every admitted frame to resolution; returns them in
        resolution order (backpressure backlog first).  Expired frames
        are returned like completed ones — a drain never hangs on a
        deadline."""
        done = self._completed_backlog
        self._completed_backlog = []
        while self._handles:
            done.extend(self._tick())
        return done
