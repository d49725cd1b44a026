"""The detector farm: deterministic routing over supervised shards.

:class:`DetectorFarm` is the service's submit/poll/cancel/stats surface
— deliberately the same verbs as
:class:`~repro.runtime.session.UplinkRuntime`, because a farm is meant
to slot in where a single runtime did.  ``submit`` routes each
:class:`FrameRequest` by its kernel-pool signature
(:func:`~repro.service.protocol.shard_for`): all frames of one
signature share one shard, so each signature's kernel pool lives in
exactly one worker and the admission order a shard sees is the farm
admission order restricted to its signatures — deterministic, which is
what lets the bit-exactness contract extend to every shard count.

``submit`` returns a :class:`FarmFrame`, the runtime's own
:class:`~repro.runtime.session.PendingFrame` (the farm keeps its shard
beside it); worker payloads, ``cancel`` and ``close()`` all resolve it.
A worker's result reaches the farm still in the bytes the worker
encoded (:class:`~repro.service.wire.Sealed`): the handle decodes it on
the first ``result()`` call, and a socket server forwarding it to its
client never does.

**Why signature routing keeps results bit-identical.**  A single
``UplinkRuntime`` is already admission-order-invariant per frame (the
``tests/test_runtime.py`` hypothesis sweep): each search runs the exact
scalar float program no matter which frames share a tick.  A shard *is*
an ``UplinkRuntime`` fed a deterministic subsequence of the farm's
arrivals, so every frame's results, LLRs and counters match the
single-process runtime and standalone ``decode_frame`` bit for bit, for
any shard count and either lane policy.

Two backends share every line of shard logic
(:class:`~repro.service.worker.ShardRuntime`): ``"process"`` forks one
supervised worker per shard (real multi-core scaling, crash recovery);
``"inline"`` runs the shards in-process — same routing, same admission
orders, no fork — which is what the differential sweeps and coverage
gates drive.
"""

from __future__ import annotations

import time

from ..obs.metrics import prometheus_text
from ..obs.trace import FrameTracer, merge_traces
from ..runtime.queue import validate_request
from ..runtime.session import RESOLUTIONS, PendingFrame
from ..runtime.stats import aggregate_summaries
from ..utils.validation import require
from .protocol import request_signature, shard_for
from .supervisor import (
    DEFAULT_HANG_TIMEOUT_S,
    DEFAULT_MAX_RESTARTS,
    ShardSupervisor,
)
from .wire import Sealed, opened
from .worker import DEFAULT_HEARTBEAT_S, ShardRuntime

__all__ = ["DetectorFarm", "FarmFrame"]

BACKENDS = ("process", "inline")

#: Farm-wide outstanding-frame budget per shard (backpressure).
OUTSTANDING_PER_SHARD = 16

#: What a worker's resolution payload hands to ``PendingFrame.resolve``.
_FIELDS = ("result", "degraded", "missed_deadline", "latency_s")


class FarmFrame(PendingFrame):
    """A farm's frame handle: a :class:`PendingFrame` whose result may
    arrive sealed, as its worker encoded it, and is decoded by the
    first :meth:`result` call — once, by whoever reads it."""

    __slots__ = ()

    def result(self):
        result = super().result()
        if type(result) is Sealed:
            result = self._result = result.open()
        return result


class DetectorFarm:
    """Sharded detector farm behind ``submit``/``poll``/``cancel``/
    ``stats``.

    Parameters
    ----------
    num_shards:
        Worker count.  Signatures hash across shards; a workload with
        fewer signatures than shards leaves the surplus idle.
    backend:
        ``"process"`` (default) — forked, supervised workers;
        ``"inline"`` — in-process shards, same logic, deterministic.
    runtime_kwargs:
        Passed to every shard's :class:`UplinkRuntime` (capacity,
        lane_policy, max_in_flight, ...).
    heartbeat_s, hang_timeout_s, max_restarts:
        Supervision knobs (process backend only), see
        :class:`~repro.service.supervisor.ShardSupervisor`.
    trace:
        Frame-lifecycle tracing across the farm (off by default).  Each
        submitted frame gets a farm-side trace (``route`` plus any
        supervision events — ``restart``/``replay``/``expire``), shard
        runtimes trace too (``runtime_kwargs`` gains ``trace=True``
        unless explicitly set), and resolution merges both onto
        ``handle.trace`` / the farm tracer's bounded ring
        (``farm.tracer``).  Worker and farm clocks are both
        ``perf_counter`` — ``CLOCK_MONOTONIC``, shared across fork — so
        the merged timeline is coherent.  Results stay bit-identical
        with tracing on or off.
    """

    def __init__(self, num_shards: int = 2, *, backend: str = "process",
                 runtime_kwargs: dict | None = None,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 hang_timeout_s: float = DEFAULT_HANG_TIMEOUT_S,
                 max_restarts: int = DEFAULT_MAX_RESTARTS,
                 trace: bool = False) -> None:
        require(num_shards >= 1, "farm needs at least one shard")
        require(backend in BACKENDS,
                f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.tracer = FrameTracer(enabled=trace)
        if trace:
            runtime_kwargs = dict(runtime_kwargs or {})
            runtime_kwargs.setdefault("trace", True)
        self.num_shards = num_shards
        self.backend = backend
        #: ``submit`` services the farm while this many are outstanding.
        self.max_outstanding = OUTSTANDING_PER_SHARD * num_shards
        self.frames_routed = [0] * num_shards
        self._next_frame_id = 0
        # Unresolved frames: farm frame_id -> (handle, shard).
        self._frames: dict[int, tuple[PendingFrame, int]] = {}
        self._closed = False
        if backend == "inline":
            self._shards = [ShardRuntime(runtime_kwargs)
                            for _ in range(num_shards)]
            self._supervisor = None
        else:
            self._shards = None
            self._supervisor = ShardSupervisor(
                num_shards, runtime_kwargs=runtime_kwargs,
                heartbeat_s=heartbeat_s, hang_timeout_s=hang_timeout_s,
                max_restarts=max_restarts, tracer=self.tracer)

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "DetectorFarm":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Frames submitted but not yet resolved."""
        return len(self._frames)

    @property
    def idle(self) -> bool:
        return not self._frames

    def route(self, request) -> int:
        """The shard a request's signature maps to (no submission)."""
        return shard_for(request_signature(request), self.num_shards)

    def submit(self, request) -> PendingFrame:
        """Route one frame to its shard; returns the pending handle.

        ``request`` is a :class:`FrameRequest`, or one still sealed in
        the bytes a client sent (the socket server's case): the farm
        decodes it to validate and route it, and a process shard gets
        those bytes unchanged.  Applies farm-wide backpressure: while
        ``max_outstanding`` frames are unresolved, services the farm
        until one resolves — the same submit-blocks contract (and
        arrival stamp) as ``UplinkRuntime``.  A frame that fails
        validation raises ``ValueError`` and leaves the farm untouched.
        """
        require(not self._closed, "farm is closed")
        wire_form, request = request, opened(request)
        # The farm's front door: a malformed frame is rejected here, in
        # the caller's process, before it can reach (and poison) a shard.
        validate_request(request)
        submitted_at = time.perf_counter()
        while len(self._frames) >= self.max_outstanding:
            if not self.pump():
                self.wait()
        shard = self.route(request)
        frame_id = self._next_frame_id
        handle = FarmFrame(frame_id, request, submitted_at)
        trace = self.tracer.start(frame_id, shard=shard,
                                  priority=request.priority)
        if trace is not None:
            handle.trace = trace
            self.tracer.emit(trace, "route", shard=shard)
        # Dispatched before the farm holds it: a process shard's request
        # is encoded here, and one the wire schema cannot carry (an
        # object in its metadata, say) raises ValueError with nothing
        # left pending.
        if self._supervisor is not None:
            self._supervisor.submit(shard, frame_id, wire_form, trace=trace)
        else:
            self._shards[shard].submit(frame_id, request)
        self._next_frame_id += 1
        self._frames[frame_id] = (handle, shard)
        self.frames_routed[shard] += 1
        return handle

    def cancel(self, handle: PendingFrame) -> bool:
        """Drop an unresolved frame; resolves the handle as
        ``"cancelled"`` synchronously (``result()`` raises
        ``FrameExpired``).  Returns ``False`` if it had already
        resolved."""
        if handle.frame_id not in self._frames:
            return False
        shard = self._frames[handle.frame_id][1]
        if self._supervisor is not None:
            self._supervisor.cancel(shard, handle.frame_id)
        else:
            self._shards[shard].cancel(handle.frame_id)
        self._resolve(handle.frame_id, "cancelled")
        return True

    def _resolve(self, frame_id: int, resolution: str, *,
                 payload: dict | None = None, **attrs) -> PendingFrame:
        """The one way a frame leaves the farm: pop it, resolve its
        handle on the farm clock and retire its trace.  A worker's
        ``payload`` brings the flags, latency and runtime trace; a
        farm-side resolution stamps its own event (with ``attrs``), and
        a farm-side expiry of a dated frame is a missed deadline (an
        undated one, expired by ``close``, had none to miss)."""
        handle, _ = self._frames.pop(frame_id)
        if payload is None:
            self.tracer.emit(handle.trace, RESOLUTIONS[resolution], **attrs)
            fields = {"missed_deadline": resolution == "expired"
                      and handle.deadline_s is not None}
        else:
            fields = {key: payload[key] for key in _FIELDS}
            handle.trace = merge_traces(handle.trace, payload["trace"])
        handle.resolve(resolution, time.perf_counter(), **fields)
        self.tracer.finish(handle.trace)
        return handle

    # -- servicing -------------------------------------------------------
    def pump(self) -> list[PendingFrame]:
        """One non-blocking service round: advance inline shards one
        tick / drain worker pipes, apply resolved payloads, and return
        the handles that resolved.  The building block ``poll``/``drain``
        and the socket server loop over, with :meth:`wait` in between."""
        if self._closed:
            return []          # a waiter outliving close(): nothing to service
        if self._supervisor is not None:
            payloads = self._supervisor.pump()
        else:
            payloads = []
            for shard in self._shards:
                payloads.extend(shard.service())
        # A payload for a frame no longer here was cancelled on the farm
        # side: its result lost the race.
        return [self._resolve(payload["frame_id"], payload["resolution"],
                              payload=payload)
                for payload in payloads if payload["frame_id"] in self._frames]

    def poll(self) -> list[PendingFrame]:
        """Service the farm until at least one frame resolves (or the
        farm goes idle); returns the resolved handles.  Between rounds
        it blocks in :meth:`wait` — woken by the worker's next message,
        not by a timer."""
        resolved = self.pump()
        while not resolved and self._frames:
            self.wait()
            resolved = self.pump()
        return resolved

    def drain(self) -> list[PendingFrame]:
        """Run every submitted frame to resolution — completions,
        expiries and supervisor recoveries alike; a drain never hangs on
        a dead worker."""
        resolved = []
        while self._frames:
            resolved.extend(self.poll())
        return resolved

    def wait(self, timeout_s: float | None = None) -> None:
        """Block until the next :meth:`pump` has something to do:
        woken by a worker's result or heartbeat, by a dead worker's
        pipe, or after ``timeout_s`` (default one heartbeat) — see
        :meth:`ShardSupervisor.wait`.  Only the process backend waits
        on external progress; inline shards advance synchronously in
        ``pump()``, so there this returns at once.  Unlike every other
        method it may be called while another thread uses the farm —
        the socket server waits here with its lock released."""
        if self._supervisor is not None:
            self._supervisor.wait(timeout_s)

    # -- stats -----------------------------------------------------------
    def stats(self) -> dict:
        """Farm-level view: aggregated shard ledgers plus routing and
        supervision counters.  The aggregate carries every per-shard
        summary verbatim under ``per_shard`` (``None`` for a shard that
        failed to answer in time — ``shards_reporting`` counts the rest),
        so shard skew in the EMA / percentile sub-reports stays visible
        from this one call.  Counters include what replaced workers
        last reported and the supervisor's own expiries
        (:attr:`ShardSupervisor.retired`): none runs backwards."""
        if self._supervisor is not None:
            report = aggregate_summaries(self._supervisor.stats(),
                                         self._supervisor.retired)
        else:
            report = aggregate_summaries(
                [shard.summary() for shard in self._shards])
        report["frames_routed"] = list(self.frames_routed)
        report["outstanding"] = self.outstanding
        report["restarts"] = (list(self._supervisor.restarts)
                              if self._supervisor is not None
                              else [0] * self.num_shards)
        return report

    def metrics(self) -> str:
        """The farm's :meth:`stats` view rendered as a Prometheus text
        scrape body (:func:`repro.obs.metrics.prometheus_text`)."""
        return prometheus_text(self.stats())

    # -- fault injection / lifecycle -------------------------------------
    def kill_shard(self, shard: int) -> None:
        """SIGKILL one worker process (fault-injection hook; process
        backend only).  The next service round detects the crash and
        replays or expires its in-flight frames."""
        require(self._supervisor is not None,
                "kill_shard needs the process backend")
        self._supervisor.kill_shard(shard)

    def close(self) -> None:
        """Stop the workers.  Unresolved frames resolve as expired
        (trace event ``expire``, ``reason="close"``)."""
        if self._closed:
            return
        self._closed = True
        for frame_id in list(self._frames):
            self._resolve(frame_id, "expired", reason="close")
        if self._supervisor is not None:
            self._supervisor.close()
