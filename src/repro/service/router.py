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

from ..obs.metrics import prometheus_text
from ..obs.trace import FrameTracer, merge_traces
from ..runtime.queue import validate_request
from ..runtime.session import FrameExpired
from ..runtime.stats import aggregate_summaries
from ..utils.validation import require
from .protocol import request_signature, shard_for
from .supervisor import (
    DEFAULT_HANG_TIMEOUT_S,
    DEFAULT_MAX_RESTARTS,
    ShardSupervisor,
)
from .worker import DEFAULT_HEARTBEAT_S, ShardRuntime

__all__ = ["DetectorFarm", "FarmHandle"]

BACKENDS = ("process", "inline")

#: Default farm-wide outstanding-frame budget per shard (backpressure).
DEFAULT_OUTSTANDING_PER_SHARD = 16


class FarmHandle:
    """Pending handle for a frame submitted to the farm — the farm twin
    of :class:`~repro.runtime.session.PendingFrame`, resolved from
    worker payloads instead of engine callbacks."""

    def __init__(self, frame_id: int, shard: int, metadata: dict,
                 deadline_s: float | None, priority: int) -> None:
        self.frame_id = frame_id
        self.shard = shard
        self.metadata = metadata
        self.deadline_s = deadline_s
        self.priority = priority
        self.resolution: str | None = None
        self.degraded = False
        self.missed_deadline = False
        self.latency_s: float | None = None
        #: The frame's merged lifecycle trace (farm routing/supervision
        #: events folded with the worker's runtime events) when the farm
        #: traces; ``None`` otherwise.
        self.trace = None
        self._result = None

    @property
    def done(self) -> bool:
        return self.resolution is not None

    @property
    def expired(self) -> bool:
        return self.resolution == "expired"

    def resolve(self, payload: dict) -> None:
        """Apply one :func:`~repro.service.protocol.resolution_payload`;
        the worker's runtime trace it carried folds into the farm-side
        routing/supervision trace."""
        self.resolution = payload["resolution"]
        self.degraded = payload["degraded"]
        self.missed_deadline = payload["missed_deadline"]
        self.latency_s = payload["latency_s"]
        self.trace = merge_traces(self.trace, payload["trace"])
        self._result = payload["result"]

    def result(self):
        """The frame's decode result.  Raises :class:`FrameExpired` for
        an expired or cancelled frame — never a fabricated result."""
        require(self.done, f"frame {self.frame_id} has not resolved yet")
        if self.resolution != "completed":
            raise FrameExpired(
                f"frame {self.frame_id} resolved as {self.resolution!r}")
        return self._result


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
        lane_policy, initial_lanes, ...).
    max_outstanding:
        Farm-wide backpressure bound: ``submit`` services the farm until
        outstanding frames drop below this (default
        ``DEFAULT_OUTSTANDING_PER_SHARD × num_shards``).
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
                 max_outstanding: int | None = None,
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
        if max_outstanding is None:
            max_outstanding = DEFAULT_OUTSTANDING_PER_SHARD * num_shards
        require(max_outstanding >= 1,
                "outstanding budget must be at least 1")
        self.num_shards = num_shards
        self.backend = backend
        self.max_outstanding = max_outstanding
        self.frames_routed = [0] * num_shards
        self._next_frame_id = 0
        self._handles: dict[int, FarmHandle] = {}
        self._resolved: list[FarmHandle] = []
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
        return len(self._handles)

    @property
    def idle(self) -> bool:
        return not self._handles

    def route(self, request) -> int:
        """The shard a request's signature maps to (no submission)."""
        return shard_for(request_signature(request), self.num_shards)

    def submit(self, request) -> FarmHandle:
        """Route one frame to its shard; returns the pending handle.

        Applies farm-wide backpressure: while ``max_outstanding`` frames
        are unresolved, services the farm until one resolves — the same
        submit-blocks contract as ``UplinkRuntime``.  A frame that fails
        validation raises ``ValueError`` and leaves the farm untouched.
        """
        require(not self._closed, "farm is closed")
        # The farm's front door: a malformed frame is rejected here, in
        # the caller's process, before it can reach (and poison) a shard.
        validate_request(request)
        while len(self._handles) >= self.max_outstanding:
            if not self.pump():
                self.wait()
        shard = self.route(request)
        frame_id = self._next_frame_id
        self._next_frame_id += 1
        handle = FarmHandle(frame_id, shard, dict(request.metadata),
                            request.deadline_s, request.priority)
        self._handles[frame_id] = handle
        self.frames_routed[shard] += 1
        trace = self.tracer.start(frame_id, shard=shard,
                                  priority=request.priority)
        if trace is not None:
            handle.trace = trace
            self.tracer.emit(trace, "route", shard=shard)
        if self._supervisor is not None:
            self._supervisor.submit(shard, frame_id, request, trace=trace)
        else:
            self._shards[shard].submit(frame_id, request)
        return handle

    def cancel(self, handle: FarmHandle) -> bool:
        """Drop an unresolved frame; resolves the handle as
        ``"cancelled"`` synchronously (``result()`` raises
        :class:`FrameExpired`).  Returns ``False`` if it had already
        resolved."""
        if handle.done or handle.frame_id not in self._handles:
            return False
        del self._handles[handle.frame_id]
        handle.resolution = "cancelled"
        if self._supervisor is not None:
            self._supervisor.cancel(handle.shard, handle.frame_id)
        else:
            self._shards[handle.shard].cancel(handle.frame_id)
        return True

    # -- servicing -------------------------------------------------------
    def pump(self) -> list[FarmHandle]:
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
        resolved = []
        for payload in payloads:
            handle = self._handles.pop(payload["frame_id"], None)
            if handle is None:
                continue       # cancelled on the farm side; result lost the race
            handle.resolve(payload)
            # The merged trace also lands in the farm tracer's ring.
            self.tracer.finish(handle.trace)
            resolved.append(handle)
        return resolved

    def poll(self) -> list[FarmHandle]:
        """Service the farm until at least one frame resolves (or the
        farm goes idle); returns the resolved handles.  Between rounds
        it blocks in :meth:`wait` — woken by the worker's next message,
        not by a timer."""
        resolved = self.pump()
        while not resolved and self._handles:
            self.wait()
            resolved = self.pump()
        return resolved

    def drain(self) -> list[FarmHandle]:
        """Run every submitted frame to resolution — completions,
        expiries and supervisor recoveries alike; a drain never hangs on
        a dead worker."""
        resolved = []
        while self._handles:
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
        """Stop the workers.  Unresolved frames resolve as expired."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            handle.resolution = "expired"
            handle.missed_deadline = True
        self._handles.clear()
        if self._supervisor is not None:
            self._supervisor.close()
