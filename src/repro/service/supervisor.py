"""Worker supervision: spawn, watch, restart, and re-route shard work.

The farm's liveness story lives here.  Every shard runs
:func:`~repro.service.worker.worker_main` in a forked child, and the
supervisor keeps, per shard, an **in-flight ledger** — every frame
dispatched but not yet reported done, in admission order, with its
arrival time.  That ledger is what makes worker death survivable without
lying: when a shard is declared failed, its ledger is replayed in the
original admission order into a fresh worker (deadline budgets shrunk by
the time already spent), except frames whose deadline has already passed
— those resolve through the existing ``FrameExpired`` path.  Nothing
hangs, nothing is silently dropped, and no result is fabricated:
re-decoding a frame from scratch runs the same deterministic float
program, so a recovered frame's result is the result.

Failure is detected two ways:

* **crash** — ``Process.is_alive()`` is false or the pipe raises
  ``EOFError`` (the fault-injection tests SIGKILL workers mid-frame to
  force exactly this);
* **hang** — the worker hasn't sent *anything* (heartbeat, result or
  stats reply) for ``hang_timeout_s`` while its ledger is non-empty.
  Heartbeats are sent from inside the worker's service loop, so a
  worker stuck in a syscall or spinning outside the loop goes quiet and
  trips this.

A shard that keeps dying burns through ``max_restarts``; after that its
ledger frames expire instead of being replayed — a liveness backstop so
a poisonous workload degrades into explicit ``FrameExpired`` resolutions
rather than a restart loop.

**Counters outlive workers.**  A replacement worker starts a fresh
``RuntimeStats``, so :attr:`ShardSupervisor.retired` keeps, per shard,
the last summary each replaced worker reported (folded) plus the frames
the supervisor expired itself — each resolved as a real
:class:`~repro.runtime.session.PendingFrame` and counted by
``RuntimeStats.record_expired``, as a worker counts its own expiries
(``record_dropped`` for a frame without a deadline) — for the farm's
``stats()`` to add: no ``*_total`` runs backwards across a restart, a
supervisor-side expiry of a deadline-tagged frame is a counted deadline
miss and an undated one is an expiry only.
Work a worker did between its last stats reply and its death is lost
with the process.

Nothing here sleeps.  Whoever needs a worker's next word blocks in
:meth:`ShardSupervisor.wait` — ``multiprocessing.connection.wait`` over
the worker pipes — and is woken by the message itself (a result, a
heartbeat) or by the EOF a dead worker's pipe reads, so results are
pushed up to the waiter rather than found by the next timed poll.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import select
import time
from multiprocessing.connection import wait as wait_for_pipes

from ..obs.trace import FrameTracer
from ..runtime.session import PendingFrame
from ..runtime.stats import RuntimeStats, fold_counters
from ..utils.validation import require
from .protocol import pipe_recv, pipe_send, resolution_payload
from .wire import opened
from .worker import DEFAULT_HEARTBEAT_S, worker_main

__all__ = ["ShardSupervisor"]

#: Shard restarts allowed before its in-flight frames expire instead.
DEFAULT_MAX_RESTARTS = 5

#: Quiet time (seconds) after which a shard with in-flight work is
#: declared hung.  Generous relative to the heartbeat period: a healthy
#: worker beats every DEFAULT_HEARTBEAT_S even mid-burst.
DEFAULT_HANG_TIMEOUT_S = 5.0


class _Worker:
    """One shard's process and pipe endpoint, the pipe registered once
    with its own ``select.poll`` (``Connection.poll`` builds a selector
    per call).  A restart builds a new worker, and so a new poller."""

    def __init__(self, shard_id: int, runtime_kwargs: dict | None,
                 heartbeat_s: float) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=worker_main,
            args=(shard_id, child_conn, runtime_kwargs, heartbeat_s),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.readable = select.poll()
        self.readable.register(self.conn.fileno(), select.POLLIN)
        self.last_seen = time.monotonic()

    def stop(self) -> None:
        try:
            pipe_send(self.conn, ("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=1.0)
        self.conn.close()


class ShardSupervisor:
    """Spawn and babysit ``num_shards`` worker processes.

    The router talks to shards only through this class: ``submit`` and
    ``cancel`` write the command pipes (and maintain the ledgers),
    ``pump`` drains results and runs failure detection, ``wait`` blocks
    until ``pump`` has something to do, ``stats`` gathers per-shard
    summaries.  Frames the supervisor expires itself come back from
    ``pump`` as ordinary payloads read off a real ``PendingFrame``,
    indistinguishable to the router from a worker-side expiry.
    """

    def __init__(self, num_shards: int, *, runtime_kwargs: dict | None = None,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 hang_timeout_s: float = DEFAULT_HANG_TIMEOUT_S,
                 max_restarts: int = DEFAULT_MAX_RESTARTS,
                 tracer: FrameTracer | None = None) -> None:
        require(num_shards >= 1, "farm needs at least one shard")
        require(hang_timeout_s > heartbeat_s,
                "hang timeout must exceed the heartbeat period")
        self.num_shards = num_shards
        self.runtime_kwargs = runtime_kwargs
        self.heartbeat_s = heartbeat_s
        self.hang_timeout_s = hang_timeout_s
        self.max_restarts = max_restarts
        self.restarts = [0] * num_shards
        # Tracer for the recovery annotations (restart / replay /
        # supervisor-side expire) stamped onto the farm-side traces the
        # ledger carries.  Traces are None when tracing is off, so the
        # default disabled tracer costs nothing.
        self._tracer = tracer if tracer is not None else FrameTracer()
        # Per-shard in-flight ledger: farm frame_id -> (request, enqueued
        # monotonic time, farm-side trace or None), in admission order
        # (dicts preserve insertion).  A request that arrived on the
        # socket stays sealed (repro.service.wire.Sealed): its bytes go
        # to the worker as the client encoded them.
        self._ledger: list[dict[int, tuple]] = [
            {} for _ in range(num_shards)]
        self._workers = [_Worker(shard, runtime_kwargs, heartbeat_s)
                         for shard in range(num_shards)]
        self._stashed: list[tuple] = []
        #: Per shard: replaced workers' folded counters plus supervisor
        #: expiries (module docstring), for ``aggregate_summaries``.
        self.retired = [fold_counters([]) for _ in range(num_shards)]
        # Per shard, the last summary its running worker reported.
        self._last_summary: list[dict] = [{} for _ in range(num_shards)]

    # -- dispatch -------------------------------------------------------
    def submit(self, shard: int, frame_id: int, request,
               trace=None) -> None:
        """Dispatch one frame: a :class:`FrameRequest` or a sealed one.
        A request the wire cannot carry raises ``ValueError`` before a
        byte is sent, and the ledger keeps nothing of it."""
        self._ledger[shard][frame_id] = (request, time.monotonic(), trace)
        try:
            self._send(shard, ("submit", frame_id, request))
        except ValueError:
            del self._ledger[shard][frame_id]
            raise

    def cancel(self, shard: int, frame_id: int) -> None:
        if self._ledger[shard].pop(frame_id, None) is not None:
            self._send(shard, ("cancel", frame_id))

    def _send(self, shard: int, message: tuple) -> None:
        try:
            pipe_send(self._workers[shard].conn, message)
        except (BrokenPipeError, OSError):
            pass          # pump()'s failure detection recovers the shard

    # -- results + failure detection ------------------------------------
    def pump(self) -> list[dict]:
        """Drain every shard's pipe; detect and recover failures.

        Returns resolved payload dicts (worker results, worker-side
        expiries and supervisor-side expiries alike), each result still
        sealed as its worker encoded it.  Never blocks.
        """
        for shard, worker in enumerate(self._workers):
            try:
                while worker.readable.poll(0):
                    self._receive(shard, pipe_recv(worker.conn,
                                                   sealed=True))
            except (EOFError, OSError):
                pass      # crash detection below restarts the shard
        # Results for frames the ledger no longer owns (cancelled, or
        # already expired by recovery) are dropped.
        payloads = [payload for _, shard, payload in self._stashed
                    if self._ledger[shard].pop(payload["frame_id"],
                                               None) is not None]
        self._stashed.clear()
        now = time.monotonic()
        for shard, worker in enumerate(self._workers):
            crashed = not worker.process.is_alive()
            hung = (self._ledger[shard]
                    and now - worker.last_seen > self.hang_timeout_s)
            if crashed or hung:
                payloads.extend(self._recover(
                    shard, "crashed" if crashed else "hung"))
        return payloads

    def wait(self, timeout_s: float | None = None) -> None:
        """Block until :meth:`pump` has something to do, ``timeout_s``
        at most (default: one heartbeat, the longest a healthy worker
        stays silent — waiting longer would only delay hang detection).

        Returns at once when a stashed message is waiting, and as soon
        as any worker pipe turns readable: a result, a heartbeat, or
        the EOF of a dead worker, which is how a crash reaches
        ``pump``'s failure detection without anybody polling for it.
        Safe to call without the lock that guards the other methods:
        it reads the pipes' readiness, never their contents, and a pipe
        closed under it (recovery, shutdown) just ends the wait.
        """
        if self._stashed:
            return
        if timeout_s is None:
            timeout_s = self.heartbeat_s
        try:
            wait_for_pipes([worker.conn for worker in self._workers],
                           timeout_s)
        except OSError:
            pass          # a pipe was closed under us; pump() sorts it out

    def _receive(self, shard: int, message: tuple) -> str:
        """File one worker message, whoever read it (``pump`` or a
        ``stats`` gather), and return its kind: a result waits in the
        stash for ``pump``, a stats reply becomes the shard's last
        summary, and any message — a heartbeat too — proves it alive."""
        self._workers[shard].last_seen = time.monotonic()
        if message[0] == "done":
            self._stashed.append(message)
        elif message[0] == "stats":
            self._last_summary[shard] = message[2]
        return message[0]

    def _recover(self, shard: int, reason: str) -> list[dict]:
        """Replace a failed worker; replay or expire its ledger."""
        worker = self._workers[shard]
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=1.0)
        worker.conn.close()
        self.restarts[shard] += 1
        ledger = self._ledger[shard]
        self._ledger[shard] = {}
        self._workers[shard] = _Worker(shard, self.runtime_kwargs,
                                       self.heartbeat_s)
        now = time.monotonic()
        exhausted = self.restarts[shard] > self.max_restarts
        expiries = RuntimeStats()
        payloads = []
        for frame_id, (entry, enqueued, trace) in ledger.items():
            request = opened(entry)
            elapsed = now - enqueued
            self._tracer.emit(trace, "restart", shard=shard, reason=reason,
                              restarts=self.restarts[shard])
            dated = request.deadline_s is not None
            overdue = dated and elapsed >= request.deadline_s
            if exhausted or overdue:
                self._tracer.emit(trace, "expire", reason="supervisor")
                handle = PendingFrame(frame_id, request, enqueued)
                handle.resolve("expired", now, missed_deadline=dated)
                (expiries.record_expired if dated
                 else expiries.record_dropped)(now)
                payloads.append(resolution_payload(frame_id, handle))
                continue
            if dated:
                # The replayed frame keeps its original wall-clock
                # budget: shrink the deadline by the time already spent
                # (and re-encode it; an undated one replays as it came).
                entry = request = dataclasses.replace(
                    request, deadline_s=request.deadline_s - elapsed)
            self._tracer.emit(trace, "replay",
                              deadline_s=request.deadline_s)
            self._ledger[shard][frame_id] = (entry, enqueued, trace)
            self._send(shard, ("submit", frame_id, entry))
        self.retired[shard] = fold_counters(
            [self.retired[shard], self._last_summary[shard],
             expiries.summary()])
        self._last_summary[shard] = {}
        return payloads

    # -- stats ----------------------------------------------------------
    def stats(self, timeout_s: float = 2.0) -> list[dict | None]:
        """Per-shard ``RuntimeStats.summary()`` dicts (``None`` for a
        shard that failed to answer in time).  Results arriving while
        waiting are stashed for the next :meth:`pump`."""
        for shard in range(self.num_shards):
            self._send(shard, ("stats",))
        replies: list[dict | None] = [None] * self.num_shards
        # Pipes still owed a reply.  A pipe that hits EOF leaves the set
        # (its shard stays None; the next pump() recovers it), so a dead
        # worker cannot keep the wait below returning at once.
        owed = {worker.conn: shard
                for shard, worker in enumerate(self._workers)}
        deadline = time.monotonic() + timeout_s
        while owed:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                readable = wait_for_pipes(list(owed), remaining)
            except OSError:
                break     # supervisor closed: nobody is left to answer
            for conn in readable:
                shard = owed[conn]
                try:
                    kind = self._receive(shard,
                                         pipe_recv(conn, sealed=True))
                except (EOFError, OSError):
                    del owed[conn]
                    continue
                if kind == "stats":
                    replies[shard] = self._last_summary[shard]
                    del owed[conn]
        return replies

    # -- lifecycle ------------------------------------------------------
    def kill_shard(self, shard: int) -> None:
        """SIGKILL one worker (fault injection); the next :meth:`pump`
        detects the crash and recovers its ledger."""
        self._workers[shard].process.kill()
        self._workers[shard].process.join(timeout=1.0)

    def close(self) -> None:
        for worker in self._workers:
            worker.stop()
