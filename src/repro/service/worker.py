"""Shard worker: one :class:`UplinkRuntime` serving one partition.

:class:`ShardRuntime` is the *whole* per-shard brain — a non-blocking
admission wrapper around :class:`~repro.runtime.session.UplinkRuntime`
that turns farm messages (submit/cancel) into runtime calls and resolved
frames into plain payload dicts.  Both farm backends run exactly this
class: the ``"inline"`` backend calls it directly in the router's
process (deterministic tests, coverage), the ``"process"`` backend runs
it inside :func:`worker_main`'s child-process loop.  Because the inline
and process paths share every line of shard logic, the bit-exactness
sweeps that drive the inline farm exercise the same code the process
farm ships work to.

The wrapper exists because ``UplinkRuntime.submit`` *blocks* under
backpressure (it ticks the engine until a frame resolves), which a
worker loop multiplexing a command pipe cannot afford: commands would
sit unread — and heartbeats unsent — while the engine ground through a
burst.  ``ShardRuntime`` instead parks arrivals in a local queue and
admits them whenever the runtime has in-flight room, so every
``service()`` call does a bounded slice of work and the loop stays
responsive.
"""

from __future__ import annotations

import time
from collections import deque

from ..runtime.session import UplinkRuntime
from .protocol import pipe_recv, pipe_send, resolution_payload

__all__ = ["ShardRuntime", "worker_main"]

#: Default seconds between worker heartbeats on the command pipe.
DEFAULT_HEARTBEAT_S = 0.05


class ShardRuntime:
    """Non-blocking shard facade over one :class:`UplinkRuntime`.

    ``submit`` never blocks (arrivals queue locally until the runtime
    has in-flight room), ``service`` advances the engine at most one
    tick per call, and resolved frames come back as payload dicts keyed
    by the *farm's* frame id — the runtime's own ids stay internal, so
    a restarted worker can't collide with ids the farm already issued.
    """

    def __init__(self, runtime_kwargs: dict | None = None) -> None:
        self.runtime = UplinkRuntime(**(runtime_kwargs or {}))
        self._waiting: deque = deque()          # (farm_id, request)
        self._queued_ids: set[int] = set()
        self._id_of: dict[int, int] = {}        # runtime frame_id -> farm id
        self._handle_of: dict[int, object] = {}  # farm id -> PendingFrame

    @property
    def idle(self) -> bool:
        return not self._waiting and self.runtime.idle

    @property
    def outstanding(self) -> int:
        """Frames accepted but not yet resolved."""
        return len(self._waiting) + self.runtime.in_flight

    def submit(self, frame_id: int, request) -> None:
        """Accept a frame without blocking; admission happens in
        :meth:`service` once the runtime has room."""
        self._waiting.append((frame_id, request))
        self._queued_ids.add(frame_id)
        self._pump()

    def cancel(self, frame_id: int) -> bool:
        """Abandon an unresolved frame (queued or in-flight).  Returns
        ``False`` for a frame already resolved (or never seen) — the
        farm treats that as "the result won the race"."""
        if frame_id in self._queued_ids:
            self._queued_ids.discard(frame_id)
            self._waiting = deque(
                entry for entry in self._waiting if entry[0] != frame_id)
            return True
        handle = self._handle_of.get(frame_id)
        if handle is None or handle.done:
            return False
        self.runtime.cancel(handle)
        del self._handle_of[frame_id]
        del self._id_of[handle.frame_id]
        return True

    def _pump(self) -> None:
        while (self._waiting
               and self.runtime.in_flight < self.runtime.max_in_flight):
            frame_id, request = self._waiting.popleft()
            if frame_id not in self._queued_ids:
                continue                         # cancelled while queued
            self._queued_ids.discard(frame_id)
            handle = self.runtime.submit(request)
            self._id_of[handle.frame_id] = frame_id
            self._handle_of[frame_id] = handle

    def service(self) -> list[dict]:
        """One bounded slice of shard work: admit what fits, advance the
        engine at most one tick, and return payloads for every frame
        that resolved."""
        self._pump()
        resolved = self.runtime.poll(max_ticks=1 if self.runtime.in_flight
                                     else 0)
        payloads = []
        for handle in resolved:      # a cancelled frame never comes back
            farm_id = self._id_of.pop(handle.frame_id)
            del self._handle_of[farm_id]
            payloads.append(resolution_payload(farm_id, handle))
        self._pump()
        return payloads

    def drain(self) -> list[dict]:
        """Run everything accepted so far to resolution."""
        payloads = []
        while not self.idle:
            payloads.extend(self.service())
        return payloads

    def summary(self) -> dict:
        return self.runtime.stats.summary()


def worker_main(shard_id: int, conn, runtime_kwargs: dict | None,
                heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
    """Child-process loop: multiplex the command pipe against shard work.

    Messages, in the wire schema (:mod:`repro.service.wire`) through
    ``send_bytes`` / ``recv_bytes``.  In: ``("submit", frame_id,
    request)`` — the request as its client encoded it, decoded here
    once — ``("cancel", frame_id)``, ``("stats",)``, ``("stop",)``.  Out:
    ``("done", shard_id, payload)`` per resolved frame, ``("stats",
    shard_id, summary)`` replies, and ``("beat", shard_id)`` heartbeats
    — sent at least every ``heartbeat_s`` even while grinding through a
    burst, which is exactly the signal the supervisor's hang detector
    watches.  Exits cleanly when the pipe closes (parent died) or a
    ``stop`` arrives.
    """
    core = ShardRuntime(runtime_kwargs)
    last_beat = time.monotonic()
    try:
        while True:
            # Idle shards block on the pipe (up to one heartbeat); busy
            # shards just drain whatever commands are waiting.
            timeout = heartbeat_s if core.idle else 0.0
            while conn.poll(timeout):
                message = pipe_recv(conn)
                op = message[0]
                if op == "submit":
                    core.submit(message[1], message[2])
                elif op == "cancel":
                    core.cancel(message[1])
                elif op == "stats":
                    pipe_send(conn, ("stats", shard_id, core.summary()))
                elif op == "stop":
                    return
                timeout = 0.0
            for payload in core.service():
                pipe_send(conn, ("done", shard_id, payload))
            now = time.monotonic()
            if now - last_beat >= heartbeat_s:
                pipe_send(conn, ("beat", shard_id))
                last_beat = now
    except (EOFError, BrokenPipeError, OSError):
        return                                   # parent went away
