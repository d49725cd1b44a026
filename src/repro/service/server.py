"""Cell-site service front: the farm behind a local stream socket.

Many cells, one farm: each cell-site generator connects a
:class:`~repro.service.client.CellSiteClient` and streams its frames in;
the server multiplexes every connection onto one shared
:class:`~repro.service.router.DetectorFarm`.  The wire verbs mirror the
farm's — ``submit``/``poll``/``cancel``/``stats``/``metrics`` — as synchronous
request/response pairs (length-prefixed messages in the declared wire
schema, :mod:`repro.service.protocol`), so a client is a thin blocking
facade and all concurrency lives server-side: one accept loop, one
thread per connection, the farm itself guarded by a lock.

The server decodes a message with its requests and results left
sealed (:class:`~repro.service.wire.Sealed`): a submitted frame is
decoded once here to validate and route it and reaches its worker as
the bytes its client sent, and a worker's result reaches the client as
the bytes the worker sent.  A message that frames correctly but does
not decode is answered ``("error", reason)`` and costs nothing else.

Frame **ownership is per connection**: ``poll`` returns only frames the
polling client submitted, and a connection that drops takes its
unresolved frames with it (cancelled server-side) — one departed cell
cannot strand work or leak another cell's results.

``poll`` is a **long poll**, so results are pushed rather than found:
while the connection owns unresolved frames and has nothing to report,
the server holds the request — blocked on the worker pipes
(:meth:`DetectorFarm.wait`) with the farm lock *released*, re-collecting
on every wake — until one of this connection's frames resolves or
:data:`POLL_HOLD_S` passes; a connection that owns nothing is answered
at once.  A result pumped on behalf of another connection is found by
its owner's next re-collect, so it too arrives within the bound.
Nothing in ``repro.service`` sleeps.  Backpressure is
end-to-end: ``submit`` replies only after the farm accepted the frame,
and the farm's ``max_outstanding`` bound makes that reply wait when the
shards are saturated, so a fast cell slows down instead of ballooning
the queue.
"""

from __future__ import annotations

import socket
import threading
import time

from .protocol import VERBS, recv_frame, resolution_payload, send_obj
from .router import DetectorFarm
from .wire import MESSAGES, decode

__all__ = ["CellSiteServer"]

#: Longest the ``poll`` verb holds a request that has nothing to report
#: (seconds).  A protocol constant, not a tuning knob: it bounds how
#: stale an empty reply can be and how long a result collected on
#: another connection's behalf waits for its owner, and it sits below
#: the period at which a polling client wants control back for its own
#: housekeeping (the ladder driver probes every 15 ms).
POLL_HOLD_S = 0.005


class CellSiteServer:
    """Serve a :class:`DetectorFarm` on a local TCP socket.

    The server owns neither the farm's creation arguments nor its
    lifetime policy — pass a constructed farm in, and ``close()`` (or
    the context manager) shuts both down.  ``address`` is the bound
    ``(host, port)``; port 0 picks a free ephemeral port, which is what
    the tests and the example use.
    """

    def __init__(self, farm: DetectorFarm, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.farm = farm
        self._lock = threading.Lock()
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cell-site-accept", daemon=True)
        self._accept_thread.start()

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "CellSiteServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection handling ---------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return                        # listener closed
            # Fire and forget: a connection thread ends with its
            # connection and nothing joins it, so none is kept.
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="cell-site-conn", daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        # This connection's frames: farm frame_id -> handle, plus the
        # resolved-but-not-yet-polled buffer.
        owned: dict[int, object] = {}
        ready: list[object] = []
        try:
            while True:
                data = recv_frame(conn)
                try:
                    message = decode(data, sealed=True)
                except ValueError as error:
                    reply = ("error", f"undecodable message: {error}")
                else:
                    reply = self._dispatch(message, owned, ready)
                send_obj(conn, reply)
        except (EOFError, ConnectionError, OSError):
            pass
        finally:
            with self._lock:
                for handle in owned.values():
                    self.farm.cancel(handle)      # no-op once resolved
            conn.close()

    def _collect(self, owned: dict, ready: list) -> None:
        """Service the farm once; stash this connection's resolutions.

        Resolutions for *other* connections are applied to their handles
        by the farm either way — their ``poll`` finds them done on its
        next ``_collect``, at most one :data:`POLL_HOLD_S` away."""
        self.farm.pump()
        for frame_id in [frame_id for frame_id, handle in owned.items()
                         if handle.done]:
            ready.append(owned.pop(frame_id))

    def _poll(self, owned: dict, ready: list) -> list[dict]:
        """The ``poll`` verb: this connection's resolutions, held back
        up to :data:`POLL_HOLD_S` while it owns unresolved frames and
        has none to report.  The lock is taken only to collect; the
        wait in between runs with it released, so other connections
        submit, poll and cancel meanwhile."""
        deadline = time.monotonic() + POLL_HOLD_S
        while True:
            with self._lock:
                self._collect(owned, ready)
            remaining = deadline - time.monotonic()
            if ready or not owned or remaining <= 0:
                break
            self.farm.wait(remaining)
        payloads = [resolution_payload(handle.frame_id, handle)
                    for handle in ready]
        ready.clear()
        return payloads

    def _dispatch(self, message: tuple, owned: dict, ready: list) -> tuple:
        op = message[0]
        # The schema declares more (the replies, the worker pipe's
        # verbs); a client sends a service verb in its first signature.
        if op not in VERBS or len(message) != 1 + len(MESSAGES[op][0]):
            return ("error", f"unknown op {op!r} with {len(message) - 1} "
                    "fields")
        if op == "poll":
            return ("ok", self._poll(owned, ready))
        with self._lock:
            if op == "submit":
                try:
                    handle = self.farm.submit(message[1])
                except ValueError as error:
                    # A frame that fails front-door validation costs
                    # exactly itself: the client gets the reason, the
                    # connection and its in-flight frames carry on.
                    return ("error", str(error))
                owned[handle.frame_id] = handle
                return ("ok", handle.frame_id)
            if op == "cancel":
                # A frame whose result won the race stays owned: the
                # next poll delivers it.
                handle = owned.get(message[1])
                cancelled = handle is not None and self.farm.cancel(handle)
                if cancelled:
                    del owned[message[1]]
                return ("ok", cancelled)
            if op == "stats":
                return ("ok", self.farm.stats())
            return ("ok", self.farm.metrics())

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop accepting, drop the listener, shut the farm down."""
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass
        # Under the lock: no connection thread is mid-pump while the
        # worker pipes close (a long poll in its wait holds no lock and
        # simply wakes to find its frames expired).
        with self._lock:
            self.farm.close()
