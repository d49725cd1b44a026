"""Cell-site client: a cell's blocking facade over the service socket.

One :class:`CellSiteClient` per cell (or per
:class:`~repro.runtime.cell.CellWorkload` generator): ``submit`` streams
frames in — blocking while the farm exerts backpressure — and ``poll``
/ ``drain`` bring back payload dicts for *this client's* frames only.
``poll`` is a long poll: while this client has frames outstanding the
server holds the request until one resolves or its few-millisecond
protocol bound (:data:`~repro.service.server.POLL_HOLD_S`) passes, and
answers at once when nothing is outstanding — so the client never
sleeps, and a result reaches it as soon as the worker reports it.
Results arrive as the same objects a local
:class:`~repro.runtime.session.UplinkRuntime` resolves
(:class:`FrameDecodeResult` / :class:`SoftFrameResult`, CRC decisions
attached), carried across the local socket in the declared wire schema
(:mod:`repro.service.wire`: each result encoded once, by its worker, and
decoded once, here), so code written against the runtime's results runs
unchanged against the service.
"""

from __future__ import annotations

import socket

from .protocol import recv_obj, send_obj

__all__ = ["CellSiteClient"]


class CellSiteClient:
    """Blocking client for :class:`~repro.service.server.CellSiteServer`.

    Not thread-safe: one client per connection per thread — cells are
    independent, so give each its own client (that is the point of the
    service front).
    """

    def __init__(self, address: tuple) -> None:
        self._sock = socket.create_connection(tuple(address))
        self._outstanding: set[int] = set()

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "CellSiteClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, *message) -> object:
        send_obj(self._sock, message)
        status, value = recv_obj(self._sock)
        # Build the error text only on the error path: an "ok" value is
        # a batch of decode results, and rendering those into a message
        # nobody reads cost more than the round trip itself.
        if status != "ok":
            raise ValueError(f"service error: {value}")
        return value

    # -- the service verbs -----------------------------------------------
    @property
    def outstanding(self) -> int:
        """Frames submitted but not yet returned by a poll."""
        return len(self._outstanding)

    def submit(self, request) -> int:
        """Stream one frame in; returns its farm frame id.  Blocks while
        the farm's outstanding budget is full — backpressure reaches
        from the shard lanes all the way back to the generator."""
        frame_id = self._call("submit", request)
        self._outstanding.add(frame_id)
        return frame_id

    def poll(self) -> list[dict]:
        """Resolved payloads for this client's frames (may be empty).
        Waits server-side, up to the protocol bound, while frames are
        outstanding and none has resolved; returns at once when none
        are.  Each dict carries ``frame_id``, ``resolution``, QoS flags,
        ``latency_s`` and — for completed frames — the decode
        ``result``."""
        payloads = self._call("poll")
        for payload in payloads:
            self._outstanding.discard(payload["frame_id"])
        return payloads

    def drain(self) -> list[dict]:
        """Poll until every submitted frame resolves.  Each ``poll``
        waits server-side, so the loop needs no sleep; worker crashes
        surface as ``"expired"`` payloads, so a drain never hangs."""
        payloads = []
        while self._outstanding:
            payloads.extend(self.poll())
        return payloads

    def cancel(self, frame_id: int) -> bool:
        """Cancel one of this client's unresolved frames."""
        cancelled = self._call("cancel", frame_id)
        if cancelled:
            self._outstanding.discard(frame_id)
        return bool(cancelled)

    def stats(self) -> dict:
        """The farm-level stats view (aggregated shard ledgers)."""
        return self._call("stats")

    def metrics(self) -> str:
        """The farm's metrics as a Prometheus text scrape body — what a
        scrape endpoint would serve, fetched over the service socket."""
        return self._call("metrics")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
