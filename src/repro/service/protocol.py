"""Wire protocol and deterministic routing for the detector farm.

Two small, load-bearing pieces live here:

**Routing.**  The farm partitions work by :func:`request_signature`:
the key the engine groups kernel pools by
(:func:`repro.runtime.queue.search_signature`) plus the node budget,
initial radius and LLR clamp a decoder sets per frame — finer than
pooling, which is harmless — so every frame of one signature always
lands on the same shard.  The shard index comes from a
*keyed* stable hash (:func:`shard_for`, BLAKE2b), **not** Python's
builtin ``hash``, which is salted per process and would route
differently on every run; determinism is what makes admission order
within a shard reproducible and the farm's bit-exactness contract
testable.

**Framing.**  The cell-site service front speaks length-prefixed
messages over a local stream socket (:func:`send_obj` /
:func:`recv_obj`) in a declared binary schema
(:mod:`repro.service.wire`): a verb and typed fields, arrays as raw
buffers, a decoder as its config.  A receiver builds nothing but the
schema's records from what it reads, so a peer on the port can send a
bad frame and be answered with an error, but cannot make the server
run code.  Nothing is unbounded either: a declared length above
:data:`MAX_MESSAGE_BYTES` is refused before a byte of it is allocated,
and each field's own caps are checked before it is built, so a corrupt
or hostile message costs its own connection — a well-framed one only
its own reply — and nothing else.  The worker pipe speaks the same
bytes (:func:`pipe_send` / :func:`pipe_recv`).
"""

from __future__ import annotations

import hashlib
import struct

from ..runtime.queue import search_signature
from ..runtime.session import PendingFrame
from ..utils.validation import require
from .wire import MAX_MESSAGE_BYTES, Resolution, decode, encode

__all__ = ["MAX_MESSAGE_BYTES", "VERBS", "pipe_recv", "pipe_send",
           "recv_frame", "recv_obj", "request_signature",
           "resolution_payload", "send_obj", "shard_for"]

#: The service verbs the cell-site wire protocol speaks — the farm's
#: surface plus ``metrics`` (Prometheus text exposition of the farm's
#: stats).  Every request is ``(verb, *args)``.
VERBS = ("submit", "poll", "cancel", "stats", "metrics")

#: Length-prefix layout: one unsigned 32-bit big-endian byte count.
_HEADER = struct.Struct("!I")


def request_signature(request) -> tuple:
    """The :func:`~repro.runtime.queue.search_signature` a
    :class:`FrameRequest`'s admitted :class:`FrameJob` will pool under,
    then its decoder's node budget, initial radius and (soft) clamp;
    taken without paying the job's QR preprocessing — routing happens
    *before* the frame reaches any runtime."""
    decoder = request.decoder
    return search_signature(decoder, int(request.channels.shape[2])) + (
        decoder.node_budget, decoder.initial_radius_sq,
        decoder.clamp if decoder.list_size else None)


def resolution_payload(frame_id: int, handle) -> dict:
    """The one shape a resolved
    :class:`~repro.runtime.session.PendingFrame` travels in — worker
    pipe to farm, socket to client — whoever resolved it; every hop
    speaks the *farm's* frame id, hence apart."""
    return Resolution({
        "frame_id": frame_id,
        "resolution": handle.resolution,
        "degraded": handle.degraded,
        "missed_deadline": handle.missed_deadline,
        "latency_s": handle.latency_s,
        # The runtime's lifecycle trace (None unless it traces): it
        # rides along so the farm can merge it with its routing trace.
        "trace": handle.trace,
        # PendingFrame.result, not the handle's own: a farm's handle
        # holds its worker's result sealed, and a hop that forwards it
        # passes the worker's bytes on without decoding them.
        "result": (PendingFrame.result(handle)
                   if handle.resolution == "completed" else None),
    })


def shard_for(signature: tuple, num_shards: int) -> int:
    """Deterministically map a signature to a shard in ``[0, num_shards)``.

    Stable across processes and runs (unlike builtin ``hash``), so a
    frame's shard — and therefore the admission order each shard's
    runtime sees — depends only on the workload, never on interpreter
    hash salting.
    """
    require(num_shards >= 1, "farm needs at least one shard")
    digest = hashlib.blake2b(repr(signature).encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


def send_obj(sock, obj) -> None:
    """Encode ``obj`` (a ``(verb, *fields)`` message) and send it
    length-prefixed on a stream socket."""
    sock.sendall(encode(obj))


def _recv_exact(sock, count: int) -> bytearray:
    buffer = bytearray(count)
    view = memoryview(buffer)
    while view:
        received = sock.recv_into(view)
        if not received:
            raise ConnectionError("peer closed mid-message")
        view = view[received:]
    return buffer


def recv_frame(sock) -> bytearray:
    """Receive one length-prefixed message body, undecoded; raises
    :class:`ConnectionError` on a half-read (peer died mid-message) or
    a declared length above :data:`MAX_MESSAGE_BYTES` (nothing is
    allocated for it; the stream is unusable from there, so the caller
    drops the connection), and :class:`EOFError` on a clean close
    between messages."""
    try:
        header = _recv_exact(sock, _HEADER.size)
    except ConnectionError:
        raise EOFError("connection closed") from None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ConnectionError(
            f"peer declared a {length}-byte message; the protocol cap is "
            f"{MAX_MESSAGE_BYTES}")
    return _recv_exact(sock, length)


def recv_obj(sock):
    """Receive and decode one message (:func:`recv_frame`'s errors, and
    ``ValueError`` for a body the schema does not declare)."""
    return decode(recv_frame(sock))


def pipe_send(conn, message: tuple) -> None:
    """Send one message on a worker pipe: the wire bytes, past the
    socket's length prefix (the pipe frames its own)."""
    conn.send_bytes(encode(message), _HEADER.size)


def pipe_recv(conn, *, sealed: bool = False) -> tuple:
    """Receive and decode one worker-pipe message; ``sealed`` as in
    :func:`repro.service.wire.decode`.  The bytes are copied once into a
    writable buffer, so decoded arrays are writable views of it."""
    return decode(bytearray(conn.recv_bytes()), sealed=sealed)
