"""Wire protocol and deterministic routing for the detector farm.

Two small, load-bearing pieces live here:

**Routing.**  The farm partitions work by *search signature*
(:func:`repro.runtime.queue.search_signature`, the key the engine groups
kernel pools by: hard/soft, stream count, constellation, enumerator,
pruning, budgets, list size) — so every frame of one signature always
lands on the same shard and its per-signature kernel pool lives in
exactly one worker process.  The shard index comes from a *keyed* stable
hash (:func:`shard_for`, BLAKE2b), **not** Python's builtin ``hash``,
which is salted per process and would route differently on every run;
determinism is what makes admission order within a shard reproducible
and the farm's bit-exactness contract testable.

**Framing.**  The cell-site service front speaks length-prefixed pickle
over a local stream socket (:func:`send_obj` / :func:`recv_obj`).  This
is a trusted single-host IPC link between the AP front and its own
compute farm — the same trust boundary as ``multiprocessing``'s own
pickle-based pipes — not an internet-facing protocol.  Trusted does not
mean unbounded: a declared length above :data:`MAX_MESSAGE_BYTES` is
refused before a byte of it is allocated, so a corrupt or hostile
header costs its own connection and nothing else.
"""

from __future__ import annotations

import hashlib
import pickle
import struct

from ..runtime.queue import search_signature
from ..utils.validation import require

__all__ = ["VERBS", "recv_obj", "request_signature", "resolution_payload",
           "send_obj", "shard_for"]

#: The service verbs the cell-site wire protocol speaks — the farm's
#: surface plus ``metrics`` (Prometheus text exposition of the farm's
#: stats).  Every request is ``(verb, *args)``.
VERBS = ("submit", "poll", "cancel", "stats", "metrics")

#: Length-prefix layout: one unsigned 32-bit big-endian byte count.
_HEADER = struct.Struct("!I")

#: Largest message either side accepts, in bytes.  A 4x4 x 64-subcarrier
#: request pickles to ~34 KB and a frame result to ~11 KB, so 64 MiB is
#: three orders of magnitude of headroom — and sixty-four times less
#: than what the 32-bit prefix could otherwise make a receiver allocate.
MAX_MESSAGE_BYTES = 64 << 20


def request_signature(request) -> tuple:
    """The :func:`~repro.runtime.queue.search_signature` a
    :class:`FrameRequest`'s admitted :class:`FrameJob` will pool under,
    taken without paying the job's QR preprocessing — routing happens
    *before* the frame reaches any runtime."""
    return search_signature(request.decoder,
                            int(request.channels.shape[2]))


def resolution_payload(frame_id: int, handle) -> dict:
    """The one shape a resolved
    :class:`~repro.runtime.session.PendingFrame` travels in — worker
    pipe to farm, socket to client — whoever resolved it; every hop
    speaks the *farm's* frame id, hence apart."""
    return {
        "frame_id": frame_id,
        "resolution": handle.resolution,
        "degraded": handle.degraded,
        "missed_deadline": handle.missed_deadline,
        "latency_s": handle.latency_s,
        # The runtime's lifecycle trace (None unless it traces): it
        # rides along so the farm can merge it with its routing trace.
        "trace": handle.trace,
        "result": (handle.result() if handle.resolution == "completed"
                   else None),
    }


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
    """Pickle ``obj`` and send it length-prefixed on a stream socket."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("peer closed mid-message")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_obj(sock):
    """Receive one length-prefixed pickled object; raises
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
    return pickle.loads(_recv_exact(sock, length))
