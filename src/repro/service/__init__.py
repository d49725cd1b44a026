"""Sharded detector farm behind a cell-site service API.

This package scales the streaming runtime past one process: a
:class:`DetectorFarm` partitions the per-signature kernel pools across
supervised worker processes (deterministic signature routing, so each
shard's admission order is reproducible), and a :class:`CellSiteServer`
puts the farm behind a local socket so many cells stream frames into one
farm with backpressure and QoS preserved end to end.  A frame submitted
to the farm resolves into the same
:class:`~repro.runtime.session.PendingFrame` a single runtime hands out,
through the same :meth:`~repro.runtime.session.PendingFrame.resolve`.
The standing bit-exactness contract extends across the farm: for any
shard count and either lane policy, every frame's results, LLRs and
complexity counters are bit-identical to a single-process
:class:`~repro.runtime.session.UplinkRuntime` and to standalone
``decode_frame``.

Layering (each module only reaches down):

``wire``       the declared message schema: encode / decode, sealed
               records
``protocol``   signatures, routing hash, socket and pipe framing
``worker``     :class:`ShardRuntime` (the shared shard brain) +
               ``worker_main`` child loop
``supervisor`` process spawning, heartbeat/hang/crash detection,
               ledger replay
``router``     :class:`DetectorFarm` — submit/poll/cancel/stats/metrics
               over shards
``server``     :class:`CellSiteServer` — the farm on a socket
``client``     :class:`CellSiteClient` — a cell's blocking facade

Observability rides the same rails: ``DetectorFarm(trace=True)`` traces
every frame's lifecycle across the farm — worker-side runtime events
cross the pipes with the results, supervisor restarts/replays annotate
the same frame's trace — and the ``metrics`` verb serves the farm's
stats as Prometheus text exposition (:mod:`repro.obs`).
"""

from .client import CellSiteClient
from .protocol import VERBS, request_signature, shard_for
from .router import DetectorFarm
from .server import CellSiteServer
from .supervisor import ShardSupervisor
from .worker import ShardRuntime, worker_main

__all__ = [
    "CellSiteClient",
    "CellSiteServer",
    "DetectorFarm",
    "ShardRuntime",
    "ShardSupervisor",
    "VERBS",
    "request_signature",
    "shard_for",
    "worker_main",
]
