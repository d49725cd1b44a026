"""The lockstep engine and the cell-scale streaming runtime around it.

:mod:`~repro.runtime.engine` is the library's one breadth-synchronised
search engine: lane-indexed kernel pools behind a
:class:`StreamingFrontier`, with three entry points that differ only in
who owns the frontier — ``decode_batch`` (a one-subcarrier job on a
private frontier), ``decode_frame`` (one frame on a private frontier,
ticked until idle) and :class:`UplinkRuntime` (a *resident* frontier).
An access point decodes a stream of uplink frames, not one, and a
private frontier idles during every frame's straggler tail; the resident
one tags every (subcarrier, OFDM symbol) search with its frame id
(:mod:`~repro.runtime.queue`) and refills freed lanes from *any*
admitted frame, so consecutive frames pipeline through the shared lane
pool.  Every entry point is bit-identical to the scalar decoder, hence
to the others.  :mod:`~repro.runtime.session` is the
submit/poll/drain API with bounded-in-flight backpressure,
:mod:`~repro.runtime.decode` extends the pipeline past detection —
frames submitted with a :class:`~repro.phy.config.PhyConfig` run the
coded chain (deinterleave -> frame-batched Viterbi -> CRC) and resolve
with decoded payload bits per stream — :mod:`~repro.runtime.cell`
generates heterogeneous multi-user cell traffic to drive it, and
:mod:`~repro.runtime.stats` reports sustained frames/sec, CRC-passing
goodput, latency percentiles, per-stage latency decomposition and lane
occupancy.  Per-frame lifecycle *tracing* (``UplinkRuntime(trace=True)``,
off by default) stamps every frame's submit → admit → first-lane →
detect/decode → resolve path onto a bounded
:class:`~repro.obs.trace.FrameTrace`, exportable via
:mod:`repro.obs.trace`.

Frames may carry **deadlines and priority classes**
(:class:`~repro.runtime.queue.FrameRequest.deadline_s` / ``priority``):
the admission queue serves classes in strict priority order, freed lanes
prefer urgent frames, frames about to miss their deadline are *degraded*
(search budgets shrunk — marked and counted, never silent) and frames
past it are *expired* with an explicit
:class:`~repro.runtime.session.FrameExpired` resolution — never a hang,
never a fabricated result.  Deadline-free frames stay bit-identical to
standalone ``decode_frame`` under every policy and priority mix.
"""

from .cell import (
    CellWorkload,
    DEFAULT_QOS_MIX,
    QosClass,
    synthetic_cell_trace,
)
from .decode import DecodeStage
from .engine import LANE_POLICIES, StreamingFrontier
from .queue import AdmissionQueue, FrameJob, FrameRequest
from .session import (
    DEFAULT_MAX_IN_FLIGHT,
    FrameExpired,
    PendingFrame,
    UplinkRuntime,
)
from .stats import RuntimeStats, STAGES, aggregate_summaries

__all__ = [
    "AdmissionQueue",
    "CellWorkload",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_QOS_MIX",
    "DecodeStage",
    "FrameExpired",
    "FrameJob",
    "FrameRequest",
    "LANE_POLICIES",
    "PendingFrame",
    "QosClass",
    "RuntimeStats",
    "STAGES",
    "StreamingFrontier",
    "UplinkRuntime",
    "aggregate_summaries",
    "synthetic_cell_trace",
]
