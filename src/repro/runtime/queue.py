"""Frame admission queue: frame-id-tagged searches for the runtime.

The lockstep engine (:mod:`repro.runtime.engine`) pipelines many frames
through its lane pools.  Its unit of work is a single (subcarrier, OFDM
symbol) search, and the searches may come from *different frames*, so
every queued search carries a frame id and a frame-local element
index.  This module owns that tagging: a :class:`FrameRequest` describes
one frame as submitted by the caller, a :class:`FrameJob` is the
runtime's per-frame state (preprocessed factors, completion accounting,
the per-element outcome arrays its searches retire into), and the
:class:`AdmissionQueue` is a class-aware queue of (frame, element) tags
that refills freed lanes from
*any* admitted frame — frame N+1's searches enter lanes while frame N's
stragglers drain, which is where the pipelining throughput comes from.

The queue is the runtime's QoS hinge: frames carry a **priority class**
(0 is the most urgent) and refills serve classes in strict priority
order, FIFO within a class, so urgent frames take freed lanes first.
A frame's class is fixed when it is admitted.  Frames can also be
*removed* (dropped at expiry or cancelled) and *expedited* (jumped to
the front of their class when their deadline closes in) -- the
primitives the session's deadline machinery is built from.  A
``fifo=True`` queue ignores classes entirely; it is the measurement
baseline the SLO benchmark compares against.

Admission order cannot change any per-frame result: each search executes
exactly the scalar state machine regardless of what shares a tick with
it, so results and counters stay bit-identical to the scalar decoder
for every interleaving and every priority mix (the property
``tests/test_engine.py`` and ``tests/test_runtime.py`` enforce).  QoS
only decides *when* a search runs; the one exception, the session
explicitly shrinking a degrading frame's budgets, is a marked, counted
mode — never silent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..frame.preprocess import (
    check_frame_arrays,
    one_subcarrier_frame,
    triangular_frame,
)
from ..frame.results import (
    FrameDecodeResult,
    SoftFrameResult,
    empty_frame_result,
    empty_soft_frame_result,
    narrowest_int,
    sum_tally_counters,
)
from ..phy.config import PhyConfig
from ..sphere import tick_kernel
from ..sphere.counters import ComplexityCounters
from ..sphere.decoder import SphereDecoder, refuse_zero_diagonal
from ..utils.validation import require

__all__ = ["AdmissionQueue", "FrameJob", "FrameRequest", "decoder_kind",
           "search_signature", "validate_request"]


def decoder_kind(decoder) -> str:
    """``"hard"`` for a :class:`SphereDecoder`, ``"soft"`` for a
    :class:`ListSphereDecoder` (a list leaf policy, ``list_size``) — the
    two searches the streaming engine's kernel pools run; anything else
    is rejected."""
    require(isinstance(decoder, SphereDecoder),
            f"runtime cannot stream {type(decoder).__name__}: use "
            "SphereDecoder (hard) or ListSphereDecoder (soft)")
    return "soft" if decoder.list_size else "hard"


def search_signature(decoder, num_streams: int) -> tuple:
    """What lays out a pool's lanes, which the engine partitions kernel
    pools by: hard or soft, stream count, constellation, enumerator,
    pruning and (soft) list size.  Node budget, initial radius and clamp
    ride in each frame, so frames that differ only there share a pool
    (:func:`repro.service.protocol.request_signature` routes by them)."""
    kind = decoder_kind(decoder)
    key = (kind, num_streams, decoder.constellation.levels.tobytes(),
           decoder.enumerator, decoder.geometric_pruning)
    if kind == "soft":
        key += (decoder.list_size,)
    return key


@dataclass
class FrameRequest:
    """One uplink frame as submitted to the runtime.

    Attributes
    ----------
    channels:
        ``(S, na, nc)`` per-subcarrier channel matrices.
    received:
        ``(T, S, na)`` frequency-domain observations.
    decoder:
        A :class:`~repro.sphere.decoder.SphereDecoder` (hard decisions)
        or :class:`~repro.sphere.soft.ListSphereDecoder` (soft output).
    noise_variance:
        Post-detection noise power; required for soft decoders (the LLR
        scale), ignored for hard ones.
    config:
        Optional :class:`~repro.phy.config.PhyConfig`.  When set, the
        runtime extends the pipeline past detection: the frame's streams
        run through the coded chain (deinterleave -> Viterbi -> CRC) and
        the completed result carries per-stream
        :class:`~repro.phy.receiver.StreamDecision` payloads — what a
        real AP delivers.  ``None`` keeps the detection-only behaviour.
    num_pad_bits:
        Tail padding the transmitter added per stream (see
        :attr:`repro.phy.transmitter.StreamFrame.num_pad_bits`); only
        meaningful with a ``config``.
    deadline_s:
        Optional per-frame latency budget in seconds, measured from the
        moment ``submit`` is called (arrival, before any backpressure
        wait).  Under the runtime's deadline policy a frame past this
        budget is *expired* — its handle resolves explicitly, never
        hangs — and a frame about to miss is *degraded* (searches'
        node budgets shrunk), both counted in the stats.  ``None``
        (default) means no deadline: the frame is never expired or
        degraded and stays bit-identical to ``decode_frame``.
    priority:
        Priority class, 0 = most urgent.  Strict priority between
        classes when freed lanes are refilled, FIFO within a class.
        Scheduling only — per-frame results are identical for every
        priority mix.
    metadata:
        Free-form tags (user ids, arrival time, chosen modulation...)
        carried through to the pending handle.  Copied at admission, so
        mutating the dict after ``submit`` does not rewrite the
        handle's tags.
    """

    channels: np.ndarray
    received: np.ndarray
    decoder: object
    noise_variance: float | None = None
    config: PhyConfig | None = None
    num_pad_bits: int = 0
    deadline_s: float | None = None
    priority: int = 0
    metadata: dict = field(default_factory=dict)


def validate_request(request: "FrameRequest"):
    """Front-door validation of one submitted frame; raises
    ``ValueError`` on the first problem.

    Everything that can be wrong with a frame is checked here, before
    any preprocessing and before the frame goes anywhere near the
    shared frontier (``UplinkRuntime.submit``) or a worker pipe
    (``DetectorFarm.submit``): one bad frame then costs exactly itself
    — a NaN admitted past this point would surface mid-tick inside the
    resident frontier and take every co-resident frame down with it.
    Returns ``(kind, channels, received)`` with the arrays as validated
    ``complex128`` tensors.
    """
    decoder = request.decoder
    kind = decoder_kind(decoder)
    # Sorted QR is honoured by the scalar ``decode`` only; the engine
    # triangularises in natural order, so admitting such a decoder would
    # silently search different trees than the configuration names.
    require(getattr(decoder, "column_ordering", "none") == "none",
            "column_ordering='norm' is honoured by the scalar decode() "
            "only; the lockstep engine detects streams in natural order")
    noise_variance = request.noise_variance
    require(noise_variance is None or np.isfinite(noise_variance),
            "noise_variance must be finite when given")
    if kind == "soft":
        require(noise_variance is not None and noise_variance > 0.0,
                "soft frames need a positive noise_variance")
    channels, received = check_frame_arrays(request.channels,
                                            request.received)
    # Every subcarrier is triangularised at admission: a stack that
    # cannot be would fail there — in a farm, inside a shard.
    require(channels.shape[1] >= channels.shape[2] >= 1,
            f"need num_rx >= num_tx >= 1, got {channels.shape[1]}x"
            f"{channels.shape[2]} per subcarrier")
    config = request.config
    # A search stopped before its first leaf has no LLRs to give (the
    # frame could never finalise) and only the -1 "no leaf" marker for
    # a symbol, which names no bits to decode.
    require((kind == "hard" and config is None)
            or decoder.node_budget is None
            or decoder.node_budget >= channels.shape[2],
            f"node_budget ({decoder.node_budget}) must be at least the "
            f"stream count ({channels.shape[2]}) for a list decoder or a "
            "coded frame: a search stopped sooner reaches no leaf")
    require(config is None or not np.isfinite(decoder.initial_radius_sq),
            "a coded frame needs an infinite initial_radius_sq: a search "
            "whose sphere holds no point reaches no leaf")
    require(request.deadline_s is None or request.deadline_s > 0.0,
            "deadline_s must be positive when given")
    require(int(request.priority) >= 0,
            "priority class must be non-negative")
    if config is not None:
        require(config.constellation is decoder.constellation,
                "coded decoding needs the decoder and the PhyConfig to "
                "share the constellation")
        if kind == "soft":
            require(config.code is not None,
                    "soft frames with a config need a convolutional code "
                    "(soft recovery has no uncoded mode)")
        num_problems = received.shape[0] * received.shape[1]
        if num_problems:
            stream_bits = num_problems * config.bits_per_symbol
            require(stream_bits % config.coded_bits_per_ofdm_symbol == 0,
                    f"frame carries {stream_bits} coded bits per stream "
                    "— not a whole number of OFDM symbols for the config")
            require(0 <= request.num_pad_bits < stream_bits,
                    f"num_pad_bits must be in [0, {stream_bits}), got "
                    f"{request.num_pad_bits}")
    return kind, channels, received


class FrameJob:
    """Engine-side state of one admitted frame.

    Preprocessing and the frame's outcome arrays (:attr:`outcome`)
    happen once at construction; the engine writes each search's row as
    it finishes, in whatever order lanes free up, and ``finalise``
    assembles the frame result once the last one has.
    """

    def __init__(self, frame_id: int, request: FrameRequest) -> None:
        kind, channels, received = validate_request(request)
        self._init_state(frame_id, request, kind,
                         *triangular_frame(channels, received))

    @classmethod
    def from_triangular(cls, decoder, r, y_hat_batch,
                        noise_variance=None) -> "FrameJob":
        """``decode_batch``'s constructor: a one-subcarrier job from an
        already-triangular system — ``r`` is ``(nc, nc)``,
        ``y_hat_batch`` the rotated ``(T, nc)`` observations
        (:func:`~repro.frame.preprocess.one_subcarrier_frame`) —
        validated like any submitted frame, QR sweep skipped.  Skipping
        it skips its rank check too, so a zero on ``r``'s real diagonal
        is refused here: every search divides by it."""
        request = FrameRequest(*one_subcarrier_frame(r, y_hat_batch),
                               decoder, noise_variance)
        kind, r_stack, rotated = validate_request(request)
        diag = np.real(np.diagonal(r_stack, axis1=1, axis2=2)).copy()
        refuse_zero_diagonal(diag[0])
        job = cls.__new__(cls)
        job._init_state(0, request, kind, np.ascontiguousarray(r_stack),
                        rotated.transpose(1, 0, 2), diag, diag * diag)
        return job

    def _init_state(self, frame_id: int, request: FrameRequest, kind: str,
                    r_stack: np.ndarray, y_hat: np.ndarray,
                    diag_stack: np.ndarray,
                    diag_sq_stack: np.ndarray) -> None:
        """Per-frame state from the C-contiguous triangular factors, the
        ``(S, T, nc)`` rotated observations and the factors' ``(S, nc)``
        real diagonals and their squares (the scalar decoder's
        ``np.real(np.diag(r))`` / ``diag * diag``, stacked)."""
        decoder = request.decoder
        self.frame_id = frame_id
        self.kind = kind
        self.decoder = decoder
        self.noise_variance = request.noise_variance
        self.config = request.config
        self.num_pad_bits = request.num_pad_bits
        self.deadline_s = request.deadline_s
        self.priority = int(request.priority)
        # QoS state owned by the session's deadline machinery: the pool
        # the engine routed the frame to, whether its budgets were
        # shrunk, and the per-search node budget degradation applies.
        self.pool = None
        self.degraded = False
        self.degraded_budget: int | None = None
        # Observability state owned by the session/engine tracing hooks:
        # the frame's live trace (None whenever tracing is off — every
        # stamping call degenerates to an `is None` test) and the
        # stage-boundary clock stamps feeding the stage-latency
        # decomposition (stamped even with tracing off; they cost one
        # clock read per frame per boundary).
        self.trace = None
        self.first_lane_at: float | None = None
        self.detect_done_at: float | None = None
        self.decode_done_at: float | None = None

        num_subcarriers, num_symbols, num_streams = y_hat.shape
        # C-contiguous: the compiled core reads the stacks in place.
        self.r_stack = r_stack
        self.y_flat = np.ascontiguousarray(y_hat.reshape(
            num_subcarriers * num_symbols, num_streams))
        self.diag_stack = diag_stack
        self.diag_sq_stack = diag_sq_stack
        self.num_subcarriers = num_subcarriers
        self.num_symbols = num_symbols
        self.num_streams = num_streams
        self.num_problems = num_subcarriers * num_symbols
        self.remaining = self.num_problems
        #: Name -> one row per search at its element ``e = subcarrier *
        #: T + symbol``, as :func:`repro.sphere.tick_kernel.outcome`
        #: lays them out (the ``(S * T, 5)`` tallies first); written as
        #: searches retire, read once the frame has completed.
        self.outcome = {name: np.empty((self.num_problems,) + shape, dtype)
                        for name, (dtype, shape)
                        in tick_kernel.outcome(decoder, num_streams).items()}
        (self.ped, self.visited, self.expanded, self.leaves,
         self.prunes) = self.outcome["tally"].T

    def _totals(self) -> ComplexityCounters:
        return sum_tally_counters(self.ped, self.visited, self.expanded,
                                  self.leaves, self.prunes,
                                  self.num_streams)

    def finalise(self) -> FrameDecodeResult | SoftFrameResult:
        """Assemble the frame result once every element has finished:
        ``(S, T)`` element order transposed into C-contiguous ``(T,
        S)``-leading tensors (own buffers, not views over the
        element-ordered ones, so a kept result holds nothing else),
        counters summed once over the per-element tallies; a soft
        frame's LLRs and best members arrive computed, and a search that
        kept no leaf fails the frame with ``ValueError`` (it has no LLRs
        to give).  The integer tensors leave as
        :func:`~repro.frame.results.narrowest_int` copies: a caller that
        keeps results keeps 1 byte per 16-QAM decision, not 8.
        """
        require(self.remaining == 0,
                f"frame {self.frame_id} still has {self.remaining} "
                "unfinished searches")
        frame_shape = (self.num_subcarriers, self.num_symbols)
        num_streams = self.num_streams
        constellation = self.decoder.constellation
        if self.num_problems == 0:
            empty = (self.num_symbols, self.num_subcarriers, num_streams,
                     constellation)
            if self.kind == "hard":
                return empty_frame_result(*empty)
            return empty_soft_frame_result(*empty, self.decoder.list_size)
        compact = narrowest_int(constellation.order - 1)

        def leading_t(array):
            # Element rows (e = subcarrier * T + symbol) to an owned,
            # C-contiguous (T, S, ...) tensor.
            return np.ascontiguousarray(
                array.reshape(frame_shape + array.shape[1:]).swapaxes(0, 1))

        # Positions arrive in a byte, a 256-QAM index needs more.
        if self.kind == "hard":
            _, distances, cols, rows = self.outcome.values()
            indices = np.where(np.isfinite(distances)[:, None],
                               constellation.index_of(cols.astype(compact),
                                                      rows.astype(compact)),
                               -1)
            return FrameDecodeResult(
                symbol_indices=leading_t(indices),
                distances_sq=leading_t(distances),
                counters=self._totals(), points=constellation.points)
        _, llrs, best_cols, best_rows, list_n = self.outcome.values()
        require(bool((list_n >= 1).all()),
                "list sphere decoder found no leaves")
        best_indices = constellation.index_of(best_cols.astype(compact),
                                              best_rows.astype(compact))
        return SoftFrameResult(
            llrs=leading_t(llrs),
            symbol_indices=leading_t(best_indices),
            list_sizes=leading_t(list_n.astype(
                narrowest_int(self.decoder.list_size))),
            counters=self._totals(), points=constellation.points)


class AdmissionQueue:
    """Class-aware queue of frame-id-tagged searches.

    Frames append as contiguous segments in their priority class;
    :meth:`take` serves classes in strict priority order (0 first),
    FIFO within a class, and pops searches across segment boundaries,
    so a refill batch can mix the tail of one frame with the head of
    the next — the runtime's lanes never idle while any admitted frame
    still has work.  Frames can be removed (:meth:`remove`) or jumped
    to the front of their class (:meth:`expedite`) while queued.

    ``fifo=True`` collapses every class into one arrival-ordered FIFO —
    the pre-QoS behaviour, kept as the measurement baseline for the
    SLO benchmark.
    """

    def __init__(self, *, fifo: bool = False) -> None:
        self._fifo = fifo
        self._classes: dict[int, deque[list]] = {}
        self._pending = 0

    @property
    def pending(self) -> int:
        """Searches admitted but not yet handed to a lane."""
        return self._pending

    @property
    def head_priority(self) -> int | None:
        """The most urgent class with queued work (``None`` if empty)."""
        classes = [priority for priority, segments
                   in self._classes.items() if segments]
        return min(classes) if classes else None

    def _class_of(self, job: FrameJob) -> int:
        return 0 if self._fifo else job.priority

    def _find(self, job: FrameJob) -> tuple[deque[list], list] | None:
        # A frame's class is fixed at admission: its segment is there.
        segments = self._classes.get(self._class_of(job), ())
        for segment in segments:
            if segment[0] is job:
                return segments, segment
        return None

    def push(self, job: FrameJob) -> None:
        """Admit a frame: tag and enqueue all of its searches."""
        if job.num_problems:
            self._classes.setdefault(self._class_of(job),
                                     deque()).append([job, 0])
            self._pending += job.num_problems

    def take(self, count: int) -> list[tuple[FrameJob, np.ndarray]]:
        """Pop up to ``count`` searches: strict priority between
        classes, frame-FIFO within.

        Returns ``(job, elements)`` runs — one per frame touched — where
        ``elements`` are frame-local element indices.
        """
        batches: list[tuple[FrameJob, np.ndarray]] = []
        for priority in sorted(self._classes):
            segments = self._classes[priority]
            while count > 0 and segments:
                segment = segments[0]
                job, start = segment
                stop = min(start + count, job.num_problems)
                batches.append((job, np.arange(start, stop,
                                               dtype=np.int64)))
                taken = stop - start
                count -= taken
                self._pending -= taken
                if stop == job.num_problems:
                    segments.popleft()
                else:
                    segment[1] = stop
            if count <= 0:
                break
        return batches

    def remove(self, job: FrameJob) -> int:
        """Drop a frame's still-queued searches (expiry / cancellation).

        Returns how many searches were removed — 0 if the frame had
        none queued (all already in lanes, or never pushed here).
        """
        found = self._find(job)
        if found is None:
            return 0
        segments, segment = found
        segments.remove(segment)
        remaining = job.num_problems - segment[1]
        self._pending -= remaining
        return remaining

    def expedite(self, job: FrameJob) -> bool:
        """Jump a queued frame to the *front* of its class — the lane
        policy's urgency hook: a frame about to miss its deadline takes
        the next freed lanes of its class.  No-op under ``fifo=True``.
        """
        if self._fifo:
            return self._find(job) is not None
        found = self._find(job)
        if found is None:
            return False
        segments, segment = found
        segments.remove(segment)
        segments.appendleft(segment)
        return True
