"""Frame admission queue: frame-id-tagged searches for the runtime.

The lockstep engine (:mod:`repro.runtime.engine`) pipelines many frames
through its lane pools.  Its unit of work is a single (subcarrier, OFDM
symbol) search, and the searches may come from *different frames*, so
every queued search carries a frame id and a frame-local element
index.  This module owns that tagging: a :class:`FrameRequest` describes
one frame as submitted by the caller, a :class:`FrameJob` is the
runtime's per-frame state (preprocessed factors, completion accounting,
the per-element results once collected), and the
:class:`AdmissionQueue` is a class-aware queue of (frame, element) tags
that refills freed lanes from
*any* admitted frame — frame N+1's searches enter lanes while frame N's
stragglers drain, which is where the pipelining throughput comes from.

The queue is the runtime's QoS hinge: frames carry a **priority class**
(0 is the most urgent) and refills serve classes in strict priority
order, FIFO within a class, so urgent frames take freed lanes first.
Frames can also be *removed* (dropped at expiry or cancelled),
*reprioritised* (downgraded or promoted mid-flight) and *expedited*
(jumped to the front of their class when their deadline closes in) --
the primitives the session's deadline machinery is built from.  A
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

from ..frame.preprocess import rotate_frame, triangularize_frame
from ..frame.results import (
    FrameDecodeResult,
    SoftFrameResult,
    empty_frame_result,
    empty_soft_frame_result,
    narrowest_int,
    sum_tally_counters,
)
from ..phy.config import PhyConfig
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
    """What makes two searches the same kernel program: hard or soft,
    stream count, constellation, enumerator, pruning, budgets and (soft)
    list size and LLR clamp, which the core applies per pool.  The
    engine partitions kernel pools by it and the farm routes frames by
    it — one function, so the two cannot drift."""
    kind = decoder_kind(decoder)
    key = (kind, num_streams, decoder.constellation.levels.tobytes(),
           decoder.enumerator, decoder.geometric_pruning,
           decoder.node_budget, decoder.initial_radius_sq)
    if kind == "soft":
        key += (decoder.list_size, decoder.clamp)
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
    channels = np.asarray(request.channels, dtype=np.complex128)
    received = np.asarray(request.received, dtype=np.complex128)
    require(channels.ndim == 3, "channels must be (S, na, nc)")
    require(received.ndim == 3, "received must be (T, S, na)")
    require(received.shape[1] == channels.shape[0],
            f"received has {received.shape[1]} subcarriers, channels "
            f"have {channels.shape[0]}")
    require(received.shape[2] == channels.shape[1],
            f"received has {received.shape[2]} antennas, channels have "
            f"{channels.shape[1]}")
    # A list search stopped before its first leaf has no LLRs to give:
    # the frame could never finalise.
    require(kind == "hard" or decoder.node_budget is None
            or decoder.node_budget >= channels.shape[2],
            f"a list decoder's node_budget ({decoder.node_budget}) must be "
            f"at least the stream count ({channels.shape[2]}): a search "
            "stopped sooner reaches no leaf")
    require(bool(np.isfinite(channels).all()),
            "channels must be finite (found NaN or inf)")
    require(bool(np.isfinite(received).all()),
            "received must be finite (found NaN or inf)")
    require(request.deadline_s is None or request.deadline_s > 0.0,
            "deadline_s must be positive when given")
    require(int(request.priority) >= 0,
            "priority class must be non-negative")
    config = request.config
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

    Preprocessing happens once at construction — one stacked QR sweep
    and rotation.  The engine gathers the per-element outcomes and
    tallies as searches finish (in whatever order lanes free up) and
    hands them over when the last one has (:meth:`collect`);
    ``finalise`` assembles the frame result.
    """

    def __init__(self, frame_id: int, request: FrameRequest) -> None:
        kind, channels, received = validate_request(request)
        q_stack, r_stack = triangularize_frame(channels)
        self._init_state(frame_id, request, kind, r_stack,
                         rotate_frame(q_stack, received))

    @classmethod
    def from_triangular(cls, decoder, r, y_hat_batch,
                        noise_variance=None) -> "FrameJob":
        """``decode_batch``'s constructor: a one-subcarrier job from an
        already-triangular system — ``r`` is ``(nc, nc)``,
        ``y_hat_batch`` the rotated ``(T, nc)`` observations —
        validated like any submitted frame, QR sweep skipped.  Skipping
        it skips its rank check too, so a zero on ``r``'s real diagonal
        is refused here: every search divides by it."""
        request = FrameRequest(np.asarray(r)[None],
                               np.asarray(y_hat_batch)[:, None, :], decoder,
                               noise_variance)
        kind, r_stack, rotated = validate_request(request)
        refuse_zero_diagonal(np.real(np.diagonal(r_stack[0])))
        job = cls.__new__(cls)
        job._init_state(0, request, kind, r_stack,
                        rotated.transpose(1, 0, 2))
        return job

    def _init_state(self, frame_id: int, request: FrameRequest, kind: str,
                    r_stack: np.ndarray, y_hat: np.ndarray) -> None:
        """Per-frame state from the triangular factors and the
        ``(S, T, nc)`` rotated observations."""
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
        self.r_stack = r_stack
        self.y_flat = y_hat.reshape(num_subcarriers * num_symbols,
                                    num_streams)
        # Shared per-subcarrier scalings: the scalar decoder's
        # ``np.real(np.diag(r))`` / ``diag * diag``, stacked.
        self.diag_stack = np.real(np.einsum("sii->si", r_stack)).copy()
        self.diag_sq_stack = self.diag_stack * self.diag_stack
        self.num_subcarriers = num_subcarriers
        self.num_symbols = num_symbols
        self.num_streams = num_streams
        self.num_problems = num_subcarriers * num_symbols
        self.remaining = self.num_problems

    def collect(self, tally: np.ndarray, *outcome: np.ndarray) -> None:
        """Take the frame's per-element rows (element ``e = subcarrier *
        T + symbol``) from the engine once its last search has retired:
        the packed ``(count, 5)`` complexity tallies, then ``(distances,
        cols, rows)`` of the best leaves for a hard frame — ``inf``
        where none was found — or ``(llrs, best_cols, best_rows,
        list_n)`` for a soft one: the max-log LLRs and best list member
        each search finished with, and how many leaves it kept."""
        (self.ped, self.visited, self.expanded, self.leaves,
         self.prunes) = tally.T
        self.outcome = outcome

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

        if self.kind == "hard":
            distances, cols, rows = self.outcome
            indices = np.where(np.isfinite(distances)[:, None],
                               constellation.index_of(cols, rows), -1)
            return FrameDecodeResult(
                symbol_indices=leading_t(indices.astype(compact)),
                distances_sq=leading_t(distances),
                counters=self._totals(), points=constellation.points)
        llrs, best_cols, best_rows, list_n = self.outcome
        require(bool((list_n >= 1).all()),
                "list sphere decoder found no leaves")
        best_indices = constellation.index_of(best_cols, best_rows)
        return SoftFrameResult(
            llrs=leading_t(llrs),
            symbol_indices=leading_t(best_indices.astype(compact)),
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
    still has work.  Frames can be removed (:meth:`remove`), moved to
    another class (:meth:`reprioritise`) or jumped to the front of
    their class (:meth:`expedite`) while queued.

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

    def _segments_of(self, priority: int) -> deque[list]:
        segments = self._classes.get(priority)
        if segments is None:
            segments = deque()
            self._classes[priority] = segments
        return segments

    def _find(self, job: FrameJob) -> tuple[deque[list], list] | None:
        for segments in self._classes.values():
            for segment in segments:
                if segment[0] is job:
                    return segments, segment
        return None

    def push(self, job: FrameJob) -> None:
        """Admit a frame: tag and enqueue all of its searches."""
        if job.num_problems:
            self._segments_of(self._class_of(job)).append([job, 0])
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

    def reprioritise(self, job: FrameJob, priority: int) -> bool:
        """Move a queued frame's remaining searches to another class.

        The segment re-enters at the *back* of the new class (a
        downgrade does not cut in line).  Returns ``False`` if the
        frame had nothing queued.  No-op ordering under ``fifo=True``.
        """
        if self._fifo:
            return self._find(job) is not None
        found = self._find(job)
        if found is None:
            return False
        segments, segment = found
        segments.remove(segment)
        self._segments_of(priority).append(segment)
        return True

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
        self._segments_of(self._class_of(job)).appendleft(segment)
        return True
