"""Result structures for frame-level (whole-OFDM-frame) detection.

A frame detection answers S×T questions at once — one per (OFDM symbol,
subcarrier) pair — so the result tensors carry a leading ``(T, S)`` pair
of axes, matching the layout of
:attr:`repro.phy.transmitter.UplinkFrame.symbol_tensor` and what
:func:`repro.phy.receiver.recover_uplink` consumes.  Complexity counters
are aggregated over the *whole frame* in one object: the engine
tallies per-element counts in flat arrays and sums them once, so the
receive chain no longer pays S Python-level
:meth:`~repro.sphere.counters.ComplexityCounters.merge` calls per frame.
The aggregate still equals the sum of the per-(symbol, subcarrier) scalar
counters exactly — the invariant the paper's complexity figures rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sphere.counters import ComplexityCounters

__all__ = ["FrameDecodeResult", "FrameDetectionResult", "SoftFrameResult",
           "empty_frame_result", "empty_soft_frame_result",
           "hard_decision_frame", "narrowest_int", "sum_tally_counters"]


def narrowest_int(largest: int) -> np.dtype:
    """The narrowest signed integer dtype holding ``-1 .. largest``.

    Resolved frames are what a streaming caller accumulates, so their
    integer tensors leave the engine's int64 for this: constellation
    indices (``largest = order - 1``, with ``-1`` the not-found mark)
    are int8 through 64-QAM and int16 for 256-QAM — an eighth and a
    quarter of the bytes.
    """
    return np.min_scalar_type(-(largest + 1))


def sum_tally_counters(ped, visited, expanded, leaves, prunes,
                       num_streams: int) -> ComplexityCounters:
    """Aggregate per-element tally arrays into one frame counter object.

    The epilogue of every frame the engine finishes, hard or soft:
    integer sums are order-independent, so the
    aggregate equals the sum of per-element scalar counters exactly, and
    ``complex_mults`` applies the paper's ``nc + 1`` multiplications-per-
    PED model (footnote 5) to the total.
    """
    totals = ComplexityCounters(
        ped_calcs=int(np.asarray(ped).sum()),
        visited_nodes=int(np.asarray(visited).sum()),
        expanded_nodes=int(np.asarray(expanded).sum()),
        leaves=int(np.asarray(leaves).sum()),
        geometric_prunes=int(np.asarray(prunes).sum()))
    totals.complex_mults = totals.ped_calcs * (num_streams + 1)
    return totals


@dataclass(slots=True)
class FrameDecodeResult:
    """Outcome of decoding every (symbol, subcarrier) slot of one frame.

    What every hard tree-search decoder's ``decode_frame`` returns, and
    its ``decode_batch`` too (a one-subcarrier frame, ``(T, 1)``
    leading): the frame-level analogue of
    :class:`~repro.sphere.decoder.SphereDecoderResult`.  Resolved frames
    are what a streaming caller accumulates, so the decisions are held
    once:
    ``symbols`` is looked up from ``symbol_indices`` on access instead of
    being stored beside them, ``found`` is derived from
    ``distances_sq`` the same way, and the indices are held in the
    narrowest integer dtype (:func:`narrowest_int`): 1 KB of the ~3.5 KB
    of a 16-QAM 4x4 x 64-subcarrier x 4-symbol frame.

    Attributes
    ----------
    symbol_indices:
        ``(T, S, nc)`` flattened constellation indices (``-1`` where
        ``found`` is ``False``), as ``narrowest_int(order - 1)``.
    distances_sq:
        ``(T, S)`` squared distances of the returned solutions (``inf``
        where not found).
    counters:
        Complexity tallies aggregated over the whole frame; equal to the
        sum of per-slot scalar counters exactly.
    points:
        The constellation's complex point table ``symbols`` indexes.
    decisions:
        Per-stream :class:`~repro.phy.receiver.StreamDecision` payloads
        (decoded bits + CRC verdicts), filled in by the streaming
        runtime's decode stage when the frame carried a
        :class:`~repro.phy.config.PhyConfig`; ``None`` for
        detection-only results.
    """

    symbol_indices: np.ndarray
    distances_sq: np.ndarray
    counters: ComplexityCounters
    points: np.ndarray
    decisions: list | None = None

    @property
    def found(self) -> np.ndarray:
        """``(T, S)`` booleans; ``False`` only where that slot's search
        reached no leaf — a finite ``initial_radius_sq`` excluded every
        leaf, or a ``node_budget`` below the stream count stopped it
        first (its distance is then ``inf``)."""
        return np.isfinite(self.distances_sq)

    @property
    def symbols(self) -> np.ndarray:
        """``(T, S, nc)`` detected complex symbols (``nan`` where not
        found)."""
        symbols = self.points[self.symbol_indices]
        symbols[~self.found] = np.nan + 0j
        return symbols

    @property
    def num_symbols(self) -> int:
        return int(self.distances_sq.shape[0])

    @property
    def num_subcarriers(self) -> int:
        return int(self.distances_sq.shape[1])


@dataclass(slots=True)
class FrameDetectionResult:
    """Hard decisions for every (symbol, subcarrier) slot of one frame.

    What every detector's ``detect_frame`` returns, and so what
    :func:`repro.phy.receiver.detect_uplink` hands the receive chain; the
    frame-level analogue of :class:`~repro.detect.base.DetectionResult`.

    Attributes
    ----------
    symbols:
        ``(T, S, nc)`` detected complex constellation points.
    symbol_indices:
        ``(T, S, nc)`` flattened constellation indices.
    counters:
        Frame-aggregated complexity tallies when the detector tracks them
        (sphere, K-best and hybrid detectors), else ``None``.
    """

    symbols: np.ndarray
    symbol_indices: np.ndarray
    counters: ComplexityCounters | None = None

    @property
    def detections(self) -> int:
        """Number of MIMO detections the frame contains (``T * S``)."""
        return int(self.symbol_indices.shape[0]
                   * self.symbol_indices.shape[1])


@dataclass(slots=True)
class SoftFrameResult:
    """Soft decisions for every (symbol, subcarrier) slot of one frame.

    What :meth:`~repro.sphere.soft.ListSphereDecoder.decode_frame`
    returns, and its ``decode_batch`` too (a one-subcarrier frame,
    ``(T, 1)`` leading): the frame-level analogue of
    :class:`~repro.sphere.soft.SoftDecodeResult`.  The LLR tensor is what
    :func:`repro.phy.soft_link.simulate_frame_soft` slices per stream
    into the soft Viterbi decoder.

    Attributes
    ----------
    llrs:
        ``(T, S, nc * bits_per_symbol)`` max-log LLRs (positive favours
        bit 0), ordered per slot like
        :meth:`~repro.constellation.qam.QamConstellation.indices_to_bits`
        applied stream by stream.
    symbol_indices:
        ``(T, S, nc)`` hard decisions — each slot's best list member —
        as ``narrowest_int(order - 1)``.
    list_sizes:
        ``(T, S)`` number of leaves each slot's search retained, as
        ``narrowest_int(list_size)``.
    counters:
        Complexity tallies aggregated over the whole frame; equal to the
        sum of per-slot scalar ``decode_soft`` counters exactly.
    points:
        The constellation's complex point table ``symbols`` indexes.
    decisions:
        Per-stream :class:`~repro.phy.receiver.StreamDecision` payloads
        (decoded bits + CRC verdicts), filled in by the streaming
        runtime's decode stage when the frame carried a
        :class:`~repro.phy.config.PhyConfig`; ``None`` for
        detection-only results.
    """

    llrs: np.ndarray
    symbol_indices: np.ndarray
    list_sizes: np.ndarray
    counters: ComplexityCounters
    points: np.ndarray
    decisions: list | None = None

    @property
    def symbols(self) -> np.ndarray:
        """``(T, S, nc)`` the hard decisions as complex constellation
        points, looked up on access."""
        return self.points[self.symbol_indices]

    @property
    def num_symbols(self) -> int:
        return int(self.llrs.shape[0])

    @property
    def num_subcarriers(self) -> int:
        return int(self.llrs.shape[1])

    @property
    def detections(self) -> int:
        """Number of soft MIMO detections the frame contains (``T * S``)."""
        return int(self.llrs.shape[0] * self.llrs.shape[1])


def empty_soft_frame_result(num_symbols: int, num_subcarriers: int,
                            num_streams: int, constellation,
                            list_size: int) -> SoftFrameResult:
    """A correctly-shaped soft result for a frame with zero search
    problems — shared by every soft ``decode_frame`` path."""
    return SoftFrameResult(
        llrs=np.zeros((num_symbols, num_subcarriers,
                       num_streams * constellation.bits_per_symbol)),
        symbol_indices=np.zeros((num_symbols, num_subcarriers, num_streams),
                                dtype=narrowest_int(constellation.order - 1)),
        list_sizes=np.zeros((num_symbols, num_subcarriers),
                            dtype=narrowest_int(list_size)),
        counters=ComplexityCounters(), points=constellation.points)


def empty_frame_result(num_symbols: int, num_subcarriers: int,
                       num_streams: int, constellation) -> FrameDecodeResult:
    """A correctly-shaped result for a frame with zero search problems
    (no subcarriers or no symbols) — shared by every ``decode_frame``."""
    return FrameDecodeResult(
        symbol_indices=np.zeros((num_symbols, num_subcarriers, num_streams),
                                dtype=narrowest_int(constellation.order - 1)),
        distances_sq=np.zeros((num_symbols, num_subcarriers)),
        counters=ComplexityCounters(), points=constellation.points)


def hard_decision_frame(constellation, symbol_indices) -> FrameDetectionResult:
    """Wrap a ``(T, S, nc)`` index tensor as a counter-less frame result.

    Shared by every counter-less detector (ZF, MMSE, SIC, exhaustive
    ML) whose ``detect_frame`` ends in an index tensor.
    """
    indices = np.asarray(symbol_indices)
    return FrameDetectionResult(symbols=constellation.points[indices],
                                symbol_indices=indices)
