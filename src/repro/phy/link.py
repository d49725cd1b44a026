"""End-to-end uplink link simulation (paper section 5.2 methodology).

One frame = several clients transmitting synchronised OFDM frames through
per-subcarrier MIMO channels into a detector, followed by per-stream FEC
decoding and CRC checks.  A :class:`LinkSimulator` repeats that over a
channel source and aggregates frame error rate, net throughput and — for
sphere decoders — the paper's complexity counters.

Channel sources are zero-argument callables returning either a flat
``(na, nc)`` matrix (applied to every subcarrier, like the paper's
per-frame Rayleigh draws) or per-subcarrier ``(S, na, nc)`` matrices
(testbed traces).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..channel.noise import awgn, db_to_linear
from ..channel.trace import ChannelTrace
from ..sphere.counters import ComplexityCounters
from ..utils.rng import as_generator
from ..utils.validation import require
from .config import PhyConfig
from .receiver import detect_uplink, recover_uplink
from .throughput import frame_airtime_s, net_throughput_bps
from .transmitter import build_uplink_frame, random_payloads

__all__ = [
    "FrameOutcome",
    "LinkStats",
    "LinkSimulator",
    "simulate_frame",
    "rayleigh_source",
    "trace_source",
    "fixed_source",
]


# ----------------------------------------------------------------------
# Channel sources
# ----------------------------------------------------------------------

def rayleigh_source(num_rx: int, num_tx: int, rng=None):
    """Per-frame i.i.d. Rayleigh channels, flat across subcarriers."""
    generator = as_generator(rng)

    def source() -> np.ndarray:
        shape = (num_rx, num_tx)
        return (generator.standard_normal(shape)
                + 1j * generator.standard_normal(shape)) / np.sqrt(2.0)

    return source


def trace_source(trace: ChannelTrace, rng=None, num_clients: int | None = None):
    """Cycle (randomly) through the links of a measured channel trace."""
    generator = as_generator(rng)
    if num_clients is not None and num_clients != trace.num_clients:
        trace = trace.subset_clients(num_clients)

    def source() -> np.ndarray:
        link = int(generator.integers(0, trace.num_links))
        return trace.link(link)

    return source


def fixed_source(channels):
    """Always return the same channel (tests, worked examples)."""
    matrix = np.asarray(channels, dtype=np.complex128)

    def source() -> np.ndarray:
        return matrix

    return source


# ----------------------------------------------------------------------
# Single-frame simulation
# ----------------------------------------------------------------------

@dataclass
class FrameOutcome:
    """Result of one simulated uplink frame."""

    stream_success: np.ndarray
    num_ofdm_symbols: int
    detections: int
    counters: ComplexityCounters | None


def _normalise_channels(channels, num_subcarriers: int) -> np.ndarray:
    array = np.asarray(channels, dtype=np.complex128)
    if array.ndim == 2:
        array = np.broadcast_to(array, (num_subcarriers,) + array.shape)
    require(array.ndim == 3, "channels must be (na, nc) or (S, na, nc)")
    require(array.shape[0] == num_subcarriers,
            f"trace provides {array.shape[0]} subcarriers, OFDM config uses "
            f"{num_subcarriers}")
    return array


def _noise_variance(channels: np.ndarray, snr_db: float) -> float:
    """Noise power hitting the paper's average-per-stream-SNR convention,
    averaged across subcarriers."""
    column_energies = np.sum(np.abs(channels) ** 2, axis=1)  # (S, nc)
    mean_energy = float(np.mean(column_energies))
    require(mean_energy > 0.0, "channel has zero energy")
    return mean_energy / float(db_to_linear(snr_db))


def simulate_frame(channels, detector, config: PhyConfig, snr_db: float,
                   rng=None, payloads=None) -> FrameOutcome:
    """Simulate one uplink frame through ``detector``.

    ``channels``: flat ``(na, nc)`` or per-subcarrier ``(S, na, nc)``.
    Returns per-stream CRC verdicts and, when the detector exposes
    complexity counters, their aggregate over every detection.

    The receive side is frame-first end to end: the whole frame's channel
    application and noise are vectorised, and the full channel/observation
    tensors are handed to the detector's ``detect_frame`` in one call
    (:func:`repro.phy.receiver.detect_uplink`) — the sphere decoders'
    lockstep engine, the linear and MMSE-SIC detectors' stacked filter
    banks, the hybrid's per-subcarrier split between the two.
    """
    generator = as_generator(rng)
    num_subcarriers = config.ofdm.num_data_subcarriers
    matrices = _normalise_channels(channels, num_subcarriers)
    num_clients = matrices.shape[2]
    require(matrices.shape[1] >= num_clients,
            f"need at least as many AP antennas as clients, got "
            f"{matrices.shape[1]}x{num_clients}")

    if payloads is None:
        payloads = random_payloads(num_clients, config, generator)
    frame = build_uplink_frame(payloads, config)
    tensor = frame.symbol_tensor                      # (T, S, nc)
    num_symbols = tensor.shape[0]

    noise_variance = _noise_variance(matrices, snr_db)
    # y[t, s] = H[s] @ x[t, s] for the whole frame in one contraction.
    clean = np.einsum("tsc,sac->tsa", tensor, matrices)
    received = clean + awgn(clean.shape, noise_variance, generator)
    detection = detect_uplink(matrices, received, detector, noise_variance)

    decisions = recover_uplink(detection.symbol_indices,
                               frame.streams[0].num_pad_bits, config)
    success = np.array([decision.crc_ok for decision in decisions])
    return FrameOutcome(stream_success=success,
                        num_ofdm_symbols=num_symbols,
                        detections=detection.detections,
                        counters=detection.counters)


# ----------------------------------------------------------------------
# Multi-frame aggregation
# ----------------------------------------------------------------------

@dataclass
class LinkStats:
    """Aggregate statistics over many simulated frames."""

    frames: int = 0
    stream_frames: int = 0
    stream_successes: int = 0
    delivered_info_bits: float = 0.0
    airtime_s: float = 0.0
    detections: int = 0
    counters: ComplexityCounters = field(default_factory=ComplexityCounters)
    has_counters: bool = False

    @property
    def frame_error_rate(self) -> float:
        """Per-stream frame error rate (a frame counts once per stream)."""
        if self.stream_frames == 0:
            return float("nan")
        return 1.0 - self.stream_successes / self.stream_frames

    @property
    def throughput_bps(self) -> float:
        return net_throughput_bps(self.delivered_info_bits, self.airtime_s)

    @property
    def avg_ped_calcs_per_detection(self) -> float:
        """The paper's Figs. 14-15 metric: mean partial-Euclidean-distance
        calculations per subcarrier per MIMO symbol."""
        if not self.has_counters or self.detections == 0:
            return float("nan")
        return self.counters.ped_calcs / self.detections

    @property
    def avg_visited_nodes_per_detection(self) -> float:
        if not self.has_counters or self.detections == 0:
            return float("nan")
        return self.counters.visited_nodes / self.detections


class LinkSimulator:
    """Repeat :func:`simulate_frame` over a channel source and aggregate."""

    def __init__(self, detector, config: PhyConfig, snr_db: float,
                 overhead_symbols: int = 0) -> None:
        self.detector = detector
        self.config = config
        self.snr_db = snr_db
        self.overhead_symbols = overhead_symbols

    def run(self, channel_source, num_frames: int, rng=None) -> LinkStats:
        require(num_frames >= 1, "need at least one frame")
        generator = as_generator(rng)
        stats = LinkStats()
        for _ in range(num_frames):
            outcome = simulate_frame(channel_source(), self.detector,
                                     self.config, self.snr_db, generator)
            num_clients = outcome.stream_success.size
            stats.frames += 1
            stats.stream_frames += num_clients
            stats.stream_successes += int(outcome.stream_success.sum())
            stats.delivered_info_bits += (self.config.payload_bits
                                          * int(outcome.stream_success.sum()))
            stats.airtime_s += frame_airtime_s(outcome.num_ofdm_symbols,
                                               self.config,
                                               self.overhead_symbols)
            stats.detections += outcome.detections
            if outcome.counters is not None:
                stats.counters.merge(outcome.counters)
                stats.has_counters = True
        return stats
