"""Symbol-level complexity measurement (the metric of Figs. 14-15).

The paper's complexity unit is *average partial Euclidean distance
calculations per subcarrier* — a per-MIMO-symbol-vector quantity that does
not depend on FEC, so we measure it with uncoded symbol-vector workloads:
draw a channel, pin the noise to the target average stream SNR, transmit a
random symbol vector, decode, accumulate counters.

Also hosts the SNR calibration that stands in for the paper's
"SNR such that each constellation reaches a frame error rate of
approximately 10%": we calibrate to a target *vector* error rate (the
probability the ML decision differs from the transmitted vector), with
pre-computed values for the standard cases so benchmarks never pay the
bisection cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel.noise import awgn, noise_variance_for_snr
from ..channel.trace import ChannelTrace
from ..constellation.qam import qam
from ..phy.link import rayleigh_source
from ..utils.rng import as_generator
from ..utils.validation import require
from .common import make_detector

__all__ = [
    "ComplexityResult",
    "trace_vector_source",
    "run_symbol_complexity",
    "snr_for_target_ver",
    "CALIBRATED_SNRS_DB",
]


# ----------------------------------------------------------------------
# Per-vector channel sources
# ----------------------------------------------------------------------

def trace_vector_source(trace: ChannelTrace, rng=None):
    """Random (link, subcarrier) channel from a measured trace per vector."""
    generator = as_generator(rng)

    def source() -> np.ndarray:
        link = int(generator.integers(0, trace.num_links))
        subcarrier = int(generator.integers(0, trace.num_subcarriers))
        return trace.matrices[link, subcarrier]

    return source


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

@dataclass
class ComplexityResult:
    """Aggregated sphere-decoder complexity over many symbol vectors."""

    detector: str
    order: int
    snr_db: float
    num_vectors: int
    avg_ped_calcs: float
    avg_visited_nodes: float
    avg_geometric_prunes: float
    vector_error_rate: float


def run_symbol_complexity(detector_kind: str, order: int, channel_source,
                          snr_db: float, num_vectors: int,
                          rng=None) -> ComplexityResult:
    """Decode ``num_vectors`` random symbol vectors and tally counters."""
    require(num_vectors >= 1, "need at least one vector")
    generator = as_generator(rng)
    constellation = qam(order)
    detector = make_detector(detector_kind, constellation)
    ped = visited = prunes = errors = 0
    for _ in range(num_vectors):
        channel = channel_source()
        num_tx = channel.shape[1]
        sent = generator.integers(0, order, size=num_tx)
        noise_variance = noise_variance_for_snr(channel, snr_db)
        received = (channel @ constellation.points[sent]
                    + awgn(channel.shape[0], noise_variance, generator))
        result = detector.detect(channel, received, noise_variance)
        counters = result.counters
        ped += counters.ped_calcs
        visited += counters.visited_nodes
        prunes += counters.geometric_prunes
        errors += int((result.symbol_indices != sent).any())
    return ComplexityResult(
        detector=detector_kind, order=order, snr_db=snr_db,
        num_vectors=num_vectors,
        avg_ped_calcs=ped / num_vectors,
        avg_visited_nodes=visited / num_vectors,
        avg_geometric_prunes=prunes / num_vectors,
        vector_error_rate=errors / num_vectors,
    )


# ----------------------------------------------------------------------
# SNR calibration to a target vector error rate
# ----------------------------------------------------------------------

#: Pre-computed operating points: (source, clients, antennas, order,
#: target_ver) -> average per-stream SNR in dB.  Values produced by
#: ``snr_for_target_ver`` with 500 probe vectors and seed 123 (see
#: EXPERIMENTS.md) so benchmarks skip the bisection.  Regenerate with
#: ``python -m repro.experiments.runner calibrate``.
#:
#: Sanity anchor: the paper quotes "approximately 27, 33 and 39 dB for the
#: 2x4 measured channels and 16-, 64- and 256-QAM" at ~10% FER; our
#: testbed values are 26.3 / 38.3 / 44.3 dB (16-QAM matches; denser
#: constellations sit higher because our ray-traced 2x4 channels are
#: somewhat worse-conditioned than the paper's — see DESIGN.md).
#: Testbed entries at 1% VER hit error floors on the worst links, so only
#: the 10% operating points are tabulated for the measured source.
CALIBRATED_SNRS_DB: dict[tuple[str, int, int, int, float], float] = {
    ("rayleigh", 2, 4, 16, 0.10): 14.72,
    ("rayleigh", 2, 4, 16, 0.01): 18.47,
    ("rayleigh", 2, 4, 64, 0.10): 21.47,
    ("rayleigh", 2, 4, 64, 0.01): 24.47,
    ("rayleigh", 2, 4, 256, 0.10): 27.47,
    ("rayleigh", 2, 4, 256, 0.01): 30.66,
    ("rayleigh", 4, 4, 16, 0.10): 17.16,
    ("rayleigh", 4, 4, 16, 0.01): 21.47,
    ("rayleigh", 4, 4, 64, 0.10): 24.47,
    ("rayleigh", 4, 4, 64, 0.01): 27.47,
    ("rayleigh", 4, 4, 256, 0.10): 30.66,
    ("rayleigh", 4, 4, 256, 0.01): 34.22,
    ("testbed", 2, 4, 16, 0.10): 26.34,
    ("testbed", 2, 4, 64, 0.10): 38.34,
    ("testbed", 2, 4, 256, 0.10): 44.34,
    ("testbed", 4, 4, 16, 0.10): 36.28,
    ("testbed", 4, 4, 64, 0.10): 43.78,
    ("testbed", 4, 4, 256, 0.10): 47.91,
}


def snr_for_target_ver(order: int, num_clients: int, num_ap_antennas: int,
                       target_ver: float, source_kind: str = "rayleigh",
                       channel_source=None, probe_vectors: int = 400,
                       seed: int = 123, use_cache: bool = True) -> float:
    """SNR (dB) at which the ML vector error rate is ~``target_ver``.

    Bisects over [0, 48] dB using the Geosphere decoder (every exact-ML
    decoder has the same error rate).  ``channel_source`` must be given
    for ``source_kind='testbed'`` probing unless the value is cached.
    """
    require(0.0 < target_ver < 1.0, "target VER must be in (0, 1)")
    key = (source_kind, num_clients, num_ap_antennas, order, target_ver)
    if use_cache and key in CALIBRATED_SNRS_DB:
        return CALIBRATED_SNRS_DB[key]

    if channel_source is None:
        require(source_kind == "rayleigh",
                "testbed calibration needs an explicit channel_source")
        channel_source = rayleigh_source(num_ap_antennas, num_clients,
                                         rng=seed)

    low, high = 0.0, 48.0
    for _ in range(8):
        middle = (low + high) / 2.0
        result = run_symbol_complexity("geosphere", order, channel_source,
                                       middle, probe_vectors, rng=seed)
        if result.vector_error_rate > target_ver:
            low = middle
        else:
            high = middle
    calibrated = (low + high) / 2.0
    CALIBRATED_SNRS_DB[key] = calibrated
    return calibrated
