"""Shared infrastructure for the per-figure experiment drivers.

Every experiment comes in two scales:

* ``quick`` — minutes-scale presets used by the benchmark harness and CI;
  enough samples for the paper's *shape* (who wins, by what factor) to be
  visible and stable under the fixed seeds;
* ``full``  — the sizes used to fill EXPERIMENTS.md.

All randomness is seeded; traces are cached per configuration so the
figure drivers that share a workload (e.g. Figs. 9 and 10) measure the
same channels, as the paper's did.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..channel.trace import ChannelTrace
from ..constellation.qam import QamConstellation
from ..detect.linear import MmseDetector, ZeroForcingDetector
from ..detect.sic import MmseSicDetector
from ..detect.sphere_adapter import SphereDetector
from ..sphere.decoder import (
    SphereDecoder,
    eth_sd_decoder,
    geosphere_decoder,
    geosphere_zigzag_only,
    shabany_decoder,
)
from ..testbed.generator import generate_testbed_trace
from ..utils.validation import require

__all__ = [
    "Scale",
    "QUICK",
    "FULL",
    "get_scale",
    "testbed_trace",
    "make_detector",
    "DETECTOR_KINDS",
    "MIMO_CASES",
    "SNR_POINTS_DB",
    "fraction_above",
    "percentiles",
    "format_table",
]

#: The paper's evaluated antenna configurations (clients x AP antennas).
MIMO_CASES = ((2, 2), (2, 4), (3, 4), (4, 4))
#: The paper's SNR operating points (section 5.2).
SNR_POINTS_DB = (15.0, 20.0, 25.0)

DETECTOR_KINDS = ("zf", "mmse", "mmse-sic", "geosphere", "geosphere-zigzag",
                  "eth-sd", "shabany")


@dataclass(frozen=True)
class Scale:
    """Workload sizing for one experiment run."""

    name: str
    num_links: int
    num_frames: int
    payload_bits: int
    num_vectors: int
    trace_seed: int = 1

    def __post_init__(self) -> None:
        require(self.num_links >= 1 and self.num_frames >= 1
                and self.num_vectors >= 1, "scale sizes must be positive")


# Both scales share the same 20-link traces (generation is cached and
# cheap; the cost knobs are frames, payload and vector counts), so the
# conditioning statistics of Figs. 9-10 are identical across scales.
QUICK = Scale(name="quick", num_links=20, num_frames=4, payload_bits=184,
              num_vectors=200)
FULL = Scale(name="full", num_links=20, num_frames=24, payload_bits=400,
             num_vectors=1200)


def get_scale(name: str | Scale) -> Scale:
    """Resolve ``"quick"`` / ``"full"`` (or pass a custom Scale through)."""
    if isinstance(name, Scale):
        return name
    if name == "quick":
        return QUICK
    if name == "full":
        return FULL
    raise ValueError(f"unknown scale {name!r}; use 'quick' or 'full'")


@lru_cache(maxsize=32)
def _cached_trace(num_clients: int, num_ap_antennas: int, num_links: int,
                  seed: int) -> ChannelTrace:
    return generate_testbed_trace(num_clients, num_ap_antennas,
                                  num_links=num_links, seed=seed)


def testbed_trace(num_clients: int, num_ap_antennas: int,
                  scale: Scale) -> ChannelTrace:
    """The (cached) measured-channel trace for one MIMO configuration."""
    return _cached_trace(num_clients, num_ap_antennas, scale.num_links,
                         scale.trace_seed)


def make_detector(kind: str, constellation: QamConstellation,
                  node_budget: int | None = None):
    """Instantiate one of the paper's receivers by name."""
    if kind == "zf":
        return ZeroForcingDetector(constellation)
    if kind == "mmse":
        return MmseDetector(constellation)
    if kind == "mmse-sic":
        return MmseSicDetector(constellation)
    if kind == "geosphere":
        decoder = geosphere_decoder(constellation)
    elif kind == "geosphere-zigzag":
        decoder = geosphere_zigzag_only(constellation)
    elif kind == "eth-sd":
        decoder = eth_sd_decoder(constellation)
    elif kind == "shabany":
        decoder = shabany_decoder(constellation)
    else:
        raise ValueError(f"unknown detector kind {kind!r}; "
                         f"choose from {DETECTOR_KINDS}")
    if node_budget is not None:
        decoder = SphereDecoder(constellation, enumerator=decoder.enumerator,
                                geometric_pruning=decoder.geometric_pruning,
                                node_budget=node_budget)
    return SphereDetector(decoder, name=kind)


# ----------------------------------------------------------------------
# Small statistics / rendering helpers
# ----------------------------------------------------------------------

def filter_trace_links(trace: ChannelTrace,
                       max_median_lambda_db: float) -> ChannelTrace:
    """Keep links whose median worst-stream ZF degradation is bounded.

    The paper's throughput experiments "position clients and APs in a
    subset of the positions used for channel measurements ... for this
    subset of positions the condition number and the Lambda values of the
    links are smaller than those when all positions are included".  This
    filter is that subset selection: it drops pathological links where
    even maximum-likelihood detection is hopeless, leaving the
    "particularly challenging case for Geosphere" the paper evaluates.
    """
    from ..channel.metrics import worst_stream_degradation_db

    medians = np.array([
        np.median([worst_stream_degradation_db(matrix) for matrix in link])
        for link in trace.matrices])
    keep = np.flatnonzero(medians <= max_median_lambda_db)
    if not keep.size:  # degenerate fallback: keep the least-degraded link
        keep = [int(np.argmin(medians))]
    return ChannelTrace(matrices=trace.matrices[keep],
                        label=f"{trace.label}[filtered]",
                        metadata=dict(trace.metadata))


#: Link filter used by the throughput experiments (paper section 5.2
#: methodology); conditioning experiments (Figs. 9-10) use ALL links.
THROUGHPUT_MAX_LAMBDA_DB = 20.0


def fraction_above(values, threshold: float) -> float:
    """Fraction of (finite) values strictly above ``threshold``."""
    array = np.asarray(values, dtype=float)
    finite = array[np.isfinite(array)]
    infinite = array.size - finite.size
    if array.size == 0:
        return float("nan")
    return float(((finite > threshold).sum() + infinite) / array.size)


def percentiles(values, points=(10, 25, 50, 75, 90)) -> dict[int, float]:
    """Selected percentiles with +inf treated as 'above everything'."""
    array = np.asarray(values, dtype=float)
    capped = np.where(np.isfinite(array), array, np.nanmax(
        np.where(np.isfinite(array), array, -np.inf)) + 40.0)
    return {point: float(np.percentile(capped, point)) for point in points}


def format_table(headers, rows, title: str | None = None) -> str:
    """Plain-text table rendering used by every experiment's report."""
    columns = [str(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(column) for column in columns]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(column.ljust(width)
                           for column, width in zip(columns, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)
