"""Figure 15: simulation-based complexity, ETH-SD vs Geosphere variants.

For two clients x four AP antennas (a) and four clients x four AP antennas
(b), at the SNR where each constellation reaches ~10% error rate, measure
average PED calculations for:

* ETH-SD (Burg et al. + Hess enumeration),
* Geosphere with 2-D zigzag only,
* full Geosphere (zigzag + geometric pruning),

over both i.i.d. Rayleigh channels (solid bars) and measured testbed
channels (striped bars).  Expected shape: ETH-SD grows steeply with
constellation size; Geosphere stays nearly flat (81% cheaper at 256-QAM
2x4 Rayleigh in the paper); pruning contributes an extra 13-27%.
All three visit the same number of tree nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..phy.link import rayleigh_source
from ..utils.rng import as_generator
from .common import Scale, format_table, get_scale, testbed_trace
from .complexity import (
    run_symbol_complexity,
    snr_for_target_ver,
    trace_vector_source,
)

__all__ = ["Fig15Result", "run", "render", "DECODERS", "ORDERS"]

DECODERS = ("eth-sd", "geosphere-zigzag", "geosphere")
ORDERS = (16, 64, 256)
CASES = ((2, 4), (4, 4))
SOURCES = ("rayleigh", "testbed")
TARGET_VER = 0.10


@dataclass
class Fig15Result:
    scale_name: str
    #: (case, source, order, decoder) -> average PED calculations
    ped_calcs: dict[tuple[tuple[int, int], str, int, str], float]
    #: (case, source, order, decoder) -> average visited nodes
    visited: dict[tuple[tuple[int, int], str, int, str], float]
    snrs_db: dict[tuple[tuple[int, int], str, int], float]

    def savings_vs_eth(self, case, source, order) -> float:
        eth = self.ped_calcs[(case, source, order, "eth-sd")]
        geo = self.ped_calcs[(case, source, order, "geosphere")]
        return 1.0 - geo / eth if eth > 0 else 0.0

    def pruning_gain(self, case, source, order) -> float:
        """Extra savings of full Geosphere over zigzag-only."""
        zigzag = self.ped_calcs[(case, source, order, "geosphere-zigzag")]
        full = self.ped_calcs[(case, source, order, "geosphere")]
        return 1.0 - full / zigzag if zigzag > 0 else 0.0


def run(scale: str | Scale = "quick", seed: int = 1515,
        cases=CASES, sources=SOURCES, orders=ORDERS) -> Fig15Result:
    scale = get_scale(scale)
    rng = as_generator(seed)
    ped: dict = {}
    visited: dict = {}
    snrs: dict = {}
    for case in cases:
        num_clients, num_antennas = case
        for source_kind in sources:
            if source_kind == "testbed":
                trace = testbed_trace(num_clients, num_antennas, scale)
            for order in orders:
                snr_db = snr_for_target_ver(order, num_clients, num_antennas,
                                            TARGET_VER, source_kind)
                snrs[(case, source_kind, order)] = snr_db
                # Identical channel / symbol / noise realisations for
                # every decoder in this cell, so differences are purely
                # algorithmic (and pruning can never "lose" to variance).
                source_seed = int(rng.integers(1 << 31))
                workload_seed = int(rng.integers(1 << 31))
                for decoder in DECODERS:
                    if source_kind == "testbed":
                        source = trace_vector_source(trace, rng=source_seed)
                    else:
                        source = rayleigh_source(
                            num_antennas, num_clients, rng=source_seed)
                    result = run_symbol_complexity(
                        decoder, order, source, snr_db, scale.num_vectors,
                        rng=workload_seed)
                    key = (case, source_kind, order, decoder)
                    ped[key] = result.avg_ped_calcs
                    visited[key] = result.avg_visited_nodes
    return Fig15Result(scale_name=scale.name, ped_calcs=ped, visited=visited,
                       snrs_db=snrs)


def render(result: Fig15Result) -> str:
    rows = []
    keys = sorted({(case, source, order)
                   for (case, source, order, _) in result.ped_calcs},
                  key=str)
    for case, source, order in keys:
        eth = result.ped_calcs[(case, source, order, "eth-sd")]
        zigzag = result.ped_calcs[(case, source, order, "geosphere-zigzag")]
        full = result.ped_calcs[(case, source, order, "geosphere")]
        rows.append([
            f"{case[0]}x{case[1]}", source, f"{order}-QAM",
            f"{result.snrs_db[(case, source, order)]:.1f}",
            f"{eth:.1f}", f"{zigzag:.1f}", f"{full:.1f}",
            f"{result.savings_vs_eth(case, source, order) * 100:.0f}%",
            f"{result.pruning_gain(case, source, order) * 100:.0f}%",
        ])
    table = format_table(
        ["case", "channels", "modulation", "SNR (dB)", "ETH-SD",
         "2D zigzag", "full Geosphere", "vs ETH-SD", "pruning gain"],
        rows,
        title=("Figure 15 - average PED calculations at ~10% vector error "
               "rate"),
    )
    notes = ("\nPaper anchors: ETH-SD grows with constellation size,"
             "\nGeosphere nearly flat (81% cheaper at 256-QAM 2x4 Rayleigh);"
             "\npruning adds 13-27%; visited nodes identical for all three.")
    return table + notes
