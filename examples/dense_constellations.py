"""Dense constellations: why the sphere decoder needed Geosphere.

802.11ac pushed to 256-QAM, but the sphere decoder's branching factor is
the constellation size, so classic enumeration drowns in partial-distance
calculations.  This example sweeps 16/64/256-QAM on a 4x4 link and prints
the per-decode computation of three decoders that all return the *same*
maximum-likelihood answer:

* ETH-SD            (Burg et al. VLSI search + Hess enumeration)
* zigzag only       (Geosphere without geometric pruning)
* full Geosphere    (zigzag + geometric pruning)

Run:  python examples/dense_constellations.py
"""

from repro.experiments.complexity import (
    CALIBRATED_SNRS_DB,
    run_symbol_complexity,
)
from repro.phy import rayleigh_source

DECODERS = ("eth-sd", "geosphere-zigzag", "geosphere")
NUM_VECTORS = 150


def main() -> None:
    print("4x4 MIMO over Rayleigh fading, SNR at ~10% vector error rate")
    print(f"{'modulation':>12} {'ETH-SD':>10} {'zigzag':>10} "
          f"{'Geosphere':>10}   (PED calcs per decode)")
    for order in (16, 64, 256):
        snr_db = CALIBRATED_SNRS_DB[("rayleigh", 4, 4, order, 0.10)]
        row = []
        for decoder in DECODERS:
            source = rayleigh_source(4, 4, rng=11)
            result = run_symbol_complexity(decoder, order, source, snr_db,
                                           NUM_VECTORS, rng=13)
            row.append(result.avg_ped_calcs)
        print(f"{order:>9}-QAM {row[0]:>10.1f} {row[1]:>10.1f} {row[2]:>10.1f}")
    print("\nETH-SD's cost grows with the constellation; Geosphere's stays")
    print("nearly flat — the property that makes 256-QAM practical (the")
    print("paper's headline result).")


if __name__ == "__main__":
    main()
