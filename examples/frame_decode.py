"""Frame-level detection: one frontier for every (subcarrier, symbol).

Builds a 16-QAM, 4x4 uplink frame over 64 OFDM data subcarriers and
detects it twice with the same Geosphere decoder — the same lockstep
engine both times, fed differently:

1. per subcarrier — one QR and rotation of its observations
   (``triangular_frame`` of that subcarrier) and one
   ``decoder.decode_batch``, a private frontier, per subcarrier (64
   engine runs, 64 straggler tails);
2. ``detect_uplink`` (``detect_frame``) — one QR call for the frame and a
   *single* frontier that packs searches from every subcarrier into the
   same lanes.

Both are bit-identical — symbol decisions and the paper's complexity
counters — so the only thing that changes is wall-clock latency.

Run:  python examples/frame_decode.py
"""

import time

import numpy as np

from repro.constellation import qam
from repro.detect import SphereDetector
from repro.phy.receiver import detect_uplink
from repro.frame import triangular_frame
from repro.sphere import ComplexityCounters, geosphere_decoder

NUM_SUBCARRIERS = 64
NUM_SYMBOLS = 16
NUM_CLIENTS = 4
NUM_ANTENNAS = 4
SNR_DB = 21.0


def best_of(function, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def detect_per_subcarrier(channels, received, decoder):
    """One QR and one ``decode_batch`` (one frontier) per subcarrier."""
    indices = np.empty(received.shape[:2] + (channels.shape[2],),
                       dtype=np.int64)
    counters = ComplexityCounters()
    for s in range(channels.shape[0]):
        r, y_hat, _, _ = triangular_frame(channels[s:s + 1],
                                          received[:, s:s + 1])
        block = decoder.decode_batch(r[0], y_hat[0])
        indices[:, s, :] = block.symbol_indices[:, 0]
        counters.merge(block.counters)
    return indices, counters


def main() -> None:
    rng = np.random.default_rng(2014)
    constellation = qam(16)

    # One frame: per-subcarrier Rayleigh channels, random payload symbols.
    shape = (NUM_SUBCARRIERS, NUM_ANTENNAS, NUM_CLIENTS)
    channels = (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    sent = rng.integers(0, constellation.order,
                        size=(NUM_SYMBOLS, NUM_SUBCARRIERS, NUM_CLIENTS))
    clean = np.einsum("tsc,sac->tsa", constellation.points[sent], channels)
    energy = float(np.mean(np.sum(np.abs(channels) ** 2, axis=1)))
    noise_variance = energy / 10.0 ** (SNR_DB / 10.0)
    received = clean + np.sqrt(noise_variance / 2.0) * (
        rng.standard_normal(clean.shape)
        + 1j * rng.standard_normal(clean.shape))

    decoder = geosphere_decoder(constellation)
    detector = SphereDetector(decoder)
    print(f"frame: {NUM_SYMBOLS} OFDM symbols x {NUM_SUBCARRIERS} "
          f"subcarriers x {NUM_CLIENTS} streams of 16-QAM "
          f"({NUM_SYMBOLS * NUM_SUBCARRIERS} MIMO detections)")

    per_sub_indices, per_sub_counters = detect_per_subcarrier(
        channels, received, decoder)
    frame = detect_uplink(channels, received, detector, noise_variance)

    identical = (np.array_equal(frame.symbol_indices, per_sub_indices)
                 and frame.counters == per_sub_counters)
    errors = int((frame.symbol_indices != sent).sum())
    print(f"both feeds bit-identical (decisions and counters): {identical}")
    print(f"symbol errors vs transmitted: {errors} / {sent.size}")
    print(f"PED calculations per detection: "
          f"{frame.counters.ped_calcs / frame.detections:.1f}")

    per_sub_s = best_of(lambda: detect_per_subcarrier(
        channels, received, decoder))
    frame_s = best_of(lambda: detect_uplink(
        channels, received, detector, noise_variance))
    print(f"frontier per subcarrier: {per_sub_s * 1e3:7.1f} ms/frame")
    print(f"one frontier per frame:  {frame_s * 1e3:7.1f} ms/frame")
    print(f"the frame frontier is {per_sub_s / frame_s:.1f}x faster — one "
          f"lane pool, one straggler drain, instead of "
          f"{NUM_SUBCARRIERS} of each")


if __name__ == "__main__":
    main()
