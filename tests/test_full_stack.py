"""Full-stack integration: the complete PHY, in the time domain.

Coded payloads -> OFDM sample streams -> tapped-delay multipath + AWGN ->
CP removal / FFT -> per-subcarrier LS channel estimation from orthogonal
training -> whole-frame sphere decoding -> deinterleave / Viterbi /
CRC.  This is the WARPLab receive pipeline of the paper's section 4, with
no frequency-domain shortcuts anywhere.
"""

import numpy as np
import pytest

from repro.channel import awgn, sample_taps
from repro.constellation import qam
from repro.detect import SphereDetector, ZeroForcingDetector
from repro.ofdm import (
    WIFI_20MHZ,
    apply_multipath,
    demodulate,
    estimate_channel,
    frequency_response,
    modulate,
    training_grid,
)
from repro.phy import build_uplink_frame, default_config, random_payloads
from repro.phy.receiver import detect_uplink, recover_uplink
from repro.sphere import geosphere_decoder


def run_full_stack(num_clients, num_antennas, order, noise_variance, seed,
                   detector=None, estimate=True):
    """One complete time-domain uplink frame; returns CRC verdicts."""
    rng = np.random.default_rng(seed)
    config = default_config(order=order, payload_bits=184)
    constellation = config.constellation
    if detector is None:
        detector = SphereDetector(geosphere_decoder(constellation))

    taps = sample_taps(num_antennas, num_clients, num_taps=5,
                       rms_delay_spread_taps=1.5, rng=rng)
    true_channels = frequency_response(taps, WIFI_20MHZ)

    # --- channel sounding (one training symbol per client, in turn) ----
    training = training_grid(WIFI_20MHZ, rng=rng)
    sounding = np.zeros((num_clients, 48, num_antennas), dtype=complex)
    for client in range(num_clients):
        streams = np.zeros((num_clients, WIFI_20MHZ.symbol_samples),
                           dtype=complex)
        streams[client] = modulate(training[None, :], WIFI_20MHZ)
        received = apply_multipath(streams, taps)
        received += awgn(received.shape, noise_variance, rng)
        for antenna in range(num_antennas):
            sounding[client, :, antenna] = demodulate(
                received[antenna], WIFI_20MHZ)[0][0]
    channels = (estimate_channel(sounding, training)
                if estimate else true_channels)

    # --- data frame ------------------------------------------------------
    payloads = random_payloads(num_clients, config, rng)
    frame = build_uplink_frame(payloads, config)
    streams = np.stack([
        modulate(stream.grid, WIFI_20MHZ) for stream in frame.streams
    ])
    received = apply_multipath(streams, taps)
    received += awgn(received.shape, noise_variance, rng)
    rx_grids = np.stack([
        demodulate(received[antenna], WIFI_20MHZ)[0]
        for antenna in range(num_antennas)
    ], axis=2)  # (symbols, subcarriers, antennas)

    # --- frame MIMO detection -------------------------------------------
    detected = detect_uplink(channels, rx_grids, detector, noise_variance)

    decisions = recover_uplink(detected.symbol_indices,
                               frame.streams[0].num_pad_bits, config)
    return payloads, decisions


class TestFullStack:
    @pytest.mark.parametrize("order", [4, 16])
    def test_clean_channel_delivers_all_frames(self, order):
        payloads, decisions = run_full_stack(
            2, 4, order, noise_variance=1e-6, seed=1)
        for payload, decision in zip(payloads, decisions):
            assert decision.crc_ok
            assert (decision.payload_bits == payload).all()

    def test_moderate_noise_with_estimated_csi(self):
        payloads, decisions = run_full_stack(
            2, 4, 16, noise_variance=3e-4, seed=2, estimate=True)
        assert all(decision.crc_ok for decision in decisions)

    def test_four_clients_four_antennas(self):
        payloads, decisions = run_full_stack(
            4, 4, 4, noise_variance=1e-4, seed=3)
        assert all(decision.crc_ok for decision in decisions)

    def test_heavy_noise_fails_crc(self):
        _, decisions = run_full_stack(2, 4, 64, noise_variance=0.5, seed=4)
        assert not all(decision.crc_ok for decision in decisions)

    def test_sphere_decoder_beats_zf_through_the_full_stack(self):
        """The paper's claim survives the complete pipeline: with the same
        samples and estimated CSI, Geosphere delivers frames ZF loses."""
        constellation = qam(16)
        sphere_ok = zf_ok = 0
        for seed in range(6):
            _, sphere_decisions = run_full_stack(
                4, 4, 16, noise_variance=8e-3, seed=seed,
                detector=SphereDetector(geosphere_decoder(constellation)))
            _, zf_decisions = run_full_stack(
                4, 4, 16, noise_variance=8e-3, seed=seed,
                detector=ZeroForcingDetector(constellation))
            sphere_ok += sum(d.crc_ok for d in sphere_decisions)
            zf_ok += sum(d.crc_ok for d in zf_decisions)
        assert sphere_ok >= zf_ok
        assert sphere_ok > 0

    def test_estimated_csi_close_to_true_csi_outcome(self):
        """At working SNR, estimation error must not flip the outcome."""
        _, with_estimation = run_full_stack(2, 4, 16, 3e-4, seed=5,
                                            estimate=True)
        _, with_truth = run_full_stack(2, 4, 16, 3e-4, seed=5,
                                       estimate=False)
        assert ([d.crc_ok for d in with_estimation]
                == [d.crc_ok for d in with_truth])
