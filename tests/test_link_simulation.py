"""Integration tests: full uplink link simulation over fading channels."""

import numpy as np
import pytest

from repro.channel import correlated_rayleigh_channel
from repro.constellation import qam
from repro.detect import (
    ExhaustiveMLDetector,
    HybridDetector,
    MmseDetector,
    MmseSicDetector,
    SphereDetector,
    ZeroForcingDetector,
)
from repro.phy import (
    LinkSimulator,
    default_config,
    fixed_source,
    phy_rate_bps,
    rayleigh_source,
    simulate_frame,
    trace_source,
)
from repro.channel import ChannelTrace, rayleigh_channels
from repro.sphere import geosphere_decoder


def geosphere(constellation):
    return SphereDetector(geosphere_decoder(constellation))


class TestSimulateFrame:
    def test_high_snr_frame_succeeds(self):
        config = default_config(order=16, payload_bits=200)
        rng = np.random.default_rng(0)
        channel = rayleigh_source(4, 2, rng)()
        outcome = simulate_frame(channel, geosphere(config.constellation),
                                 config, snr_db=35.0, rng=rng)
        assert outcome.stream_success.all()
        assert outcome.counters is not None
        assert outcome.detections == outcome.num_ofdm_symbols * 48

    def test_very_low_snr_frame_fails(self):
        config = default_config(order=64, payload_bits=200)
        rng = np.random.default_rng(1)
        channel = rayleigh_source(2, 2, rng)()
        outcome = simulate_frame(channel, ZeroForcingDetector(config.constellation),
                                 config, snr_db=-10.0, rng=rng)
        assert not outcome.stream_success.any()

    def test_linear_detector_has_no_counters(self):
        config = default_config(order=4, payload_bits=100)
        rng = np.random.default_rng(2)
        channel = rayleigh_source(2, 2, rng)()
        outcome = simulate_frame(channel, ZeroForcingDetector(config.constellation),
                                 config, snr_db=20.0, rng=rng)
        assert outcome.counters is None

    def test_per_subcarrier_channels_accepted(self):
        config = default_config(order=4, payload_bits=100)
        rng = np.random.default_rng(3)
        matrices = rayleigh_channels(48, 4, 2, rng)
        outcome = simulate_frame(matrices, geosphere(config.constellation),
                                 config, snr_db=30.0, rng=rng)
        assert outcome.stream_success.all()

    def test_rejects_wrong_subcarrier_count(self):
        config = default_config(order=4, payload_bits=100)
        matrices = rayleigh_channels(32, 4, 2, rng=0)
        with pytest.raises(ValueError):
            simulate_frame(matrices, geosphere(config.constellation),
                           config, snr_db=20.0, rng=0)

    def test_rejects_more_clients_than_antennas(self):
        config = default_config(order=4, payload_bits=100)
        matrices = rayleigh_channels(48, 2, 4, rng=0)
        with pytest.raises(ValueError):
            simulate_frame(matrices, geosphere(config.constellation),
                           config, snr_db=20.0, rng=0)


class TestLinkSimulator:
    def test_throughput_approaches_phy_rate_at_high_snr(self):
        config = default_config(order=16, payload_bits=400)
        simulator = LinkSimulator(geosphere(config.constellation), config,
                                  snr_db=35.0)
        stats = simulator.run(rayleigh_source(4, 2, rng=4), num_frames=5, rng=5)
        assert stats.frame_error_rate == 0.0
        # Net throughput is below PHY rate only because of CRC and padding.
        rate = phy_rate_bps(config, 2)
        assert 0.75 * rate < stats.throughput_bps <= rate

    def test_geosphere_beats_zf_on_ill_conditioned_channel(self):
        """The paper's central claim at link level: on a channel whose
        worst-stream ZF degradation is ~12 dB, the ML detector delivers
        frames zero-forcing cannot."""
        config = default_config(order=16, payload_bits=300)
        channel = correlated_rayleigh_channel(4, 4, 0.75, 0.75, rng=9)
        source = fixed_source(channel)
        zf = LinkSimulator(ZeroForcingDetector(config.constellation), config, 20.0)
        geo = LinkSimulator(geosphere(config.constellation), config, 20.0)
        zf_stats = zf.run(source, num_frames=6, rng=6)
        geo_stats = geo.run(source, num_frames=6, rng=6)
        assert geo_stats.throughput_bps > 2.0 * zf_stats.throughput_bps

    def test_counter_aggregation(self):
        config = default_config(order=16, payload_bits=200)
        simulator = LinkSimulator(geosphere(config.constellation), config, 25.0)
        stats = simulator.run(rayleigh_source(4, 4, rng=7), num_frames=3, rng=8)
        assert stats.has_counters
        assert stats.avg_ped_calcs_per_detection > 0
        assert stats.avg_visited_nodes_per_detection >= 4.0  # >= one path

    def test_overhead_symbols_reduce_throughput(self):
        config = default_config(order=16, payload_bits=400)
        lean = LinkSimulator(geosphere(config.constellation), config, 35.0)
        heavy = LinkSimulator(geosphere(config.constellation), config, 35.0,
                              overhead_symbols=4)
        lean_stats = lean.run(rayleigh_source(4, 2, rng=9), 3, rng=10)
        heavy_stats = heavy.run(rayleigh_source(4, 2, rng=9), 3, rng=10)
        assert heavy_stats.throughput_bps < lean_stats.throughput_bps

    def test_trace_source_cycles_links(self):
        matrices = rayleigh_channels(5 * 48, 4, 2, rng=12).reshape(5, 48, 4, 2)
        trace = ChannelTrace(matrices=matrices, label="unit")
        source = trace_source(trace, rng=13)
        shapes = {source().shape for _ in range(4)}
        assert shapes == {(48, 4, 2)}

    def test_trace_source_client_subset(self):
        matrices = rayleigh_channels(3 * 48, 4, 4, rng=14).reshape(3, 48, 4, 4)
        trace = ChannelTrace(matrices=matrices, label="unit")
        source = trace_source(trace, rng=15, num_clients=2)
        assert source().shape == (48, 4, 2)


class TestDetectorConsistency:
    def test_one_subcarrier_frame_matches_detect(self):
        """A one-subcarrier ``detect_frame`` must agree with per-vector
        ``detect`` for every detector (same channel, same observations)."""
        constellation = qam(16)
        rng = np.random.default_rng(16)
        channel = rayleigh_channels(1, 4, 3, rng)[0]
        block = (rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))
        detectors = [
            ZeroForcingDetector(constellation),
            MmseDetector(constellation),
            MmseSicDetector(constellation),
            geosphere(constellation),
            ExhaustiveMLDetector(constellation),
            HybridDetector(constellation, threshold_db=0.0),     # sphere
            HybridDetector(constellation, threshold_db=1000.0),  # ZF
        ]
        for detector in detectors:
            frame = detector.detect_frame(channel[None], block[:, None, :],
                                          0.1)
            for t in range(block.shape[0]):
                single = detector.detect(channel, block[t], 0.1)
                assert (frame.symbol_indices[t, 0]
                        == single.symbol_indices).all(), detector.name
