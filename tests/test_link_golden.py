"""Seeded golden regression for the link simulator.

The frame-first receive chain (``simulate_frame`` → ``detect_uplink`` →
``detect_frame``) must not silently change link-level results.  These
goldens pin a fixed-seed short run — frame error rate, net throughput and
the full complexity-counter totals — so any change to the receive chain's
arithmetic, detection order or counter accounting shows up as a hard
failure rather than a drifting benchmark.

The counter goldens are exact integers; the rate metrics are floats
asserted to near machine precision.  If an *intentional* change to the
receive chain alters these numbers, re-derive the goldens with the
script embedded in each test (seeds 2024/7) and say so in the commit.
"""

import numpy as np
import pytest

from repro.detect import SphereDetector, ZeroForcingDetector
from repro.phy import LinkSimulator, default_config, rayleigh_source
from repro.phy.soft_link import simulate_frame_soft
from repro.sphere import ListSphereDecoder, geosphere_decoder
from repro.sphere.counters import ComplexityCounters

from test_frame_engine import _PerSubcarrier, _ScalarListDecoder


def _run(detector_factory, snr_db):
    config = default_config(order=16, payload_bits=256)
    detector = detector_factory(config.constellation)
    simulator = LinkSimulator(detector, config, snr_db=snr_db)
    return simulator.run(rayleigh_source(4, 4, rng=2024), num_frames=4, rng=7)


class TestGeosphereGolden:
    """16-QAM, 4 clients on 4 antennas, 11 dB, 4 frames, seeds (2024, 7)."""

    def _stats(self):
        return _run(lambda c: SphereDetector(geosphere_decoder(c)), 11.0)

    def test_frame_statistics(self):
        stats = self._stats()
        assert stats.frames == 4
        assert stats.stream_frames == 16
        assert stats.stream_successes == 3
        assert stats.detections == 768
        assert stats.frame_error_rate == 0.8125
        assert stats.delivered_info_bits == 768.0
        np.testing.assert_allclose(stats.airtime_s, 6.4e-05, rtol=1e-12)
        np.testing.assert_allclose(stats.throughput_bps, 12_000_000.0,
                                   rtol=1e-12)

    def test_counter_totals(self):
        stats = self._stats()
        assert stats.has_counters
        counters = stats.counters
        assert counters.ped_calcs == 46_777
        assert counters.visited_nodes == 22_151
        assert counters.expanded_nodes == 20_819
        assert counters.leaves == 2_100
        assert counters.geometric_prunes == 9_294
        assert counters.complex_mults == 233_885
        # Derived metric used by the Figs. 14-15 reproduction.
        np.testing.assert_allclose(stats.avg_ped_calcs_per_detection,
                                   46_777 / 768, rtol=1e-12)

    @pytest.mark.parametrize("frame_strategy", ["frame", "per_subcarrier"])
    def test_goldens_invariant_under_frame_strategy(self, frame_strategy):
        """The engine's bit-exactness contract, pinned at link level:
        whether :func:`repro.phy.receiver.detect_uplink` hands the
        detector the whole frame or one subcarrier at a time, every
        golden — error rate, throughput and the exact counter integers —
        is untouched."""
        def factory(constellation):
            detector = SphereDetector(geosphere_decoder(constellation))
            return (detector if frame_strategy == "frame"
                    else _PerSubcarrier(detector))

        stats = _run(factory, 11.0)
        assert stats.stream_successes == 3
        assert stats.frame_error_rate == 0.8125
        counters = stats.counters
        assert counters.ped_calcs == 46_777
        assert counters.visited_nodes == 22_151
        assert counters.expanded_nodes == 20_819
        assert counters.leaves == 2_100
        assert counters.geometric_prunes == 9_294
        assert counters.complex_mults == 233_885


class TestSoftChainGolden:
    """Soft receive chain: 16-QAM, 2 clients on 4 antennas, 10 dB,
    4 frames, seeds (2024, 7), list size 8.

    Pins the list-sphere chain under *both* frame strategies: the
    whole-frame list frontier and the per-slot scalar list search must
    deliver the same stream verdicts and the exact same counter
    integers.  Re-derive with this loop (and say so in the commit) only
    for an intentional change to the soft chain's arithmetic.
    """

    def _run(self, frame_strategy):
        config = default_config(order=16, payload_bits=256)
        decoder_type = (ListSphereDecoder if frame_strategy == "frame"
                        else _ScalarListDecoder)
        decoder = decoder_type(config.constellation, list_size=8)
        source = rayleigh_source(4, 2, rng=2024)
        rng = np.random.default_rng(7)
        totals = ComplexityCounters()
        successes = stream_frames = detections = 0
        for _ in range(4):
            outcome = simulate_frame_soft(source(), decoder, config, 10.0,
                                          rng)
            successes += int(outcome.stream_success.sum())
            stream_frames += outcome.stream_success.size
            detections += outcome.detections
            totals.merge(outcome.counters)
        return successes, stream_frames, detections, totals

    @pytest.mark.parametrize("frame_strategy", ["frame", "per_subcarrier"])
    def test_soft_goldens_invariant_under_frame_strategy(self,
                                                         frame_strategy):
        successes, stream_frames, detections, counters = self._run(
            frame_strategy)
        assert successes == 7
        assert stream_frames == 8
        assert detections == 768
        assert counters.ped_calcs == 23_999
        assert counters.visited_nodes == 15_074
        assert counters.expanded_nodes == 4_317
        assert counters.leaves == 11_525
        assert counters.geometric_prunes == 2_970
        assert counters.complex_mults == 71_997


class TestZeroForcingGolden:
    """Same channels and seeds through the linear path (no counters)."""

    def test_frame_statistics(self):
        stats = _run(ZeroForcingDetector, 11.0)
        assert stats.frames == 4
        assert stats.stream_frames == 16
        assert not stats.has_counters
        assert np.isnan(stats.avg_ped_calcs_per_detection)
        # ZF on an i.i.d. 4x4 channel at 11 dB delivers nothing: the
        # noise amplification the paper opens with.
        assert stats.stream_successes == 0
        assert stats.throughput_bps == 0.0
