"""Tests for the extension decoders and soft-processing infrastructure:
K-best, fixed-complexity, hybrid switching, max-log LLRs, soft receive."""

import numpy as np
import pytest

from repro.channel import (
    awgn,
    correlated_rayleigh_channel,
    noise_variance_for_snr,
    rayleigh_channel,
)
from repro.constellation import qam
from repro.detect import (
    ExhaustiveMLDetector,
    HybridDetector,
    max_log_llrs,
)
from repro.detect.llr import axis_bit_partitions
from repro.phy import default_config, encode_stream, random_payloads
from repro.phy.receiver import recover_stream_soft
from repro.sphere import (
    ComplexityCounters,
    FixedComplexityDecoder,
    KBestDecoder,
    geosphere_decoder,
    triangularize,
)


def instance(order, num_tx, num_rx, snr_db, seed):
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    channel = rayleigh_channel(num_rx, num_tx, rng)
    sent = rng.integers(0, order, size=num_tx)
    noise_variance = noise_variance_for_snr(channel, snr_db)
    y = channel @ constellation.points[sent] + awgn(num_rx, noise_variance, rng)
    return constellation, channel, y, sent


class TestKBest:
    def test_large_k_matches_ml(self):
        """With K = |O| the K-best decoder cannot lose the ML path."""
        constellation = qam(4)
        decoder = KBestDecoder(constellation, k=4)
        reference = ExhaustiveMLDetector(constellation)
        for seed in range(10):
            _, channel, y, _ = instance(4, 3, 3, 8.0, seed)
            expected = reference.detect(channel, y)
            result = decoder.decode(channel, y)
            assert (result.symbol_indices == expected.symbol_indices).all()

    def test_small_k_loses_ml_sometimes(self):
        """The paper's criticism: speculative K misses the ML solution."""
        constellation = qam(16)
        decoder = KBestDecoder(constellation, k=1)
        reference = ExhaustiveMLDetector(constellation)
        losses = 0
        for seed in range(40):
            _, channel, y, _ = instance(16, 3, 3, 8.0, seed)
            expected = reference.detect(channel, y)
            result = decoder.decode(channel, y)
            losses += int((result.symbol_indices != expected.symbol_indices).any())
        assert losses > 0

    def test_error_rate_improves_with_k(self):
        constellation = qam(16)
        errors = {}
        for k in (1, 8):
            decoder = KBestDecoder(constellation, k=k)
            count = 0
            for seed in range(60):
                _, channel, y, sent = instance(16, 3, 3, 14.0, seed)
                result = decoder.decode(channel, y)
                count += int((result.symbol_indices != sent).sum())
            errors[k] = count
        assert errors[8] <= errors[1]

    def test_high_snr_decodes_correctly(self):
        constellation = qam(64)
        decoder = KBestDecoder(constellation, k=8)
        _, channel, y, sent = instance(64, 2, 4, 35.0, seed=5)
        result = decoder.decode(channel, y)
        assert (result.symbol_indices == sent).all()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KBestDecoder(qam(4), k=0)

    def test_counters_populated(self):
        constellation = qam(16)
        decoder = KBestDecoder(constellation, k=4)
        _, channel, y, _ = instance(16, 3, 3, 15.0, seed=1)
        result = decoder.decode(channel, y)
        assert result.counters.ped_calcs > 0
        assert result.counters.leaves >= 1


class TestFixedComplexity:
    def test_zero_full_levels_is_greedy_decision_feedback(self):
        constellation = qam(16)
        decoder = FixedComplexityDecoder(constellation, full_levels=0)
        _, channel, y, sent = instance(16, 3, 4, 35.0, seed=2)
        result = decoder.decode(channel, y)
        assert (result.symbol_indices == sent).all()
        # Exactly one leaf: complexity independent of the channel.
        assert result.counters.leaves == 1

    def test_complexity_is_fixed(self):
        """|O|**p leaves regardless of channel conditioning."""
        constellation = qam(16)
        decoder = FixedComplexityDecoder(constellation, full_levels=1)
        leaf_counts = set()
        for seed in range(5):
            _, channel, y, _ = instance(16, 3, 3, 5.0, seed)
            result = decoder.decode(channel, y)
            leaf_counts.add(result.counters.leaves)
        assert leaf_counts == {16}

    def test_approaches_ml_at_high_snr(self):
        constellation = qam(16)
        decoder = FixedComplexityDecoder(constellation, full_levels=1)
        reference = ExhaustiveMLDetector(constellation)
        agreements = 0
        for seed in range(20):
            _, channel, y, _ = instance(16, 3, 3, 30.0, seed)
            expected = reference.detect(channel, y)
            result = decoder.decode(channel, y)
            agreements += int(
                (result.symbol_indices == expected.symbol_indices).all())
        assert agreements >= 18  # asymptotically ML, occasionally not

    def test_can_miss_ml_at_low_snr(self):
        constellation = qam(16)
        decoder = FixedComplexityDecoder(constellation, full_levels=1)
        reference = ExhaustiveMLDetector(constellation)
        misses = 0
        for seed in range(40):
            _, channel, y, _ = instance(16, 4, 4, 6.0, seed)
            expected = reference.detect(channel, y)
            result = decoder.decode(channel, y)
            misses += int((result.symbol_indices != expected.symbol_indices).any())
        assert misses > 0

    def test_distance_matches_residual(self):
        constellation = qam(16)
        decoder = FixedComplexityDecoder(constellation, full_levels=2)
        _, channel, y, _ = instance(16, 3, 3, 15.0, seed=3)
        result = decoder.decode(channel, y)
        residual = float(np.sum(np.abs(y - channel @ result.symbols) ** 2))
        assert result.distance_sq == pytest.approx(residual)


class TestHybridDetector:
    def test_tracks_sphere_fraction(self):
        constellation = qam(16)
        hybrid = HybridDetector(constellation, threshold_db=10.0)
        rng = np.random.default_rng(4)
        well = np.eye(4, dtype=complex)
        badly = correlated_rayleigh_channel(4, 4, 0.9, 0.9, rng=5)
        block = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        hybrid.detect_frame(well[None], block[:, None, :], 0.01)
        assert hybrid.sphere_fraction == 0.0
        hybrid.detect_frame(badly[None], block[:, None, :], 0.01)
        assert hybrid.sphere_fraction == pytest.approx(0.5)

    def test_mixed_frame_matches_per_subcarrier(self):
        """One frame whose subcarriers straddle the threshold: every slot
        equals its one-subcarrier call, the counters are the sphere
        subcarriers' alone, and the fraction counts subcarriers."""
        constellation = qam(16)
        rng = np.random.default_rng(9)
        channels = np.stack([
            correlated_rayleigh_channel(4, 4, 0.9, 0.9, rng=seed)
            if seed % 2 else np.eye(4) + 0.1 * rayleigh_channel(4, 4, rng=seed)
            for seed in range(8)])
        received = (rng.standard_normal((5, 8, 4))
                    + 1j * rng.standard_normal((5, 8, 4)))
        hybrid = HybridDetector(constellation, threshold_db=10.0)
        sphere = np.array([hybrid._use_sphere(matrix) for matrix in channels])
        assert 0 < sphere.sum() < sphere.size
        frame = hybrid.detect_frame(channels, received, 0.05)
        assert hybrid.sphere_fraction == sphere.mean()

        decoder = geosphere_decoder(constellation)
        totals = ComplexityCounters()
        for s in range(channels.shape[0]):
            alone = HybridDetector(constellation, threshold_db=10.0)
            one = alone.detect_frame(channels[s:s + 1], received[:, s:s + 1],
                                     0.05)
            assert np.array_equal(frame.symbol_indices[:, s],
                                  one.symbol_indices[:, 0])
            if sphere[s]:
                q, r = triangularize(channels[s])
                totals.merge(decoder.decode_batch(
                    r, received[:, s] @ np.conj(q)).counters)
        assert frame.counters == totals

    def test_matches_sphere_on_bad_channels(self):
        constellation = qam(16)
        hybrid = HybridDetector(constellation, threshold_db=0.0)  # always sphere
        sphere = geosphere_decoder(constellation)
        _, channel, y, _ = instance(16, 3, 3, 15.0, seed=6)
        expected = sphere.decode(channel, y)
        result = hybrid.detect(channel, y, 0.1)
        assert (result.symbol_indices == expected.symbol_indices).all()

    def test_zero_counters_on_linear_path(self):
        constellation = qam(4)
        hybrid = HybridDetector(constellation, threshold_db=1000.0)  # always ZF
        _, channel, y, _ = instance(4, 2, 2, 20.0, seed=7)
        frame = hybrid.detect_frame(channel[None], y[None, None, :], 0.1)
        assert frame.counters == ComplexityCounters()

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            HybridDetector(qam(4), threshold_db=-1.0)


class TestMaxLogLlrs:
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_sign_recovers_hard_decision(self, order):
        """Slicing the LLR signs must equal hard demodulation."""
        constellation = qam(order)
        rng = np.random.default_rng(8)
        estimates = (rng.uniform(-1.5, 1.5, 50)
                     + 1j * rng.uniform(-1.5, 1.5, 50))
        llrs = max_log_llrs(estimates, constellation)
        hard_from_llrs = (llrs < 0).astype(np.uint8)
        expected = constellation.hard_demodulate(estimates)
        assert (hard_from_llrs == expected).all()

    def test_on_constellation_points_llrs_are_confident(self):
        constellation = qam(16)
        llrs = max_log_llrs(constellation.points, constellation, noise_scale=0.1)
        bits = constellation.indices_to_bits(np.arange(16))
        assert ((llrs < 0) == bits.astype(bool)).all()
        assert np.abs(llrs).min() > 1.0

    def test_noise_scale_only_scales(self):
        constellation = qam(64)
        estimates = np.array([0.3 - 0.2j, -0.7 + 0.9j])
        a = max_log_llrs(estimates, constellation, noise_scale=1.0)
        b = max_log_llrs(estimates, constellation, noise_scale=0.5)
        assert np.allclose(b, 2.0 * a)

    def test_partition_table_shape(self):
        table = axis_bit_partitions(qam(256))
        assert table.shape == (16, 4)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            max_log_llrs(np.array([]), qam(4))


class TestSoftReceive:
    def test_soft_roundtrip_from_true_symbols(self):
        config = default_config(order=16, payload_bits=300)
        payload = random_payloads(1, config, rng=9)[0]
        frame = encode_stream(payload, config)
        llrs = max_log_llrs(frame.grid.reshape(-1), config.constellation,
                            noise_scale=0.05)
        decision = recover_stream_soft(llrs, frame.num_pad_bits, config)
        assert decision.crc_ok
        assert (decision.payload_bits == payload).all()

    def test_soft_survives_noisy_estimates(self):
        config = default_config(order=16, payload_bits=300)
        rng = np.random.default_rng(10)
        payload = random_payloads(1, config, rng=rng)[0]
        frame = encode_stream(payload, config)
        noisy = frame.grid.reshape(-1) + awgn(frame.symbol_indices.size,
                                              0.02, rng)
        llrs = max_log_llrs(noisy, config.constellation, noise_scale=0.02)
        decision = recover_stream_soft(llrs, frame.num_pad_bits, config)
        assert decision.crc_ok

    def test_soft_beats_hard_at_the_margin(self):
        """At an SNR where hard decisions start failing, soft decisions
        should recover at least as many frames."""
        config = default_config(order=16, payload_bits=300)
        rng = np.random.default_rng(11)
        from repro.phy import recover_stream

        soft_ok = hard_ok = 0
        trials = 12
        for _ in range(trials):
            payload = rng.integers(0, 2, 300).astype(np.uint8)
            frame = encode_stream(payload, config)
            noise = 0.12
            noisy = frame.grid.reshape(-1) + awgn(frame.symbol_indices.size,
                                                  noise, rng)
            llrs = max_log_llrs(noisy, config.constellation, noise_scale=noise)
            soft = recover_stream_soft(llrs, frame.num_pad_bits, config)
            hard_indices = config.constellation.slice_indices(noisy)
            hard = recover_stream(hard_indices.reshape(frame.grid.shape),
                                  frame.num_pad_bits, config)
            soft_ok += int(soft.crc_ok)
            hard_ok += int(hard.crc_ok)
        assert soft_ok >= hard_ok

    def test_rejects_uncoded_config(self):
        config = default_config(order=16, payload_bits=200, coded=False)
        with pytest.raises(ValueError):
            recover_stream_soft(np.zeros(192), 0, config)
