"""Tests for the linear, SIC and exhaustive-ML detectors."""

import numpy as np
import pytest

from repro.channel import awgn, noise_variance_for_snr, rayleigh_channel
from repro.constellation import qam
from repro.detect import (
    ExhaustiveMLDetector,
    MmseDetector,
    MmseSicDetector,
    SphereDetector,
    ZeroForcingDetector,
    mmse_equalize,
    zf_equalize,
)
from repro.phy.receiver import detect_uplink
from repro.sphere import FixedComplexityDecoder, KBestDecoder, geosphere_decoder


def transmission(order, num_tx, num_rx, snr_db, seed):
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    channel = rayleigh_channel(num_rx, num_tx, rng)
    sent = rng.integers(0, order, size=num_tx)
    noise_variance = noise_variance_for_snr(channel, snr_db)
    y = channel @ constellation.points[sent] + awgn(num_rx, noise_variance, rng)
    return constellation, channel, y, sent, noise_variance


ALL_DETECTORS = ["zf", "mmse", "sic", "ml", "sphere"]


def build(kind, constellation):
    if kind == "zf":
        return ZeroForcingDetector(constellation)
    if kind == "mmse":
        return MmseDetector(constellation)
    if kind == "sic":
        return MmseSicDetector(constellation)
    if kind == "ml":
        return ExhaustiveMLDetector(constellation)
    return SphereDetector(geosphere_decoder(constellation))


@pytest.mark.parametrize("kind", ALL_DETECTORS)
class TestCommonBehaviour:
    def test_noiseless_detection_is_exact(self, kind):
        constellation, channel, _, sent, _ = transmission(16, 3, 4, 20.0, seed=0)
        y = channel @ constellation.points[sent]
        result = build(kind, constellation).detect(channel, y, noise_variance=1e-9)
        assert (result.symbol_indices == sent).all()

    def test_high_snr_detection_is_exact(self, kind):
        constellation, channel, y, sent, noise_variance = transmission(
            16, 2, 4, 40.0, seed=1)
        result = build(kind, constellation).detect(channel, y, noise_variance)
        assert (result.symbol_indices == sent).all()

    def test_result_shapes(self, kind):
        constellation, channel, y, _, noise_variance = transmission(4, 3, 4, 15.0, seed=2)
        result = build(kind, constellation).detect(channel, y, noise_variance)
        assert result.symbols.shape == (3,)
        assert result.symbol_indices.shape == (3,)

    def test_has_name(self, kind):
        detector = build(kind, qam(4))
        assert isinstance(detector.name, str) and detector.name


class TestEqualizers:
    def test_zf_inverts_channel_exactly_without_noise(self):
        constellation, channel, _, sent, _ = transmission(64, 4, 4, 0.0, seed=3)
        x = constellation.points[sent]
        estimates = zf_equalize(channel, channel @ x)
        assert np.allclose(estimates, x)

    def test_zf_rejects_wide_channel(self):
        with pytest.raises(ValueError):
            zf_equalize(rayleigh_channel(2, 4, rng=0), np.zeros(2, dtype=complex))

    def test_mmse_approaches_zf_at_high_snr(self):
        channel = rayleigh_channel(4, 3, rng=4)
        y = np.ones(4, dtype=complex)
        zf = zf_equalize(channel, y)
        mmse = mmse_equalize(channel, y, noise_variance=1e-10)
        assert np.allclose(zf, mmse, atol=1e-6)

    def test_mmse_shrinks_toward_zero_at_low_snr(self):
        channel = rayleigh_channel(4, 3, rng=5)
        y = np.ones(4, dtype=complex)
        estimates = mmse_equalize(channel, y, noise_variance=1e6)
        assert np.linalg.norm(estimates) < 1e-3

    def test_mmse_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            mmse_equalize(rayleigh_channel(2, 2, rng=0), np.zeros(2, dtype=complex), -1.0)


class TestErrorRateOrdering:
    """On poorly-conditioned channels: ML < SIC <= MMSE <= ZF in errors.

    This is the paper's Fig. 13 mechanism at symbol level."""

    def _error_counts(self, snr_db=14.0, trials=300):
        rng = np.random.default_rng(42)
        constellation = qam(16)
        detectors = {
            "zf": ZeroForcingDetector(constellation),
            "mmse": MmseDetector(constellation),
            "sic": MmseSicDetector(constellation),
            "ml": SphereDetector(geosphere_decoder(constellation)),
        }
        errors = {name: 0 for name in detectors}
        for _ in range(trials):
            channel = rayleigh_channel(4, 4, rng)
            sent = rng.integers(0, 16, size=4)
            noise_variance = noise_variance_for_snr(channel, snr_db)
            y = (channel @ constellation.points[sent]
                 + awgn(4, noise_variance, rng))
            for name, detector in detectors.items():
                result = detector.detect(channel, y, noise_variance)
                errors[name] += int((result.symbol_indices != sent).sum())
        return errors

    def test_ml_beats_linear_detectors(self):
        errors = self._error_counts()
        assert errors["ml"] < errors["zf"]
        assert errors["ml"] < errors["mmse"]
        assert errors["ml"] <= errors["sic"]

    def test_sic_beats_plain_zf(self):
        errors = self._error_counts()
        assert errors["sic"] < errors["zf"]


class TestExhaustiveMl:
    def test_hypothesis_guard(self):
        with pytest.raises(ValueError):
            ExhaustiveMLDetector(qam(256), max_hypotheses=1000).detect(
                rayleigh_channel(2, 2, rng=0), np.zeros(2, dtype=complex), 0.0)

    def test_distance_of_matches_detection(self):
        constellation, channel, y, _, _ = transmission(16, 2, 2, 10.0, seed=6)
        detector = ExhaustiveMLDetector(constellation)
        result = detector.detect(channel, y)
        best = detector.distance_of(channel, y, result.symbol_indices)
        worse = detector.distance_of(channel, y, (result.symbol_indices + 1) % 16)
        assert best < worse


class TestMmseSicDetails:
    def test_cancellation_order_is_by_column_energy(self):
        """The strongest column should be detected first; verify by making
        one column overwhelming and checking its decision is unaffected by
        errors elsewhere."""
        constellation = qam(4)
        rng = np.random.default_rng(8)
        channel = rayleigh_channel(4, 2, rng)
        channel[:, 0] *= 10.0  # stream 0 is far stronger
        sent = np.array([2, 1])
        noise_variance = 0.05
        y = channel @ constellation.points[sent] + awgn(4, noise_variance, rng)
        result = MmseSicDetector(constellation).detect(channel, y, noise_variance)
        assert result.symbol_indices[0] == sent[0]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            MmseSicDetector(qam(4)).detect(
                rayleigh_channel(4, 2, rng=0), np.zeros(3, dtype=complex), 0.1)


class TestSphereDetector:
    def test_rejects_a_decoder_without_a_frame_entry_point(self):
        """Refused at construction, naming the decoder, not at the
        first frame."""
        with pytest.raises(ValueError, match="FixedComplexityDecoder"):
            SphereDetector(FixedComplexityDecoder(qam(16), full_levels=1))


@pytest.mark.parametrize("kind", ["zf", "mmse", "sic", "kbest"])
def test_detect_uplink_refuses_a_non_finite_frame(kind):
    """A NaN in ``received`` is refused with ``ValueError`` before any
    detector reads the frame, as the runtime's front door refuses it."""
    constellation = qam(16)
    detector = (SphereDetector(KBestDecoder(constellation, k=4))
                if kind == "kbest" else build(kind, constellation))
    channels = np.stack([rayleigh_channel(4, 4, rng=seed)
                         for seed in range(2)])
    received = np.ones((3, 2, 4), dtype=complex)
    received[1, 0, 2] = np.nan
    with pytest.raises(ValueError, match="received must be finite"):
        detect_uplink(channels, received, detector, 0.1)
