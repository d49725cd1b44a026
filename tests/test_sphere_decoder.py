"""Tests for the depth-first sphere decoder engine.

The central properties: every enumerator configuration returns the exact
maximum-likelihood solution, all of them traverse the identical tree
(the paper's Fig. 15 note), and geometric pruning only ever removes
computation — never correctness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import awgn, noise_variance_for_snr, rayleigh_channel
from repro.constellation import qam
from repro.detect import ExhaustiveMLDetector
from repro.sphere import (
    KBestDecoder,
    ListSphereDecoder,
    SphereDecoder,
    eth_sd_decoder,
    exhaustive_se_decoder,
    geosphere_decoder,
    geosphere_zigzag_only,
    shabany_decoder,
    triangularize,
)

ALL_FACTORIES = [
    geosphere_decoder,
    geosphere_zigzag_only,
    eth_sd_decoder,
    shabany_decoder,
    exhaustive_se_decoder,
]

# (order, streams) pairs small enough for brute-force ML verification.
VERIFIABLE_CASES = [(4, 2), (4, 3), (4, 4), (16, 2), (16, 3), (64, 2)]


def random_instance(order, num_tx, num_rx, snr_db, seed):
    """One random MIMO transmission: returns (H, y, sent_indices, N0)."""
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    channel = rayleigh_channel(num_rx, num_tx, rng)
    sent = rng.integers(0, order, size=num_tx)
    x = constellation.points[sent]
    noise_variance = noise_variance_for_snr(channel, snr_db)
    y = channel @ x + awgn(num_rx, noise_variance, rng)
    return channel, y, sent, noise_variance


class TestMaximumLikelihoodEquivalence:
    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    @pytest.mark.parametrize("order,num_tx", VERIFIABLE_CASES)
    def test_matches_exhaustive_ml(self, factory, order, num_tx):
        constellation = qam(order)
        reference = ExhaustiveMLDetector(constellation)
        decoder = factory(constellation)
        for seed in range(8):
            channel, y, _, _ = random_instance(order, num_tx, num_tx, 12.0, seed)
            expected = reference.detect(channel, y)
            result = decoder.decode(channel, y)
            assert result.found
            assert (result.symbol_indices == expected.symbol_indices).all()

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_more_rx_than_tx(self, factory):
        constellation = qam(16)
        reference = ExhaustiveMLDetector(constellation)
        decoder = factory(constellation)
        for seed in range(5):
            channel, y, _, _ = random_instance(16, 2, 4, 15.0, seed)
            expected = reference.detect(channel, y)
            result = decoder.decode(channel, y)
            assert (result.symbol_indices == expected.symbol_indices).all()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           snr_db=st.floats(min_value=-5.0, max_value=35.0),
           case=st.sampled_from(VERIFIABLE_CASES))
    def test_ml_property_across_snr(self, seed, snr_db, case):
        """Geosphere returns the ML solution at any SNR, including regimes
        where the first greedy leaf is wrong."""
        order, num_tx = case
        constellation = qam(order)
        channel, y, _, _ = random_instance(order, num_tx, num_tx, snr_db, seed)
        expected = ExhaustiveMLDetector(constellation).detect(channel, y)
        result = geosphere_decoder(constellation).decode(channel, y)
        assert (result.symbol_indices == expected.symbol_indices).all()

    def test_noiseless_decodes_exactly(self):
        constellation = qam(64)
        rng = np.random.default_rng(7)
        channel = rayleigh_channel(4, 4, rng)
        sent = rng.integers(0, 64, size=4)
        y = channel @ constellation.points[sent]
        result = geosphere_decoder(constellation).decode(channel, y)
        assert (result.symbol_indices == sent).all()
        assert result.distance_sq == pytest.approx(0.0, abs=1e-18)


class TestReportedDistance:
    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_distance_matches_triangular_residual(self, factory):
        constellation = qam(16)
        channel, y, _, _ = random_instance(16, 3, 3, 10.0, seed=3)
        result = factory(constellation).decode(channel, y)
        q, r = triangularize(channel)
        residual = q.conj().T @ y - r @ result.symbols
        assert result.distance_sq == pytest.approx(float(np.sum(np.abs(residual) ** 2)))

    def test_distance_consistent_with_full_residual(self):
        """||y - Hs||^2 = ||y^ - Rs||^2 + const(y); the constant is the
        energy outside the column space and vanishes when na == nc."""
        constellation = qam(16)
        channel, y, _, _ = random_instance(16, 3, 3, 10.0, seed=4)
        result = geosphere_decoder(constellation).decode(channel, y)
        direct = float(np.sum(np.abs(y - channel @ result.symbols) ** 2))
        assert result.distance_sq == pytest.approx(direct)


class TestTraversalParity:
    """Fig. 15 caption: 'each of the above sphere decoders visit the same
    number of nodes'."""

    @pytest.mark.parametrize("order,num_tx", [(16, 4), (64, 3), (256, 2)])
    def test_visited_nodes_identical_across_enumerators(self, order, num_tx):
        constellation = qam(order)
        decoders = [factory(constellation) for factory in ALL_FACTORIES]
        for seed in range(6):
            channel, y, _, _ = random_instance(order, num_tx, 4, 18.0, seed)
            visited = [d.decode(channel, y).counters.visited_nodes for d in decoders]
            assert len(set(visited)) == 1, f"visited nodes diverge: {visited}"

    def test_leaf_counts_identical(self):
        constellation = qam(16)
        decoders = [factory(constellation) for factory in ALL_FACTORIES]
        for seed in range(6):
            channel, y, _, _ = random_instance(16, 4, 4, 10.0, seed)
            leaves = [d.decode(channel, y).counters.leaves for d in decoders]
            assert len(set(leaves)) == 1


class TestComplexityAccounting:
    def test_pruning_never_increases_ped_calcs(self):
        constellation = qam(64)
        full = geosphere_decoder(constellation)
        plain = geosphere_zigzag_only(constellation)
        for seed in range(10):
            channel, y, _, _ = random_instance(64, 4, 4, 20.0, seed)
            with_pruning = full.decode(channel, y).counters
            without = plain.decode(channel, y).counters
            assert with_pruning.ped_calcs <= without.ped_calcs
            assert (with_pruning.ped_calcs + with_pruning.geometric_prunes
                    >= without.ped_calcs * 0 + with_pruning.ped_calcs)

    def test_geosphere_beats_eth_sd_on_dense_constellations(self):
        """The Fig. 15 headline: at 256-QAM the ETH-SD up-front row scan
        dominates and Geosphere computes far fewer distances."""
        constellation = qam(256)
        geo = geosphere_decoder(constellation)
        eth = eth_sd_decoder(constellation)
        geo_total, eth_total = 0, 0
        for seed in range(10):
            channel, y, _, _ = random_instance(256, 2, 4, 30.0, seed)
            geo_total += geo.decode(channel, y).counters.ped_calcs
            eth_total += eth.decode(channel, y).counters.ped_calcs
        assert geo_total < 0.5 * eth_total

    def test_counters_have_sane_minimums(self):
        constellation = qam(16)
        channel, y, _, _ = random_instance(16, 4, 4, 25.0, seed=0)
        counters = geosphere_decoder(constellation).decode(channel, y).counters
        assert counters.leaves >= 1
        assert counters.visited_nodes >= 4      # at least one root-to-leaf path
        assert counters.expanded_nodes >= 4
        assert counters.ped_calcs >= 4
        assert counters.complex_mults == counters.ped_calcs * 5

    def test_merge_and_copy(self):
        constellation = qam(16)
        channel, y, _, _ = random_instance(16, 2, 2, 15.0, seed=1)
        first = geosphere_decoder(constellation).decode(channel, y).counters
        snapshot = first.copy()
        second = geosphere_decoder(constellation).decode(channel, y).counters
        first.merge(second)
        assert first.ped_calcs == snapshot.ped_calcs + second.ped_calcs
        assert snapshot.ped_calcs != first.ped_calcs


class TestEdgeCases:
    def test_single_stream(self):
        constellation = qam(16)
        channel, y, sent, _ = random_instance(16, 1, 2, 25.0, seed=2)
        result = geosphere_decoder(constellation).decode(channel, y)
        assert (result.symbol_indices == sent).all()

    def test_finite_radius_can_exclude_everything(self):
        constellation = qam(4)
        decoder = SphereDecoder(constellation, initial_radius_sq=1e-12)
        channel, y, _, _ = random_instance(4, 2, 2, 5.0, seed=3)
        result = decoder.decode(channel, y)
        assert not result.found
        assert not np.isfinite(result.distance_sq)

    def test_rank_deficient_channel_raises(self):
        constellation = qam(4)
        channel = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="rank deficient"):
            geosphere_decoder(constellation).decode(channel, np.array([1.0, 1.0 + 0j]))

    def test_wide_channel_raises(self):
        constellation = qam(4)
        channel = rayleigh_channel(2, 4, rng=0)
        with pytest.raises(ValueError):
            geosphere_decoder(constellation).decode(channel, np.zeros(2, dtype=complex))

    def test_mismatched_observation_raises(self):
        constellation = qam(4)
        channel = rayleigh_channel(4, 2, rng=0)
        with pytest.raises(ValueError):
            geosphere_decoder(constellation).decode(channel, np.zeros(3, dtype=complex))

    def test_unknown_enumerator_rejected(self):
        with pytest.raises(ValueError):
            SphereDecoder(qam(4), enumerator="magic")

    def test_pruning_rejected_for_hess(self):
        with pytest.raises(ValueError):
            SphereDecoder(qam(4), enumerator="hess", geometric_pruning=True)

    def test_budget_below_stream_count_finds_nothing(self):
        """A hard search stopped before its first leaf reports
        ``found=False`` too, not only a finite initial radius."""
        channel, y, _, _ = random_instance(16, 4, 4, 20.0, seed=4)
        result = SphereDecoder(qam(16), node_budget=3).decode(channel, y)
        assert not result.found and result.counters.leaves == 0
        assert (result.symbol_indices == -1).all()

    @pytest.mark.parametrize("kind", ["hard", "list", "kbest"])
    @pytest.mark.parametrize("bad", ["zero_diagonal", "short_y_hat",
                                     "long_y_hat", "nan_y_hat", "nan_r"])
    def test_scalar_entry_points_refuse_what_decode_batch_refuses(
            self, kind, bad):
        """``decode_triangular`` / ``decode_soft_triangular`` raise
        ``ValueError`` on every input the engine's front door refuses,
        instead of an ``IndexError``, a made-up result or silently
        dropped entries — the K-best decoder's included."""
        soft = kind == "list"
        decoder = {"hard": lambda: SphereDecoder(qam(16)),
                   "list": lambda: ListSphereDecoder(qam(16), list_size=4),
                   "kbest": lambda: KBestDecoder(qam(16), k=4)}[kind]()
        channel, y, _, _ = random_instance(16, 4, 4, 20.0, seed=5)
        q, r = triangularize(channel)
        y_hat = q.conj().T @ y
        if bad == "zero_diagonal":
            r[2, 2] = 0.0
        elif bad == "short_y_hat":
            y_hat = y_hat[:3]
        elif bad == "long_y_hat":
            y_hat = np.append(y_hat, 0.5)
        elif bad == "nan_y_hat":
            y_hat[1] = np.nan
        else:
            r[0, 3] = np.nan
        noise = (0.1,) if soft else ()
        scalar = (decoder.decode_soft_triangular if soft
                  else decoder.decode_triangular)
        with pytest.raises(ValueError):
            scalar(r, y_hat, *noise)
        with pytest.raises(ValueError):
            decoder.decode_batch(r, y_hat[None], *noise)


class TestQrTriangularisation:
    def test_reconstruction(self):
        channel = rayleigh_channel(4, 3, rng=5)
        q, r = triangularize(channel)
        assert np.allclose(q @ r, channel)

    def test_diagonal_real_positive(self):
        for seed in range(5):
            q, r = triangularize(rayleigh_channel(4, 4, rng=seed))
            diagonal = np.diag(r)
            assert np.allclose(diagonal.imag, 0.0)
            assert (diagonal.real > 0).all()

    def test_q_columns_orthonormal(self):
        q, r = triangularize(rayleigh_channel(6, 3, rng=6))
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)

    def test_strictly_upper_triangular_below_diagonal(self):
        _, r = triangularize(rayleigh_channel(4, 4, rng=7))
        assert np.allclose(np.tril(r, k=-1), 0.0)
