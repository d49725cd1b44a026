"""Tests for the list sphere decoder (soft output) and sorted-QR ordering."""

import numpy as np
import pytest

from repro.channel import awgn, noise_variance_for_snr, rayleigh_channel
from repro.constellation import qam
from repro.sphere import (
    ListSphereDecoder,
    SphereDecoder,
    geosphere_decoder,
)
from repro.sphere.qr import sorted_triangularize


def instance(order, num_tx, num_rx, snr_db, seed):
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    channel = rayleigh_channel(num_rx, num_tx, rng)
    sent = rng.integers(0, order, size=num_tx)
    noise_variance = noise_variance_for_snr(channel, snr_db)
    y = channel @ constellation.points[sent] + awgn(num_rx, noise_variance, rng)
    return constellation, channel, y, sent, noise_variance


class TestSortedQr:
    def test_reconstructs_permuted_channel(self):
        channel = rayleigh_channel(4, 3, rng=0)
        q, r, perm = sorted_triangularize(channel)
        assert np.allclose(q @ r, channel[:, perm])

    def test_first_pivot_is_weakest_column(self):
        """SQRD's first pivot (detected last) is the smallest-norm column."""
        channel = rayleigh_channel(4, 4, rng=1)
        _, _, perm = sorted_triangularize(channel)
        norms = np.sum(np.abs(channel) ** 2, axis=0)
        assert perm[0] == int(np.argmin(norms))
        assert sorted(perm.tolist()) == [0, 1, 2, 3]

    def test_ordering_preserves_ml_solution(self):
        constellation = qam(16)
        natural = geosphere_decoder(constellation)
        ordered = SphereDecoder(constellation, column_ordering="norm")
        for seed in range(15):
            _, channel, y, _, _ = instance(16, 4, 4, 14.0, seed)
            a = natural.decode(channel, y)
            b = ordered.decode(channel, y)
            assert (a.symbol_indices == b.symbol_indices).all()
            assert a.distance_sq == pytest.approx(b.distance_sq)

    def test_ordering_reduces_average_complexity(self):
        constellation = qam(16)
        natural = geosphere_decoder(constellation)
        ordered = SphereDecoder(constellation, column_ordering="norm")
        natural_total = ordered_total = 0
        for seed in range(40):
            _, channel, y, _, _ = instance(16, 4, 4, 12.0, seed + 100)
            natural_total += natural.decode(channel, y).counters.ped_calcs
            ordered_total += ordered.decode(channel, y).counters.ped_calcs
        assert ordered_total < natural_total  # SQRD: ~20% fewer on average

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            SphereDecoder(qam(4), column_ordering="magic")


class TestListSphereDecoder:
    def test_best_list_entry_is_ml(self):
        """The hard decision of the list decoder equals exact ML."""
        constellation = qam(16)
        soft = ListSphereDecoder(constellation, list_size=8)
        hard = geosphere_decoder(constellation)
        for seed in range(10):
            _, channel, y, _, noise_variance = instance(16, 3, 3, 12.0, seed)
            soft_result = soft.decode_soft(channel, y, noise_variance)
            hard_result = hard.decode(channel, y)
            assert (soft_result.symbol_indices
                    == hard_result.symbol_indices).all()
            # The inherited hard entry point runs the list search and
            # returns its best member: the same ML decision and distance.
            inherited = soft.decode(channel, y)
            assert (inherited.symbol_indices
                    == hard_result.symbol_indices).all()
            assert inherited.distance_sq == hard_result.distance_sq
            assert inherited.counters == soft_result.counters

    def test_llr_signs_match_ml_bits(self):
        constellation = qam(16)
        soft = ListSphereDecoder(constellation, list_size=8)
        for seed in range(10):
            _, channel, y, _, noise_variance = instance(16, 3, 3, 15.0, seed)
            result = soft.decode_soft(channel, y, noise_variance)
            ml_bits = constellation.indices_to_bits(result.symbol_indices)
            assert ((result.llrs < 0) == ml_bits.astype(bool)).all()

    def test_full_list_matches_exhaustive_max_log(self):
        """With the list covering every hypothesis, LLRs equal brute-force
        max-log values."""
        constellation = qam(4)
        num_tx = 2
        soft = ListSphereDecoder(constellation, list_size=16, clamp=1e9)
        _, channel, y, _, noise_variance = instance(4, num_tx, 2, 8.0, seed=3)
        result = soft.decode_soft(channel, y, noise_variance)
        assert result.list_size_used == 16

        # Brute force: distances of all hypotheses + per-bit minima.
        grids = np.indices((4,) * num_tx).reshape(num_tx, -1)
        candidates = constellation.points[grids]
        distances = np.sum(np.abs(y[:, None] - channel @ candidates) ** 2,
                           axis=0)
        bits = np.stack([
            constellation.indices_to_bits(grids[:, h])
            for h in range(grids.shape[1])
        ])
        for bit in range(bits.shape[1]):
            zero = distances[bits[:, bit] == 0].min()
            one = distances[bits[:, bit] == 1].min()
            expected = (one - zero) / noise_variance
            assert result.llrs[bit] == pytest.approx(expected, rel=1e-9)

    def test_clamp_applies_to_one_sided_bits(self):
        constellation = qam(64)
        soft = ListSphereDecoder(constellation, list_size=2, clamp=5.0)
        _, channel, y, _, noise_variance = instance(64, 2, 4, 30.0, seed=4)
        result = soft.decode_soft(channel, y, noise_variance)
        assert (np.abs(result.llrs) <= 5.0 + 1e-12).all()

    def test_counters_track_search_cost(self):
        constellation = qam(16)
        soft = ListSphereDecoder(constellation, list_size=4)
        _, channel, y, _, noise_variance = instance(16, 3, 3, 15.0, seed=5)
        result = soft.decode_soft(channel, y, noise_variance)
        assert result.counters.ped_calcs > 0
        assert result.counters.leaves >= result.list_size_used

    def test_larger_list_costs_more(self):
        constellation = qam(16)
        small = ListSphereDecoder(constellation, list_size=2)
        large = ListSphereDecoder(constellation, list_size=32)
        small_total = large_total = 0
        for seed in range(10):
            _, channel, y, _, noise_variance = instance(16, 3, 3, 15.0, seed)
            small_total += small.decode_soft(
                channel, y, noise_variance).counters.ped_calcs
            large_total += large.decode_soft(
                channel, y, noise_variance).counters.ped_calcs
        assert large_total > small_total

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ListSphereDecoder(qam(4), list_size=1)
        with pytest.raises(ValueError):
            ListSphereDecoder(qam(4), clamp=0.0)
        with pytest.raises(ValueError):
            ListSphereDecoder(qam(4), enumerator="magic")
        with pytest.raises(ValueError):
            ListSphereDecoder(qam(4), enumerator="hess")
        with pytest.raises(ValueError):
            ListSphereDecoder(qam(4), node_budget=0)
        soft = ListSphereDecoder(qam(4))
        _, channel, y, _, _ = instance(4, 2, 2, 10.0, seed=6)
        with pytest.raises(ValueError):
            soft.decode_soft(channel, y, noise_variance=0.0)

    def test_enumerators_agree_on_lists_and_llrs(self):
        """Every enumerator walks the same tree, so the retained leaf
        lists — and therefore the LLRs and hard decisions — must be
        identical; only the search-effort counters may differ."""
        constellation = qam(16)
        decoders = {
            "zigzag": ListSphereDecoder(constellation, list_size=8),
            "shabany": ListSphereDecoder(constellation, list_size=8,
                                         geometric_pruning=False,
                                         enumerator="shabany"),
            "hess": ListSphereDecoder(constellation, list_size=8,
                                      geometric_pruning=False,
                                      enumerator="hess"),
            "exhaustive": ListSphereDecoder(constellation, list_size=8,
                                            geometric_pruning=False,
                                            enumerator="exhaustive"),
        }
        for seed in range(6):
            _, channel, y, _, noise_variance = instance(16, 3, 3, 13.0, seed)
            results = {name: decoder.decode_soft(channel, y, noise_variance)
                       for name, decoder in decoders.items()}
            reference = results["zigzag"]
            for name, result in results.items():
                assert np.array_equal(result.llrs, reference.llrs), name
                assert np.array_equal(result.symbol_indices,
                                      reference.symbol_indices), name
                assert result.list_size_used == reference.list_size_used

    def test_node_budget_truncates_search(self):
        constellation = qam(16)
        exact = ListSphereDecoder(constellation, list_size=8)
        budgeted = ListSphereDecoder(constellation, list_size=8,
                                     node_budget=25)
        _, channel, y, _, noise_variance = instance(16, 4, 4, 10.0, seed=9)
        full = exact.decode_soft(channel, y, noise_variance)
        cut = budgeted.decode_soft(channel, y, noise_variance)
        assert cut.counters.visited_nodes <= 25
        assert cut.counters.visited_nodes < full.counters.visited_nodes
        assert cut.list_size_used >= 1
        assert (np.abs(cut.llrs) <= budgeted.clamp).all()


class TestSoftChain:
    def test_lsd_llrs_decode_a_coded_stream(self):
        """End to end: list-sphere LLRs -> deinterleave -> soft Viterbi.

        Single-antenna-per-symbol setup so LLR ordering aligns with the
        transmit chain."""
        from repro.phy import default_config, random_payloads, encode_stream
        from repro.phy.receiver import recover_stream_soft

        config = default_config(order=16, payload_bits=184)
        constellation = config.constellation
        rng = np.random.default_rng(7)
        payload = random_payloads(1, config, rng)[0]
        frame = encode_stream(payload, config)
        channel = rayleigh_channel(2, 1, rng)
        noise_variance = noise_variance_for_snr(channel, 22.0)
        soft = ListSphereDecoder(constellation, list_size=8)
        llr_blocks = []
        for symbol in frame.grid.reshape(-1):
            y = channel @ np.array([symbol]) + awgn(2, noise_variance, rng)
            result = soft.decode_soft(channel, y, noise_variance)
            llr_blocks.append(result.llrs)
        llrs = np.concatenate(llr_blocks)
        decision = recover_stream_soft(llrs, frame.num_pad_bits, config)
        assert decision.crc_ok
        assert (decision.payload_bits == payload).all()
