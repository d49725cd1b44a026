"""Batch detection engine: scalar/batch equivalence and counter parity.

The batch API's contract is *bit-identical* results: ``decode_batch`` must
return exactly the symbols, distances and complexity tallies the scalar
per-vector path produces — equality, not ``allclose``.  These tests sweep
randomized channels across constellations, antenna geometries and every
enumerator to pin that contract down, and cover the cross-detector ML
agreement and the finite-initial-radius ``found=False`` edge case.
"""

import numpy as np
import pytest

from repro.channel import (
    GeometricChannelModel,
    awgn,
    correlated_rayleigh_channel,
    noise_variance_for_snr,
    rayleigh_channel,
)
from repro.constellation import qam
from repro.detect import SphereDetector
from repro.sphere import KBestDecoder, SphereDecoder, triangularize
from repro.sphere.counters import ComplexityCounters
from repro.sphere.decoder import ENUMERATORS

COUNTER_FIELDS = ("ped_calcs", "visited_nodes", "expanded_nodes", "leaves",
                  "geometric_prunes", "complex_mults")

#: (order, num_tx, num_rx, snr_db) — 4/16/64-QAM over 2x2 and 4x4.
CONFIGS = [
    (4, 2, 2, 12.0),
    (4, 4, 4, 14.0),
    (16, 2, 2, 18.0),
    (16, 4, 4, 20.0),
    (64, 2, 2, 24.0),
    (64, 4, 4, 26.0),
]

DRAWS_PER_CONFIG = 9
BATCH_SIZE = 4  # vectors per draw -> 6 * 9 * 4 = 216 draws per sweep


def _triangular_batch(order, num_tx, num_rx, snr_db, rng, size=BATCH_SIZE):
    """One random channel and a ``(size, nc)`` batch of observations,
    already rotated into the triangular domain."""
    constellation = qam(order)
    channel = rayleigh_channel(num_rx, num_tx, rng)
    sent = rng.integers(0, order, size=(size, num_tx))
    noise_variance = noise_variance_for_snr(channel, snr_db)
    received = (constellation.points[sent] @ channel.T
                + awgn((size, num_rx), noise_variance, rng))
    q, r = triangularize(channel)
    return constellation, r, received @ np.conj(q)


def _sum_scalar(decoder, r, y_hat_batch):
    """Per-vector scalar decodes plus their summed counters."""
    totals = ComplexityCounters()
    results = []
    for row in y_hat_batch:
        result = decoder.decode_triangular(r, row)
        totals.merge(result.counters)
        results.append(result)
    return results, totals


def _assert_batch_matches(batch, scalars, totals):
    """A batch result — a one-subcarrier frame — against its rows'
    scalar decodes."""
    assert batch.distances_sq.shape == (len(scalars), 1)
    for t, scalar in enumerate(scalars):
        assert bool(batch.found[t, 0]) == scalar.found
        assert np.array_equal(batch.symbol_indices[t, 0],
                              scalar.symbol_indices)
        # Bit-identical, not allclose: the batch path must run the same
        # floating-point program as the scalar path.
        assert (batch.distances_sq[t, 0] == scalar.distance_sq
                or (np.isinf(batch.distances_sq[t, 0])
                    and np.isinf(scalar.distance_sq)))
    for field in COUNTER_FIELDS:
        assert getattr(batch.counters, field) == getattr(totals, field), field


@pytest.mark.slow
@pytest.mark.parametrize("enumerator", ENUMERATORS)
def test_sphere_decode_batch_is_bit_identical(enumerator):
    """>= 200 seeded draws per enumerator: batch == scalar, exactly."""
    rng = np.random.default_rng(1234)
    pruning = enumerator in ("zigzag", "shabany")
    for order, num_tx, num_rx, snr_db in CONFIGS:
        decoder = SphereDecoder(qam(order), enumerator=enumerator,
                                geometric_pruning=pruning)
        for _ in range(DRAWS_PER_CONFIG):
            _, r, y_hat = _triangular_batch(order, num_tx, num_rx, snr_db, rng)
            batch = decoder.decode_batch(r, y_hat)
            scalars, totals = _sum_scalar(decoder, r, y_hat)
            _assert_batch_matches(batch, scalars, totals)


@pytest.mark.slow
def test_sphere_decode_batch_without_pruning_is_bit_identical():
    """The zigzag-only ablation configuration follows the same contract."""
    rng = np.random.default_rng(99)
    decoder = SphereDecoder(qam(16), enumerator="zigzag",
                            geometric_pruning=False)
    for _ in range(20):
        _, r, y_hat = _triangular_batch(16, 4, 4, 20.0, rng)
        batch = decoder.decode_batch(r, y_hat)
        scalars, totals = _sum_scalar(decoder, r, y_hat)
        _assert_batch_matches(batch, scalars, totals)


@pytest.mark.slow
@pytest.mark.parametrize("k", [1, 2, 5, 16, 40])
def test_kbest_decode_batch_is_bit_identical(k):
    """The fully vectorised K-best path reproduces the scalar lazy-zigzag
    expansion bit for bit, lazy-enumerator counter accounting included."""
    rng = np.random.default_rng(k)
    for order, num_tx, num_rx, snr_db in CONFIGS:
        decoder = KBestDecoder(qam(order), k=k)
        for _ in range(DRAWS_PER_CONFIG):
            _, r, y_hat = _triangular_batch(order, num_tx, num_rx, snr_db, rng)
            batch = decoder.decode_batch(r, y_hat)
            scalars, totals = _sum_scalar(decoder, r, y_hat)
            _assert_batch_matches(batch, scalars, totals)


class TestCrossDetectorAgreement:
    """On well-conditioned random channels every exact decoder must return
    the same maximum-likelihood solution."""

    def _instances(self, order, num_tx, snr_db, count, seed):
        rng = np.random.default_rng(seed)
        produced = 0
        while produced < count:
            channel = rayleigh_channel(4, num_tx, rng)
            # Keep the sweep honest but fast: skip near-singular draws.
            if np.linalg.cond(channel) > 20.0:
                continue
            produced += 1
            yield _triangular_batch_from(channel, order, snr_db, rng)

    def test_all_enumerators_find_the_same_ml_solution(self):
        for order, num_tx, snr_db in [(16, 2, 16.0), (16, 4, 18.0),
                                      (64, 2, 22.0)]:
            for r, y_hat in self._instances(order, num_tx, snr_db, 6, order):
                reference = None
                for enumerator in ENUMERATORS:
                    pruning = enumerator in ("zigzag", "shabany")
                    decoder = SphereDecoder(qam(order), enumerator=enumerator,
                                            geometric_pruning=pruning)
                    batch = decoder.decode_batch(r, y_hat)
                    assert batch.found.all()
                    if reference is None:
                        reference = batch
                    else:
                        assert np.array_equal(batch.symbol_indices,
                                              reference.symbol_indices)
                        assert np.array_equal(batch.distances_sq,
                                              reference.distances_sq)

    def test_full_width_kbest_matches_ml(self):
        """K large enough to keep every candidate is exhaustive search."""
        for order, num_tx, snr_db, k in [(16, 2, 16.0, 256),
                                         (4, 4, 12.0, 256)]:
            for r, y_hat in self._instances(order, num_tx, snr_db, 4,
                                            17 * order):
                ml = SphereDecoder(qam(order)).decode_batch(r, y_hat)
                kbest = KBestDecoder(qam(order), k=k).decode_batch(r, y_hat)
                assert np.array_equal(kbest.symbol_indices, ml.symbol_indices)
                # Same solution; the distance accumulates along a different
                # traversal, so exact equality only holds within a decoder.
                np.testing.assert_allclose(kbest.distances_sq, ml.distances_sq,
                                           rtol=1e-10)

    def test_finite_radius_not_found_edge_case(self):
        """A radius that excludes every leaf must report found=False in
        both the scalar and the batch paths, with matching sentinels."""
        rng = np.random.default_rng(5)
        constellation = qam(16)
        channel = rayleigh_channel(4, 4, rng)
        _, r, y_hat = _triangular_batch(16, 4, 4, 20.0, rng)
        decoder = SphereDecoder(constellation, initial_radius_sq=1e-12)
        batch = decoder.decode_batch(r, y_hat)
        assert not batch.found.any()
        assert (batch.symbol_indices == -1).all()
        assert np.isinf(batch.distances_sq).all()
        scalars, totals = _sum_scalar(decoder, r, y_hat)
        _assert_batch_matches(batch, scalars, totals)

    def test_mixed_found_and_not_found_in_one_batch(self):
        """A radius between two observations' ML distances splits a batch."""
        rng = np.random.default_rng(6)
        constellation = qam(16)
        _, r, y_hat = _triangular_batch(16, 4, 4, 20.0, rng, size=8)
        exact = SphereDecoder(constellation).decode_batch(r, y_hat)
        threshold = float(np.median(exact.distances_sq))
        decoder = SphereDecoder(constellation, initial_radius_sq=threshold)
        batch = decoder.decode_batch(r, y_hat)
        expected_found = exact.distances_sq < threshold
        assert np.array_equal(batch.found, expected_found)
        assert batch.found.any() and not batch.found.all()
        scalars, totals = _sum_scalar(decoder, r, y_hat)
        _assert_batch_matches(batch, scalars, totals)


def _triangular_batch_from(channel, order, snr_db, rng, size=3):
    constellation = qam(order)
    num_tx = channel.shape[1]
    sent = rng.integers(0, order, size=(size, num_tx))
    noise_variance = noise_variance_for_snr(channel, snr_db)
    received = (constellation.points[sent] @ channel.T
                + awgn((size, channel.shape[0]), noise_variance, rng))
    q, r = triangularize(channel)
    return r, received @ np.conj(q)


class TestConditionedChannelEquivalence:
    """Scalar/batch equivalence on the channels that stress the search.

    Kronecker-correlated Rayleigh and small-angular-spread geometric
    draws raise the condition number (the paper's Fig. 2 regimes), which
    lengthens and *skews* the per-vector searches — exactly where the
    frontier engine's scheduling (lockstep ticks plus straggler drain)
    must not leak into results.  The throughput analyses in PAPERS.md
    make the same point: the latency distribution over correlated
    channels, not the i.i.d. mean, is what governs throughput, so the
    equivalence contract is pinned here too, not just on Rayleigh draws.
    """

    def _assert_equivalent(self, channel, order, snr_db, rng, size=6):
        constellation = qam(order)
        sent = rng.integers(0, order, size=(size, channel.shape[1]))
        noise_variance = noise_variance_for_snr(channel, snr_db)
        received = (constellation.points[sent] @ channel.T
                    + awgn((size, channel.shape[0]), noise_variance, rng))
        q, r = triangularize(channel)
        y_hat = received @ np.conj(q)
        decoder = SphereDecoder(constellation)
        scalars, totals = _sum_scalar(decoder, r, y_hat)
        _assert_batch_matches(decoder.decode_batch(r, y_hat), scalars,
                              totals)
        _assert_batch_matches(decoder._decode_batch_loop(r, y_hat), scalars,
                              totals)

    def test_correlated_rayleigh_moderate(self):
        rng = np.random.default_rng(606)
        channel = correlated_rayleigh_channel(4, 4, 0.6, 0.6, rng)
        self._assert_equivalent(channel, 16, 22.0, rng)

    @pytest.mark.slow
    @pytest.mark.parametrize("coefficient", [0.5, 0.8, 0.9])
    def test_correlated_rayleigh_sweep(self, coefficient):
        """Higher correlation -> higher condition number -> longer,
        heavier-tailed searches; equivalence must hold throughout."""
        rng = np.random.default_rng(int(coefficient * 100))
        for order, snr_db in [(4, 16.0), (16, 24.0)]:
            for _ in range(3):
                channel = correlated_rayleigh_channel(
                    4, 4, coefficient, coefficient, rng)
                if np.linalg.cond(channel) > 1e4:
                    continue  # numerically rank deficient for QR
                self._assert_equivalent(channel, order, snr_db, rng)

    @pytest.mark.slow
    def test_geometric_ill_conditioned(self):
        """Clustered-reflector geometric channels (a few degrees of
        angular spread): the paper's poorly-conditioned regime."""
        model = GeometricChannelModel(4, rng=808)
        rng = np.random.default_rng(808)
        checked = 0
        while checked < 4:
            channel = model.sample(4, 3.0)
            condition = np.linalg.cond(channel)
            if condition > 1e4:
                continue  # too singular even for the scalar decoder
            self._assert_equivalent(channel, 16, 26.0, rng, size=5)
            checked += 1

    @pytest.mark.slow
    def test_geometric_well_vs_ill_conditioned_counters(self):
        """Sanity anchor for the Fig. 2 story inside the batch path: the
        ill-conditioned draw costs more PED calculations per detection
        than the well-conditioned one, in both strategies identically."""
        model = GeometricChannelModel(4, rng=31)
        rng = np.random.default_rng(31)
        costs = {}
        for label, spread in (("ill", 2.0), ("well", 40.0)):
            while True:
                channel = model.sample(4, spread)
                if np.linalg.cond(channel) < (1e3 if label == "ill"
                                              else 50.0):
                    break
            constellation = qam(16)
            sent = rng.integers(0, 16, size=(8, 4))
            noise_variance = noise_variance_for_snr(channel, 24.0)
            received = (constellation.points[sent] @ channel.T
                        + awgn((8, 4), noise_variance, rng))
            q, r = triangularize(channel)
            y_hat = received @ np.conj(q)
            decoder = SphereDecoder(constellation)
            reference = decoder._decode_batch_loop(r, y_hat)
            batch = decoder.decode_batch(r, y_hat)
            assert batch.counters.ped_calcs == reference.counters.ped_calcs
            costs[label] = batch.counters.ped_calcs
        assert costs["ill"] > costs["well"]

    def test_correlated_kbest_batch_equivalence(self):
        """The vectorised K-best path honours the same contract on
        correlated channels."""
        rng = np.random.default_rng(17)
        channel = correlated_rayleigh_channel(4, 4, 0.7, 0.7, rng)
        constellation = qam(16)
        sent = rng.integers(0, 16, size=(6, 4))
        noise_variance = noise_variance_for_snr(channel, 22.0)
        received = (constellation.points[sent] @ channel.T
                    + awgn((6, 4), noise_variance, rng))
        q, r = triangularize(channel)
        y_hat = received @ np.conj(q)
        decoder = KBestDecoder(constellation, k=8)
        batch = decoder.decode_batch(r, y_hat)
        scalars, totals = _sum_scalar(decoder, r, y_hat)
        _assert_batch_matches(batch, scalars, totals)


class TestAdapterCounterAccounting:
    """`detect_frame` counters must equal the sum of per-vector scalar
    counters — the tallies behind the paper's Figs. 14-15."""

    @pytest.mark.parametrize("make", [
        lambda c: SphereDecoder(c),
        lambda c: KBestDecoder(c, k=8),
    ], ids=["sphere", "kbest"])
    def test_block_counters_equal_scalar_sum(self, make):
        rng = np.random.default_rng(21)
        constellation = qam(16)
        channel = rayleigh_channel(4, 4, rng)
        block = (rng.standard_normal((12, 4))
                 + 1j * rng.standard_normal((12, 4)))
        decoder = make(constellation)
        adapter = SphereDetector(decoder)
        result = adapter.detect_frame(channel[None], block[:, None, :], 0.1)

        q, r = triangularize(channel)
        y_hat = block @ np.conj(q)
        _, totals = _sum_scalar(decoder, r, y_hat)
        for field in COUNTER_FIELDS:
            assert getattr(result.counters, field) == getattr(totals, field)
        assert result.detections == 12
        # Footnote-5 cost model: each PED calc costs nc + 1 complex mults.
        assert (result.counters.complex_mults
                == result.counters.ped_calcs * (channel.shape[1] + 1))

    def test_empty_batch_is_a_no_op(self):
        """T=0 blocks (e.g. a frame with no data symbols) must not crash
        and must report zero work."""
        rng = np.random.default_rng(40)
        channel = rayleigh_channel(4, 4, rng)
        q, r = triangularize(channel)
        empty = np.zeros((0, 4), dtype=np.complex128)
        for decoder in (SphereDecoder(qam(16)), KBestDecoder(qam(16), k=4)):
            batch = decoder.decode_batch(r, empty)
            assert batch.symbol_indices.shape == (0, 1, 4)
            assert batch.found.shape == (0, 1)
            assert batch.counters.ped_calcs == 0
            assert batch.counters.visited_nodes == 0

    def test_kbest_adapter_name_and_detect(self):
        adapter = SphereDetector(KBestDecoder(qam(16), k=5))
        assert adapter.name == "k-best[5]"
        rng = np.random.default_rng(33)
        channel = rayleigh_channel(4, 2, rng)
        block = (rng.standard_normal((4, 4))
                 + 1j * rng.standard_normal((4, 4)))
        frame = adapter.detect_frame(channel[None], block[:, None, :], 0.1)
        for t in range(4):
            single = adapter.detect(channel, block[t], 0.1)
            assert np.array_equal(frame.symbol_indices[t, 0],
                                  single.symbol_indices)
