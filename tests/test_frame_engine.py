"""Frame-level detection: preprocessing, ``decode_frame`` and the receive
chain's frame dispatch.

The frame contract is the strongest in the repository: for every
detector, decoding a whole frame in one call — stacked QR,
cross-subcarrier frontier, lane refill, straggler drain — must return
*bit-identical* symbol decisions, distances / LLRs and aggregated
complexity counters to the scalar per-vector decoders.  These tests
enforce that contract from the preprocessing up: stacked LAPACK sweeps
against per-matrix calls, ``decode_frame`` (hard and soft) against the
scalar oracle across enumerators / radii / node budgets / list sizes,
correlated-channel and heterogeneous-SNR frames that exercise the lane
refill, and every detector's whole-frame ``detect_frame`` against the
same call one subcarrier at a time, across the detector zoo.  The engine's knob matrix itself is swept in
``tests/test_engine.py``, whose oracle, comparators and frontier drivers
are reused here.
"""

import numpy as np
import pytest

from repro.constellation import qam
from repro.detect import (
    MmseDetector,
    MmseSicDetector,
    SphereDetector,
    ZeroForcingDetector,
)
from repro.frame import (
    FrameDetectionResult,
    mmse_frame_filters,
    rotate_frame,
    triangular_frame,
    triangularize_frame,
    zf_frame_filters,
)
from repro.ofdm import estimate_and_triangularize, training_grid
from repro.phy.receiver import detect_uplink
from repro.runtime import FrameJob, FrameRequest
from repro.runtime.engine import DRAIN_THRESHOLD_CAP, StreamingFrontier
from repro.sphere import (
    KBestDecoder,
    ListSphereDecoder,
    SphereDecoder,
    triangularize,
)
from repro.sphere.qr import rotate, triangular_system
from repro.sphere.counters import ComplexityCounters

from test_engine import (
    _fifo_refills,
    _frame_instance,
    assert_batch_identical,
    assert_frames_identical,
    decode_on_frontier,
    drain_sizes,
    in_lane_elements,
    needs_core,
    pinned_frontier,
    scalar_oracle,
    ticking,
)


# ----------------------------------------------------------------------
# Preprocessing: stacked sweeps vs per-subcarrier numpy.linalg calls
# ----------------------------------------------------------------------

class TestFramePreprocess:
    def setup_method(self):
        _, self.channels, self.received = _frame_instance(16, 4, 4, 12, 6)

    def test_stacked_qr_bit_identical(self):
        q_stack, r_stack = triangularize_frame(self.channels)
        for s in range(self.channels.shape[0]):
            q, r = triangularize(self.channels[s])
            assert np.array_equal(q_stack[s], q)
            assert np.array_equal(r_stack[s], r)

    def test_stacked_rotation_bit_identical(self):
        """Each rotated observation is the oracle's: one subcarrier's
        ``triangular_system`` (its QR, then ``sum_i conj(q[i, k]) y[i]``
        in ascending ``i``)."""
        q_stack, _ = triangularize_frame(self.channels)
        y_hat = rotate_frame(q_stack, self.received)
        _, fused, _, _ = triangular_frame(self.channels, self.received)
        assert np.array_equal(fused, y_hat)
        for s in range(self.channels.shape[0]):
            for t in range(self.received.shape[0]):
                _, expected = triangular_system(self.channels[s],
                                                self.received[t, s])
                assert np.array_equal(y_hat[s, t], expected)

    def test_rank_deficient_subcarrier_rejected(self):
        channels = self.channels.copy()
        channels[3, :, 1] = channels[3, :, 0]
        with pytest.raises(ValueError, match="subcarrier 3"):
            triangularize_frame(channels)

    def test_stacked_zf_filters_match_per_subcarrier(self):
        filters = zf_frame_filters(self.channels)
        for s in range(self.channels.shape[0]):
            assert np.array_equal(filters[s], np.linalg.pinv(self.channels[s]))

    def test_stacked_mmse_filters_match_per_subcarrier(self):
        noise_variance = 0.07
        filters = mmse_frame_filters(self.channels, noise_variance)
        num_tx = self.channels.shape[2]
        for s in range(self.channels.shape[0]):
            matrix = self.channels[s]
            gram = (matrix.conj().T @ matrix
                    + noise_variance * np.eye(num_tx))
            expected = np.linalg.solve(gram, matrix.conj().T)
            assert np.array_equal(filters[s], expected)

    def test_estimation_to_qr_pipeline(self):
        """Time-orthogonal sounding straight into the stacked QR."""
        rng = np.random.default_rng(5)
        from repro.ofdm import WIFI_20MHZ
        training = training_grid(WIFI_20MHZ, rng)
        num_clients, num_rx = 4, 4
        subcarriers = WIFI_20MHZ.num_data_subcarriers
        true = (rng.standard_normal((subcarriers, num_rx, num_clients))
                + 1j * rng.standard_normal(
                    (subcarriers, num_rx, num_clients))) / np.sqrt(2.0)
        grids = np.stack([(true[:, :, c] * training[:, None])
                          for c in range(num_clients)])
        channels, q_stack, r_stack = estimate_and_triangularize(
            grids, training)
        np.testing.assert_allclose(channels, true, atol=1e-12)
        for s in (0, subcarriers // 2, subcarriers - 1):
            q, r = triangularize(channels[s])
            assert np.array_equal(q_stack[s], q)
            assert np.array_equal(r_stack[s], r)


# ----------------------------------------------------------------------
# Lane scheduling
# ----------------------------------------------------------------------

class TestSlotScheduler:
    """Which kernel lanes a frame's searches get: the pool's free-lane
    stack plus the frame-ordered admission queue."""

    @needs_core
    def test_admit_release_refill(self):
        constellation, channels, received = _frame_instance(16, 4, 4, 3, 1)
        decoder = SphereDecoder(constellation)
        frontier = pinned_frontier(capacity=3, drain_threshold=0)
        first, second = (FrameJob(index, FrameRequest(
            channels[:size], received[:, :size], decoder))
            for index, size in enumerate([3, 1]))
        frontier.submit(first)
        frontier.tick()
        pool = first.pool
        # Lanes go out 0, 1, 2, in element order (a lane's dest_of is
        # its search's element).
        assert pool.state["dest_of"].tolist() == [0, 1, 2]
        assert pool.state["frame_of"].tolist() == [0, 0, 0]
        # Free every lane (in flight with the core, finished without),
        # then admit one search: a freed lane is the next one handed
        # out — the last one freed.
        frontier.remove(first)
        assert frontier.in_use == 0
        frontier.submit(second)
        frontier.tick()
        assert second.pool is pool and pool.allocated == 3
        assert pool.active.tolist() == [2] and pool.state["dest_of"][2] == 0
        # Through the engine: 7 searches over 3 lanes run in frame order.
        constellation, channels, received = _frame_instance(16, 4, 4, 7, 1)
        job, refills = _fifo_refills(ticking(
            SphereDecoder(constellation), channels, received, capacity=3,
            drain_threshold=0))
        assert refills > 1 and job.remaining == 0

    def test_capacity_clamped_to_problem_count(self):
        """A pool is born with its first frame's searches (at most the
        lane budget) and grows to what admission asks for, never to the
        whole lane budget up front."""
        constellation, channels, received = _frame_instance(16, 4, 4, 2, 2)
        decoder = SphereDecoder(constellation)
        small = FrameJob(0, FrameRequest(channels[:1], received[:1, :1],
                                         decoder))
        frame = FrameJob(1, FrameRequest(channels, received, decoder))
        frontier = StreamingFrontier(capacity=100)
        frontier.submit(small)
        frontier.submit(frame)
        pool = small.pool
        assert frame.pool is pool and pool.allocated == 1
        frontier.tick()
        assert pool.allocated == 5           # the five searches queued
        clamped = FrameJob(0, FrameRequest(channels, received, decoder))
        StreamingFrontier(capacity=3).submit(clamped)
        assert clamped.pool.allocated == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingFrontier(capacity=0)


# ----------------------------------------------------------------------
# decode_frame vs per-subcarrier decode_batch vs the scalar oracle
# ----------------------------------------------------------------------

ENGINE_CONFIGS = [
    ("zigzag", True, float("inf"), None),
    ("zigzag", False, float("inf"), None),
    ("shabany", False, float("inf"), None),
    ("hess", False, float("inf"), None),
    ("exhaustive", False, float("inf"), None),
    ("zigzag", True, 3.0, None),
    ("zigzag", True, float("inf"), 30),
    ("shabany", False, 4.0, 60),
]


def _subcarrier_batch(decoder, channel, block, *extra):
    """One subcarrier decoded alone: ``triangularize`` its channel, then
    one ``decode_batch`` of its ``(T, na)`` block rotated by the oracle."""
    q, r = triangularize(channel)
    return decoder.decode_batch(r, rotate(q, block), *extra)


class TestFrameEngineEquivalence:
    @pytest.mark.parametrize("enumerator,pruning,radius,budget",
                             ENGINE_CONFIGS)
    def test_frame_matches_per_subcarrier_and_scalar(self, enumerator,
                                                     pruning, radius, budget):
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=10, num_symbols=7, seed=21)
        decoder = SphereDecoder(constellation, enumerator=enumerator,
                                geometric_pruning=pruning,
                                initial_radius_sq=radius, node_budget=budget)
        want, per_subcarrier = scalar_oracle(decoder, channels, received)
        assert_frames_identical(decoder.decode_frame(channels, received),
                                want)
        for s in range(channels.shape[0]):
            assert_batch_identical(
                _subcarrier_batch(decoder, channels[s], received[:, s, :]),
                want, s, per_subcarrier[s])

    @pytest.mark.parametrize("capacity,drain_threshold", [
        (1, None),     # fully serialised lanes — maximal refill traffic
        (5, 0),        # refill, never drain
        (13, 4),       # refill + drain
        (None, None),  # defaults: whole frame in lockstep
    ])
    def test_capacity_and_drain_do_not_change_results(self, capacity,
                                                      drain_threshold):
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=9, num_symbols=6, seed=3)
        decoder = SphereDecoder(constellation)
        want, _ = scalar_oracle(decoder, channels, received)
        got = decode_on_frontier(decoder, channels, received,
                                 capacity=capacity,
                                 drain_threshold=drain_threshold)
        assert_frames_identical(got, want)

    @needs_core
    def test_node_budget_with_lane_refill(self):
        """Budget-stopped searches release their lanes mid-frame; the
        queue hands those lanes to waiting searches.  The reused kernel
        slots must be fully re-initialised — any stale state would show
        up against the scalar oracle."""
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=10, num_symbols=6, seed=61,
            noise_scale=0.35)        # low SNR: budgets actually trip
        decoder = SphereDecoder(constellation, node_budget=20)
        want, _ = scalar_oracle(decoder, channels, received)
        for capacity in (4, 11):
            job, refills = _fifo_refills(ticking(
                decoder, channels, received, capacity=capacity))
            assert_frames_identical(job.finalise(), want)
            assert refills > 1, \
                "capacity below the problem count must trigger refills"

    def test_correlated_channel_packing(self):
        """Similar per-subcarrier R matrices (the correlated-channel
        scenario of the frame frontier's motivation): all subcarriers
        are small perturbations of one base channel, so searches finish
        at similar depths and the lanes pack tightly — results must
        still be exactly the scalar ones."""
        rng = np.random.default_rng(17)
        base = (rng.standard_normal((4, 4))
                + 1j * rng.standard_normal((4, 4))) / np.sqrt(2.0)

        def channel_fn(s, gen):
            wobble = (gen.standard_normal((4, 4))
                      + 1j * gen.standard_normal((4, 4)))
            return base + 0.05 * wobble

        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=16, num_symbols=8, seed=29,
            channel_fn=channel_fn)
        decoder = SphereDecoder(constellation)
        got = decode_on_frontier(decoder, channels, received, capacity=32)
        assert_frames_identical(got, scalar_oracle(decoder, channels,
                                                   received)[0])

    @needs_core
    def test_heterogeneous_snr_straggler_refill(self):
        """A few noisy subcarriers produce heavy-tailed searches; with a
        small lane budget freed lanes keep refilling (many admit
        batches) and the drain fires exactly once, at the frame tail —
        all without changing a single bit of the result."""
        num_subcarriers, num_symbols = 12, 6
        noise_per_subcarrier = np.ones(num_subcarriers)
        noise_per_subcarrier[::4] = 4.0     # every 4th subcarrier is bad
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers, num_symbols, seed=41,
            noise_per_subcarrier=noise_per_subcarrier)
        decoder = SphereDecoder(constellation)
        _check_refill_and_single_drain(decoder, channels, received, None)

    @needs_core
    def test_leaf_events_tighten_radius_monotonically(self):
        """Schnorr–Euchner invariant, across packed subcarriers and lane
        reuse: every search's radius only ever shrinks."""
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=8, num_symbols=6, seed=13)
        decoder = SphereDecoder(constellation)
        last: dict[int, float] = {}
        tightenings = 0
        for _, pool in ticking(decoder, channels, received, capacity=16,
                               drain_threshold=0):
            lanes = pool.active
            for element, radius in zip(in_lane_elements(pool).tolist(),
                                       pool.state["radius"][lanes].tolist()):
                previous = last.get(element, float("inf"))
                assert radius <= previous
                tightenings += radius < previous
                last[element] = radius
        assert len(last) == 48 and tightenings > 48

    def test_empty_frame(self):
        constellation = qam(16)
        decoder = SphereDecoder(constellation)
        result = decoder.decode_frame(
            np.zeros((0, 4, 4), dtype=np.complex128),
            np.zeros((5, 0, 4), dtype=np.complex128))
        assert result.symbol_indices.shape == (5, 0, 4)
        assert result.counters == ComplexityCounters()

    def test_decode_frame_tiny_frame_fallback(self):
        """Two searches: nothing to keep in lockstep, so the private
        frontier hands the frame straight to the tail."""
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=2, num_symbols=1, seed=7)
        decoder = SphereDecoder(constellation)
        result = decoder.decode_frame(channels, received)
        assert_frames_identical(result, scalar_oracle(decoder, channels,
                                                      received)[0])
        for s in range(2):
            block = _subcarrier_batch(decoder, channels[s], received[:, s, :])
            assert np.array_equal(result.symbol_indices[:, s:s + 1],
                                  block.symbol_indices)

    @pytest.mark.slow
    def test_dense_constellation_sweep(self):
        """64-QAM exercises wider kernels through the packed frontier."""
        constellation, channels, received = _frame_instance(
            64, 4, 4, num_subcarriers=8, num_symbols=5, noise_scale=0.08,
            seed=47)
        for enumerator, pruning in [("zigzag", True), ("hess", False)]:
            decoder = SphereDecoder(constellation, enumerator=enumerator,
                                    geometric_pruning=pruning)
            got = decode_on_frontier(decoder, channels, received,
                                     capacity=16)
            assert_frames_identical(got, scalar_oracle(decoder, channels,
                                                       received)[0])


def _check_refill_and_single_drain(decoder, channels, received,
                                   noise_variance):
    """capacity 8 / drain 3 over a heavy-tailed frame: FIFO refills, one
    tail hand-off of at most three survivors, scalar-exact results."""
    with drain_sizes() as drains:
        job, refills = _fifo_refills(ticking(
            decoder, channels, received, noise_variance, capacity=8,
            drain_threshold=3))
    assert refills >= 1, "small lane budget must trigger refills"
    assert len(drains) == 1 and 0 < drains[0] <= 3
    assert_frames_identical(
        job.finalise(),
        scalar_oracle(decoder, channels, received, noise_variance)[0])


# ----------------------------------------------------------------------
# Soft (list) decode_frame vs the scalar list search
# ----------------------------------------------------------------------

SOFT_NOISE_VARIANCE = 0.045

#: (enumerator, pruning, list_size, clamp, node_budget) — every
#: enumerator, list sizes from minimal to covering, a tight clamp and a
#: node budget that actually truncates searches.
SOFT_CONFIGS = [
    ("zigzag", True, 8, 24.0, None),
    ("zigzag", False, 4, 24.0, None),
    ("shabany", False, 6, 24.0, None),
    ("hess", False, 8, 24.0, None),
    ("exhaustive", False, 16, 6.0, None),
    ("zigzag", True, 2, 24.0, None),
    ("zigzag", True, 8, 24.0, 40),
]


class TestSoftFrameEquivalence:
    @pytest.mark.parametrize("enumerator,pruning,list_size,clamp,budget",
                             SOFT_CONFIGS)
    def test_frame_matches_scalar_decode_soft(self, enumerator, pruning,
                                              list_size, clamp, budget):
        """The strongest soft contract: the whole-frame list frontier —
        bounded per-lane leaf lists, worst-member pruning, one drain, one
        frame-wide LLR extraction — returns bit-identical LLRs, list
        membership, hard decisions and counter totals to running the
        scalar list search slot by slot."""
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=8, num_symbols=5, seed=71)
        decoder = ListSphereDecoder(constellation, list_size=list_size,
                                    geometric_pruning=pruning, clamp=clamp,
                                    enumerator=enumerator, node_budget=budget)
        want, _ = scalar_oracle(decoder, channels, received,
                                SOFT_NOISE_VARIANCE)
        assert_frames_identical(
            decoder.decode_frame(channels, received, SOFT_NOISE_VARIANCE),
            want)

    @pytest.mark.parametrize("capacity,drain_threshold", [
        (1, None),     # fully serialised lanes — maximal refill traffic
        (5, 0),        # refill, never drain
        (13, 4),       # refill + drain
        (None, None),  # defaults: whole frame in lockstep
    ])
    def test_capacity_and_drain_do_not_change_results(self, capacity,
                                                      drain_threshold):
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=9, num_symbols=6, seed=73)
        decoder = ListSphereDecoder(constellation, list_size=8)
        want, _ = scalar_oracle(decoder, channels, received,
                                SOFT_NOISE_VARIANCE)
        got = decode_on_frontier(decoder, channels, received,
                                 SOFT_NOISE_VARIANCE, capacity=capacity,
                                 drain_threshold=drain_threshold)
        assert_frames_identical(got, want)

    @needs_core
    def test_heterogeneous_snr_straggler_refill(self):
        """Noisy subcarriers make heavy-tailed list searches; the lane
        refill and the once-per-frame drain must leave every LLR bit
        untouched."""
        num_subcarriers, num_symbols = 10, 5
        noise_per_subcarrier = np.ones(num_subcarriers)
        noise_per_subcarrier[::3] = 3.0
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers, num_symbols, seed=79,
            noise_per_subcarrier=noise_per_subcarrier)
        decoder = ListSphereDecoder(constellation, list_size=8)
        _check_refill_and_single_drain(decoder, channels, received,
                                       SOFT_NOISE_VARIANCE)

    @needs_core
    def test_radius_tightens_to_worst_list_member(self):
        """The list radius policy, read off the ticking pool: a lane's
        sphere stays infinite until its list fills, then equals the
        worst retained leaf — so only leaves at least that good enter."""
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=6, num_symbols=4, seed=83)
        list_size = 4
        decoder = ListSphereDecoder(constellation, list_size=list_size)
        saw_full = False
        for _, pool in ticking(decoder, channels, received,
                               SOFT_NOISE_VARIANCE, drain_threshold=0):
            lanes = pool.active
            state = pool.state
            full = state["list_n"][lanes] == list_size
            assert np.isinf(state["radius"][lanes[~full]]).all()
            assert np.array_equal(state["radius"][lanes[full]],
                                  state["list_d"][lanes[full]].max(axis=1))
            saw_full |= bool(full.any())
        assert saw_full, "lists should fill during the frame"

    def test_decode_batch_matches_loop(self):
        """``decode_batch`` against the scalar list search, row by row."""
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=1, num_symbols=12, seed=89)
        decoder = ListSphereDecoder(constellation, list_size=8)
        want, per_subcarrier = scalar_oracle(decoder, channels, received,
                                             SOFT_NOISE_VARIANCE)
        q, r = triangularize(channels[0])
        y_hat = rotate(q, received[:, 0, :])
        assert_batch_identical(
            decoder.decode_batch(r, y_hat, SOFT_NOISE_VARIANCE), want, 0,
            per_subcarrier[0])

    def test_empty_frame(self):
        constellation = qam(16)
        decoder = ListSphereDecoder(constellation, list_size=8)
        result = decoder.decode_frame(
            np.zeros((0, 4, 4), dtype=np.complex128),
            np.zeros((5, 0, 4), dtype=np.complex128), SOFT_NOISE_VARIANCE)
        assert result.llrs.shape == (5, 0, 16)
        assert result.counters == ComplexityCounters()

    @pytest.mark.slow
    def test_dense_constellation_sweep(self):
        """64-QAM exercises wide kernels and large leaf lists through the
        packed soft frontier."""
        constellation, channels, received = _frame_instance(
            64, 4, 4, num_subcarriers=6, num_symbols=4, noise_scale=0.08,
            seed=97)
        for enumerator, pruning in [("zigzag", True), ("hess", False)]:
            decoder = ListSphereDecoder(constellation, list_size=16,
                                        enumerator=enumerator,
                                        geometric_pruning=pruning)
            got = decode_on_frontier(decoder, channels, received, 0.02,
                                     capacity=16)
            assert_frames_identical(got, scalar_oracle(
                decoder, channels, received, 0.02)[0])


class _ScalarListDecoder(ListSphereDecoder):
    """The scalar list search per slot behind the ``decode_frame``
    surface — the differential baseline for the soft receive chain."""

    def decode_frame(self, channels, received, noise_variance):
        return scalar_oracle(self, channels, received, noise_variance)[0]


class TestSimulateFrameSoftStrategies:
    def test_strategies_agree_end_to_end(self):
        """The soft receive chain on the engine equals the same chain on
        per-slot scalar list searches: CRC verdicts and counters."""
        from repro.phy import default_config, rayleigh_source
        from repro.phy.soft_link import simulate_frame_soft

        config = default_config(order=16, payload_bits=184)
        outcomes = []
        for decoder_type in (ListSphereDecoder, _ScalarListDecoder):
            decoder = decoder_type(config.constellation, list_size=8)
            source = rayleigh_source(4, 2, rng=31)
            outcomes.append(simulate_frame_soft(
                source(), decoder, config, 12.0,
                rng=np.random.default_rng(5)))
        frame, scalar = outcomes
        assert np.array_equal(frame.stream_success, scalar.stream_success)
        assert frame.detections == scalar.detections
        assert frame.counters == scalar.counters


# ----------------------------------------------------------------------
# K-best cross-subcarrier expansion
# ----------------------------------------------------------------------

class TestKBestFrame:
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_frame_matches_per_subcarrier(self, k):
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=9, num_symbols=6, seed=33)
        decoder = KBestDecoder(constellation, k=k)
        frame = decoder.decode_frame(channels, received)
        totals = ComplexityCounters()
        for s in range(channels.shape[0]):
            block = _subcarrier_batch(decoder, channels[s], received[:, s, :])
            assert np.array_equal(frame.symbol_indices[:, s:s + 1],
                                  block.symbol_indices)
            assert np.array_equal(frame.distances_sq[:, s:s + 1],
                                  block.distances_sq)
            totals.merge(block.counters)
        assert frame.counters == totals


# ----------------------------------------------------------------------
# The receive chain's strategy switch, across the detector zoo
# ----------------------------------------------------------------------

def _zoo(constellation):
    from repro.detect import ExhaustiveMLDetector, HybridDetector
    from repro.sphere import geosphere_decoder
    return [
        ZeroForcingDetector(constellation),
        MmseDetector(constellation),
        MmseSicDetector(constellation),
        SphereDetector(geosphere_decoder(constellation)),
        SphereDetector(SphereDecoder(constellation, enumerator="hess",
                                     geometric_pruning=False)),
        SphereDetector(KBestDecoder(constellation, k=8)),
        ExhaustiveMLDetector(constellation),
        HybridDetector(constellation),
    ]


class _PerSubcarrier:
    """A detector run one subcarrier at a time through its own
    ``detect_frame``, counters summed — the per-subcarrier strategy a
    whole-frame call must reproduce bit for bit."""

    def __init__(self, detector):
        self.name = detector.name
        self._detector = detector

    def detect_frame(self, channels, received, noise_variance):
        parts = [self._detector.detect_frame(channels[s:s + 1],
                                             received[:, s:s + 1],
                                             noise_variance)
                 for s in range(channels.shape[0])]
        counters = None
        if parts and parts[0].counters is not None:
            counters = ComplexityCounters()
            for part in parts:
                counters.merge(part.counters)
        return FrameDetectionResult(
            symbols=np.concatenate([part.symbols for part in parts], axis=1),
            symbol_indices=np.concatenate(
                [part.symbol_indices for part in parts], axis=1),
            counters=counters)


class TestDetectUplinkStrategies:
    def test_all_detectors_agree_across_strategies(self):
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=8, num_symbols=5, seed=51)
        noise_variance = 0.05
        for detector in _zoo(constellation):
            frame = detect_uplink(channels, received, detector,
                                  noise_variance)
            per_subcarrier = detect_uplink(channels, received,
                                           _PerSubcarrier(detector),
                                           noise_variance)
            assert np.array_equal(frame.symbol_indices,
                                  per_subcarrier.symbol_indices), \
                f"{detector.name} differs across frame strategies"
            assert frame.detections == per_subcarrier.detections
            if per_subcarrier.counters is None:
                assert frame.counters is None
            else:
                assert frame.counters == per_subcarrier.counters

    def test_sphere_counters_are_frame_level_totals(self):
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=6, num_symbols=5, seed=53)
        decoder = SphereDecoder(constellation)
        detection = detect_uplink(channels, received,
                                  SphereDetector(decoder), 0.05)
        assert detection.detections == 30
        totals = ComplexityCounters()
        for s in range(channels.shape[0]):
            totals.merge(_subcarrier_batch(decoder, channels[s],
                                           received[:, s, :]).counters)
        assert detection.counters == totals

    @needs_core
    def test_default_drain_threshold_is_capped(self):
        """Large frames drain at the absolute cap, not at N // 6."""
        constellation, channels, received = _frame_instance(
            16, 4, 4, num_subcarriers=36, num_symbols=8, seed=57)
        decoder = SphereDecoder(constellation)
        with drain_sizes() as drains:
            for job, pool in ticking(decoder, channels, received):
                assert pool.drain_threshold == DRAIN_THRESHOLD_CAP
        assert len(drains) == 1 and drains[0] <= DRAIN_THRESHOLD_CAP
        assert_frames_identical(job.finalise(), scalar_oracle(
            decoder, channels, received)[0])
