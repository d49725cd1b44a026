"""``decode_batch`` against the scalar search, batch by batch.

``SphereDecoder.decode_batch`` runs the lockstep engine
(:mod:`repro.runtime.engine`, the compiled search core where it built)
on a one-subcarrier job.  It must be
*bit-identical* to the scalar search — here the row-by-row
``_decode_batch_loop`` and per-vector ``decode_triangular``: same symbol
decisions, same distances, same ``found`` flags, same aggregated
complexity counters — equality, not ``allclose``.  ``tests/test_engine.py``
sweeps the engine's knobs on one instance; these tests sweep randomized
channels over every enumerator variant, constellation order, antenna
geometry and radius/budget configuration.
"""

from functools import partial

import numpy as np
import pytest

from repro.channel import awgn, noise_variance_for_snr, rayleigh_channel
from repro.constellation import qam
from repro.runtime import FrameJob
from repro.sphere import (
    KBestDecoder,
    ListSphereDecoder,
    SphereDecoder,
    triangularize,
)
from repro.sphere.counters import ComplexityCounters
from repro.sphere.decoder import ENUMERATORS

from test_engine import pinned_frontier

COUNTER_FIELDS = ("ped_calcs", "visited_nodes", "expanded_nodes", "leaves",
                  "geometric_prunes", "complex_mults")

#: (order, num_tx, num_rx, snr_db) — 4/16/64-QAM over 2x2, 3x4 and 4x4.
CONFIGS = [
    (4, 2, 2, 12.0),
    (4, 4, 4, 14.0),
    (16, 2, 2, 18.0),
    (16, 3, 4, 19.0),
    (16, 4, 4, 20.0),
    (64, 2, 2, 24.0),
    (64, 4, 4, 26.0),
]


def _triangular_batch(order, num_tx, num_rx, snr_db, rng, size=8):
    constellation = qam(order)
    channel = rayleigh_channel(num_rx, num_tx, rng)
    sent = rng.integers(0, order, size=(size, num_tx))
    noise_variance = noise_variance_for_snr(channel, snr_db)
    received = (constellation.points[sent] @ channel.T
                + awgn((size, num_rx), noise_variance, rng))
    q, r = triangularize(channel)
    return constellation, r, received @ np.conj(q)


class _ScalarLoop:
    """``decode_batch`` as the scalar row loop, for the reference side:
    both return the same one-subcarrier frame result."""

    def __init__(self, decoder):
        self.decode_batch = decoder._decode_batch_loop
        self.decode_triangular = decoder.decode_triangular


def _pair(order, enumerator, **kwargs):
    """The scalar-loop reference and the engine view of one decoder."""
    frontier = SphereDecoder(qam(order), enumerator=enumerator,
                             geometric_pruning=enumerator in ("zigzag",
                                                              "shabany"),
                             **kwargs)
    return _ScalarLoop(frontier), frontier


def _assert_identical(reference, engine, label=""):
    assert np.array_equal(reference.found, engine.found), label
    assert np.array_equal(reference.symbol_indices,
                          engine.symbol_indices), label
    # Bit-identical, not allclose: the frontier must run the same
    # floating-point program as the scalar search.
    matched = ((reference.distances_sq == engine.distances_sq)
               | (np.isinf(reference.distances_sq)
                  & np.isinf(engine.distances_sq)))
    assert matched.all(), label
    for field in COUNTER_FIELDS:
        assert (getattr(reference.counters, field)
                == getattr(engine.counters, field)), (label, field)


@pytest.mark.slow
@pytest.mark.parametrize("enumerator", ENUMERATORS)
def test_frontier_matches_loop_and_scalar(enumerator):
    """Randomized sweep: frontier == loop == per-vector scalar decode,
    decisions, distances, found flags and counters all bit-equal."""
    rng = np.random.default_rng(987)
    for order, num_tx, num_rx, snr_db in CONFIGS:
        loop, frontier = _pair(order, enumerator)
        for _ in range(6):
            _, r, y_hat = _triangular_batch(order, num_tx, num_rx, snr_db,
                                            rng)
            reference = loop.decode_batch(r, y_hat)
            engine = frontier.decode_batch(r, y_hat)
            _assert_identical(reference, engine, (enumerator, order, num_tx))
            # Scalar cross-check on top of the loop driver.
            totals = ComplexityCounters()
            for t, row in enumerate(y_hat):
                scalar = loop.decode_triangular(r, row)
                totals.merge(scalar.counters)
                assert np.array_equal(engine.symbol_indices[t, 0],
                                      scalar.symbol_indices)
                assert engine.distances_sq[t, 0] == scalar.distance_sq
            assert engine.counters.ped_calcs == totals.ped_calcs


@pytest.mark.slow
@pytest.mark.parametrize("enumerator", ENUMERATORS)
@pytest.mark.parametrize("drain_threshold", [0, 3, 1000])
def test_frontier_drain_settings_are_bit_identical(enumerator,
                                                   drain_threshold):
    """Pure lockstep, mid-search drain and immediate full drain all run
    the same per-element program — results cannot depend on scheduling."""
    rng = np.random.default_rng(321)
    for order, num_tx, num_rx, snr_db in [(16, 4, 4, 20.0), (64, 2, 4, 24.0)]:
        loop, frontier = _pair(order, enumerator)
        for _ in range(4):
            _, r, y_hat = _triangular_batch(order, num_tx, num_rx, snr_db,
                                            rng)
            reference = loop.decode_batch(r, y_hat)
            job = FrameJob.from_triangular(frontier, r, y_hat)
            engine = pinned_frontier(drain_threshold=drain_threshold)
            engine.submit(job)
            while not engine.idle:
                engine.tick()
            got = job.finalise()
            label = (enumerator, drain_threshold)
            assert np.array_equal(reference.found, got.found), label
            assert np.array_equal(reference.symbol_indices,
                                  got.symbol_indices), label
            assert np.array_equal(reference.distances_sq,
                                  got.distances_sq), label
            assert reference.counters == got.counters, label


@pytest.mark.parametrize("enumerator", ENUMERATORS)
def test_finite_initial_radius_found_flags(enumerator):
    """Finite radii that exclude some or all leaves: found flags,
    -1/NaN/inf sentinels and counters must match the loop exactly."""
    rng = np.random.default_rng(55)
    loop_all, frontier_all = _pair(16, enumerator,
                                   initial_radius_sq=1e-12)
    _, r, y_hat = _triangular_batch(16, 4, 4, 20.0, rng)
    reference = loop_all.decode_batch(r, y_hat)
    engine = frontier_all.decode_batch(r, y_hat)
    assert not engine.found.any()
    assert (engine.symbol_indices == -1).all()
    assert np.isinf(engine.distances_sq).all()
    assert np.isnan(engine.symbols).all()
    _assert_identical(reference, engine)

    # A radius between the ML distances splits the batch.
    exact = SphereDecoder(qam(16), enumerator=enumerator,
                          geometric_pruning=enumerator in ("zigzag",
                                                           "shabany"))
    threshold = float(np.median(exact.decode_batch(r, y_hat).distances_sq))
    loop_mid, frontier_mid = _pair(16, enumerator,
                                   initial_radius_sq=threshold)
    reference = loop_mid.decode_batch(r, y_hat)
    engine = frontier_mid.decode_batch(r, y_hat)
    assert engine.found.any() and not engine.found.all()
    _assert_identical(reference, engine)


@pytest.mark.parametrize("node_budget", [1, 5, 50])
def test_node_budget_early_stop_matches(node_budget):
    """The per-element node budget stops each search at the same node as
    the scalar guard (best-so-far kept, counters frozen)."""
    rng = np.random.default_rng(77)
    loop, frontier = _pair(16, "zigzag", node_budget=node_budget)
    for _ in range(4):
        _, r, y_hat = _triangular_batch(16, 4, 4, 16.0, rng)
        _assert_identical(loop.decode_batch(r, y_hat),
                          frontier.decode_batch(r, y_hat),
                          node_budget)


def test_empty_batch_is_a_no_op():
    frontier = SphereDecoder(qam(16))
    rng = np.random.default_rng(40)
    _, r, _ = _triangular_batch(16, 4, 4, 20.0, rng)
    result = frontier.decode_batch(r, np.zeros((0, 4), dtype=np.complex128))
    assert result.found.shape == (0, 1)
    assert result.symbol_indices.shape == (0, 1, 4)
    assert result.counters.ped_calcs == 0
    assert result.counters.visited_nodes == 0


@pytest.mark.parametrize("level", [1, 3], ids=["inner", "root"])
@pytest.mark.parametrize("kind", ["hard", "soft"])
def test_singular_r_is_refused_with_its_level(kind, level):
    """A zero on ``R``'s real diagonal at ``level`` (with the rest of its
    row and the observations' coordinate zero) makes every search divide
    0 by 0 there: a search would slice the NaN (an ``IndexError`` in
    the scalar loop; the compiled core would cast it to an integer,
    which C leaves undefined).  ``decode_batch`` skips the QR sweep and
    its rank check, and so do the scalar entry points, so both refuse
    such an ``R`` up front, naming the level — an inner node (1) or the
    root (3)."""
    _, r, y_hat = _triangular_batch(16, 4, 4, 20.0,
                                    np.random.default_rng(8))
    r[level, level:] = 0.0
    y_hat[:, level] = 0.0
    if kind == "hard":
        decoder = SphereDecoder(qam(16))
        decode = partial(decoder.decode_batch, r, y_hat)
        oracle = partial(decoder.decode_triangular, r, y_hat[0])
    else:
        decoder = ListSphereDecoder(qam(16), list_size=4)
        decode = partial(decoder.decode_batch, r, y_hat, 0.05)
        oracle = partial(decoder.decode_soft_triangular, r, y_hat[0], 0.05)
    for entry in (decode, oracle):
        with pytest.raises(ValueError,
                           match=f"zero real diagonal entry at level {level}"):
            entry()


def test_single_stream_channel():
    """nc == 1: the root level is the leaf level; no interference path."""
    rng = np.random.default_rng(13)
    constellation = qam(16)
    channel = rayleigh_channel(2, 1, rng)
    sent = rng.integers(0, 16, size=(9, 1))
    received = (constellation.points[sent] @ channel.T
                + awgn((9, 2), 0.05, rng))
    q, r = triangularize(channel)
    y_hat = received @ np.conj(q)
    loop, frontier = _pair(16, "zigzag")
    _assert_identical(loop.decode_batch(r, y_hat),
                      frontier.decode_batch(r, y_hat))


@pytest.mark.slow
def test_frontier_beats_loop_on_fixed_workload():
    """Latency regression smoke test: the lockstep engine must beat the
    scalar row loop on a 64-observation 16-QAM 4x4 batch.  The measured margin is
    ~5x (see benchmarks/bench_decode_latency.py); the 2x assertion floor
    keeps CI stable on noisy runners."""
    import time

    rng = np.random.default_rng(42)
    _, r, y_hat = _triangular_batch(16, 4, 4, 22.0, rng, size=64)
    loop, frontier = _pair(16, "zigzag")

    def best_of(function, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            function()
            best = min(best, time.perf_counter() - start)
        return best

    _assert_identical(loop.decode_batch(r, y_hat),
                      frontier.decode_batch(r, y_hat))
    loop_s = best_of(lambda: loop.decode_batch(r, y_hat))
    frontier_s = best_of(lambda: frontier.decode_batch(r, y_hat))
    speedup = loop_s / frontier_s
    assert speedup >= 2.0, (
        f"frontier speedup {speedup:.2f}x fell below the 2x regression "
        f"floor (loop {loop_s * 1e3:.2f} ms, frontier "
        f"{frontier_s * 1e3:.2f} ms)")


@pytest.mark.parametrize("kind", ["hard", "soft", "kbest"])
@pytest.mark.parametrize("ndim", [1, 3])
def test_batch_that_is_not_two_dimensional_is_refused(kind, ndim):
    """``decode_batch`` and the engine's one-subcarrier job take a
    ``(T, nc)`` batch: a single vector or a stacked frame is refused
    with ``ValueError``, not read as the wrong shape of frame."""
    _, r, y_hat = _triangular_batch(16, 4, 4, 20.0,
                                    np.random.default_rng(9))
    bad = y_hat[0] if ndim == 1 else y_hat[:, None, :]
    decoder = {"hard": SphereDecoder(qam(16)),
               "soft": ListSphereDecoder(qam(16), list_size=4),
               "kbest": KBestDecoder(qam(16), k=4)}[kind]
    noise = (0.05,) if kind == "soft" else ()
    with pytest.raises(ValueError, match="2-D"):
        decoder.decode_batch(r, bad, *noise)
    if kind != "kbest":
        with pytest.raises(ValueError, match="2-D"):
            FrameJob.from_triangular(decoder, r, bad, *noise)
