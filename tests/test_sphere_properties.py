"""Property-based sphere-search invariants.

Three invariants that must hold for *every* decode, not just the seeded
differential draws:

* the returned squared distance equals a from-scratch recomputation of
  ``||y_hat - R s||^2`` for the returned symbols;
* the returned solution is maximum-likelihood — no brute-force candidate
  is closer (checked exhaustively on small instances);
* the sphere radius is monotone (strictly) decreasing over the search,
  observed by ticking the lockstep engine and reading each lane's radius.

Channels are drawn through :mod:`hypothesis` when it is installed (the
CI environment has it) and through seeded fuzz loops otherwise, so the
invariants stay enforced either way.
"""

import itertools

import numpy as np
import pytest

from repro.channel import awgn, noise_variance_for_snr, rayleigh_channel
from repro.constellation import qam
from repro.runtime import FrameJob
from repro.sphere import ListSphereDecoder, SphereDecoder, triangularize

from test_engine import pinned_frontier

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False

#: Small instances: brute force over order ** num_tx candidates stays fast.
SMALL_CASES = [(4, 2), (4, 3), (16, 2)]


def _instance(order, num_tx, seed, snr_db=18.0, size=6):
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    channel = rayleigh_channel(num_tx + 1, num_tx, rng)
    sent = rng.integers(0, order, size=(size, num_tx))
    noise_variance = noise_variance_for_snr(channel, snr_db)
    received = (constellation.points[sent] @ channel.T
                + awgn((size, num_tx + 1), noise_variance, rng))
    q, r = triangularize(channel)
    return constellation, r, received @ np.conj(q)


# ----------------------------------------------------------------------
# Invariant checks (shared by the hypothesis and fuzz drivers)
# ----------------------------------------------------------------------

def check_distance_consistency(order, num_tx, seed):
    """result.distances_sq == ||y_hat - R s||^2 recomputed from scratch."""
    constellation, r, y_hat = _instance(order, num_tx, seed)
    decoder = SphereDecoder(constellation)
    result = decoder.decode_batch(r, y_hat)
    assert result.found.all()
    residual = y_hat - result.symbols @ r.T
    recomputed = np.sum(np.abs(residual) ** 2, axis=1)
    # The search accumulates the same quantity level by level in a
    # different association order, so equality holds to rounding only.
    np.testing.assert_allclose(result.distances_sq, recomputed,
                               rtol=1e-10, atol=1e-12)


def check_ml_optimality(order, num_tx, seed):
    """No brute-force candidate beats the returned solution."""
    constellation, r, y_hat = _instance(order, num_tx, seed, size=3)
    decoder = SphereDecoder(constellation)
    result = decoder.decode_batch(r, y_hat)
    points = constellation.points
    grid = np.array(list(itertools.product(range(order), repeat=num_tx)))
    candidates = points[grid]  # (order**num_tx, num_tx)
    for t in range(y_hat.shape[0]):
        distances = np.sum(
            np.abs(y_hat[t] - candidates @ r.T) ** 2, axis=1)
        best = distances.min()
        # ML within rounding: the decoder's path accumulation and this
        # matrix evaluation round differently in the last ulp.
        assert result.distances_sq[t] <= best * (1.0 + 1e-9) + 1e-12
        brute = grid[int(np.argmin(distances))]
        brute_distance = distances[
            np.flatnonzero(np.isclose(distances, best, rtol=1e-12))]
        # Unless the minimum is degenerate, the symbol decision matches.
        if brute_distance.size == 1:
            assert np.array_equal(result.symbol_indices[t], brute)


def check_radius_monotone(order, num_tx, seed):
    """Leaves tighten the radius strictly monotonically, ending at the
    returned distance.  One lockstep tick visits at most one node per
    search, so the radius a lane shows after each tick changes exactly
    at its leaf events."""
    constellation, r, y_hat = _instance(order, num_tx, seed)
    decoder = SphereDecoder(constellation)
    job = FrameJob.from_triangular(decoder, r, y_hat)
    frontier = pinned_frontier(drain_threshold=0)
    frontier.submit(job)
    pool = job.pool
    sequences = {t: [] for t in range(y_hat.shape[0])}
    while not frontier.idle:
        frontier.tick()
        # Lanes are not reused here (capacity exceeds the batch), so a
        # finished lane still shows its final radius.
        for lane in range(y_hat.shape[0]):
            radius = float(pool.state["radius"][lane])
            sequence = sequences[int(pool.elem_of[lane])]
            if np.isfinite(radius) and (not sequence
                                        or radius != sequence[-1]):
                sequence.append(radius)
    result = job.finalise()
    for t, sequence in sequences.items():
        assert sequence, "every search must reach at least one leaf"
        assert all(late < early for early, late in
                   zip(sequence, sequence[1:])), sequence
        assert sequence[-1] == result.distances_sq[t, 0]


def check_llr_invariants(order, num_tx, seed):
    """List-sphere LLR invariants for every decode:

    * clamp bounds are hard: no LLR magnitude ever exceeds ``clamp``;
    * sign convention: a strictly negative (positive) LLR means the best
      list member — the exact ML solution — carries bit 1 (bit 0);
    * growing the list only via membership: a larger list is a superset
      of a smaller one, so per-bit minima can only improve and every LLR
      magnitude is monotonically non-increasing in ``list_size``.
    """
    clamp = 8.0
    noise_variance = 0.05
    constellation, r, y_hat = _instance(order, num_tx, seed, size=4)
    small = ListSphereDecoder(constellation, list_size=4, clamp=clamp)
    large = ListSphereDecoder(constellation, list_size=12, clamp=clamp)
    for t in range(y_hat.shape[0]):
        a = small.decode_soft_triangular(r, y_hat[t], noise_variance)
        b = large.decode_soft_triangular(r, y_hat[t], noise_variance)
        assert (np.abs(a.llrs) <= clamp).all()
        assert (np.abs(b.llrs) <= clamp).all()
        ml_bits = constellation.indices_to_bits(a.symbol_indices).astype(bool)
        decided = a.llrs != 0.0
        assert ((a.llrs < 0) == ml_bits)[decided].all()
        # Both decoders agree on the hard decision (the exact ML point).
        assert np.array_equal(a.symbol_indices, b.symbol_indices)
        assert (np.abs(b.llrs) <= np.abs(a.llrs) + 1e-12).all()


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    small_case = st.sampled_from(SMALL_CASES)
    any_case = st.sampled_from(SMALL_CASES + [(16, 4), (64, 2)])
    seeds = st.integers(min_value=0, max_value=2**32 - 1)

    @settings(max_examples=20, deadline=None)
    @given(case=any_case, seed=seeds)
    def test_distance_equals_recomputation(case, seed):
        check_distance_consistency(case[0], case[1], seed)

    @settings(max_examples=15, deadline=None)
    @given(case=small_case, seed=seeds)
    def test_ml_optimality_vs_brute_force(case, seed):
        check_ml_optimality(case[0], case[1], seed)

    @settings(max_examples=15, deadline=None)
    @given(case=any_case, seed=seeds)
    def test_radius_is_monotone_decreasing(case, seed):
        check_radius_monotone(case[0], case[1], seed)

    @settings(max_examples=15, deadline=None)
    @given(case=small_case, seed=seeds)
    def test_llr_clamp_sign_and_list_monotonicity(case, seed):
        check_llr_invariants(case[0], case[1], seed)
else:  # pragma: no cover - exercised only without hypothesis
    @pytest.mark.parametrize("case", SMALL_CASES + [(16, 4), (64, 2)])
    def test_distance_equals_recomputation(case):
        for seed in range(201, 209):
            check_distance_consistency(case[0], case[1], seed)

    @pytest.mark.parametrize("case", SMALL_CASES)
    def test_ml_optimality_vs_brute_force(case):
        for seed in range(301, 308):
            check_ml_optimality(case[0], case[1], seed)

    @pytest.mark.parametrize("case", SMALL_CASES + [(16, 4), (64, 2)])
    def test_radius_is_monotone_decreasing(case):
        for seed in range(401, 408):
            check_radius_monotone(case[0], case[1], seed)

    @pytest.mark.parametrize("case", SMALL_CASES)
    def test_llr_clamp_sign_and_list_monotonicity(case):
        for seed in range(501, 508):
            check_llr_invariants(case[0], case[1], seed)


def test_exhaustive_enumerator_agrees_with_geosphere():
    """The reference enumerator and the lazy zigzag visit identical
    solutions with identical distances on every draw — the paper's
    'all SE decoders traverse the same tree' claim, engine included."""
    rng = np.random.default_rng(71)
    for order, num_tx in [(16, 3), (64, 2)]:
        constellation, r, y_hat = _instance(order, num_tx, int(rng.integers(2**31)))
        geosphere = SphereDecoder(constellation).decode_batch(r, y_hat)
        exhaustive = SphereDecoder(constellation, enumerator="exhaustive",
                                   geometric_pruning=False
                                   ).decode_batch(r, y_hat)
        assert np.array_equal(geosphere.symbol_indices,
                              exhaustive.symbol_indices)
        assert np.array_equal(geosphere.distances_sq,
                              exhaustive.distances_sq)
        assert (geosphere.counters.visited_nodes
                == exhaustive.counters.visited_nodes)
