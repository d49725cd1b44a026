"""Tests for the Schnorr–Euchner child enumerators.

These pin down the behaviours the paper claims for its enumeration
(section 3.1.1) and for the baselines it compares against (sections 5.3
and 6.1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constellation import qam
from repro.sphere import (
    ComplexityCounters,
    ExhaustiveEnumerator,
    GeometricPruner,
    GeosphereEnumerator,
    HessEnumerator,
    ShabanyEnumerator,
)

ORDERS = [4, 16, 64, 256]

received_points = st.builds(
    complex,
    st.floats(min_value=-1.6, max_value=1.6),
    st.floats(min_value=-1.6, max_value=1.6),
)


def drain(enumerator, budget=float("inf")):
    """Pull every candidate out of an enumerator."""
    candidates = []
    while True:
        candidate = enumerator.next_candidate(budget)
        if candidate is None:
            return candidates
        candidates.append(candidate)


def make(kind, order, received, pruner=None):
    counters = ComplexityCounters()
    constellation = qam(order)
    if kind == "zigzag":
        return GeosphereEnumerator(constellation, received, counters, pruner), counters
    if kind == "shabany":
        return ShabanyEnumerator(constellation, received, counters, pruner), counters
    if kind == "hess":
        return HessEnumerator(constellation, received, counters), counters
    return ExhaustiveEnumerator(constellation, received, counters), counters


KINDS = ["zigzag", "shabany", "hess", "exhaustive"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS)
class TestEnumerationCorrectness:
    def test_enumerates_every_point_exactly_once(self, kind, order):
        enumerator, _ = make(kind, order, 0.31 - 0.72j)
        candidates = drain(enumerator)
        constellation = qam(order)
        seen = {constellation.index_of(c.col, c.row) for c in candidates}
        assert len(candidates) == order
        assert seen == set(range(order))

    def test_distances_nondecreasing(self, kind, order):
        enumerator, _ = make(kind, order, -0.47 + 0.13j)
        candidates = drain(enumerator)
        distances = [c.dist_sq for c in candidates]
        assert all(a <= b + 1e-12 for a, b in zip(distances, distances[1:]))

    def test_reported_distance_is_exact(self, kind, order):
        received = 0.8 - 0.29j
        constellation = qam(order)
        enumerator, _ = make(kind, order, received)
        for candidate in drain(enumerator):
            point = constellation.point(candidate.col, candidate.row)
            assert candidate.dist_sq == pytest.approx(abs(point - received) ** 2)

    def test_first_candidate_is_slice(self, kind, order):
        received = 0.21 + 0.49j
        constellation = qam(order)
        enumerator, _ = make(kind, order, received)
        first = enumerator.next_candidate(float("inf"))
        expected_col, expected_row = constellation.slice_col_row(received)
        assert (first.col, first.row) == (int(expected_col), int(expected_row))

    def test_budget_truncates_enumeration(self, kind, order):
        received = 0.05 + 0.02j
        full = drain(make(kind, order, received)[0])
        # A budget strictly between the closest and farthest point must
        # keep some candidates and drop the rest.
        budget = (full[0].dist_sq + full[-1].dist_sq) / 2.0
        candidates = drain(make(kind, order, received)[0], budget)
        assert 0 < len(candidates) < order
        assert all(c.dist_sq < budget for c in candidates)


@pytest.mark.parametrize("order", ORDERS)
class TestAgainstExhaustive:
    def test_zigzag_matches_exhaustive_order(self, order):
        rng = np.random.default_rng(order)
        for _ in range(10):
            received = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            reference = [c.dist_sq for c in drain(make("exhaustive", order, received)[0])]
            zigzag = [c.dist_sq for c in drain(make("zigzag", order, received)[0])]
            assert zigzag == pytest.approx(reference)

    def test_hess_matches_exhaustive_order(self, order):
        rng = np.random.default_rng(order + 1)
        for _ in range(10):
            received = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            reference = [c.dist_sq for c in drain(make("exhaustive", order, received)[0])]
            hess = [c.dist_sq for c in drain(make("hess", order, received)[0])]
            assert hess == pytest.approx(reference)


class TestPaperClaims:
    """Concrete numbers stated in the paper."""

    @pytest.mark.parametrize("order", ORDERS)
    def test_queue_length_bounded_by_sqrt_order(self, order):
        """Section 3.1.1: 'a priority queue of length at most sqrt(|O|)'."""
        enumerator, _ = make("zigzag", order, 0.12 - 0.07j)
        side = qam(order).side
        while True:
            assert enumerator.queue_length <= side
            if enumerator.next_candidate(float("inf")) is None:
                break

    def test_third_child_costs_four_ped_calcs_geosphere(self):
        """Section 6.1: 'Geosphere needs four partial distance calculations
        while Shabany's needs five (25% more)' for the third-smallest child.

        Uses an interior received point so no zigzag hits the edge."""
        received = 0.05 + 0.03j  # near an interior 16-QAM point
        enumerator, counters = make("zigzag", 16, received)
        for _ in range(3):
            assert enumerator.next_candidate(float("inf")) is not None
        assert counters.ped_calcs == 4

    def test_third_child_costs_five_ped_calcs_shabany(self):
        received = 0.05 + 0.03j
        enumerator, counters = make("shabany", 16, received)
        for _ in range(3):
            assert enumerator.next_candidate(float("inf")) is not None
        assert counters.ped_calcs == 5

    @pytest.mark.parametrize("order", ORDERS)
    def test_hess_pays_sqrt_order_upfront(self, order):
        """Section 5.3: ETH-SD computes one candidate per row on entry."""
        _, counters = make("hess", order, 0.3 + 0.1j)
        assert counters.ped_calcs == qam(order).side

    @pytest.mark.parametrize("order", ORDERS)
    def test_exhaustive_pays_full_order(self, order):
        _, counters = make("exhaustive", order, 0.3 + 0.1j)
        assert counters.ped_calcs == order

    def test_zigzag_first_child_costs_one_ped_calc(self):
        """Slicing finds the first child with a single distance computation."""
        enumerator, counters = make("zigzag", 256, 0.01 - 0.02j)
        assert enumerator.next_candidate(float("inf")) is not None
        assert counters.ped_calcs == 1

    @pytest.mark.parametrize("order", ORDERS)
    def test_zigzag_ped_calcs_equal_enqueues_and_stay_low(self, order):
        """Draining the full constellation costs at most ~2 PED calcs per
        dequeued candidate (vertical always, horizontal only at row 0)."""
        enumerator, counters = make("zigzag", order, 0.4 - 0.22j)
        candidates = drain(enumerator)
        assert counters.ped_calcs <= 2 * len(candidates)


class TestFigureSixWalkthrough:
    """Replays the paper's Fig. 6 example step by step on 16-QAM."""

    def setup_method(self):
        self.constellation = qam(16)
        scale = self.constellation.scale
        # A received point in the upper-right quadrant of the cell of the
        # point at (col=2, row=2), biased toward (col=1, row=3) so the
        # vertical zigzag (b) beats the horizontal one (c), as in Fig. 6.
        base = self.constellation.point(2, 2)
        self.received = base + complex(-0.45 * scale, 0.7 * scale)
        self.counters = ComplexityCounters()
        self.enumerator = GeosphereEnumerator(
            self.constellation, self.received, self.counters)

    def test_exploration_sequence(self):
        first = self.enumerator.next_candidate(float("inf"))
        assert (first.col, first.row) == (2, 2)          # a: the slice
        second = self.enumerator.next_candidate(float("inf"))
        assert (second.col, second.row) == (2, 3)        # b: vertical zigzag
        third = self.enumerator.next_candidate(float("inf"))
        assert (third.col, third.row) == (1, 2)          # c: horizontal zigzag
        fourth = self.enumerator.next_candidate(float("inf"))
        assert (fourth.col, fourth.row) == (1, 3)        # e: c's vertical step

    def test_ped_calc_counts_along_the_walk(self):
        # a costs 1; exploring a enqueues b and c (2 more); exploring b
        # enqueues only its vertical successor because the horizontal
        # target column already has c (the paper's skipped step).
        self.enumerator.next_candidate(float("inf"))
        assert self.counters.ped_calcs == 1
        self.enumerator.next_candidate(float("inf"))
        assert self.counters.ped_calcs == 3
        self.enumerator.next_candidate(float("inf"))
        assert self.counters.ped_calcs == 4


@settings(max_examples=60, deadline=None)
@given(received=received_points, order=st.sampled_from([4, 16, 64]))
def test_zigzag_and_shabany_agree_with_exhaustive(received, order):
    """Property: all enumerators agree on the distance sequence."""
    reference = [c.dist_sq for c in drain(make("exhaustive", order, received)[0])]
    for kind in ("zigzag", "shabany", "hess"):
        result = [c.dist_sq for c in drain(make(kind, order, received)[0])]
        assert result == pytest.approx(reference)


@settings(max_examples=40, deadline=None)
@given(received=received_points)
def test_far_outside_point_enumerates_from_corner(received):
    """Received points far outside the constellation slice to the edge and
    still enumerate all points in non-decreasing distance."""
    shifted = received + complex(np.sign(received.real or 1.0) * 5.0,
                                 np.sign(received.imag or 1.0) * 5.0)
    enumerator, _ = make("zigzag", 16, shifted)
    candidates = drain(enumerator)
    assert len(candidates) == 16
    distances = [c.dist_sq for c in candidates]
    assert all(a <= b + 1e-9 for a, b in zip(distances, distances[1:]))
