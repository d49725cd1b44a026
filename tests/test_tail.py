"""The compiled search core resuming half-run searches — as the
straggler drain and as the lockstep step — against the scalar oracle.

The compiled core (``repro/sphere/search_core.c`` behind
:mod:`repro.sphere.tick_kernel`) works in place on the pool's frontier
arrays, from whatever state the last tick left a search in: a small
allowance of candidate attempts per lane per tick is the lockstep step,
an unlimited one the drain of the frontier's last few searches.  The
scalar decoders (:meth:`SphereDecoder.decode_triangular`,
:meth:`ListSphereDecoder.decode_soft_triangular`) are the oracle; the
contract is bit-identity — decisions, distances, LLRs and all five
``ComplexityCounters`` — and these tests pin it two ways:

* **from the root** — a hand-off right after the root expansion, so the
  drain runs the whole search (a hypothesis property over pruning,
  initial radius, node budget, list size, constellation and geometry;
  list size 1 is the hard best-leaf policy);
* **from every depth** — ``k`` lockstep ticks in the core, then the
  drain, for every ``k`` from 0 to the search's length, with the
  allowance pinned to one attempt per tick so that ``k`` counts
  attempts and no hand-off point is skipped — so a wrong
  reading of the pending successors or the column queue that a step
  leaves behind cannot hide behind a lucky threshold.

Only ``zigzag`` searches run in the core; the baseline enumerators'
pools have no lanes, so they have no tail to hand off (checked below).

Float programs: the core spells the installed numpy's complex-multiply
program out (FMA-contracted or not — ``tick_kernel.NUMPY_FMA`` picks);
nothing here branches on that flag: the suite must pass whichever it
reports.  Without a C compiler there is no core (every pool runs the
scalar search), so the whole module skips.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import awgn, noise_variance_for_snr, rayleigh_channel
from repro.constellation import qam
from repro.runtime import FrameJob, FrameRequest
from repro.sphere import ListSphereDecoder, SphereDecoder, triangularize
from repro.sphere.tick_kernel import NUMPY_FMA

from test_engine import (
    assert_frames_identical,
    drain_sizes,
    needs_core,
    pinned_frontier,
    scalar_oracle,
)

pytestmark = needs_core                  # no compiler: nothing to hand off to


@pytest.fixture(autouse=True)
def one_attempt_a_tick(monkeypatch):
    """Every hand-off point is one candidate attempt after the last,
    whatever allowance the engine ships with (any allowance runs the
    same program per search)."""
    monkeypatch.setattr("repro.runtime.engine._LOCKSTEP_ATTEMPTS", 1)

#: Operating points low enough that searches backtrack (deep stacks,
#: deferred proposals pending, several leaves) instead of diving once.
SNR_DB = {4: 8.0, 16: 14.0, 64: 20.0}


def _observation(order, num_tx, num_rx, rng):
    """One triangularised system ``(r, y_hat, noise_variance)``."""
    constellation = qam(order)
    channel = rayleigh_channel(num_rx, num_tx, rng)
    sent = rng.integers(0, order, size=num_tx)
    noise_variance = noise_variance_for_snr(channel, SNR_DB[order])
    received = (channel @ constellation.points[sent]
                + awgn(num_rx, noise_variance, rng))
    q, r = triangularize(channel)
    return r, q.conj().T @ received, noise_variance


def _assert_hard_equal(frame, scalar):
    assert bool(frame.found[0, 0]) == scalar.found
    assert np.array_equal(frame.symbol_indices[0, 0], scalar.symbol_indices)
    assert np.array_equal(frame.symbols[0, 0], scalar.symbols,
                          equal_nan=True)
    assert frame.distances_sq[0, 0] == scalar.distance_sq
    assert frame.counters == scalar.counters


def _decode_one(decoder, r, y_hat, noise_variance=None, *, drain_threshold):
    """One triangular search on a frontier with the given hand-off
    point.  Returns the frame result and the drain sizes."""
    job = FrameJob.from_triangular(decoder, r, y_hat[None], noise_variance)
    engine = pinned_frontier(drain_threshold=drain_threshold)
    engine.submit(job)
    with drain_sizes() as drained:
        while not engine.idle:
            engine.tick()
    return job.finalise(), drained


# ----------------------------------------------------------------------
# (i) The whole search in the drain: hand-off right after the root
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_tail_from_root_equals_the_scalar_oracle(data):
    order = data.draw(st.sampled_from([4, 16, 64]), label="order")
    num_tx = data.draw(st.integers(2, 4), label="num_tx")
    num_rx = data.draw(st.integers(num_tx, 4), label="num_rx")
    pruning = data.draw(st.booleans(), label="pruning")
    list_size = data.draw(st.sampled_from([1, 4, 16]), label="list_size")
    node_budget = data.draw(st.sampled_from([None, 4, 11, 40]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    r, y_hat, noise_variance = _observation(order, num_tx, num_rx, rng)
    constellation = qam(order)

    if list_size == 1:                       # the hard, best-leaf policy
        plain = SphereDecoder(constellation, geometric_pruning=pruning)
        ml_distance = plain.decode_triangular(r, y_hat).distance_sq
        # inf, a radius that keeps the ML leaf, one that excludes it.
        radius = data.draw(st.sampled_from(
            [float("inf"), 4.0 * ml_distance, 0.5 * ml_distance]))
        decoder = SphereDecoder(constellation, geometric_pruning=pruning,
                                initial_radius_sq=radius,
                                node_budget=node_budget)
        got, drained = _decode_one(decoder, r, y_hat, drain_threshold=1)
        _assert_hard_equal(got, decoder.decode_triangular(r, y_hat))
    else:
        decoder = ListSphereDecoder(constellation, list_size=list_size,
                                    geometric_pruning=pruning,
                                    node_budget=node_budget)
        got, drained = _decode_one(decoder, r, y_hat, noise_variance,
                                   drain_threshold=1)
        want = decoder.decode_soft_triangular(r, y_hat, noise_variance)
        assert np.array_equal(got.llrs[0, 0], want.llrs)
        assert np.array_equal(got.symbol_indices[0, 0], want.symbol_indices)
        assert np.array_equal(got.symbols[0, 0], want.symbols)
        assert got.list_sizes[0, 0] == want.list_size_used
        assert got.counters == want.counters
    assert drained == [1]                    # the core did run it


@pytest.mark.parametrize("enumerator", ["shabany", "hess", "exhaustive"])
def test_baseline_enumerators_have_no_tail(enumerator):
    """The baselines' pools (``shabany``, ``hess``, ``exhaustive``)
    have no core: whatever the drain threshold says, every search runs
    through the scalar decoder in the tick that admits it — the oracle's
    results, nothing drained, nothing left in a lane between ticks."""
    rng = np.random.default_rng(5)
    decoder = SphereDecoder(qam(16), enumerator=enumerator,
                            geometric_pruning=False)
    r, y_hat, _ = _observation(16, 4, 4, rng)
    batch = np.stack([y_hat + 0.05 * k for k in range(6)])
    job = FrameJob.from_triangular(decoder, r, batch)
    engine = pinned_frontier(capacity=4, drain_threshold=1000)
    engine.submit(job)
    pool = job.pool
    assert not pool.has_core and pool.drain_threshold == 0
    ticks = 0
    with drain_sizes() as drained:
        while not engine.idle:
            engine.tick()
            ticks += 1
            assert pool.active.size == 0 and engine.in_use == 0
            assert job.remaining == max(0, job.num_problems - 4 * ticks)
    assert ticks == 2 and drained == []
    got, want = job.finalise(), decoder._decode_batch_loop(r, batch)
    assert np.array_equal(got.symbol_indices, want.symbol_indices)
    assert np.array_equal(got.distances_sq, want.distances_sq)
    assert got.counters == want.counters


# ----------------------------------------------------------------------
# (ii) Hand-off at every depth of a search
# ----------------------------------------------------------------------

def _decoder(kind, order, enumerator, pruning, **knobs):
    if kind == "soft":
        knobs["list_size"] = 4
    make = SphereDecoder if kind == "hard" else ListSphereDecoder
    return make(qam(order), enumerator=enumerator,
                geometric_pruning=pruning, **knobs)


def _frame(decoder, order, num_subcarriers, num_symbols, rng):
    constellation = qam(order)
    channels = np.stack([rayleigh_channel(4, 4, rng)
                         for _ in range(num_subcarriers)])
    sent = rng.integers(0, order, size=(num_symbols, num_subcarriers, 4))
    clean = np.einsum("tsc,sac->tsa", constellation.points[sent], channels)
    noise_variance = float(np.mean(
        [noise_variance_for_snr(channels[s], SNR_DB[order])
         for s in range(num_subcarriers)]))
    received = clean + awgn(clean.shape, noise_variance, rng)
    return FrameRequest(channels=channels, received=received,
                        decoder=decoder, noise_variance=noise_variance)


def _submitted(request):
    """The request's job on a frontier as wide as the frame, its pool
    stepping in the core, one candidate attempt per lane per tick, in
    lockstep to the end (drain threshold 0)."""
    job = FrameJob(0, request)
    engine = pinned_frontier(capacity=job.num_problems, drain_threshold=0)
    engine.submit(job)
    return job, engine


def _decode_with_handoff(request, lockstep_ticks, degrade_to=None):
    """Run ``lockstep_ticks`` lockstep ticks, then hand every survivor to
    the drain (one tick); ``lockstep_ticks=None`` never hands off.
    Returns the frame result and the number of ticks the run took."""
    job, engine = _submitted(request)
    ticks = 0
    while not engine.idle:
        if ticks == lockstep_ticks:
            if degrade_to is not None:
                job.degraded_budget = degrade_to
                job.pool.degrade(job, degrade_to)
            job.pool.drain_threshold = job.num_problems
            engine.tick()
            assert engine.idle               # one tick drains them all
            return job.finalise(), ticks + 1
        engine.tick()
        ticks += 1
    return job.finalise(), ticks


def _oracle(decoder, request):
    """The request's frame through ``decoder``'s scalar search."""
    noise_variance = (request.noise_variance
                      if isinstance(decoder, ListSphereDecoder) else None)
    return scalar_oracle(decoder, request.channels, request.received,
                         noise_variance)[0]


@pytest.mark.parametrize("kind", ["hard", "soft"])
@pytest.mark.parametrize("pruning", [True, False])
# ``shabany`` pools have no lanes: a search finishes in the tick that
# admits it, so its only hand-off point is k = 0 and a drain threshold
# raised mid-run must change nothing.
@pytest.mark.parametrize("enumerator", ["zigzag", "shabany"])
def test_handoff_at_every_depth_equals_the_scalar_oracle(enumerator,
                                                         pruning, kind):
    """A lone search cut after k ticks, for every k of its life — with
    and without a node budget — then a small frame whose searches sit at
    different depths: k core steps then the drain equal the oracle for
    every k, as does stepping to the end."""
    decoder = _decoder(kind, 16, enumerator, pruning)
    capped = _decoder(kind, 16, enumerator, pruning, node_budget=11)
    rng = np.random.default_rng([len(enumerator), pruning, kind == "soft"])
    for num_subcarriers, num_symbols, budgeted in [(1, 1, False),
                                                   (1, 1, True),
                                                   (2, 3, False)]:
        for _ in range(50):              # a search worth dissecting
            request = _frame(decoder, 16, num_subcarriers, num_symbols, rng)
            lockstep, length = _decode_with_handoff(request, None)
            if 20 <= length <= 90:
                break
        if budgeted:
            request = replace(request, decoder=capped)
            lockstep, length = _decode_with_handoff(request, None)
        want = _oracle(request.decoder, request)
        assert_frames_identical(lockstep, want)
        for k in range(length):
            got, _ = _decode_with_handoff(request, k)
            assert_frames_identical(got, want)


def test_handoff_sweep_on_a_dense_constellation():
    """64-QAM: eight-level axes, long deferred-proposal chains."""
    decoder = _decoder("hard", 64, "zigzag", True)
    rng = np.random.default_rng(64)
    request = _frame(decoder, 64, 1, 2, rng)
    want = _oracle(decoder, request)
    lockstep, length = _decode_with_handoff(request, None)
    assert_frames_identical(lockstep, want)
    for k in range(0, length, 3):
        got, _ = _decode_with_handoff(request, k)
        assert_frames_identical(got, want)


# ----------------------------------------------------------------------
# (iii) Degraded budgets bind in the drain
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["hard", "soft"])
@pytest.mark.parametrize("lockstep_ticks", [0, 2])
def test_degraded_lane_stops_at_the_shrunk_cap_in_the_tail(kind,
                                                           lockstep_ticks):
    """A budget is a cap on visited nodes, so degrading an unbudgeted
    frame to B before any search has visited B nodes must equal a
    decoder built with ``node_budget=B`` — through the drain."""
    budget = 6
    decoder = _decoder(kind, 16, "zigzag", True)
    capped = _decoder(kind, 16, "zigzag", True, node_budget=budget)
    request = _frame(decoder, 16, 3, 2, np.random.default_rng(31))
    got, _ = _decode_with_handoff(request, lockstep_ticks,
                                  degrade_to=budget)
    assert_frames_identical(got, _oracle(capped, request))
    uncapped = _oracle(decoder, request)
    assert got.counters.visited_nodes < uncapped.counters.visited_nodes


# ----------------------------------------------------------------------
# (iv) One complex-multiply program, with or without FMA
# ----------------------------------------------------------------------

def test_row_multiply_is_the_scalar_multiply_program():
    """The core spells out the array complex multiply the ``NUMPY_FMA``
    probe classifies; the oracle multiplies ``R`` entries by the decided
    symbols one at a time.  Both must be the one float program on this
    numpy build, FMA-contracted or not."""
    rng = np.random.default_rng(9)
    points = qam(64).points
    for width in (1, 2, 3, 7):
        for _ in range(200):
            row = rng.standard_normal(width) + 1j * rng.standard_normal(width)
            chosen = points[rng.integers(0, 64, size=width)]
            fused = np.multiply(row, chosen)
            for k in range(width):
                assert fused[k] == np.multiply(row[k], chosen[k]), (
                    f"row multiply diverges (NUMPY_FMA={NUMPY_FMA})")
