"""The lockstep engine, pinned straight to the scalar oracle.

One engine (:mod:`repro.runtime.engine`) runs every bulk sphere search;
``decode_batch``, ``decode_frame`` and :class:`UplinkRuntime` are its
three entry points.  The scalar decoders
(:meth:`SphereDecoder.decode_triangular`,
:meth:`ListSphereDecoder.decode_soft_triangular`) are the oracle, and
the contract is bit-identity — decisions, distances / LLRs, list sizes
and every :class:`ComplexityCounters` field, equality not ``allclose``.

The sweep below computes the scalar reference once per (instance,
decoder) and compares every entry point to it directly, across hard /
soft, every enumerator, pruning, node budgets, the frontier's capacity
and its (pinned) drain hand-off point — no transitive chain of
intermediate paths.  The scheduling properties the engine promises
(monotone radius, list-radius policy, FIFO refill, "drained <=
threshold") are observed by ticking a :class:`StreamingFrontier` and
reading pool state — here and, with the helpers this module shares
(:func:`_frame_instance`, :func:`scalar_oracle`,
:func:`assert_frames_identical`, :func:`ticking`, ...), in
``tests/test_frame_engine.py``.
"""

import dataclasses
import pickle
from contextlib import contextmanager
from functools import lru_cache, partial

import numpy as np
import pytest

import repro.runtime.engine as engine
import repro.sphere.tick_kernel as tick_kernel
from repro.constellation import qam
from repro.frame import (
    FrameDecodeResult,
    SoftFrameResult,
    rotate_frame,
    triangularize_frame,
)
from repro.runtime import FrameJob, FrameRequest, UplinkRuntime
from repro.runtime.engine import DRAIN_THRESHOLD_CAP, StreamingFrontier
from repro.service import DetectorFarm
from repro.sphere import KBestDecoder, ListSphereDecoder, SphereDecoder
from repro.sphere.counters import ComplexityCounters

NOISE_VARIANCE = 0.045

#: For tests that assert a search really went through the compiled
#: core; on a box without a C compiler every pool runs the scalar search.
needs_core = pytest.mark.skipif(tick_kernel.core() is None,
                                reason="no C compiler on this box")


def _frame_instance(order, num_tx, num_rx, num_subcarriers, num_symbols,
                    noise_scale=0.15, seed=0, channel_fn=None,
                    noise_per_subcarrier=None):
    """Random frame: per-subcarrier channels + (T, S, na) observations."""
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    if channel_fn is None:
        channels = (rng.standard_normal((num_subcarriers, num_rx, num_tx))
                    + 1j * rng.standard_normal(
                        (num_subcarriers, num_rx, num_tx))) / np.sqrt(2.0)
    else:
        channels = np.stack([channel_fn(s, rng)
                             for s in range(num_subcarriers)])
    sent = rng.integers(0, order, size=(num_symbols, num_subcarriers, num_tx))
    clean = np.einsum("tsc,sac->tsa", constellation.points[sent], channels)
    noise = (rng.standard_normal(clean.shape)
             + 1j * rng.standard_normal(clean.shape))
    if noise_per_subcarrier is not None:
        noise = noise * np.asarray(noise_per_subcarrier)[None, :, None]
    received = clean + noise_scale * noise
    return constellation, channels, received


# ----------------------------------------------------------------------
# The oracle and the comparators
# ----------------------------------------------------------------------

def scalar_oracle(decoder, channels, received, noise_variance=None):
    """The frame decoded slot by slot through the scalar search.

    Returns ``(frame, per_subcarrier)``: the library's own frame result
    type holding the stacked scalar outcomes (counters summed), and each
    subcarrier's summed counters for the ``decode_batch`` comparison.
    """
    soft = isinstance(decoder, ListSphereDecoder)
    q_stack, r_stack = triangularize_frame(channels)
    y_hat = rotate_frame(q_stack, received)              # (S, T, nc)
    num_subcarriers, num_symbols, num_streams = y_hat.shape
    constellation = decoder.constellation
    indices = np.empty((num_symbols, num_subcarriers, num_streams),
                       dtype=np.int64)
    distances = np.empty((num_symbols, num_subcarriers))
    llrs = np.empty((num_symbols, num_subcarriers,
                     num_streams * constellation.bits_per_symbol))
    sizes = np.empty((num_symbols, num_subcarriers), dtype=np.int64)
    per_subcarrier = [ComplexityCounters() for _ in range(num_subcarriers)]
    totals = ComplexityCounters()
    for s in range(num_subcarriers):
        for t in range(num_symbols):
            if soft:
                one = decoder.decode_soft_triangular(r_stack[s], y_hat[s, t],
                                                     noise_variance)
                llrs[t, s] = one.llrs
                sizes[t, s] = one.list_size_used
            else:
                one = decoder.decode_triangular(r_stack[s], y_hat[s, t])
                # A frame result derives ``found`` from the distance.
                assert one.found == np.isfinite(one.distance_sq)
                distances[t, s] = one.distance_sq
            indices[t, s] = one.symbol_indices
            per_subcarrier[s].merge(one.counters)
        totals.merge(per_subcarrier[s])
    totals.complex_mults = totals.ped_calcs * (num_streams + 1)
    if soft:
        frame = SoftFrameResult(llrs=llrs, symbol_indices=indices,
                                list_sizes=sizes, counters=totals,
                                points=constellation.points)
    else:
        frame = FrameDecodeResult(symbol_indices=indices,
                                  distances_sq=distances, counters=totals,
                                  points=constellation.points)
    return frame, per_subcarrier


def assert_frames_identical(got, want):
    """Bit-equality of two frame results of the same kind."""
    assert type(got) is type(want)
    if isinstance(want, SoftFrameResult):
        assert np.array_equal(got.llrs, want.llrs)
        assert np.array_equal(got.list_sizes, want.list_sizes)
    else:
        assert np.array_equal(got.found, want.found)
        assert np.array_equal(got.distances_sq, want.distances_sq)
    assert np.array_equal(got.symbol_indices, want.symbol_indices)
    assert np.array_equal(got.symbols, want.symbols, equal_nan=True)
    assert got.counters == want.counters


def assert_batch_identical(batch, want, subcarrier, counters):
    """A ``decode_batch`` result — a one-subcarrier frame, ``(T, 1)``
    leading — against that subcarrier of the oracle."""
    column = slice(subcarrier, subcarrier + 1)
    assert type(batch) is type(want)
    if isinstance(want, SoftFrameResult):
        assert np.array_equal(batch.llrs, want.llrs[:, column])
        assert np.array_equal(batch.list_sizes, want.list_sizes[:, column])
    else:
        assert np.array_equal(batch.found, want.found[:, column])
        assert np.array_equal(batch.distances_sq,
                              want.distances_sq[:, column])
    assert np.array_equal(batch.symbol_indices,
                          want.symbol_indices[:, column])
    assert np.array_equal(batch.symbols, want.symbols[:, column],
                          equal_nan=True)
    assert batch.counters == counters


# ----------------------------------------------------------------------
# Driving the engine
# ----------------------------------------------------------------------

def pinned_frontier(drain_threshold=None, **knobs):
    """A frontier built with ``knobs`` whose straggler hand-off point is
    pinned to ``drain_threshold`` (``None``: the engine's own choice).
    The hand-off point is not a constructor option; pools read the
    frontier's private value when they are built, so it is set before
    the first submit."""
    frontier = StreamingFrontier(**knobs)
    frontier._drain_threshold = drain_threshold
    return frontier


def pinned_runtime(drain_threshold=None, **knobs):
    """An :class:`UplinkRuntime` built with ``knobs`` whose engine's
    hand-off point is pinned as in :func:`pinned_frontier`."""
    runtime = UplinkRuntime(**knobs)
    runtime._engine._drain_threshold = drain_threshold
    return runtime


def _submitted(decoder, channels, received, noise_variance, knobs):
    """``(job, frontier)``: the frame submitted to a frontier built with
    ``knobs`` (``drain_threshold`` included, see :func:`pinned_frontier`)."""
    job = FrameJob(0, FrameRequest(channels, received, decoder,
                                   noise_variance))
    frontier = pinned_frontier(**knobs)
    frontier.submit(job)
    return job, frontier


def ticking(decoder, channels, received, noise_variance=None, **knobs):
    """Tick one frame on a hand-built frontier.  Yields ``(job, pool)``
    after every tick; ``job.finalise()`` is valid once exhausted."""
    job, frontier = _submitted(decoder, channels, received, noise_variance,
                               knobs)
    while not frontier.idle:
        frontier.tick()
        yield job, job.pool


def decode_on_frontier(decoder, channels, received, noise_variance=None,
                       **knobs):
    """The frame decoded on a frontier built with ``knobs``."""
    job, frontier = _submitted(decoder, channels, received, noise_variance,
                               knobs)
    while not frontier.idle:
        frontier.tick()
    return job.finalise()


def _decode(entry, decoder, channels, received, noise_variance, want,
            per_subcarrier, **knobs):
    """Run one entry point and compare it to the oracle."""
    extra = () if noise_variance is None else (noise_variance,)
    if entry == "decode_frame":
        assert_frames_identical(
            decoder.decode_frame(channels, received, *extra), want)
    elif entry == "decode_batch":
        q_stack, r_stack = triangularize_frame(channels)
        y_hat = rotate_frame(q_stack, received)
        for s in range(channels.shape[0]):
            assert_batch_identical(
                decoder.decode_batch(r_stack[s], y_hat[s], *extra), want, s,
                per_subcarrier[s])
    else:
        runtime = pinned_runtime(**knobs)
        handle = runtime.submit(FrameRequest(channels, received, decoder,
                                             noise_variance))
        runtime.drain()
        assert_frames_identical(handle.result(), want)


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------

#: (kind, enumerator, pruning, node budget)
CASES = [(kind, enumerator, pruning, budget)
         for kind in ("hard", "soft")
         for enumerator, pruning in [("zigzag", True), ("zigzag", False),
                                     ("shabany", True), ("shabany", False),
                                     ("hess", False), ("exhaustive", False)]
         for budget in (None, 12)]


def _case_id(case):
    kind, enumerator, pruning, budget = case
    return (f"{kind}-{enumerator}{'+prune' if pruning else ''}"
            f"-{'nobudget' if budget is None else f'budget{budget}'}")


@lru_cache(maxsize=None)
def _case(case):
    """``(decoder, channels, received, noise_variance, oracle...)`` of one
    sweep case — the scalar reference is computed once."""
    kind, enumerator, pruning, budget = case
    constellation, channels, received = _frame_instance(
        16, 4, 4, num_subcarriers=3, num_symbols=3, noise_scale=0.2, seed=71)
    if kind == "soft":
        decoder = ListSphereDecoder(constellation, list_size=4,
                                    enumerator=enumerator,
                                    geometric_pruning=pruning,
                                    node_budget=budget)
        noise_variance = NOISE_VARIANCE
    else:
        decoder = SphereDecoder(constellation, enumerator=enumerator,
                                geometric_pruning=pruning, node_budget=budget)
        noise_variance = None
    want, per_subcarrier = scalar_oracle(decoder, channels, received,
                                         noise_variance)
    return decoder, channels, received, noise_variance, want, per_subcarrier


@pytest.mark.parametrize("entry",
                         ["decode_batch", "decode_frame", "runtime"])
@pytest.mark.parametrize("drain_threshold", [0, 3, None])
@pytest.mark.parametrize("capacity", [1, 3, 8, None])
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_engine_matches_scalar_oracle(monkeypatch, case, capacity,
                                      drain_threshold, entry):
    """Every entry point, under every frontier knob setting, equals the
    scalar search slot for slot: results, distances / LLRs, list sizes
    and all counters.  ``decode_batch`` / ``decode_frame`` build their
    private frontier without arguments, so the knobs reach it by
    pre-binding them on the factory ``run_frame`` calls."""
    decoder, channels, received, noise_variance, want, per_subcarrier = \
        _case(case)
    knobs = dict(capacity=capacity, drain_threshold=drain_threshold)
    monkeypatch.setattr(engine, "StreamingFrontier",
                        partial(pinned_frontier, **knobs))
    _decode(entry, decoder, channels, received, noise_variance, want,
            per_subcarrier, **knobs)


@pytest.mark.filterwarnings("ignore:the compiled search core")
@pytest.mark.parametrize("entry",
                         ["decode_batch", "decode_frame", "runtime"])
@pytest.mark.parametrize("drain_threshold", [0, 3, None])
@pytest.mark.parametrize("capacity", [1, 3, 8, None])
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_numpy_step_matches_scalar_oracle(no_compiler, monkeypatch, case,
                                          capacity, drain_threshold, entry):
    """The same sweep with the core hidden, as on a box without a
    compiler: every pool — ``zigzag`` too — then runs each search
    through the decoder's scalar search in its admission tick, and this
    pins what that fallback writes into the frame's outcome rows and the
    frame result to the oracle.  (The id is older
    than the fallback: it once pinned a numpy lockstep step.)"""
    test_engine_matches_scalar_oracle(monkeypatch, case, capacity,
                                      drain_threshold, entry)
    assert tick_kernel.core() is None


@pytest.mark.parametrize("shape", [(1, 0), (0, 3), (1, 1), (1, 2), (2, 1),
                                   (1, 4), (2, 2), (4, 1)],
                         ids=lambda shape: f"S{shape[0]}xT{shape[1]}")
@pytest.mark.parametrize("enumerator", ["zigzag", "hess"])
@pytest.mark.parametrize("kind", ["hard", "soft"])
def test_tiny_and_empty_frames_match_scalar_oracle(kind, enumerator, shape):
    """T and S*T in {0, 1, 2, 4}: the sizes a batch-size cut-over used
    to route around the engine now run on it (drained by the core in
    the first tick for ``zigzag``; through the scalar search for
    ``hess``, which has no core)."""
    num_subcarriers, num_symbols = shape
    constellation, channels, received = _frame_instance(
        16, 4, 4, num_subcarriers, num_symbols, noise_scale=0.2, seed=5)
    pruning = enumerator == "zigzag"
    if kind == "soft":
        decoder = ListSphereDecoder(constellation, list_size=4,
                                    enumerator=enumerator,
                                    geometric_pruning=pruning)
        noise_variance = NOISE_VARIANCE
    else:
        decoder = SphereDecoder(constellation, enumerator=enumerator,
                                geometric_pruning=pruning)
        noise_variance = None
    want, per_subcarrier = scalar_oracle(decoder, channels, received,
                                         noise_variance)
    for entry in ("decode_batch", "decode_frame", "runtime"):
        _decode(entry, decoder, channels, received, noise_variance, want,
                per_subcarrier)


@pytest.mark.parametrize("order, dtype", [(4, np.int8), (16, np.int8),
                                          (64, np.int8), (256, np.int16)])
def test_frame_results_hold_integers_in_the_narrowest_dtype(order, dtype):
    """Resolved frames are what a streaming caller stacks up, so indices
    and list sizes leave the engine as the narrowest signed integers
    that hold them (and the ``-1`` not-found mark) — same values as the
    scalar oracle's, whatever the width; empty frames agree."""
    constellation, channels, received = _frame_instance(order, 2, 2, 2, 2,
                                                        seed=order)
    hard = SphereDecoder(constellation)
    got = hard.decode_frame(channels, received)
    assert got.symbol_indices.dtype == dtype
    assert_frames_identical(got, scalar_oracle(hard, channels, received)[0])
    # A radius that excludes every leaf: the not-found mark survives.
    shut = SphereDecoder(constellation, initial_radius_sq=1e-12)
    got = shut.decode_frame(channels, received)
    assert got.symbol_indices.dtype == dtype and not got.found.any()
    assert (got.symbol_indices == -1).all()
    assert_frames_identical(got, scalar_oracle(shut, channels, received)[0])
    for list_size, sizes_dtype in [(4, np.int8), (130, np.int16)]:
        soft = ListSphereDecoder(constellation, list_size=list_size,
                                 node_budget=400)
        got = soft.decode_frame(channels, received, NOISE_VARIANCE)
        assert got.symbol_indices.dtype == dtype
        assert got.list_sizes.dtype == sizes_dtype
        assert_frames_identical(got, scalar_oracle(
            soft, channels, received, NOISE_VARIANCE)[0])
        empty = soft.decode_frame(channels[:0], received[:, :0],
                                  NOISE_VARIANCE)
        assert empty.symbol_indices.dtype == dtype
        assert empty.list_sizes.dtype == sizes_dtype
    assert hard.decode_frame(channels[:0],
                             received[:, :0]).symbol_indices.dtype == dtype


# ----------------------------------------------------------------------
# Scheduling properties, read off a ticking frontier
# ----------------------------------------------------------------------
# (The radius policies and the refill order are observed the same way in
# tests/test_frame_engine.py and tests/test_sphere_properties.py.)

@contextmanager
def drain_sizes():
    """While the block runs, record how many searches each drain — a
    call into the compiled core with an unlimited allowance — runs to
    completion: the lanes in flight plus those it admits."""
    sizes = []
    run = tick_kernel.run

    def recording(decoder, arrays, frames, runs, running, idle, attempts,
                  cache):
        if attempts is None:                 # a run-out, not a step
            sizes.append(running + int(runs[:, 2].sum()))
        return run(decoder, arrays, frames, runs, running, idle, attempts,
                   cache)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tick_kernel, "run", recording)
        yield sizes


def in_lane_elements(pool):
    """The elements of the searches in ``pool``'s lanes (a lane's
    ``dest_of`` is its search's element in its frame)."""
    return pool.state["dest_of"][pool.active]


def _fifo_refills(frames):
    """Consume a :func:`ticking` run, checking every refill takes the
    next contiguous run of frame elements; returns ``(job, refills)``."""
    admitted = refills = 0
    job = None
    for job, pool in frames:
        in_lane = in_lane_elements(pool)
        fresh = np.sort(in_lane[in_lane >= admitted])
        if fresh.size:
            assert fresh.tolist() == list(range(admitted,
                                                admitted + fresh.size))
            admitted += fresh.size
            refills += 1
    return job, refills


@needs_core
@pytest.mark.parametrize("drain_threshold", [0, 4])
def test_tail_takes_at_most_the_drain_threshold(drain_threshold):
    """The hand-off fires once, with 1..threshold survivors; at 0 every
    search finishes in lockstep and the tail never runs."""
    constellation, channels, received = _frame_instance(16, 4, 4, 1, 12,
                                                        seed=29)
    with drain_sizes() as drains:
        for _ in ticking(SphereDecoder(constellation), channels, received,
                         drain_threshold=drain_threshold):
            pass
    if drain_threshold:
        assert len(drains) == 1 and 1 <= drains[0] <= drain_threshold
    else:
        assert drains == []


@needs_core
def test_default_drain_threshold_is_capped():
    """The hand-off point is ``capacity // 6`` up to the absolute cap,
    whatever the frame size; pools without a core have nothing to
    hand off."""
    constellation, channels, received = _frame_instance(16, 4, 4, 2, 2)
    request = FrameRequest(channels, received, SphereDecoder(constellation))
    for knobs, expected in [({}, DRAIN_THRESHOLD_CAP),
                            ({"capacity": 60}, 10), ({"capacity": 3}, 1),
                            ({"drain_threshold": 7}, 7)]:
        frontier = pinned_frontier(**knobs)
        job = FrameJob(0, request)
        frontier.submit(job)
        assert job.pool.drain_threshold == expected
    hess = SphereDecoder(constellation, enumerator="hess",
                         geometric_pruning=False)
    job = FrameJob(0, FrameRequest(channels, received, hess))
    StreamingFrontier().submit(job)
    assert job.pool.drain_threshold == 0


def test_private_frontier_is_sized_to_the_frame(monkeypatch):
    """``decode_frame`` allocates lanes for the frame it is handed, not
    the default pool size."""
    allocated = []

    class Recording(StreamingFrontier):
        def submit(self, job):
            super().submit(job)
            allocated.append(job.pool.allocated)

    monkeypatch.setattr(engine, "StreamingFrontier", Recording)
    constellation, channels, received = _frame_instance(16, 4, 4, 3, 2)
    SphereDecoder(constellation).decode_frame(channels, received)
    assert allocated == [6]


@needs_core
@pytest.mark.parametrize("kind", ["hard", "soft", "hard-shabany"])
def test_qos_hooks_cost_only_the_frame_they_touch(kind):
    """Two frames share a small, demand-grown frontier (a one-search
    frame first gives the pool one lane: lane state must survive the
    regrowth mid-search); one is degraded mid-flight and then removed.
    Its lanes come back, and the other frame still equals the scalar
    oracle.  A ``shabany`` pool has no lanes even where the core built:
    see :func:`_qos_hooks_on_a_pool_without_lanes`.  (Without the core
    nothing is mid-flight: see ``tests/test_runtime_qos.py``.)"""
    constellation, channels, received = _frame_instance(
        16, 4, 4, num_subcarriers=5, num_symbols=4, noise_scale=0.25, seed=19)
    if kind == "hard-shabany":
        _qos_hooks_on_a_pool_without_lanes(
            SphereDecoder(constellation, enumerator="shabany"), channels,
            received)
        return
    if kind == "soft":
        decoder = ListSphereDecoder(constellation, list_size=4)
        noise_variance = NOISE_VARIANCE
    else:
        decoder = SphereDecoder(constellation)
        noise_variance = None
    request = FrameRequest(channels, received, decoder, noise_variance)
    frontier = pinned_frontier(capacity=12, drain_threshold=0)
    seed = FrameJob(0, FrameRequest(channels[:1], received[:1, :1], decoder,
                                    noise_variance))
    victim, survivor = FrameJob(1, request), FrameJob(2, request)
    for job in (seed, victim, survivor):
        frontier.submit(job)
    assert victim.pool is seed.pool and seed.pool.allocated == 1
    completed = []
    for _ in range(3):
        completed += frontier.tick()
    assert frontier.in_use == 12 and victim.pool.allocated == 12
    # A budget the victim's lanes are past, but one its searches
    # admitted in the next tick cannot reach within that tick's attempt
    # allowance: they are still in lanes when it is removed.
    budget = engine._LOCKSTEP_ATTEMPTS + 1
    victim.degraded_budget = budget
    frontier.degrade(victim, budget)
    completed += frontier.tick()         # over-budget lanes stop here
    assert victim.remaining < victim.num_problems
    dropped = frontier.remove(victim)
    assert 0 < dropped <= victim.remaining
    assert frontier.remove(victim) == 0
    while not frontier.idle:
        completed += frontier.tick()
    assert completed == [seed, survivor] and frontier.in_use == 0
    want, _ = scalar_oracle(decoder, channels, received, noise_variance)
    assert_frames_identical(survivor.finalise(), want)


def _qos_hooks_on_a_pool_without_lanes(decoder, channels, received):
    """The QoS hooks on a lane-less pool (a baseline enumerator's, core
    or not), on the same small, demand-grown frontier: every tick
    finishes what it admits, so no search holds a lane between ticks;
    ``degrade`` caps only the victim's queued searches (they start under
    the shrunk budget) and ``remove`` drops only those; the survivor,
    of a more urgent class than the victim, is served first once it
    arrives and equals the scalar oracle."""
    frontier = pinned_frontier(capacity=12, drain_threshold=0)
    seed = FrameJob(0, FrameRequest(channels[:1], received[:1, :1],
                                    decoder))
    victim = FrameJob(1, FrameRequest(channels, received, decoder,
                                      priority=1))
    survivor = FrameJob(2, FrameRequest(channels, received, decoder))
    frontier.submit(seed)
    frontier.submit(victim)
    pool = victim.pool
    assert pool is seed.pool and pool.allocated == 1

    def tick(done):
        assert frontier.tick() == done
        assert frontier.in_use == 0 and pool.active.size == 0

    tick([seed])                            # the seed, 11 of the victim's 20
    assert not pool.has_core and pool.allocated == 12
    frontier.submit(survivor)
    tick([])                                # 12 of the survivor's 20
    assert (victim.remaining, survivor.remaining) == (9, 8)
    budget = engine._LOCKSTEP_ATTEMPTS + 1
    victim.degraded_budget = budget
    frontier.degrade(victim, budget)
    # The survivor's last 8, then 4 of the victim under the cap.
    tick([survivor])
    assert victim.remaining == 5
    assert frontier.remove(victim) == 5 and frontier.remove(victim) == 0
    assert frontier.idle
    # Elements 0-10 ran before the degrade, 11-14 under it.
    assert (victim.visited[11:15] <= budget).all()
    assert (victim.visited[:11] > budget).any()
    want, _ = scalar_oracle(decoder, channels, received)
    assert_frames_identical(survivor.finalise(), want)


@pytest.mark.parametrize("attempts", [1, 2, 3, 7])
def test_any_lockstep_allowance_is_the_scalar_program(monkeypatch,
                                                      attempts):
    """The attempt allowance of a lockstep tick only decides how many
    ticks a search takes.  A hard, a soft and a ``shabany`` frame (two
    core pools and a scalar one) share a small resident runtime kept in
    lockstep to the end (no drain), so every search is cut at each
    allowance's tick boundaries and lanes refill across frames; each
    frame still equals the scalar oracle bit for bit, LLRs and counters
    included."""
    monkeypatch.setattr(engine, "_LOCKSTEP_ATTEMPTS", attempts)
    constellation, channels, received = _frame_instance(
        16, 4, 4, num_subcarriers=5, num_symbols=4, noise_scale=0.25, seed=23)
    cases = [(SphereDecoder(constellation), None),
             (ListSphereDecoder(constellation, list_size=4), NOISE_VARIANCE),
             (SphereDecoder(constellation, enumerator="shabany"), None)]
    runtime = pinned_runtime(capacity=8, drain_threshold=0, max_in_flight=3)
    handles = [runtime.submit(FrameRequest(channels, received, decoder,
                                           noise_variance))
               for decoder, noise_variance in cases]
    runtime.drain()
    for handle, (decoder, noise_variance) in zip(handles, cases):
        want, _ = scalar_oracle(decoder, channels, received, noise_variance)
        assert_frames_identical(handle.result(), want)


@dataclasses.dataclass(slots=True)
class _StoredFound(FrameDecodeResult):
    """The layout a resolved hard frame replaced: ``found`` stored
    beside the distances it is derived from."""

    found: np.ndarray | None = None


def test_resolved_hard_frame_holds_only_what_it_cannot_derive():
    """A resolved hard frame is what a streaming caller keeps, so it
    stores decisions and distances only: ``found`` is derived from the
    distances (on engine, K-best and empty frames alike), no instance
    carries a ``__dict__``, every tensor owns a C-contiguous ``(T, S)``
    buffer rather than viewing an element-ordered one, and its pickle is
    smaller than the same result carrying a stored ``found`` mask."""
    constellation, channels, received = _frame_instance(16, 4, 4, 8, 4,
                                                        seed=31)
    shut = SphereDecoder(constellation, initial_radius_sq=1e-12)
    frames = {
        "hard": SphereDecoder(constellation).decode_frame(channels,
                                                          received),
        "not found": shut.decode_frame(channels, received),
        "k-best": KBestDecoder(constellation, k=4).decode_frame(channels,
                                                                received),
        "empty": SphereDecoder(constellation).decode_frame(
            channels[:0], received[:, :0]),
    }
    for label, frame in frames.items():
        assert "found" not in {field.name
                               for field in dataclasses.fields(frame)}, label
        assert not hasattr(frame, "__dict__"), label
        assert np.array_equal(frame.found, np.isfinite(frame.distances_sq))
        assert frame.found.shape == frame.symbol_indices.shape[:2], label
        for tensor in (frame.symbol_indices, frame.distances_sq):
            assert tensor.flags.c_contiguous and tensor.base is None, label
    assert frames["hard"].found.all() and frames["k-best"].found.all()
    assert not frames["not found"].found.any()
    soft = ListSphereDecoder(constellation, list_size=4).decode_frame(
        channels, received, NOISE_VARIANCE)
    for tensor in (soft.llrs, soft.symbol_indices, soft.list_sizes):
        assert tensor.flags.c_contiguous and tensor.base is None
    hard = frames["hard"]
    stored = _StoredFound(**{field.name: getattr(hard, field.name)
                             for field in dataclasses.fields(hard)},
                          found=hard.found)       # the layout it replaced
    assert len(pickle.dumps(hard)) < len(pickle.dumps(stored))
    assert np.array_equal(pickle.loads(pickle.dumps(hard)).found, hard.found)


# ----------------------------------------------------------------------
# Configurations cannot silently lie
# ----------------------------------------------------------------------

def test_column_ordering_norm_is_rejected_off_the_scalar_path():
    """Sorted QR is a scalar-``decode`` setting.  The engine
    triangularises in natural order, so every engine entry point must
    refuse a ``column_ordering="norm"`` decoder instead of searching
    different trees than the configuration names."""
    constellation, channels, received = _frame_instance(16, 4, 8, 3, 2,
                                                        seed=3)
    natural = SphereDecoder(constellation)
    ordered = SphereDecoder(constellation, column_ordering="norm")
    # The scalar path honours it: same ML decision, different tree.
    one = ordered.decode(channels[0], received[0, 0])
    assert np.array_equal(
        one.symbol_indices,
        natural.decode(channels[0], received[0, 0]).symbol_indices)

    q_stack, r_stack = triangularize_frame(channels)
    y_hat = rotate_frame(q_stack, received)
    request = FrameRequest(channels, received, ordered)
    for call in (
            lambda: ordered.decode_batch(r_stack[0], y_hat[0]),
            lambda: ordered.decode_frame(channels, received),
            lambda: UplinkRuntime().submit(request)):
        with pytest.raises(ValueError, match="column_ordering"):
            call()
    with DetectorFarm(1, backend="inline") as farm:
        with pytest.raises(ValueError, match="column_ordering"):
            farm.submit(request)


@pytest.mark.filterwarnings("ignore:the compiled search core")
@pytest.mark.parametrize("compiled", [True, False],
                         ids=["core", "no-compiler"])
def test_clamp_is_part_of_the_soft_pool_key(request, compiled):
    """The core clamps a list pool's LLRs by its decoder's ``clamp``, so
    two list decoders that differ only there must not share a pool (or
    a farm route): one runtime and one inline farm each take their
    frames interleaved, and every frame equals its own decoder's
    ``decode_frame`` bit for bit — clipped LLRs included."""
    if not compiled:
        request.getfixturevalue("no_compiler")
    constellation, channels, received = _frame_instance(16, 4, 4, 4, 3,
                                                        seed=37)
    wide, tight = (ListSphereDecoder(constellation, list_size=4, clamp=clamp)
                   for clamp in (24.0, 2.0))
    requests = [FrameRequest(channels, received, decoder, NOISE_VARIANCE)
                for decoder in (wide, tight, wide, tight)]
    want = [request.decoder.decode_frame(channels, received, NOISE_VARIANCE)
            for request in requests]
    # Both clamps bite: the LLRs differ, so a shared pool would show.
    assert np.abs(want[0].llrs).max() > 2.0
    assert not np.array_equal(want[0].llrs, want[1].llrs)
    runtime = UplinkRuntime()
    handles = [runtime.submit(request) for request in requests]
    runtime.drain()
    with DetectorFarm(1, backend="inline") as farm:
        farm_handles = [farm.submit(request) for request in requests]
        farm.drain()
        for handle in handles + farm_handles:
            assert handle.resolution == "completed"
        for got, expected in zip(handles + farm_handles, want + want):
            assert_frames_identical(got.result(), expected)


@pytest.mark.filterwarnings("ignore:the compiled search core")
@pytest.mark.parametrize("compiled", [True, False],
                         ids=["core", "no-compiler"])
def test_list_search_without_leaves_fails_the_frame(request, compiled):
    """A list search that banked no leaf (here: a radius that excludes
    every leaf) has no LLRs, so the frame refuses to finalise with the
    scalar decoder's error instead of reporting a row of ±clamp."""
    if not compiled:
        request.getfixturevalue("no_compiler")
    constellation, channels, received = _frame_instance(16, 4, 4, 3, 2,
                                                        seed=43)
    shut = ListSphereDecoder(constellation, list_size=4)
    shut.initial_radius_sq = 1e-12
    with pytest.raises(ValueError, match="found no leaves"):
        shut.decode_soft(channels[0], received[0, 0], NOISE_VARIANCE)
    with pytest.raises(ValueError, match="found no leaves"):
        shut.decode_frame(channels, received, NOISE_VARIANCE)
