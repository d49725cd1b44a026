"""Differential sweeps for the compiled search core, and its loader.

Wherever the core built, every ``zigzag`` / ``shabany`` pool steps
through it — two candidate attempts per lane per tick, an unlimited
allowance for the straggler drain — and its contract is *bit-identity*
with the scalar search it replays: the scalar loop's float program per
search (reciprocal-multiply complex division, FMA-matched interference
accumulation, ``rint`` slicing, uncontracted distance update), so symbol
decisions, distances, LLRs and complexity counters must equal a run with
the core hidden (:func:`_scalar_fallback`: every pool then runs the
scalar search itself) at every entry point: ``decode_batch`` /
``decode_frame``, hard and soft, ``detect_uplink`` / ``SphereDetector``
above them, the streaming runtime and the detector farm.

The sweeps run against the real binary — ``search_core.c`` built by the
system ``cc`` at first use — and the loader tests pin how it gets
there (one compile per source hash, a private cache directory) and what
happens when it cannot: one warning, the scalar search's results, never
silence.
"""

import os
import subprocess
import warnings

import numpy as np
import pytest

import repro.sphere.tick_kernel as tick_kernel
from repro.constellation import qam
from repro.detect import SphereDetector
from repro.phy.receiver import detect_uplink
from repro.runtime import FrameJob, FrameRequest, UplinkRuntime
from repro.runtime.engine import StreamingFrontier
from repro.service import DetectorFarm
from repro.sphere import ListSphereDecoder, SphereDecoder, triangularize

from test_engine import (
    _frame_instance,
    assert_frames_identical,
    decode_on_frontier,
    needs_core,
    pinned_frontier,
    scalar_oracle,
)
from test_runtime import _assert_identical, _make_frame, _reference

# Tests that assert a search really went through the compiled core are
# marked needs_core; the differential sweeps run either way (without the
# binary they compare the scalar fallback with itself, which must also
# hold).


def _scalar_fallback(run):
    """``run()`` with the core hidden (as on a box without ``cc``, minus
    the warning): every pool it builds runs each search through the
    decoder's scalar search."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tick_kernel, "_core", False)
        return run()


def _block_instance(order, num_tx, num_vectors, seed=0):
    """Triangular-domain batch: one R, ``num_vectors`` observations."""
    rng = np.random.default_rng(seed)
    constellation = qam(order)
    channel = (rng.standard_normal((num_tx, num_tx))
               + 1j * rng.standard_normal((num_tx, num_tx))) / np.sqrt(2.0)
    sent = rng.integers(0, order, size=(num_vectors, num_tx))
    noise = (rng.standard_normal((num_vectors, num_tx))
             + 1j * rng.standard_normal((num_vectors, num_tx)))
    received = (constellation.points[sent] @ channel.T + 0.15 * noise)
    q, r = triangularize(channel)
    return r, received @ np.conj(q)


def _assert_batches_equal(got, ref):
    assert np.array_equal(got.found, ref.found)
    assert np.array_equal(got.symbol_indices, ref.symbol_indices)
    assert np.array_equal(got.symbols, ref.symbols)
    assert np.array_equal(got.distances_sq, ref.distances_sq)
    assert got.counters == ref.counters


# ----------------------------------------------------------------------
# The loader: one build per source hash, a private cache, a loud fallback
# ----------------------------------------------------------------------

@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded core and an empty cache root; returns the argv of
    every subprocess the loader then runs.  (monkeypatch puts the
    session's loaded core back afterwards.)"""
    monkeypatch.setattr(tick_kernel, "_core", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    calls = []
    run = subprocess.run

    def recording(argv, **kwargs):
        calls.append(argv)
        return run(argv, **kwargs)

    monkeypatch.setattr(tick_kernel.subprocess, "run", recording)
    return calls


def _compiles(calls):
    return [argv for argv in calls if "-shared" in argv]


@needs_core
def test_core_builds_once_per_cache(fresh_loader, monkeypatch, tmp_path):
    """A cold cache compiles (into a 0700 directory, under the final
    name only); a second load of the same source finds the file and
    never runs the compiler's code generator again."""
    assert tick_kernel.core() is not None
    assert len(_compiles(fresh_loader)) == 1
    cache = tmp_path / "repro-sphere"
    assert cache.stat().st_mode & 0o777 == 0o700
    built = os.listdir(cache)
    assert len(built) == 1 and built[0].startswith("search_core-")

    del fresh_loader[:]
    monkeypatch.setattr(tick_kernel, "_core", None)
    assert tick_kernel.core() is not None
    assert fresh_loader and _compiles(fresh_loader) == []
    assert os.listdir(cache) == built


@needs_core
@pytest.mark.parametrize("flaw", ["world-writable", "foreign"])
def test_untrusted_cache_directory_is_refused(fresh_loader, monkeypatch,
                                              tmp_path, flaw):
    """A cache someone else could have written to is a way to plant
    code: nothing is built into it or loaded from it."""
    cache = tmp_path / "repro-sphere"
    cache.mkdir(mode=0o700)
    if flaw == "world-writable":
        cache.chmod(0o777)
    else:
        monkeypatch.setattr(tick_kernel.os, "getuid",
                            lambda: cache.stat().st_uid + 1)
    with pytest.warns(RuntimeWarning, match="search core is unavailable"):
        assert tick_kernel.core() is None
    assert _compiles(fresh_loader) == [] and os.listdir(cache) == []
    assert tick_kernel.core() is None


@needs_core
def test_core_refuses_what_it_cannot_address():
    """Past the ctypes boundary a bad id or dtype is memory corruption,
    so the wrapper raises first."""
    constellation, channels, received = _frame_instance(16, 4, 4, 2, 2)
    job = FrameJob(0, FrameRequest(channels, received,
                                   SphereDecoder(constellation)))
    frontier = pinned_frontier(drain_threshold=0)
    frontier.submit(job)
    frontier.tick()
    pool = job.pool

    def run(ids, **swap):
        state = pool._core_arrays()
        state.update(swap)
        tick_kernel.run(pool.decoder, state, ids, np.zeros_like(ids), None,
                        {})

    run(pool.active)                       # zero budgets: a no-op
    for ids in ([pool.allocated], [-1]):
        with pytest.raises(ValueError, match="ids outside"):
            run(np.array(ids))
    with pytest.raises(ValueError, match="radius as C-contiguous float64"):
        run(pool.active, radius=pool.radius.astype(np.float32))
    with pytest.raises(ValueError, match="chosen .* one row per state"):
        run(pool.active, chosen=pool.chosen[:-1].copy())
    # A frontier laid out for another decoder: no pruning offsets.
    with pytest.raises(ValueError, match="axis_int laid out as"):
        run(pool.active, axis_int=pool.frontier["axis_int"][:, :2].copy())


def test_missing_compiler_warns_once_and_falls_back(no_compiler):
    """Without a compiler the first pool gets exactly one RuntimeWarning
    per process, saying what happens instead — and a pool without a
    core has nothing to drain."""
    constellation, channels, received = _frame_instance(16, 4, 4, 6, 3)
    request = FrameRequest(channels, received, SphereDecoder(constellation))
    with pytest.warns(RuntimeWarning,
                      match="no C compiler.*every pool runs its searches "
                            "through the scalar decoder, with the same "
                            "results") as caught:
        StreamingFrontier().submit(FrameJob(0, request))
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frontier = StreamingFrontier()
        job = FrameJob(1, request)
        frontier.submit(job)
    assert job.pool.drain_threshold == 0 and not job.pool.has_core


@pytest.mark.filterwarnings("ignore:the compiled search core")
def test_missing_compiler_keeps_results_identical(no_compiler):
    """The fallback is only a speed change: a decode without the core
    equals the scalar oracle bit for bit, and runs every search in the
    tick that admits it."""
    constellation, channels, received = _frame_instance(16, 4, 4, 6, 3)
    for decoder, extra in [
            (SphereDecoder(constellation), ()),
            (ListSphereDecoder(constellation, list_size=4), (0.05,))]:
        want, _ = scalar_oracle(decoder, channels, received, *extra)
        assert_frames_identical(
            decoder.decode_frame(channels, received, *extra), want)
        job = FrameJob(0, FrameRequest(channels, received, decoder, *extra))
        frontier = StreamingFrontier()
        frontier.submit(job)
        assert frontier.tick() == [job] and frontier.idle
        assert_frames_identical(job.finalise(), want)


def test_numpy_fma_probe_matches_fresh_samples():
    """The import-time probe's verdict holds on fresh data: the kernel's
    selected complex-multiply program reproduces numpy's exactly."""
    rng = np.random.default_rng(123)
    a = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    b = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    prod = a * b
    for k in range(512):
        ar, ai = a[k].real, a[k].imag
        br, bi = b[k].real, b[k].imag
        if tick_kernel.NUMPY_FMA:
            re = tick_kernel._fma(ar, br, -(ai * bi))
            im = tick_kernel._fma(ar, bi, ai * br)
        else:
            re = ar * br - ai * bi
            im = ar * bi + ai * br
        assert prod[k].real == re and prod[k].imag == im


# ----------------------------------------------------------------------
# Batch frontier differentials
# ----------------------------------------------------------------------

@pytest.mark.parametrize("enumerator", ["zigzag", "shabany"])
@pytest.mark.parametrize("pruning", [True, False])
@pytest.mark.parametrize("node_budget", [None, 40])
def test_batch_compiled_matches_numpy(enumerator, pruning,
                                      node_budget):
    r, y_hat = _block_instance(16, 4, 24, seed=3)
    decoder = SphereDecoder(qam(16), enumerator=enumerator,
                            geometric_pruning=pruning,
                            node_budget=node_budget)
    _assert_batches_equal(decoder.decode_batch(r, y_hat),
                          _scalar_fallback(lambda: decoder.decode_batch(r, y_hat)))


def test_batch_compiled_matches_scalar_loop():
    """The kernel against the scalar search itself, row by row."""
    r, y_hat = _block_instance(4, 4, 16, seed=5)
    decoder = SphereDecoder(qam(4))
    _assert_batches_equal(decoder.decode_batch(r, y_hat),
                          decoder._decode_batch_loop(r, y_hat))


# ----------------------------------------------------------------------
# Frame engine differentials (hard and soft)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("enumerator", ["zigzag", "shabany"])
@pytest.mark.parametrize("pruning", [True, False])
@pytest.mark.parametrize("node_budget", [None, 60])
def test_hard_frame_compiled_matches_numpy(enumerator, pruning,
                                           node_budget):
    constellation, channels, received = _frame_instance(16, 4, 4, 6, 4,
                                                        seed=7)
    decoder = SphereDecoder(constellation, enumerator=enumerator,
                            geometric_pruning=pruning,
                            node_budget=node_budget)
    reference = _scalar_fallback(lambda: decoder.decode_frame(channels, received))
    _assert_identical(decoder.decode_frame(channels, received), reference,
                      soft=False)


@pytest.mark.parametrize("drain_threshold", [0, None])
def test_hard_frame_compiled_across_drain_settings(drain_threshold):
    """The core steps every tick and, unless the threshold is 0, drains
    the stragglers too: either way each search runs the scalar loop's
    program, so the results equal the scalar fallback's."""
    constellation, channels, received = _frame_instance(16, 4, 4, 8, 3,
                                                        seed=11)
    decoder = SphereDecoder(constellation)

    def decode():
        return decode_on_frontier(decoder, channels, received,
                                  drain_threshold=drain_threshold)

    _assert_identical(decode(), _scalar_fallback(decode), soft=False)


@pytest.mark.parametrize("enumerator", ["zigzag", "shabany"])
@pytest.mark.parametrize("list_size", [4, 8])
@pytest.mark.parametrize("node_budget", [None, 80])
def test_soft_frame_compiled_matches_numpy(enumerator,
                                           list_size, node_budget):
    constellation, channels, received = _frame_instance(16, 4, 4, 5, 3,
                                                        seed=13)
    decoder = ListSphereDecoder(constellation, list_size=list_size,
                                enumerator=enumerator,
                                node_budget=node_budget)

    def decode():
        return decoder.decode_frame(channels, received, 0.05)

    _assert_identical(decode(), _scalar_fallback(decode), soft=True)


@needs_core
@pytest.mark.parametrize("soft", [False, True])
def test_compiled_core_follows_a_grown_pool(soft):
    """The core works in place on the pool's frontier and lane arrays, and
    a pool that grows on demand between two core calls reallocates every
    one of them: the later calls must run on the new arrays and still
    equal the scalar oracle bit for bit."""
    constellation, channels, received = _frame_instance(16, 4, 4, 6, 4,
                                                        seed=41)
    if soft:
        decoder, extra = ListSphereDecoder(constellation, list_size=4), (0.05,)
    else:
        decoder, extra = SphereDecoder(constellation), ()
    frontier = StreamingFrontier(capacity=16, initial_lanes=2)
    # A two-search frame first, so the core runs once at two lanes (two
    # searches are within the drain threshold: one tick drains them) ...
    small = FrameJob(0, FrameRequest(channels[:1], received[:2, :1],
                                     decoder, *extra))
    frontier.submit(small)
    frontier.tick()
    pool = small.pool
    assert frontier.idle and pool.has_core and pool.allocated == 2
    # ... then 24 searches into the same pool: a demand-driven _grow,
    # lockstep steps in the core on the new arrays, then the drain.
    job = FrameJob(1, FrameRequest(channels, received, decoder, *extra))
    frontier.submit(job)
    while not frontier.idle:
        frontier.tick()
    assert job.pool is pool and pool.allocated == 16
    want, _ = scalar_oracle(decoder, channels, received, *extra)
    assert_frames_identical(job.finalise(), want)


# ----------------------------------------------------------------------
# Streaming runtime differentials
# ----------------------------------------------------------------------

def test_runtime_compiled_matches_decode_frame():
    """Mixed hard/soft stream through one runtime: every frame equals
    standalone ``decode_frame`` on the scalar fallback, counters
    included, and the tick telemetry times the core as kernel work (a
    small share on frames this small: admission and retirement are
    numpy, the searches microseconds)."""
    rng = np.random.default_rng(23)
    decoders = [
        (SphereDecoder(qam(16)), False),
        (SphereDecoder(qam(4), enumerator="shabany"), False),
        (ListSphereDecoder(qam(16), list_size=4), True),
    ]
    frames = [_make_frame(decoder, 6, 3, 18.0, rng, soft=soft)
              for decoder, soft in decoders for _ in range(2)]
    references = _scalar_fallback(lambda: [_reference(frame) for frame in frames])

    runtime = UplinkRuntime()
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    for handle, frame, reference in zip(handles, frames, references):
        _assert_identical(handle.result(), reference,
                          soft=frame.noise_variance is not None)
    assert 0.0 < runtime.stats.kernel_time_fraction() <= 1.0


def test_runtime_compiled_honours_node_budget():
    """Budgeted searches stop at the same node inside the core as in
    the scalar search (the loop-top check is the same check)."""
    rng = np.random.default_rng(29)
    decoder = SphereDecoder(qam(16), node_budget=50)
    frames = [_make_frame(decoder, 6, 3, 16.0, rng) for _ in range(3)]
    references = _scalar_fallback(lambda: [_reference(frame) for frame in frames])
    runtime = UplinkRuntime()
    handles = [runtime.submit(frame) for frame in frames]
    runtime.drain()
    for handle, reference in zip(handles, references):
        _assert_identical(handle.result(), reference, soft=False)


# ----------------------------------------------------------------------
# Receiver, adapter and farm plumbing
# ----------------------------------------------------------------------

def test_detect_uplink_compiled_matches_numpy():
    constellation, channels, received = _frame_instance(16, 4, 4, 6, 3,
                                                        seed=31)
    detector = SphereDetector(SphereDecoder(constellation))

    def detect():
        return detect_uplink(channels, received, detector, 0.05)

    reference, compiled = _scalar_fallback(detect), detect()
    assert np.array_equal(compiled.symbol_indices,
                          reference.symbol_indices)
    assert compiled.counters == reference.counters


def test_farm_compiled_matches_decode_frame():
    rng = np.random.default_rng(37)
    decoders = [
        (SphereDecoder(qam(16)), False),
        (ListSphereDecoder(qam(4), list_size=4), True),
    ]
    frames = [_make_frame(decoder, 6, 3, 18.0, rng, soft=soft)
              for decoder, soft in decoders for _ in range(2)]
    references = _scalar_fallback(lambda: [_reference(frame) for frame in frames])
    with DetectorFarm(2, backend="inline") as farm:
        handles = [farm.submit(frame) for frame in frames]
        farm.drain()
    for handle, frame, reference in zip(handles, frames, references):
        _assert_identical(handle.result(), reference,
                          soft=frame.noise_variance is not None)
