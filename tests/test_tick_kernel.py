"""Differential sweeps for the compiled search core, and its loader.

Wherever the core built, every ``zigzag`` pool steps through it — two
candidate attempts per lane per tick, an unlimited allowance for the
straggler drain — and its contract is *bit-identity*
with the scalar search it replays: the scalar loop's float program per
search (reciprocal-multiply complex division, FMA-matched interference
accumulation, ``rint`` slicing, uncontracted distance update), so symbol
decisions, distances, LLRs and complexity counters must equal a run with
the core hidden (:func:`_scalar_fallback`: every pool then runs the
scalar search itself) at every entry point: ``decode_batch`` /
``decode_frame``, hard and soft, ``detect_uplink`` / ``SphereDetector``
above them, the streaming runtime and the detector farm.  A baseline
enumerator's pool (``shabany``) has no lanes, so its cells of these
sweeps pin that scalar pool to the scalar decoder one vector at a time
instead (:func:`_expected`).

The sweeps run against the real binary — ``search_core.c`` built by the
system ``cc`` at first use — and the loader tests pin how it gets
there (one compile per source hash, a private cache directory) and what
happens when it cannot: one warning, the scalar search's results, never
silence.
"""

import os
import re
import subprocess
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sphere.tick_kernel as tick_kernel
from repro.constellation import qam
from repro.detect import SphereDetector
from repro.phy.receiver import detect_uplink
from repro.runtime import FrameJob, FrameRequest, UplinkRuntime
from repro.runtime.engine import StreamingFrontier
from repro.service import DetectorFarm
from repro.sphere import ListSphereDecoder, SphereDecoder, triangularize
from repro.sphere.decoder import ENUMERATORS

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


def _expected(decoder, decode, oracle):
    """What ``decode()`` must equal.  The core runs a ``zigzag``
    decoder's searches, so its decode must equal the same decode with
    the core hidden.  A baseline enumerator's pool has no lanes, core or
    not (hiding the core would compare that scalar pool with itself), so
    its decode must equal ``oracle()``: the scalar decoder one vector at
    a time."""
    if decoder.enumerator == "zigzag":
        return _scalar_fallback(decode)
    return oracle()


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
    """Past the ctypes boundary a bad index, dtype or shape is memory
    corruption, so it is refused with ``ValueError`` first: operands by
    the wrapper (a frame's stacks and outcome arrays when its row is
    made), naming the one at fault, short trailing axes included;
    indices — an active or admitted lane, an active lane's frame row and
    element, an admission run — by the core, before it writes
    anything."""
    constellation, channels, received = _frame_instance(16, 4, 4, 2, 2)
    frontier = pinned_frontier(drain_threshold=0)
    # A six-search frame first, finished: the hard pool keeps its six
    # lanes, so two are free while the next frame's four are in flight.
    _, *warm = _frame_instance(16, 4, 4, 3, 2, seed=1)
    frontier.submit(FrameJob(2, FrameRequest(*warm,
                                             SphereDecoder(constellation))))
    while not frontier.idle:
        frontier.tick()
    hard, soft = (FrameJob(index, FrameRequest(channels, received, decoder,
                                               *extra))
                  for index, (decoder, extra) in enumerate([
                      (SphereDecoder(constellation), ()),
                      (ListSphereDecoder(constellation, list_size=4),
                       (0.05,))]))
    frontier.submit(hard)
    frontier.submit(soft)
    frontier.tick()
    pool = hard.pool
    assert pool.running == 4                 # every search mid-flight
    assert pool.allocated == 6
    nothing = np.empty((0, 4), dtype=np.int64)

    def run(pool=pool, runs=nothing, idle=0, frames=None, **swap):
        # Zero attempts: a well-formed call steps and retires nothing.
        return tick_kernel.run(
            pool.decoder, dict(pool.state, **swap),
            pool.frame_table if frames is None else frames, runs,
            pool.running, idle, 0, {})

    def refused(operand, pool=pool, **swap):
        with pytest.raises(ValueError,
                           match=f"needs {operand} as C-contiguous"):
            run(pool, **swap)

    assert run() == 0 and run(soft.pool) == 0
    state = pool.state
    # Indices, refused in the core with every array left as it was.
    before = {name: array.copy() for name, array in state.items()}
    outcomes = {name: array.copy() for name, array in hard.outcome.items()}
    slot = int(np.flatnonzero(pool.frame_table["problems"])[0])
    vacant = (slot + 1) % len(pool.frame_table)
    free = pool.allocated - pool.running     # the free stack's height
    lane = state["active"][2]
    for bad in (pool.allocated, -1):
        active = state["active"].copy()
        active[1] = bad
        with pytest.raises(ValueError, match="lane outside"):
            run(active=active)
        popped = state["free"].copy()
        popped[free - 1] = bad
        with pytest.raises(ValueError, match="lane outside"):
            run(runs=np.array([[slot, 0, 1, 9]]), idle=free, free=popped)
        # An active lane's element outside its frame (one past its
        # problems, or negative), or its frame row vacant or outside the
        # table: retiring it would write through no frame's arrays.
        for field, value in (("dest_of", hard.num_problems if bad > 0
                              else bad),
                             ("frame_of", vacant if bad > 0 else bad),
                             ("frame_of", len(pool.frame_table))):
            swapped = state[field].copy()
            swapped[lane] = value
            with pytest.raises(ValueError,
                               match="frame row is vacant, or whose "
                                     "element is outside its frame"):
                run(**{field: swapped})
    with pytest.raises(ValueError, match="lane outside"):
        run(runs=np.array([[slot, 0, 1, 9]]), idle=0)     # no free lane
    for runs in ([len(pool.frame_table), 0, 1, 9], [slot, 3, 2, 9],
                 [slot, -1, 1, 9], [(slot + 1) % len(pool.frame_table), 0,
                                    1, 9]):               # ... a vacant row
        with pytest.raises(ValueError, match="admission run outside"):
            run(runs=np.array([runs]), idle=free)
    for name, array in state.items():
        assert np.array_equal(array, before[name]), name
    for name, array in hard.outcome.items():
        assert np.array_equal(array, outcomes[name], equal_nan=True), name
    # Operands, refused by the wrapper.
    with pytest.raises(ValueError, match="needs admission runs"):
        run(runs=np.zeros((1, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="radius as C-contiguous float64"):
        run(radius=state["radius"].astype(np.float32))
    with pytest.raises(ValueError, match="exactly the arrays"):
        run(list_d=soft.pool.state["list_d"])
    without_best = dict(state)
    del without_best["best_cols"]
    with pytest.raises(ValueError, match="exactly the arrays"):
        tick_kernel.run(pool.decoder, without_best, pool.frame_table,
                        nothing, pool.running, 0, 0, {})
    refused("chosen", chosen=state["chosen"][:-1].copy())
    # Short trailing axes: the path, a frontier row, a leaf row.
    refused("path_cols", path_cols=state["path_cols"][:, :3].copy())
    refused("col_j", col_j=state["col_j"][:, :3].copy())
    refused("best_cols", best_cols=state["best_cols"][:, :2].copy())
    refused("list_cols", soft.pool,
            list_cols=soft.pool.state["list_cols"][:, :2].copy())
    # PAM positions wider than the signed byte the core reads.
    refused("axis_int", axis_int=state["axis_int"].astype(np.int64))
    refused("path_rows", path_rows=state["path_rows"].astype(np.int64))
    refused("list_rows", soft.pool,
            list_rows=soft.pool.state["list_rows"].astype(np.uint8))
    # The frame row's outcome arrays a list search's LLRs and best
    # member go to.

    def soft_row(outcomes):
        return tick_kernel.frame(
            soft.decoder, soft.num_streams, soft.r_stack, soft.y_flat,
            soft.diag_stack, soft.diag_sq_stack, soft.num_symbols,
            soft.noise_variance, outcomes)

    rows = soft.outcome
    assert soft_row(rows) == soft.pool.frame_table[0].item()
    for name in ("llrs", "best_cols"):
        with pytest.raises(ValueError,
                           match=f"needs outcome {name} as C-contiguous"):
            soft_row(dict(rows, **{name: rows[name][:, :-1]}))
    with pytest.raises(ValueError, match="exactly the outcome arrays"):
        soft_row({name: rows[name] for name in rows if name != "list_n"})
    with pytest.raises(ValueError, match="exactly the outcome arrays"):
        soft_row(hard.outcome)
    with pytest.raises(ValueError, match="needs frames as C-contiguous"):
        run(frames=pool.frame_table[::2])
    # A frontier laid out for another decoder: no pruning offsets.
    refused("axis_int", axis_int=state["axis_int"][:, :2].copy())
    # A decoder whose frontier the core does not run, on these lanes,
    # and one whose PAM positions do not fit a byte.
    shabany = SphereDecoder(constellation, enumerator="shabany")
    with pytest.raises(ValueError, match="only the zigzag frontier"):
        tick_kernel.run(shabany, state, pool.frame_table, nothing,
                        pool.running, 0, 0, {})
    with pytest.raises(ValueError, match="PAM positions in one signed byte"):
        tick_kernel.run(SphereDecoder(qam(65536)), state, pool.frame_table,
                        nothing, pool.running, 0, 0, {})


# One hostile change to what ``repro_search_run`` is handed, by kind.
_HOSTILE = ("run slot outside", "run slot vacant", "run first negative",
            "run count negative", "run past the frame", "active lane",
            "popped free lane", "frame_of vacant", "frame_of outside",
            "dest_of", "running", "idle")
_REFUSED = "search core refused ({})".format(
    "|".join(map(re.escape, tick_kernel._REFUSALS.values())))


def _outside(low, high):
    """An int64 index outside ``[low, high)``."""
    return (st.integers(-2**62, low - 1) | st.integers(high, 2**62))


@lru_cache(maxsize=None)
def _hostile_instance(soft):
    """A hard or list decoder, a six-search warm-up frame, a four-search
    frame and that frame's scalar-oracle result."""
    constellation, channels, received = _frame_instance(16, 4, 4, 3, 2,
                                                        seed=57)
    if soft:
        decoder, extra = ListSphereDecoder(constellation, list_size=4), (0.05,)
    else:
        decoder, extra = SphereDecoder(constellation), ()
    want, _ = scalar_oracle(decoder, channels[:2], received[:, :2], *extra)
    return ((channels, received, decoder, *extra),
            (channels[:2], received[:, :2], decoder, *extra), want)


@needs_core
@settings(max_examples=200, deadline=None)
@given(soft=st.booleans(), ticks=st.integers(1, 3),
       mutation=st.sampled_from(_HOSTILE),
       attempts=st.sampled_from([0, 2, None]), data=st.data())
def test_core_refuses_a_hostile_index_before_writing(soft, ticks, mutation,
                                                    attempts, data):
    """A zigzag pool, hard or list, with a frame's searches mid-flight
    and two lanes free, is handed to ``repro_search_run`` with one
    hostile index — an admission run outside the table, on a vacant row
    or past its frame; an active or popped free lane outside the pool;
    an active lane's frame row vacant or outside the table, or its
    element outside its frame (both steer the search's reads of its
    frame's stacks as well as its retirement); or running / idle counts
    the lanes cannot hold.  The core refuses it with a ``ValueError``
    before reading through it or writing anything (the sanitized run
    sees a stray read): every lane array, the frame table and the
    frame's outcome rows are byte-identical to before, and the pool,
    handed what it really holds, then ticks to idle and finalises
    bit-exact against the scalar oracle."""
    warm, frame, want = _hostile_instance(soft)
    frontier = pinned_frontier(drain_threshold=0)
    frontier.submit(FrameJob(0, FrameRequest(*warm)))
    while not frontier.idle:
        frontier.tick()
    job = FrameJob(1, FrameRequest(*frame))
    frontier.submit(job)
    for _ in range(ticks):
        frontier.tick()
    pool, table = job.pool, job.pool.frame_table
    running, idle, lanes = pool.running, pool._idle, pool.allocated
    assert (running, idle, lanes) == (4, 2, 6)
    slot, problems = pool._slot_of[id(job)], job.num_problems
    vacant = st.sampled_from(np.flatnonzero(table["problems"] == 0).tolist())
    state = {name: array.copy() for name, array in pool.state.items()}
    lane = int(state["active"][data.draw(st.integers(0, running - 1))])
    count = data.draw(st.integers(1, idle))
    first = data.draw(st.integers(0, problems - count))
    run = [slot, first, count, data.draw(st.integers(0, 99))]
    if mutation == "run slot outside":
        run[0] = data.draw(_outside(0, len(table)))
    elif mutation == "run slot vacant":
        run[0] = data.draw(vacant)
    elif mutation == "run first negative":
        run[1] = data.draw(st.integers(-2**62, -1))
    elif mutation == "run count negative":
        run[2] = data.draw(st.integers(-2**62, -1))
    elif mutation == "run past the frame":
        run[2] = data.draw(st.integers(problems - first + 1, 2**62))
    elif mutation == "active lane":
        state["active"][data.draw(st.integers(0, running - 1))] = \
            data.draw(_outside(0, lanes))
    elif mutation == "popped free lane":
        state["free"][data.draw(st.integers(idle - count, idle - 1))] = \
            data.draw(_outside(0, lanes))
    elif mutation == "frame_of vacant":
        state["frame_of"][lane] = data.draw(vacant)
    elif mutation == "frame_of outside":
        state["frame_of"][lane] = data.draw(_outside(0, len(table)))
    elif mutation == "dest_of":
        state["dest_of"][lane] = data.draw(_outside(0, problems))
    # The run is what a mutated run or popped lane needs; elsewhere a
    # well-formed one, or none.
    admit = (mutation.startswith("run") or mutation == "popped free lane"
             or data.draw(st.booleans()))
    if mutation == "running":
        running = data.draw(_outside(0, lanes - idle + 1))
    elif mutation == "idle":
        # Fewer free lanes than the runs admit, or more than are free.
        idle = data.draw(_outside(count if admit else 0, lanes - running + 1))
    runs = np.array([run] if admit else [], dtype=np.int64).reshape(-1, 4)
    held = {name: array.tobytes() for name, array in pool.state.items()}
    handed = {name: array.tobytes() for name, array in state.items()}
    frames = table.tobytes()
    outcome = {name: array.tobytes() for name, array in job.outcome.items()}
    with pytest.raises(ValueError, match=_REFUSED):
        tick_kernel.run(pool.decoder, state, table, runs, running, idle,
                        attempts, {})
    assert {name: array.tobytes()
            for name, array in pool.state.items()} == held
    assert {name: array.tobytes() for name, array in state.items()} == handed
    assert table.tobytes() == frames
    assert {name: array.tobytes()
            for name, array in job.outcome.items()} == outcome
    while not frontier.idle:
        frontier.tick()
    assert_frames_identical(job.finalise(), want)


def _preprocessing_operands():
    """Every operand of one fused ``repro_qr_run`` call, well formed."""
    _, channels, received = _frame_instance(16, 4, 4, 3, 2)
    return {"channels": channels, "received": received,
            "r_stack": np.empty((3, 4, 4), dtype=np.complex128),
            "q_stack": np.empty((3, 4, 4), dtype=np.complex128),
            "y_stack": np.empty((3, 2, 4), dtype=np.complex128),
            "diag": np.empty((3, 4)), "diag_sq": np.empty((3, 4))}


@needs_core
@pytest.mark.parametrize("operand,flaw", [
    ("channels", lambda array: array.astype(np.complex64)),
    ("channels", lambda array: np.asfortranarray(array)),
    ("received", lambda array: array[:, :2].copy()),
    ("received", lambda array: array.real.copy()),
    ("r_stack", np.asfortranarray),
    ("r_stack", lambda array: array[:, :3].copy()),
    ("q_stack", lambda array: array[:2].copy()),
    ("y_stack", lambda array: array[:, :1].copy()),
    ("y_stack", lambda array: array.astype(np.complex64)),
    ("diag", lambda array: array[:, :3].copy()),
    ("diag_sq", lambda array: array[:, ::2]),
])
def test_core_refuses_a_preprocessing_operand_it_cannot_address(operand,
                                                                 flaw):
    """The QR entry writes its stacks in place, so the wrapper checks
    every operand's dtype, C order and exact shape first (``channels``
    fixes ``S``, ``na``, ``nc``; ``received`` the symbol count): a wrong
    one is refused by name, and nothing is written."""
    operands = _preprocessing_operands()
    operands[operand] = flaw(operands[operand])
    before = {name: array.copy() for name, array in operands.items()}
    outputs = dict(operands)
    with pytest.raises(ValueError, match=f"needs {operand} as C-contiguous"):
        tick_kernel.householder(outputs.pop("channels"), 1e-9,
                                outputs.pop("r_stack"), **outputs)
    for name, array in operands.items():
        assert np.array_equal(array, before[name], equal_nan=True), name


@needs_core
@pytest.mark.parametrize("operand,flaw", [
    ("q_stack", np.asfortranarray),
    ("received", lambda array: array.astype(np.complex64)),
    ("y_stack", lambda array: array[:, :, :3].copy()),
])
def test_core_refuses_a_rotation_operand_it_cannot_address(operand, flaw):
    operands = _preprocessing_operands()
    tick_kernel.householder(operands["channels"], 1e-9, operands["r_stack"],
                            operands["q_stack"])
    rotation = {name: operands[name]
                for name in ("q_stack", "received", "y_stack")}
    rotation[operand] = flaw(rotation[operand])
    with pytest.raises(ValueError, match=f"needs {operand} as C-contiguous"):
        tick_kernel.rotate(**rotation)


@needs_core
@pytest.mark.parametrize("stack,flaw", [
    ("r_stack", lambda array: array.astype(np.complex64)),
    ("y_flat", np.asfortranarray),
    ("diag_stack", lambda array: array[:, :3].copy()),
    ("diag_sq_stack", lambda array: array[:, ::2]),
    ("outcome tally", lambda array: array[:, :4].copy()),
    ("outcome best_dist", lambda array: array[:-1].copy()),
    ("outcome best_cols", np.asfortranarray),
    ("outcome best_rows", lambda array: array.astype(np.int32)),
])
def test_frame_stacks_are_checked_when_the_pool_interns_them(stack, flaw):
    """The core reads a frame's preprocessed stacks and writes its
    outcome arrays in place whenever it admits or retires one of its
    searches, so the pool checks their dtype, contiguity and shape when
    it interns the frame: a malformed one is refused before the core
    runs."""
    constellation, channels, received = _frame_instance(16, 4, 4, 2, 2)
    job = FrameJob(0, FrameRequest(channels, received,
                                   SphereDecoder(constellation)))
    if stack.startswith("outcome "):
        name = stack.split()[1]
        job.outcome[name] = flaw(job.outcome[name])
    else:
        setattr(job, stack, flaw(getattr(job, stack)))
    frontier = StreamingFrontier()
    frontier.submit(job)
    with pytest.raises(ValueError, match=f"needs {stack} as C-contiguous"):
        frontier.tick()
    pool = job.pool
    assert pool.running == 0 and not pool.frame_table["problems"].any()


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

    def decode():
        return decoder.decode_batch(r, y_hat)

    _assert_batches_equal(decode(), _expected(
        decoder, decode, lambda: decoder._decode_batch_loop(r, y_hat)))


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

    def decode():
        return decoder.decode_frame(channels, received)

    reference = _expected(
        decoder, decode, lambda: scalar_oracle(decoder, channels,
                                               received)[0])
    _assert_identical(decode(), reference, soft=False)


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

    reference = _expected(
        decoder, decode, lambda: scalar_oracle(decoder, channels, received,
                                               0.05)[0])
    _assert_identical(decode(), reference, soft=True)


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
    frontier = StreamingFrontier(capacity=16)
    # A two-search frame first, so the pool is born with two lanes and
    # the core runs once at two (two searches are within the drain
    # threshold: one tick drains them) ...
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


_SEARCH_ROWS = {"level", "radius", "parent", "path_cols", "path_rows",
                "chosen", "tally", "lane_budget", "frame_of", "dest_of",
                "active", "free"}
_LEAF_ROWS = {False: {"best_cols", "best_rows", "best_dist"},
              True: {"list_d", "list_seq", "list_cols", "list_rows",
                     "list_n", "leaf_seq"}}
_ZIGZAG_SLOTS = {"axis_int", "axis_res", "col_d", "col_j", "last_i"}
_OUTCOME_ROWS = {False: ["tally", "best_dist", "best_cols", "best_rows"],
                 True: ["tally", "llrs", "best_cols", "best_rows", "list_n"]}


@pytest.mark.filterwarnings("ignore:the compiled search core")
@pytest.mark.parametrize("compiled", [True, False],
                         ids=["core", "no-compiler"])
@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
def test_pool_state_is_the_declared_layout_through_growth(request, soft,
                                                          compiled):
    """Where the core runs, a pool's ``state`` holds exactly the arrays
    the layout declares — the search rows with the lanes' bookkeeping,
    the decoder's leaf rows and the frontier slots — each of its
    declared dtype and shape; a pool without the core keeps no lanes at
    all.  Either way each frame owns the declared outcome rows, one per
    search.  A
    growth while searches are in flight reallocates every lane array to
    the new lane count with every existing row unchanged — what the
    core is handed in the growth tick — and the new lanes join the
    bottom of the free-lane stack."""
    if not compiled:
        request.getfixturevalue("no_compiler")
    elif tick_kernel.core() is None:
        pytest.skip("needs the compiled search core")
    constellation, channels, received = _frame_instance(16, 4, 4, 6, 4,
                                                        seed=41)
    if soft:
        decoder, extra = ListSphereDecoder(constellation, list_size=4), (0.05,)
    else:
        decoder, extra = SphereDecoder(constellation), ()
    # Four searches: the pool is born with four lanes, and ticks until
    # one of them is free again, so admission grows the pool while the
    # others are in flight and a lane is on the free stack.
    frontier = pinned_frontier(capacity=16, drain_threshold=0)
    first = FrameJob(0, FrameRequest(channels[2:3], received[:4, 2:3],
                                     decoder, *extra))
    frontier.submit(first)
    pool = first.pool
    frontier.tick()
    assert pool.has_core == compiled and pool.allocated == 4
    assert list(first.outcome) == _OUTCOME_ROWS[soft]
    assert {name: (array.dtype, array.shape)
            for name, array in first.outcome.items()} == {
        name: (np.dtype(dtype), (4,) + shape)
        for name, (dtype, shape) in tick_kernel.outcome(decoder, 4).items()}
    # In flight between ticks only where the core runs.
    assert pool.active.size == (4 if compiled else 0)
    while pool.running == 4:
        frontier.tick()
    assert 0 < pool.running < 4 if compiled else frontier.idle
    assert set(pool.state) == ((_SEARCH_ROWS | _LEAF_ROWS[soft]
                                | _ZIGZAG_SLOTS) if compiled else set())

    def declared(lanes):
        layout = tick_kernel._layout(decoder, 4, lanes)
        assert {name: (array.dtype, array.shape)
                for name, array in pool.state.items()} == {
            name: (np.dtype(dtype), shape)
            for name, (dtype, shape) in layout.items()}

    if compiled:
        declared(4)
    before = {name: array.copy() for name, array in pool.state.items()}
    idle = pool._idle
    handed = {}
    run = tick_kernel.run

    def recording(decoder, arrays, *rest):
        if not handed:
            handed.update((name, array.copy())
                          for name, array in arrays.items())
        return run(decoder, arrays, *rest)

    job = FrameJob(1, FrameRequest(channels, received, decoder, *extra))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tick_kernel, "run", recording)
        frontier.submit(job)
        frontier.tick()                    # grows before its core call
    assert pool.allocated == 16 and handed.keys() == before.keys()
    if compiled:
        declared(16)
        for name, old in before.items():
            assert handed[name].shape[0] == old.shape[0] * 4, name
            if name != "free":
                assert np.array_equal(handed[name][:old.shape[0]], old), name
        # The lanes free before the growth stay on the top of the free
        # stack in their order, with the new lanes under them in the
        # hand-out order of a pool built with 16 lanes.
        assert handed["free"][:12 + idle].tolist() == (
            list(range(15, 3, -1)) + before["free"][:idle].tolist())
    while not frontier.idle:
        frontier.tick()
    for done, frame in ((first, (channels[2:3], received[:4, 2:3])),
                        (job, (channels, received))):
        want, _ = scalar_oracle(decoder, *frame, *extra)
        assert_frames_identical(done.finalise(), want)


@needs_core
@pytest.mark.parametrize("list_size,most", [(0, 800), (16, 1150)])
def test_a_lane_holds_only_its_search(list_size, most):
    """A lane keeps its search's own state: no copy of its frame's
    channel (it reads the frame's stacks in place) and every PAM
    position in one byte.  So a 16-QAM 4x4 lane is at most ``most``
    bytes, hard or list-16, and the 2048 hard lanes of a full default
    frontier take at most 1.6 MB."""
    decoder = (ListSphereDecoder(qam(16), list_size=list_size)
               if list_size else SphereDecoder(qam(16)))
    state = tick_kernel.lanes(decoder, 4, 8)
    assert not {"r", "y", "diag", "diag_sq", "noise_var"} & set(state)
    assert sum(array.nbytes for array in state.values()) <= 8 * most


def test_per_frame_values_ride_in_the_frame_row():
    """A pool is a lane layout: ``search_t`` holds nothing a decoder sets
    per frame.  The LLR scale, clamp and initial radius are fields of a
    frame's table row, which :func:`tick_kernel.frame` fills from the
    decoder it is handed — the frame's own (a hard one has no clamp)."""
    per_frame = {"noise_var", "clamp", "initial_radius"}
    assert not per_frame & {name for name, _ in tick_kernel._Search._fields_}
    assert per_frame <= set(tick_kernel.FRAME.names)
    constellation, channels, received = _frame_instance(16, 4, 4, 2, 2)
    soft = ListSphereDecoder(constellation, list_size=4, clamp=3.5,
                             node_budget=30)
    soft.initial_radius_sq = 7.0
    for decoder, values in ((soft, (0.05, 3.5, 7.0)),
                            (SphereDecoder(constellation), (0.0, 0.0,
                                                            np.inf))):
        job = FrameJob(0, FrameRequest(channels, received, decoder,
                                       values[0] or None))
        row = np.array(tick_kernel.frame(
            decoder, 4, job.r_stack, job.y_flat, job.diag_stack,
            job.diag_sq_stack, job.num_symbols, values[0], job.outcome),
            dtype=tick_kernel.FRAME)
        assert (row["noise_var"], row["clamp"],
                row["initial_radius"]) == values


@pytest.mark.parametrize("order,dtype", [(16, np.int8), (256, np.int8),
                                         (65536, np.int16)])
def test_outcome_rows_keep_positions_as_the_lanes_do(order, dtype):
    """A frame's best-member rows hold PAM positions in the signed byte
    the lanes write them from — 2 KB for a 64 x 4 hard 4-stream frame,
    not 16 — and a side past a byte, which only the scalar search runs,
    in the narrowest integer that holds its positions."""
    for decoder in (SphereDecoder(qam(order)),
                    ListSphereDecoder(qam(order), list_size=4)):
        rows = tick_kernel.outcome(decoder, 4)
        assert rows["best_cols"] == rows["best_rows"] == (dtype, (4,))
    job = FrameJob(0, FrameRequest(*_frame_instance(16, 4, 4, 64, 4)[1:],
                                   SphereDecoder(qam(16))))
    assert job.outcome["best_cols"].nbytes + \
        job.outcome["best_rows"].nbytes == 2048


def test_a_side_past_a_byte_runs_the_scalar_search():
    """A constellation whose PAM positions do not fit a signed byte
    (65536-QAM: side 256) gets a pool without lanes, as a baseline
    enumerator's does, and its searches run the scalar decoder in the
    tick that admits them, equal to the scalar oracle."""
    constellation, channels, received = _frame_instance(65536, 2, 2, 2, 2,
                                                        noise_scale=1e-4,
                                                        seed=61)
    decoder = SphereDecoder(constellation)
    assert tick_kernel.lanes(decoder, 2, 4) == {}
    job = FrameJob(0, FrameRequest(channels, received, decoder))
    frontier = StreamingFrontier()
    frontier.submit(job)
    assert not job.pool.has_core and job.pool.drain_threshold == 0
    assert frontier.tick() == [job] and frontier.idle
    want, _ = scalar_oracle(decoder, channels, received)
    assert_frames_identical(job.finalise(), want)


@needs_core
def test_only_zigzag_pools_step_in_the_core():
    """Wherever the core built, a ``zigzag`` pool, hard or list, has
    lanes; every baseline enumerator's pool — ``shabany`` included —
    has none and runs the scalar search."""
    constellation, channels, received = _frame_instance(16, 4, 4, 2, 2)
    frontier = StreamingFrontier()
    for enumerator in ENUMERATORS:
        for decoder, extra in [
                (SphereDecoder(constellation, enumerator=enumerator,
                               geometric_pruning=False), ()),
                (ListSphereDecoder(constellation, list_size=4,
                                   enumerator=enumerator,
                                   geometric_pruning=False), (0.05,))]:
            job = FrameJob(0, FrameRequest(channels, received, decoder,
                                           *extra))
            frontier.submit(job)
            lanes = tick_kernel.lanes(decoder, 4, 2)
            assert job.pool.has_core == bool(lanes) == (
                enumerator == "zigzag"), (enumerator, decoder.list_size)


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
        (SphereDecoder(qam(4)), False),
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
