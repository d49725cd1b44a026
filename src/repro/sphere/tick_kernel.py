"""The compiled search core: build, load, run.

``search_core.c`` next to this module is the depth-first search's
per-search state machine in C, and :func:`run` runs it: each listed
search gets an allowance of candidate attempts in one native call, *in
place* on the arrays its pool holds for it (:func:`lanes`: every array a
search owns is laid out here and nowhere else in Python), from whatever
state the last call left it in, and comes back flagged if it finished.
Admission only writes a search's channel copy and :func:`fresh` values:
the core expands its root, with the same program as every other node,
before its first attempt.
The lockstep engine (:mod:`repro.runtime.engine`) makes two uses of that
one loop: an allowance of two is a pool's **lockstep step**, an
unlimited one finishes a pool's last few stragglers (the drain).

The same file holds the batched Viterbi trellis, and :func:`trellis`
runs it: the add-compare-select over every state, step and block, then
the traceback, on pattern costs numpy computed and into buffers the
caller allocated (:func:`repro.coding.viterbi.viterbi_decode_soft_batch`
is the one caller).  Its float program — two separate adds per state,
the second candidate taken only when strictly smaller — is the scalar
trellis sweep's ``np.where`` program, so decisions are bit-identical.

Why any allowance is the same program
-------------------------------------
Each search is an independent state machine; the lockstep tick is only
an interleaving.  One attempt is one iteration of the scalar loop
(:meth:`~repro.sphere.decoder.SphereDecoder._search`, the one loop of
the hard and the list decoder, whose leaf policy is the decoder's
``list_size`` as it is the core's: a ``next_candidate`` step — got or
stack pop), so whatever the allowance,
the core executes the scalar loop's iterations in order, just
interleaved with other searches': the node budget is re-checked before
every attempt (the scalar loop's check), radius and enumerator state are
private to the search, and every float op is the one the scalar search
performs through numpy (the list heads ``search_core.c``: reciprocal
multiply for complex-by-real division, the FMA-contracted or plain
complex product as the :data:`NUMPY_FMA` probe selects, uncontracted
``parent + scale * dist_sq``, ``rint`` slicing).  Results, LLRs and
``ComplexityCounters`` are therefore bit-identical from any hand-off
point — ``tests/test_tail.py`` drains a search after every number of
lockstep ticks, from zero (a fresh root) on.

Build, cache and fallback
-------------------------
Nothing is compiled at import.  The first pool that wants the core
(:func:`core`) builds it with the system ``cc`` (``-O2 -shared -fPIC
-ffp-contract=off``; never ``-ffast-math`` or ``-march=native``) into
``$XDG_CACHE_HOME/repro-sphere`` (default ``~/.cache``) — created 0700,
refused unless owned by the caller and closed to group and world — under
a name keyed by the sha256 of source, ``cc --version`` and flags, written
to a temporary name and ``os.replace``d, so later processes just load
it.  Only ``zigzag`` and ``shabany`` searches run in the core (they are
Geosphere's and the hot ones).  Every other pool — ``hess`` /
``exhaustive``, or any pool on a box without a compiler (one
``RuntimeWarning``, for the search and the trellis together) or after a
failed build — runs each search through the scalar decoder itself, and
without the core the batched Viterbi decodes its rows through the
scalar trellis: only speed changes, never results.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from fractions import Fraction
from operator import is_
from pathlib import Path

import numpy as np

from ..constellation.gray import gray_encode, int_to_bits
from ..utils.validation import require
from .batch import zigzag_order_table

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMPY_FMA",
    "core",
    "fresh",
    "lanes",
    "run",
    "trellis",
]

#: The compiled executor is the C core, never Numba; the name stays
#: because the benchmark ladder records it.
NUMBA_AVAILABLE = False


def _fma(a: float, b: float, c: float) -> float:
    """Correctly rounded ``a * b + c``, by exact rational arithmetic
    (the probe's reference; the core calls libm's ``fma``)."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def _numpy_multiply_uses_fma() -> bool:
    """Probe which complex-multiply program the installed numpy emits.

    numpy's SIMD loop contracts each component's first product into an
    FMA on hardware that has one; builds or machines without it emit
    the plain mul-sub program.  The core must mirror whichever the
    scalar search's ``np.multiply`` actually runs, so probe once at
    import.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    prod = a * b
    for k in range(64):
        ar, ai = a[k].real, a[k].imag
        br, bi = b[k].real, b[k].imag
        if (prod[k].real != _fma(ar, br, -(ai * bi))
                or prod[k].imag != _fma(ar, bi, ai * br)):
            return False
    return True


#: True when numpy's complex multiply matches the FMA-contracted
#: program; the core's interference accumulation follows this flag.
NUMPY_FMA = _numpy_multiply_uses_fma()


# ---------------------------------------------------------------------------
# Build and load
# ---------------------------------------------------------------------------

_SOURCE = Path(__file__).with_name("search_core.c")
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: ``search_t`` of ``search_core.c``, field for field: every array the
#: core touches and the dtype it must have.  The constellation tables
#: come from the decoder; the rest a pool holds, laid out by
#: :func:`_layout`.  All C-contiguous, except the five tallies, which are
#: the columns of one ``(searches, 5)`` array (``tally``) ...
_F, _I, _B, _C = np.float64, np.int64, np.bool_, np.complex128
_ARRAYS = {
    "levels": _F, "zigzag": _I, "prune": _F, "bits": np.uint8,
    "axis_int": _I, "axis_res": _F, "queue_d": _F, "queue_i": _I,
    "queue_j": _I, "queue_n": _I, "last_i": _I, "last_j": _I,
    "has_last": _B, "seen": _B,
    "r": _C, "y": _C, "diag": _F, "diag_sq": _F, "noise_var": _F,
    "level": _I, "radius": _F, "parent": _F,
    "path_cols": _I, "path_rows": _I, "chosen": _C,
    "best_cols": _I, "best_rows": _I, "best_dist": _F,
    "list_d": _F, "list_seq": _I, "list_cols": _I, "list_rows": _I,
    "list_n": _I, "leaf_seq": _I, "llrs": _F,
    "ped": _I, "visited": _I, "expanded": _I, "leaves": _I, "prunes": _I,
}
_TALLIES = ("ped", "visited", "expanded", "leaves", "prunes")
#: ... then its dimensions and policy switches.
_INTEGERS = ("tally_stride", "num_streams", "side", "queue_capacity",
             "list_size", "use_fma")


def _searches(decoder, num_streams: int) -> dict:
    """The arrays a search owns one row of: each ``search_t`` field's
    shape past the search axis, and the value admission writes into a
    fresh search's row (``None``: none — the channel copies and a list
    search's ``noise_var`` come from the frame, a search writes each
    level's path and decided symbol before reading them, and a list
    search writes its best member and ``llrs`` when it finishes).

    A fresh search sits above its root (``level == num_streams``; the
    core expands the root first) under the decoder's initial radius,
    with zeroed tallies and an empty leaf: no best leaf (``-1`` symbols
    at ``inf``) for a hard decoder, an empty list of ``list_size``
    leaves for a list decoder.  A finished list search leaves its lane
    with its best member (``best_cols`` / ``best_rows``) and its
    max-log LLRs (``llrs``, ``num_streams * bits_per_symbol`` wide),
    computed from its list by the core or, in a pool without it, by
    :func:`~repro.sphere.soft.soft_outputs_from_lists`.
    """
    n = num_streams
    fields = {
        "r": ((n, n), None), "y": ((n,), None),
        "diag": ((n,), None), "diag_sq": ((n,), None),
        "level": ((), n), "radius": ((), decoder.initial_radius_sq),
        "parent": ((n,), None), "path_cols": ((n,), None),
        "path_rows": ((n,), None), "chosen": ((n,), None),
        "tally": ((len(_TALLIES),), 0),
    }
    if not decoder.list_size:
        return dict(fields, best_cols=((n,), -1), best_rows=((n,), -1),
                    best_dist=((), np.inf))
    size = decoder.list_size
    width = n * decoder.constellation.bits_per_symbol
    return dict(fields, noise_var=((), None), best_cols=((n,), None),
                best_rows=((n,), None), list_d=((size,), np.inf),
                list_seq=((size,), 0), list_cols=((size, n), 0),
                list_rows=((size, n), 0), list_n=((), 0), leaf_seq=((), 0),
                llrs=((width,), None))


def _slots(decoder) -> dict:
    """The frontier's layout: each slot field's shape past the slot
    axis (a search owns ``num_streams`` slots, one per tree level), for
    ``decoder``'s enumerator, PAM side and pruning.

    Both axes' zigzag tables of a node sit in one row — ``axis_int`` is
    ``[ord_i, ord_q]`` (``[ord_i, off_i, ord_q, off_q]`` with a pruning
    table), ``axis_res`` ``[res_i, res_q]`` — then the queue:

    * ``zigzag`` — Geosphere's column form.  Its 2-D zigzag keeps at
      most one queued candidate per entered PAM column (paper section
      3.1.1, the sqrt(|O|) queue bound), so a slot's queue is a row of
      ``side`` distances (``queue_d``, ``inf`` = none queued) and row
      pointers (``queue_j``), plus the column handed out last
      (``last_i``, ``-1`` = none) whose successors are still deferred;
    * ``shabany`` — both successors every time behind a ``seen`` grid,
      so a column can hold several candidates: a bounded unordered heap
      (``queue_d`` / ``queue_i`` / ``queue_j``, ``queue_n`` occupied)
      and the last pop (``last_i`` / ``last_j`` / ``has_last``).  The
      queued cells form (near-)antichains of the position grid, so the
      heap stays O(side); the core's overflow check keeps the bound
      honest.

    A slot needs no fresh value: the core rewrites it whole when it
    expands a node into it, before anything reads it.
    """
    side = decoder.constellation.levels.shape[0]
    axes = {"axis_int": (2 if decoder._pruner is None else 4, side),
            "axis_res": (2, side)}
    if decoder.enumerator == "zigzag":
        return dict(axes, queue_d=(side,), queue_j=(side,), last_i=())
    capacity = 2 * side + 4
    return dict(axes, queue_d=(capacity,), queue_i=(capacity,),
                queue_j=(capacity,), queue_n=(), last_i=(), last_j=(),
                has_last=(), seen=(side * side,))


def _layout(decoder, num_streams: int, count: int,
            frontier: bool = True) -> dict:
    """Every array ``count`` searches of ``decoder`` own, as ``name:
    (dtype, shape)`` — their rows, then (with ``frontier``) their
    frontier slots."""
    # ``tally`` is no search_t field; its five int64 columns are.
    layout = {name: (_ARRAYS.get(name, _I), (count,) + shape)
              for name, (shape, _) in _searches(decoder, num_streams).items()}
    if frontier:
        layout.update((name, (_ARRAYS[name], (count * num_streams,) + shape))
                      for name, shape in _slots(decoder).items())
    return layout


class _Search(ctypes.Structure):
    _fields_ = ([(name, ctypes.c_void_p) for name in _ARRAYS]
                + [(name, ctypes.c_int64) for name in _INTEGERS]
                + [("axis_scale", ctypes.c_double),
                   ("clamp", ctypes.c_double)])


@functools.cache
def _gray_bits(side: int, bits_per_axis: int) -> np.ndarray:
    """``(side, bits_per_axis)`` Gray labels of the PAM positions, MSB
    first — row ``p`` is the bits a list leaf's column or row ``p``
    carries in :func:`~repro.sphere.soft.stacked_list_bits`.  Cached and
    read-only: a marshalled ``search_t`` points into it."""
    table = int_to_bits(gray_encode(np.arange(side)), bits_per_axis)
    table.setflags(write=False)
    return table


def _compiler() -> str:
    path = shutil.which("cc")
    if path is None:
        raise OSError("no C compiler ('cc') on PATH")
    return path


def _cache_dir() -> Path:
    """The per-user build cache, private to the caller: a directory
    someone else could write to is a way to plant code, so it is
    refused rather than trusted."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(root, "repro-sphere")
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = path.stat()
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        raise OSError(f"build cache {path} is not owned by the caller or "
                      "is group/world-writable")
    return path


def _build():
    """Compile ``search_core.c`` into the cache unless this exact
    source / compiler / flags combination is already there, and load
    it, its two entry points typed."""
    cc = _compiler()
    version = subprocess.run([cc, "--version"], capture_output=True,
                             check=True).stdout
    key = hashlib.sha256(b"\0".join(
        [_SOURCE.read_bytes(), version, " ".join(_CFLAGS).encode()]))
    library = _cache_dir() / f"search_core-{key.hexdigest()[:32]}.so"
    if not library.exists():
        handle, scratch = tempfile.mkstemp(dir=library.parent, suffix=".so")
        os.close(handle)
        try:
            subprocess.run([cc, *_CFLAGS, "-o", scratch, str(_SOURCE), "-lm"],
                           capture_output=True, check=True)
            os.replace(scratch, library)
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
    loaded = ctypes.CDLL(str(library))
    loaded.repro_search_size.argtypes = []
    loaded.repro_search_size.restype = ctypes.c_int64
    if loaded.repro_search_size() != ctypes.sizeof(_Search):
        raise OSError("search_t and its ctypes mirror differ in size")
    search = loaded.repro_search_run
    search.argtypes = [ctypes.POINTER(_Search), ctypes.c_int64,
                       ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                       ctypes.c_void_p]
    search.restype = ctypes.c_int
    viterbi = loaded.repro_trellis_run
    viterbi.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 4
                        + [ctypes.c_void_p] * 5)
    viterbi.restype = None
    return loaded


#: The loaded library; ``False`` once a build or load has failed.
_core = None


def core():
    """The core library — its entry points ``repro_search_run`` and
    ``repro_trellis_run`` — built and loaded at first use, or ``None``
    (after one ``RuntimeWarning``) where that is impossible: no
    compiler, a failed build, an untrustworthy cache directory."""
    global _core
    if _core is None:
        try:
            _core = _build()
        except (OSError, subprocess.SubprocessError) as error:
            _core = False
            warnings.warn(
                f"the compiled search core is unavailable ({error}); "
                "the batched Viterbi decodes row by row and "
                "every pool runs its searches through the scalar decoder, "
                "with the same results",
                RuntimeWarning, stacklevel=2)
    return _core or None


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def lanes(decoder, num_streams: int, count: int) -> dict:
    """Every array ``count`` searches of ``decoder`` own, keyed by
    ``search_t`` field (the five tallies packed as ``tally``), one row
    per search — plus, where the core runs ``decoder``'s searches
    (``zigzag`` / ``shabany`` on a box where it could be built), their
    frontier slots, ``num_streams`` rows per search.  Without slots a
    pool runs each search through the scalar decoder instead.

    Rows start zeroed: admission writes a search's channel copy and its
    :func:`fresh` values before the search first runs.
    """
    frontier = (decoder.enumerator in ("zigzag", "shabany")
                and core() is not None)
    return {name: np.zeros(shape, dtype)
            for name, (dtype, shape)
            in _layout(decoder, num_streams, count, frontier).items()}


def fresh(decoder, num_streams: int) -> dict:
    """The value admission writes into each of a fresh search's rows of
    :func:`lanes` that has one (see :func:`_searches`)."""
    return {name: value
            for name, (_, value) in _searches(decoder, num_streams).items()
            if value is not None}


def _marshal(decoder, arrays: dict):
    """``arrays`` and ``decoder``'s constellation tables as a
    ``search_t``, plus the exclusive bound of the ids it may be run
    with.  Checked here, once per set of arrays: past this point a
    wrong dtype, a strided view, a short axis or a frontier laid out
    for another decoder is memory corruption, not an exception.  ``r``
    fixes the stream count and ``level`` the search count; every
    operand must then have exactly its :func:`lanes` shape."""
    levels = decoder.constellation.levels
    side = levels.shape[0]
    count, num_streams = arrays["level"].shape[0], arrays["r"].shape[-1]
    layout = _layout(decoder, num_streams, count)
    require(arrays.keys() == layout.keys(),
            f"search core needs exactly the arrays {sorted(layout)}")
    tables = {"levels": (levels, (side,)),
              "zigzag": (zigzag_order_table(side), (side, 2, side))}
    if decoder._pruner is not None:
        tables["prune"] = (decoder._pruner.table, (side, side))
    if decoder.list_size:
        width = decoder.constellation.bits_per_axis
        tables["bits"] = (_gray_bits(side, width), (side, width))
    fields = {name: _address(array, _ARRAYS[name], shape, name)
              for name, (array, shape) in tables.items()}
    fields.update((name, _address(arrays[name], dtype, shape, name))
                  for name, (dtype, shape) in layout.items())
    tally = fields.pop("tally")
    fields.update((name, tally + column * arrays["tally"].itemsize)
                  for column, name in enumerate(_TALLIES))
    search = _Search(
        tally_stride=len(_TALLIES), num_streams=num_streams, side=side,
        queue_capacity=arrays["queue_d"].shape[1],
        list_size=decoder.list_size,
        use_fma=NUMPY_FMA,
        axis_scale=float(levels[1] - levels[0]) / 2.0 if side > 1 else 1.0,
        clamp=decoder.clamp if decoder.list_size else 0.0,
        **fields)
    return search, count


#: An attempt allowance no search outlasts: run to completion.
_TO_COMPLETION = np.iinfo(np.int64).max


def _address(array, dtype, shape: tuple, what: str,
             limit: int | None = None) -> int:
    """Address of an operand, checked for all the core assumes of it:
    C-contiguous ``dtype`` of exactly ``shape`` — and, with a ``limit``,
    every entry an index in ``[0, limit)``.  (The messages are built
    only on failure: this runs twice per pool per tick.)"""
    if not (array.dtype == dtype and array.flags.c_contiguous
            and array.shape == shape):
        raise ValueError(f"search core needs {what} as C-contiguous "
                         f"{np.dtype(dtype).name} of shape {shape}")
    if not (limit is None or array.size == 0
            or (array.min() >= 0 and array.max() < limit)):
        raise ValueError(f"{what} outside [0, {limit}), the range the "
                         "search core indexes")
    return array.ctypes.data


def run(decoder, arrays: dict, ids, caps, attempts, cache: dict
        ) -> np.ndarray:
    """Advance the listed searches of ``decoder`` in one native call;
    returns the finished-search mask.

    ``arrays`` holds the searches' state as :func:`lanes` lays it out:
    their channel copies (``r``, ``y``, ``diag``, ``diag_sq``), search
    path (``level``, ``radius``, ``parent``, ``path_cols``,
    ``path_rows``, ``chosen``), the packed tallies, the leaf policy's
    rows — ``best_*`` for a hard search; ``list_*``, ``leaf_seq``,
    ``noise_var``, ``best_cols`` / ``best_rows`` and ``llrs`` for a list
    search — and their frontier slots.  Each id in ``ids``
    indexes one search's rows of all of them (its frontier slots are
    ``id * num_streams + level``); ``caps`` are absolute node budgets.  A
    search whose ``level`` is ``num_streams`` — fresh from admission —
    has its root expanded first; then it gets ``attempts`` candidate
    attempts: 2 is its share of a lockstep tick, ``None`` runs it to
    completion.  On return its leaf, tallies, path state and frontier
    rows are what that many iterations of the scalar loop would have
    left, and the mask flags the searches that finished: tree exhausted
    or cap reached.  A list search that finished has its best member
    in ``best_cols`` / ``best_rows`` and its max-log LLRs in ``llrs``
    (the float program of
    :func:`~repro.sphere.soft.soft_outputs_from_lists`, under the
    decoder's ``clamp`` and the row's ``noise_var``).  A search already
    at its cap finishes in the call with no attempt, so a shrunk budget
    takes effect in the next call.

    One call per pool per tick, so whatever can be checked once is:
    taking ~40 array addresses costs more than a tick's searches and a
    pool passes the same arrays tick after tick (until it grows), so the
    marshalled ``search_t`` is kept in the caller's ``cache`` together
    with the arrays it points into, and reused while every operand is
    still the same object.
    """
    library = core()
    require(library is not None, "the compiled search core is unavailable")
    operands = (decoder, *arrays.values())
    held, search, limit = cache.get("search_t", ((), None, 0))
    if len(held) != len(operands) or not all(map(is_, held, operands)):
        search, limit = _marshal(decoder, arrays)
        cache["search_t"] = operands, search, limit
    count = ids.size
    done = np.empty(count, dtype=np.bool_)
    if library.repro_search_run(
            search, count, _address(ids, _I, (count,), "search ids", limit),
            _address(caps, _I, (count,), "node budgets"),
            _TO_COMPLETION if attempts is None else attempts,
            done.ctypes.data):
        raise RuntimeError("frontier queue capacity exceeded; "
                           "the enumeration invariant was violated")
    return done


def trellis(costs, pattern_from0, pattern_from1, backpointers, metrics,
            decisions) -> None:
    """Run the batched Viterbi trellis in one native call, writing the
    decisions of every trellis step of every block into ``decisions``.

    ``costs`` is the ``(blocks, steps, patterns)`` float64 stack of
    pattern costs (:func:`repro.coding.viterbi._pattern_costs`);
    ``pattern_from0`` / ``pattern_from1`` are the ``(states,)`` int64
    expected-output patterns of each state's two incoming transitions
    (from predecessor ``2 * (t % half)`` and the one after it); the
    caller allocates the ``(steps, states)`` uint8 backpointer scratch,
    the ``(2, states)`` float64 path metrics and the ``(blocks, steps)``
    uint8 decisions.
    Every operand is checked first: past the ctypes boundary a wrong
    dtype, a strided view, a short buffer or an out-of-range pattern
    index is memory corruption, not an exception.
    """
    library = core()
    require(library is not None, "the compiled search core is unavailable")
    require(costs.ndim == 3, "trellis costs must be (blocks, steps, patterns)")
    blocks, steps, patterns = costs.shape
    states = pattern_from0.shape[0] if pattern_from0.ndim == 1 else 0
    require(states >= 2 and states % 2 == 0,
            "trellis pattern tables need an even number of states")
    library.repro_trellis_run(
        _address(costs, _F, (blocks, steps, patterns), "trellis costs"),
        blocks, steps, patterns, states,
        _address(pattern_from0, _I, (states,), "pattern_from0", patterns),
        _address(pattern_from1, _I, (states,), "pattern_from1", patterns),
        _address(backpointers, np.uint8, (steps, states), "backpointers"),
        _address(metrics, _F, (2, states), "path metrics"),
        _address(decisions, np.uint8, (blocks, steps), "decisions"))
