"""The compiled search core: build, load, run.

``search_core.c`` next to this module is the depth-first search's
per-search state machine in C, and :func:`run` runs it: each listed
search gets an allowance of candidate attempts in one native call, *in
place* on the pool's frontier arrays (:func:`frontier`; their layout is
declared here and nowhere else in Python) and lane arrays, from whatever
state the last call left it in, and comes back flagged if it finished.
Admission only writes a search's lane rows: the core expands its root,
with the same program as every other node, before its first attempt.
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
(:meth:`~repro.sphere.decoder.SphereDecoder._search`: a
``next_candidate`` step — got or stack pop), so whatever the allowance,
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

from ..utils.validation import require
from .batch import zigzag_order_table

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMPY_FMA",
    "core",
    "frontier",
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
#: core touches, the dtype it must have and what its leading dimension
#: counts — searches, frontier slots (one per search and tree level), or
#: nothing (the constellation tables).  All C-contiguous, except the
#: tallies, which share ``tally_stride`` ...
_F, _I, _B, _C = np.float64, np.int64, np.bool_, np.complex128
_ARRAYS = {
    "levels": (_F, None), "zigzag": (_I, None), "prune": (_F, None),
    "axis_int": (_I, "slot"), "axis_res": (_F, "slot"),
    "queue_d": (_F, "slot"), "queue_i": (_I, "slot"),
    "queue_j": (_I, "slot"), "queue_n": (_I, "slot"),
    "last_i": (_I, "slot"), "last_j": (_I, "slot"),
    "has_last": (_B, "slot"), "seen": (_B, "slot"),
    "r": (_C, "state"), "y": (_C, "state"), "diag": (_F, "state"),
    "diag_sq": (_F, "state"),
    "level": (_I, "state"), "radius": (_F, "state"), "parent": (_F, "state"),
    "path_cols": (_I, "state"), "path_rows": (_I, "state"),
    "chosen": (_C, "state"),
    "best_cols": (_I, "state"), "best_rows": (_I, "state"),
    "best_dist": (_F, "state"),
    "list_d": (_F, "state"), "list_seq": (_I, "state"),
    "list_cols": (_I, "state"), "list_rows": (_I, "state"),
    "list_n": (_I, "state"), "leaf_seq": (_I, "state"),
    "ped": (_I, "state"), "visited": (_I, "state"),
    "expanded": (_I, "state"), "leaves": (_I, "state"),
    "prunes": (_I, "state"),
}
_TALLIES = ("ped", "visited", "expanded", "leaves", "prunes")
#: ... then its dimensions and policy switches.
_INTEGERS = ("tally_stride", "num_streams", "side", "queue_capacity",
             "list_size", "use_fma")


def _frontier_shapes(decoder) -> dict:
    """The frontier's layout: each slot field's shape past the slot
    axis, for ``decoder``'s enumerator, PAM side and pruning.

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


class _Search(ctypes.Structure):
    _fields_ = ([(name, ctypes.c_void_p) for name in _ARRAYS]
                + [(name, ctypes.c_int64) for name in _INTEGERS]
                + [("axis_scale", ctypes.c_double)])


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

def frontier(decoder, num_slots: int) -> dict | None:
    """The frontier arrays the core runs ``decoder``'s searches on,
    ``num_slots`` rows each and keyed by ``search_t`` field — or
    ``None`` where there are none: a ``hess`` / ``exhaustive`` decoder,
    or a box where the core could not be built.

    Rows start zeroed: the core rewrites a slot whole when it expands a
    node into it, before anything reads it, so the fill is never seen.
    """
    if decoder.enumerator not in ("zigzag", "shabany") or core() is None:
        return None
    return {name: np.zeros((num_slots,) + shape, dtype=_ARRAYS[name][0])
            for name, shape in _frontier_shapes(decoder).items()}


def _marshal(decoder, arrays: dict):
    """``arrays`` and ``decoder``'s constellation tables as a
    ``search_t``, plus the exclusive bound of the ids it may be run
    with.  Checked here, once per set of arrays: past this point a
    wrong dtype, a strided view, a short array or a frontier laid out
    for another decoder is memory corruption, not an exception."""
    levels = decoder.constellation.levels
    side = levels.shape[0]
    arrays = dict(arrays, levels=levels, zigzag=zigzag_order_table(side))
    if decoder._pruner is not None:
        arrays["prune"] = decoder._pruner.table
    num_streams = arrays["path_cols"].shape[1]
    count = arrays["level"].shape[0]
    extent = {"state": count, "slot": count * num_streams}
    fields = {}
    for name, array in arrays.items():
        dtype, kind = _ARRAYS[name]
        require(array.dtype == dtype
                and (array.flags.c_contiguous or name in _TALLIES)
                and (kind is None or array.shape[0] == extent[kind]
                     or array.size == extent[kind] * num_streams),
                f"search core needs {name} as C-contiguous "
                f"{dtype.__name__}, one row per {kind}")
        fields[name] = array.ctypes.data
    for name, shape in _frontier_shapes(decoder).items():
        require(arrays[name].shape == (extent["slot"],) + shape,
                f"search core needs {name} laid out as {shape} per slot")
    strides = {arrays[name].strides[0] for name in _TALLIES}
    require(len(strides) == 1, "search core needs equally strided tallies")
    search = _Search(
        tally_stride=strides.pop() // 8, num_streams=num_streams, side=side,
        queue_capacity=arrays["queue_d"].shape[1],
        list_size=arrays["list_d"].shape[1] if "list_d" in arrays else 0,
        use_fma=NUMPY_FMA,
        axis_scale=float(levels[1] - levels[0]) / 2.0 if side > 1 else 1.0,
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

    ``arrays`` holds the searches' state keyed by ``search_t`` field:
    their :func:`frontier`, their channel copies (``r``, ``y``, ``diag``,
    ``diag_sq``), search path (``level``, ``radius``, ``parent``,
    ``path_cols``, ``path_rows``, ``chosen``), the five tallies and the
    leaf policy's rows — ``best_cols`` / ``best_rows`` / ``best_dist``
    for a hard search, or ``list_d`` / ``list_seq`` / ``list_cols`` /
    ``list_rows`` / ``list_n`` / ``leaf_seq`` for a list search, whose
    ``list_d`` width is the list size.  Each id in ``ids`` indexes one
    search's rows of all of them (its frontier slots are ``id *
    num_streams + level``); ``caps`` are absolute node budgets.  A
    search whose ``level`` is ``num_streams`` — fresh from admission —
    has its root expanded first; then it gets ``attempts`` candidate
    attempts: 2 is its share of a lockstep tick, ``None`` runs it to
    completion.  On return its leaf, tallies, path state and frontier
    rows are what that many iterations of the scalar loop would have
    left, and the mask flags the searches that finished: tree exhausted
    or cap reached.

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
