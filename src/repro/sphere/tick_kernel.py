"""The compiled search core: build, load, run.

``search_core.c`` next to this module is the depth-first search's
per-search state machine in C, and :func:`run_hard` / :func:`run_soft`
run it: each listed search gets an allowance of candidate attempts in
one native call, *in place* on its kernel's frontier arrays
(:mod:`repro.sphere.batch_search`) and the pool's lane arrays, from
whatever state the last call (or admission) left it in, and comes back
flagged if it finished.  The lockstep engine (:mod:`repro.runtime.engine`)
makes two uses of that one loop: an allowance of one is a pool's
**lockstep step**, an unlimited one finishes a pool's last few
stragglers (the drain).

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
lockstep ticks, ``tests/test_tick_kernel.py`` runs from the root.

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
``RuntimeWarning``) or after a failed build — runs each search through
the scalar decoder itself: only speed changes, never results.
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
    "run_hard",
    "run_soft",
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
#: counts — search states, kernel slots, channel-stack rows, or nothing
#: (the constellation tables).  All C-contiguous, except the tallies,
#: which share ``tally_stride`` ...
_F, _I, _B, _C = np.float64, np.int64, np.bool_, np.complex128
_ARRAYS = {
    "levels": (_F, None), "zigzag": (_I, None), "prune": (_F, None),
    "axis_int": (_I, "slot"), "axis_res": (_F, "slot"),
    "queue_d": (_F, "slot"), "queue_i": (_I, "slot"),
    "queue_j": (_I, "slot"), "queue_n": (_I, "slot"),
    "last_i": (_I, "slot"), "last_j": (_I, "slot"),
    "has_last": (_B, "slot"), "seen": (_B, "slot"),
    "r": (_C, "channel"), "y": (_C, "state"), "diag": (_F, "channel"),
    "diag_sq": (_F, "channel"),
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
    its entry point."""
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
    run = loaded.repro_search_run
    run.argtypes = [ctypes.POINTER(_Search), ctypes.c_int64,
                    *[ctypes.c_void_p] * 4, ctypes.c_int64, ctypes.c_void_p]
    run.restype = ctypes.c_int
    return run


#: The loaded entry point; ``False`` once a build or load has failed.
_core = None


def core():
    """The core's entry point, built and loaded at first use — or
    ``None`` (after one ``RuntimeWarning``) where that is impossible:
    no compiler, a failed build, an untrustworthy cache directory."""
    global _core
    if _core is None:
        try:
            _core = _build()
        except (OSError, subprocess.SubprocessError) as error:
            _core = False
            warnings.warn(
                f"the compiled search core is unavailable ({error}); "
                "every pool runs its searches through the scalar decoder, "
                "with the same results",
                RuntimeWarning, stacklevel=2)
    return _core or None


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def _marshal(kernel, arrays: dict, list_size: int):
    """``arrays`` as a ``search_t``, plus the exclusive bounds of the
    state / kernel-lane / channel-row ids it may be run with.  Checked
    here, once per set of arrays: past this point a wrong dtype, a
    strided view or a short array is memory corruption, not an
    exception."""
    num_streams = arrays["path_cols"].shape[1]
    extent = {"state": arrays["level"].shape[0],
              "slot": arrays["axis_int"].shape[0],
              "channel": arrays["r"].shape[0]}
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
    strides = {arrays[name].strides[0] for name in _TALLIES}
    require(len(strides) == 1, "search core needs equally strided tallies")
    side = kernel.side
    levels = kernel.levels
    search = _Search(
        tally_stride=strides.pop() // 8, num_streams=num_streams, side=side,
        queue_capacity=arrays["queue_d"].shape[1], list_size=list_size,
        use_fma=NUMPY_FMA,
        axis_scale=float(levels[1] - levels[0]) / 2.0 if side > 1 else 1.0,
        **fields)
    return search, (extent["state"], extent["slot"] // num_streams,
                    extent["channel"])


#: An attempt allowance no search outlasts: run to completion.
_TO_COMPLETION = np.iinfo(np.int64).max


def _address(vector, count: int, limit: int | None = None) -> int:
    """Address of a per-search vector, checked for all the core assumes
    of it: ``count`` contiguous int64 entries — ids in ``[0, limit)``."""
    require(vector.dtype == np.int64 and vector.flags.c_contiguous
            and vector.shape == (count,),
            "search core needs ids and budgets as C-contiguous int64 "
            "vectors of one length")
    require(limit is None or count == 0
            or (vector.min() >= 0 and vector.max() < limit),
            "search ids outside the arrays handed to the search core")
    return vector.ctypes.data


def _run(kernel, idx, kidx, chan, caps, attempts, tallies, list_size,
         **arrays) -> np.ndarray:
    """Run the listed searches on ``kernel``'s tables and frontier plus
    the caller's state ``arrays``; returns the finished-search mask.

    One call per pool per tick, so whatever can be checked once is:
    taking ~40 array addresses costs more than a tick's searches and a
    pool passes the same arrays tick after tick (until it grows), so the
    marshalled ``search_t`` is kept on the kernel together with the
    arrays it points into and reused while every operand is still the
    same object; and an id vector passed in all three roles (the pools
    pass their lane ids) is bounds-checked once, against the tightest.
    """
    run = core()
    require(run is not None, "the compiled search core is unavailable")
    frontier = kernel.frontier_arrays()
    operands = (kernel.axis_int, kernel.axis_res, kernel.table,
                *frontier.values(), *tallies, *arrays.values())
    held, search, limits = getattr(kernel, "_marshalled", ((), None, None))
    if len(held) != len(operands) or not all(map(is_, held, operands)):
        arrays.update(frontier, levels=kernel.levels,
                      zigzag=zigzag_order_table(kernel.side),
                      axis_int=kernel.axis_int, axis_res=kernel.axis_res)
        arrays.update(zip(_TALLIES, tallies))
        if kernel.table is not None:
            arrays["prune"] = kernel.table
        search, limits = _marshal(kernel, arrays, list_size)
        kernel._marshalled = operands, search, limits
    count = idx.size
    if kidx is idx and chan is idx:
        ids = (_address(idx, count, min(limits)),) * 3
    else:
        ids = map(_address, (idx, kidx, chan), (count,) * 3, limits)
    done = np.empty(count, dtype=np.bool_)
    if run(search, count, *ids, _address(caps, count),
           _TO_COMPLETION if attempts is None else attempts,
           done.ctypes.data):
        raise RuntimeError("frontier queue capacity exceeded; "
                           "the enumeration invariant was violated")
    return done


def run_hard(kernel, idx, kidx, chan, caps, r, y, diag, diag_sq, level,
             radius, parent, path_cols, path_rows, chosen, best_cols,
             best_rows, best_dist, tallies, attempts=None) -> np.ndarray:
    """Advance the listed hard searches in one native call.

    ``kernel`` is a zigzag/Shabany kernel holding the listed searches'
    frontier in whatever state the last call (or admission) left it;
    ``idx`` / ``kidx`` / ``chan`` map each search to its state row,
    kernel lane and channel-stack row (the pools pass their lane ids for
    all three), ``caps`` are absolute node budgets.  Each search gets
    ``attempts`` candidate attempts — 1 is its share of a lockstep
    tick, ``None`` runs it to completion.  On return its best leaf,
    tallies, path state and kernel rows are what that many iterations
    of the scalar loop would have left, and the returned mask flags the
    searches that finished: tree exhausted or cap reached.
    """
    return _run(kernel, idx, kidx, chan, caps, attempts, tallies, 0, r=r,
                y=y, diag=diag, diag_sq=diag_sq, level=level, radius=radius,
                parent=parent, path_cols=path_cols,
                path_rows=path_rows, chosen=chosen, best_cols=best_cols,
                best_rows=best_rows, best_dist=best_dist)


def run_soft(kernel, idx, kidx, chan, caps, r, y, diag, diag_sq, level,
             radius, parent, path_cols, path_rows, chosen, list_d,
             list_seq, list_cols, list_rows, list_n, leaf_seq, list_size,
             tallies, attempts=None) -> np.ndarray:
    """Advance the listed list (soft) searches in one native call: the
    twin of :func:`run_hard` with the bounded best-leaf list arrays in
    place of the single best leaf."""
    return _run(kernel, idx, kidx, chan, caps, attempts, tallies, list_size,
                r=r, y=y, diag=diag, diag_sq=diag_sq, level=level,
                radius=radius, parent=parent, path_cols=path_cols,
                path_rows=path_rows, chosen=chosen, list_d=list_d,
                list_seq=list_seq, list_cols=list_cols, list_rows=list_rows,
                list_n=list_n, leaf_seq=leaf_seq)
