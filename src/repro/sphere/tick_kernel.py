"""The compiled search core: build, load, run.

``search_core.c`` next to this module is the depth-first search's
per-search state machine in C, and :func:`run` runs a pool's whole tick
on it in one native call, *in place* on the arrays the pool holds
(:func:`lanes`: every array a lane owns is laid out here and nowhere
else in Python): it **admits** queued searches into free lanes, **steps**
every active search an allowance of candidate attempts from whatever
state the last call left it in (a fresh one expands its root first, with
the same program as every other node), and **retires** the finished ones
straight into their frames' own outcome arrays (:func:`outcome`).  A
lane holds its search's own state and nothing of its frame: the search
reads its ``R`` rows, observation and diagonals in place, in its frame's
stacks, and its LLR scale, clamp and initial radius in its frame's row
(:func:`frame`); every PAM position it keeps is one signed byte — a
hard 16-QAM 4x4 lane is 684 bytes.
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

And it holds a frame's preprocessing: :func:`householder` triangularises
a whole ``(S, na, nc)`` channel stack and rotates the frame's
observations into each basis in one call, :func:`rotate` rotates
observations into given bases.  Their program is the oracle's,
:func:`repro.sphere.qr.householder` / :func:`repro.sphere.qr.rotate`,
operation for operation (plain IEEE adds, multiplies, divisions and
square roots in an order both spell out, no numpy complex product), so
``Q``, ``R`` and every rotated observation are bit-identical to it
(:mod:`repro.frame.preprocess` is the caller).

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
it.  Only ``zigzag`` searches run in the core (Geosphere's, and the hot
ones).  Every other pool — the baselines ``shabany`` / ``hess`` /
``exhaustive``, or any pool on a box without a compiler (one
``RuntimeWarning``, for all of the core together) or after a failed
build — runs each search through the scalar decoder itself; without the
core the batched Viterbi decodes its rows through the scalar trellis
and a frame's QR loops the Python oracle over its subcarriers: only
speed changes, never results.
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

from ..constellation.pam import zigzag_order_table
from ..utils.validation import require

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMPY_FMA",
    "FRAME",
    "core",
    "frame",
    "householder",
    "lanes",
    "outcome",
    "rotate",
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
#: core touches and the dtype it must have — the decoder's constellation
#: tables, the pool's frame table and its lanes (:func:`_layout`).  All
#: C-contiguous, except the five tallies, which are the columns of one
#: ``(lanes, 5)`` array (``tally``) ...
_F, _I, _C, _P = np.float64, np.int64, np.complex128, np.int8
_OUTCOMES = ("tally", "best_dist", "llrs", "best_cols", "best_rows", "list_n")
#: ``frame_t``: a pool's frame-table row — where an interned frame's
#: stacks and outcome arrays live (:func:`frame`; 0 for an outcome array
#: the frame has not), the values its decoder sets per frame (LLR scale
#: and clamp, initial radius), ``T`` and ``S * T``.
FRAME = np.dtype([(name, np.intp)
                  for name in ("r", "y", "diag", "diag_sq") + _OUTCOMES]
                 + [(name, _F)
                    for name in ("noise_var", "clamp", "initial_radius")]
                 + [("symbols", _I), ("problems", _I)])
_ARRAYS = {
    "levels": _F, "zigzag": _I, "prune": _F, "bits": np.uint8,
    "axis_int": _P, "axis_res": _F, "col_d": _F, "col_j": _P, "last_i": _P,
    "level": _I, "radius": _F, "parent": _F,
    "path_cols": _P, "path_rows": _P, "chosen": _C,
    "best_cols": _P, "best_rows": _P, "best_dist": _F,
    "list_d": _F, "list_seq": _I, "list_cols": _P, "list_rows": _P,
    "list_n": _I, "leaf_seq": _I,
    "ped": _I, "visited": _I, "expanded": _I, "leaves": _I, "prunes": _I,
    "lane_budget": _I, "frame_of": _I, "dest_of": _I, "active": _I,
    "free": _I, "frames": FRAME,
}
_TALLIES = ("ped", "visited", "expanded", "leaves", "prunes")
#: ... then its dimensions and policy switches, then ``axis_scale``.
_INTEGERS = ("tally_stride", "num_streams", "side", "list_size", "use_fma",
             "lanes", "frame_slots")


def _searches(decoder, num_streams: int) -> dict:
    """The arrays a lane owns one row of: each ``search_t`` field's
    shape past the lane axis — a search's path, tallies and leaf (the
    best leaf, or a list), its node cap, frame-table row (``frame_of``)
    and element there (``dest_of``), through which it reads its channel
    in its frame's stacks and its frame's values in its row, plus the
    pool's ``active`` list and ``free`` stack.  The core writes them
    when it admits a search."""
    n = num_streams
    fields = {
        "level": (), "radius": (), "parent": (n,), "path_cols": (n,),
        "path_rows": (n,), "chosen": (n,), "tally": (len(_TALLIES),),
        "lane_budget": (), "frame_of": (), "dest_of": (), "active": (),
        "free": (),
    }
    if not decoder.list_size:
        return dict(fields, best_cols=(n,), best_rows=(n,), best_dist=())
    size = decoder.list_size
    return dict(fields, list_d=(size,), list_seq=(size,),
                list_cols=(size, n), list_rows=(size, n), list_n=(),
                leaf_seq=())


def outcome(decoder, num_streams: int) -> dict:
    """A finished search's outcome row, ``name: (dtype, shape)``, of
    which its :class:`~repro.runtime.queue.FrameJob` holds one per
    search: the tallies, then the best leaf (hard) or the max-log LLRs,
    best list member and list length (soft) — PAM positions in a signed
    byte as in the lanes, or wider for a side past one (no lanes)."""
    n = num_streams
    position = np.min_scalar_type(-decoder.constellation.levels.shape[0])
    rows = {"tally": (_I, (len(_TALLIES),))}
    if not decoder.list_size:
        return dict(rows, best_dist=(_F, ()), best_cols=(position, (n,)),
                    best_rows=(position, (n,)))
    width = n * decoder.constellation.bits_per_symbol
    return dict(rows, llrs=(_F, (width,)), best_cols=(position, (n,)),
                best_rows=(position, (n,)), list_n=(_I, ()))


def _slots(decoder) -> dict:
    """The frontier's layout: each slot field's shape past the slot
    axis (a search owns ``num_streams`` slots, one per tree level), for
    ``decoder``'s PAM side and pruning.

    Both axes' zigzag tables of a node sit in one row — ``axis_int`` is
    ``[ord_i, ord_q]`` (``[ord_i, off_i, ord_q, off_q]`` with a pruning
    table), ``axis_res`` ``[res_i, res_q]`` — then Geosphere's column
    queue.  Its 2-D zigzag keeps at most one queued candidate per
    entered PAM column (paper section 3.1.1, the sqrt(|O|) queue bound),
    so a slot's queue is a row of ``side`` distances (``col_d``, ``inf``
    = none queued) and row pointers (``col_j``), plus the column handed
    out last (``last_i``, ``-1`` = none) whose successors are still
    deferred; it cannot overflow.  Orders, offsets, row pointers and
    ``last_i`` are PAM positions: one signed byte each.

    A slot needs no fresh value: the core rewrites it whole when it
    expands a node into it, before anything reads it.
    """
    side = decoder.constellation.levels.shape[0]
    return {"axis_int": (2 if decoder._pruner is None else 4, side),
            "axis_res": (2, side), "col_d": (side,), "col_j": (side,),
            "last_i": ()}


def _layout(decoder, num_streams: int, count: int) -> dict:
    """Every array ``count`` lanes of ``decoder`` own, as ``name:
    (dtype, shape)`` — their rows, then their frontier slots."""
    # ``tally`` is no search_t field; its five int64 columns are.
    layout = {name: (_ARRAYS.get(name, _I), (count,) + shape)
              for name, shape in _searches(decoder, num_streams).items()}
    layout.update((name, (_ARRAYS[name], (count * num_streams,) + shape))
                  for name, shape in _slots(decoder).items())
    return layout


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
    it, its entry points typed."""
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
    for probe, size in ((loaded.repro_search_size, ctypes.sizeof(_Search)),
                        (loaded.repro_frame_size, FRAME.itemsize)):
        probe.restype = ctypes.c_int64
        if probe() != size:
            raise OSError("search_t or frame_t and its mirror differ in size")
    search = loaded.repro_search_run
    search.argtypes = ([ctypes.POINTER(_Search), ctypes.c_void_p]
                       + [ctypes.c_int64] * 4)
    search.restype = ctypes.c_int64
    viterbi = loaded.repro_trellis_run
    viterbi.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 4
                        + [ctypes.c_void_p] * 5)
    viterbi.restype = None
    qr = loaded.repro_qr_run
    qr.argtypes = ([ctypes.c_void_p] * 2 + [ctypes.c_int64] * 4
                   + [ctypes.c_double] + [ctypes.c_void_p] * 6)
    qr.restype = ctypes.c_int64
    rotation = loaded.repro_rotate_run
    rotation.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 4 + [
        ctypes.c_void_p]
    rotation.restype = None
    return loaded


#: The loaded library; ``False`` once a build or load has failed.
_core = None


def core():
    """The core library — its entry points ``repro_search_run``,
    ``repro_trellis_run``, ``repro_qr_run`` and ``repro_rotate_run`` —
    built and loaded at first use, or ``None``
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
                "the batched Viterbi decodes row by row, a frame's QR "
                "runs the Python oracle and every pool runs its searches "
                "through the scalar decoder, with the same results",
                RuntimeWarning, stacklevel=2)
    return _core or None


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def _positions_fit(decoder) -> bool:
    """Whether every PAM position of ``decoder``'s constellation (and the
    ``-1`` for none) fits the signed byte a lane keeps it in: side <= 128,
    up to 16384-QAM."""
    return decoder.constellation.levels.shape[0] <= np.iinfo(_P).max + 1


def lanes(decoder, num_streams: int, count: int) -> dict:
    """Every array ``count`` lanes of ``decoder`` own, zeroed, keyed by
    ``search_t`` field (the tallies packed as ``tally``): a row per lane
    and ``num_streams`` frontier slots per lane — or ``{}`` where the
    core does not run ``decoder``'s searches (any enumerator but
    ``zigzag``, a constellation whose positions do not fit a byte, or
    no core): such a pool runs the scalar decoder instead."""
    if (decoder.enumerator != "zigzag" or not _positions_fit(decoder)
            or core() is None):
        return {}
    return {name: np.zeros(shape, dtype)
            for name, (dtype, shape)
            in _layout(decoder, num_streams, count).items()}


def frame(decoder, num_streams: int, r_stack, y_flat, diag_stack,
          diag_sq_stack, num_symbols: int, noise_var: float,
          outcomes: dict) -> tuple:
    """A frame's :data:`FRAME` row: the addresses of its stacks
    (``r_stack`` ``(S, n, n)``, ``y_flat`` ``(S * T, n)``,
    ``diag_stack`` / ``diag_sq_stack`` ``(S, n)``) and of its
    ``outcomes`` (:func:`outcome`'s rows, ``S * T`` each), its LLR
    scale, ``decoder``'s LLR clamp (0 for a hard one) and initial
    radius, ``T`` and ``S * T``.  The core reads the stacks in place for
    as long as one of the frame's searches runs, and writes the outcome
    arrays in place, so they are checked here, once per frame; the
    caller keeps them alive, unchanged, while the row is in its table."""
    n, subcarriers = num_streams, len(r_stack)
    problems = subcarriers * num_symbols
    rows = outcome(decoder, num_streams)
    require(outcomes.keys() == rows.keys(),
            f"search core needs exactly the outcome arrays {sorted(rows)}")
    addresses = {name: _address(outcomes[name], dtype, (problems,) + shape,
                                "outcome " + name)
                 for name, (dtype, shape) in rows.items()}
    return (_address(r_stack, _C, (subcarriers, n, n), "r_stack"),
            _address(y_flat, _C, (problems, n), "y_flat"),
            _address(diag_stack, _F, (subcarriers, n), "diag_stack"),
            _address(diag_sq_stack, _F, (subcarriers, n), "diag_sq_stack"),
            *(addresses.get(name, 0) for name in _OUTCOMES),
            noise_var, decoder.clamp if decoder.list_size else 0.0,
            decoder.initial_radius_sq, num_symbols, problems)


def _marshal(decoder, arrays: dict, frames):
    """A pool's lanes and frame table, and ``decoder``'s tables, as a
    ``search_t``.  Checked here, once per set of arrays: past this
    point a wrong dtype, a strided view, a short axis or a frontier laid
    out for another decoder is memory corruption, not an exception.
    ``parent`` fixes the stream count and ``level`` the lanes; every
    operand must then have exactly its :func:`lanes` shape."""
    levels = decoder.constellation.levels
    side = levels.shape[0]
    count, num_streams = arrays["level"].shape[0], arrays["parent"].shape[-1]
    layout = _layout(decoder, num_streams, count)
    require(decoder.enumerator == "zigzag",
            "the search core runs only the zigzag frontier")
    require(_positions_fit(decoder),
            "the search core keeps PAM positions in one signed byte")
    require(arrays.keys() == layout.keys(),
            f"search core needs exactly the arrays {sorted(layout)}")
    tables = {"levels": (levels, (side,)),
              "zigzag": (zigzag_order_table(side), (side, 2, side))}
    if decoder._pruner is not None:
        tables["prune"] = (decoder._pruner.table, (side, side))
    if decoder.list_size:
        width = decoder.constellation.bits_per_axis
        tables["bits"] = (decoder.constellation.gray_bits, (side, width))
    fields = {name: _address(array, _ARRAYS[name], shape, name)
              for name, (array, shape) in tables.items()}
    fields.update((name, _address(arrays[name], dtype, shape, name))
                  for name, (dtype, shape) in layout.items())
    tally = fields.pop("tally")
    fields.update((name, tally + column * arrays["tally"].itemsize)
                  for column, name in enumerate(_TALLIES))
    fields["frames"] = _address(frames, FRAME, (len(frames),), "frames")
    return _Search(
        tally_stride=len(_TALLIES), num_streams=num_streams, side=side,
        list_size=decoder.list_size, use_fma=NUMPY_FMA, lanes=count,
        frame_slots=len(frames),
        axis_scale=float(levels[1] - levels[0]) / 2.0 if side > 1 else 1.0,
        **fields)


#: An attempt allowance no search outlasts: run to completion.
_TO_COMPLETION = np.iinfo(np.int64).max

#: What ``repro_search_run`` refused, by return code, before writing.
_REFUSALS = {-2: "an admission run outside its frame",
             -3: "a lane outside the pool's lanes",
             -4: "an active lane whose frame row is vacant, or whose "
                 "element is outside its frame"}


def _address(array, dtype, shape: tuple, what: str,
             limit: int | None = None) -> int:
    """Address of an operand, checked for all the core assumes of it:
    C-contiguous ``dtype`` of exactly ``shape`` — and, with a ``limit``,
    every entry an index in ``[0, limit)``.  (The messages are built
    only on failure: this runs on every pool tick.)"""
    if not (array.dtype == dtype and array.flags.c_contiguous
            and array.shape == shape):
        raise ValueError(f"search core needs {what} as C-contiguous "
                         f"{np.dtype(dtype).name} of shape {shape}")
    if not (limit is None or array.size == 0
            or (array.min() >= 0 and array.max() < limit)):
        raise ValueError(f"{what} outside [0, {limit}), the range the "
                         "search core indexes")
    return array.ctypes.data


def run(decoder, arrays: dict, frames, runs, running: int, idle: int,
        attempts, cache: dict) -> int:
    """One pool tick in one native call; returns how many searches
    finished.

    ``arrays`` are the pool's lanes (:func:`lanes`: the first
    ``running`` entries of ``active`` are in flight, the first ``idle``
    of ``free`` the free-lane stack) and ``frames`` its frame table
    (:func:`frame`).  The core **admits** each ``runs`` row ``(slot,
    first, count, node cap)``: ``count`` lanes off the stack for that
    frame's searches ``first, ...``, their fresh values, cap, slot and
    element written; **steps** every active search ``attempts``
    candidate attempts under its cap (2: a lockstep tick; ``None``: to
    completion), each one iteration of the scalar loop, reading its
    channel in its frame's stacks; and **retires** each finished search
    into its row of its frame's outcome arrays — tallies, then its best
    leaf, or its list length, best member and max-log LLRs (the float
    program of :func:`~repro.sphere.soft.soft_outputs_from_lists`) —
    its lane pushed back on the stack (the finished lanes are the
    stack's top ``finished`` entries), ``active`` compacted in place.
    Every index is checked in the core before anything is read through
    it or written (a bad one raises ``ValueError``).  The marshalled
    ``search_t`` is kept in ``cache`` with the arrays it points into and
    reused while every operand is the same object: ~35 addresses cost
    more than a tick.
    """
    library = core()
    require(library is not None, "the compiled search core is unavailable")
    operands = (decoder, frames, *arrays.values())
    held, search = cache.get("search_t", ((), None))
    if len(held) != len(operands) or not all(map(is_, held, operands)):
        search = _marshal(decoder, arrays, frames)
        cache["search_t"] = operands, search
    finished = library.repro_search_run(
        search, len(runs) and _address(runs, _I, (len(runs), 4),
                                       "admission runs"),
        len(runs), running, idle,
        _TO_COMPLETION if attempts is None else attempts)
    if finished < 0:
        raise ValueError(f"search core refused {_REFUSALS[finished]}")
    return finished


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


def householder(channels, tolerance: float, r_stack, q_stack=None,
                received=None, y_stack=None, diag=None, diag_sq=None) -> int:
    """Triangularise a frame in one native call: the Householder program
    of :func:`repro.sphere.qr.householder` on every ``(na, nc)`` matrix
    of ``channels`` ``(S, na, nc)``, subcarrier by subcarrier, into
    ``r_stack`` ``(S, nc, nc)`` and, where given, ``q_stack`` ``(S, na,
    nc)``, the ``(T, S, na)`` ``received`` rotated into each basis
    (:func:`repro.sphere.qr.rotate`) into ``y_stack`` ``(S, T, nc)``,
    and R's real diagonal and its square into ``diag`` / ``diag_sq``
    ``(S, nc)``.  Returns 0, or ``s + 1`` if subcarrier ``s`` has a
    non-finite entry, ``-(s + 1)`` if it is numerically rank deficient
    (``tolerance``: the oracle's check).  Every operand is checked
    first, as C-contiguous of its exact shape: past the ctypes boundary
    a wrong one is memory corruption, not an exception.
    """
    library = core()
    require(library is not None, "the compiled search core is unavailable")
    require(channels.ndim == 3, "channels must be (S, na, nc)")
    subcarriers, na, nc = channels.shape
    require((received is None) == (y_stack is None)
            and (diag is None) == (diag_sq is None),
            "received comes with y_stack, diag with diag_sq")

    def optional(array, dtype, shape, what):
        return None if array is None else _address(array, dtype, shape, what)

    symbols = 0 if received is None else len(received)
    work = np.empty(4 * na * nc + 3 * nc)
    return library.repro_qr_run(
        _address(channels, _C, (subcarriers, na, nc), "channels"),
        optional(received, _C, (symbols, subcarriers, na), "received"),
        subcarriers, na, nc, symbols, tolerance,
        optional(q_stack, _C, (subcarriers, na, nc), "q_stack"),
        _address(r_stack, _C, (subcarriers, nc, nc), "r_stack"),
        optional(y_stack, _C, (subcarriers, symbols, nc), "y_stack"),
        optional(diag, _F, (subcarriers, nc), "diag"),
        optional(diag_sq, _F, (subcarriers, nc), "diag_sq"),
        work.ctypes.data)


def rotate(q_stack, received, y_stack) -> None:
    """Rotate a frame's ``(T, S, na)`` observations into each
    subcarrier's basis ``q_stack`` ``(S, na, nc)`` in one native call,
    into ``y_stack`` ``(S, T, nc)``: :func:`repro.sphere.qr.rotate`'s
    program.  Every operand is checked first."""
    library = core()
    require(library is not None, "the compiled search core is unavailable")
    require(q_stack.ndim == 3 and received.ndim == 3,
            "rotation needs a (S, na, nc) basis and (T, S, na) observations")
    subcarriers, na, nc = q_stack.shape
    symbols = received.shape[0]
    library.repro_rotate_run(
        _address(q_stack, _C, (subcarriers, na, nc), "q_stack"),
        _address(received, _C, (symbols, subcarriers, na), "received"),
        subcarriers, na, nc, symbols,
        _address(y_stack, _C, (subcarriers, symbols, nc), "y_stack"))
