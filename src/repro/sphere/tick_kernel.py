"""Compiled per-tick kernel for the breadth-synchronised frontier.

The lockstep engine (:mod:`repro.runtime.engine`, stepping the kernels
of :mod:`repro.sphere.batch_search`) advances every active search one
tree-node step per *tick*, with each per-tick quantity a numpy array op.  That
keeps the float program bit-identical to the scalar search, but pays
Python-level orchestration — tens of numpy calls, boolean masks,
concatenations — per tick.  This module compiles the whole per-element
state machine with Numba and runs each element's search **to
completion** in one native call.

Why run-to-completion is the same program
-----------------------------------------
Each element's search is an independent state machine; the lockstep
tick is only an interleaving.  One numpy tick gives every active
element exactly one candidate attempt (a ``next_candidate`` step — got
or stack pop), so per element the numpy engine executes the scalar
loop's iterations in order, just interleaved with other elements.  The
compiled core executes the *same* iterations back to back: the node
budget is re-checked at the top of every per-element iteration (the
scalar loop's check, which the numpy engines hoist to the tick
boundary — same boundary, since one tick is one iteration), the radius
and enumerator state are private to the element, and every float op is
kept operation-for-operation equal to the numpy path (see below).
Results, LLRs and ``ComplexityCounters`` are therefore bit-identical,
and the straggler drain becomes unnecessary — a drained continuation is
itself bit-identical, so finishing in the kernel changes nothing.
(Without Numba the numpy tick hands its stragglers to
:mod:`repro.sphere.tail`, which takes the same arguments as the cores
below and relies on the same equivalences, plus a few of its own
listed there.)

Float-op equivalences the kernel preserves (each one checked by the
differential sweeps in ``tests/test_tick_kernel.py``):

* complex-by-real division ``(y - interference) / diag`` — numpy's
  complex division with a zero imaginary denominator reduces to a
  reciprocal multiply ``scl = 1/d; (re*scl, im*scl)``, which is what
  the kernel emits (a plain ``re/d`` differs in the last ulp);
* real divisions (``budget``, the slicing coordinate) stay plain ``/``;
* interference accumulates column-by-column (ascending) through the
  componentwise complex multiply — emitting the FMA-contracted program
  numpy's SIMD loop uses, ``re = fma(ar, br, -(ai*bi))``,
  ``im = fma(ar, bi, ai*br)`` (the plain mul-sub form differs in the
  last ulp on FMA hardware); an import-time probe (:data:`NUMPY_FMA`)
  checks which program the installed numpy actually emits and selects
  the matching variant;
* ``distance = parent + scale * dist_sq`` as separate multiply and add
  (Numba's default ``fastmath=False`` forbids FMA contraction, matching
  numpy);
* ``np.rint`` (round-half-even) for constellation slicing, clamp by
  compare, ``complex(levels[col], levels[row])`` for chosen symbols —
  exactly the ``symbol_grid`` construction.

Scope and fallback
------------------
Only the ``zigzag`` and ``shabany`` enumerators are compiled (they are
Geosphere's and the hot ones); ``hess``/``exhaustive`` requests resolve
to the numpy tick.  Tracing (``trace=`` observability) is a numpy-tick
contract — per-tick event ordering — so a trace also resolves to numpy.
When Numba is not installed, ``tick_strategy="compiled"`` warns once
and falls back to the numpy tick; ``FORCE_PYTHON`` lets the test suite
run these same kernel functions interpreted, so the differential sweeps
exercise the exact code CI compiles.
"""

from __future__ import annotations

import os
import warnings
import weakref

import numpy as np

from ..utils.validation import require
from .batch import zigzag_order_table

__all__ = [
    "COMPILED_ENUMERATORS",
    "NO_BUDGET",
    "NUMBA_AVAILABLE",
    "NUMPY_FMA",
    "TICK_STRATEGIES",
    "default_tick_strategy",
    "resolve_tick_strategy",
    "run_hard_to_completion",
    "run_soft_to_completion",
]

try:
    from numba import njit
    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via the fallback tests
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """No-op decorator standing in for :func:`numba.njit`."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn
        return wrap

#: The strategy knob's legal values.
TICK_STRATEGIES = ("compiled", "numpy")

#: Enumerators with a compiled state machine; the rest use the numpy
#: tick regardless of the requested strategy.
COMPILED_ENUMERATORS = ("zigzag", "shabany")

#: Per-element node-budget sentinel: "no budget" as an int64 cap the
#: compiled loop can compare against without a None branch.
NO_BUDGET = int(np.iinfo(np.int64).max)

#: Test hook: when Numba is absent, run the kernel functions interpreted
#: instead of falling back to the numpy tick, so the differential sweeps
#: genuinely execute the compiled code path's program.
FORCE_PYTHON = False

_warned = False


def _plain_fma(a: float, b: float, c: float) -> float:
    """Unfused fallback when no correctly rounded fma is reachable."""
    return a * b + c


def _python_fma():
    """Best correctly rounded ``fma(a, b, c)`` for interpreted runs.

    ``math.fma`` exists only on Python >= 3.13; older interpreters reach
    libm's through ctypes.  The unfused fallback only matters on exotic
    platforms with neither, where the :data:`NUMPY_FMA` probe below
    keeps the kernel on whichever program actually matches numpy.
    """
    import math
    if hasattr(math, "fma"):
        return math.fma
    try:
        import ctypes
        import ctypes.util
        libm = ctypes.CDLL(ctypes.util.find_library("m") or "libm.so.6")
        fma = libm.fma
        fma.restype = ctypes.c_double
        fma.argtypes = [ctypes.c_double] * 3
        return fma
    except (OSError, AttributeError):  # pragma: no cover - platform gap
        return _plain_fma


_fma = _python_fma()


def _numpy_multiply_uses_fma() -> bool:
    """Probe which complex-multiply program the installed numpy emits.

    numpy's SIMD loop contracts each component's first product into an
    FMA on hardware that has one; builds or machines without it emit
    the plain mul-sub program.  The kernel must mirror whichever the
    baseline engines actually run, so probe once at import.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    b = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    prod = a * b
    for k in range(256):
        ar, ai = a[k].real, a[k].imag
        br, bi = b[k].real, b[k].imag
        if (prod[k].real != _fma(ar, br, -(ai * bi))
                or prod[k].imag != _fma(ar, bi, ai * br)):
            return False
    return True


#: True when numpy's complex multiply matches the FMA-contracted
#: program; the cores' interference accumulation follows this flag.
NUMPY_FMA = _numpy_multiply_uses_fma()


def default_tick_strategy() -> str:
    """Session default: ``REPRO_TICK_STRATEGY`` env var, else ``numpy``."""
    strategy = os.environ.get("REPRO_TICK_STRATEGY", "numpy")
    require(strategy in TICK_STRATEGIES,
            f"unknown tick strategy {strategy!r} in REPRO_TICK_STRATEGY; "
            "choose 'compiled' or 'numpy'")
    return strategy


def resolve_tick_strategy(requested: str | None, enumerator: str,
                          trace: dict | None = None) -> str:
    """Resolve the effective tick strategy for one engine run.

    ``requested`` is the explicit knob (``None`` defers to
    :func:`default_tick_strategy`).  A ``compiled`` request degrades to
    ``numpy`` — never silently changing results, only speed — when the
    enumerator has no compiled state machine, when a trace dict needs
    per-tick event ordering, or (with a one-time warning) when Numba is
    not installed.
    """
    if requested is None:
        requested = default_tick_strategy()
    require(requested in TICK_STRATEGIES,
            f"unknown tick strategy {requested!r}; "
            "choose 'compiled' or 'numpy'")
    if requested == "numpy":
        return "numpy"
    if trace is not None:
        return "numpy"
    if enumerator not in COMPILED_ENUMERATORS:
        return "numpy"
    if NUMBA_AVAILABLE or FORCE_PYTHON:
        return "compiled"
    global _warned
    if not _warned:
        _warned = True
        warnings.warn(
            "numba is not installed; tick_strategy='compiled' falls back "
            "to the numpy tick (pip install numba to compile the per-tick "
            "kernel)", RuntimeWarning, stacklevel=2)
    return "numpy"


# ---------------------------------------------------------------------------
# The kernel functions.  Plain Python below; rebound through njit at module
# bottom when Numba is available (Numba resolves the inter-function calls
# lazily at first compilation, so rebinding the module globals suffices).
# ---------------------------------------------------------------------------


def _axis_fill(levels, axis_scale, ztable, side, use_table,
               ord_x, res_x, off_x, slot, coord):
    """One PAM axis of ``batched_axis_orders``, for one slot.

    Slice (``rint`` + clamp), pick the preferred direction, gather the
    zigzag order row and square the residuals — the exact arithmetic of
    :func:`repro.sphere.batch.batched_axis_orders`, one row at a time.
    """
    sliced = np.rint((coord / axis_scale + (side - 1)) / 2.0)
    if sliced > side - 1:
        start = side - 1
    elif sliced < 0.0:
        start = 0
    else:
        start = int(sliced)
    if coord >= levels[start]:
        prefer = 1
    else:
        prefer = 0
    base = ztable[start, prefer, 0]
    for p in range(side):
        index = ztable[start, prefer, p]
        ord_x[slot, p] = index
        residual = levels[index] - coord
        res_x[slot, p] = residual * residual
        if use_table:
            offset = index - base
            if offset < 0:
                offset = -offset
            off_x[slot, p] = offset


def _slot_init(slot, element, point_re, point_im, levels, axis_scale, ztable,
               side, is_shabany, use_table, ord_i, res_i, ord_q, res_q,
               off_i, off_q, heap_d, heap_i, heap_j, heap_n, has_last, seen,
               ped):
    """Expand a node into ``slot``: order both axes, enqueue the sliced
    point (its lower bound is zero, so it bypasses the pruning check)."""
    _axis_fill(levels, axis_scale, ztable, side, use_table,
               ord_i, res_i, off_i, slot, point_re)
    _axis_fill(levels, axis_scale, ztable, side, use_table,
               ord_q, res_q, off_q, slot, point_im)
    if is_shabany:
        for code in range(side * side):
            seen[slot, code] = False
        seen[slot, 0] = True  # position (0, 0)
    heap_d[slot, 0] = res_i[slot, 0] + res_q[slot, 0]
    heap_i[slot, 0] = 0
    heap_j[slot, 0] = 0
    heap_n[slot] = 1
    has_last[slot] = False
    ped[element] += 1


def _slot_propose(slot, element, i, j, budget, side, is_shabany, use_table,
                  table, res_i, res_q, off_i, off_q, heap_d, heap_i, heap_j,
                  heap_n, seen, ped, prunes):
    """Bounds-check, dedupe (Shabany), prune-check, then enqueue."""
    if i >= side or j >= side:
        return
    if is_shabany:
        code = i * side + j
        if seen[slot, code]:
            return
        # Mark before the pruning check, exactly like the scalar seen-set.
        seen[slot, code] = True
    if use_table:
        bound = table[off_i[slot, i], off_q[slot, j]]
        if bound >= budget:
            prunes[element] += 1
            return
    ped[element] += 1
    position = heap_n[slot]
    if position >= heap_d.shape[1]:
        raise RuntimeError("frontier queue capacity exceeded; "
                           "the enumeration invariant was violated")
    heap_d[slot, position] = res_i[slot, i] + res_q[slot, j]
    heap_i[slot, position] = i
    heap_j[slot, position] = j
    heap_n[slot] = position + 1


def _slot_step(slot, element, budget, side, is_shabany, use_table, table,
               ord_i, res_i, ord_q, res_q, off_i, off_q, heap_d, heap_i,
               heap_j, heap_n, last_i, last_j, has_last, seen, ped, prunes):
    """One ``next_candidate()`` for one slot.

    Deferred successor proposals of the previously dequeued point, then
    pop the lexicographic ``(distance, i, j)`` minimum — ``heapq`` tuple
    order — if it beats the budget.  Returns ``(got, dist_sq, col, row)``.
    """
    if has_last[slot]:
        has_last[slot] = False
        li = last_i[slot]
        lj = last_j[slot]
        # Vertical zigzag always; horizontal from the column entry point
        # only for Geosphere's rule, unconditionally for Shabany's.
        _slot_propose(slot, element, li, lj + 1, budget, side, is_shabany,
                      use_table, table, res_i, res_q, off_i, off_q, heap_d,
                      heap_i, heap_j, heap_n, seen, ped, prunes)
        if is_shabany or lj == 0:
            _slot_propose(slot, element, li + 1, lj, budget, side,
                          is_shabany, use_table, table, res_i, res_q, off_i,
                          off_q, heap_d, heap_i, heap_j, heap_n, seen, ped,
                          prunes)
    occupancy = heap_n[slot]
    best_d = np.inf
    best_code = side * side
    best_k = -1
    for k in range(occupancy):
        d = heap_d[slot, k]
        code = heap_i[slot, k] * side + heap_j[slot, k]
        if d < best_d or (d == best_d and code < best_code):
            best_d = d
            best_code = code
            best_k = k
    if not (best_d < budget):
        return False, 0.0, np.int64(0), np.int64(0)
    bi = heap_i[slot, best_k]
    bj = heap_j[slot, best_k]
    # Remove the popped entry: swap in the last occupied slot.
    tail = occupancy - 1
    heap_d[slot, best_k] = heap_d[slot, tail]
    heap_i[slot, best_k] = heap_i[slot, tail]
    heap_j[slot, best_k] = heap_j[slot, tail]
    heap_n[slot] = tail
    last_i[slot] = bi
    last_j[slot] = bj
    has_last[slot] = True
    return True, best_d, ord_i[slot, bi], ord_q[slot, bj]


def _hard_core(idx, kidx, chan, caps, r, y, diag, diag_sq, levels,
               axis_scale, ztable, side, is_shabany, use_table, table,
               ord_i, res_i, ord_q, res_q, off_i, off_q, heap_d, heap_i,
               heap_j, heap_n, last_i, last_j, has_last, seen, level, radius,
               parent_flat, path_cols, path_rows, chosen, best_cols,
               best_rows, best_dist, ped, visited, expanded, leaves, prunes,
               use_fma):
    """Run every listed hard search to completion (or its node budget).

    ``idx`` are state/element ids, ``kidx`` kernel-lane ids, ``chan``
    channel-stack rows, ``caps`` per-element node budgets
    (:data:`NO_BUDGET` when unbounded).  Each iteration of the inner
    ``while`` is exactly one numpy tick's worth of work for one element.
    """
    num_streams = r.shape[2]
    top = num_streams - 1
    for e in range(idx.shape[0]):
        si = idx[e]
        ki = kidx[e]
        ci = chan[e]
        cap = caps[e]
        while True:
            if visited[si] >= cap:
                break
            lv = level[si]
            slot = ki * num_streams + lv
            parent_d = parent_flat[si * num_streams + lv]
            scale = diag_sq[ci, lv]
            sphere = radius[si]
            budget = (sphere - parent_d) / scale
            got, dist_sq, col, row = _slot_step(
                slot, si, budget, side, is_shabany, use_table, table,
                ord_i, res_i, ord_q, res_q, off_i, off_q, heap_d, heap_i,
                heap_j, heap_n, last_i, last_j, has_last, seen, ped, prunes)
            if not got:
                # Enumerator ran dry: pop the stack (climb one level);
                # a root pop finishes the search.
                next_level = lv + 1
                level[si] = next_level
                if next_level > top:
                    break
                continue
            distance = parent_d + scale * dist_sq
            # Defensive guard mirroring the scalar loop; enumerators
            # respect the budget, so this should never trigger.
            if not (distance < sphere):
                continue
            visited[si] += 1
            path_cols[si, lv] = col
            path_rows[si, lv] = row
            chosen[si, lv] = complex(levels[col], levels[row])
            if lv == 0:
                leaves[si] += 1
                # Schnorr–Euchner radius update.
                radius[si] = distance
                best_dist[si] = distance
                for p in range(num_streams):
                    best_cols[si, p] = path_cols[si, p]
                    best_rows[si, p] = path_rows[si, p]
                continue
            # Descend: interference of the decided upper levels,
            # accumulated column-by-column (ascending), componentwise —
            # the complex-multiply ufunc's exact program, FMA-contracted
            # when the installed numpy's loop is (NUMPY_FMA probe).
            next_level = lv - 1
            acc_re = 0.0
            acc_im = 0.0
            for column in range(next_level + 1, num_streams):
                a = r[ci, next_level, column]
                b = chosen[si, column]
                if use_fma:
                    acc_re += _fma(a.real, b.real, -(a.imag * b.imag))
                    acc_im += _fma(a.real, b.imag, a.imag * b.real)
                else:
                    acc_re += a.real * b.real - a.imag * b.imag
                    acc_im += a.real * b.imag + a.imag * b.real
            # Complex-by-real division as numpy performs it: one
            # reciprocal, two multiplies.
            scl = 1.0 / diag[ci, next_level]
            point = y[si, next_level]
            point_re = (point.real - acc_re) * scl
            point_im = (point.imag - acc_im) * scl
            expanded[si] += 1
            _slot_init(ki * num_streams + next_level, si, point_re, point_im,
                       levels, axis_scale, ztable, side, is_shabany,
                       use_table, ord_i, res_i, ord_q, res_q, off_i, off_q,
                       heap_d, heap_i, heap_j, heap_n, has_last, seen, ped)
            parent_flat[si * num_streams + next_level] = distance
            level[si] = next_level


def _soft_core(idx, kidx, chan, caps, r, y, diag, diag_sq, levels,
               axis_scale, ztable, side, is_shabany, use_table, table,
               ord_i, res_i, ord_q, res_q, off_i, off_q, heap_d, heap_i,
               heap_j, heap_n, last_i, last_j, has_last, seen, level, radius,
               parent_flat, path_cols, path_rows, chosen, list_d, list_seq,
               list_cols, list_rows, list_n, leaf_seq, list_size, ped,
               visited, expanded, leaves, prunes, use_fma):
    """Run every listed *list* (soft) search to completion.

    Same walk as :func:`_hard_core` but under the list radius policy: no
    defensive re-check (the scalar list search visits every candidate
    its enumerator yields), and a leaf inserts into the slot's bounded
    best-leaf list with ``heappushpop`` semantics — worst member out,
    ties towards the earliest-found — shrinking the radius to the worst
    member once the list is full.
    """
    num_streams = r.shape[2]
    top = num_streams - 1
    for e in range(idx.shape[0]):
        si = idx[e]
        ki = kidx[e]
        ci = chan[e]
        cap = caps[e]
        while True:
            if visited[si] >= cap:
                break
            lv = level[si]
            slot = ki * num_streams + lv
            parent_d = parent_flat[si * num_streams + lv]
            scale = diag_sq[ci, lv]
            budget = (radius[si] - parent_d) / scale
            got, dist_sq, col, row = _slot_step(
                slot, si, budget, side, is_shabany, use_table, table,
                ord_i, res_i, ord_q, res_q, off_i, off_q, heap_d, heap_i,
                heap_j, heap_n, last_i, last_j, has_last, seen, ped, prunes)
            if not got:
                next_level = lv + 1
                level[si] = next_level
                if next_level > top:
                    break
                continue
            distance = parent_d + scale * dist_sq
            visited[si] += 1
            path_cols[si, lv] = col
            path_rows[si, lv] = row
            chosen[si, lv] = complex(levels[col], levels[row])
            if lv == 0:
                leaves[si] += 1
                leaf_seq[si] += 1
                seq = leaf_seq[si]
                count = list_n[si]
                if count < list_size:
                    # Room left: append to the next free entry.
                    list_d[si, count] = distance
                    list_seq[si, count] = seq
                    for p in range(num_streams):
                        list_cols[si, count, p] = path_cols[si, p]
                        list_rows[si, count, p] = path_rows[si, p]
                    list_n[si] = count + 1
                    if count + 1 == list_size:
                        worst = list_d[si, 0]
                        for k in range(1, list_size):
                            if list_d[si, k] > worst:
                                worst = list_d[si, k]
                        radius[si] = worst
                else:
                    # heappushpop semantics: replace the worst member
                    # (ties towards the earliest-found) unless strictly
                    # worse than all of them.
                    worst = list_d[si, 0]
                    for k in range(1, list_size):
                        if list_d[si, k] > worst:
                            worst = list_d[si, k]
                    if distance <= worst:
                        victim = 0
                        victim_seq = NO_BUDGET
                        for k in range(list_size):
                            if (list_d[si, k] == worst
                                    and list_seq[si, k] < victim_seq):
                                victim_seq = list_seq[si, k]
                                victim = k
                        list_d[si, victim] = distance
                        list_seq[si, victim] = seq
                        for p in range(num_streams):
                            list_cols[si, victim, p] = path_cols[si, p]
                            list_rows[si, victim, p] = path_rows[si, p]
                        worst = list_d[si, 0]
                        for k in range(1, list_size):
                            if list_d[si, k] > worst:
                                worst = list_d[si, k]
                        radius[si] = worst
                continue
            next_level = lv - 1
            acc_re = 0.0
            acc_im = 0.0
            for column in range(next_level + 1, num_streams):
                a = r[ci, next_level, column]
                b = chosen[si, column]
                if use_fma:
                    acc_re += _fma(a.real, b.real, -(a.imag * b.imag))
                    acc_im += _fma(a.real, b.imag, a.imag * b.real)
                else:
                    acc_re += a.real * b.real - a.imag * b.imag
                    acc_im += a.real * b.imag + a.imag * b.real
            scl = 1.0 / diag[ci, next_level]
            point = y[si, next_level]
            point_re = (point.real - acc_re) * scl
            point_im = (point.imag - acc_im) * scl
            expanded[si] += 1
            _slot_init(ki * num_streams + next_level, si, point_re, point_im,
                       levels, axis_scale, ztable, side, is_shabany,
                       use_table, ord_i, res_i, ord_q, res_q, off_i, off_q,
                       heap_d, heap_i, heap_j, heap_n, has_last, seen, ped)
            parent_flat[si * num_streams + next_level] = distance
            level[si] = next_level


if NUMBA_AVAILABLE:
    # Rebind _fma to the LLVM fma intrinsic so the compiled cores get a
    # single fused instruction instead of a libm call through ctypes.
    # The cores resolve the global lazily at first compilation, so
    # rebinding before njit-ing them below is enough.
    import llvmlite.ir as _llvm_ir
    from numba.core import types as _nb_types
    from numba.extending import intrinsic as _nb_intrinsic

    @_nb_intrinsic
    def _fma(typingctx, a, b, c):  # noqa: F811 - intentional rebind
        sig = _nb_types.float64(_nb_types.float64, _nb_types.float64,
                                _nb_types.float64)

        def codegen(context, builder, signature, args):
            fn = builder.module.declare_intrinsic(
                "llvm.fma", [_llvm_ir.DoubleType()])
            return builder.call(fn, args)

        return sig, codegen

    _axis_fill = njit(cache=True)(_axis_fill)
    _slot_init = njit(cache=True)(_slot_init)
    _slot_propose = njit(cache=True)(_slot_propose)
    _slot_step = njit(cache=True)(_slot_step)
    _hard_core = njit(cache=True)(_hard_core)
    _soft_core = njit(cache=True)(_soft_core)


# Placeholder arrays standing in for optional kernel state (pruning
# tables, Shabany seen grids) so the compiled cores keep concrete
# argument types; the matching ``use_table``/``is_shabany`` flags keep
# them unread.
_DUMMY_F64 = np.zeros((1, 1))
_DUMMY_I64 = np.zeros((1, 1), dtype=np.int64)
_DUMMY_BOOL = np.zeros((1, 1), dtype=bool)


#: Each kernel's frontier scratch (see :func:`_frontier_scratch`), dropped
#: with the kernel.
_SCRATCH: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _frontier_scratch(kernel, roots, is_shabany):
    """The cores' own frontier arrays for ``kernel``, seeded at ``roots``.

    The cores keep every slot's queue as a bounded unordered ``heap_d`` /
    ``heap_i`` / ``heap_j`` triple whatever layout the numpy kernel
    uses, and they only ever start from freshly initialised root slots —
    so they borrow nothing but the axis tables: the scratch is allocated
    per kernel (re-allocated when a demand-grown pool outgrows it; no
    search survives a compiled tick, so nothing carries over) and each
    listed root is seeded with its sliced point, whose queued distance
    ``res_i[root, 0] + res_q[root, 0]`` is the very add ``kernel.init``
    performed.
    """
    num_slots, side = kernel.ord_i.shape
    scratch = _SCRATCH.get(kernel)
    if scratch is None or scratch[0].shape[0] != num_slots:
        capacity = 2 * side + 4 if is_shabany else side + 2
        scratch = (
            np.empty((num_slots, capacity)),
            np.empty((num_slots, capacity), dtype=np.int64),
            np.empty((num_slots, capacity), dtype=np.int64),
            np.empty(num_slots, dtype=np.int64),
            np.empty(num_slots, dtype=np.int64),
            np.empty(num_slots, dtype=np.int64),
            np.empty(num_slots, dtype=bool),
            (np.empty((num_slots, side * side), dtype=bool) if is_shabany
             else _DUMMY_BOOL))
        _SCRATCH[kernel] = scratch
    heap_d, heap_i, heap_j, heap_n, _, _, has_last, seen = scratch
    heap_d[roots, 0] = kernel.res_i[roots, 0] + kernel.res_q[roots, 0]
    heap_i[roots, 0] = 0
    heap_j[roots, 0] = 0
    heap_n[roots] = 1
    has_last[roots] = False
    if is_shabany:
        seen[roots] = False
        seen[roots, 0] = True  # position (0, 0)
    return scratch


def _kernel_args(kernel, kidx, num_streams):
    """Unpack a zigzag/Shabany kernel's axis tables for the cores and
    attach the cores' own frontier, seeded at the listed lanes' roots."""
    side = kernel.side
    levels = kernel.levels
    axis_scale = float(levels[1] - levels[0]) / 2.0 if side > 1 else 1.0
    ztable = zigzag_order_table(side)
    is_shabany = hasattr(kernel, "seen")
    use_table = kernel.table is not None
    if use_table:
        table = kernel.table
        off_i = kernel.off_i
        off_q = kernel.off_q
    else:
        table = _DUMMY_F64
        off_i = _DUMMY_I64
        off_q = _DUMMY_I64
    roots = kidx * num_streams + (num_streams - 1)
    return (levels, axis_scale, ztable, side, is_shabany, use_table, table,
            kernel.ord_i, kernel.res_i, kernel.ord_q, kernel.res_q,
            off_i, off_q) + _frontier_scratch(kernel, roots, is_shabany)


def run_hard_to_completion(kernel, idx, kidx, chan, caps, r, y, diag,
                           diag_sq, level, radius, parent_flat, path_cols,
                           path_rows, chosen, best_cols, best_rows,
                           best_dist, tallies) -> None:
    """Finish the listed hard searches in one compiled pass.

    ``kernel`` is an initialised zigzag/Shabany kernel whose root slots
    for the listed elements have been expanded (``kernel.init``) by the
    caller's numpy admission path; only its axis tables are read — the
    frontier lives in the cores' own scratch (:func:`_frontier_scratch`),
    seeded from those roots.  ``idx``/``kidx``/``chan`` map each
    element to its state row, kernel lane and channel-stack row (the
    batch engine passes identical arrays; the frame and streaming
    engines pass their lane/subcarrier mappings).  On return every
    listed element has either exhausted its tree or hit its cap.
    """
    ped, visited, expanded, leaves, prunes = tallies
    _hard_core(idx, kidx, chan, caps, r, y, diag, diag_sq,
               *_kernel_args(kernel, kidx, path_cols.shape[1]), level,
               radius, parent_flat, path_cols, path_rows, chosen, best_cols,
               best_rows, best_dist, ped, visited, expanded, leaves, prunes,
               NUMPY_FMA)


def run_soft_to_completion(kernel, idx, kidx, chan, caps, r, y, diag,
                           diag_sq, level, radius, parent_flat, path_cols,
                           path_rows, chosen, list_d, list_seq, list_cols,
                           list_rows, list_n, leaf_seq, list_size,
                           tallies) -> None:
    """Finish the listed list (soft) searches in one compiled pass.

    The soft twin of :func:`run_hard_to_completion`: same mapping
    arrays, with the bounded best-leaf list arrays in place of the
    single-best path state.
    """
    ped, visited, expanded, leaves, prunes = tallies
    _soft_core(idx, kidx, chan, caps, r, y, diag, diag_sq,
               *_kernel_args(kernel, kidx, path_cols.shape[1]), level,
               radius, parent_flat, path_cols, path_rows, chosen, list_d,
               list_seq, list_cols, list_rows, list_n, leaf_seq, list_size,
               ped, visited, expanded, leaves, prunes, NUMPY_FMA)
