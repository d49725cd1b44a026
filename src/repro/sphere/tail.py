"""Numpy-free straggler tail: finish half-run searches in plain Python.

Sphere-search cost is heavy-tailed, and a lockstep tick of the engine
(:mod:`repro.runtime.engine`) costs a fixed ~150 microseconds of numpy
dispatch however few searches are still active.  Once the active set is
small the survivors are cheaper to finish one at a time — provided a
node then costs microseconds, not the tens a numpy scalar costs.  This
module is that finish: each survivor's state is exported from the kernel
arrays once (``.tolist()`` on its own rows; the queued frontier through
``kernel.export_frontier``, whatever layout the kernel keeps it in) and
the rest of its search runs on Python floats, lists and ``heapq`` only.

One loop, policies as parameters
--------------------------------
:func:`finish_hard` and :func:`finish_soft` take the same mapping arrays
as the compiled cores (:func:`repro.sphere.tick_kernel.run_hard_to_completion`)
and drive one loop, :func:`_finish_one`, whose policies are arguments:

* the **enumerator rule** — Geosphere's ``zigzag`` (horizontal successor
  only from a column's entry point) or ``shabany`` (both successors,
  seen-grid deduplication) — read off the kernel;
* the **pruning table** (``None`` disables geometric pruning);
* the **node budget** (the per-lane cap the engine already carries —
  a deadline-degraded lane passes its shrunk one);
* the **leaf policy** — Schnorr–Euchner best leaf (hard), or a bounded
  worst-out list kept as the scalar decoder's very ``heapq`` of
  ``(-distance, discovery index, cols, rows)`` tuples (soft).

Results are written back into the caller's arrays (best leaf or leaf
list, and the five tallies), so a drained search is finalised by the
same code as one that finished in lockstep.  The ``hess`` and
``exhaustive`` baselines have no tail; their kernels report
``has_tail = False`` and the engine keeps them in lockstep to the end.

Float-program equivalences
--------------------------
Bit-identity with :meth:`SphereDecoder._search` / the numpy tick rests
on the equivalences :mod:`repro.sphere.tick_kernel` documents, plus
these (each pinned by ``tests/test_tail.py`` and the drain sweeps):

* Python ``float`` ``+ - * /`` are the IEEE double operations numpy
  performs elementwise, and Python ``complex`` addition/subtraction is
  componentwise like numpy's — so distances, budgets and the
  interference *sum* need no numpy;
* the interference *products* stay one ``np.multiply`` per expansion
  (the level's ``R`` row against the decided symbols), so whichever
  complex-multiply program the installed numpy runs — FMA-contracted or
  not (``tick_kernel.NUMPY_FMA``) — is matched by construction; the
  running sum is accumulated left to right explicitly, never with
  ``sum()`` (newer Pythons compensate it);
* complex-by-real division is numpy's reciprocal multiply,
  ``scl = 1/d; (re*scl, im*scl)``;
* ``round()`` on a float is round-half-even, i.e. ``np.rint``; residuals
  are squared as ``x * x``, never ``x ** 2``;
* ``heapq`` over ``(distance, i, j)`` tuples pops the lexicographic
  minimum — the order both frontier kernels' pops reproduce (the
  column-form ``zigzag`` kernel by ``argmin`` over distinct columns, the
  ``shabany`` kernel by an explicit tie code) — so the heap
  ``export_frontier`` returns continues the same enumeration;
* ``complex(levels[col], levels[row])`` is the engine's ``symbol_grid``
  entry exactly.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heappushpop

import numpy as np

from .batch import zigzag_order_table

__all__ = ["finish_hard", "finish_soft"]


def _axis_table(levels: list, side: int) -> list:
    """Per (sliced start, preferred direction): the zigzag level order,
    the levels in that order and the pruning offsets ``|index - start|``
    — everything about an axis ordering that does not depend on the
    received coordinate."""
    table = []
    for start, pair in enumerate(zigzag_order_table(side).tolist()):
        table.append(tuple(
            (order, [levels[k] for k in order],
             [abs(k - start) for k in order]) for order in pair))
    return table


def _finish_one(kernel, lane, lv, radius, parent, path_cols, path_rows,
                chosen, r, y, diag, diag_sq, tallies, cap, leaf_heap,
                leaf_seq, list_size, prune, levels, axis_table):
    """Export one search's kernel rows and run it to exhaustion or its
    node budget.

    The preamble turns the search's own rows into plain Python state —
    levels ``lv..top`` hold live enumerators (the stack), lower levels
    are placeholders the loop fills when it expands them — and from the
    ``while`` on nothing is a numpy object except ``chosen``, the
    caller's row of decided symbols (one operand of the one
    ``np.multiply`` per expansion).  ``list_size`` is ``None`` for the
    hard (best-leaf) policy.  Returns ``(tallies, best)``: ``best`` is
    ``(distance, cols, rows)`` of the last leaf the hard policy accepted
    (``None`` if none); the soft policy's outcome is the mutated
    ``leaf_heap``.
    """
    num_streams = len(path_cols)
    top = num_streams - 1
    side = kernel.side
    upper = side - 1
    rows = slice(lane * num_streams + lv, (lane + 1) * num_streams)
    blank = [None] * lv
    orders_i = blank + kernel.ord_i[rows].tolist()
    orders_q = blank + kernel.ord_q[rows].tolist()
    res_i = blank + kernel.res_i[rows].tolist()
    res_q = blank + kernel.res_q[rows].tolist()
    if prune is not None:
        off_i = blank + kernel.off_i[rows].tolist()
        off_q = blank + kernel.off_q[rows].tolist()
    else:
        off_i = off_q = [None] * num_streams
    heaps, last = kernel.export_frontier(rows)
    heaps = blank + heaps
    last = blank + last
    shabany = hasattr(kernel, "seen")
    if shabany:
        seen = blank + kernel.seen[rows].tolist()
    parent = parent.tolist()
    path_cols = path_cols.tolist()
    path_rows = path_rows.tolist()
    r_rows = [r[level, level + 1:] for level in range(num_streams)]
    chosen_above = [chosen[level + 1:] for level in range(num_streams)]
    y_re = y.real.tolist()
    y_im = y.imag.tolist()
    inv_diag = (1.0 / diag).tolist()
    diag_sq = diag_sq.tolist()
    axis_scale = (levels[1] - levels[0]) / 2.0 if side > 1 else 1.0
    ped, visited, expanded, leaves, prunes = tallies
    hard = list_size is None
    best = None

    while visited < cap:
        parent_d = parent[lv]
        scale = diag_sq[lv]
        budget = (radius - parent_d) / scale
        heap = heaps[lv]
        pair = last[lv]
        if pair is not None:
            # Deferred successors of the previously dequeued point:
            # vertical always, horizontal from the column's entry point
            # (Geosphere) or unconditionally (Shabany).
            last[lv] = None
            i, j = pair
            for a, b in (((i, j + 1), (i + 1, j)) if shabany or j == 0
                         else ((i, j + 1),)):
                if a > upper or b > upper:
                    continue
                if shabany:
                    grid = seen[lv]
                    code = a * side + b
                    if grid[code]:
                        continue
                    grid[code] = True
                if prune is not None and \
                        prune[off_i[lv][a]][off_q[lv][b]] >= budget:
                    prunes += 1
                    continue
                ped += 1
                heappush(heap, (res_i[lv][a] + res_q[lv][b], a, b))
        if not heap or heap[0][0] >= budget:
            # Enumerator ran dry: pop the stack; a root pop finishes.
            lv += 1
            if lv > top:
                break
            continue
        entry = heappop(heap)
        last[lv] = entry[1:]
        distance = parent_d + scale * entry[0]
        if hard and distance >= radius:   # defensive, as in the oracle
            continue
        visited += 1
        col = orders_i[lv][entry[1]]
        row = orders_q[lv][entry[2]]
        path_cols[lv] = col
        path_rows[lv] = row
        chosen[lv] = complex(levels[col], levels[row])
        if lv == 0:
            leaves += 1
            if hard:
                radius = distance
                best = (distance, path_cols[:], path_rows[:])
            else:
                leaf_seq += 1
                leaf = (-distance, leaf_seq, tuple(path_cols),
                        tuple(path_rows))
                if len(leaf_heap) < list_size:
                    heappush(leaf_heap, leaf)
                else:
                    heappushpop(leaf_heap, leaf)
                if len(leaf_heap) == list_size:
                    radius = -leaf_heap[0][0]
            continue
        lv -= 1
        interference = 0j
        for product in np.multiply(r_rows[lv], chosen_above[lv]).tolist():
            interference = interference + product
        scl = inv_diag[lv]
        for coordinate, orders, res, off in (
                ((y_re[lv] - interference.real) * scl, orders_i, res_i,
                 off_i),
                ((y_im[lv] - interference.imag) * scl, orders_q, res_q,
                 off_q)):
            start = round((coordinate / axis_scale + upper) / 2.0)
            start = upper if start > upper else 0 if start < 0 else start
            orders[lv], ordered, off[lv] = axis_table[start][
                coordinate >= levels[start]]
            res[lv] = [(x := level - coordinate) * x for level in ordered]
        expanded += 1
        # Enqueue the sliced point; its lower bound is zero, so it
        # bypasses the pruning check.
        ped += 1
        heaps[lv] = [(res_i[lv][0] + res_q[lv][0], 0, 0)]
        last[lv] = None
        if shabany:
            seen[lv] = [True] + [False] * (side * side - 1)
        parent[lv] = distance
    return (ped, visited, expanded, leaves, prunes), best


def _finish(kernel, idx, kidx, chan, caps, r, y, diag, diag_sq, level,
            radius, parent_flat, path_cols, path_rows, chosen, tallies,
            list_size, load, store) -> None:
    """Shared driver of :func:`finish_hard` / :func:`finish_soft`: run
    each listed search to its end, write tallies and the leaf outcome
    back.  ``load(si)`` supplies the soft policy's ``(leaf_heap,
    leaf_seq)`` and ``store(si, best, leaf_heap)`` banks the outcome."""
    num_streams = path_cols.shape[1]
    levels = kernel.levels.tolist()
    axis_table = _axis_table(levels, kernel.side)
    prune = kernel.table.tolist() if kernel.table is not None else None
    for si, ki, ci, cap in zip(idx.tolist(), kidx.tolist(), chan.tolist(),
                               caps.tolist()):
        leaf_heap, leaf_seq = load(si)
        state = si * num_streams
        counts, best = _finish_one(
            kernel, ki, int(level[si]), float(radius[si]),
            parent_flat[state:state + num_streams], path_cols[si],
            path_rows[si], chosen[si], r[ci], y[si], diag[ci], diag_sq[ci],
            [int(tally[si]) for tally in tallies], cap, leaf_heap, leaf_seq,
            list_size, prune, levels, axis_table)
        for tally, count in zip(tallies, counts):
            tally[si] = count
        store(si, best, leaf_heap)


def finish_hard(kernel, idx, kidx, chan, caps, r, y, diag, diag_sq, level,
                radius, parent_flat, path_cols, path_rows, chosen,
                best_cols, best_rows, best_dist, tallies) -> None:
    """Finish the listed half-run hard searches, one at a time.

    Arguments are exactly those of
    :func:`repro.sphere.tick_kernel.run_hard_to_completion`: ``idx`` /
    ``kidx`` / ``chan`` map each search to its state row, kernel lane
    and channel-stack row, ``caps`` are absolute node budgets
    (``NO_BUDGET`` when unbounded).  On return ``best_*`` and the
    tallies of every listed search hold its final outcome; the kernel
    rows and the path/level state are left stale.
    """
    def store(si, best, _):
        if best is not None:
            best_dist[si], best_cols[si], best_rows[si] = best

    _finish(kernel, idx, kidx, chan, caps, r, y, diag, diag_sq, level,
            radius, parent_flat, path_cols, path_rows, chosen, tallies,
            None, lambda si: (None, 0), store)


def finish_soft(kernel, idx, kidx, chan, caps, r, y, diag, diag_sq, level,
                radius, parent_flat, path_cols, path_rows, chosen, list_d,
                list_seq, list_cols, list_rows, list_n, leaf_seq, list_size,
                tallies) -> None:
    """Finish the listed half-run list (soft) searches, one at a time.

    The soft twin of :func:`finish_hard` (arguments as
    :func:`repro.sphere.tick_kernel.run_soft_to_completion`): each
    search's bounded leaf list becomes the scalar decoder's ``heapq``
    again — same entries, same tuple order, hence the same evictions —
    and is written back into the ``list_*`` rows for the caller's
    frame-wide LLR extraction.
    """
    def load(si):
        count = int(list_n[si])
        heap = [(-d, seq, tuple(cols), tuple(rows)) for d, seq, cols, rows
                in zip(list_d[si, :count].tolist(),
                       list_seq[si, :count].tolist(),
                       list_cols[si, :count].tolist(),
                       list_rows[si, :count].tolist())]
        heapify(heap)
        return heap, int(leaf_seq[si])

    def store(si, _, heap):
        count = len(heap)
        list_n[si] = count
        if count:
            negated, sequence, cols, rows = zip(*heap)
            list_d[si, :count] = negated
            np.negative(list_d[si, :count], out=list_d[si, :count])
            list_seq[si, :count] = sequence
            list_cols[si, :count] = cols
            list_rows[si, :count] = rows

    _finish(kernel, idx, kidx, chan, caps, r, y, diag, diag_sq, level,
            radius, parent_flat, path_cols, path_rows, chosen, tallies,
            list_size, load, store)
