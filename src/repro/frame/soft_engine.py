"""Frame-level breadth-synchronised *list* sphere search: soft output.

The hard frame engine (:mod:`repro.frame.engine`) advances every
(subcarrier, OFDM symbol) maximum-likelihood search of a frame through
one lockstep frontier.  This module is its soft twin: the same scheduler,
the same enumerator kernels, the same per-element gathers into stacked
triangular factors — under the *list* radius policy of
:class:`~repro.sphere.soft.ListSphereDecoder`.  Each slot maintains a
bounded best-leaf list directly in fixed-size kernel arrays
(``(S*T, list_size)`` distances plus the matching path tensors); a leaf
event inserts into the slot's list — evicting the worst member, ties
broken towards the earliest-found leaf, exactly the scalar decoder's
``heapq`` tuple order — and once a list is full the slot's sphere radius
shrinks to its worst member instead of the single best leaf.

Leaves per search are plentiful in the soft setting (the search must keep
``list_size`` of them), which is precisely why the frame-level frontier
pays off: the per-(subcarrier, symbol) Python overhead of the scalar loop
multiplies with the larger soft trees, while here every tick advances all
active searches at once.

Straggler drain
---------------
The heavy tail leaves the frontier exactly as in the hard engine: once
the queue is dry and ``drain_threshold`` searches remain, they go to the
numpy-free tail (:func:`repro.sphere.tail.finish_soft`) — the same loop
as the hard tail under the list leaf policy.  Each slot's bounded leaf
list becomes the scalar decoder's ``heapq`` of ``(-distance, discovery
index, cols, rows)`` tuples again (same entries, same tuple order, hence
the same evictions) and is written back into the slot's ``list_*`` rows,
so the frame-wide LLR extraction below covers drained and lockstep
slots alike.

LLR extraction happens once per frame: the stacked leaf lists of every
slot (drained ones included) go through
:func:`repro.sphere.soft.soft_outputs_from_lists` in a single vectorised
pass.  Because each search executes exactly the scalar state machine and
the extraction is the scalar float program batched, LLRs, list
membership, hard decisions and per-element counters are **bit-identical**
to per-slot :meth:`~repro.sphere.soft.ListSphereDecoder.decode_soft_triangular`
calls — the contract ``tests/test_frame_engine.py`` enforces across
enumerators, list sizes, clamps, node budgets, lane capacities and drain
thresholds.
"""

from __future__ import annotations

import numpy as np

from ..sphere.batch_search import make_kernel
from ..sphere.counters import ComplexityCounters
from ..sphere.soft import soft_outputs_from_lists
from ..sphere.tail import finish_soft
from ..sphere.tick_kernel import NO_BUDGET, resolve_tick_strategy, \
    run_soft_to_completion
from .engine import DRAIN_THRESHOLD_CAP, DEFAULT_LANE_CAPACITY, \
    _check_frame_inputs, accumulate_interference
from .results import SoftFrameResult, empty_soft_frame_result, \
    sum_tally_counters
from .scheduler import SlotScheduler

__all__ = ["frame_decode_soft", "frame_decode_soft_scalar",
           "insert_soft_leaves"]


def insert_soft_leaves(at_leaf, leaf_distance, seq, path_cols, path_rows,
                       list_d, list_seq, list_cols, list_rows, list_n,
                       radius, list_size: int) -> None:
    """Insert a tick's batch of leaves into their slots' bounded lists.

    The vectorised twin of the scalar decoder's ``heapq`` bookkeeping —
    append while a list has room, then ``heappushpop`` semantics (the new
    leaf replaces the worst member, ties broken towards the
    earliest-found) — with each slot's sphere radius tightened to its
    worst member once the list is full.  All arrays are indexed by the
    ids in ``at_leaf`` (frame elements for the frame engine, lanes for
    the streaming runtime), so both engines share this exact program.
    """
    count = list_n[at_leaf]
    not_full = count < list_size
    inserting = at_leaf[not_full]
    if inserting.size:
        # Room left: append to the slot's next free entry.
        slot = count[not_full]
        list_d[inserting, slot] = leaf_distance[not_full]
        list_seq[inserting, slot] = seq[not_full]
        list_cols[inserting, slot] = path_cols[inserting]
        list_rows[inserting, slot] = path_rows[inserting]
        list_n[inserting] = slot + 1
        newly_full = list_n[inserting] == list_size
        if newly_full.any():
            filled = inserting[newly_full]
            radius[filled] = list_d[filled].max(axis=1)
    replacing = at_leaf[~not_full]
    if replacing.size:
        # Full list: ``heappushpop`` semantics — the new leaf replaces
        # the worst member (largest distance, ties towards the
        # earliest-found) unless it is strictly worse than all of them.
        new_distance = leaf_distance[~not_full]
        new_seq = seq[~not_full]
        worst = list_d[replacing].max(axis=1)
        evict = new_distance <= worst
        replacing = replacing[evict]
        if replacing.size:
            new_distance = new_distance[evict]
            new_seq = new_seq[evict]
            row_d = list_d[replacing]
            worst_tie = np.where(
                row_d == row_d.max(axis=1)[:, None],
                list_seq[replacing], np.iinfo(np.int64).max)
            slot = worst_tie.argmin(axis=1)
            list_d[replacing, slot] = new_distance
            list_seq[replacing, slot] = new_seq
            list_cols[replacing, slot] = path_cols[replacing]
            list_rows[replacing, slot] = path_rows[replacing]
            radius[replacing] = list_d[replacing].max(axis=1)


def frame_decode_soft_scalar(decoder, r_stack, y_hat,
                             noise_variance: float) -> SoftFrameResult:
    """Reference frame driver: one scalar list search per slot.

    The differential baseline for :func:`frame_decode_soft` (and the
    dispatch target for ``batch_strategy="loop"`` decoders): QR is
    already hoisted — the stacked factors arrive precomputed — so the
    loop pays only the per-slot search cost.  Bit-identical to the frame
    engine by construction.
    """
    r_stack, y_hat = _check_frame_inputs(r_stack, y_hat)
    num_subcarriers, num_symbols, num_streams = y_hat.shape
    num_bits = num_streams * decoder.constellation.bits_per_symbol
    llrs = np.empty((num_subcarriers, num_symbols, num_bits))
    indices = np.empty((num_subcarriers, num_symbols, num_streams),
                       dtype=np.int64)
    sizes = np.empty((num_subcarriers, num_symbols), dtype=np.int64)
    totals = ComplexityCounters()
    factory = decoder._enumerator_factory()
    for s in range(num_subcarriers):
        diag = np.real(np.diag(r_stack[s])).copy()
        diag_sq = diag * diag
        for t in range(num_symbols):
            state = decoder._search_soft(r_stack[s], y_hat[s, t], diag,
                                         diag_sq, factory)
            result = decoder._finalise_soft(state, noise_variance)
            llrs[s, t] = result.llrs
            indices[s, t] = result.symbol_indices
            sizes[s, t] = result.list_size_used
            totals.merge(result.counters)
    return SoftFrameResult(llrs=llrs.transpose(1, 0, 2),
                           symbol_indices=indices.transpose(1, 0, 2),
                           list_sizes=sizes.T, counters=totals,
                           points=decoder.constellation.points)


def frame_decode_soft(decoder, r_stack: np.ndarray, y_hat: np.ndarray,
                      noise_variance: float, *, capacity: int | None = None,
                      drain_threshold: int | None = None,
                      trace: dict | None = None,
                      tick_strategy: str | None = None) -> SoftFrameResult:
    """Soft-decode every (symbol, subcarrier) slot of a frame in one
    frontier.

    Parameters
    ----------
    decoder:
        The configured :class:`~repro.sphere.soft.ListSphereDecoder`
        (constellation, enumerator, pruning, list size, clamp, budget).
    r_stack, y_hat:
        ``(S, nc, nc)`` stacked triangular channels and the
        subcarrier-major ``(S, T, nc)`` rotated observations, from
        :mod:`repro.frame.preprocess`.
    noise_variance:
        Post-detection noise power the LLRs are scaled by.
    capacity, drain_threshold, trace, tick_strategy:
        Exactly as in :func:`repro.frame.engine.frame_decode_sphere`:
        lane-pool size, the survivor count below which the numpy-free
        tail takes over (once per frame), the observability
        dict (``"admitted"``, ``"leaf_events"``, ``"drained"``), and
        the compiled-vs-numpy tick knob (``None`` defers to the
        decoder, then the session default; bit-identical either way).

    Returns
    -------
    SoftFrameResult
        ``(T, S)``-shaped LLRs, hard decisions, list sizes and summed
        counters — bit-identical to running scalar ``decode_soft`` per
        slot.
    """
    r_stack, y_hat = _check_frame_inputs(r_stack, y_hat)
    num_subcarriers, num_symbols, num_streams = y_hat.shape
    num_problems = num_subcarriers * num_symbols
    constellation = decoder.constellation
    levels = constellation.levels
    list_size = decoder.list_size
    top = num_streams - 1
    if num_problems == 0:
        return empty_soft_frame_result(num_symbols, num_subcarriers,
                                       num_streams, constellation)
    if capacity is None:
        capacity = DEFAULT_LANE_CAPACITY
    scheduler = SlotScheduler(num_problems, capacity)
    capacity = scheduler.capacity
    if drain_threshold is None:
        drain_threshold = max(1, min(DRAIN_THRESHOLD_CAP,
                                     min(capacity, num_problems) // 6))

    # Element e = subcarrier * T + symbol; everything per-element below.
    sub = np.repeat(np.arange(num_subcarriers, dtype=np.int64), num_symbols)
    y_flat = y_hat.reshape(num_problems, num_streams)
    diag_stack = np.real(np.einsum("sii->si", r_stack)).copy()
    diag_sq_stack = diag_stack * diag_stack

    # Per-element complexity tallies (summed into the result counters).
    ped = np.zeros(num_problems, dtype=np.int64)
    visited = np.zeros(num_problems, dtype=np.int64)
    expanded = np.zeros(num_problems, dtype=np.int64)
    leaves = np.zeros(num_problems, dtype=np.int64)
    prunes = np.zeros(num_problems, dtype=np.int64)

    kernel = make_kernel(decoder, capacity * num_streams, levels, ped, prunes)
    lane_of = np.full(num_problems, -1, dtype=np.int64)

    level = np.full(num_problems, top, dtype=np.int64)
    radius = np.full(num_problems, decoder.initial_radius_sq,
                     dtype=np.float64)
    parent = np.zeros((num_problems, num_streams), dtype=np.float64)
    path_cols = np.zeros((num_problems, num_streams), dtype=np.int64)
    path_rows = np.zeros((num_problems, num_streams), dtype=np.int64)
    chosen = np.zeros((num_problems, num_streams), dtype=np.complex128)
    parent_flat = parent.reshape(-1)
    path_cols_flat = path_cols.reshape(-1)
    path_rows_flat = path_rows.reshape(-1)
    chosen_flat = chosen.reshape(-1)

    # The bounded per-slot leaf lists, as flat kernel arrays: distance,
    # discovery order (the scalar heap's tie-breaker) and the leaf paths.
    list_d = np.full((num_problems, list_size), np.inf)
    list_seq = np.zeros((num_problems, list_size), dtype=np.int64)
    list_cols = np.zeros((num_problems, list_size, num_streams),
                         dtype=np.int64)
    list_rows = np.zeros((num_problems, list_size, num_streams),
                         dtype=np.int64)
    list_n = np.zeros(num_problems, dtype=np.int64)
    leaf_seq = np.zeros(num_problems, dtype=np.int64)

    symbol_grid = levels[:, None] + 1j * levels[None, :]

    node_budget = decoder.node_budget
    cap = NO_BUDGET if node_budget is None else node_budget
    if not kernel.has_tail:
        drain_threshold = 0
    tallies = (ped, visited, expanded, leaves, prunes)

    def admit(active: np.ndarray) -> np.ndarray:
        """Pack queued searches into free lanes and expand their roots."""
        lanes, elements = scheduler.admit()
        if elements.size == 0:
            return active
        lane_of[elements] = lanes
        expanded[elements] += 1
        points = y_flat[elements, top] / diag_stack[sub[elements], top]
        kernel.init(lanes * num_streams + top, elements, points)
        if trace is not None:
            trace.setdefault("admitted", []).append(elements.copy())
        if active.size == 0:
            return elements
        return np.concatenate([active, elements])

    active = admit(np.empty(0, dtype=np.int64))

    requested = (tick_strategy if tick_strategy is not None
                 else getattr(decoder, "tick_strategy", None))
    if resolve_tick_strategy(requested, decoder.enumerator,
                             trace) == "compiled":
        # Admission wave by admission wave, run every lane's list search
        # to completion natively — the same per-element iterations as
        # the tick loop below, so lists, LLR inputs and counters are
        # bit-identical and neither the budget pre-stop nor the drain
        # has work left.
        while active.size:
            run_soft_to_completion(
                kernel, active, lane_of[active], sub[active],
                np.full(active.size, cap, dtype=np.int64), r_stack, y_flat,
                diag_stack, diag_sq_stack, level, radius, parent_flat,
                path_cols, path_rows, chosen, list_d, list_seq, list_cols,
                list_rows, list_n, leaf_seq, list_size, tallies)
            scheduler.release(lane_of[active])
            lane_of[active] = -1
            active = admit(np.empty(0, dtype=np.int64))

    while active.size or scheduler.pending:
        if node_budget is not None and active.size:
            over = visited[active] >= node_budget
            if over.any():
                # Engineering guard, per element: stop and extract LLRs
                # from the list collected so far — exactly the scalar
                # early break.
                stopped = active[over]
                scheduler.release(lane_of[stopped])
                lane_of[stopped] = -1
                active = active[~over]
        if scheduler.pending and scheduler.free_lanes:
            active = admit(active)
        if active.size == 0:
            break
        if not scheduler.pending and active.size <= drain_threshold:
            finish_soft(
                kernel, active, lane_of[active], sub[active],
                np.full(active.size, cap, dtype=np.int64), r_stack, y_flat,
                diag_stack, diag_sq_stack, level, radius, parent_flat,
                path_cols, path_rows, chosen, list_d, list_seq, list_cols,
                list_rows, list_n, leaf_seq, list_size, tallies)
            if trace is not None:
                trace.setdefault("drained", []).extend(active.tolist())
            break

        lv = level[active]
        slots = lane_of[active] * num_streams + lv
        state = active * num_streams + lv
        parent_distance = parent_flat[state]
        scale = diag_sq_stack[sub[active], lv]
        budget = (radius[active] - parent_distance) / scale
        got, dist_sq, col, row = kernel.step(slots, active, budget)

        if got.all():
            accepted, lv_a, state_a = active, lv, state
            parent_a, scale_a = parent_distance, scale
        else:
            accepted = active[got]
            lv_a = lv[got]
            state_a = state[got]
            parent_a = parent_distance[got]
            scale_a = scale[got]
            # Enumerator ran dry: pop the stack (climb one level); root
            # pops finish the search and free its lane for the refill.
            exhausted = active[~got]
            new_level = level[exhausted] + 1
            level[exhausted] = new_level
            alive = new_level <= top
            if alive.all():
                survivors = exhausted
            else:
                survivors = exhausted[alive]
                finished = exhausted[~alive]
                scheduler.release(lane_of[finished])
                lane_of[finished] = -1
            active = np.concatenate([accepted, survivors])

        if accepted.size:
            # No defensive radius re-check here: the scalar list search
            # visits every candidate its enumerator yields, and the
            # kernels enforce the budget already.
            distance = parent_a + scale_a * dist_sq
            visited[accepted] += 1
            path_cols_flat[state_a] = col
            path_rows_flat[state_a] = row
            chosen_flat[state_a] = symbol_grid[col, row]
            leaf = lv_a == 0
            if leaf.any():
                at_leaf = accepted[leaf]
                leaf_distance = distance[leaf]
                leaves[at_leaf] += 1
                leaf_seq[at_leaf] += 1
                seq = leaf_seq[at_leaf]
                insert_soft_leaves(at_leaf, leaf_distance, seq, path_cols,
                                   path_rows, list_d, list_seq, list_cols,
                                   list_rows, list_n, radius, list_size)
                if trace is not None:
                    trace.setdefault("leaf_events", []).append(
                        (at_leaf.copy(), leaf_distance.copy()))
                push = ~leaf
            else:
                push = None
            if push is None or push.any():
                if push is None:
                    descending = accepted
                    next_level = lv_a - 1
                    parent_push = distance
                else:
                    descending = accepted[push]
                    next_level = lv_a[push] - 1
                    parent_push = distance[push]
                # Each element's own subcarrier row of R gathered into
                # the shared bit-exact accumulation.
                interference = accumulate_interference(
                    r_stack[sub[descending], next_level], chosen[descending],
                    next_level, num_streams)
                points = ((y_flat[descending, next_level] - interference)
                          / diag_stack[sub[descending], next_level])
                expanded[descending] += 1
                kernel.init(lane_of[descending] * num_streams + next_level,
                            descending, points)
                parent_flat[descending * num_streams + next_level] = (
                    parent_push)
                level[descending] = next_level

    # One frame-wide vectorised LLR extraction over the stacked lists —
    # drained and lockstep-finished slots alike.
    llrs, best_indices, _ = soft_outputs_from_lists(
        constellation, list_d, list_seq, list_cols, list_rows, list_n,
        noise_variance, decoder.clamp)
    totals = sum_tally_counters(ped, visited, expanded, leaves, prunes,
                                num_streams)

    frame_shape = (num_subcarriers, num_symbols)
    return SoftFrameResult(
        llrs=llrs.reshape(frame_shape + (-1,)).transpose(1, 0, 2),
        symbol_indices=best_indices.reshape(
            frame_shape + (num_streams,)).transpose(1, 0, 2),
        list_sizes=list_n.reshape(frame_shape).T,
        counters=totals, points=constellation.points)
