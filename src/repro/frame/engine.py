"""Frame-level breadth-synchronised sphere search: one frontier, S×T trees.

The per-subcarrier batch engine (:mod:`repro.sphere.batch_search`) already
advances the ``T`` observations of *one* subcarrier in lockstep, but a
frame has ``S`` subcarriers, so the receive chain still paid the engine's
per-tick Python overhead — and the straggler-drain tail — ``S`` separate
times per frame.  This module runs **one** frontier instance over every
(symbol, subcarrier) search problem of the frame at once, with
*heterogeneous per-slot channels*: each search carries its subcarrier
index, and every per-tick quantity that depends on ``R`` (the diagonal
scalings, the interference rows) is gathered per element from the stacked
``(S, nc, nc)`` triangular factors.  Because each search executes exactly
the scalar state machine regardless of what it shares a tick with,
results and per-element counters stay bit-identical to the
per-subcarrier path — the same argument, and the same float program, as
the single-``R`` engine.

The second ingredient is the :class:`~repro.frame.scheduler.SlotScheduler`:
kernel state lives in a bounded pool of lanes, and searches from
different subcarriers are packed into the same kernel arrays.  When an
easy search finishes, its lane is refilled from the frame-wide work
queue, so the lockstep frontier stays full for the whole frame instead of
draining to a handful of stragglers once per subcarrier — that refill is
where the frame-level latency win over the PR 2 path comes from.

Straggler drain
---------------
Once the queue is empty and the active set is down to
``drain_threshold`` searches, a lockstep tick costs more per node than
finishing the survivors one at a time, so they are handed to the
numpy-free tail (:func:`repro.sphere.tail.finish_hard`): each search's
kernel rows are exported once to plain Python state and run to the end
there, and the outcome is written back into this engine's ``best_*`` /
tally arrays — a drained search is finalised by the same code as one
that finished in lockstep.  The ``hess``/``exhaustive`` baselines have
no tail and stay in lockstep to the end.
"""

from __future__ import annotations

import numpy as np

from ..sphere.batch_search import make_kernel
from ..sphere.counters import ComplexityCounters
from ..sphere.tail import finish_hard
from ..sphere.tick_kernel import NO_BUDGET, resolve_tick_strategy, \
    run_hard_to_completion
from ..utils.validation import require
from .results import FrameDecodeResult, empty_frame_result, \
    sum_tally_counters
from .scheduler import SlotScheduler

__all__ = ["accumulate_interference", "frame_decode_sphere",
           "frame_decode_per_subcarrier", "DEFAULT_LANE_CAPACITY"]

#: Default lane-pool size.  Large enough that typical frames (64
#: subcarriers x tens of OFDM symbols) keep the whole frame in lockstep,
#: small enough that the per-slot kernel arrays stay cache- and
#: memory-friendly for dense constellations; frames with more searches
#: stream through the scheduler's refill queue.
DEFAULT_LANE_CAPACITY = 2048

#: Ceiling for the default straggler-drain threshold.  Per-subcarrier
#: batches scale their drain point as ``T // 6``, but the frame frontier
#: stays efficient down to a small *absolute* active count.  Re-measured
#: in PR 15 with the numpy-free tail (~4.5 us/node, against ~5.5 for a
#: lockstep tick of 33-64 lanes and ~3.4 for 65-128): on hard 16-QAM
#: 4x4 x 64-subcarrier frames 48-64 survivors would be 6-8 % faster
#: (closed-loop frames/s) and 14 % faster for a lone ``decode_frame``,
#: but every value above 32 lengthens the one tick that drains a *list*
#: (soft) pool enough to move the median latency of the light frames
#: sharing the runtime by +20-25 % on the mixed coded cell workload.
#: The hand-off point is a latency trade-off first, so 32 stays.
DRAIN_THRESHOLD_CAP = 32


def accumulate_interference(rows, chosen, next_level,
                            num_streams: int) -> np.ndarray:
    """Interference of the decided upper levels for a batch of descents.

    ``rows`` carries each descending element's own ``R`` row at its next
    level (gathered by the caller from whatever channel layout it keeps),
    ``chosen`` the element's decided symbols, ``next_level`` the level
    being entered.  The accumulation runs column-by-column (ascending)
    through the multiply ufunc — the scalar search's exact float program
    — so every engine that calls this (the hard frame engine, the soft
    frame engine, the streaming runtime) produces bit-identical partial
    distances.  The homogeneous-level fast path skips the ``np.where``
    masking when every element descends to the same level; both branches
    apply the identical per-element operation sequence.
    """
    products = rows * chosen
    interference = np.zeros(rows.shape[0], dtype=np.complex128)
    first = int(next_level[0])
    if (next_level == first).all():
        for column in range(first + 1, num_streams):
            interference = interference + products[:, column]
    else:
        for column in range(1, num_streams):
            interference = np.where(
                next_level < column,
                interference + products[:, column], interference)
    return interference


def _check_frame_inputs(r_stack, y_hat) -> tuple[np.ndarray, np.ndarray]:
    r_stack = np.asarray(r_stack, dtype=np.complex128)
    y_hat = np.asarray(y_hat, dtype=np.complex128)
    require(r_stack.ndim == 3 and r_stack.shape[1] == r_stack.shape[2],
            "r_stack must be (S, nc, nc)")
    require(y_hat.ndim == 3, "y_hat must be (S, T, nc)")
    require(y_hat.shape[0] == r_stack.shape[0],
            f"y_hat has {y_hat.shape[0]} subcarriers, r_stack has "
            f"{r_stack.shape[0]}")
    require(y_hat.shape[2] == r_stack.shape[2],
            f"y_hat has {y_hat.shape[2]} streams, r_stack has "
            f"{r_stack.shape[2]}")
    return r_stack, y_hat


def frame_decode_per_subcarrier(decoder, r_stack, y_hat) -> FrameDecodeResult:
    """Reference frame driver: one ``decode_batch`` per subcarrier.

    The differential baseline for :func:`frame_decode_sphere` (and the
    dispatch target for ``batch_strategy="loop"`` decoders): S
    independent per-subcarrier batch decodes, counters merged across
    subcarriers.  Bit-identical to the frame engine by construction.
    """
    r_stack, y_hat = _check_frame_inputs(r_stack, y_hat)
    num_subcarriers, num_symbols, num_streams = y_hat.shape
    found = np.empty((num_subcarriers, num_symbols), dtype=bool)
    indices = np.empty((num_subcarriers, num_symbols, num_streams),
                       dtype=np.int64)
    distances = np.empty((num_subcarriers, num_symbols), dtype=np.float64)
    totals = ComplexityCounters()
    for s in range(num_subcarriers):
        result = decoder.decode_batch(r_stack[s], y_hat[s])
        found[s] = result.found
        indices[s] = result.symbol_indices
        distances[s] = result.distances_sq
        totals.merge(result.counters)
    return FrameDecodeResult(found=found.T,
                             symbol_indices=indices.transpose(1, 0, 2),
                             distances_sq=distances.T, counters=totals,
                             points=decoder.constellation.points)


def frame_decode_sphere(decoder, r_stack: np.ndarray, y_hat: np.ndarray, *,
                        capacity: int | None = None,
                        drain_threshold: int | None = None,
                        trace: dict | None = None,
                        tick_strategy: str | None = None
                        ) -> FrameDecodeResult:
    """Decode every (symbol, subcarrier) slot of a frame in one frontier.

    Parameters
    ----------
    decoder:
        The configured :class:`~repro.sphere.decoder.SphereDecoder`
        (constellation, enumerator, pruning, initial radius, node budget).
    r_stack, y_hat:
        ``(S, nc, nc)`` stacked triangular channels (from
        :func:`repro.frame.preprocess.triangularize_frame`) and the
        subcarrier-major ``(S, T, nc)`` rotated observations (from
        :func:`repro.frame.preprocess.rotate_frame`).
    capacity:
        Lane-pool size — how many searches advance in lockstep at once
        (default :data:`DEFAULT_LANE_CAPACITY`, clamped to ``S*T``).
        Searches beyond the capacity wait in the frame-wide queue and are
        packed into lanes as earlier searches finish.
    drain_threshold:
        Hand the survivors to the numpy-free tail once the queue is
        empty *and* the active set is this small (default: the
        per-subcarrier engine's ``// 6`` break-even capped at
        :data:`DRAIN_THRESHOLD_CAP` survivors — crossed once per frame
        instead of once per subcarrier); ``0`` keeps every search in
        lockstep to the end.
    trace:
        Optional observability dict: ``"admitted"`` — one element array
        per scheduler refill, ``"leaf_events"`` — per-tick
        ``(elements, distances)`` radius tightenings, ``"drained"`` —
        elements finished by the tail.
    tick_strategy:
        ``"compiled"`` runs each admitted wave of searches to completion
        through the compiled kernel (:mod:`repro.sphere.tick_kernel`),
        ``"numpy"`` the lockstep array ticks; ``None`` defers to the
        decoder's ``tick_strategy`` and then the session default.  Both
        are bit-identical; tracing and non-compiled enumerators resolve
        to ``"numpy"``.

    Returns
    -------
    FrameDecodeResult
        ``(T, S)``-shaped results, bit-identical — decisions, distances,
        ``found`` flags and summed counters — to running
        ``decode_batch`` per subcarrier (or the scalar decoder per slot).
    """
    r_stack, y_hat = _check_frame_inputs(r_stack, y_hat)
    num_subcarriers, num_symbols, num_streams = y_hat.shape
    num_problems = num_subcarriers * num_symbols
    constellation = decoder.constellation
    levels = constellation.levels
    top = num_streams - 1
    if num_problems == 0:
        return empty_frame_result(num_symbols, num_subcarriers, num_streams,
                                  constellation)
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
    # Shared per-subcarrier scalings: same ops as the per-R engine's
    # ``np.real(np.diag(r))`` / ``diag * diag``, stacked.
    diag_stack = np.real(np.einsum("sii->si", r_stack)).copy()
    diag_sq_stack = diag_stack * diag_stack

    # Per-element complexity tallies (summed into the result counters).
    ped = np.zeros(num_problems, dtype=np.int64)
    visited = np.zeros(num_problems, dtype=np.int64)
    expanded = np.zeros(num_problems, dtype=np.int64)
    leaves = np.zeros(num_problems, dtype=np.int64)
    prunes = np.zeros(num_problems, dtype=np.int64)

    # Enumerator kernel state is *lane*-indexed (capacity lanes); search
    # path state is *element*-indexed (the full frame).  lane_of maps one
    # to the other and changes only at admit/release time.
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
    best_cols = np.full((num_problems, num_streams), -1, dtype=np.int64)
    best_rows = np.full((num_problems, num_streams), -1, dtype=np.int64)
    best_dist = np.full(num_problems, np.inf)

    # Entry (col, row) is exactly the scalar ``levels[col] + 1j *
    # levels[row]`` (both products exact, so every code path agrees).
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
        # Admission wave by admission wave, run every lane's search to
        # completion natively — the same per-element iterations as the
        # tick loop below, so results and counters are bit-identical and
        # neither the budget pre-stop nor the drain has work left.
        while active.size:
            run_hard_to_completion(
                kernel, active, lane_of[active], sub[active],
                np.full(active.size, cap, dtype=np.int64), r_stack, y_flat,
                diag_stack, diag_sq_stack, level, radius, parent_flat,
                path_cols, path_rows, chosen, best_cols, best_rows,
                best_dist, tallies)
            scheduler.release(lane_of[active])
            lane_of[active] = -1
            active = admit(np.empty(0, dtype=np.int64))

    while active.size or scheduler.pending:
        if node_budget is not None and active.size:
            over = visited[active] >= node_budget
            if over.any():
                # Engineering guard, per element: stop and keep the best
                # leaf found so far — exactly the scalar early break.
                stopped = active[over]
                scheduler.release(lane_of[stopped])
                lane_of[stopped] = -1
                active = active[~over]
        if scheduler.pending and scheduler.free_lanes:
            active = admit(active)
        if active.size == 0:
            break
        if not scheduler.pending and active.size <= drain_threshold:
            finish_hard(
                kernel, active, lane_of[active], sub[active],
                np.full(active.size, cap, dtype=np.int64), r_stack, y_flat,
                diag_stack, diag_sq_stack, level, radius, parent_flat,
                path_cols, path_rows, chosen, best_cols, best_rows,
                best_dist, tallies)
            if trace is not None:
                trace.setdefault("drained", []).extend(active.tolist())
            break

        lv = level[active]
        slots = lane_of[active] * num_streams + lv
        state = active * num_streams + lv
        parent_distance = parent_flat[state]
        scale = diag_sq_stack[sub[active], lv]
        sphere = radius[active]
        budget = (sphere - parent_distance) / scale
        got, dist_sq, col, row = kernel.step(slots, active, budget)

        if got.all():
            accepted, lv_a, state_a = active, lv, state
            parent_a, scale_a, sphere_a = parent_distance, scale, sphere
        else:
            accepted = active[got]
            lv_a = lv[got]
            state_a = state[got]
            parent_a = parent_distance[got]
            scale_a = scale[got]
            sphere_a = sphere[got]
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
            distance = parent_a + scale_a * dist_sq
            # Defensive guard mirroring the scalar loop; enumerators
            # respect the budget, so this should never trigger.
            keep = distance < sphere_a
            if not keep.all():
                accepted = accepted[keep]
                lv_a = lv_a[keep]
                state_a = state_a[keep]
                distance = distance[keep]
                col = col[keep]
                row = row[keep]
            visited[accepted] += 1
            path_cols_flat[state_a] = col
            path_rows_flat[state_a] = row
            chosen_flat[state_a] = symbol_grid[col, row]
            leaf = lv_a == 0
            if leaf.any():
                at_leaf = accepted[leaf]
                leaf_distance = distance[leaf]
                leaves[at_leaf] += 1
                # Schnorr–Euchner radius update, per element.
                radius[at_leaf] = leaf_distance
                best_dist[at_leaf] = leaf_distance
                best_cols[at_leaf] = path_cols[at_leaf]
                best_rows[at_leaf] = path_rows[at_leaf]
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

    found = np.isfinite(best_dist)
    indices = np.full((num_problems, num_streams), -1, dtype=np.int64)
    if found.any():
        indices[found] = constellation.index_of(best_cols[found],
                                                best_rows[found])
    totals = sum_tally_counters(ped, visited, expanded, leaves, prunes,
                                num_streams)

    frame_shape = (num_subcarriers, num_symbols)
    return FrameDecodeResult(
        found=found.reshape(frame_shape).T,
        symbol_indices=indices.reshape(frame_shape
                                       + (num_streams,)).transpose(1, 0, 2),
        distances_sq=best_dist.reshape(frame_shape).T,
        counters=totals, points=constellation.points)
