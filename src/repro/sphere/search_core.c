/*
 * The per-search state machine of the depth-first sphere decoder, once.
 *
 * Built at first use by repro/sphere/tick_kernel.py (the system cc, -O2
 * -shared -fPIC -ffp-contract=off -- never -ffast-math or -march=native)
 * and loaded through ctypes.  One search entry point, repro_search_run,
 * takes searches in *any* state -- fresh from admission or half run --
 * and gives each an allowance of candidate attempts, in place on the pool's
 * frontier and lane arrays (repro/runtime/engine.py), laid out once by
 * tick_kernel.lanes next to the ctypes mirror of search_t.
 * Admission only writes a search's lane rows and leaves it above its
 * root (level == num_streams); the core expands the root, with the same
 * expand() as every other node, before the search's first attempt.  An
 * attempt is one iteration of the scalar search loop
 * (SphereDecoder._search), so whatever the allowance, a search executes
 * the scalar loop's iterations in order.  One loop, two uses: an
 * allowance of 2 is the lockstep step, an unlimited one the straggler
 * drain.
 *
 * Policies are fields of search_t, not copies of the loop:
 *   - frontier: `zigzag` (Geosphere; column form, at most one queued
 *     candidate per entered PAM column, pop = argmin over the row, ties
 *     to the lowest column) when `seen` is NULL, else `shabany` (both
 *     successors behind a seen grid; a bounded unordered heap whose pop
 *     is the lexicographic (distance, i, j) minimum);
 *   - geometric pruning: `prune` table or NULL;
 *   - leaf policy: Schnorr-Euchner best leaf when list_size == 0, else a
 *     bounded worst-out list (heappushpop semantics, ties towards the
 *     earliest-found leaf);
 *   - node budget: caps[e], re-checked before every candidate attempt,
 *     which is the scalar loop's check.
 *
 * A list search leaves the core finished: at run_one's one finish exit
 * (tree exhausted or cap reached, in a step or in the drain) it writes
 * its best member into best_cols / best_rows and its max-log LLRs into
 * its llrs row (finish_list), so no leaf list leaves the lane.
 *
 * Bit-identity with the scalar decoders rests on keeping every float
 * operation the one they perform through numpy:
 *   - complex / real is numpy's reciprocal multiply: scl = 1/d, then
 *     (re * scl, im * scl) -- a plain re/d differs in the last ulp;
 *   - real divisions (the budget, the slicing coordinate) stay plain /;
 *   - interference accumulates column by column (ascending) through the
 *     componentwise complex product numpy's SIMD loop emits -- FMA
 *     contracted, re = fma(ar, br, -(ai*bi)), im = fma(ar, bi, ai*br),
 *     or the plain mul-sub form, whichever the NUMPY_FMA probe found;
 *   - distance = parent + scale * dist_sq is a separate multiply and add
 *     (-ffp-contract=off forbids fusing them, as numpy does not);
 *   - rint() (round-half-even) slices a coordinate, the clamp is by
 *     compare, residuals are squared as x * x;
 *   - a chosen symbol is (levels[col], levels[row]).
 *
 * The LLRs keep the float program of soft_outputs_from_lists
 * (repro/sphere/soft.py), the scalar decoder's and the fallback's: per
 * bit, the least distance among the list's members labelling it 1 and
 * among those labelling it 0 (a min by compare, so order-free), then
 * one subtract and one plain / by the search's noise variance, both
 * finite; otherwise +clamp if only 0s were seen, -clamp if only 1s;
 * then the clip to [-clamp, clamp] by compares.  The best member is the
 * least (distance, discovery order).  Bits come from a (side,
 * bits_per_axis) table, row p the MSB-first bits of gray_encode(p),
 * built in Python by int_to_bits(gray_encode(...)); a stream's labels
 * are its column's bits, then its row's.  Distances are finite: the
 * front door refuses non-finite input.
 *
 * The same file holds the batched Viterbi trellis (repro_trellis_run),
 * so one build and one loader serve both.  Its float program is the
 * numpy trellis sweep's, and only that: the pattern costs arrive
 * computed (numpy's matmul, whose summation order C cannot reproduce
 * for every code rate); per state and step the core adds
 * m[p0] + cost[from0] and m[p0 + 1] + cost[from1] as two separate IEEE
 * adds, takes the second only if strictly smaller (c1 < c0, so ties and
 * inf + inf go to the first, as np.where(c1 < c0, c1, c0) does), and
 * records that choice as the backpointer.  No multiply, no contraction.
 */

#include <math.h>
#include <stdint.h>

typedef struct { double re, im; } cplx;

/* Field order is the ctypes mirror's (tick_kernel._Search): pointers,
 * then integers, then the doubles. */
typedef struct {
    /* constellation */
    const double *levels;      /* (side) PAM amplitudes */
    const int64_t *zigzag;     /* (side, 2, side) 1-D zigzag level orders */
    const double *prune;       /* (side, side) squared lower bounds | NULL */
    const uint8_t *bits;       /* (side, bits_per_axis) Gray labels (soft) */
    /* frontier axis tables, slot-major; slot = id * num_streams + level */
    int64_t *axis_int;         /* (slots, 2 | 4, side): ord_i [off_i] ord_q [off_q] */
    double *axis_res;          /* (slots, 2, side): res_i res_q */
    /* frontier queue: zigzag uses queue_d / queue_j as col_d / col_j
     * plus last_i; shabany uses all of it */
    double *queue_d;
    int64_t *queue_i, *queue_j, *queue_n, *last_i, *last_j;
    uint8_t *has_last, *seen;
    /* per-search channel copies */
    const cplx *r, *y;         /* (ids, n, n), (ids, n) */
    const double *diag, *diag_sq;
    const double *noise_var;   /* (ids) the frame's LLR scale (soft) */
    /* search path */
    int64_t *level;
    double *radius, *parent;
    int64_t *path_cols, *path_rows;
    cplx *chosen;
    /* best leaf (hard) */
    int64_t *best_cols, *best_rows;
    double *best_dist;
    /* leaf list (soft) */
    double *list_d;
    int64_t *list_seq, *list_cols, *list_rows, *list_n, *leaf_seq;
    double *llrs;              /* (ids, num_streams * 2 * bits_per_axis) */
    /* complexity tallies, tally_stride elements apart per state */
    int64_t *ped, *visited, *expanded, *leaves, *prunes;
    int64_t tally_stride, num_streams, side, queue_capacity, list_size;
    int64_t use_fma;
    double axis_scale, clamp;
} search_t;

/* One node's axis tables. */
typedef struct {
    int64_t *ord_i, *ord_q, *off_i, *off_q;
    double *res_i, *res_q;
} node_t;

static node_t node_at(const search_t *s, int64_t slot)
{
    const int64_t side = s->side, per_axis = s->prune ? 2 : 1;
    int64_t *ints = s->axis_int + slot * 2 * per_axis * side;
    double *res = s->axis_res + slot * 2 * side;
    node_t node = {ints, ints + per_axis * side,
                   ints + (per_axis - 1) * side,   /* unread unless pruning */
                   ints + (2 * per_axis - 1) * side, res, res + side};
    return node;
}

/* batched_axis_orders for one coordinate: slice, pick the preferred
 * direction, copy the zigzag walk, square the residuals. */
static void order_axis(const search_t *s, double coord, int64_t *order,
                       int64_t *offset, double *residual)
{
    const int64_t side = s->side;
    const double sliced =
        rint((coord / s->axis_scale + (double)(side - 1)) / 2.0);
    const int64_t start = sliced > (double)(side - 1) ? side - 1
                          : sliced < 0.0 ? 0 : (int64_t)sliced;
    const int64_t *walk =
        s->zigzag + (start * 2 + (coord >= s->levels[start])) * side;
    for (int64_t p = 0; p < side; p++) {
        const int64_t index = walk[p];
        const double gap = s->levels[index] - coord;
        order[p] = index;
        residual[p] = gap * gap;
        if (s->prune)
            offset[p] = index > start ? index - start : start - index;
    }
}

/* Expand a node into `slot`: order both axes and enqueue the sliced
 * point (its lower bound is zero, so it bypasses the pruning check). */
static void expand(const search_t *s, int64_t slot, double re, double im,
                   int64_t *ped)
{
    const int64_t side = s->side;
    const node_t node = node_at(s, slot);
    order_axis(s, re, node.ord_i, node.off_i, node.res_i);
    order_axis(s, im, node.ord_q, node.off_q, node.res_q);
    double *queue_d = s->queue_d + slot * s->queue_capacity;
    if (s->seen) {
        uint8_t *seen = s->seen + slot * side * side;
        for (int64_t code = 0; code < side * side; code++)
            seen[code] = 0;
        seen[0] = 1;
        s->queue_i[slot * s->queue_capacity] = 0;
        s->queue_n[slot] = 1;
        s->has_last[slot] = 0;
    } else {
        for (int64_t i = 1; i < side; i++)
            queue_d[i] = INFINITY;
        s->last_i[slot] = -1;
    }
    queue_d[0] = node.res_i[0] + node.res_q[0];
    s->queue_j[slot * s->queue_capacity] = 0;
    ++*ped;
}

/* True when the geometric lower bound of position (i, j) already
 * exceeds the budget (counted as a prune). */
static int pruned(const search_t *s, const node_t *node, int64_t i,
                  int64_t j, double budget, int64_t *prunes)
{
    if (s->prune && s->prune[node->off_i[i] * s->side + node->off_q[j]]
                        >= budget) {
        ++*prunes;
        return 1;
    }
    return 0;
}

/* One next_candidate() of the column-form zigzag frontier: the deferred
 * successors of the candidate handed out last -- vertical (i, j + 1)
 * always, horizontal (i + 1, 0) from the column's entry point -- then
 * pop the nearest queued column if it beats the budget. */
static int zigzag_next(const search_t *s, int64_t slot, double budget,
                       int64_t *ped, int64_t *prunes, double *dist_sq,
                       int64_t *col, int64_t *row)
{
    const int64_t side = s->side;
    const node_t node = node_at(s, slot);
    double *col_d = s->queue_d + slot * side;
    int64_t *col_j = s->queue_j + slot * side;
    const int64_t i = s->last_i[slot];
    if (i >= 0) {
        const int64_t j = col_j[i];
        if (j < side - 1 && !pruned(s, &node, i, j + 1, budget, prunes)) {
            ++*ped;
            col_d[i] = node.res_i[i] + node.res_q[j + 1];
            col_j[i] = j + 1;
        }
        if (j == 0 && i < side - 1
                && !pruned(s, &node, i + 1, 0, budget, prunes)) {
            ++*ped;
            col_d[i + 1] = node.res_i[i + 1] + node.res_q[0];
            col_j[i + 1] = 0;
        }
    }
    int64_t best = 0;
    for (int64_t k = 1; k < side; k++)
        if (col_d[k] < col_d[best])
            best = k;
    if (!(col_d[best] < budget)) {
        s->last_i[slot] = -1;
        return 0;
    }
    *dist_sq = col_d[best];
    *col = node.ord_i[best];
    *row = node.ord_q[col_j[best]];
    col_d[best] = INFINITY;
    s->last_i[slot] = best;
    return 1;
}

/* Shabany: bounds-check, dedupe (marking before the pruning check, like
 * the scalar seen-set), prune-check, enqueue.  -1 on queue overflow. */
static int shabany_propose(const search_t *s, int64_t slot,
                           const node_t *node, int64_t i, int64_t j,
                           double budget, int64_t *ped, int64_t *prunes)
{
    const int64_t side = s->side;
    if (i >= side || j >= side)
        return 0;
    uint8_t *seen = s->seen + slot * side * side + i * side + j;
    if (*seen)
        return 0;
    *seen = 1;
    if (pruned(s, node, i, j, budget, prunes))
        return 0;
    ++*ped;
    const int64_t position = s->queue_n[slot];
    if (position >= s->queue_capacity)
        return -1;
    const int64_t at = slot * s->queue_capacity + position;
    s->queue_d[at] = node->res_i[i] + node->res_q[j];
    s->queue_i[at] = i;
    s->queue_j[at] = j;
    s->queue_n[slot] = position + 1;
    return 0;
}

/* One next_candidate() of the Shabany frontier: both successors of the
 * previously dequeued point, then pop the (distance, i, j) minimum. */
static int shabany_next(const search_t *s, int64_t slot, double budget,
                        int64_t *ped, int64_t *prunes, double *dist_sq,
                        int64_t *col, int64_t *row)
{
    const int64_t side = s->side;
    const node_t node = node_at(s, slot);
    if (s->has_last[slot]) {
        const int64_t i = s->last_i[slot], j = s->last_j[slot];
        s->has_last[slot] = 0;
        if (shabany_propose(s, slot, &node, i, j + 1, budget, ped, prunes)
                || shabany_propose(s, slot, &node, i + 1, j, budget, ped,
                                   prunes))
            return -1;
    }
    double *heap_d = s->queue_d + slot * s->queue_capacity;
    int64_t *heap_i = s->queue_i + slot * s->queue_capacity;
    int64_t *heap_j = s->queue_j + slot * s->queue_capacity;
    const int64_t occupied = s->queue_n[slot];
    double best_d = INFINITY;
    int64_t best_code = side * side, best = -1;
    for (int64_t k = 0; k < occupied; k++) {
        const int64_t code = heap_i[k] * side + heap_j[k];
        if (heap_d[k] < best_d || (heap_d[k] == best_d && code < best_code)) {
            best_d = heap_d[k];
            best_code = code;
            best = k;
        }
    }
    if (!(best_d < budget))
        return 0;
    const int64_t i = heap_i[best], j = heap_j[best];
    /* Remove the popped entry: swap in the last occupied one. */
    heap_d[best] = heap_d[occupied - 1];
    heap_i[best] = heap_i[occupied - 1];
    heap_j[best] = heap_j[occupied - 1];
    s->queue_n[slot] = occupied - 1;
    s->last_i[slot] = i;
    s->last_j[slot] = j;
    s->has_last[slot] = 1;
    *dist_sq = best_d;
    *col = node.ord_i[i];
    *row = node.ord_q[j];
    return 1;
}

static double worst_of(const double *list_d, int64_t size)
{
    double worst = list_d[0];
    for (int64_t k = 1; k < size; k++)
        if (list_d[k] > worst)
            worst = list_d[k];
    return worst;
}

/* Insert a leaf into the search's bounded list: append while there is
 * room, then replace the worst member (ties towards the earliest found)
 * unless strictly worse than all of them -- heappushpop semantics.  A
 * full list's worst member is the sphere radius. */
static void bank_list_leaf(const search_t *s, int64_t si, double distance)
{
    const int64_t n = s->num_streams, size = s->list_size;
    double *list_d = s->list_d + si * size;
    int64_t *list_seq = s->list_seq + si * size;
    const int64_t seq = ++s->leaf_seq[si];
    int64_t entry = s->list_n[si];
    if (entry < size) {
        s->list_n[si] = entry + 1;
    } else {
        const double worst = worst_of(list_d, size);
        if (!(distance <= worst))
            return;
        int64_t victim_seq = INT64_MAX;
        for (int64_t k = 0; k < size; k++)
            if (list_d[k] == worst && list_seq[k] < victim_seq) {
                victim_seq = list_seq[k];
                entry = k;
            }
    }
    list_d[entry] = distance;
    list_seq[entry] = seq;
    for (int64_t p = 0; p < n; p++) {
        s->list_cols[(si * size + entry) * n + p] = s->path_cols[si * n + p];
        s->list_rows[(si * size + entry) * n + p] = s->path_rows[si * n + p];
    }
    if (s->list_n[si] == size)
        s->radius[si] = worst_of(list_d, size);
}

/* A finished list search's soft output (see the header): its best
 * member into best_cols / best_rows, its max-log LLRs into its llrs row.
 * A search that banked no leaf gets -1 positions and no LLRs; the frame
 * refuses it when it finalises. */
static void finish_list(const search_t *s, int64_t si)
{
    const int64_t n = s->num_streams, size = s->list_size;
    const int64_t count = s->list_n[si];
    const double *list_d = s->list_d + si * size;
    const int64_t *list_seq = s->list_seq + si * size;
    const int64_t *cols = s->list_cols + si * size * n;
    const int64_t *rows = s->list_rows + si * size * n;
    int64_t best = -1;
    for (int64_t k = 0; k < count; k++)
        if (best < 0 || list_d[k] < list_d[best]
                || (list_d[k] == list_d[best] && list_seq[k] < list_seq[best]))
            best = k;
    for (int64_t p = 0; p < n; p++) {
        s->best_cols[si * n + p] = best < 0 ? -1 : cols[best * n + p];
        s->best_rows[si * n + p] = best < 0 ? -1 : rows[best * n + p];
    }
    if (best < 0)
        return;
    int64_t width = 0;                 /* bits_per_axis: side = 2^width */
    while (((int64_t)1 << width) < s->side)
        width++;
    const double clamp = s->clamp, noise_var = s->noise_var[si];
    double *llr = s->llrs + si * n * 2 * width;
    for (int64_t p = 0; p < n; p++)
        for (int64_t axis = 0; axis < 2; axis++) {
            const int64_t *position = axis ? rows : cols;
            for (int64_t b = 0; b < width; b++) {
                double zero_min = INFINITY, one_min = INFINITY;
                for (int64_t k = 0; k < count; k++) {
                    const double d = list_d[k];
                    if (s->bits[position[k * n + p] * width + b]) {
                        if (d < one_min)
                            one_min = d;
                    } else if (d < zero_min) {
                        zero_min = d;
                    }
                }
                double value = isfinite(zero_min) && isfinite(one_min)
                    ? (one_min - zero_min) / noise_var
                    : isfinite(zero_min) ? clamp : -clamp;
                value = value < -clamp ? -clamp : value > clamp ? clamp
                                                                : value;
                *llr++ = value;
            }
        }
}

/* Run search `si` on from whatever state it is in, for at most
 * `attempts` iterations; `si` indexes its state rows, its frontier slots
 * and its channel copy alike.  A search still above its root (fresh from
 * admission) first expands the root, as the scalar search does before
 * its loop -- ahead of the budget check, and not as an attempt.  Each
 * iteration is one iteration of the scalar loop: one candidate attempt.
 * 1 once the search is finished -- its tree exhausted (a root pop) or
 * `cap` nodes visited, a list search's soft output then written -- 0 if
 * the allowance ran out first, -1 if the Shabany queue bound was
 * violated. */
static int run_one(const search_t *s, int64_t si, int64_t cap,
                   int64_t attempts)
{
    const int64_t n = s->num_streams;
    int64_t *ped = s->ped + si * s->tally_stride;
    int64_t *visited = s->visited + si * s->tally_stride;
    int64_t *prunes = s->prunes + si * s->tally_stride;
    if (s->level[si] == n) {
        const int64_t top = n - 1;
        const double scl = 1.0 / s->diag[si * n + top];
        const cplx point = s->y[si * n + top];
        ++s->expanded[si * s->tally_stride];
        expand(s, si * n + top, point.re * scl, point.im * scl, ped);
        s->parent[si * n + top] = 0.0;
        s->level[si] = top;
    }
    while (*visited < cap) {
        if (attempts-- == 0)
            return 0;
        const int64_t lv = s->level[si];
        const double parent_d = s->parent[si * n + lv];
        const double scale = s->diag_sq[si * n + lv];
        const double sphere = s->radius[si];
        const double budget = (sphere - parent_d) / scale;
        double dist_sq;
        int64_t col, row;
        const int got = s->seen
            ? shabany_next(s, si * n + lv, budget, ped, prunes, &dist_sq,
                           &col, &row)
            : zigzag_next(s, si * n + lv, budget, ped, prunes, &dist_sq,
                          &col, &row);
        if (got < 0)
            return -1;
        if (!got) {
            /* Enumerator ran dry: pop the stack (climb one level); a
             * root pop finishes the search. */
            if ((s->level[si] = lv + 1) > n - 1)
                break;
            continue;
        }
        const double distance = parent_d + scale * dist_sq;
        /* Defensive guard mirroring the scalar best-leaf loop (the list
         * search visits every candidate its enumerator yields). */
        if (!s->list_size && !(distance < sphere))
            continue;
        ++*visited;
        s->path_cols[si * n + lv] = col;
        s->path_rows[si * n + lv] = row;
        s->chosen[si * n + lv].re = s->levels[col];
        s->chosen[si * n + lv].im = s->levels[row];
        if (lv == 0) {
            ++s->leaves[si * s->tally_stride];
            if (s->list_size) {
                bank_list_leaf(s, si, distance);
            } else {
                /* Schnorr-Euchner radius update. */
                s->radius[si] = s->best_dist[si] = distance;
                for (int64_t p = 0; p < n; p++) {
                    s->best_cols[si * n + p] = s->path_cols[si * n + p];
                    s->best_rows[si * n + p] = s->path_rows[si * n + p];
                }
            }
            continue;
        }
        /* Descend: cancel the interference of the decided upper levels. */
        const int64_t next = lv - 1;
        const cplx *r_row = s->r + (si * n + next) * n;
        const cplx *chosen = s->chosen + si * n;
        double acc_re = 0.0, acc_im = 0.0;
        for (int64_t c = next + 1; c < n; c++) {
            const cplx a = r_row[c], b = chosen[c];
            if (s->use_fma) {
                acc_re += fma(a.re, b.re, -(a.im * b.im));
                acc_im += fma(a.re, b.im, a.im * b.re);
            } else {
                acc_re += a.re * b.re - a.im * b.im;
                acc_im += a.re * b.im + a.im * b.re;
            }
        }
        const double scl = 1.0 / s->diag[si * n + next];
        const cplx point = s->y[si * n + next];
        ++s->expanded[si * s->tally_stride];
        expand(s, si * n + next, (point.re - acc_re) * scl,
               (point.im - acc_im) * scl, ped);
        s->parent[si * n + next] = distance;
        s->level[si] = next;
    }
    if (s->list_size)
        finish_list(s, si);
    return 1;
}

/* What the ctypes mirror's size is checked against at load. */
int64_t repro_search_size(void)
{
    return (int64_t)sizeof(search_t);
}

/* Give each of the `count` listed searches (ids, absolute node budgets
 * caps) up to `attempts` candidate attempts -- 1 is one lockstep tick,
 * INT64_MAX runs them to completion -- and flag the finished ones in
 * `done`.  Returns 0, or -1 if a frontier queue overflowed. */
int repro_search_run(const search_t *s, int64_t count, const int64_t *ids,
                     const int64_t *caps, int64_t attempts, uint8_t *done)
{
    for (int64_t e = 0; e < count; e++) {
        const int finished = run_one(s, ids[e], caps[e], attempts);
        if (finished < 0)
            return -1;
        done[e] = (uint8_t)finished;
    }
    return 0;
}

/* The batched Viterbi trellis of repro/coding/viterbi.py, for `blocks`
 * terminated blocks of `steps` trellis steps each: the add-compare-select
 * over every state and step, then the traceback from state 0.  costs
 * (blocks, steps, patterns) are the pattern costs numpy computed; state
 * t is reached with input bit t / half from predecessors 2 * (t % half)
 * and 2 * (t % half) + 1, through the expected-output patterns from0[t]
 * / from1[t].  back is one
 * (steps, states) scratch reused block after block, metrics 2 * states,
 * decisions (blocks, steps).  Nothing is allocated here. */
void repro_trellis_run(const double *costs, int64_t blocks, int64_t steps,
                       int64_t patterns, int64_t states,
                       const int64_t *from0, const int64_t *from1,
                       uint8_t *back, double *metrics, uint8_t *decisions)
{
    const int64_t half = states / 2;
    for (int64_t b = 0; b < blocks; b++) {
        double *m = metrics, *next = metrics + states;
        for (int64_t t = 0; t < states; t++)
            m[t] = INFINITY;
        m[0] = 0.0;                     /* every encoder starts in state 0 */
        for (int64_t step = 0; step < steps; step++) {
            const double *cost = costs + (b * steps + step) * patterns;
            uint8_t *take = back + step * states;
            /* State t = bit * half + p, whose predecessors are 2p and
             * 2p + 1 (no division in the loop). */
            for (int64_t t = 0; t < states; t++) {
                const double *pred = m + 2 * (t < half ? t : t - half);
                const double c0 = pred[0] + cost[from0[t]];
                const double c1 = pred[1] + cost[from1[t]];
                const uint8_t take1 = c1 < c0;
                take[t] = take1;
                next[t] = take1 ? c1 : c0;
            }
            double *swap = m;
            m = next;
            next = swap;
        }
        /* Termination drives the encoder back to state 0; the input bit
         * that produced a state is its high bit. */
        uint8_t *out = decisions + b * steps;
        int64_t state = 0;
        for (int64_t step = steps - 1; step >= 0; step--) {
            out[step] = (uint8_t)(state / half);
            state = (state % half) * 2 + back[step * states + state];
        }
    }
}
