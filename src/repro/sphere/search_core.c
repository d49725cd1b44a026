/*
 * The per-search state machine of the depth-first sphere decoder, once.
 *
 * Built at first use by repro/sphere/tick_kernel.py (the system cc, -O2
 * -shared -fPIC -ffp-contract=off -- never -ffast-math or -march=native)
 * and loaded through ctypes.  One search entry point, repro_search_run,
 * is one pool tick (repro/runtime/engine.py), in place on the pool's
 * frontier and lane arrays, laid out once by tick_kernel.lanes next to
 * the ctypes mirror of search_t:
 *   1. admit -- the searches Python took off the queue get lanes off the
 *      free stack, each with its fresh values, its frame-table row and
 *      its element there, leaving it above its root (level ==
 *      num_streams).  Nothing is copied: a search reads its R rows,
 *      observation and diagonals in place, in its frame's preprocessed
 *      stacks (the pool's frame table, checked once per frame in
 *      Python), for as long as it runs;
 *   2. step -- every active search, in *any* state, gets an allowance of
 *      candidate attempts; a fresh one first expands its root, with the
 *      same expand() as every other node.  An attempt is one iteration
 *      of the scalar search loop (SphereDecoder._search), so whatever
 *      the allowance, a search executes the scalar loop's iterations in
 *      order.  One loop, two uses: an allowance of 2 is the lockstep
 *      step, an unlimited one the straggler drain;
 *   3. retire -- each finished search writes its outcome into its row
 *      (its element) of its frame's own outcome arrays, whose addresses
 *      the frame's table row holds; its lane goes back on the free
 *      stack, and the active list is compacted in place.
 * Every index the call reaches through -- a run's frame-table row and
 * elements, a lane, an active lane's frame row and element -- is checked
 * before anything is read through it or written, so a bad one comes back
 * as an error code, not a stray read or write.
 *
 * A lane keeps only the search's own state (a hard 16-QAM 4x4 lane is
 * 684 bytes, so a pool of 2048 fits in L2), and every PAM position it
 * holds -- zigzag orders and pruning offsets, queue row pointers, the
 * column handed out last, the path, the best leaf, the list's members --
 * is an int8_t.  So the core runs constellations of side <= 128 only;
 * tick_kernel.lanes keeps every other pool without lanes, on the scalar
 * search.
 *
 * One frontier: Geosphere's `zigzag`, in column form -- at most one
 * queued candidate per entered PAM column, pop = argmin over the row,
 * ties to the lowest column.  The baseline enumerators (shabany, hess,
 * exhaustive) run the scalar search (repro/sphere/decoder.py) instead.
 * Policies are fields of search_t, not copies of the loop:
 *   - geometric pruning: `prune` table or NULL;
 *   - leaf policy: Schnorr-Euchner best leaf when list_size == 0, else a
 *     bounded worst-out list (heappushpop semantics, ties towards the
 *     earliest-found leaf);
 *   - node budget: lane_budget[lane], re-checked before every candidate
 *     attempt, which is the scalar loop's check.
 *
 * A list search leaves the core finished: when it retires (tree
 * exhausted or cap reached, in a step or in the drain) it writes its
 * best member and its max-log LLRs into its frame's outcome row
 * (finish_list), so no leaf list leaves the lane.
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
 * one subtract and one plain / by its frame's noise variance, both
 * finite; otherwise +clamp (its frame's) if only 0s occur, -clamp if
 * only 1s; then the clip to [-clamp, clamp] by compares.  The best
 * member is the least (distance, discovery order).  Bits come from a (side,
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
 *
 * And it holds the frame's preprocessing (repro_qr_run, repro_rotate_run):
 * the Householder QR of every subcarrier's channel and the rotation of
 * the frame's observations into that basis, the program of
 * repro/sphere/qr.py (householder, rotate) -- its oracle, which spells
 * out every float operation in Python floats, so nothing here depends
 * on NUMPY_FMA:
 *   - a complex product is written as real multiplies and adds, in the
 *     oracle's order and grouping; a complex over a real is a plain /
 *     of each component (no reciprocal: the oracle divides);
 *   - every sum runs in ascending index order from 0.0, each term
 *     formed whole before it is added (-ffp-contract=off keeps the
 *     products unfused);
 *   - a magnitude is sqrt(re * re + im * im), never hypot;
 *   - the rank check compares each diagonal entry with tolerance *
 *     max(1, largest diagonal entry), by compares, NaN refused.
 */

#include <math.h>
#include <stdint.h>

typedef struct { double re, im; } cplx;

/* One interned frame, a row of the pool's frame table (tick_kernel.FRAME):
 * where its preprocessed stacks and its outcome arrays live, all checked
 * by tick_kernel.frame when the pool interned it, and its own values.
 * The outcome arrays have one row per search, at its element
 * e = subcarrier * T + symbol; a hard frame has no llrs or list_n, a
 * soft one no best_dist (NULL).
 * A vacant row is zeroed: no problems, NULL outcome arrays. */
typedef struct {
    const cplx *r, *y;         /* r_stack (S, n, n), y_flat (S * T, n) */
    const double *diag, *diag_sq;  /* (S, n) */
    int64_t *tally;            /* (S * T, 5) */
    double *best_dist;         /* (S * T) hard */
    double *llrs;              /* (S * T, n * 2 * bits_per_axis) soft */
    int8_t *best_cols, *best_rows;     /* (S * T, n) */
    int64_t *list_n;           /* (S * T) soft */
    double noise_var, clamp;   /* the frame's LLR scale and bound (soft) */
    double initial_radius;     /* every search's opening sphere */
    int64_t symbols, problems; /* T, and S * T searches */
} frame_t;

/* Field order is the ctypes mirror's (tick_kernel._Search): pointers,
 * then integers, then the double.  A lane holds its search's own state
 * only; its channel and per-frame values stay in its frame's stacks and
 * row, reached through frame_of / dest_of. */
typedef struct {
    /* constellation */
    const double *levels;      /* (side) PAM amplitudes */
    const int64_t *zigzag;     /* (side, 2, side) 1-D zigzag level orders */
    const double *prune;       /* (side, side) squared lower bounds | NULL */
    const uint8_t *bits;       /* (side, bits_per_axis) Gray labels (soft) */
    /* frontier axis tables, slot-major; slot = lane * num_streams + level */
    int8_t *axis_int;          /* (slots, 2 | 4, side): ord_i [off_i] ord_q [off_q] */
    double *axis_res;          /* (slots, 2, side): res_i res_q */
    /* zigzag frontier, (slots, side) each: per entered column its
     * queued distance (inf = none) and row pointer, plus the column
     * handed out last (-1 = none) */
    double *col_d;
    int8_t *col_j, *last_i;
    /* search path: PAM positions and their symbols */
    int64_t *level;
    double *radius, *parent;
    int8_t *path_cols, *path_rows;
    cplx *chosen;
    /* best leaf (hard) */
    int8_t *best_cols, *best_rows;
    double *best_dist;
    /* leaf list (soft) */
    double *list_d;
    int64_t *list_seq;
    int8_t *list_cols, *list_rows;
    int64_t *list_n, *leaf_seq;
    /* complexity tallies, tally_stride elements apart per lane */
    int64_t *ped, *visited, *expanded, *leaves, *prunes;
    /* lane bookkeeping: each lane's node cap, frame-table row and
     * element in that frame; the active lanes in admission order; the
     * free-lane stack */
    int64_t *lane_budget, *frame_of, *dest_of, *active, *free;
    /* the interned frames (frame_slots rows), outcome arrays included */
    const frame_t *frames;
    int64_t tally_stride, num_streams, side, list_size;
    int64_t use_fma, lanes, frame_slots;
    double axis_scale;
} search_t;

/* One node's axis tables. */
typedef struct {
    int8_t *ord_i, *ord_q, *off_i, *off_q;
    double *res_i, *res_q;
} node_t;

static node_t node_at(const search_t *s, int64_t slot)
{
    const int64_t side = s->side, per_axis = s->prune ? 2 : 1;
    int8_t *ints = s->axis_int + slot * 2 * per_axis * side;
    double *res = s->axis_res + slot * 2 * side;
    node_t node = {ints, ints + per_axis * side,
                   ints + (per_axis - 1) * side,   /* unread unless pruning */
                   ints + (2 * per_axis - 1) * side, res, res + side};
    return node;
}

/* batched_axis_orders for one coordinate: slice, pick the preferred
 * direction, copy the zigzag walk, square the residuals. */
static void order_axis(const search_t *s, double coord, int8_t *order,
                       int8_t *offset, double *residual)
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
        order[p] = (int8_t)index;
        residual[p] = gap * gap;
        if (s->prune)
            offset[p] = (int8_t)(index > start ? index - start
                                               : start - index);
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
    double *col_d = s->col_d + slot * side;
    for (int64_t i = 1; i < side; i++)
        col_d[i] = INFINITY;
    col_d[0] = node.res_i[0] + node.res_q[0];
    s->col_j[slot * side] = 0;
    s->last_i[slot] = -1;
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
    double *col_d = s->col_d + slot * side;
    int8_t *col_j = s->col_j + slot * side;
    const int64_t i = s->last_i[slot];
    if (i >= 0) {
        const int64_t j = col_j[i];
        if (j < side - 1 && !pruned(s, &node, i, j + 1, budget, prunes)) {
            ++*ped;
            col_d[i] = node.res_i[i] + node.res_q[j + 1];
            col_j[i] = (int8_t)(j + 1);
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
    s->last_i[slot] = (int8_t)best;
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

/* A finished list search's soft output (see the header), written into
 * row `row` of frame `f`'s outcome arrays: its best member into
 * best_cols / best_rows, its max-log LLRs into llrs.  A search that
 * banked no leaf gets -1 positions and no LLRs; the frame refuses it
 * when it finalises. */
static void finish_list(const search_t *s, int64_t si, const frame_t *f,
                        int64_t row)
{
    const int64_t n = s->num_streams, size = s->list_size;
    const int64_t count = s->list_n[si];
    const double *list_d = s->list_d + si * size;
    const int64_t *list_seq = s->list_seq + si * size;
    const int8_t *cols = s->list_cols + si * size * n;
    const int8_t *rows = s->list_rows + si * size * n;
    int64_t best = -1;
    for (int64_t k = 0; k < count; k++)
        if (best < 0 || list_d[k] < list_d[best]
                || (list_d[k] == list_d[best] && list_seq[k] < list_seq[best]))
            best = k;
    for (int64_t p = 0; p < n; p++) {
        f->best_cols[row * n + p] = best < 0 ? -1 : cols[best * n + p];
        f->best_rows[row * n + p] = best < 0 ? -1 : rows[best * n + p];
    }
    if (best < 0)
        return;
    int64_t width = 0;                 /* bits_per_axis: side = 2^width */
    while (((int64_t)1 << width) < s->side)
        width++;
    const double clamp = f->clamp, noise_var = f->noise_var;
    double *llr = f->llrs + row * n * 2 * width;
    for (int64_t p = 0; p < n; p++)
        for (int64_t axis = 0; axis < 2; axis++) {
            const int8_t *position = axis ? rows : cols;
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

/* Run the search in lane `si` on from whatever state it is in, for at
 * most `attempts` iterations; `si` indexes its state rows and its
 * frontier slots alike, and its channel is its element's in its frame's
 * stacks: R and the diagonals of its subcarrier, its own observation.
 * A search still above its root (fresh from admission) first expands the
 * root, as the scalar search does before its loop -- ahead of the budget
 * check, and not as an attempt.  Each iteration is one iteration of the
 * scalar loop: one candidate attempt.  1 once the search is finished --
 * its tree exhausted (a root pop) or `cap` nodes visited -- 0 if the
 * allowance ran out first. */
static int run_one(const search_t *s, int64_t si, int64_t cap,
                   int64_t attempts)
{
    const int64_t n = s->num_streams;
    const frame_t *f = s->frames + s->frame_of[si];
    const int64_t e = s->dest_of[si], sub = e / f->symbols;
    const cplx *r = f->r + sub * n * n, *y = f->y + e * n;
    const double *diag = f->diag + sub * n, *diag_sq = f->diag_sq + sub * n;
    int64_t *ped = s->ped + si * s->tally_stride;
    int64_t *visited = s->visited + si * s->tally_stride;
    int64_t *prunes = s->prunes + si * s->tally_stride;
    if (s->level[si] == n) {
        const int64_t top = n - 1;
        const double scl = 1.0 / diag[top];
        const cplx point = y[top];
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
        const double scale = diag_sq[lv];
        const double sphere = s->radius[si];
        const double budget = (sphere - parent_d) / scale;
        double dist_sq;
        int64_t col, row;
        if (!zigzag_next(s, si * n + lv, budget, ped, prunes, &dist_sq,
                         &col, &row)) {
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
        s->path_cols[si * n + lv] = (int8_t)col;
        s->path_rows[si * n + lv] = (int8_t)row;
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
        const cplx *r_row = r + next * n;
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
        const double scl = 1.0 / diag[next];
        const cplx point = y[next];
        ++s->expanded[si * s->tally_stride];
        expand(s, si * n + next, (point.re - acc_re) * scl,
               (point.im - acc_im) * scl, ped);
        s->parent[si * n + next] = distance;
        s->level[si] = next;
    }
    return 1;
}

/* Admit search `e` of the frame in table row `slot` into lane `si`: its
 * fresh values -- above its root (level == num_streams) under its
 * frame's initial radius, zeroed tallies, no best leaf (-1 symbols at
 * inf) or an empty list -- and its lane's cap, frame-table row and
 * element, through which it reads its channel from then on. */
static void admit(const search_t *s, int64_t slot, int64_t e, int64_t si,
                  int64_t cap)
{
    const int64_t n = s->num_streams;
    s->level[si] = n;
    s->radius[si] = s->frames[slot].initial_radius;
    s->ped[si * s->tally_stride] = s->visited[si * s->tally_stride] = 0;
    s->expanded[si * s->tally_stride] = s->leaves[si * s->tally_stride] = 0;
    s->prunes[si * s->tally_stride] = 0;
    if (s->list_size) {
        s->list_n[si] = s->leaf_seq[si] = 0;
    } else {
        s->best_dist[si] = INFINITY;
        for (int64_t p = 0; p < n; p++)
            s->best_cols[si * n + p] = s->best_rows[si * n + p] = -1;
    }
    s->lane_budget[si] = cap;
    s->frame_of[si] = slot;
    s->dest_of[si] = e;
}

/* Retire the finished search in lane `si` into its row (its element) of
 * its frame's outcome arrays: its tallies, then its best leaf (hard) or
 * its list length, best member and LLRs (soft). */
static void retire(const search_t *s, int64_t si)
{
    const frame_t *f = s->frames + s->frame_of[si];
    const int64_t n = s->num_streams, row = s->dest_of[si];
    int64_t *tally = f->tally + row * 5;
    tally[0] = s->ped[si * s->tally_stride];
    tally[1] = s->visited[si * s->tally_stride];
    tally[2] = s->expanded[si * s->tally_stride];
    tally[3] = s->leaves[si * s->tally_stride];
    tally[4] = s->prunes[si * s->tally_stride];
    if (s->list_size) {
        f->list_n[row] = s->list_n[si];
        finish_list(s, si, f, row);
    } else {
        f->best_dist[row] = s->best_dist[si];
        for (int64_t p = 0; p < n; p++) {
            f->best_cols[row * n + p] = s->best_cols[si * n + p];
            f->best_rows[row * n + p] = s->best_rows[si * n + p];
        }
    }
}

/* What the ctypes mirrors' sizes are checked against at load. */
int64_t repro_search_size(void)
{
    return (int64_t)sizeof(search_t);
}

int64_t repro_frame_size(void)
{
    return (int64_t)sizeof(frame_t);
}

/* One pool tick.  `running` lanes are active (s->active, in admission
 * order) and `idle` lanes free (s->free, a stack popped from the top).
 *   1. Admit: each of the `num_runs` rows of `runs` -- (frame-table slot,
 *      first element, count, node cap) -- takes `count` lanes off the
 *      free stack for that frame's searches first..first + count - 1,
 *      appended to the active list.
 *   2. Step: every active search gets up to `attempts` candidate attempts
 *      under its lane's cap -- 2 is one lockstep tick, INT64_MAX runs it
 *      to completion.
 *   3. Retire: a finished search writes its outcome into its frame's
 *      outcome row and its lane is pushed onto the free stack; the
 *      active list is compacted in place, order kept.
 * Returns how many searches finished -- they are the top of the free
 * stack.  Every index is checked before anything is read through it or
 * written: -2 if a run is outside its frame (a vacant row has no
 * problems), -3 if the counts or a lane are outside the pool's lanes, -4
 * if an active lane's frame row is vacant (or outside the table) or its
 * element outside that frame -- the check that keeps run_one() inside
 * that frame's stacks and retire() off a vacant row's NULL outcome
 * arrays.  An admitted search's row and element are its run's. */
int64_t repro_search_run(const search_t *s, const int64_t *runs,
                         int64_t num_runs, int64_t running, int64_t idle,
                         int64_t attempts)
{
    int64_t admitted = 0;
    for (int64_t k = 0; k < num_runs; k++) {
        const int64_t slot = runs[4 * k], first = runs[4 * k + 1];
        const int64_t count = runs[4 * k + 2];
        if (slot < 0 || slot >= s->frame_slots)
            return -2;
        const frame_t *f = s->frames + slot;
        if (first < 0 || count < 0 || f->symbols < 1
                || count > f->problems - first)
            return -2;
        admitted += count;
    }
    if (running < 0 || idle < admitted || running > s->lanes - idle)
        return -3;
    for (int64_t k = 0; k < running; k++)
        if (s->active[k] < 0 || s->active[k] >= s->lanes)
            return -3;
    for (int64_t k = 0; k < running; k++) {
        const int64_t slot = s->frame_of[s->active[k]];
        const int64_t e = s->dest_of[s->active[k]];
        if (slot < 0 || slot >= s->frame_slots || e < 0
                || s->frames[slot].symbols < 1
                || e >= s->frames[slot].problems)
            return -4;
    }
    for (int64_t k = idle - admitted; k < idle; k++)
        if (s->free[k] < 0 || s->free[k] >= s->lanes)
            return -3;
    for (int64_t k = 0; k < num_runs; k++) {
        const int64_t first = runs[4 * k + 1], count = runs[4 * k + 2];
        for (int64_t e = first; e < first + count; e++) {
            const int64_t lane = s->free[--idle];
            admit(s, runs[4 * k], e, lane, runs[4 * k + 3]);
            s->active[running++] = lane;
        }
    }
    int64_t kept = 0, finished = 0;
    for (int64_t k = 0; k < running; k++) {
        const int64_t lane = s->active[k];
        if (!run_one(s, lane, s->lane_budget[lane], attempts)) {
            s->active[kept++] = lane;
        } else {
            retire(s, lane);
            s->free[idle++] = lane;
            finished++;
        }
    }
    return finished;
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

/* ------------------------------------------------------------------ */
/* Frame preprocessing: one Householder program for a channel stack.  */
/* ------------------------------------------------------------------ */

/* col[i] -= v[i] * (v* col / beta) over `len` rows `stride` apart: the
 * reflector I - v v* / beta applied to one column (qr.py _reflect). */
static void reflect(const cplx *v, cplx *col, int64_t len, int64_t stride,
                    double beta)
{
    double ar = 0.0, ai = 0.0;
    for (int64_t i = 0; i < len; i++) {
        const cplx a = v[i * stride], b = col[i * stride];
        ar += a.re * b.re + a.im * b.im;
        ai += a.re * b.im - a.im * b.re;
    }
    const double fr = ar / beta, fi = ai / beta;
    for (int64_t i = 0; i < len; i++) {
        const cplx a = v[i * stride];
        cplx *b = col + i * stride;
        b->re = b->re - (a.re * fr - a.im * fi);
        b->im = b->im - (a.re * fi + a.im * fr);
    }
}

/* qr.py householder on one row-major (na, nc) matrix h: R into r
 * (nc, nc), Q into q (na, nc).  w (na, nc) holds
 * the reflected matrix -- reflector k in column k from row k --, phase
 * and beta (nc) each reflector's s and beta.  Returns 1 if h is
 * numerically rank deficient, else 0. */
static int factor(const cplx *h, int64_t na, int64_t nc, double tolerance,
                  cplx *w, cplx *phase, double *beta, cplx *r, cplx *q)
{
    for (int64_t i = 0; i < na * nc; i++)
        w[i] = h[i];
    for (int64_t k = 0; k < nc; k++) {
        cplx *x = w + k * nc + k;
        double total = 0.0;
        for (int64_t i = 0; i < na - k; i++)
            total += x[i * nc].re * x[i * nc].re + x[i * nc].im * x[i * nc].im;
        const double alpha = sqrt(total);
        /* The rank floor is at least tolerance: refusing here keeps
         * beta away from 0 (and NaN out of the program). */
        if (!(alpha > tolerance))
            return 1;
        const double x0r = x[0].re, x0i = x[0].im;
        const double head = sqrt(x0r * x0r + x0i * x0i);
        double sr = 1.0, si = 0.0;
        if (head > 0.0) {
            sr = x0r / head;
            si = x0i / head;
        }
        x[0].re = x0r + sr * alpha;
        x[0].im = x0i + si * alpha;
        beta[k] = alpha * (alpha + head);
        phase[k].re = sr;
        phase[k].im = si;
        for (int64_t j = k + 1; j < nc; j++)
            reflect(x, w + k * nc + j, na - k, nc, beta[k]);
        cplx *row = r + k * nc;
        for (int64_t j = 0; j < k; j++)
            row[j].re = row[j].im = 0.0;
        row[k].re = alpha;
        row[k].im = 0.0;
        for (int64_t j = k + 1; j < nc; j++) {
            const cplx b = w[k * nc + j];
            row[j].re = -(sr * b.re + si * b.im);
            row[j].im = -(sr * b.im - si * b.re);
        }
    }
    double ceiling = 1.0;
    for (int64_t k = 0; k < nc; k++)
        if (r[k * nc + k].re > ceiling)
            ceiling = r[k * nc + k].re;
    for (int64_t k = 0; k < nc; k++)
        if (!(r[k * nc + k].re > tolerance * ceiling))
            return 1;
    for (int64_t i = 0; i < na; i++)
        for (int64_t j = 0; j < nc; j++) {
            q[i * nc + j].re = i == j ? 1.0 : 0.0;
            q[i * nc + j].im = 0.0;
        }
    for (int64_t k = nc - 1; k >= 0; k--)
        for (int64_t j = k; j < nc; j++)
            reflect(w + k * nc + k, q + k * nc + j, na - k, nc, beta[k]);
    for (int64_t k = 0; k < nc; k++) {
        const double sr = phase[k].re, si = phase[k].im;
        for (int64_t i = 0; i < na; i++) {
            cplx *b = q + i * nc + k;
            const double qr = b->re, qi = b->im;
            b->re = -(sr * qr - si * qi);
            b->im = -(sr * qi + si * qr);
        }
    }
    return 0;
}

/* qr.py rotate: out[k] = sum_i conj(q[i, k]) x[i], ascending i, for a
 * row-major (na, nc) q. */
static void rotate(const cplx *q, int64_t na, int64_t nc, const cplx *x,
                   cplx *out)
{
    for (int64_t k = 0; k < nc; k++) {
        double ar = 0.0, ai = 0.0;
        for (int64_t i = 0; i < na; i++) {
            const cplx a = q[i * nc + k], b = x[i];
            ar += a.re * b.re + a.im * b.im;
            ai += a.re * b.im - a.im * b.re;
        }
        out[k].re = ar;
        out[k].im = ai;
    }
}

/* Rotate `symbols` observations x (symbols, subcarriers, na) of every
 * subcarrier into its basis q (subcarriers, na, nc): y (subcarriers,
 * symbols, nc), subcarrier-major. */
void repro_rotate_run(const cplx *q, const cplx *x, int64_t subcarriers,
                      int64_t na, int64_t nc, int64_t symbols, cplx *y)
{
    for (int64_t s = 0; s < subcarriers; s++)
        for (int64_t t = 0; t < symbols; t++)
            rotate(q + s * na * nc, na, nc, x + (t * subcarriers + s) * na,
                   y + (s * symbols + t) * nc);
}

/* The whole front end of a frame in one call, subcarrier by subcarrier:
 * refuse a channel h[s] (subcarriers, na, nc) with a non-finite entry,
 * factor it (R into r (subcarriers, nc, nc)), refuse it if rank
 * deficient, then -- each output only where its pointer is not NULL --
 * write Q into q (subcarriers, na, nc), R's real diagonal and its
 * square into diag / diag_sq (subcarriers, nc), and the subcarrier's
 * `symbols` observations of x (symbols, subcarriers, na), rotated, into
 * y (subcarriers, symbols, nc).  work holds 4 * na * nc + 3 * nc
 * doubles of scratch: without q, Q lives there.
 * Returns 0, or s + 1 if subcarrier s is not finite, -(s + 1) if it is
 * rank deficient; the subcarriers before it are written. */
int64_t repro_qr_run(const cplx *h, const cplx *x, int64_t subcarriers,
                     int64_t na, int64_t nc, int64_t symbols,
                     double tolerance, cplx *q, cplx *r, cplx *y,
                     double *diag, double *diag_sq, double *work)
{
    cplx *w = (cplx *)work, *scratch_q = w + na * nc;
    cplx *phase = scratch_q + na * nc;
    double *beta = (double *)(phase + nc);
    for (int64_t s = 0; s < subcarriers; s++) {
        const cplx *hs = h + s * na * nc;
        for (int64_t i = 0; i < na * nc; i++)
            if (!isfinite(hs[i].re) || !isfinite(hs[i].im))
                return s + 1;
        cplx *rs = r + s * nc * nc;
        cplx *qs = q ? q + s * na * nc : scratch_q;
        if (factor(hs, na, nc, tolerance, w, phase, beta, rs, qs))
            return -(s + 1);
        if (diag)
            for (int64_t k = 0; k < nc; k++) {
                const double d = rs[k * nc + k].re;
                diag[s * nc + k] = d;
                diag_sq[s * nc + k] = d * d;
            }
        if (y)
            for (int64_t t = 0; t < symbols; t++)
                rotate(qs, na, nc, x + (t * subcarriers + s) * na,
                       y + (s * symbols + t) * nc);
    }
    return 0;
}
