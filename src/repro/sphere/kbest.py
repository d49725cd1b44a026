"""K-best (breadth-first) sphere decoding (paper section 6.1 context).

K-best decoders keep the ``K`` lowest-distance partial vectors at every
tree level "regardless of the sphere constraint or any other distance
control policy".  The paper's criticisms, all observable here:

* the choice of ``K`` is speculative and must grow with the constellation
  (small ``K`` loses the ML path and therefore throughput);
* ``K`` must cover the *worst* channel, so well-conditioned channels pay
  for nothing;
* complexity is fixed rather than adaptive — the opposite of Geosphere's
  behaviour.

The per-level candidate expansion reuses Geosphere's zigzag enumerator,
so each survivor enumerates children lazily instead of expanding all
``|O|`` branches; sorting across survivors still dominates.

Because every survivor expands in lockstep (no sphere constraint, no
data-dependent backtracking), K-best vectorises cleanly:
:meth:`KBestDecoder.decode_frame` (and ``decode_batch``, its
one-subcarrier form) runs every observation of a frame through numpy
array ops — :func:`batched_axis_orders` orders a whole tree level at
once — and is bit-identical to the scalar path, counters included.
The scalar path therefore accumulates interference column-by-column (not
via ``@``): BLAS dot products and sequential accumulation differ in the
last ulp, and the equivalence contract is exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constellation.pam import zigzag_order_table
from ..constellation.qam import QamConstellation
from ..utils.validation import require
from .counters import ComplexityCounters
from .decoder import SphereDecoderResult, check_triangular, refuse_zero_diagonal
from .qr import triangular_system
from .zigzag import GeosphereEnumerator

__all__ = ["KBestDecoder", "batched_axis_orders"]


def batched_axis_orders(coordinates: np.ndarray, levels: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Zigzag-order one PAM axis for many nodes at once.

    ``coordinates`` is a 1-D real array of received coordinates (one per
    node); ``levels`` the shared PAM amplitude levels.  Returns
    ``(order, residual_sq)``, both of shape ``(N, side)``:

    * ``order[n, p]`` — the level index of node ``n``'s p-th closest
      level, in exactly the order
      :func:`~repro.constellation.pam.zigzag_indices` yields it;
    * ``residual_sq[n, p]`` — ``(levels[order[n, p]] - coordinates[n])**2``.

    Matches the scalar :class:`~repro.sphere.enumerator.AxisOrder`
    bit-for-bit (same slice, same preferred direction, same arithmetic).
    K-best runs it once per tree level over its whole frontier, so the
    slicing arithmetic of :func:`~repro.constellation.pam.slice_to_index`
    is inlined in its cheapest operation-equivalent form (``rint`` is
    ``round`` at zero decimals, ``minimum``/``maximum`` are ``clip``) and
    the walk itself is one gather from
    :func:`~repro.constellation.pam.zigzag_order_table`.  The compiled
    search core spells the same program out per node (``order_axis`` in
    ``search_core.c``).
    """
    coordinates = np.asarray(coordinates, dtype=np.float64)
    side = levels.shape[0]
    scale = float(levels[1] - levels[0]) / 2.0 if side > 1 else 1.0
    sliced = np.rint((coordinates / scale + (side - 1)) / 2.0)
    starts = np.maximum(np.minimum(sliced, side - 1), 0).astype(np.int64)
    prefer_positive = (coordinates >= levels[starts]).view(np.int8)
    order = zigzag_order_table(side)[starts, prefer_positive]
    residuals = levels[order] - coordinates[:, None]
    return order, residuals * residuals


@dataclass
class _Survivor:
    distance: float
    cols: list[int]
    rows: list[int]
    symbols: list[complex]


class KBestDecoder:
    """Breadth-first K-best detector with a SphereDecoder-like interface."""

    def __init__(self, constellation: QamConstellation, k: int) -> None:
        require(k >= 1, f"K must be >= 1, got {k}")
        self.constellation = constellation
        self.k = k

    def decode(self, channel, received) -> SphereDecoderResult:
        return self.decode_triangular(*triangular_system(channel, received))

    def decode_triangular(self, r: np.ndarray,
                          y_hat: np.ndarray) -> SphereDecoderResult:
        y_hat, diag = check_triangular(r, y_hat)
        num_streams = r.shape[1]
        levels = self.constellation.levels
        counters = ComplexityCounters()
        diag_sq = diag * diag

        survivors = [_Survivor(0.0, [], [], [])]
        for level in range(num_streams - 1, -1, -1):
            candidates: list[_Survivor] = []
            for survivor in survivors:
                # Accumulate column-by-column (ascending), multiplying via
                # the ufunc: numpy's scalar-fast-path complex multiply is
                # not bit-identical to the array loop, and the batch path's
                # vectorised accumulation must match exactly.
                interference = 0.0 + 0.0j
                for offset in range(len(survivor.symbols)):
                    interference = interference + np.multiply(
                        r[level, level + 1 + offset],
                        survivor.symbols[-1 - offset])
                point = complex((y_hat[level] - interference) / diag[level])
                counters.expanded_nodes += 1
                enumerator = GeosphereEnumerator(self.constellation, point,
                                                 counters)
                # Each survivor contributes its K best children at most;
                # the global top-K across survivors is then kept.
                for _ in range(self.k):
                    child = enumerator.next_candidate(float("inf"))
                    if child is None:
                        break
                    counters.visited_nodes += 1
                    symbol = complex(levels[child.col] + 1j * levels[child.row])
                    candidates.append(_Survivor(
                        survivor.distance + diag_sq[level] * child.dist_sq,
                        survivor.cols + [child.col],
                        survivor.rows + [child.row],
                        survivor.symbols + [symbol],
                    ))
            candidates.sort(key=lambda s: s.distance)
            survivors = candidates[: self.k]
            if survivors and level == 0:
                counters.leaves += len(survivors)

        best = survivors[0]
        counters.complex_mults = counters.ped_calcs * (num_streams + 1)
        # Survivor path lists are ordered top level first.
        cols = np.asarray(best.cols[::-1], dtype=np.int64)
        rows = np.asarray(best.rows[::-1], dtype=np.int64)
        indices = self.constellation.index_of(cols, rows)
        return SphereDecoderResult(found=True,
                                   symbol_indices=np.asarray(indices),
                                   symbols=self.constellation.points[indices],
                                   distance_sq=float(best.distance),
                                   counters=counters)

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def decode_batch(self, r: np.ndarray, y_hat_batch: np.ndarray):
        """:meth:`decode_frame` asked of one subcarrier that is already
        triangular: ``r`` is ``(nc, nc)``, ``y_hat_batch`` the rotated
        ``(T, nc)`` observations, checked like any frame.  Returns that
        frame's :class:`~repro.frame.results.FrameDecodeResult`,
        ``(T, 1)`` leading, bit-identical, counters included, to
        per-vector :meth:`decode_triangular` calls.
        """
        from ..frame.preprocess import check_frame_arrays, one_subcarrier_frame

        r_stack, received = check_frame_arrays(
            *one_subcarrier_frame(r, y_hat_batch))
        refuse_zero_diagonal(np.real(np.diagonal(r_stack[0])))
        return self._decode_rotated(r_stack, received.transpose(1, 0, 2))

    def _expand_survivors(self, r_stack: np.ndarray, batch: np.ndarray,
                          sub: np.ndarray):
        """Breadth-first expansion of ``N`` observations, each against its
        own subcarrier's ``R`` (``r_stack[sub[n]]``).

        Every per-level quantity that depends on the channel — the
        interference coefficients, the diagonal normalisation, the
        distance scaling — is gathered per element, so observations from
        *different* subcarriers expand in the same dense tensor ops while
        each one computes exactly the floating-point program of the
        single-``R`` path.  Returns ``(indices, distances, counters)``
        with the counters aggregated over all ``N`` searches.
        """
        num_streams = r_stack.shape[2]
        num_vectors = batch.shape[0]
        constellation = self.constellation
        levels = constellation.levels
        side = levels.shape[0]
        counters = ComplexityCounters()
        diag_stack = np.real(np.einsum("sii->si", r_stack))
        diag_sq_stack = diag_stack * diag_stack
        k = self.k
        # Children taken per expanded node: the scalar loop requests K
        # candidates and the zigzag enumerator runs dry after |O|.
        per_node = min(k, side * side)

        # Survivor state, top level first along the path axis.
        distances = np.zeros((num_vectors, 1), dtype=np.float64)
        cols = np.zeros((num_vectors, 1, 0), dtype=np.int64)
        rows = np.zeros((num_vectors, 1, 0), dtype=np.int64)
        symbols = np.zeros((num_vectors, 1, 0), dtype=np.complex128)

        for level in range(num_streams - 1, -1, -1):
            width = distances.shape[1]
            diag_level = diag_stack[sub, level][:, None]
            # Interference of the already-decided upper levels, accumulated
            # column-by-column in the same order as the scalar path.
            # symbols[..., d] holds the symbol of level num_streams-1-d.
            acc = np.zeros((num_vectors, width), dtype=np.complex128)
            for offset in range(num_streams - 1 - level):
                acc = acc + (r_stack[sub, level, level + 1 + offset][:, None]
                             * symbols[:, :, -1 - offset])
            points = (batch[:, level][:, None] - acc) / diag_level

            counters.expanded_nodes += num_vectors * width
            flat_points = points.reshape(-1)
            order_i, residual_i = batched_axis_orders(flat_points.real, levels)
            order_q, residual_q = batched_axis_orders(flat_points.imag, levels)
            # Child distances over the (col, row) position grid, flattened
            # in (i * side + j) order so a stable argsort reproduces the
            # enumerator's (distance, i, j) pop order.
            grid = (residual_i[:, :, None]
                    + residual_q[:, None, :]).reshape(-1, side * side)
            best_positions = np.argsort(grid, axis=1,
                                        kind="stable")[:, :per_node]
            position_i = best_positions // side
            position_j = best_positions % side
            child_dist = np.take_along_axis(grid, best_positions, axis=1)

            counters.visited_nodes += num_vectors * width * per_node
            # Lazy-enumerator PED accounting, replayed in closed form: one
            # calculation to seed each node's frontier, plus one per
            # in-bounds zigzag proposal made while dequeuing the first
            # per_node-1 children (the last child's successors are never
            # evaluated before the scalar loop stops asking).
            counters.ped_calcs += num_vectors * width
            if per_node > 1:
                lead_i = position_i[:, : per_node - 1]
                lead_j = position_j[:, : per_node - 1]
                proposals = ((lead_j + 1 < side).astype(np.int64)
                             + ((lead_j == 0) & (lead_i + 1 < side)))
                counters.ped_calcs += int(proposals.sum())

            child_cols = np.take_along_axis(order_i, position_i, axis=1)
            child_rows = np.take_along_axis(order_q, position_j, axis=1)
            child_symbols = levels[child_cols] + 1j * levels[child_rows]

            # Total path distances, flattened survivor-major so ties keep
            # the scalar candidate list's insertion order under the stable
            # sort below.
            total = (distances[:, :, None]
                     + diag_sq_stack[sub, level][:, None, None]
                     * child_dist.reshape(num_vectors, width, per_node)
                     ).reshape(num_vectors, width * per_node)
            new_width = min(k, width * per_node)
            keep = np.argsort(total, axis=1, kind="stable")[:, :new_width]
            parents = keep // per_node

            distances = np.take_along_axis(total, keep, axis=1)
            kept_cols = np.take_along_axis(
                child_cols.reshape(num_vectors, -1), keep, axis=1)
            kept_rows = np.take_along_axis(
                child_rows.reshape(num_vectors, -1), keep, axis=1)
            kept_symbols = np.take_along_axis(
                child_symbols.reshape(num_vectors, -1), keep, axis=1)
            parent_index = parents[:, :, None]
            cols = np.concatenate(
                [np.take_along_axis(cols, parent_index, axis=1),
                 kept_cols[:, :, None]], axis=2)
            rows = np.concatenate(
                [np.take_along_axis(rows, parent_index, axis=1),
                 kept_rows[:, :, None]], axis=2)
            symbols = np.concatenate(
                [np.take_along_axis(symbols, parent_index, axis=1),
                 kept_symbols[:, :, None]], axis=2)

        counters.leaves += num_vectors * distances.shape[1]
        counters.complex_mults = counters.ped_calcs * (num_streams + 1)
        # Row 0 of each batch element is the lowest-distance survivor; its
        # path is stored top level first, so flip to stream order.
        best_cols = cols[:, 0, ::-1]
        best_rows = rows[:, 0, ::-1]
        indices = constellation.index_of(best_cols, best_rows)
        return indices, distances[:, 0].copy(), counters

    def decode_frame(self, channels, received):
        """Decode a whole OFDM frame across all subcarriers at once.

        ``channels`` is ``(S, na, nc)``; ``received`` is ``(T, S, na)``.
        One Householder call triangularises every subcarrier
        (:mod:`repro.frame.preprocess`), then all S×T observations expand
        through a *single* breadth-first tensor pass — K-best keeps every
        search in lockstep by construction, so unlike the depth-first
        engine no lane scheduling is needed: the survivor tensors simply
        carry ``S*T`` rows, each gathering its own subcarrier's ``R``
        entries.  Bit-identical, counters included, to per-subcarrier
        :meth:`decode_batch` calls.  Returns a
        :class:`~repro.frame.results.FrameDecodeResult`.
        """
        # Lazy import: repro.frame builds on repro.sphere.
        from ..frame.preprocess import check_frame_arrays, triangular_frame

        r_stack, y_hat, _, _ = triangular_frame(
            *check_frame_arrays(channels, received))
        return self._decode_rotated(r_stack, y_hat)

    def _decode_rotated(self, r_stack: np.ndarray, y_hat: np.ndarray):
        """The frame result of ``(S, T, nc)`` rotated observations against
        the ``(S, nc, nc)`` triangular stack: one
        :meth:`_expand_survivors` pass, ``(T, S)`` leading."""
        from ..frame.results import (FrameDecodeResult, empty_frame_result,
                                     narrowest_int)

        num_subcarriers, num_symbols, num_streams = y_hat.shape
        num_problems = num_subcarriers * num_symbols
        if num_problems == 0:
            return empty_frame_result(num_symbols, num_subcarriers,
                                      num_streams, self.constellation)
        sub = np.repeat(np.arange(num_subcarriers, dtype=np.int64),
                        num_symbols)
        indices, distances, counters = self._expand_survivors(
            r_stack, y_hat.reshape(num_problems, num_streams), sub)
        frame_shape = (num_subcarriers, num_symbols)
        indices = indices.astype(
            narrowest_int(self.constellation.order - 1)).reshape(
                frame_shape + (num_streams,))
        return FrameDecodeResult(
            symbol_indices=np.ascontiguousarray(indices.transpose(1, 0, 2)),
            distances_sq=np.ascontiguousarray(
                distances.reshape(frame_shape).T),
            counters=counters, points=self.constellation.points)
