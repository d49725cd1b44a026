"""List sphere decoding: soft output from the tree search (paper section 7).

The paper's future work points at soft receiver processing; the classic
bridge from hard sphere decoding to soft outputs is the *list* sphere
decoder (Hochwald & ten Brink): instead of keeping only the best leaf, the
depth-first search retains the ``list_size`` best leaves it encounters,
pruning against the worst member once the list is full.  Per-bit max-log
LLRs then come from comparing the best list member with each bit value.

Geosphere's enumeration and pruning apply unchanged — the only difference
from :class:`~repro.sphere.decoder.SphereDecoder` is the radius policy —
so the complexity benefits carry over to the soft setting, which is
exactly the extension the paper proposes.  That includes the *frame*
benefits: :meth:`ListSphereDecoder.decode_batch` and
:meth:`~ListSphereDecoder.decode_frame` run the list search through the
lockstep engine (:mod:`repro.runtime.engine`) under its list leaf
policy, with the scalar search below as the bit-exact oracle.

Bit-exactness contract
----------------------
The scalar search here is the reference program for the engine:
interference accumulates column-by-column through the complex-multiply
ufunc (the convention the compiled core matches bit-for-bit), leaf
lists follow ``heapq`` tuple order exactly — worst member = largest
distance, ties broken towards the earliest-found leaf — and LLR
extraction goes through the same vectorised
:func:`soft_outputs_from_lists` helper for every path, so LLRs, list
membership and counters are identical whichever driver ran the search.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..constellation.gray import gray_encode, int_to_bits
from ..constellation.qam import QamConstellation
from ..utils.validation import as_complex_vector, require
from .batch import as_batch_matrix
from .counters import ComplexityCounters
from .decoder import ENUMERATORS, resolve_enumerator_factory
from .pruning import GeometricPruner
from .qr import triangularize

__all__ = ["ListSphereDecoder", "SoftDecodeResult", "SoftBatchResult",
           "soft_outputs_from_lists", "stacked_list_bits"]


@dataclass
class SoftDecodeResult:
    """Soft decisions for one channel use.

    ``llrs`` follow the library-wide convention (positive favours bit 0)
    and are ordered like ``QamConstellation.indices_to_bits`` applied to
    the stream-0..stream-(nc-1) symbols in sequence.
    """

    symbol_indices: np.ndarray
    symbols: np.ndarray
    llrs: np.ndarray
    list_size_used: int
    counters: ComplexityCounters


@dataclass
class SoftBatchResult:
    """Soft decisions for a ``(T, nc)`` batch against one channel.

    The soft analogue of :class:`~repro.sphere.batch.BatchDecodeResult`:
    ``llrs`` is ``(T, nc * bits_per_symbol)``, ``list_sizes`` the number
    of leaves each search retained, ``counters`` the exact sum of the
    per-vector scalar counters.
    """

    symbol_indices: np.ndarray
    symbols: np.ndarray
    llrs: np.ndarray
    list_sizes: np.ndarray
    counters: ComplexityCounters


@dataclass
class _ListSearchState:
    """Raw outcome of one list search: the leaf heap (``heapq`` order,
    entries ``(-distance, discovery_index, cols, rows)``), the running
    leaf counter and the complexity tallies."""

    heap: list
    leaf_counter: int
    counters: ComplexityCounters

    def into(self, distances, sequence, cols, rows) -> int:
        """Write the leaves, in heap order, into one row each of the
        stacked list arrays :func:`soft_outputs_from_lists` reads
        (entries past the list keep their fills); returns the count."""
        for slot, (neg_distance, seq, leaf_cols, leaf_rows) in \
                enumerate(self.heap):
            distances[slot] = -neg_distance
            sequence[slot] = seq
            cols[slot] = leaf_cols
            rows[slot] = leaf_rows
        return len(self.heap)


def stacked_list_bits(constellation: QamConstellation, cols,
                      rows) -> np.ndarray:
    """Bit labels for stacked leaf lists, vectorised.

    ``cols``/``rows`` are ``(..., nc)`` integer position arrays; the
    result is ``(..., nc * bits_per_symbol)`` uint8 — per leaf exactly
    :meth:`QamConstellation.indices_to_bits` of its symbol indices.
    """
    half = constellation.bits_per_axis
    col_bits = int_to_bits(gray_encode(np.asarray(cols)), half)
    row_bits = int_to_bits(gray_encode(np.asarray(rows)), half)
    stacked = np.concatenate([col_bits, row_bits], axis=-1)
    return stacked.reshape(stacked.shape[:-2] + (-1,))


def soft_outputs_from_lists(constellation: QamConstellation, distances,
                            sequence, cols, rows, counts,
                            noise_variance: float, clamp: float):
    """Vectorised max-log LLR extraction from stacked leaf lists.

    One call covers any number of searches at once — the engine passes
    every (subcarrier, OFDM symbol) slot of a frame, the scalar decoder
    a single row — so all paths share the identical float program.
    ``distances`` and ``sequence`` are ``(E, L)`` (leaf distance and
    discovery order), ``cols``/``rows`` ``(E, L, nc)`` lattice
    positions, ``counts`` the number of valid entries per list.

    Returns ``(llrs, best_indices, best_symbols)``: per-bit max-log LLRs
    ``(E, nc * bits_per_symbol)`` clipped to ``[-clamp, clamp]`` (bits
    that appear with only one value across the list are clamped
    one-sidedly), and the best list member — minimal ``(distance,
    discovery order)``, the scalar sort key — as hard decisions.
    """
    require(noise_variance > 0.0, "noise variance must be positive")
    counts = np.asarray(counts)
    require(bool((counts >= 1).all()),
            "list sphere decoder found no leaves")
    num_lists, list_size = distances.shape
    valid = np.arange(list_size)[None, :] < counts[:, None]
    masked = np.where(valid, distances, np.inf)

    best_distance = masked.min(axis=1)
    tie = np.where(masked == best_distance[:, None], sequence,
                   np.iinfo(np.int64).max)
    best_slot = tie.argmin(axis=1)
    iota = np.arange(num_lists)
    best_indices = constellation.index_of(cols[iota, best_slot],
                                          rows[iota, best_slot])

    one = stacked_list_bits(constellation, cols, rows).astype(bool)
    leaf_distance = masked[:, :, None]
    zero_min = np.where(one, np.inf, leaf_distance).min(axis=1)
    one_min = np.where(one, leaf_distance, np.inf).min(axis=1)
    both = np.isfinite(zero_min) & np.isfinite(one_min)
    gap = np.subtract(one_min, zero_min, out=np.zeros_like(one_min),
                      where=both)
    llrs = np.where(both, gap / noise_variance,
                    np.where(np.isfinite(zero_min), clamp, -clamp))
    llrs = np.clip(llrs, -clamp, clamp)
    return llrs, best_indices, constellation.points[best_indices]


class ListSphereDecoder:
    """Depth-first list sphere decoder with pluggable enumeration.

    Parameters
    ----------
    constellation:
        The square QAM constellation every stream transmits.
    list_size:
        Number of best leaves retained for LLR extraction (>= 2).
    geometric_pruning:
        The paper's table-driven branch lower bound; only defined for the
        frontier enumerators (``zigzag``/``shabany``), as in
        :class:`~repro.sphere.decoder.SphereDecoder`.
    clamp:
        Magnitude bound for the returned LLRs (one-sided bits saturate
        here).
    enumerator:
        One of ``"zigzag"`` (Geosphere), ``"shabany"``, ``"hess"``
        (ETH-SD) or ``"exhaustive"`` — the list search reuses the hard
        decoder's enumeration machinery unchanged.
    node_budget:
        Engineering guard: stop a search after this many visited nodes
        and extract LLRs from the list collected so far (no longer the
        exact best-``list_size`` set).  ``None`` keeps the exact
        behaviour.
    """

    def __init__(self, constellation: QamConstellation, list_size: int = 16,
                 geometric_pruning: bool = True, clamp: float = 24.0,
                 enumerator: str = "zigzag",
                 node_budget: int | None = None) -> None:
        require(list_size >= 2, f"list size must be >= 2, got {list_size}")
        require(clamp > 0.0, "clamp must be positive")
        require(enumerator in ENUMERATORS,
                f"unknown enumerator {enumerator!r}; choose from {ENUMERATORS}")
        if enumerator in ("hess", "exhaustive"):
            require(not geometric_pruning,
                    f"geometric pruning is not defined for the {enumerator!r} "
                    "enumerator (it has no deferred proposals to prune)")
        require(node_budget is None or node_budget >= 1,
                "node budget must be positive when given")
        self.constellation = constellation
        self.list_size = list_size
        self.clamp = clamp
        self.enumerator = enumerator
        self.geometric_pruning = geometric_pruning
        self.node_budget = node_budget
        #: The list search always opens with an infinite sphere — the
        #: radius only becomes finite once the list fills.  The engine
        #: reads this exactly like the hard decoder's attribute.
        self.initial_radius_sq = float("inf")
        self._pruner = (GeometricPruner(constellation)
                        if geometric_pruning else None)

    # ------------------------------------------------------------------
    def _enumerator_factory(self):
        return resolve_enumerator_factory(self.constellation,
                                          self.enumerator, self._pruner)

    # ------------------------------------------------------------------
    def decode_soft(self, channel, received,
                    noise_variance: float) -> SoftDecodeResult:
        """Collect the best leaves and derive max-log LLRs."""
        require(noise_variance > 0.0, "noise variance must be positive")
        q, r = triangularize(channel)
        y = as_complex_vector(received, "received")
        require(y.shape[0] == channel.shape[0],
                "received length does not match channel rows")
        return self.decode_soft_triangular(r, q.conj().T @ y, noise_variance)

    def decode_soft_triangular(self, r: np.ndarray, y_hat,
                               noise_variance: float) -> SoftDecodeResult:
        """Run the list search on an already-triangularised system.

        Exposed separately because OFDM receivers factorise each
        subcarrier's channel once per frame and then soft-decode many
        symbol vectors against the same ``R`` — the oracle the
        differential sweeps pin the engine to.
        """
        require(noise_variance > 0.0, "noise variance must be positive")
        diag = np.real(np.diag(r)).copy()
        state = self._search_soft(r, y_hat, diag, diag * diag,
                                  self._enumerator_factory(),
                                  self.node_budget)
        return self._finalise_soft(state, noise_variance)

    def decode_batch(self, r: np.ndarray, y_hat_batch,
                     noise_variance: float) -> SoftBatchResult:
        """Soft-decode a ``(T, nc)`` batch of observations against one
        ``R``: a one-subcarrier frame for the lockstep engine
        (:func:`repro.runtime.engine.run_frame`).  Bit-identical —
        LLRs, list membership, counters — to per-vector
        :meth:`decode_soft_triangular` calls.
        """
        # Imported lazily: repro.runtime builds on repro.sphere, so the
        # module-level dependency must point that way only.
        from ..runtime.engine import run_frame
        from ..runtime.queue import FrameJob

        batch = as_batch_matrix(y_hat_batch, r.shape[1], "y_hat_batch")
        frame = run_frame(FrameJob.from_triangular(self, r, batch,
                                                   noise_variance))
        return SoftBatchResult(symbol_indices=frame.symbol_indices[:, 0],
                               symbols=frame.symbols[:, 0],
                               llrs=frame.llrs[:, 0],
                               list_sizes=frame.list_sizes[:, 0],
                               counters=frame.counters)

    def decode_frame(self, channels, received, noise_variance: float):
        """Soft-decode a whole OFDM frame through one breadth-synchronised
        frontier.

        ``channels`` is ``(S, na, nc)``; ``received`` is ``(T, S, na)``.
        All S channels are triangularised in one stacked QR sweep
        (:mod:`repro.frame.preprocess`) and the S×T list searches run on
        a private instance of the lockstep engine
        (:func:`repro.runtime.engine.run_frame`), with one straggler
        hand-off and one frame-wide LLR extraction.  LLRs, list
        membership, hard decisions and aggregated counters are
        bit-identical to scalar :meth:`decode_soft_triangular` calls per
        slot.

        Returns a :class:`~repro.frame.results.SoftFrameResult` with
        ``(T, S)``-leading result tensors.
        """
        from ..runtime.engine import run_frame
        from ..runtime.queue import FrameJob, FrameRequest

        return run_frame(FrameJob(0, FrameRequest(
            channels, received, self, noise_variance)))

    # ------------------------------------------------------------------
    def _search_soft(self, r: np.ndarray, y_hat, diag: np.ndarray,
                     diag_sq: np.ndarray, make_enumerator,
                     node_budget: int | None) -> _ListSearchState:
        """One list search with all shared state hoisted, stopped once
        it has visited ``node_budget`` nodes (``None``: never).

        The loop is :meth:`~repro.sphere.decoder.SphereDecoder._search`
        under a different radius policy: leaves land in a bounded
        max-heap, and once the heap is full the sphere shrinks to its
        worst member instead of the single best leaf.  It is the
        reference program the compiled core's list policy
        (:func:`repro.sphere.tick_kernel.run`) is pinned to
        bit-for-bit, and what the engine's pools without a core run.
        """
        num_streams = r.shape[1]
        levels = self.constellation.levels
        list_size = self.list_size
        counters = ComplexityCounters()
        top = num_streams - 1
        counters.expanded_nodes += 1
        stack = [(top, 0.0,
                  make_enumerator(complex(y_hat[top] / diag[top]), counters))]
        radius_sq = float("inf")
        chosen_symbols = np.zeros(num_streams, dtype=np.complex128)
        path_cols = np.zeros(num_streams, dtype=np.int64)
        path_rows = np.zeros(num_streams, dtype=np.int64)
        leaf_heap: list = []
        leaf_counter = 0
        while stack:
            if node_budget is not None and counters.visited_nodes >= node_budget:
                break
            level, parent_distance, enumerator = stack[-1]
            budget = (radius_sq - parent_distance) / diag_sq[level]
            candidate = enumerator.next_candidate(budget)
            if candidate is None:
                stack.pop()
                continue
            distance = parent_distance + diag_sq[level] * candidate.dist_sq
            counters.visited_nodes += 1
            path_cols[level] = candidate.col
            path_rows[level] = candidate.row
            chosen_symbols[level] = (levels[candidate.col]
                                     + 1j * levels[candidate.row])
            if level == 0:
                counters.leaves += 1
                leaf_counter += 1
                entry = (-distance, leaf_counter, tuple(path_cols),
                         tuple(path_rows))
                if len(leaf_heap) < list_size:
                    heapq.heappush(leaf_heap, entry)
                else:
                    heapq.heappushpop(leaf_heap, entry)
                if len(leaf_heap) == list_size:
                    # Prune against the worst list member: the search only
                    # needs leaves better than the current list tail.
                    radius_sq = -leaf_heap[0][0]
                continue
            next_level = level - 1
            # Accumulate column-by-column (ascending), multiplying via the
            # ufunc — the hard scalar search's convention, which the
            # compiled core matches bit-for-bit.
            interference = 0.0 + 0.0j
            for column in range(next_level + 1, num_streams):
                interference = interference + np.multiply(
                    r[next_level, column], chosen_symbols[column])
            received_point = complex((y_hat[next_level] - interference)
                                     / diag[next_level])
            counters.expanded_nodes += 1
            stack.append((next_level, distance,
                          make_enumerator(received_point, counters)))

        counters.complex_mults = counters.ped_calcs * (num_streams + 1)
        return _ListSearchState(heap=leaf_heap, leaf_counter=leaf_counter,
                                counters=counters)

    def _finalise_soft(self, state: _ListSearchState,
                       noise_variance: float) -> SoftDecodeResult:
        """Turn a finished search state into LLRs and hard decisions."""
        require(bool(state.heap), "list sphere decoder found no leaves")
        num_streams = len(state.heap[0][2])
        distances = np.full((1, self.list_size), np.inf)
        sequence = np.zeros((1, self.list_size), dtype=np.int64)
        cols = np.zeros((1, self.list_size, num_streams), dtype=np.int64)
        rows = np.zeros((1, self.list_size, num_streams), dtype=np.int64)
        count = state.into(distances[0], sequence[0], cols[0], rows[0])
        llrs, best_indices, best_symbols = soft_outputs_from_lists(
            self.constellation, distances, sequence, cols, rows,
            np.array([count]), noise_variance, self.clamp)
        return SoftDecodeResult(symbol_indices=best_indices[0],
                                symbols=best_symbols[0],
                                llrs=llrs[0],
                                list_size_used=count,
                                counters=state.counters)
