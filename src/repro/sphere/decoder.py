"""Depth-first Schnorr–Euchner sphere decoder (paper sections 2 and 3).

The engine is enumeration-agnostic: plugging in
:class:`~repro.sphere.zigzag.GeosphereEnumerator` (optionally with
geometric pruning) yields *Geosphere*; plugging in
:class:`~repro.sphere.hess.HessEnumerator` yields the paper's *ETH-SD*
baseline.  All variants traverse the identical tree and return the exact
maximum-likelihood solution — they differ only in the amount of
computation spent deciding where to step next, which the attached
:class:`~repro.sphere.counters.ComplexityCounters` make visible.

Search outline (one complex level per transmit stream):

1. ``H = QR``; ``y^ = Q* y`` (Eq. 3).
2. Depth-first from level ``nc-1`` down to 0.  At each node the active
   enumerator produces children in non-decreasing partial distance.
3. A child is accepted when its partial Euclidean distance
   ``d = d(parent) + |r_ll|^2 |y~_l - s|^2`` beats the current radius.
4. Reaching a leaf tightens the radius (Schnorr–Euchner radius update);
   the search backtracks and terminates when the root enumerator runs dry.

The list decoder (:class:`~repro.sphere.soft.ListSphereDecoder`) runs
this same loop; only the leaf policy, :attr:`SphereDecoder.list_size`,
differs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..constellation.qam import QamConstellation
from ..utils.validation import as_complex_matrix, require
from .counters import ComplexityCounters
from .enumerator import NodeEnumerator
from .exhaustive import ExhaustiveEnumerator
from .hess import HessEnumerator
from .pruning import GeometricPruner
from .qr import norm_column_order, triangular_system
from .shabany import ShabanyEnumerator
from .zigzag import GeosphereEnumerator

__all__ = [
    "SphereDecoder",
    "SphereDecoderResult",
    "geosphere_decoder",
    "geosphere_zigzag_only",
    "eth_sd_decoder",
    "shabany_decoder",
    "exhaustive_se_decoder",
]

ENUMERATORS = ("zigzag", "shabany", "hess", "exhaustive")


def refuse_zero_diagonal(diag: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first level where ``r``'s real
    diagonal ``diag`` is zero: every search divides by it."""
    zeros = np.flatnonzero(diag == 0.0)
    if zeros.size:
        raise ValueError(
            f"r has a zero real diagonal entry at level {zeros[0]}; "
            "the depth-first sphere decoder requires full column rank")


def check_triangular(r: np.ndarray, y_hat) -> tuple[np.ndarray, np.ndarray]:
    """The scalar entry points' shared prologue, for every tree-search
    decoder: refuse with ``ValueError`` what the engine's front door
    refuses (a ``y_hat`` not one entry per stream, a non-finite entry, a
    zero on ``r``'s real diagonal).  Returns ``y_hat`` as an array and
    ``r``'s real diagonal."""
    y_hat = np.asarray(y_hat)
    diag = np.real(np.diag(r)).copy()
    require(y_hat.shape == diag.shape == (r.shape[1],),
            f"y_hat has shape {y_hat.shape}; a {r.shape} r needs "
            f"({r.shape[1]},)")
    require(bool(np.isfinite(r).all() and np.isfinite(y_hat).all()),
            "r and y_hat must be finite (found NaN or inf)")
    refuse_zero_diagonal(diag)
    return y_hat, diag


@dataclass
class SphereDecoderResult:
    """Outcome of one maximum-likelihood tree search.

    Attributes
    ----------
    found:
        False only when the search reached no leaf: a finite
        ``initial_radius_sq`` excluded every leaf, or a ``node_budget``
        below the stream count stopped it first.
    symbol_indices:
        Flattened constellation index per transmit stream.
    symbols:
        The detected complex symbols (the arg-min of Eq. 1).
    distance_sq:
        ``||y^ - R s||^2`` of the returned solution.
    counters:
        Complexity tallies for this search.
    """

    found: bool
    symbol_indices: np.ndarray
    symbols: np.ndarray
    distance_sq: float
    counters: ComplexityCounters


@dataclass
class _SearchOutcome:
    """One search's leaves in ``heapq`` order, entries ``(-distance,
    discovery_index, cols, rows)`` (at most one, the best, for a hard
    decoder), and its tallies (``counters.leaves``: leaves reached)."""

    leaves: list
    counters: ComplexityCounters

    def into(self, distances, sequence, cols, rows) -> int:
        """Write the leaves, in heap order, into one row each of the
        stacked list arrays
        :func:`~repro.sphere.soft.soft_outputs_from_lists` reads
        (entries past the list keep their fills); returns the count."""
        for slot, (neg_distance, seq, leaf_cols, leaf_rows) in \
                enumerate(self.leaves):
            distances[slot] = -neg_distance
            sequence[slot] = seq
            cols[slot] = leaf_cols
            rows[slot] = leaf_rows
        return len(self.leaves)


class SphereDecoder:
    """Configurable maximum-likelihood MIMO detector.

    Parameters
    ----------
    constellation:
        The square QAM constellation every stream transmits.
    enumerator:
        One of ``"zigzag"`` (Geosphere), ``"shabany"``, ``"hess"``
        (ETH-SD) or ``"exhaustive"`` (textbook sort-based).
    geometric_pruning:
        Enable the paper's table-driven branch lower bound.  Only
        meaningful for frontier enumerators (``zigzag``/``shabany``);
        requesting it for the others raises ``ValueError`` so benchmark
        configurations cannot silently lie.
    initial_radius_sq:
        Optional finite starting radius (default: infinity).
    node_budget:
        Engineering guard for very low-SNR, many-stream workloads: when
        the search has visited this many nodes it stops and returns the
        best leaf found so far (no longer guaranteed ML).  ``None``
        (default) keeps the exact maximum-likelihood behaviour; every
        paper experiment runs with the guard disabled or far above the
        observed node counts.
    column_ordering:
        ``"none"`` (default) detects streams in natural order — the
        setting used for every paper comparison, so that all decoders
        traverse identical trees.  ``"norm"`` applies sorted QR (strongest
        column detected first), a standard detection-order heuristic that
        reduces average complexity without affecting the ML result.  It
        is a scalar-:meth:`decode` setting: the lockstep engine behind
        :meth:`decode_frame` (and :meth:`decode_batch`, its
        one-subcarrier form) and the streaming runtime detects in
        natural order and rejects such a decoder with ``ValueError``
        rather than silently ignoring the ordering.
    """

    #: The search's leaf policy, as in the compiled core: ``0`` keeps
    #: the best leaf (Schnorr–Euchner); a list decoder keeps its
    #: ``list_size`` best.
    list_size = 0

    def __init__(self, constellation: QamConstellation,
                 enumerator: str = "zigzag",
                 geometric_pruning: bool = True,
                 initial_radius_sq: float = float("inf"),
                 node_budget: int | None = None,
                 column_ordering: str = "none") -> None:
        require(enumerator in ENUMERATORS,
                f"unknown enumerator {enumerator!r}; choose from {ENUMERATORS}")
        if enumerator in ("hess", "exhaustive"):
            require(not geometric_pruning,
                    f"geometric pruning is not defined for the {enumerator!r} "
                    "enumerator (it has no deferred proposals to prune)")
        require(initial_radius_sq > 0.0, "initial radius must be positive")
        require(node_budget is None or node_budget >= 1,
                "node budget must be positive when given")
        require(column_ordering in ("none", "norm"),
                f"unknown column ordering {column_ordering!r}; "
                "choose 'none' or 'norm'")
        self.constellation = constellation
        self.enumerator = enumerator
        self.geometric_pruning = geometric_pruning
        self.initial_radius_sq = initial_radius_sq
        self.node_budget = node_budget
        self.column_ordering = column_ordering
        self._pruner = GeometricPruner(constellation) if geometric_pruning else None

    # ------------------------------------------------------------------
    def _enumerator_factory(self):
        """Bind the enumerator dispatch once per decode (or batch).

        The search instantiates one enumerator per expanded node;
        hoisting the string comparison (and the pruner lookup) out of
        that hot path is part of the batch API's shared-preprocessing
        contract.
        """
        constellation, pruner = self.constellation, self._pruner
        if self.enumerator == "zigzag":
            return lambda received, counters: GeosphereEnumerator(
                constellation, received, counters, pruner)
        if self.enumerator == "shabany":
            return lambda received, counters: ShabanyEnumerator(
                constellation, received, counters, pruner)
        if self.enumerator == "hess":
            return lambda received, counters: HessEnumerator(
                constellation, received, counters)
        return lambda received, counters: ExhaustiveEnumerator(
            constellation, received, counters)

    def _search_triangular(self, r, y_hat) -> _SearchOutcome:
        """One search of a checked (:func:`check_triangular`) system."""
        y_hat, diag = check_triangular(r, y_hat)
        return self._search(r, y_hat, diag, diag * diag,
                            self._enumerator_factory(), self.node_budget)

    def _hard_result(self, outcome: _SearchOutcome,
                     num_streams: int) -> SphereDecoderResult:
        """A search's best leaf as a hard decision: smallest distance,
        earliest found among ties (the LLR extraction's rule)."""
        if not outcome.leaves:
            return SphereDecoderResult(
                found=False,
                symbol_indices=np.full(num_streams, -1, dtype=np.int64),
                symbols=np.full(num_streams, np.nan + 0j),
                distance_sq=float("inf"), counters=outcome.counters)
        neg_distance, _, cols, rows = max(
            outcome.leaves, key=lambda leaf: (leaf[0], -leaf[1]))
        indices = self.constellation.index_of(cols, rows)
        return SphereDecoderResult(found=True, symbol_indices=indices,
                                   symbols=self.constellation.points[indices],
                                   distance_sq=float(-neg_distance),
                                   counters=outcome.counters)

    # ------------------------------------------------------------------
    def decode(self, channel, received) -> SphereDecoderResult:
        """Find the maximum-likelihood symbol vector for one use of ``H``.

        ``channel`` is ``(na, nc)``; ``received`` is the length-``na``
        observation ``y = H x + w``.
        """
        if self.column_ordering == "norm":
            matrix = as_complex_matrix(channel, "channel")
            perm = norm_column_order(matrix)
            result = self.decode_triangular(
                *triangular_system(matrix[:, perm], received))
            if not result.found:
                return result
            # Map the permuted solution back to the natural stream order.
            indices = np.empty_like(result.symbol_indices)
            indices[perm] = result.symbol_indices
            return SphereDecoderResult(
                found=True, symbol_indices=indices,
                symbols=self.constellation.points[indices],
                distance_sq=result.distance_sq, counters=result.counters)
        return self.decode_triangular(*triangular_system(channel, received))

    def decode_triangular(self, r: np.ndarray,
                          y_hat: np.ndarray) -> SphereDecoderResult:
        """Run the tree search on an already-triangularised system.

        Exposed separately because OFDM receivers factorise each
        subcarrier's channel once per frame and then decode many symbol
        vectors against the same ``R``.
        """
        return self._hard_result(self._search_triangular(r, y_hat),
                                 r.shape[1])

    def decode_batch(self, r: np.ndarray, y_hat_batch: np.ndarray):
        """:meth:`decode_frame` asked of one subcarrier that is already
        triangular: ``r`` is ``(nc, nc)``, ``y_hat_batch`` the rotated
        ``(T, nc)`` observations.

        The batch is a one-subcarrier frame for the lockstep engine
        (:func:`repro.runtime.engine.run_frame`), QR sweep skipped:
        every observation's depth-first search advances two candidate
        attempts per tick in the compiled search core (a batch no larger
        than the drain threshold is run to completion in the first
        tick), or, where there is no core, runs through this decoder's
        scalar search in the tick that admits it.  Returns that frame's
        :class:`~repro.frame.results.FrameDecodeResult`, ``(T, 1)``
        leading; results are bit-identical to per-vector
        :meth:`decode_triangular` calls — symbol decisions, distances,
        ``found`` flags — and the aggregated counters equal the sum of
        the per-vector counters exactly.
        """
        # Imported lazily: repro.runtime builds on repro.sphere, so the
        # module-level dependency must point that way only.
        from ..runtime.engine import run_frame
        from ..runtime.queue import FrameJob

        return run_frame(FrameJob.from_triangular(self, r, y_hat_batch))

    def _decode_batch_loop(self, r: np.ndarray, y_hat_batch: np.ndarray):
        """Reference batch driver: one scalar search per row, with
        everything observation-independent (diagonal scalings,
        enumerator dispatch, the pruning table) shared across the batch
        — the baseline the latency benchmarks time the engine against.
        Returns what :meth:`decode_batch` returns.
        """
        from ..frame.preprocess import check_frame_arrays, one_subcarrier_frame
        from ..frame.results import FrameDecodeResult, narrowest_int

        _, received = check_frame_arrays(*one_subcarrier_frame(r, y_hat_batch))
        num_vectors, _, num_streams = received.shape
        diag = np.real(np.diag(r)).copy()
        diag_sq = diag * diag
        factory = self._enumerator_factory()

        indices = np.empty((num_vectors, 1, num_streams),
                           dtype=narrowest_int(self.constellation.order - 1))
        distances = np.empty((num_vectors, 1), dtype=np.float64)
        totals = ComplexityCounters()
        for t in range(num_vectors):
            result = self._hard_result(
                self._search(r, received[t, 0], diag, diag_sq, factory,
                             self.node_budget), num_streams)
            indices[t, 0] = result.symbol_indices
            distances[t, 0] = result.distance_sq
            totals.merge(result.counters)
        return FrameDecodeResult(symbol_indices=indices,
                                 distances_sq=distances, counters=totals,
                                 points=self.constellation.points)

    def decode_frame(self, channels, received):
        """Decode a whole OFDM frame — every (symbol, subcarrier) slot —
        through one breadth-synchronised frontier.

        ``channels`` is ``(S, na, nc)``; ``received`` is ``(T, S, na)``.
        All S channels are triangularised in one stacked QR sweep and the
        S×T search problems run on a private instance of the lockstep
        engine (:func:`repro.runtime.engine.run_frame`): searches from
        different subcarriers share kernel arrays, and the straggler
        hand-off to the compiled search core happens once per frame
        instead of once per subcarrier.  Results and aggregated counters
        are bit-identical to per-slot :meth:`decode_triangular` calls.

        Returns a :class:`~repro.frame.results.FrameDecodeResult` with
        ``(T, S)``-leading result tensors.
        """
        from ..runtime.engine import run_frame
        from ..runtime.queue import FrameJob, FrameRequest

        return run_frame(FrameJob(0, FrameRequest(channels, received, self)))

    def _search(self, r: np.ndarray, y_hat: np.ndarray, diag: np.ndarray,
                diag_sq: np.ndarray, make_enumerator,
                node_budget: int | None) -> _SearchOutcome:
        """One depth-first search with all shared state hoisted, stopped
        once it has visited ``node_budget`` nodes (``None``: never).

        The leaf policy is :attr:`list_size`, as in the core's
        ``run_one``: ``0`` keeps the best leaf (Schnorr–Euchner) and
        skips a candidate outside the sphere; a list decoder keeps its
        ``list_size`` best in a bounded ``heapq`` (ties towards the
        earliest leaf), whose worst member is the radius once full.

        This is the reference program: the compiled search core
        (:mod:`repro.sphere.tick_kernel`) replays it operation for
        operation and is pinned to it bit-for-bit by the differential
        sweeps, and the engine's pools without a core run it as it is.
        """
        num_streams = r.shape[1]
        levels = self.constellation.levels
        list_size = self.list_size
        counters = ComplexityCounters()
        top = num_streams - 1
        root_point = complex(y_hat[top] / diag[top])
        counters.expanded_nodes += 1
        # Stack of (level, parent_distance, enumerator).
        stack: list[tuple[int, float, NodeEnumerator]] = [
            (top, 0.0, make_enumerator(root_point, counters))
        ]
        radius_sq = self.initial_radius_sq
        chosen_symbols = np.zeros(num_streams, dtype=np.complex128)
        path_cols = np.zeros(num_streams, dtype=np.int64)
        path_rows = np.zeros(num_streams, dtype=np.int64)
        leaves: list = []
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
            if distance >= radius_sq and not list_size:
                continue  # defensive; enumerators respect budget
            counters.visited_nodes += 1
            path_cols[level] = candidate.col
            path_rows[level] = candidate.row
            chosen_symbols[level] = levels[candidate.col] + 1j * levels[candidate.row]
            if level == 0:
                counters.leaves += 1
                leaf = (-distance, counters.leaves, tuple(path_cols),
                        tuple(path_rows))
                if not list_size:
                    # Schnorr–Euchner radius update: the new best leaf.
                    leaves = [leaf]
                    radius_sq = distance
                    continue
                if len(leaves) < list_size:
                    heapq.heappush(leaves, leaf)
                else:
                    heapq.heappushpop(leaves, leaf)
                if len(leaves) == list_size:
                    # Prune against the worst list member: the search only
                    # needs leaves better than the current list tail.
                    radius_sq = -leaves[0][0]
                continue
            next_level = level - 1
            # Accumulate column-by-column (ascending), multiplying via the
            # ufunc: BLAS dot products and numpy's scalar-fast-path complex
            # multiply both differ from the array loop in the last ulp, and
            # the compiled core, which spells out the array loop's program,
            # must match this exactly (the K-best batch path's convention).
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
        return _SearchOutcome(leaves, counters)


# ----------------------------------------------------------------------
# Named configurations used throughout the evaluation
# ----------------------------------------------------------------------

def geosphere_decoder(constellation: QamConstellation) -> SphereDecoder:
    """Full Geosphere: 2-D zigzag enumeration + geometric pruning."""
    return SphereDecoder(constellation, enumerator="zigzag",
                         geometric_pruning=True)


def geosphere_zigzag_only(constellation: QamConstellation) -> SphereDecoder:
    """The paper's "2D zigzag only" ablation (Fig. 15 middle bars)."""
    return SphereDecoder(constellation, enumerator="zigzag",
                         geometric_pruning=False)


def eth_sd_decoder(constellation: QamConstellation) -> SphereDecoder:
    """The ETH-SD baseline: Burg et al. search with Hess enumeration."""
    return SphereDecoder(constellation, enumerator="hess",
                         geometric_pruning=False)


def shabany_decoder(constellation: QamConstellation) -> SphereDecoder:
    """Shabany et al. enumeration inside the same depth-first engine."""
    return SphereDecoder(constellation, enumerator="shabany",
                         geometric_pruning=False)


def exhaustive_se_decoder(constellation: QamConstellation) -> SphereDecoder:
    """Textbook Schnorr–Euchner enumeration (compute-all-and-sort)."""
    return SphereDecoder(constellation, enumerator="exhaustive",
                         geometric_pruning=False)
