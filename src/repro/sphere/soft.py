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
exactly the extension the paper proposes.  :class:`ListSphereDecoder` is
a :class:`~repro.sphere.decoder.SphereDecoder` whose leaf policy,
``list_size``, is a list: it runs the hard decoder's one depth-first
loop, :meth:`~repro.sphere.decoder.SphereDecoder._search`, as the
compiled core runs one loop for both.  That includes the *frame*
benefits: :meth:`ListSphereDecoder.decode_frame` (and ``decode_batch``,
its one-subcarrier form) runs the list search through the
lockstep engine (:mod:`repro.runtime.engine`) under its list leaf
policy, with the scalar search as the bit-exact oracle.

Bit-exactness contract
----------------------
The scalar search is the reference program for the engine:
interference accumulates column-by-column through the complex-multiply
ufunc (the convention the compiled core matches bit-for-bit), leaf
lists follow ``heapq`` tuple order exactly — worst member = largest
distance, ties broken towards the earliest-found leaf.  LLR extraction
has one program too: :func:`soft_outputs_from_lists` is the oracle (the
scalar decoder's) and the fallback (a pool without the compiled core
runs it once per tick over every search it finished), and the core
mirrors it when a list search finishes — masked min, one subtract, one
plain division by the noise variance, the clip by compares, the best
member by (distance, discovery order) — so LLRs, list membership and
counters are identical whichever driver ran the search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constellation.qam import QamConstellation
from ..utils.validation import require
from .counters import ComplexityCounters
from .decoder import SphereDecoder
from .qr import triangular_system

__all__ = ["ListSphereDecoder", "SoftDecodeResult", "soft_outputs_from_lists",
           "stacked_list_bits"]


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


def stacked_list_bits(constellation: QamConstellation, cols,
                      rows) -> np.ndarray:
    """Bit labels for stacked leaf lists, vectorised.

    ``cols``/``rows`` are ``(..., nc)`` integer position arrays; the
    result is ``(..., nc * bits_per_symbol)`` uint8 — per leaf exactly
    :meth:`QamConstellation.indices_to_bits` of its symbol indices.
    """
    table = constellation.gray_bits
    stacked = np.concatenate([table[np.asarray(cols)],
                              table[np.asarray(rows)]], axis=-1)
    return stacked.reshape(stacked.shape[:-2] + (-1,))


def soft_outputs_from_lists(constellation: QamConstellation, distances,
                            sequence, cols, rows, counts,
                            noise_variance, clamp):
    """Vectorised max-log LLR extraction from stacked leaf lists.

    One call covers any number of searches at once — a pool without
    the compiled core passes every search it finished in a tick, of any
    mix of frames, the scalar decoder a single row — so all paths share
    the identical float program (the core's LLRs mirror it).
    ``distances`` and ``sequence`` are ``(E, L)`` (leaf distance and
    discovery order), ``cols``/``rows`` ``(E, L, nc)`` lattice
    positions, ``counts`` the number of valid entries per list, and
    ``noise_variance`` and ``clamp`` each a scalar or one per list,
    ``(E,)``.

    Returns ``(llrs, best_indices, best_symbols)``: per-bit max-log LLRs
    ``(E, nc * bits_per_symbol)`` clipped to ``[-clamp, clamp]`` (bits
    that appear with only one value across the list are clamped
    one-sidedly), and the best list member — minimal ``(distance,
    discovery order)``, the scalar sort key — as hard decisions.
    """
    num_lists, list_size = distances.shape
    noise_variance, clamp = (np.asarray(value, dtype=np.float64)
                             for value in (noise_variance, clamp))
    require({noise_variance.shape, clamp.shape} <= {(), (num_lists,)},
            "noise variance and clamp must each be a scalar or one per list")
    require(bool((noise_variance > 0.0).all()),
            "noise variance must be positive")
    noise_variance, clamp = (value[:, None] if value.ndim else value
                             for value in (noise_variance, clamp))
    counts = np.asarray(counts)
    require(bool((counts >= 1).all()),
            "list sphere decoder found no leaves")
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


class ListSphereDecoder(SphereDecoder):
    """Depth-first list sphere decoder with pluggable enumeration: a
    :class:`~repro.sphere.decoder.SphereDecoder` that keeps the
    ``list_size`` best leaves instead of the best one.

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
        here), positive and finite.
    enumerator:
        One of ``"zigzag"`` (Geosphere), ``"shabany"``, ``"hess"``
        (ETH-SD) or ``"exhaustive"`` — the list search reuses the hard
        decoder's enumeration machinery unchanged.
    node_budget:
        Engineering guard: stop a search after this many visited nodes
        and extract LLRs from the list collected so far (no longer the
        exact best-``list_size`` set).  ``None`` keeps the exact
        behaviour.  A budget below the stream count stops every search
        before its first leaf; the engine's front door refuses it.

    The search opens with an infinite sphere (``initial_radius_sq``),
    finite once the list fills; the inherited hard entry points
    (``decode``, ``decode_triangular``) return the list's best member.
    """

    def __init__(self, constellation: QamConstellation, list_size: int = 16,
                 geometric_pruning: bool = True, clamp: float = 24.0,
                 enumerator: str = "zigzag",
                 node_budget: int | None = None) -> None:
        require(list_size >= 2, f"list size must be >= 2, got {list_size}")
        # An infinite bound hands a one-sided bit an infinite LLR.
        require(0.0 < clamp < np.inf, "clamp must be positive and finite")
        super().__init__(constellation, enumerator, geometric_pruning,
                         node_budget=node_budget)
        self.list_size = list_size
        self.clamp = clamp

    # ------------------------------------------------------------------
    def decode_soft(self, channel, received,
                    noise_variance: float) -> SoftDecodeResult:
        """Collect the best leaves and derive max-log LLRs."""
        require(noise_variance > 0.0, "noise variance must be positive")
        r, y_hat = triangular_system(channel, received)
        return self.decode_soft_triangular(r, y_hat, noise_variance)

    def decode_soft_triangular(self, r: np.ndarray, y_hat,
                               noise_variance: float) -> SoftDecodeResult:
        """Run the list search on an already-triangularised system.

        Exposed separately because OFDM receivers factorise each
        subcarrier's channel once per frame and then soft-decode many
        symbol vectors against the same ``R`` — the oracle the
        differential sweeps pin the engine to.
        """
        require(noise_variance > 0.0, "noise variance must be positive")
        return self._finalise_soft(self._search_triangular(r, y_hat),
                                   noise_variance)

    def decode_batch(self, r: np.ndarray, y_hat_batch,
                     noise_variance: float):
        """:meth:`decode_frame` asked of one subcarrier that is already
        triangular: soft-decode a ``(T, nc)`` batch of rotated
        observations against one ``R`` as a one-subcarrier frame for the
        lockstep engine (:func:`repro.runtime.engine.run_frame`).
        Returns that frame's :class:`~repro.frame.results.SoftFrameResult`,
        ``(T, 1)`` leading; bit-identical — LLRs, list membership,
        counters — to per-vector :meth:`decode_soft_triangular` calls.
        """
        # Imported lazily: repro.runtime builds on repro.sphere, so the
        # module-level dependency must point that way only.
        from ..runtime.engine import run_frame
        from ..runtime.queue import FrameJob

        return run_frame(FrameJob.from_triangular(self, r, y_hat_batch,
                                                  noise_variance))

    def decode_frame(self, channels, received, noise_variance: float):
        """Soft-decode a whole OFDM frame through one breadth-synchronised
        frontier.

        ``channels`` is ``(S, na, nc)``; ``received`` is ``(T, S, na)``.
        All S channels are triangularised in one stacked QR sweep
        (:mod:`repro.frame.preprocess`) and the S×T list searches run on
        a private instance of the lockstep engine
        (:func:`repro.runtime.engine.run_frame`), with one straggler
        hand-off; each search's LLRs are computed where it finishes.
        LLRs, list membership, hard decisions and aggregated counters are
        bit-identical to scalar :meth:`decode_soft_triangular` calls per
        slot.

        Returns a :class:`~repro.frame.results.SoftFrameResult` with
        ``(T, S)``-leading result tensors.
        """
        from ..runtime.engine import run_frame
        from ..runtime.queue import FrameJob, FrameRequest

        return run_frame(FrameJob(0, FrameRequest(
            channels, received, self, noise_variance)))

    def _finalise_soft(self, outcome, noise_variance: float
                       ) -> SoftDecodeResult:
        """Turn a finished search's leaf list into LLRs and hard
        decisions."""
        require(bool(outcome.leaves), "list sphere decoder found no leaves")
        num_streams = len(outcome.leaves[0][2])
        distances = np.full((1, self.list_size), np.inf)
        sequence = np.zeros((1, self.list_size), dtype=np.int64)
        cols = np.zeros((1, self.list_size, num_streams), dtype=np.int64)
        rows = np.zeros((1, self.list_size, num_streams), dtype=np.int64)
        count = outcome.into(distances[0], sequence[0], cols[0], rows[0])
        llrs, best_indices, best_symbols = soft_outputs_from_lists(
            self.constellation, distances, sequence, cols, rows,
            np.array([count]), noise_variance, self.clamp)
        return SoftDecodeResult(symbol_indices=best_indices[0],
                                symbols=best_symbols[0],
                                llrs=llrs[0],
                                list_size_used=count,
                                counters=outcome.counters)
