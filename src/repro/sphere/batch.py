"""Batched decoding primitives shared by the block-processing decoders.

The scalar decoders in :mod:`repro.sphere.decoder` and
:mod:`repro.sphere.kbest` answer one question per call: "what was sent in
this channel use?".  An OFDM receiver asks that question once per (OFDM
symbol, subcarrier) pair — hundreds of times per frame against the *same*
triangularised channel — so the batch entry points (``decode_batch``)
amortise everything that does not depend on the observation and, where the
algorithm allows it (K-best), run the whole batch through numpy array
ops.

This module holds the two pieces both batch paths share:

* :class:`BatchDecodeResult` — the structure-of-arrays result for a batch
  of decodes, mirroring
  :class:`~repro.sphere.decoder.SphereDecoderResult` field by field;
* :func:`batched_axis_orders` — a fully vectorised re-implementation of
  the per-node :class:`~repro.sphere.enumerator.AxisOrder` construction
  (slice + 1-D zigzag ordering) for many nodes at once.

Bit-exactness contract
----------------------
``batched_axis_orders`` reproduces the scalar
:func:`repro.constellation.pam.zigzag_indices` walk *exactly*: the same
level ordering, the same residuals computed with the same floating-point
operations.  The batch equivalence tests
(``tests/test_batch_equivalence.py``) assert bit-identical symbol
decisions and distances against the scalar decoders, so any change here
must preserve the operation-for-operation correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constellation.pam import zigzag_indices
from ..utils.validation import require
from .counters import ComplexityCounters
from .qr import triangularize

__all__ = ["BatchDecodeResult", "batched_axis_orders", "as_batch_matrix",
           "qr_decode_block", "zigzag_order_table"]


@dataclass
class BatchDecodeResult:
    """Outcome of decoding a batch of observations against one channel.

    Attributes
    ----------
    found:
        Boolean per batch element; ``False`` only when that element's
        search reached no leaf: a finite ``initial_radius_sq`` excluded
        every leaf, or a ``node_budget`` below the stream count stopped
        it first.
    symbol_indices:
        ``(T, nc)`` flattened constellation indices (``-1`` where
        ``found`` is ``False``).
    symbols:
        ``(T, nc)`` detected complex symbols (``nan`` where not found).
    distances_sq:
        ``(T,)`` squared distances of the returned solutions (``inf``
        where not found).
    counters:
        Complexity tallies aggregated over the whole batch.  They satisfy
        the paper's accounting exactly: each field equals the *sum* of the
        per-vector scalar counters (Figs. 14-15 depend on this).
    """

    found: np.ndarray
    symbol_indices: np.ndarray
    symbols: np.ndarray
    distances_sq: np.ndarray
    counters: ComplexityCounters

    def __len__(self) -> int:
        return int(self.found.shape[0])


def as_batch_matrix(batch, num_streams: int, name: str) -> np.ndarray:
    """Validate a ``(T, nc)`` batch of observations."""
    array = np.asarray(batch, dtype=np.complex128)
    require(array.ndim == 2,
            f"{name} must be a 2-D (batch, streams) array, got shape "
            f"{array.shape}")
    require(array.shape[1] == num_streams,
            f"{name} has {array.shape[1]} streams per row, expected "
            f"{num_streams}")
    return array


def qr_decode_block(decoder, channel, received_block) -> BatchDecodeResult:
    """Factorise ``channel`` once and ``decode_batch`` a ``(T, na)`` block.

    Shared implementation behind every decoder's ``decode_block``: one QR
    per (channel, frame), then the whole block rotated into the
    triangular domain in a single matmul.
    """
    block = np.asarray(received_block, dtype=np.complex128)
    require(block.ndim == 2 and block.shape[1] == channel.shape[0],
            f"received block must be (T, {channel.shape[0]})")
    q, r = triangularize(channel)
    return decoder.decode_batch(r, block @ np.conj(q))


#: Cached zigzag order tables, one per PAM side.  The 1-D zigzag walk
#: depends only on the sliced start index and the preferred direction —
#: ``2 * side`` possibilities — so the whole ordering is a table lookup.
_ZIGZAG_ORDERS: dict[int, np.ndarray] = {}


def zigzag_order_table(side: int) -> np.ndarray:
    """``(side, 2, side)`` table of every 1-D zigzag ordering.

    ``table[start, int(prefer_positive)]`` is exactly the sequence
    :func:`repro.constellation.pam.zigzag_indices` yields — the table is
    materialised *from that generator*, so the correspondence is by
    construction, not by re-implementation.
    """
    table = _ZIGZAG_ORDERS.get(side)
    if table is None:
        table = np.empty((side, 2, side), dtype=np.int64)
        for start in range(side):
            for prefer_positive in (False, True):
                table[start, int(prefer_positive)] = np.fromiter(
                    zigzag_indices(start, side, prefer_positive),
                    dtype=np.int64, count=side)
        table.setflags(write=False)
        _ZIGZAG_ORDERS[side] = table
    return table


def batched_axis_orders(coordinates: np.ndarray, levels: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Zigzag-order one PAM axis for many nodes at once.

    ``coordinates`` is a 1-D real array of received coordinates (one per
    node); ``levels`` the shared PAM amplitude levels.  Returns
    ``(order, residual_sq)``, both of shape ``(N, side)``:

    * ``order[n, p]`` — the level index of node ``n``'s p-th closest
      level, in exactly the order :func:`zigzag_indices` yields it;
    * ``residual_sq[n, p]`` — ``(levels[order[n, p]] - coordinates[n])**2``.

    Matches the scalar :class:`~repro.sphere.enumerator.AxisOrder`
    bit-for-bit (same slice, same preferred direction, same arithmetic).
    K-best runs it once per tree level over its whole frontier, so the
    slicing arithmetic of :func:`~repro.constellation.pam.slice_to_index`
    is inlined in its cheapest operation-equivalent form (``rint`` is
    ``round`` at zero decimals, ``minimum``/``maximum`` are ``clip``) and
    the walk itself is one gather from :func:`zigzag_order_table`.  The
    compiled search core spells the same program out per node
    (``order_axis`` in ``search_core.c``).
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
