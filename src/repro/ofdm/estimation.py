"""Per-subcarrier MIMO channel estimation from orthogonal training.

Uplink clients take turns sending one known training OFDM symbol each
(time-orthogonal sounding, as 802.11n long training fields do), so the AP
estimates one column of every subcarrier's channel matrix per training
symbol with a least-squares division.  This is how the paper's testbed
measures the channels behind Figs. 9-10.
"""

from __future__ import annotations

import numpy as np

from ..frame.preprocess import triangularize_frame
from ..utils.rng import as_generator
from ..utils.validation import require
from .params import OfdmParams

__all__ = ["training_grid", "estimate_channel",
           "estimate_and_triangularize", "estimation_error"]


def training_grid(params: OfdmParams, rng=None) -> np.ndarray:
    """A known unit-magnitude QPSK training symbol per data subcarrier."""
    generator = as_generator(rng)
    phases = generator.integers(0, 4, size=params.num_data_subcarriers)
    return np.exp(1j * np.pi / 2.0 * phases)


def estimate_channel(received_grids, training) -> np.ndarray:
    """LS channel estimate from time-orthogonal training.

    ``received_grids[c]`` is what the AP's antennas heard on every data
    subcarrier while client ``c`` (alone) transmitted ``training``: shape
    ``(num_clients, num_subcarriers, num_rx)``.  Returns channel matrices
    of shape ``(num_subcarriers, num_rx, num_clients)``.
    """
    received = np.asarray(received_grids, dtype=np.complex128)
    training = np.asarray(training, dtype=np.complex128)
    require(received.ndim == 3,
            "received grids must be (num_clients, num_subcarriers, num_rx)")
    require(training.shape == (received.shape[1],),
            f"training length {training.shape} does not match subcarrier "
            f"count {received.shape[1]}")
    require(bool((np.abs(training) > 1e-12).all()),
            "training symbols must be non-zero on every subcarrier")
    # column c of H[s] = received[c, s, :] / training[s]
    columns = received / training[None, :, None]
    return np.moveaxis(columns, 0, 2)


def estimate_and_triangularize(received_grids, training):
    """Estimate every subcarrier's channel and triangularise in one call.

    The front end of the frame-level receive path: the LS estimate above
    (already one vectorised division across all subcarriers) followed by
    :func:`repro.frame.preprocess.triangularize_frame` — the Householder
    program of :mod:`repro.sphere.qr` over the whole stack, in one
    native call where the compiled core built.  Returns ``(channels,
    q_stack, r_stack)`` with shapes ``(S, na, nc)``, ``(S, na, nc)`` and
    ``(S, nc, nc)``; each ``(Q_s, R_s)`` slice is bit-identical to
    :func:`repro.sphere.qr.triangularize` of the corresponding estimate,
    so tree-search detection on estimated channels is exactly the
    per-subcarrier receiver's program.  A non-finite or rank-deficient
    estimate is refused with ``ValueError`` naming its subcarrier.
    """
    channels = estimate_channel(received_grids, training)
    q_stack, r_stack = triangularize_frame(channels)
    return channels, q_stack, r_stack


def estimation_error(estimated, true) -> float:
    """Normalised mean-squared estimation error across all subcarriers."""
    estimated = np.asarray(estimated)
    true = np.asarray(true)
    require(estimated.shape == true.shape, "shape mismatch")
    denominator = float(np.sum(np.abs(true) ** 2))
    require(denominator > 0, "true channel has zero energy")
    return float(np.sum(np.abs(estimated - true) ** 2) / denominator)
