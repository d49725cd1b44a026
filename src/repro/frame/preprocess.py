"""Vectorised per-frame channel preprocessing across the subcarrier axis.

An OFDM receiver pays channel-only preprocessing — QR factorisation for
the tree-search decoders, pseudo-inverse / MMSE filter banks for the
linear ones — once per (subcarrier, frame).  The per-subcarrier receive
path repeats that work S times through S separate ``numpy.linalg`` calls;
this module performs it for *all* subcarriers in one stacked call, which
is both the lockstep engine's front end (every
:class:`~repro.runtime.queue.FrameJob` starts here) and the shared
preprocessing for the cross-subcarrier K-best and linear
``detect_frame`` paths.  :func:`check_frame_arrays` is the one check of a
frame's arrays those paths share.

Bit-exactness contract
----------------------
``numpy.linalg``'s stacked (gufunc) drivers run the same LAPACK routine
per matrix as the 2-D calls do, and the phase fix-up / rotation here uses
the same elementwise ufunc operations as the per-subcarrier
:func:`repro.sphere.qr.triangularize` / ``block @ conj(Q)`` path, so
every output of this module is **bit-identical** to running the
per-subcarrier preprocessing in a Python loop (asserted by
``tests/test_frame_engine.py``).  Any change here must preserve that
operation-for-operation correspondence — the engine's equivalence
contract starts at preprocessing.
"""

from __future__ import annotations

import numpy as np

from ..sphere.qr import RANK_TOLERANCE
from ..utils.validation import require

__all__ = ["check_frame_arrays", "one_subcarrier_frame", "triangularize_frame",
           "rotate_frame", "zf_frame_filters", "mmse_frame_filters",
           "apply_frame_filters"]


def _as_channel_stack(channels) -> np.ndarray:
    matrices = np.asarray(channels, dtype=np.complex128)
    require(matrices.ndim == 3, "channels must be (S, na, nc)")
    require(matrices.shape[1] >= matrices.shape[2],
            f"need num_rx >= num_tx, got "
            f"{matrices.shape[1]}x{matrices.shape[2]} per subcarrier")
    return matrices


def _as_observation_stack(received, num_antennas: int) -> np.ndarray:
    observations = np.asarray(received, dtype=np.complex128)
    require(observations.ndim == 3, "received must be (T, S, na)")
    require(observations.shape[2] == num_antennas,
            f"received has {observations.shape[2]} antennas, channels have "
            f"{num_antennas}")
    return observations


def check_frame_arrays(channels, received) -> tuple[np.ndarray, np.ndarray]:
    """The checks every frame passes before anything reads it: ``(S, na,
    nc)`` channels, ``(T, S, na)`` observations of the same subcarrier
    and antenna counts, no NaN or inf in either.  Raises ``ValueError``
    on the first problem; returns both as ``complex128`` tensors.  The
    runtime's front door, ``detect_uplink`` and the K-best frame paths
    all call it, so a bad frame is refused with one set of messages."""
    channels = np.asarray(channels, dtype=np.complex128)
    require(channels.ndim == 3, "channels must be (S, na, nc)")
    received = _as_observation_stack(received, channels.shape[1])
    require(received.shape[1] == channels.shape[0],
            f"received has {received.shape[1]} subcarriers, channels "
            f"have {channels.shape[0]}")
    require(bool(np.isfinite(channels).all()),
            "channels must be finite (found NaN or inf)")
    require(bool(np.isfinite(received).all()),
            "received must be finite (found NaN or inf)")
    return channels, received


def one_subcarrier_frame(r, y_hat_batch) -> tuple[np.ndarray, np.ndarray]:
    """``decode_batch``'s question as a frame: the triangular ``(nc, nc)``
    ``r`` as a ``(1, nc, nc)`` channel stack and the rotated ``(T, nc)``
    batch as ``(T, 1, nc)`` observations.  Refuses a batch that is not
    2-D with ``ValueError``; the caller checks the frame itself."""
    batch = np.asarray(y_hat_batch, dtype=np.complex128)
    require(batch.ndim == 2,
            f"y_hat_batch must be a 2-D (batch, streams) array, got shape "
            f"{batch.shape}")
    return np.asarray(r)[None], batch[:, None, :]


def triangularize_frame(channels) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``H_s = Q_s R_s`` for every subcarrier in one LAPACK sweep.

    ``channels`` is ``(S, na, nc)``; returns ``(q, r)`` of shapes
    ``(S, na, nc)`` and ``(S, nc, nc)`` with every ``R_s`` upper
    triangular with real, strictly positive diagonal — the convention of
    :func:`repro.sphere.qr.triangularize`, to which each slice is
    bit-identical.
    """
    matrices = _as_channel_stack(channels)
    q, r = np.linalg.qr(matrices, mode="reduced")
    diagonal = np.einsum("sii->si", r)
    magnitudes = np.abs(diagonal)
    floors = RANK_TOLERANCE * np.maximum(magnitudes.max(axis=1), 1.0)
    deficient = magnitudes.min(axis=1) <= floors
    if deficient.any():      # checked first: an empty stack has no argmax
        raise ValueError(
            f"channel matrix of subcarrier {int(np.argmax(deficient))} is "
            "numerically rank deficient; the depth-first sphere decoder "
            "requires full column rank")
    phases = diagonal / magnitudes
    q = q * phases[:, None, :]
    r = np.triu(r * np.conj(phases)[:, :, None])
    return q, r


def rotate_frame(q_stack, received) -> np.ndarray:
    """Rotate a whole frame into the triangular domain: ``y^ = Q* y``.

    ``q_stack`` is ``(S, na, nc)`` from :func:`triangularize_frame`;
    ``received`` is ``(T, S, na)``.  Returns the subcarrier-major
    ``(S, T, nc)`` tensor of rotated observations — one stacked matmul,
    each slice bit-identical to the per-subcarrier ``block @ conj(Q_s)``
    with ``Q_s`` from :func:`repro.sphere.qr.triangularize`.
    """
    q_stack = np.asarray(q_stack, dtype=np.complex128)
    observations = _as_observation_stack(received, q_stack.shape[1])
    require(observations.shape[1] == q_stack.shape[0],
            f"received has {observations.shape[1]} subcarriers, Q stack has "
            f"{q_stack.shape[0]}")
    return np.matmul(np.moveaxis(observations, 1, 0), np.conj(q_stack))


def zf_frame_filters(channels) -> np.ndarray:
    """Stacked zero-forcing equalisers: ``(S, nc, na)`` pseudo-inverses."""
    return np.linalg.pinv(_as_channel_stack(channels))


def mmse_frame_filters(channels, noise_variance: float) -> np.ndarray:
    """Stacked MMSE equalisers ``(H*H + N0 I)^{-1} H*`` of shape
    ``(S, nc, na)`` (unit symbol energy)."""
    matrices = _as_channel_stack(channels)
    require(noise_variance >= 0.0, "noise variance must be non-negative")
    num_tx = matrices.shape[2]
    hermitian = matrices.conj().transpose(0, 2, 1)
    gram = np.matmul(hermitian, matrices) + noise_variance * np.eye(num_tx)
    return np.linalg.solve(gram, hermitian)


def apply_frame_filters(filters, received) -> np.ndarray:
    """Equalise a whole frame through per-subcarrier filter banks.

    ``filters`` is ``(S, nc, na)``; ``received`` is ``(T, S, na)``.
    Returns ``(T, S, nc)`` soft estimates via one stacked matmul — each
    subcarrier's slice bit-identical to the per-subcarrier
    ``block @ filters[s].T``.
    """
    filters = np.asarray(filters, dtype=np.complex128)
    observations = _as_observation_stack(received, filters.shape[2])
    require(observations.shape[1] == filters.shape[0],
            f"received has {observations.shape[1]} subcarriers, filter bank "
            f"has {filters.shape[0]}")
    estimates = np.matmul(np.moveaxis(observations, 1, 0),
                          filters.transpose(0, 2, 1))
    return np.moveaxis(estimates, 0, 1)
