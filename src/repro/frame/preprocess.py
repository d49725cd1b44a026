"""Vectorised per-frame channel preprocessing across the subcarrier axis.

An OFDM receiver pays channel-only preprocessing — QR factorisation for
the tree-search decoders, pseudo-inverse / MMSE filter banks for the
linear ones — once per (subcarrier, frame).  This module performs it for
*all* subcarriers of a frame in one call, which is both the lockstep
engine's front end (every :class:`~repro.runtime.queue.FrameJob` starts
at :func:`triangular_frame`) and the shared preprocessing for the
cross-subcarrier K-best and linear ``detect_frame`` paths.
:func:`check_frame_arrays` is the one check of a frame's arrays those
paths share.

Bit-exactness contract
----------------------
The QR and the rotation are **one Householder program, written twice**
(:mod:`repro.sphere.qr`): the per-matrix oracle
:func:`repro.sphere.qr.triangularize` / :func:`~repro.sphere.qr.rotate`
in Python floats, and ``search_core.c``'s ``repro_qr_run`` /
``repro_rotate_run``, which run it over a whole stack in one native call
wherever the core built (:func:`repro.sphere.tick_kernel.householder`).
Without a compiler this module loops the oracle per subcarrier.  Either
way every ``Q_s``, ``R_s`` and rotated observation is **bit-identical**
to the per-subcarrier oracle (asserted by ``tests/test_frame_engine.py``
and a hypothesis property in ``tests/test_qr.py``), and
both paths refuse a non-finite or rank-deficient subcarrier with the
same ``ValueError``, naming it.  Any change to the program changes both
copies — the engine's equivalence contract starts at preprocessing.
The linear filter banks are stacked ``numpy.linalg`` calls, whose
gufunc drivers run the same LAPACK routine per matrix as the 2-D calls.
"""

from __future__ import annotations

import numpy as np

from ..sphere import tick_kernel
from ..sphere.qr import RANK_TOLERANCE, householder, rotate
from ..utils.validation import require

__all__ = ["check_frame_arrays", "one_subcarrier_frame", "triangularize_frame",
           "rotate_frame", "triangular_frame", "zf_frame_filters",
           "mmse_frame_filters", "apply_frame_filters"]


def _as_channel_stack(channels) -> np.ndarray:
    matrices = np.asarray(channels, dtype=np.complex128)
    require(matrices.ndim == 3, "channels must be (S, na, nc)")
    require(matrices.shape[1] >= matrices.shape[2] >= 1,
            f"need num_rx >= num_tx >= 1, got "
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


def _householder_oracle(matrices, r_stack, q_stack, observations=None,
                        y_stack=None) -> int:
    """:func:`repro.sphere.tick_kernel.householder` without the core: the
    oracle per subcarrier, with the same outputs and return code."""
    for s, matrix in enumerate(matrices):
        if not np.isfinite(matrix).all():
            return s + 1
        factors = householder(matrix)
        if factors is None:
            return -(s + 1)
        q_stack[s], r_stack[s] = factors
        if y_stack is not None:
            y_stack[s] = rotate(q_stack[s], observations[:, s])
    return 0


def _refuse(code: int) -> None:
    """Raise the ``ValueError`` a Householder run's nonzero return code
    names: ``s + 1`` for a non-finite subcarrier ``s``, ``-(s + 1)`` for
    a rank-deficient one — the same on the core and on the oracle."""
    if code > 0:
        raise ValueError(f"channel matrix of subcarrier {code - 1} is not "
                         "finite (found NaN or inf)")
    if code < 0:
        raise ValueError(
            f"channel matrix of subcarrier {-code - 1} is numerically rank "
            "deficient; the depth-first sphere decoder requires full column "
            "rank")


def triangularize_frame(channels) -> tuple[np.ndarray, np.ndarray]:
    """``H_s = Q_s R_s`` for every subcarrier in one call.

    ``channels`` is ``(S, na, nc)``; returns ``(q, r)`` of shapes
    ``(S, na, nc)`` and ``(S, nc, nc)`` with every ``R_s`` upper
    triangular with real, strictly positive diagonal — each slice
    bit-identical to :func:`repro.sphere.qr.triangularize` of that
    subcarrier.  Refuses a non-finite or rank-deficient subcarrier with
    ``ValueError`` naming it.
    """
    matrices = np.ascontiguousarray(_as_channel_stack(channels))
    subcarriers, _, nc = matrices.shape
    q_stack = np.empty(matrices.shape, dtype=np.complex128)
    r_stack = np.empty((subcarriers, nc, nc), dtype=np.complex128)
    if tick_kernel.core() is not None:
        _refuse(tick_kernel.householder(matrices, RANK_TOLERANCE, r_stack,
                                        q_stack))
    else:
        _refuse(_householder_oracle(matrices, r_stack, q_stack))
    return q_stack, r_stack


def rotate_frame(q_stack, received) -> np.ndarray:
    """Rotate a whole frame into the triangular domain: ``y^ = Q* y``.

    ``q_stack`` is ``(S, na, nc)`` from :func:`triangularize_frame`;
    ``received`` is ``(T, S, na)``.  Returns the subcarrier-major
    ``(S, T, nc)`` tensor of rotated observations, each bit-identical to
    :func:`repro.sphere.qr.rotate` of that observation by ``Q_s``.
    """
    q_stack = np.ascontiguousarray(q_stack, dtype=np.complex128)
    require(q_stack.ndim == 3, "Q stack must be (S, na, nc)")
    observations = np.ascontiguousarray(
        _as_observation_stack(received, q_stack.shape[1]))
    require(observations.shape[1] == q_stack.shape[0],
            f"received has {observations.shape[1]} subcarriers, Q stack has "
            f"{q_stack.shape[0]}")
    y_stack = np.empty((q_stack.shape[0], len(observations),
                        q_stack.shape[2]), dtype=np.complex128)
    if tick_kernel.core() is not None:
        tick_kernel.rotate(q_stack, observations, y_stack)
    else:
        for s, q in enumerate(q_stack):
            y_stack[s] = rotate(q, observations[:, s])
    return y_stack


def triangular_frame(channels, received) -> tuple:
    """A frame in the triangular domain in one call, without a ``Q``
    stack: ``(r_stack, y_hat, diag, diag_sq)`` — the ``(S, nc, nc)``
    factors of :func:`triangularize_frame`, the ``(S, T, nc)``
    observations :func:`rotate_frame` would give, and the ``(S, nc)``
    real diagonal of ``r_stack`` and its square (the scalar decoder's
    ``np.real(np.diag(r))`` and ``diag * diag``)."""
    matrices = np.ascontiguousarray(_as_channel_stack(channels))
    observations = np.ascontiguousarray(
        _as_observation_stack(received, matrices.shape[1]))
    subcarriers, _, nc = matrices.shape
    require(observations.shape[1] == subcarriers,
            f"received has {observations.shape[1]} subcarriers, channels "
            f"have {subcarriers}")
    r_stack = np.empty((subcarriers, nc, nc), dtype=np.complex128)
    y_stack = np.empty((subcarriers, len(observations), nc),
                       dtype=np.complex128)
    if tick_kernel.core() is None:
        _refuse(_householder_oracle(
            matrices, r_stack, np.empty(matrices.shape, dtype=np.complex128),
            observations, y_stack))
        diag = np.real(np.diagonal(r_stack, axis1=1, axis2=2)).copy()
        return r_stack, y_stack, diag, diag * diag
    diag = np.empty((subcarriers, nc))
    diag_sq = np.empty((subcarriers, nc))
    _refuse(tick_kernel.householder(matrices, RANK_TOLERANCE, r_stack,
                                    received=observations, y_stack=y_stack,
                                    diag=diag, diag_sq=diag_sq))
    return r_stack, y_stack, diag, diag_sq


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
