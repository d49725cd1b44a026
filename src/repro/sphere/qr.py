"""QR triangularisation for tree-search detection (paper Eq. 3).

``H = QR`` with ``Q`` of shape ``(na, nc)`` (thin) and ``R`` upper
triangular with *real, strictly positive* diagonal.  The positive-diagonal
convention makes the per-level normalisation ``y~_l = (.../ r_ll)`` a real
division and gives every decoder the identical tree, which the
visited-node parity tests rely on.

One Householder program, written twice
--------------------------------------
This module is the **oracle**: :func:`triangularize` (:func:`householder`)
runs the Householder program on one matrix in plain scalar float
arithmetic, and :func:`rotate` rotates observations into its basis.
``search_core.c`` (``repro_qr_run``) is the **executor**: the same
program for a whole ``(S, na, nc)`` stack and the rotation of a frame's
observations, in one native call (:mod:`repro.frame.preprocess`, and
:func:`triangular_system`, the per-vector decoders' front end, where the
core built).  The two are bit-identical because the program has only
IEEE adds, multiplies, divisions and square roots, in an order both
spell out:

* every complex product is written as real multiplies and adds, and a
  complex divided by a real is a plain division of each component;
* every sum runs in ascending index order, from ``0.0``;
* a magnitude is ``sqrt(re * re + im * im)``.

Column ``k``'s reflector is ``v = x + s * alpha * e1`` on rows ``k..``,
with ``x`` the column below the diagonal, ``alpha = |x|`` and ``s`` the
phase of ``x[0]`` (1 when it is 0), so ``H_k = I - v v* / beta`` with
``beta = alpha * (alpha + |x[0]|)`` maps ``x`` to ``-s * alpha``.  Row
``k`` of ``R`` is then turned by ``-conj(s)`` and column ``k`` of ``Q``
by ``-s``, so ``R[k, k]`` is ``alpha`` exactly; ``Q`` is accumulated
backwards from the first ``nc`` columns of the identity.
"""

from __future__ import annotations

import math

import numpy as np

from ..utils.validation import as_complex_matrix, as_complex_vector, require
from . import tick_kernel

__all__ = ["triangularize", "sorted_triangularize", "norm_column_order",
           "triangular_system", "rotate", "householder", "RANK_TOLERANCE"]

#: Diagonal entries of R at or below this multiple of the largest one (or
#: of 1, whichever is larger) mean the channel is numerically rank
#: deficient for tree-search purposes.
RANK_TOLERANCE = 1e-9

_RANK_DEFICIENT = ("numerically rank deficient; the depth-first sphere "
                   "decoder requires full column rank")


def _reflect(vr, vi, beta, cols_re, cols_im, first, columns) -> None:
    """Apply ``I - v v* / beta`` (``v`` on rows ``first..``) in place to
    the given columns of ``cols_re`` / ``cols_im`` (lists of columns)."""
    for j in columns:
        col_re, col_im = cols_re[j], cols_im[j]
        accr = acci = 0.0
        for v_re, v_im, w_re, w_im in zip(vr, vi, col_re[first:],
                                          col_im[first:]):
            accr += v_re * w_re + v_im * w_im
            acci += v_re * w_im - v_im * w_re
        fr, fi = accr / beta, acci / beta
        col_re[first:] = [w_re - (v_re * fr - v_im * fi) for v_re, v_im, w_re
                          in zip(vr, vi, col_re[first:])]
        col_im[first:] = [w_im - (v_re * fi + v_im * fr) for v_re, v_im, w_im
                          in zip(vr, vi, col_im[first:])]


def householder(matrix: np.ndarray):
    """The Householder program on one finite ``(na, nc)`` complex128
    matrix, ``na >= nc``: ``(Q, R)``, or ``None`` when the matrix is
    numerically rank deficient (see :data:`RANK_TOLERANCE`)."""
    num_rx, num_tx = matrix.shape
    w_re, w_im = matrix.real.T.tolist(), matrix.imag.T.tolist()
    r_re = [[0.0] * num_tx for _ in range(num_tx)]
    r_im = [[0.0] * num_tx for _ in range(num_tx)]
    reflectors = []
    for k in range(num_tx):
        x_re, x_im = w_re[k][k:], w_im[k][k:]
        total = 0.0
        for xr, xi in zip(x_re, x_im):
            total += xr * xr + xi * xi
        alpha = math.sqrt(total)
        # The rank floor is at least RANK_TOLERANCE: refusing here keeps
        # beta away from 0 (and NaN out of the program).
        if not alpha > RANK_TOLERANCE:
            return None
        x0r, x0i = x_re[0], x_im[0]
        head = math.sqrt(x0r * x0r + x0i * x0i)
        sr, si = (x0r / head, x0i / head) if head > 0.0 else (1.0, 0.0)
        x_re[0], x_im[0] = x0r + sr * alpha, x0i + si * alpha
        beta = alpha * (alpha + head)
        _reflect(x_re, x_im, beta, w_re, w_im, k, range(k + 1, num_tx))
        r_re[k][k] = alpha
        for j in range(k + 1, num_tx):
            wr, wi = w_re[j][k], w_im[j][k]
            r_re[j][k] = -(sr * wr + si * wi)
            r_im[j][k] = -(sr * wi - si * wr)
        reflectors.append((x_re, x_im, beta, sr, si))
    ceiling = 1.0
    for k in range(num_tx):
        if r_re[k][k] > ceiling:
            ceiling = r_re[k][k]
    for k in range(num_tx):
        if not r_re[k][k] > RANK_TOLERANCE * ceiling:
            return None
    q_re = [[1.0 if i == j else 0.0 for i in range(num_rx)]
            for j in range(num_tx)]
    q_im = [[0.0] * num_rx for _ in range(num_tx)]
    for k in reversed(range(num_tx)):
        vr, vi, beta, _, _ = reflectors[k]
        _reflect(vr, vi, beta, q_re, q_im, k, range(k, num_tx))
    for k, (_, _, _, sr, si) in enumerate(reflectors):
        q_re[k], q_im[k] = ([-(sr * qr - si * qi) for qr, qi
                             in zip(q_re[k], q_im[k])],
                            [-(sr * qi + si * qr) for qr, qi
                             in zip(q_re[k], q_im[k])])
    return _complex(q_re, q_im), _complex(r_re, r_im)


def _complex(columns_re, columns_im) -> np.ndarray:
    """The C-contiguous complex matrix of the given lists of columns:
    its parts interleaved row by row and viewed as complex128, with no
    arithmetic (``re + 1j * im`` would turn a ``-0.0`` imaginary part
    into ``+0.0``)."""
    rows, columns = len(columns_re[0]), len(columns_re)
    parts = [part for i in range(rows)
             for re, im in zip(columns_re, columns_im)
             for part in (re[i], im[i])]
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(
        rows, columns)


def triangularize(channel) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(Q, R)`` with positive real diagonal of ``R``.

    Raises ``ValueError`` when the channel is not a finite 2-D matrix,
    has fewer rows than columns (undetermined system — the paper's
    "generalized sphere decoder" territory, out of scope) or is
    numerically rank deficient.
    """
    matrix = as_complex_matrix(channel, "channel")
    num_rx, num_tx = matrix.shape
    require(num_rx >= num_tx,
            f"sphere decoding needs num_rx >= num_tx, got {num_rx}x{num_tx}")
    factors = householder(matrix)
    require(factors is not None, "channel matrix is " + _RANK_DEFICIENT)
    return factors


def rotate(q: np.ndarray, received) -> np.ndarray:
    """Observations in the basis ``q`` ``(na, nc)``: ``y^[k] = sum_i
    conj(q[i, k]) y[i]``, ascending ``i``, for ``received`` ``(..., na)``
    — one vector, or a block of them rotated elementwise (each one the
    vector's program).  Returns ``(..., nc)``."""
    y = np.asarray(received, dtype=np.complex128)
    # One vector runs in Python floats; a block as float64 arrays over
    # its observations, each element the same IEEE operation.
    vector = y.ndim == 1
    y_re = y.real.tolist() if vector else list(np.moveaxis(y.real, -1, 0))
    y_im = y.imag.tolist() if vector else list(np.moveaxis(y.imag, -1, 0))
    out_re, out_im = [], []
    for q_re, q_im in zip(q.real.T.tolist(), q.imag.T.tolist()):
        accr = acci = 0.0
        for qr, qi, yr, yi in zip(q_re, q_im, y_re, y_im):
            accr += qr * yr + qi * yi
            acci += qr * yi - qi * yr
        out_re.append(accr)
        out_im.append(acci)
    out = np.empty(y.shape[:-1] + (q.shape[1],), dtype=np.complex128)
    columns = np.moveaxis(out, -1, 0)
    columns.real, columns.imag = out_re, out_im
    return out


def triangular_system(channel, received) -> tuple[np.ndarray, np.ndarray]:
    """One observation of one channel in the triangular domain: ``(R,
    y^)`` with ``(Q, R) = triangularize(channel)`` and ``y^ =
    rotate(Q, received)``.  The per-vector decoders' shared front end,
    run by the executor where the compiled core built (one subcarrier,
    one observation: the same program, so the same bits) and by the
    oracle otherwise.  Refuses with ``ValueError`` a channel
    :func:`triangularize` refuses and a ``received`` that is not one
    finite entry per channel row."""
    matrix = as_complex_matrix(channel, "channel")
    num_rx, num_tx = matrix.shape
    require(num_rx >= num_tx,
            f"sphere decoding needs num_rx >= num_tx, got {num_rx}x{num_tx}")
    y = as_complex_vector(received, "received")
    require(y.shape[0] == num_rx,
            f"received vector length {y.shape[0]} does not match "
            f"channel rows {num_rx}")
    if tick_kernel.core() is None:
        q, r = triangularize(matrix)
        return r, rotate(q, y)
    r = np.empty((1, num_tx, num_tx), dtype=np.complex128)
    y_hat = np.empty((1, 1, num_tx), dtype=np.complex128)
    code = tick_kernel.householder(
        np.ascontiguousarray(matrix)[None], RANK_TOLERANCE, r,
        received=np.ascontiguousarray(y)[None, None], y_stack=y_hat)
    require(code == 0, "channel matrix is " + _RANK_DEFICIENT)
    return r[0], y_hat[0, 0]


def norm_column_order(channel) -> np.ndarray:
    """The detection order of :func:`sorted_triangularize`: a greedy
    Gram-Schmidt that, at each step, pivots in the remaining column with
    the *smallest residual norm*."""
    matrix = as_complex_matrix(channel, "channel")
    num_tx = matrix.shape[1]
    residual = matrix.copy()
    remaining = list(range(num_tx))
    perm = []
    for _ in range(num_tx):
        norms = [float(np.linalg.norm(residual[:, c])) for c in remaining]
        pivot = remaining[int(np.argmin(norms))]
        perm.append(pivot)
        remaining.remove(pivot)
        norm = np.linalg.norm(residual[:, pivot])
        require(float(norm) > RANK_TOLERANCE,
                "channel matrix is numerically rank deficient")
        direction = residual[:, pivot] / norm
        for column in remaining:
            projection = direction.conj() @ residual[:, column]
            residual[:, column] = residual[:, column] - direction * projection
    return np.asarray(perm)


def sorted_triangularize(channel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted QR decomposition (SQRD): ``H[:, perm] = Q R``.

    Detection-order heuristic in the spirit of the channel-matrix
    orderings the paper surveys (Su & Wassell, section 6.1):
    :func:`norm_column_order`.  Small effective gains end up at the
    top-left of ``R`` (detected last, with the most interference already
    cancelled), large ones at the bottom-right (top of the tree), which
    lets the first greedy descent set a tight radius.  On 4x4 Rayleigh
    workloads this cuts Geosphere's PED calculations by ~20% versus the
    natural order without changing the ML result.

    Returns ``(q, r, perm)``; a decoder operating on the permuted system
    must map stream ``i`` of its solution back to stream ``perm[i]``.
    """
    matrix = as_complex_matrix(channel, "channel")
    perm = norm_column_order(matrix)
    q, r = triangularize(matrix[:, perm])
    return q, r, perm
