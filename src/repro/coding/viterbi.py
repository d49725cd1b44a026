"""Viterbi decoding (hard and soft decision).

The decoder works on *reliabilities*: one float per coded bit, positive
when bit 0 is more likely.  Hard-decision decoding maps bit ``b`` to
reliability ``1 - 2b`` (so the branch cost counts Hamming mismatches);
soft decoding passes log-likelihood ratios straight through.  The
transition cost of expecting coded bit ``c`` against reliability ``r`` is
``max(0, r)`` when ``c = 1`` and ``max(0, -r)`` when ``c = 0`` — zero when
the observation agrees, ``|r|`` when it does not.

The scalar decoders (:func:`viterbi_decode` / :func:`viterbi_decode_soft`)
are the oracle: a Python loop over time steps with numpy operations over
all ``2**(K-1)`` states.  The *batched* decoders
(:func:`viterbi_decode_batch` / :func:`viterbi_decode_soft_batch`) take a
stacked ``(num_blocks, coded_len)`` matrix — a streaming receiver holds
many equal-length coded blocks at once, one per stream per in-flight
frame — compute every block's pattern costs in one numpy product, and
hand the add-compare-select and the traceback to the compiled core
(:func:`repro.sphere.tick_kernel.trellis`, in the search core's C file),
which runs the scalar sweep's very IEEE operations per state.  Where the
core is unavailable they decode row by row through the scalar trellis.
Either way decisions are **bit-identical** to the scalar decoder row by
row; ``tests/test_coding.py`` pins both paths to it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..sphere import tick_kernel
from ..utils.validation import as_bit_array, require
from .convolutional import ConvolutionalCode

__all__ = ["viterbi_decode", "viterbi_decode_batch", "viterbi_decode_soft",
           "viterbi_decode_soft_batch"]


def _traceback(backpointers: np.ndarray, final_state: int) -> np.ndarray:
    num_steps, num_states = backpointers.shape
    half = num_states // 2
    decisions = np.empty(num_steps, dtype=np.uint8)
    state = final_state
    for step in range(num_steps - 1, -1, -1):
        # The input bit that produced `state` is its high bit; the
        # surviving predecessor was recorded during the forward sweep.
        decisions[step] = state // half
        state = (state % half) * 2 + backpointers[step, state]
    return decisions


def _trellis_tables(code: ConvolutionalCode):
    """Predecessor indices and packed expected-output patterns.

    Predecessors of state t: states ``2*(t % half)`` and ``2*(t % half) +
    1``, reached with input bit ``t // half`` (the packed-register
    convention).  The expected outputs of each transition pack into a
    pattern index so the per-step branch costs become a single gather.
    Built once per code and returned read-only.
    """
    return _tables(code.constraint_length, code.polynomials)


@lru_cache(maxsize=16)
def _tables(constraint_length: int, polynomials: tuple):
    # Keyed on the code's parameters: its ``taps`` array makes the
    # dataclass itself unhashable.
    code = ConvolutionalCode(constraint_length, polynomials)
    num_states = code.num_states
    expected = code.trellis_outputs()           # (states, 2, outputs)
    half = num_states // 2
    targets = np.arange(num_states, dtype=np.int64)
    pred0 = (targets % half) * 2
    pred1 = pred0 + 1
    input_bits = targets // half
    weights = 1 << np.arange(code.num_outputs, dtype=np.int64)
    pattern_from0 = (expected[pred0, input_bits, :] * weights).sum(axis=1)
    pattern_from1 = (expected[pred1, input_bits, :] * weights).sum(axis=1)
    tables = pred0, pred1, pattern_from0, pattern_from1
    for table in tables:
        table.setflags(write=False)
    return tables


def _trellis_steps(reliabilities: np.ndarray,
                   code: ConvolutionalCode) -> np.ndarray:
    """``reliabilities`` (last axis: one coded block) as ``(...,
    steps, outputs)``, after checking it holds a whole number of trellis
    steps and more than the termination tail."""
    outputs_per_step = code.num_outputs
    coded_len = reliabilities.shape[-1]
    require(coded_len % outputs_per_step == 0,
            f"coded length {coded_len} is not a multiple of "
            f"{outputs_per_step}")
    num_steps = coded_len // outputs_per_step
    require(num_steps > code.num_tail_bits,
            "coded block too short to contain any information bits")
    return reliabilities.reshape(reliabilities.shape[:-1]
                                 + (num_steps, outputs_per_step))


def _pattern_costs(steps: np.ndarray, outputs_per_step: int) -> np.ndarray:
    """Cost of every expected-output pattern at every step.

    ``cost(c, r) = max(0, r)`` if ``c == 1`` else ``max(0, -r)``;
    vectorised over the leading axes of ``steps`` (``(..., steps,
    outputs)`` in, ``(..., steps, patterns)`` out).
    """
    num_patterns = 1 << outputs_per_step
    pattern_bits = ((np.arange(num_patterns)[:, None]
                     >> np.arange(outputs_per_step)) & 1).astype(np.float64)
    positive = np.maximum(steps, 0.0)
    negative = np.maximum(-steps, 0.0)
    return positive @ pattern_bits.T + negative @ (1.0 - pattern_bits).T


def _decode_reliabilities(reliabilities: np.ndarray,
                          code: ConvolutionalCode) -> np.ndarray:
    require(reliabilities.ndim == 1, "reliabilities must be 1-D")
    steps = _trellis_steps(reliabilities, code)
    num_steps = steps.shape[0]
    num_states = code.num_states
    pred0, pred1, pattern_from0, pattern_from1 = _trellis_tables(code)
    pattern_costs = _pattern_costs(steps, code.num_outputs)

    metrics = np.full(num_states, np.inf)
    metrics[0] = 0.0                            # encoder starts in state 0
    backpointers = np.empty((num_steps, num_states), dtype=np.uint8)

    for step in range(num_steps):
        costs = pattern_costs[step]
        candidate0 = metrics[pred0] + costs[pattern_from0]
        candidate1 = metrics[pred1] + costs[pattern_from1]
        take1 = candidate1 < candidate0
        metrics = np.where(take1, candidate1, candidate0)
        backpointers[step] = take1

    # Termination drives the encoder back to state 0.
    decisions = _traceback(backpointers, final_state=0)
    return decisions[: num_steps - code.num_tail_bits]


def _require_finite(array: np.ndarray) -> None:
    """Reject non-finite reliabilities, naming the offending position.

    The soft demappers (:mod:`repro.detect.llr`,
    :mod:`repro.sphere.soft`) clamp LLRs to a finite range, so a
    non-finite value reaching the trellis means a broken producer — the
    error names where so the offender is findable.
    """
    finite = np.isfinite(array)
    if not finite.all():
        offender = np.unravel_index(int(np.flatnonzero(~finite)[0]),
                                    array.shape)
        where = int(offender[0]) if array.ndim == 1 else tuple(
            int(i) for i in offender)
        require(False, f"reliabilities must be finite; index {where} is "
                f"{array[offender]}")


def viterbi_decode(coded_bits, code: ConvolutionalCode) -> np.ndarray:
    """Hard-decision maximum-likelihood sequence decoding.

    ``coded_bits`` is the (possibly corrupted) interleaved coded stream
    including termination; returns the information bits.
    """
    bits = as_bit_array(coded_bits, "coded bits")
    reliabilities = 1.0 - 2.0 * bits.astype(np.float64)
    return _decode_reliabilities(reliabilities, code)


def viterbi_decode_soft(reliabilities, code: ConvolutionalCode) -> np.ndarray:
    """Soft-decision decoding from per-bit reliabilities (positive => 0)."""
    array = np.asarray(reliabilities, dtype=np.float64)
    _require_finite(array)
    return _decode_reliabilities(array, code)


def viterbi_decode_soft_batch(reliabilities,
                              code: ConvolutionalCode) -> np.ndarray:
    """Soft-decision decoding of a stacked ``(num_blocks, coded_len)``
    reliability matrix in one native trellis call.

    Returns the ``(num_blocks, num_info_bits)`` information bits,
    bit-identical to :func:`viterbi_decode_soft` row by row — which is
    what decodes each row where the compiled core is unavailable.
    """
    array = np.asarray(reliabilities, dtype=np.float64)
    require(array.ndim == 2,
            "batched reliabilities must be (num_blocks, coded_len)")
    _require_finite(array)
    if array.shape[0] == 0:
        num_steps = array.shape[1] // code.num_outputs
        return np.empty((0, max(num_steps - code.num_tail_bits, 0)),
                        dtype=np.uint8)
    if tick_kernel.core() is None:
        return np.stack([_decode_reliabilities(row, code) for row in array])
    steps = _trellis_steps(array, code)
    num_blocks, num_steps = steps.shape[:2]
    _, _, pattern_from0, pattern_from1 = _trellis_tables(code)
    decisions = np.empty((num_blocks, num_steps), dtype=np.uint8)
    tick_kernel.trellis(_pattern_costs(steps, code.num_outputs),
                        pattern_from0, pattern_from1,
                        np.empty((num_steps, code.num_states), np.uint8),
                        np.empty((2, code.num_states)), decisions)
    return decisions[:, : num_steps - code.num_tail_bits]


def viterbi_decode_batch(coded_bits, code: ConvolutionalCode) -> np.ndarray:
    """Hard-decision decoding of stacked ``(num_blocks, coded_len)``
    coded blocks in one trellis call (the batched twin of
    :func:`viterbi_decode`)."""
    array = np.asarray(coded_bits)
    require(array.ndim == 2,
            "batched coded bits must be (num_blocks, coded_len)")
    flat = as_bit_array(array.reshape(-1), "coded bits")
    reliabilities = 1.0 - 2.0 * flat.astype(np.float64)
    return viterbi_decode_soft_batch(reliabilities.reshape(array.shape), code)
