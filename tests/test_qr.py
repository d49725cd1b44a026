"""One Householder program, written twice: a frame's QR and rotation.

:mod:`repro.sphere.qr` is the oracle — :func:`~repro.sphere.qr.triangularize`
and :func:`~repro.sphere.qr.rotate` in Python floats, one matrix at a
time — and ``search_core.c``'s ``repro_qr_run`` / ``repro_rotate_run``
the executor, over a whole ``(S, na, nc)`` stack in one native call
(:mod:`repro.frame.preprocess`).  These tests pin the executor to the
oracle bit for bit (``Q``, ``R`` and every rotated observation) over
shapes, scales, a zero leading entry, near-rank-deficient columns and
empty stacks; pin both paths (core and compiler-less) to refuse a
non-finite or rank-deficient subcarrier with the same ``ValueError``
naming it; and check that the per-vector decoders share one front end
(:func:`~repro.sphere.qr.triangular_system`, the executor where the
core built), bit-identical on both paths.

Stacks are drawn through :mod:`hypothesis` when it is installed (the CI
environment has it) and through seeded fuzz loops otherwise.
"""

import numpy as np
import pytest

import repro.frame.preprocess as preprocess
import repro.sphere.qr as qr
import repro.sphere.tick_kernel as tick_kernel
from repro.constellation import qam
from repro.frame import rotate_frame, triangular_frame, triangularize_frame
from repro.ofdm import WIFI_20MHZ, estimate_and_triangularize, training_grid
from repro.runtime import FrameJob, FrameRequest
from repro.sphere import (
    FixedComplexityDecoder,
    KBestDecoder,
    ListSphereDecoder,
    SphereDecoder,
    triangularize,
)
from repro.sphere.qr import rotate, triangular_system

from test_engine import _frame_instance, needs_core

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False


def _hidden(run):
    """``run()`` with the core hidden: preprocessing loops the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tick_kernel, "_core", False)
        return run()


def _stack(seed, num_rx, num_tx, subcarriers, symbols, exponent,
           zero_lead, near_deficient):
    """A ``(S, na, nc)`` channel stack at scale ``10 ** exponent`` and
    ``(T, S, na)`` observations; ``zero_lead`` zeroes every subcarrier's
    first entry (the first reflector's phase is then 1),
    ``near_deficient`` makes the last column the first one turned and
    perturbed by 1e-12..1e-6 of it (some are refused, some are not)."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    shape = (subcarriers, num_rx, num_tx)
    channels = scale * (rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    if zero_lead:
        channels[:, 0, 0] = 0.0
    if near_deficient and num_tx >= 2:
        wobble = 10.0 ** rng.uniform(-12, -6, size=(subcarriers, 1))
        channels[:, :, -1] = (channels[:, :, 0] * (0.6 - 0.8j)
                              + wobble * channels[:, :, -1])
    received = scale * (rng.standard_normal((symbols, subcarriers, num_rx))
                        + 1j * rng.standard_normal(
                            (symbols, subcarriers, num_rx)))
    return channels, received


def _preprocess(channels, received):
    """Both frame entry points, or the message they refused with."""
    try:
        q_stack, r_stack = triangularize_frame(channels)
        return (q_stack, r_stack, rotate_frame(q_stack, received),
                *triangular_frame(channels, received))
    except ValueError as error:
        return str(error)


def check_executor_matches_oracle(*draw):
    channels, received = _stack(*draw)
    got = _preprocess(channels, received)
    fallback = _hidden(lambda: _preprocess(channels, received))
    refused = next((s for s, matrix in enumerate(channels)
                    if not _factors(matrix)), None)
    if refused is not None:
        assert isinstance(got, str) and f"subcarrier {refused} " in got
        assert fallback == got
        return
    q_stack, r_stack, y_stack, fused_r, fused_y, diag, diag_sq = got
    for s, matrix in enumerate(channels):
        q, r = triangularize(matrix)
        assert np.array_equal(q_stack[s], q) and np.array_equal(r_stack[s], r)
        assert np.array_equal(y_stack[s], rotate(q, received[:, s]))
        for t in range(received.shape[0]):
            for run in (lambda call: call(), _hidden):
                r_alone, y_alone = run(
                    lambda: triangular_system(matrix, received[t, s]))
                assert np.array_equal(r_alone, r)
                assert np.array_equal(y_alone, y_stack[s, t])
    assert np.array_equal(fused_r, r_stack) and np.array_equal(fused_y,
                                                               y_stack)
    assert np.array_equal(diag, np.real(np.diagonal(r_stack, axis1=1,
                                                    axis2=2)))
    assert np.array_equal(diag_sq, diag * diag)
    for ours, theirs in zip(got, fallback):
        assert np.array_equal(ours, theirs)


def _factors(matrix):
    try:
        return triangularize(matrix)
    except ValueError:
        return None


if HAVE_HYPOTHESIS:
    @st.composite
    def draws(draw):
        num_tx = draw(st.integers(1, 8))
        return (draw(st.integers(0, 2**32 - 1)),
                draw(st.integers(num_tx, 8)), num_tx,
                draw(st.integers(0, 4)), draw(st.integers(0, 3)),
                draw(st.floats(-8.0, 8.0)), draw(st.booleans()),
                draw(st.booleans()))

    @settings(max_examples=60, deadline=None)
    @given(draw=draws())
    def test_executor_matches_oracle_bit_for_bit(draw):
        check_executor_matches_oracle(*draw)
else:  # pragma: no cover - exercised only without hypothesis
    def test_executor_matches_oracle_bit_for_bit():
        rng = np.random.default_rng(42)
        for seed in range(60):
            num_tx = int(rng.integers(1, 9))
            check_executor_matches_oracle(
                seed, int(rng.integers(num_tx, 9)), num_tx,
                int(rng.integers(0, 5)), int(rng.integers(0, 4)),
                float(rng.uniform(-8.0, 8.0)), seed % 3 == 0, seed % 4 == 0)


@pytest.mark.parametrize("num_rx,num_tx", [(1, 1), (4, 4), (8, 3), (8, 8)])
def test_empty_stack(num_rx, num_tx):
    channels = np.zeros((0, num_rx, num_tx), dtype=np.complex128)
    received = np.zeros((3, 0, num_rx), dtype=np.complex128)
    for run in (lambda: _preprocess(channels, received),
                lambda: _hidden(lambda: _preprocess(channels, received))):
        q_stack, r_stack, y_stack, *_ = run()
        assert q_stack.shape == (0, num_rx, num_tx)
        assert r_stack.shape == (0, num_tx, num_tx)
        assert y_stack.shape == (0, 3, num_tx)


# ----------------------------------------------------------------------
# Refusals: the same ValueError, naming the subcarrier, on both paths
# ----------------------------------------------------------------------

FLAWS = {
    "nan": (lambda channels: channels.__setitem__((2, 1, 0), np.nan),
            "subcarrier 2 is not finite"),
    "inf": (lambda channels: channels.__setitem__((2, 3, 2), 1j * np.inf),
            "subcarrier 2 is not finite"),
    "rank": (lambda channels: channels.__setitem__(
        (2, slice(None), 1), 2.0 * channels[2, :, 0]),
        "subcarrier 2 is numerically rank deficient"),
}


@pytest.mark.parametrize("hide_core", [False, True])
@pytest.mark.parametrize("flaw", sorted(FLAWS))
def test_bad_subcarrier_refused_by_name(flaw, hide_core):
    """A NaN or inf channel entry used to come back from the stacked QR
    as a NaN ``R`` with only a ``RuntimeWarning``; now every frame entry
    point refuses it (and a rank-deficient subcarrier) by name, with
    the core and without."""
    _, channels, received = _frame_instance(16, 4, 4, 5, 2, seed=4)
    damage, message = FLAWS[flaw]
    damage(channels)
    calls = (lambda: triangularize_frame(channels),
             lambda: triangular_frame(channels, received))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            _hidden(call) if hide_core else call()
    messages = set()
    for run in (lambda call: call(), _hidden):
        with pytest.raises(ValueError) as refused:
            run(calls[0])
        messages.add(str(refused.value))
    assert len(messages) == 1


@pytest.mark.parametrize("hide_core", [False, True])
def test_estimated_non_finite_channel_refused(hide_core):
    """``estimate_and_triangularize`` of grids with one NaN sample."""
    rng = np.random.default_rng(5)
    training = training_grid(WIFI_20MHZ, rng)
    subcarriers = WIFI_20MHZ.num_data_subcarriers
    grids = (rng.standard_normal((4, subcarriers, 4))
             + 1j * rng.standard_normal((4, subcarriers, 4)))
    grids[1, 7, 2] = np.nan
    with pytest.raises(ValueError, match="subcarrier 7 is not finite"):
        if hide_core:
            _hidden(lambda: estimate_and_triangularize(grids, training))
        else:
            estimate_and_triangularize(grids, training)


@needs_core
def test_core_returns_a_refusal_code():
    """The C entry refuses instead of computing: ``s + 1`` for a
    non-finite subcarrier ``s``, ``-(s + 1)`` for a rank-deficient
    one, 0 once every subcarrier is factored."""
    _, channels, _ = _frame_instance(16, 4, 4, 4, 1, seed=6)
    r_stack = np.empty((4, 4, 4), dtype=np.complex128)

    def code(matrices):
        return tick_kernel.householder(matrices, qr.RANK_TOLERANCE, r_stack)

    assert code(channels) == 0
    deficient = channels.copy()
    deficient[3, :, 2] = 0.0
    assert code(deficient) == -4
    deficient[1, 0, 0] = np.inf
    assert code(deficient) == 2


# ----------------------------------------------------------------------
# The per-vector decoders' shared front end
# ----------------------------------------------------------------------

def _decoders(constellation):
    return {
        "sphere": lambda channel, y: SphereDecoder(constellation).decode(
            channel, y),
        "sphere-norm": lambda channel, y: SphereDecoder(
            constellation, column_ordering="norm").decode(channel, y),
        "list": lambda channel, y: ListSphereDecoder(
            constellation, list_size=4).decode_soft(channel, y, 0.05),
        "kbest": lambda channel, y: KBestDecoder(constellation, k=4).decode(
            channel, y),
        "fcsd": lambda channel, y: FixedComplexityDecoder(
            constellation).decode(channel, y),
    }


@pytest.mark.parametrize("hide_core", [False, True])
@pytest.mark.parametrize("name", sorted(_decoders(qam(4))))
def test_per_vector_decode_takes_array_like_channel(name, hide_core):
    """Every per-vector decoder validates through ``triangular_system``:
    nested lists decode exactly like the arrays they hold (they used to
    raise ``AttributeError`` on ``channel.shape``), on the core and on
    the oracle alike."""
    constellation, channels, received = _frame_instance(16, 4, 4, 1, 1,
                                                        seed=8)
    channel, y = channels[0], received[0, 0]
    decode = _decoders(constellation)[name]
    from_lists = (_hidden(lambda: decode(channel.tolist(), y.tolist()))
                  if hide_core else decode(channel.tolist(), y.tolist()))
    from_arrays = decode(channel, y)
    assert np.array_equal(from_lists.symbol_indices,
                          from_arrays.symbol_indices)
    assert from_lists.counters == from_arrays.counters


@pytest.mark.parametrize("name", sorted(_decoders(qam(4))))
def test_per_vector_decode_refuses_a_short_observation(name):
    constellation, channels, received = _frame_instance(16, 4, 4, 1, 1,
                                                        seed=9)
    with pytest.raises(ValueError, match="received vector length 3 does "
                                         "not match channel rows 4"):
        _decoders(constellation)[name](channels[0], received[0, 0, :3])


@needs_core
def test_frame_job_never_runs_the_oracle(monkeypatch):
    """With the core loaded, building a frame's job (and the ladder's
    preprocessing pair) runs the executor only: the Python oracle is
    patched to fail."""

    def oracle(*args, **kwargs):
        raise AssertionError("the Python QR oracle ran")

    for module in (qr, preprocess):
        monkeypatch.setattr(module, "householder", oracle)
        monkeypatch.setattr(module, "rotate", oracle)
    constellation, channels, received = _frame_instance(16, 4, 4, 8, 3,
                                                        seed=10)
    job = FrameJob(0, FrameRequest(channels, received,
                                   SphereDecoder(constellation)))
    assert job.r_stack.shape == (8, 4, 4)
    rotate_frame(triangularize_frame(channels)[0], received)
