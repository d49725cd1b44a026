"""Tests for the convolutional code, Viterbi decoder, interleaver,
scrambler and CRC."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sphere.tick_kernel as tick_kernel
from repro.coding import viterbi
from repro.coding import (
    WIFI_CODE,
    ConvolutionalCode,
    append_crc,
    check_crc,
    crc32_bits,
    deinterleave,
    descramble,
    interleave,
    interleaver_permutation,
    scramble,
    scrambler_sequence,
    viterbi_decode,
    viterbi_decode_batch,
    viterbi_decode_soft,
    viterbi_decode_soft_batch,
)
from repro.phy import default_config, encode_stream, recover_stream
from repro.phy.receiver import stream_coded_bits

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=8, max_size=200)

#: Codes the batched-vs-scalar sweeps cover: the standard WiFi code, a
#: short K=3 code, and a K=5 rate-1/3 code (three outputs per step) so
#: the pattern-cost gather is exercised beyond two outputs.
SWEEP_CODES = [
    WIFI_CODE,
    ConvolutionalCode(constraint_length=3, polynomials=(0o7, 0o5)),
    ConvolutionalCode(constraint_length=5, polynomials=(0o27, 0o31, 0o25)),
]
CODE_IDS = ["wifi", "k3", "k5-rate13"]

needs_core = pytest.mark.skipif(tick_kernel.core() is None,
                                reason="no C compiler: no compiled trellis")


@pytest.fixture
def compiler_hidden(no_compiler):
    """No compiler: the batched decoders decode row by row through the
    scalar trellis.  The loader's one warning is taken here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert tick_kernel.core() is None


def _assert_batch_matches_scalar_rows(reliabilities, code):
    batched = viterbi_decode_soft_batch(reliabilities, code)
    num_info = reliabilities.shape[1] // code.num_outputs - code.num_tail_bits
    assert batched.shape == (reliabilities.shape[0], num_info)
    assert batched.dtype == np.uint8
    for row, decoded in zip(reliabilities, batched):
        assert np.array_equal(decoded, viterbi_decode_soft(row, code))


class TestEncoder:
    def test_rate_and_termination_length(self):
        bits = np.zeros(100, dtype=np.uint8)
        coded = WIFI_CODE.encode(bits)
        assert coded.size == (100 + 6) * 2
        assert WIFI_CODE.coded_length(100) == coded.size

    def test_all_zeros_encode_to_all_zeros(self):
        coded = WIFI_CODE.encode(np.zeros(40, dtype=np.uint8))
        assert not coded.any()

    def test_known_impulse_response(self):
        """A single 1 produces the generator polynomials as output."""
        coded = WIFI_CODE.encode(np.array([1], dtype=np.uint8))
        g0 = coded[0::2]
        g1 = coded[1::2]
        assert list(g0) == [(0o133 >> shift) & 1 for shift in range(6, -1, -1)]
        assert list(g1) == [(0o171 >> shift) & 1 for shift in range(6, -1, -1)]

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 64).astype(np.uint8)
        b = rng.integers(0, 2, 64).astype(np.uint8)
        assert (WIFI_CODE.encode(a ^ b) == (WIFI_CODE.encode(a) ^ WIFI_CODE.encode(b))).all()

    def test_rejects_invalid_polynomial(self):
        with pytest.raises(ValueError):
            ConvolutionalCode(constraint_length=3, polynomials=(0o17, 0o5))

    def test_custom_code_trellis_shapes(self):
        code = ConvolutionalCode(constraint_length=3, polynomials=(0o7, 0o5))
        assert code.num_states == 4
        assert code.trellis_outputs().shape == (4, 2, 2)
        assert code.next_states().shape == (4, 2)


class TestViterbiHard:
    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        assert (viterbi_decode(WIFI_CODE.encode(bits), WIFI_CODE) == bits).all()

    @pytest.mark.parametrize("num_errors", [1, 2, 3])
    def test_corrects_scattered_errors(self, num_errors):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 120).astype(np.uint8)
        coded = WIFI_CODE.encode(bits)
        corrupted = coded.copy()
        # Spread the errors far apart so they are independently correctable.
        positions = np.linspace(5, coded.size - 5, num_errors).astype(int)
        corrupted[positions] ^= 1
        assert (viterbi_decode(corrupted, WIFI_CODE) == bits).all()

    def test_finds_maximum_likelihood_sequence(self):
        """Against brute force over all short messages: the decoded
        codeword must be at minimal Hamming distance from the observation."""
        code = ConvolutionalCode(constraint_length=3, polynomials=(0o7, 0o5))
        rng = np.random.default_rng(3)
        k = 6
        messages = [np.array([(m >> i) & 1 for i in range(k)], dtype=np.uint8)
                    for m in range(2 ** k)]
        codewords = [code.encode(m) for m in messages]
        for _ in range(20):
            observed = rng.integers(0, 2, codewords[0].size).astype(np.uint8)
            decoded = viterbi_decode(observed, code)
            decoded_word = code.encode(decoded)
            best = min(int((observed != w).sum()) for w in codewords)
            assert int((observed != decoded_word).sum()) == best

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            viterbi_decode(np.zeros(13, dtype=np.uint8), WIFI_CODE)

    def test_rejects_too_short_block(self):
        with pytest.raises(ValueError):
            viterbi_decode(np.zeros(8, dtype=np.uint8), WIFI_CODE)

    def test_rejects_floats_that_are_not_bits(self):
        """0.4 is not a bit, even though a uint8 cast makes it one."""
        with pytest.raises(ValueError, match="only 0s and 1s"):
            viterbi_decode(np.full(48, 0.4), WIFI_CODE)

    @settings(max_examples=20, deadline=None)
    @given(bit_lists)
    def test_roundtrip_property(self, bits):
        array = np.asarray(bits, dtype=np.uint8)
        assert (viterbi_decode(WIFI_CODE.encode(array), WIFI_CODE) == array).all()


class TestViterbiSoft:
    def test_soft_equals_hard_for_unit_reliabilities(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 80).astype(np.uint8)
        coded = WIFI_CODE.encode(bits)
        coded[10] ^= 1
        reliabilities = 1.0 - 2.0 * coded.astype(float)
        assert (viterbi_decode_soft(reliabilities, WIFI_CODE)
                == viterbi_decode(coded, WIFI_CODE)).all()

    def test_low_confidence_errors_are_ignored(self):
        """Bits flipped with tiny reliability should not drag the decision."""
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 100).astype(np.uint8)
        coded = WIFI_CODE.encode(bits).astype(float)
        reliabilities = 1.0 - 2.0 * coded
        flip = rng.choice(reliabilities.size, size=20, replace=False)
        reliabilities[flip] *= -0.01  # wrong sign, almost no confidence
        assert (viterbi_decode_soft(reliabilities, WIFI_CODE) == bits).all()

    def test_soft_beats_hard_at_equal_error_count(self):
        """With reliability information, soft decoding recovers a pattern
        hard decoding cannot."""
        code = WIFI_CODE
        rng = np.random.default_rng(6)
        soft_wins = 0
        trials = 20
        for _ in range(trials):
            bits = rng.integers(0, 2, 60).astype(np.uint8)
            coded = code.encode(bits)
            reliabilities = 1.0 - 2.0 * coded.astype(float)
            # Flip a burst of 6 adjacent bits but mark them unreliable.
            start = int(rng.integers(0, reliabilities.size - 6))
            reliabilities[start:start + 6] *= -0.05
            hard_in = (reliabilities < 0).astype(np.uint8)
            soft_ok = (viterbi_decode_soft(reliabilities, code) == bits).all()
            hard_ok = (viterbi_decode(hard_in, code) == bits).all()
            soft_wins += int(soft_ok and not hard_ok)
            assert soft_ok
        assert soft_wins > 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            viterbi_decode_soft(np.array([np.inf] * 14), WIFI_CODE)

    def test_non_finite_error_names_the_index(self):
        """The clamp contract means a non-finite reliability is a broken
        producer; the error must say *where* so the offender is findable."""
        reliabilities = np.ones(20)
        reliabilities[13] = np.nan
        with pytest.raises(ValueError, match=r"index 13 is nan"):
            viterbi_decode_soft(reliabilities, WIFI_CODE)


class TestViterbiBatch:
    """The batched decoders: bit-identical to the scalar decoder across
    codes, block lengths, block counts, ties and corruption, hard and
    soft alike — through the compiled trellis wherever the core builds
    (and again without it, below)."""

    def _corrupted_batch(self, code, info_bits, num_blocks, rng):
        messages = rng.integers(0, 2, (num_blocks, info_bits)).astype(np.uint8)
        coded = np.stack([code.encode(m) for m in messages])
        corrupted = coded.copy()
        flips = rng.random(corrupted.shape) < 0.04
        corrupted[flips] ^= 1
        return messages, corrupted

    @pytest.mark.parametrize("code", SWEEP_CODES, ids=CODE_IDS)
    @pytest.mark.parametrize("info_bits", [16, 57, 120])
    def test_hard_batch_matches_scalar_rows(self, code, info_bits):
        rng = np.random.default_rng(info_bits)
        _, corrupted = self._corrupted_batch(code, info_bits, 8, rng)
        batched = viterbi_decode_batch(corrupted, code)
        assert batched.shape == (8, info_bits)
        for row, decoded in zip(corrupted, batched):
            assert (decoded == viterbi_decode(row, code)).all()

    @pytest.mark.parametrize("code", SWEEP_CODES, ids=CODE_IDS)
    def test_soft_batch_matches_scalar_rows(self, code):
        rng = np.random.default_rng(99)
        _, corrupted = self._corrupted_batch(code, 80, 6, rng)
        reliabilities = (1.0 - 2.0 * corrupted.astype(np.float64)
                         + rng.normal(0.0, 0.7, corrupted.shape))
        batched = viterbi_decode_soft_batch(reliabilities, code)
        scalar = np.stack([viterbi_decode_soft(row, code)
                           for row in reliabilities])
        assert np.array_equal(batched, scalar)

    @pytest.mark.parametrize("code", SWEEP_CODES, ids=CODE_IDS)
    @pytest.mark.parametrize("inputs", ["integers", "zeros", "negative-zero",
                                        "hard"])
    def test_tie_heavy_batches_match_scalar_rows(self, code, inputs):
        """Where candidates tie the select must keep the first one, as
        the scalar ``np.where(c1 < c0, ...)`` does: integer-valued
        reliabilities tie often, all-zero rows tie at every compare,
        ``-0.0`` must compare equal to ``0.0``, and hard ±1 rows are
        what every hard frame feeds the trellis."""
        rng = np.random.default_rng(len(inputs))
        shape = (9, code.coded_length(40))
        reliabilities = {
            "integers": lambda: rng.integers(-3, 4, shape).astype(np.float64),
            "zeros": lambda: np.zeros(shape),
            "negative-zero": lambda: np.where(rng.random(shape) < 0.5,
                                              -0.0, 0.0),
            "hard": lambda: rng.choice([-1.0, 1.0], shape),
        }[inputs]()
        _assert_batch_matches_scalar_rows(reliabilities, code)

    @pytest.mark.parametrize("code", SWEEP_CODES, ids=CODE_IDS)
    @pytest.mark.parametrize("num_blocks", [0, 1, 33])
    def test_block_counts(self, code, num_blocks):
        """An empty stack, one block, and more blocks than a frame has
        streams: the backpointer scratch is reused block after block."""
        rng = np.random.default_rng(num_blocks)
        reliabilities = rng.normal(0.0, 1.0,
                                   (num_blocks, code.coded_length(31)))
        _assert_batch_matches_scalar_rows(reliabilities, code)

    def test_clean_batch_roundtrips(self):
        rng = np.random.default_rng(7)
        messages = rng.integers(0, 2, (5, 64)).astype(np.uint8)
        coded = np.stack([WIFI_CODE.encode(m) for m in messages])
        assert (viterbi_decode_batch(coded, WIFI_CODE) == messages).all()

    def test_single_row_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 40).astype(np.uint8)
        coded = WIFI_CODE.encode(bits)
        coded[3] ^= 1
        batched = viterbi_decode_batch(coded[None, :], WIFI_CODE)
        assert (batched[0] == viterbi_decode(coded, WIFI_CODE)).all()

    def test_empty_batch(self):
        empty = np.empty((0, WIFI_CODE.coded_length(32)))
        decoded = viterbi_decode_soft_batch(empty, WIFI_CODE)
        assert decoded.shape == (0, 32)
        assert decoded.dtype == np.uint8

    def test_rejects_wrong_rank(self):
        flat = np.zeros(WIFI_CODE.coded_length(16))
        with pytest.raises(ValueError, match="num_blocks, coded_len"):
            viterbi_decode_soft_batch(flat, WIFI_CODE)
        with pytest.raises(ValueError, match="num_blocks, coded_len"):
            viterbi_decode_batch(flat.astype(np.uint8), WIFI_CODE)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            viterbi_decode_soft_batch(np.zeros((2, 13)), WIFI_CODE)
        with pytest.raises(ValueError):  # tail bits only, no information
            viterbi_decode_soft_batch(np.zeros((2, 12)), WIFI_CODE)

    def test_non_finite_error_names_row_and_column(self):
        block = np.ones((4, WIFI_CODE.coded_length(16)))
        block[2, 7] = -np.inf
        with pytest.raises(ValueError, match=r"index \(2, 7\) is -inf"):
            viterbi_decode_soft_batch(block, WIFI_CODE)


@pytest.mark.usefixtures("compiler_hidden")
class TestViterbiBatchWithoutCompiler(TestViterbiBatch):
    """Every batched sweep above with the compiler hidden: the fallback
    is the scalar decoder row by row, errors and empty batch included."""


class TestCompiledTrellis:
    """The native entry point behind the batched decoders."""

    @pytest.mark.parametrize("hidden", [False, True],
                             ids=["core", "no_compiler"])
    def test_batch_runs_natively_only_where_the_core_loaded(
            self, hidden, request, monkeypatch):
        if hidden:
            request.getfixturevalue("compiler_hidden")
        calls = []
        native = tick_kernel.trellis
        monkeypatch.setattr(tick_kernel, "trellis",
                            lambda *args: calls.append(args) or native(*args))
        reliabilities = np.ones((4, WIFI_CODE.coded_length(20)))
        viterbi_decode_soft_batch(reliabilities, WIFI_CODE)
        assert len(calls) == int(tick_kernel.core() is not None)

    @needs_core
    def test_trellis_refuses_what_it_cannot_address(self):
        """Past the ctypes boundary a wrong dtype, a strided view, a
        short buffer or an out-of-range pattern index is memory
        corruption, so the wrapper raises first — before anything is
        written."""
        code = WIFI_CODE
        states, steps, blocks = code.num_states, 30, 3
        _, _, from0, from1 = viterbi._trellis_tables(code)
        rng = np.random.default_rng(0)
        costs = viterbi._pattern_costs(
            rng.normal(size=(blocks, steps, code.num_outputs)),
            code.num_outputs)

        def run(**swap):
            operands = dict(
                costs=costs, pattern_from0=from0, pattern_from1=from1,
                backpointers=np.empty((steps, states), np.uint8),
                metrics=np.empty((2, states)),
                decisions=np.full((blocks, steps), 7, np.uint8))
            operands.update(swap)
            tick_kernel.trellis(**operands)

        decisions = np.full((blocks, steps), 7, np.uint8)
        run(decisions=decisions)                         # the good call
        assert set(np.unique(decisions)) <= {0, 1}
        refusals = {
            "trellis costs as C-contiguous float64": dict(
                costs=costs.astype(np.float32)),
            "trellis costs as C-contiguous": dict(costs=costs[:, :, ::2]),
            "pattern_from0 as C-contiguous int64": dict(
                pattern_from0=from0.astype(np.int32)),
            r"pattern_from1 outside \[0, 4\)": dict(
                pattern_from1=np.where(from1 == 3, 4, from1)),
            r"pattern_from0 outside \[0, 4\)": dict(
                pattern_from0=np.where(from0 == 0, -1, from0)),
            "backpointers as C-contiguous uint8": dict(
                backpointers=np.empty((steps - 1, states), np.uint8)),
            "path metrics as C-contiguous float64": dict(
                metrics=np.empty(states)),
            "decisions as C-contiguous uint8": dict(
                decisions=np.full((blocks, steps - 1), 7, np.uint8)),
            "even number of states": dict(pattern_from0=from0[:-1].copy(),
                                          pattern_from1=from1[:-1].copy()),
        }
        for message, swap in refusals.items():
            decisions = swap.setdefault(
                "decisions", np.full((blocks, steps), 7, np.uint8))
            with pytest.raises(ValueError, match=message):
                run(**swap)
            assert (decisions == 7).all()


class TestCodedChainProperty:
    """Hypothesis sweep of the whole bit chain: encode -> interleave ->
    pad -> recover round-trips the payload for every constellation, code
    mode and pad size, and the batched Viterbi agrees bit-for-bit with
    the scalar decoder on corrupted inputs from the same chain."""

    @settings(max_examples=20, deadline=None)
    @given(order=st.sampled_from([4, 16, 64, 256]),
           payload_bits=st.integers(min_value=24, max_value=180),
           coded=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_chain_roundtrip_and_batch_agreement(self, order, payload_bits,
                                                 coded, seed):
        config = default_config(order=order, payload_bits=payload_bits,
                                coded=coded)
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 2, payload_bits).astype(np.uint8)
        frame = encode_stream(payload, config)
        indices = frame.symbol_indices.reshape(frame.grid.shape)
        decision = recover_stream(indices, frame.num_pad_bits, config)
        assert decision.crc_ok
        assert (decision.payload_bits == payload).all()
        if not coded:
            return
        # Corrupt the recovered coded block and decode it two ways — one
        # batch sweep and the scalar decoder row by row — which must
        # agree bit-for-bit.
        block = stream_coded_bits(indices, frame.num_pad_bits, config)
        reliabilities = (1.0 - 2.0 * block.astype(np.float64)
                         + rng.normal(0.0, 0.6, block.size))
        stacked = np.stack([reliabilities,
                            reliabilities[::-1].copy(),
                            -reliabilities])
        batched = viterbi_decode_soft_batch(stacked, config.code)
        scalar = np.stack([viterbi_decode_soft(row, config.code)
                           for row in stacked])
        assert np.array_equal(batched, scalar)


class TestInterleaver:
    @pytest.mark.parametrize("n_bpsc", [2, 4, 6, 8])
    def test_roundtrip(self, n_bpsc):
        n_cbps = 48 * n_bpsc
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, 3 * n_cbps).astype(np.uint8)
        assert (deinterleave(interleave(bits, n_cbps, n_bpsc), n_cbps, n_bpsc)
                == bits).all()

    def test_permutation_is_bijective(self):
        perm = interleaver_permutation(192, 4)
        assert sorted(perm.tolist()) == list(range(192))

    def test_adjacent_bits_are_spread(self):
        """Consecutive coded bits must land at least 10 positions apart."""
        perm = interleaver_permutation(96, 2)
        gaps = np.abs(np.diff(perm))
        assert gaps.min() >= 3
        assert np.median(gaps) >= 6

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            interleave(np.zeros(100, dtype=np.uint8), 96, 2)

    def test_rejects_non_multiple_of_16(self):
        with pytest.raises(ValueError):
            interleaver_permutation(50, 2)


class TestScrambler:
    def test_involution(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 500).astype(np.uint8)
        assert (descramble(scramble(bits)) == bits).all()

    def test_sequence_period_127(self):
        sequence = scrambler_sequence(254)
        assert (sequence[:127] == sequence[127:]).all()
        assert sequence[:127].sum() == 64  # balanced m-sequence: 64 ones

    def test_whitens_constant_input(self):
        zeros = np.zeros(1000, dtype=np.uint8)
        scrambled = scramble(zeros)
        assert 0.4 < scrambled.mean() < 0.6

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            scramble(np.zeros(8, dtype=np.uint8), seed=0)


@pytest.mark.parametrize("function, args", [
    (scrambler_sequence, (300, 0b1011101)),
    (interleaver_permutation, (192, 4)),
    (viterbi._tables, (7, (0o133, 0o171))),
], ids=["scrambler", "interleaver", "trellis"])
def test_memoised_tables_are_shared_read_only_and_fresh(function, args):
    """The coded chain's per-config tables are built once: a repeat call
    returns the same arrays, which refuse writes (a caller scribbling on
    one would corrupt every later frame) and equal a fresh build."""
    cached = function(*args)
    assert function(*args) is cached
    fresh = function.__wrapped__(*args)
    if not isinstance(cached, tuple):
        cached, fresh = (cached,), (fresh,)
    for got, want in zip(cached, fresh, strict=True):
        assert np.array_equal(got, want) and got.dtype == want.dtype
        with pytest.raises(ValueError, match="read-only"):
            got[0] = got[0]


def test_trellis_tables_are_keyed_on_the_code_parameters():
    code = ConvolutionalCode(constraint_length=7, polynomials=(0o133, 0o171))
    assert code is not WIFI_CODE
    assert viterbi._trellis_tables(code) is viterbi._trellis_tables(WIFI_CODE)


class TestCrc:
    def test_detects_single_bit_flip(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 300).astype(np.uint8)
        framed = append_crc(bits)
        assert check_crc(framed)
        for position in (0, 150, framed.size - 1):
            corrupted = framed.copy()
            corrupted[position] ^= 1
            assert not check_crc(corrupted)

    def test_detects_burst_errors(self):
        bits = np.ones(128, dtype=np.uint8)
        framed = append_crc(bits)
        corrupted = framed.copy()
        corrupted[40:72] ^= 1
        assert not check_crc(corrupted)

    def test_known_vector(self):
        """MSB-first CRC-32 (the CRC-32/BZIP2 variant: init all-ones,
        final complement, no reflection) of ASCII '123456789' is
        0xFC891918."""
        data = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
        crc = crc32_bits(data)
        value = int("".join(str(b) for b in crc), 2)
        assert value == 0xFC891918

    def test_non_byte_aligned_payload(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0], dtype=np.uint8)
        assert check_crc(append_crc(bits))

    def test_too_short_stream_fails(self):
        assert not check_crc(np.zeros(10, dtype=np.uint8))

    @settings(max_examples=20, deadline=None)
    @given(bit_lists)
    def test_append_check_property(self, bits):
        assert check_crc(append_crc(np.asarray(bits, dtype=np.uint8)))
