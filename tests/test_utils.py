"""Tests for the shared utilities (RNG handling, validation)."""

import numpy as np
import pytest

from repro.utils import (
    as_bit_array,
    as_complex_matrix,
    as_complex_vector,
    as_generator,
    check_power_of_two,
    check_square_qam_order,
    require,
    spawn_generators,
)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="broken invariant"):
            require(False, "broken invariant")


class TestGenerators:
    def test_int_seed_deterministic(self):
        assert (as_generator(42).integers(0, 100, 5)
                == as_generator(42).integers(0, 100, 5)).all()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_none_gives_fresh_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_spawn_independence(self):
        rng = as_generator(1)
        children = spawn_generators(rng, 3)
        draws = [child.integers(0, 1 << 30) for child in children]
        assert len(set(draws)) == 3

    def test_spawn_deterministic(self):
        a = [g.integers(0, 1000) for g in spawn_generators(as_generator(2), 4)]
        b = [g.integers(0, 1000) for g in spawn_generators(as_generator(2), 4)]
        assert a == b

    def test_spawn_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_generators(as_generator(0), -1)


class TestArrayValidation:
    def test_complex_matrix_accepts_lists(self):
        matrix = as_complex_matrix([[1, 2], [3, 4]])
        assert matrix.dtype == np.complex128
        assert matrix.shape == (2, 2)

    def test_complex_matrix_rejects_vector(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.zeros(4))

    def test_complex_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.nan, 0], [0, 0]]))

    def test_complex_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_complex_vector(np.zeros((2, 2)))

    def test_complex_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            as_complex_vector(np.array([]))

    def test_bit_array_roundtrip(self):
        bits = as_bit_array([0, 1, 1, 0])
        assert bits.dtype == np.uint8

    def test_bit_array_rejects_twos(self):
        with pytest.raises(ValueError):
            as_bit_array([0, 2])

    def test_bit_array_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_bit_array(np.zeros((2, 2), dtype=np.uint8))

    @pytest.mark.parametrize("value", [[256, 1, 0], [0.5, 1.7], [-1, 0]])
    def test_bit_array_checks_before_casting(self, value):
        """A uint8 cast wraps 256 to 0 and truncates 0.5 to 0; the check
        runs on the values as given, so neither passes as a bit."""
        with pytest.raises(ValueError, match="only 0s and 1s"):
            as_bit_array(value)

    @pytest.mark.parametrize("value", [np.array([True, False, True]),
                                       np.array([1, 0, 1], dtype=np.uint8),
                                       np.array([1.0, 0.0, 1.0])])
    def test_bit_array_accepts_bools_uint8_and_integral_floats(self, value):
        bits = as_bit_array(value)
        assert bits.dtype == np.uint8 and bits.tolist() == [1, 0, 1]


class TestPowerChecks:
    def test_powers_of_two_accepted(self):
        for value in (1, 2, 4, 1024):
            assert check_power_of_two(value) == value

    def test_non_powers_rejected(self):
        for value in (0, 3, 12, -4):
            with pytest.raises(ValueError):
                check_power_of_two(value)

    def test_square_qam_orders(self):
        for order in (4, 16, 64, 256, 1024):
            assert check_square_qam_order(order) == order
        for order in (2, 8, 32, 128):
            with pytest.raises(ValueError):
                check_square_qam_order(order)
