"""Input-validation helpers shared across the library.

The public API validates eagerly and raises ``ValueError`` with actionable
messages; internal hot loops assume validated inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "require",
    "as_complex_matrix",
    "as_complex_vector",
    "as_bit_array",
    "check_power_of_two",
    "check_square_qam_order",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    """Return ``value`` as a 2-D complex128 ndarray, validating its shape."""
    array = np.asarray(value, dtype=np.complex128)
    require(array.ndim == 2, f"{name} must be 2-D, got shape {array.shape}")
    require(array.size > 0, f"{name} must be non-empty")
    require(bool(np.isfinite(array).all()), f"{name} contains non-finite entries")
    return array


def as_complex_vector(value, name: str = "vector") -> np.ndarray:
    """Return ``value`` as a 1-D complex128 ndarray, validating its shape."""
    array = np.asarray(value, dtype=np.complex128)
    require(array.ndim == 1, f"{name} must be 1-D, got shape {array.shape}")
    require(array.size > 0, f"{name} must be non-empty")
    require(bool(np.isfinite(array).all()), f"{name} contains non-finite entries")
    return array


def as_bit_array(value, name: str = "bits") -> np.ndarray:
    """Return ``value`` as a 1-D uint8 ndarray of 0/1 values.

    The values are checked before the cast: casting first would wrap
    256 to 0 and truncate 0.5 to 0, accepting what is not a bit.
    """
    array = np.asarray(value)
    require(array.ndim == 1, f"{name} must be 1-D, got shape {array.shape}")
    require(bool(((array == 0) | (array == 1)).all()),
            f"{name} must contain only 0s and 1s")
    return array.astype(np.uint8, copy=False)


def check_power_of_two(value: int, name: str = "value") -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    require(value >= 1 and (value & (value - 1)) == 0,
            f"{name} must be a positive power of two, got {value}")
    return value


def check_square_qam_order(order: int) -> int:
    """Validate that ``order`` is a square QAM size (4, 16, 64, 256, ...)."""
    check_power_of_two(order, "constellation order")
    side = int(round(order ** 0.5))
    require(side * side == order,
            f"constellation order must be a perfect square (4, 16, 64, 256, ...), got {order}")
    return order
