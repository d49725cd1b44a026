"""Square QAM constellations on the odd-integer lattice.

The constellation is represented as the product of two Gray-coded PAM
axes.  Every point is identified by an integer pair ``(col, row)`` — its
column index along the in-phase (I) axis and row index along the
quadrature (Q) axis — which is the coordinate system Geosphere's 2-D
zigzag enumeration and geometric pruning operate in.  Complex values,
bit labels and energies are all derived from that pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..utils.validation import as_bit_array, check_square_qam_order, require
from .gray import bits_to_int, gray_decode, gray_encode, int_to_bits
from .pam import pam_levels, slice_to_index

__all__ = ["QamConstellation", "QAM4", "QAM16", "QAM64", "QAM256", "qam"]


@dataclass(frozen=True)
class QamConstellation:
    """An immutable square QAM constellation with unit average energy.

    Attributes
    ----------
    order:
        Number of points ``M`` (4, 16, 64 or 256 in the paper).
    side:
        ``sqrt(M)`` — the size of each PAM axis.
    scale:
        Half the minimum distance between points after normalising the
        constellation to unit average energy.  Points are spaced
        ``2 * scale`` apart, matching the paper's "two units" lattice.
    levels:
        The ``side`` PAM amplitude levels shared by both axes.
    points:
        Complex point values, indexed by ``col * side + row``.
    gray_bits:
        ``(side, bits_per_axis)`` uint8 Gray labels of the PAM positions,
        MSB first: row ``p`` is the bits a column or row ``p`` carries on
        either axis.  The one label table every bit mapping indexes.
    """

    order: int
    side: int = field(init=False)
    bits_per_symbol: int = field(init=False)
    bits_per_axis: int = field(init=False)
    scale: float = field(init=False)
    levels: np.ndarray = field(init=False, repr=False)
    points: np.ndarray = field(init=False, repr=False)
    gray_bits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_square_qam_order(self.order)
        side = int(round(self.order ** 0.5))
        bits_per_symbol = int(round(np.log2(self.order)))
        # Unit average energy: E[|s|^2] = 2 * scale^2 * (M - 1) / 3 = 1.
        scale = float(np.sqrt(3.0 / (2.0 * (self.order - 1))))
        levels = pam_levels(side, scale)
        cols, rows = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        points = levels[cols] + 1j * levels[rows]
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "bits_per_symbol", bits_per_symbol)
        object.__setattr__(self, "bits_per_axis", bits_per_symbol // 2)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "points", points.reshape(-1))
        object.__setattr__(self, "gray_bits", int_to_bits(
            gray_encode(np.arange(side)), bits_per_symbol // 2))
        self.levels.setflags(write=False)
        self.points.setflags(write=False)
        self.gray_bits.setflags(write=False)

    # ------------------------------------------------------------------
    # Index bookkeeping
    # ------------------------------------------------------------------
    def index_of(self, col, row):
        """Flattened point index for column/row pair(s)."""
        return np.asarray(col) * self.side + np.asarray(row)

    def col_row(self, index):
        """Inverse of :meth:`index_of`."""
        index = np.asarray(index)
        return index // self.side, index % self.side

    def point(self, col: int, row: int) -> complex:
        """Complex value of the point at ``(col, row)``."""
        return complex(self.levels[col] + 1j * self.levels[row])

    @property
    def min_distance(self) -> float:
        """Minimum Euclidean distance between distinct points."""
        return 2.0 * self.scale

    @property
    def average_energy(self) -> float:
        """Mean of ``|s|^2`` over the constellation (1.0 by construction)."""
        return float(np.mean(np.abs(self.points) ** 2))

    # ------------------------------------------------------------------
    # Bit mapping (per-axis Gray labelling, I bits first then Q bits)
    # ------------------------------------------------------------------
    def bits_to_indices(self, bits) -> np.ndarray:
        """Map a bit stream to flattened symbol indices (vectorised)."""
        bits = as_bit_array(bits)
        require(bits.size % self.bits_per_symbol == 0,
                f"bit count {bits.size} not a multiple of {self.bits_per_symbol}")
        grouped = bits.reshape(-1, self.bits_per_symbol)
        col_code = bits_to_int(grouped[:, : self.bits_per_axis])
        row_code = bits_to_int(grouped[:, self.bits_per_axis:])
        cols = gray_decode(col_code)
        rows = gray_decode(row_code)
        return self.index_of(cols, rows)

    def indices_to_bits(self, indices) -> np.ndarray:
        """Inverse of :meth:`bits_to_indices`: flattened-index array to
        bits.  An index outside ``[0, order)`` — e.g. a search's ``-1``
        "no leaf" marker — names no symbol and is refused."""
        indices = np.asarray(indices)
        require(indices.size == 0 or (0 <= indices.min()
                                      and indices.max() < self.order),
                f"symbol indices must be in [0, {self.order})")
        cols, rows = self.col_row(indices)
        return np.concatenate([self.gray_bits[cols], self.gray_bits[rows]],
                              axis=-1).reshape(-1)

    def modulate(self, bits) -> np.ndarray:
        """Map bits to complex symbols."""
        return self.points[self.bits_to_indices(bits)]

    # ------------------------------------------------------------------
    # Slicing (hard decisions)
    # ------------------------------------------------------------------
    def slice_col_row(self, values):
        """Nearest-point column/row indices for complex value(s).

        Per-axis rounding — the paper's "slicing the received symbol on the
        constellation's decision boundaries" — costing O(1) per symbol.
        """
        values = np.asarray(values)
        cols = slice_to_index(values.real, self.side, self.scale)
        rows = slice_to_index(values.imag, self.side, self.scale)
        return cols, rows

    def slice_indices(self, values) -> np.ndarray:
        """Nearest-point flattened indices for complex value(s)."""
        cols, rows = self.slice_col_row(values)
        return self.index_of(cols, rows)

    def hard_demodulate(self, values) -> np.ndarray:
        """Slice complex symbols and return the corresponding bits."""
        return self.indices_to_bits(self.slice_indices(np.asarray(values).reshape(-1)))

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QamConstellation(order={self.order})"


_CACHE: dict[int, QamConstellation] = {}


def qam(order: int) -> QamConstellation:
    """Return the (cached, immutable) square QAM constellation of ``order``."""
    if order not in _CACHE:
        _CACHE[order] = QamConstellation(order)
    return _CACHE[order]


QAM4 = qam(4)
QAM16 = qam(16)
QAM64 = qam(64)
QAM256 = qam(256)
