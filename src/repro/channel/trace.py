"""Channel-trace containers.

The paper's evaluation is "trace-driven": channels measured once on the
WARP testbed are replayed through detectors and link simulations.  A
:class:`ChannelTrace` is our equivalent artifact — a dense array of channel
matrices indexed by (link, subcarrier) plus provenance metadata — produced
by :mod:`repro.testbed` and consumed by every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..utils.validation import require
from .metrics import condition_number_sq_db, worst_stream_degradation_db

__all__ = ["ChannelTrace"]


@dataclass
class ChannelTrace:
    """Measured (or synthesised) channels for one antenna configuration.

    Attributes
    ----------
    matrices:
        Complex array of shape ``(num_links, num_subcarriers, num_rx, num_tx)``.
    num_clients / num_ap_antennas:
        The MIMO configuration, e.g. 2 clients x 4 AP antennas.
    label:
        Human-readable provenance ("testbed", "rayleigh", ...).
    """

    matrices: np.ndarray
    label: str = "trace"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.matrices = np.asarray(self.matrices, dtype=np.complex128)
        require(self.matrices.ndim == 4,
                f"matrices must have shape (links, subcarriers, rx, tx), "
                f"got {self.matrices.shape}")
        require(self.matrices.size > 0, "trace must contain at least one channel")

    @property
    def num_links(self) -> int:
        return self.matrices.shape[0]

    @property
    def num_subcarriers(self) -> int:
        return self.matrices.shape[1]

    @property
    def num_ap_antennas(self) -> int:
        return self.matrices.shape[2]

    @property
    def num_clients(self) -> int:
        return self.matrices.shape[3]

    def link(self, index: int) -> np.ndarray:
        """All per-subcarrier matrices of one link, shape ``(S, rx, tx)``."""
        return self.matrices[index]

    def iter_channels(self):
        """Yield every (link, subcarrier) channel matrix."""
        for link_index in range(self.num_links):
            for subcarrier in range(self.num_subcarriers):
                yield self.matrices[link_index, subcarrier]

    # ------------------------------------------------------------------
    # Conditioning statistics (inputs to Figs. 9 and 10)
    # ------------------------------------------------------------------
    def condition_numbers_sq_db(self) -> np.ndarray:
        """``kappa^2`` in dB for every (link, subcarrier) channel."""
        return np.array([condition_number_sq_db(matrix)
                         for matrix in self.iter_channels()])

    def worst_degradations_db(self) -> np.ndarray:
        """``Lambda`` in dB for every (link, subcarrier) channel."""
        return np.array([worst_stream_degradation_db(matrix)
                         for matrix in self.iter_channels()])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialise to ``.npz``: the matrices, the label, and the
        metadata keys and values as strings — every array plain data
        (fixed-width unicode for the strings), so :meth:`load` reads it
        with numpy's object loading off."""
        keys = sorted(self.metadata)
        np.savez_compressed(
            Path(path),
            matrices=self.matrices,
            label=np.asarray(self.label, dtype=str),
            metadata_keys=np.asarray(keys, dtype=str),
            metadata_values=np.asarray(
                [str(self.metadata[key]) for key in keys], dtype=str),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ChannelTrace":
        """Load a trace written by :meth:`save`.  Object arrays are
        refused (``np.load``'s default), so a file cannot make the
        loader build anything but arrays."""
        with np.load(Path(path)) as data:
            metadata = dict(zip(data["metadata_keys"].tolist(),
                                data["metadata_values"].tolist()))
            return cls(matrices=data["matrices"], label=str(data["label"]),
                       metadata=metadata)

    def subset_clients(self, num_clients: int) -> "ChannelTrace":
        """Restrict to the first ``num_clients`` columns of every channel.

        Used for the paper's "fewer concurrent clients" comparisons
        (e.g. the 2 clients x 4 AP antennas curves are the 4x4 traces with
        two transmitting clients).
        """
        require(1 <= num_clients <= self.num_clients,
                f"num_clients must be in [1, {self.num_clients}], got {num_clients}")
        return ChannelTrace(
            matrices=self.matrices[:, :, :, :num_clients],
            label=f"{self.label}[{num_clients}cl]",
            metadata=dict(self.metadata),
        )
