"""Sphere decoding: the paper's core contribution and its baselines.

Public surface:

* :class:`SphereDecoder` — depth-first Schnorr–Euchner engine with
  pluggable enumeration;
* :func:`geosphere_decoder` / :func:`geosphere_zigzag_only` /
  :func:`eth_sd_decoder` / :func:`shabany_decoder` /
  :func:`exhaustive_se_decoder` — the named configurations evaluated in
  the paper;
* :class:`ComplexityCounters` — the PED-calculation / visited-node
  accounting behind Figs. 14-15;
* :class:`GeometricPruner` — the table-driven branch lower bound;
* :mod:`repro.sphere.tick_kernel` — the compiled search core
  (``search_core.c``, built with the system ``cc`` at first use): the
  same state machine in C, one loop with two uses in the lockstep engine
  (:mod:`repro.runtime.engine`, what ``decode_frame`` runs on) — two
  candidate attempts per search are the lockstep step, an unlimited
  allowance drains a pool's last few (straggler) searches.  One call is
  one pool tick: it admits queued searches, steps them and retires the
  finished ones into their frames' result rows, on the arrays a pool
  holds for its lanes, frontier slots included, whose layout
  :func:`repro.sphere.tick_kernel.lanes` declares, and expands every
  node of a search, its root included.

Every tree-search decoder answers two questions.  For a vector it has
``decode`` / ``decode_triangular`` (``decode_soft*`` for the list
decoder); for a frame, ``decode_frame``, which returns a
:class:`~repro.frame.results.FrameDecodeResult` /
:class:`~repro.frame.results.SoftFrameResult`.  ``decode_batch(r,
y_hat[, noise_variance])`` is the frame question asked of one
subcarrier that is already triangular, and returns that frame's result,
``(T, 1)`` leading.  The scalar :meth:`SphereDecoder.decode_triangular`
/ :meth:`ListSphereDecoder.decode_soft_triangular` are the oracle the
engine is pinned to, and what it runs where there is no core.
"""

from ..constellation.pam import zigzag_order_table
from .counters import ComplexityCounters
from .decoder import (
    SphereDecoder,
    SphereDecoderResult,
    eth_sd_decoder,
    exhaustive_se_decoder,
    geosphere_decoder,
    geosphere_zigzag_only,
    shabany_decoder,
)
from .enumerator import AxisOrder, Candidate, build_axes
from .exhaustive import ExhaustiveEnumerator
from .fcsd import FixedComplexityDecoder
from .hess import HessEnumerator
from .kbest import KBestDecoder, batched_axis_orders
from .pruning import GeometricPruner, lower_bound_sq_table
from .qr import triangularize
from .shabany import ShabanyEnumerator
from .soft import (
    ListSphereDecoder,
    SoftDecodeResult,
    soft_outputs_from_lists,
    stacked_list_bits,
)
from .treesize import (
    exhaustive_distance_count,
    full_tree_node_count,
    worst_case_ped_calcs,
)
from .zigzag import GeosphereEnumerator

__all__ = [
    "AxisOrder",
    "Candidate",
    "ComplexityCounters",
    "ExhaustiveEnumerator",
    "FixedComplexityDecoder",
    "GeometricPruner",
    "GeosphereEnumerator",
    "HessEnumerator",
    "KBestDecoder",
    "ListSphereDecoder",
    "ShabanyEnumerator",
    "SoftDecodeResult",
    "SphereDecoder",
    "SphereDecoderResult",
    "batched_axis_orders",
    "build_axes",
    "eth_sd_decoder",
    "exhaustive_distance_count",
    "exhaustive_se_decoder",
    "full_tree_node_count",
    "geosphere_decoder",
    "geosphere_zigzag_only",
    "lower_bound_sq_table",
    "shabany_decoder",
    "soft_outputs_from_lists",
    "stacked_list_bits",
    "triangularize",
    "worst_case_ped_calcs",
    "zigzag_order_table",
]
