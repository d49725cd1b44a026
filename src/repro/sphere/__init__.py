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
  (:mod:`repro.runtime.engine`, what ``decode_batch`` / ``decode_block``
  / ``decode_frame`` run on) — two candidate attempts per search are
  the lockstep step, an unlimited allowance drains a pool's last few
  (straggler) searches.  It runs on the arrays a pool holds for its
  searches, frontier slots included, whose layout
  :func:`repro.sphere.tick_kernel.lanes` declares, and expands every
  node of a search, its root included.  The scalar
  :meth:`SphereDecoder.decode_triangular` /
  :meth:`ListSphereDecoder.decode_soft_triangular` are the oracle it is
  pinned to, and what the engine runs where there is no core.
"""

from .batch import BatchDecodeResult, batched_axis_orders, zigzag_order_table
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
from .kbest import KBestDecoder
from .pruning import GeometricPruner, lower_bound_sq_table
from .qr import triangularize
from .shabany import ShabanyEnumerator
from .soft import (
    ListSphereDecoder,
    SoftBatchResult,
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
    "BatchDecodeResult",
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
    "SoftBatchResult",
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
