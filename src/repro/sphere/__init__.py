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
* :func:`frontier_decode_batch` — the breadth-synchronised batched
  engine behind ``SphereDecoder.decode_batch`` (strategy ``"frontier"``),
  with the scalar row loop kept as the ``"loop"`` fallback;
* :mod:`repro.sphere.tail` — the numpy-free continuation every frontier
  engine hands its last few (straggler) searches to.
"""

from .batch import BatchDecodeResult, batched_axis_orders, zigzag_order_table
from .batch_search import FRONTIER_MIN_BATCH, frontier_decode_batch
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
    "FRONTIER_MIN_BATCH",
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
    "frontier_decode_batch",
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
