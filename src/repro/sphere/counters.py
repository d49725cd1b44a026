"""Complexity accounting for sphere decoders.

The paper's primary complexity metric (section 5.3) is the number of
*partial Euclidean distance calculations*: "since the dominant part of the
additional computation is partial Euclidean distance calculations, this
metric tracks overall complexity accurately".  Visited-node counts are
reported "for completeness and additional insight" — and the paper's
Fig. 15 note that all Schnorr–Euchner decoders visit the *same* nodes is
one of our regression tests.

Counter semantics
-----------------
``ped_calcs``
    Exact candidate-distance evaluations ``|y~_l - s|^2`` performed by an
    enumerator.  One per enqueued zigzag candidate, ``sqrt(|O|)`` up front
    plus one per refill for the ETH-SD (Hess) enumerator, ``|O|`` per node
    for exhaustive enumeration.
``visited_nodes``
    Tree nodes whose partial Euclidean distance was accepted against the
    sphere constraint (the node was stepped into); leaves included.
``expanded_nodes``
    Nodes whose children were enumerated (an enumerator was instantiated);
    equals internal visited nodes plus one for the root.
``leaves``
    Candidate solutions reached at the bottom of the tree.
``geometric_prunes``
    Candidates excluded by the geometric lower bound *before* their exact
    distance was computed — each one is a PED calculation saved.
``complex_mults``
    Derived estimate using the paper's model (footnote 5): each PED
    calculation costs ``nc + 1`` complex multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ComplexityCounters"]


@dataclass(slots=True)
class ComplexityCounters:
    """Mutable tally shared between the search engine and its enumerators."""

    ped_calcs: int = 0
    visited_nodes: int = 0
    expanded_nodes: int = 0
    leaves: int = 0
    geometric_prunes: int = 0
    complex_mults: int = 0

    def merge(self, other: "ComplexityCounters") -> "ComplexityCounters":
        """Accumulate ``other`` into ``self`` (used to aggregate per-symbol
        counters over subcarriers and frames) and return ``self``."""
        self.ped_calcs += other.ped_calcs
        self.visited_nodes += other.visited_nodes
        self.expanded_nodes += other.expanded_nodes
        self.leaves += other.leaves
        self.geometric_prunes += other.geometric_prunes
        self.complex_mults += other.complex_mults
        return self

    def copy(self) -> "ComplexityCounters":
        """Return an independent copy of the current tallies."""
        return ComplexityCounters(
            ped_calcs=self.ped_calcs,
            visited_nodes=self.visited_nodes,
            expanded_nodes=self.expanded_nodes,
            leaves=self.leaves,
            geometric_prunes=self.geometric_prunes,
            complex_mults=self.complex_mults,
        )
