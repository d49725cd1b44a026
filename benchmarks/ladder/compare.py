"""Compare two ladder results: one verdict per (end-to-end metric, workload).

    python3 benchmarks/ladder/compare.py base/results.json new/results.json

Each row gives the base value, the new value, their ratio (new / base),
the metric's regression bound and a verdict:

``improved`` / ``regressed``  the value moved past the bound;
``unchanged``                 it did not;
``unresolved``                the pass-to-pass spread of either run is
                              wider than the bound, so a value inside it
                              proves nothing — unless every pass of one
                              run beats every pass of the other, which
                              settles it whatever the spread.

A bound is a share of the base value, except for the metrics in
``ABSOLUTE_BOUNDS``, where it is a difference.  Exits non-zero on any
regression or a higher failed share.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

#: Fractions of frames: "0.03" means three frames in a hundred, whatever
#: the base value.
ABSOLUTE_BOUNDS = frozenset({"slo_met_fraction"})


def _scale(entry: dict, absolute: bool) -> float:
    """What changes and spreads of ``entry`` are measured against."""
    return 1.0 if absolute else abs(entry["value"])


def _spread(entry: dict, absolute: bool) -> float:
    """Interquartile range of a metric's passes, on the bound's scale.
    Metrics read once per run (``setup_s``, ``peak_rss_mb``) carry no
    quartiles and have no spread to show."""
    if "q1" not in entry or not _scale(entry, absolute):
        return 0.0
    return (entry["q3"] - entry["q1"]) / _scale(entry, absolute)


def _separated(base: dict, new: dict, higher_is_better: bool) -> str | None:
    """``improved`` / ``regressed`` when every pass of one run is on one
    side of every pass of the other, else ``None``."""
    ours, theirs = new.get("passes"), base.get("passes")
    if not ours or not theirs:
        return None
    if min(ours) > max(theirs):
        return "improved" if higher_is_better else "regressed"
    if max(ours) < min(theirs):
        return "regressed" if higher_is_better else "improved"
    return None


def verdict(base: dict, new: dict, bound: float, better: str,
            absolute: bool = False) -> str:
    higher = better == "higher"
    worse_by = new["value"] - base["value"]
    if higher:
        worse_by = -worse_by
    if _scale(base, absolute):
        worse_by /= _scale(base, absolute)
    elif worse_by:
        # A zero base has no share to take: any move is past the bound.
        worse_by = math.copysign(math.inf, worse_by)
    if max(_spread(base, absolute), _spread(new, absolute)) > bound:
        return _separated(base, new, higher) or "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def _failed_share(entry: dict) -> float:
    return entry["failed"] / max(entry["attempted"], 1)


def compare(base: dict, new: dict) -> tuple[list, bool]:
    """Rows ``(workload, metric, base, new, ratio, bound, verdict)`` and
    whether anything regressed."""
    rows, regressed = [], False
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"][workload]
        for metric, bound in base["bounds"].items():
            ours, theirs = (new_entry["end_to_end"][metric],
                            base_entry["end_to_end"][metric])
            outcome = verdict(theirs, ours, bound, base["better"][metric],
                              metric in ABSOLUTE_BOUNDS)
            regressed |= outcome == "regressed"
            ratio = (ours["value"] / theirs["value"] if theirs["value"]
                     else float("nan"))
            rows.append((workload, metric, theirs["value"], ours["value"],
                         ratio, bound, outcome))
        if _failed_share(new_entry) > _failed_share(base_entry):
            regressed = True
            rows.append((workload, "failed_share", _failed_share(base_entry),
                         _failed_share(new_entry), float("nan"), 0.0,
                         "regressed"))
    return rows, regressed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    rows, regressed = compare(base, new)
    print(f"{'workload':16s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>9s}  verdict")
    for workload, metric, old, value, ratio, bound, outcome in rows:
        bound_text = f"{bound:.2f}" + (" abs" if metric in ABSOLUTE_BOUNDS
                                       else "")
        print(f"{workload:16s} {metric:18s} {old:12.6g} {value:12.6g} "
              f"{ratio:9.3f} {bound_text:>9s}  {outcome}")
    print("REGRESSED" if regressed else "no regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
