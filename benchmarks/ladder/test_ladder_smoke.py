"""Wiring check for the ladder benchmark (tier-1 collects this file).

One ``--smoke`` run (2 short passes per workload, small pools, 4-frame
ladder, ~20 s) must decode every frame correctly, print exactly the
metric and workload names ``BENCHMARK.json`` declares, and leave span
traces whose parent links resolve; ``compare.py``'s verdict rules are
checked on hand-made entries.  It asserts no timing — speed is what
the full benchmark measures, not what a test may gate on.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
END_TO_END = [metric["name"] for metric in CONTRACT["end_to_end"]]
PER_LAYER = [metric["name"] for metric in CONTRACT["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "12",
         "--out", str(out)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout, json.loads((out / "results.json").read_text()), out


def test_every_workload_decodes_correctly(smoke):
    _, results, _ = smoke
    assert list(results["workloads"]) == WORKLOADS
    for name, entry in results["workloads"].items():
        assert entry["correct"], name
        assert entry["attempted"] >= 1
        # An expiry is an explicit resolution the deadline policy may
        # choose on a stalled box; it is counted, never a wrong result.
        # Every other kind of failure is a bug.
        allowed = (entry["detail"]["expired"] if name == "slo_open_loop"
                   else 0)
        assert entry["failed"] <= allowed, (name, entry["detail"])
        assert entry["inputs_digest"] and entry["results_digest"]


def test_names_match_the_contract_exactly(smoke):
    stdout, results, _ = smoke
    for name in WORKLOADS + END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name), name
    printed = {}
    for line in stdout.splitlines():
        fields = line.split()
        # Metric lines are "<workload> <metric> <value> <unit> ..."; the
        # per-workload "attempted=... failed=..." line has no metric name.
        if (len(fields) >= 4 and fields[0] in WORKLOADS
                and NAME.fullmatch(fields[1])):
            printed.setdefault(fields[0], []).append(fields[1])
    assert list(printed) == WORKLOADS
    for name in WORKLOADS:
        assert printed[name] == END_TO_END + PER_LAYER
        entry = results["workloads"][name]
        assert sorted(entry["end_to_end"]) == sorted(END_TO_END)
        assert list(entry["per_layer"]) == PER_LAYER
    assert json.loads(stdout.splitlines()[-1])["workloads"].keys() == set(
        WORKLOADS)


def test_trace_files_parse_and_parent_links_resolve(smoke):
    _, results, out = smoke
    for name in WORKLOADS:
        path = Path(results["workloads"][name]["trace_file"])
        assert path.parent == out
        events = json.loads(path.read_text())["traceEvents"]
        spans = [event["args"] for event in events
                 if event["ph"] == "X" and event["pid"] == 0]
        assert spans, name
        ids = {span["id"] for span in spans}
        assert all(span["parent"] is None or span["parent"] in ids
                   for span in spans), name


def test_compare_accepts_a_run_against_itself(smoke):
    _, _, out = smoke
    results = str(out / "results.json")
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), results, results],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout[-2000:]
    assert "regressed" not in done.stdout.replace("no regression", "")


def test_compare_verdicts():
    def entry(value, passes=None):
        if passes is None:
            return {"value": value}
        return {"value": value, "passes": passes, "q1": min(passes),
                "q3": max(passes)}

    assert verdict(entry(100.0), entry(111.0), 0.10, "lower") == "regressed"
    assert verdict(entry(100.0), entry(89.0), 0.10, "lower") == "improved"
    assert verdict(entry(100.0), entry(91.0), 0.10, "higher") == "unchanged"
    # A fraction's bound is a difference, not a share of the base.
    assert verdict(entry(0.5), entry(0.48), 0.03, "higher",
                   absolute=True) == "unchanged"
    assert verdict(entry(0.5), entry(0.46), 0.03, "higher",
                   absolute=True) == "regressed"
    # A zero base has no ratio; any move is past the bound.
    assert verdict(entry(0.0), entry(0.0), 0.10, "lower") == "unchanged"
    assert verdict(entry(0.0), entry(1.0), 0.10, "lower") == "regressed"
    # Passes scattered wider than the bound settle nothing ...
    noisy = entry(100.0, [80.0, 100.0, 120.0])
    assert verdict(noisy, entry(105.0, [85.0, 105.0, 125.0]), 0.10,
                   "lower") == "unresolved"
    # ... unless every pass of one run beats every pass of the other.
    assert verdict(noisy, entry(200.0, [180.0, 200.0, 220.0]), 0.10,
                   "lower") == "regressed"
