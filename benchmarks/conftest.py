"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at the
``quick`` scale, prints the same rows/series the paper reports, asserts
the paper's qualitative shape (who wins, by roughly what factor), and
stashes headline numbers in ``benchmark.extra_info`` so they land in the
pytest-benchmark JSON.

Run with::

    pytest benchmarks/ --benchmark-only

Figure-level benchmarks execute exactly once (``pedantic`` with one
round); the decode-latency micro-benchmarks use normal repeated timing.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.sphere.tick_kernel as tick_kernel

#: Where the per-benchmark JSON reports land (gitignored; one
#: ``BENCH_<name>.json`` per benchmark that recorded ``extra_info``).
RESULTS_DIR = Path(__file__).parent / "results"


def _machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
    }


@pytest.fixture(autouse=True)
def bench_json_report(request):
    """Write each benchmark's headline numbers to a standalone JSON file.

    ``pytest-benchmark``'s own ``--benchmark-json`` bundles a whole run
    into one file and is easy to forget to pass; this autouse fixture
    makes every benchmark that stashed ``extra_info`` (speedups,
    frames/sec, figure series) also drop a small
    ``benchmarks/results/BENCH_<test>.json`` with the numbers plus the
    machine fingerprint, so CI artefacts and local runs are comparable
    without extra flags.  Works under ``--benchmark-disable`` too — the
    extra_info numbers are measured by the tests themselves.
    """
    yield
    benchmark = request.node.funcargs.get("benchmark")
    extra = getattr(benchmark, "extra_info", None)
    if not extra:
        return
    name = re.sub(r"[^A-Za-z0-9_.=-]+", "_", request.node.name)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "name": request.node.name,
        "nodeid": request.node.nodeid,
        "timestamp": time.time(),
        "machine": _machine_info(),
        "extra_info": dict(extra),
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark clock."""

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner


@pytest.fixture
def best_of():
    """Best-of-N wall clock for the speedup comparisons.

    N=5 keeps the floor assertions robust to noisy-neighbour CI runners
    (typical margins are several-x over the floors).  Shared by every
    benchmark that times two code paths against each other.
    """

    def timer(function, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            function()
            best = min(best, time.perf_counter() - start)
        return best

    return timer


@pytest.fixture
def speedup_floor(benchmark):
    """Record a baseline-vs-candidate timing pair and assert its floor.

    Stashes ``{baseline}_s``, ``{candidate}_s`` and ``speedup`` in
    ``benchmark.extra_info`` (so the pytest-benchmark JSON carries the
    real measured number) and asserts ``baseline / candidate >= floor``
    with a uniform message.  The floors are deliberately conservative —
    they exist to catch regressions, not to certify the headline number.
    """

    def check(baseline_s: float, candidate_s: float, floor: float, *,
              baseline: str = "baseline",
              candidate: str = "candidate") -> float:
        speedup = baseline_s / candidate_s
        benchmark.extra_info[f"{baseline}_s"] = baseline_s
        benchmark.extra_info[f"{candidate}_s"] = candidate_s
        benchmark.extra_info["speedup"] = speedup
        assert speedup >= floor, (
            f"{candidate} speedup {speedup:.1f}x over {baseline} is below "
            f"the {floor}x floor ({baseline} {baseline_s * 1e3:.1f} ms, "
            f"{candidate} {candidate_s * 1e3:.1f} ms)")
        return speedup

    return check


@pytest.fixture
def core_hidden(monkeypatch):
    """``with core_hidden():`` — inside it the compiled search core looks
    unbuildable (as on a box without ``cc``, minus the warning), so pools
    built there run every search through the scalar decoder.  That is
    the "scalar" side of the core-vs-scalar-fallback floors: everywhere
    else the lockstep schedule runs in the core wherever it loaded."""

    @contextmanager
    def hidden():
        with monkeypatch.context() as patch:
            patch.setattr(tick_kernel, "_core", False)
            yield

    return hidden
