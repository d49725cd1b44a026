"""The ladder benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/ladder/run.py --seed 12            # everything, ~3 min
    python3 benchmarks/ladder/run.py --smoke              # wiring check, ~20 s
    python3 benchmarks/ladder/run.py --seed 12 --append   # + trajectory record
    python3 benchmarks/ladder/run.py --workload hard_stream --seed 3 \\
        --seconds 15 --trace 0                            # one contract run

This process only orchestrates: every measurement happens in a fresh
child process (clean ``peak_rss_mb`` and ``setup_s``), one at a time, so
the box never runs more than the driver plus one farm worker.  The
metric names, units and bounds come from ``BENCHMARK.json`` at the
repository root — the single table the children are checked against.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PASSES = 6
SMOKE_PASSES, SMOKE_SECONDS = 2, 1


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- children ------------------------------------------------------------------
def spawn(mode: str, args, workload: str) -> dict:
    """Run one child to completion; its last stdout line is its report."""
    command = [sys.executable, str(HERE / "run.py"), "--child", mode,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--passes", str(args.passes),
               "--out", str(args.out), "--spawned-at", repr(time.time())]
    if args.smoke:
        command.append("--smoke")
    if args.corpus_seed is not None:
        command += ["--corpus-seed", str(args.corpus_seed)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{mode} child for {workload} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(args) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    from workloads import CORPUS_SEED

    if args.corpus_seed is None:
        args.corpus_seed = CORPUS_SEED
    if args.child == "end_to_end":
        report = measure.end_to_end(args)
        report["machine"] = measure.machine_info()
    else:
        names = [metric["name"] for metric in load_contract()["per_layer"]]
        report = measure.traced(args, names)
    print(json.dumps(report))


# -- one workload --------------------------------------------------------------
def run_end_to_end(args, workload: str, contract: dict) -> dict:
    report = spawn("end_to_end", args, workload)
    wanted = [metric["name"] for metric in contract["end_to_end"]]
    if sorted(report["metrics"]) != sorted(wanted):
        raise SystemExit(f"end-to-end metrics {sorted(report['metrics'])} "
                         f"differ from BENCHMARK.json's {sorted(wanted)}")
    return report


def final_line(report: dict, table: list[dict]) -> str:
    """The contract's result object: every metric of ``table`` by name."""
    metrics = {}
    for metric in table:
        value = report["metrics"][metric["name"]]
        if isinstance(value, dict):
            value = value["value"]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def print_metrics(workload: str, report: dict, table: list[dict]) -> None:
    for metric in table:
        value = report["metrics"][metric["name"]]
        extra = ""
        if isinstance(value, dict):
            if "q1" in value:
                extra += f"  [q1 {value['q1']:.6g}, q3 {value['q3']:.6g}]"
            if value["raw"] != value["value"]:
                extra += f"  (raw {value['raw']:.6g})"
            if "samples" in value:
                extra += f"  n={value['samples']}"
            value = value["value"]
        print(f"{workload:16s} {metric['name']:36s} {value:14.6g} "
              f"{metric['unit']}{extra}")
    print(f"{workload:16s} attempted={report['attempted']} "
          f"failed={report['failed']} correct={report['correct']}")


# -- the whole ladder ------------------------------------------------------------
def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_all(args, contract: dict) -> dict:
    results = {
        "schema": 1, "seed": args.seed, "smoke": args.smoke,
        "run_seconds": args.seconds, "passes": args.passes,
        "commit": git_commit(), "timestamp": time.time(),
        "bounds": {m["name"]: m["bound"] for m in contract["end_to_end"]},
        "better": {m["name"]: m["better"] for m in contract["end_to_end"]},
        "workloads": {},
    }
    for entry in contract["workloads"]:
        name = entry["name"]
        end_to_end = run_end_to_end(args, name, contract)
        print_metrics(name, end_to_end, contract["end_to_end"])
        traced = spawn("traced", args, name)
        print_metrics(name, traced, contract["per_layer"])
        results.setdefault("machine", end_to_end.pop("machine"))
        results.setdefault("corpus_seed", end_to_end["corpus_seed"])
        results["workloads"][name] = {
            "correct": end_to_end["correct"] and traced["correct"],
            "attempted": end_to_end["attempted"] + traced["attempted"],
            "failed": end_to_end["failed"] + traced["failed"],
            "inputs_digest": end_to_end["inputs_digest"],
            "results_digest": end_to_end["results_digest"],
            "end_to_end": end_to_end["metrics"],
            "per_layer": traced["metrics"],
            "trace_file": traced["trace_file"],
            "rung_span_coverage": traced["rung_span_coverage"],
            "detail": {
                **{key: end_to_end[key] for key in (
                    "pool_frames", "frames_per_pass", "speed_factors")},
                **{key: end_to_end[key] + traced[key] for key in (
                    "mismatched", "expired", "degraded")}},
        }
    return results


def trajectory_record(results: dict) -> dict:
    """What one PR leaves behind: where it ran, and every end-to-end
    metric (with quartiles) and per-layer figure per workload."""
    workloads = {}
    for name, entry in results["workloads"].items():
        workloads[name] = {
            "end_to_end": {
                metric: {key: value[key] for key in ("value", "q1", "q3",
                                                     "raw") if key in value}
                for metric, value in entry["end_to_end"].items()},
            "per_layer": entry["per_layer"],
            "failed": entry["failed"], "attempted": entry["attempted"],
        }
    return {"commit": results["commit"], "timestamp": results["timestamp"],
            "seed": results["seed"], "corpus_seed": results["corpus_seed"],
            "run_seconds": results["run_seconds"],
            **results["machine"], "workloads": workloads}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--corpus-seed", type=int,
                        help="generate the frame corpus from another seed "
                             "(every number moves; for checking that the "
                             "benchmark holds on other frames)")
    parser.add_argument("--smoke", action="store_true",
                        help="2 passes x 1 s, small pools, 4-frame ladder")
    parser.add_argument("--append", action="store_true",
                        help="append this run's record to trajectory.json")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--child", choices=("end_to_end", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child_main(args)
        return 0

    contract = load_contract()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]
    args.passes = SMOKE_PASSES if args.smoke else PASSES
    names = [entry["name"] for entry in contract["workloads"]]

    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {names}")
        if args.trace:
            report, table = (spawn("traced", args, args.workload),
                             contract["per_layer"])
        else:
            report, table = (run_end_to_end(args, args.workload, contract),
                             contract["end_to_end"])
        print_metrics(args.workload, report, table)
        print(final_line(report, table))
        return 0 if report["correct"] else 1

    results = run_all(args, contract)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(results, indent=1))
    if args.append:
        path = HERE / "trajectory.json"
        records = json.loads(path.read_text()) if path.exists() else []
        records.append(trajectory_record(results))
        path.write_text(json.dumps(records, indent=1) + "\n")
    summary = {name: {key: entry[key]
                      for key in ("correct", "attempted", "failed")}
               for name, entry in results["workloads"].items()}
    print(json.dumps({"results": str(args.out / "results.json"),
                      "workloads": summary}))
    return 0 if all(entry["correct"] for entry in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
