"""Run the benchmark repeatedly and record medians and quartiles.

From the repository root:

    python3 perfbench/baseline.py --label <commit> --out perfbench/results/baseline.json

Every workload in ``BENCHMARK.json`` runs for the ``run_seconds`` that
file sets, in two sets of ten runs each: set 1 uses seeds 0 to 9 and
set 2 seeds 10 to 19, since the benchmark is accepted only when two sets
of ten runs agree.  For every end-to-end metric the record holds each
set's values, median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and spread, which is
the interquartile distance over the median.  It also holds the shift of
set 2's median from set 1's, as a share of set 1's median, signed so
that a positive shift is a change for the worse, beside the metric's
bound.  One traced run per workload (seed 0) adds the per-layer numbers
and the tracing overhead.  The record also names the Python version,
the CPU count and model, and the line count of ``src/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10  # runs per set


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join("src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def run_set(workload: str, seeds: range, seconds: int) -> dict:
    runs = []
    for seed in seeds:
        result = bench(workload, seed, seconds, 0)
        runs.append(result)
        print(workload, seed, result["correct"], result["failed"],
              {k: round(m["value"], 4) for k, m in result["metrics"].items()},
              flush=True)
    return {
        "seeds": list(seeds),
        "all_correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": {k: summary([r["metrics"][k]["value"] for r in runs])
                       for k in runs[0]["metrics"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    record = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "src_lines": src_lines(),
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [run_set(workload, range(i * RUNS, (i + 1) * RUNS), seconds)
                for i in range(2)]
        shift = {}
        for name, m in metrics.items():
            first, second = (s["end_to_end"][name]["median"] for s in sets)
            worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
            shift[name] = {"worse_by": worse, "bound": m["bound"]}
        traced = bench(workload, 0, seconds, 1)
        record["workloads"][workload] = {
            "sets": sets,
            "median_shift": shift,
            "traced_seed_0": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            spreads = "  ".join(f"{s['end_to_end'][name]['spread']:.3f}" for s in sets)
            print(f"  {workload:<11} {name:<14} "
                  f"median {sets[0]['end_to_end'][name]['median']:.4f}  "
                  f"spreads {spreads}  shift {shift[name]['worse_by']:+.3f}  "
                  f"bound {m['bound']}", flush=True)
    text = json.dumps(record, indent=1)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
