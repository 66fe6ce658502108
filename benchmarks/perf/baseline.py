"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 benchmarks/perf/baseline.py --seeds 0,1 --runs 5 --out perf-baseline.json
    python3 benchmarks/perf/baseline.py --seeds 0,1,2,3,4,5,6,7,8,9 --runs 1

Each round runs every workload once per seed, untraced, so the seeds' sets
of runs interleave in time.  For every workload and end-to-end metric it
prints the median and quartiles of all runs pooled, the spread (quartile
distance over the median) and the largest gap between two seeds' medians,
both as a share of the median and against the metric's bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

from harness import load_benchmark
from run import run_workload


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1", help="comma-separated seeds")
    parser.add_argument("--runs", type=int, default=5, help="runs per seed and workload")
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write every run and the summary here as JSON")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    workloads = [w["name"] for w in benchmark["workloads"]]

    runs: Dict[str, Dict[int, List[Dict]]] = {w: {s: [] for s in seeds} for w in workloads}
    status = 0
    for _ in range(args.runs):
        for seed in seeds:
            for workload in workloads:
                code, _, line = run_workload(workload, seed, args.seconds, 0)
                if code != 0 or line is None or not line["correct"]:
                    status = 1
                    print(f"error: {workload} seed {seed} failed (exit status {code})",
                          file=sys.stderr)
                    continue
                runs[workload][seed].append(line)
                values = {name: round(m["value"], 4) for name, m in line["metrics"].items()}
                print(f"{workload} seed {seed}: {values}", flush=True)

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary: Dict[str, Dict] = {}
    for workload, by_seed in runs.items():
        lines = [line for seed_lines in by_seed.values() for line in seed_lines]
        if not lines:
            continue
        summary[workload] = {}
        print(workload)
        for name, bound in bounds.items():
            per_seed = {seed: quartiles([line["metrics"][name]["value"] for line in seed_lines])
                        for seed, seed_lines in by_seed.items() if seed_lines}
            pooled = quartiles([line["metrics"][name]["value"] for line in lines])
            medians = [q["median"] for q in per_seed.values()]
            entry = {
                "unit": lines[0]["metrics"][name]["unit"],
                "pooled": pooled,
                "per_seed": per_seed,
                "spread": (pooled["q3"] - pooled["q1"]) / pooled["median"],
                "seed_gap": (max(medians) - min(medians)) / pooled["median"],
            }
            summary[workload][name] = entry
            print(f"  {name:20s} median {pooled['median']:12.6g}  q1 {pooled['q1']:12.6g}  "
                  f"q3 {pooled['q3']:12.6g}  spread {entry['spread']:.3f}  "
                  f"seed gap {entry['seed_gap']:.3f}  (bound {bound})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": seeds, "runs_per_seed": args.runs, "seconds": args.seconds,
                       "summary": summary, "runs": runs}, fh, indent=1, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
