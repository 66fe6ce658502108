"""Run the repo benchmark.

One workload, ending with a one-line JSON result (the form ``BENCHMARK.json``
names)::

    python3 benchmarks/perf/run.py --workload fleet-miss --seed 0 --seconds 20 --trace 0

Every workload, each in its own subprocess, with a combined report::

    python3 benchmarks/perf/run.py --workloads all --seed 0 --out result.json [--trace 1]

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a separate traced run and writes its merged Chrome
trace (``--trace-out``, default ``perf-trace/<workload>.json``).  The exit
status is 1 when an output or population check fails, 2 without ``src/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from harness import load_benchmark  # noqa: E402  (after the src/ path entry)


def _runner(workload: str) -> Callable:
    if workload.startswith("search-"):
        from search import run_search

        return run_search
    from fleet import run_fleet

    return run_fleet


def run_one(args, benchmark: Dict[str, Any]) -> int:
    try:
        import repro  # noqa: F401  (the program under test, from src/)
    except ImportError as exc:
        print(f"error: cannot import the repro package from src/: {exc}", file=sys.stderr)
        return 2
    from harness import result_line
    from tracing import write_chrome_trace

    try:
        run = _runner(args.workload)(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.smoke)
    except Exception:
        traceback.print_exc()
        return 1
    line = result_line(run, bool(args.trace), benchmark)
    for name, metric in line["metrics"].items():
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}  ({run.batches} batches)")
    if args.trace:
        path = args.trace_out or f"perf-trace/{args.workload}.json"
        write_chrome_trace(path, run.spans, run.process_names)
        print(f"{args.workload}  trace written to {path}")
    for failure in run.failures:
        print(f"error: {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> Tuple[int, List[str], Optional[Dict[str, Any]]]:
    """Run one workload in its own process: its exit status, the lines it
    printed before its result line, and the result line (None without one)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, lines[:-1], json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, lines, None


def run_all(args, workloads: List[str]) -> int:
    report: Dict[str, Dict] = {}
    status = 0
    for workload in workloads:
        code, lines, result = run_workload(workload, args.seed, args.seconds, args.trace,
                                           args.smoke)
        print("\n".join(lines))
        report[workload] = result if result is not None else {"correct": False}
        if code != 0:
            status = 1
            print(f"error: {workload} exited with status {code}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                       "workloads": report}, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return status


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--workloads", nargs="+", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the fleets' placement streams (every search "
                             "runs the trajectory of seed 0)")
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="measured time per run: searches repeat while another "
                             "repeat fits (twice at least); fleets time this long "
                             "a phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="with --workload and --trace 1: where to write the trace")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="with --workloads: write every result here as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for the harness tests")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, benchmark)
    return run_all(args, names if args.workloads == ["all"] else args.workloads)


if __name__ == "__main__":
    sys.exit(main())
