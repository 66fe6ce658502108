"""Metric bookkeeping, the percentile rule and per-layer aggregation.

The metric names, units and directions live in ``BENCHMARK.json`` at the
root of the checkout; the workload modules measure, and this module turns
their measurements and spans into those metrics.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from tracing import self_times

#: Root of the checkout this benchmark lives in.
ROOT = Path(__file__).resolve().parents[2]


def load_benchmark(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, Any]:
    return json.loads(path.read_text())


def min_samples(p: float) -> int:
    """Fewest samples a latency percentile ``p`` may rest on: ten beyond it."""
    return math.ceil(10 / (1 - p / 100) - 1e-9)


def percentile(values: Sequence[float], p: float) -> Tuple[float, bool]:
    """The ``p``-th percentile (linear interpolation) and whether it is
    *qualified*: at least ten samples lie beyond it, so p95 needs 200.

    Failed operations are passed as ``math.inf``; they sort above every
    success, as a request that failed misses any latency limit.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        value = ordered[lo] if rank == lo else math.inf
    else:
        value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return value, len(ordered) >= min_samples(p)


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Iterable[float]) -> float:
    """Median, or 0 for no values (a layer the run never entered)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean_of_repeats(repeats: Iterable[Sequence[float]]) -> List[float]:
    """Element-wise mean of repeats of the same sequence of operations, over
    the length of the shortest repeat.

    The host's vCPUs run up to about twice as slow for stretches of seconds
    to minutes while neighbours load the machine.  The mean of an
    operation's repeats moves in proportion to the share of them such a
    stretch covers; their median or minimum jumps from the fast time to the
    slow one as that share crosses a threshold.
    """
    return [statistics.fmean(times) for times in zip(*repeats)]


# --------------------------------------------------------------------------- #
# Results


class Run:
    """What one workload run hands back to ``run.py``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        #: Prefixes of per-layer metrics whose layers this workload never
        #: calls; they read 0.
        self.not_entered: Tuple[str, ...] = ()
        #: Batches (minibatches or RPCs) the metrics rest on.
        self.batches = 0
        self.spans: List[Dict[str, Any]] = []
        self.process_names: Dict[int, str] = {}

    def check(self, ok: bool, message: str) -> None:
        """A correctness or population guard; a miss fails the run."""
        if not ok:
            self.failures.append(message)

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


def latency_metrics(run: Run, groups: Sequence[Sequence[float]]) -> None:
    """``batch_p50_ms``: the slowest group's median; ``batch_p90_ms``: the
    90th percentile of every batch pooled.

    A group is one population of batches, such as one tenant's RPCs.  Pooled,
    the median of two tenants of different sizes falls in the small one's
    upper quartile, where it swings more than either tenant's median.  The
    pooled p90 lies in the large tenant's body; that tenant's own p90 would
    rest on a dozen or so of its slowest RPCs.
    """
    pooled = [ms for group in groups for ms in group]
    run.metrics["batch_p50_ms"] = max(percentile(group, 50)[0] for group in groups)
    run.metrics["batch_p90_ms"] = percentile(pooled, 90)[0]
    smallest = min(len(group) for group in groups)
    for name, p, count in (("batch_p50_ms", 50, smallest), ("batch_p90_ms", 90, len(pooled))):
        if count < min_samples(p):
            print(f"note: {run.workload} {name} rests on {count} batches, "
                  f"fewer than the {min_samples(p)} the percentile rule asks for")
    run.batches = len(pooled)


def result_line(run: Run, trace: bool, benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """The last stdout line: ``correct``, ``attempted``, ``failed``, ``metrics``.

    It carries exactly the ``end_to_end`` metrics of ``BENCHMARK.json``, or
    under tracing exactly the ``per_layer`` ones; a declared metric the run
    did not measure, or a measured one not declared, fails the run.
    """
    specs = benchmark["per_layer" if trace else "end_to_end"]
    declared = {spec["name"] for spec in specs}
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name in run.metrics:
            value = run.metrics[name]
        elif name.startswith(run.not_entered):
            value = 0.0
        else:
            run.check(False, f"metric {name} was not measured")
            continue
        metrics[name] = {"value": float(value), "unit": spec["unit"]}
    for name in sorted(set(run.metrics) - declared):
        run.check(False, f"metric {name} is not declared in BENCHMARK.json")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


# --------------------------------------------------------------------------- #
# Per-layer aggregation over spans (times in nanoseconds)


def durations(spans: Iterable[Dict[str, Any]], name: str) -> List[int]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def in_window(spans: Iterable[Dict[str, Any]], start: int, end: int) -> List[Dict[str, Any]]:
    return [s for s in spans if s["start"] >= start and s["end"] <= end]


def per_root(spans: Sequence[Dict[str, Any]], root: str) -> List[Dict[str, Any]]:
    """For each span named ``root``: its duration, its self time, and per
    span name below it the summed duration and count of the outermost spans
    of that name."""
    children: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(span)
    selfs = self_times(spans)
    out = []
    for top in spans:
        if top["name"] != root:
            continue
        totals: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        stack = [(child, frozenset()) for child in children.get((top["pid"], top["id"]), ())]
        while stack:
            span, above = stack.pop()
            name = span["name"]
            if name not in above:
                totals[name] = totals.get(name, 0) + span["end"] - span["start"]
                calls[name] = calls.get(name, 0) + 1
            stack.extend((child, above | {name})
                         for child in children.get((span["pid"], span["id"]), ()))
        out.append({
            "duration": top["end"] - top["start"],
            "self": selfs[(top["pid"], top["id"])],
            "totals": totals,
            "calls": calls,
        })
    return out


def search_layers(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of a traced search's spans."""
    batches = per_root(spans, "core.minibatch")

    def per_batch_ms(name: str) -> float:
        return median(b["totals"].get(name, 0) for b in batches) / 1e6

    def calls_per_batch(name: str) -> float:
        return sum(b["calls"].get(name, 0) for b in batches) / max(len(batches), 1)

    def each_s(name: str) -> float:
        return median(durations(spans, name)) / 1e9

    return {
        "graph.build_s": each_s("graph.build"),
        "grouping.features_s": each_s("grouping.features"),
        "grouping.partition_s": each_s("grouping.partition"),
        "grouping.pretrain_s": each_s("grouping.pretrain"),
        "core.agent_init_s": each_s("core.agent_init"),
        "core.minibatch_ms": median(b["duration"] for b in batches) / 1e6,
        "core.phase_share": median(1 - b["self"] / b["duration"] for b in batches),
        "core.sample_ms": per_batch_ms("core.sample"),
        "rl.update_ms": per_batch_ms("rl.update"),
        "rl.forward_ms": per_batch_ms("rl.forward"),
        "rl.forward_calls": calls_per_batch("rl.forward"),
        "rl.advantage_ms": per_batch_ms("rl.advantage"),
        "nn.backward_ms": per_batch_ms("nn.backward"),
        "nn.optim_ms": per_batch_ms("nn.optim"),
        "sim.evaluate_ms": per_batch_ms("sim.evaluate"),
        "sim.simulate_calls": calls_per_batch("sim.simulate"),
        "sim.simulate_ms": median(durations(spans, "sim.simulate")) / 1e6,
    }


def server_requests(spans: Sequence[Dict[str, Any]], ops: int) -> List[int]:
    """Server handler time of each ``evaluate_batch`` request whose
    placements have ``ops`` entries, i.e. of one tenant.

    On a server connection thread a request runs from the ``read_message``
    that returned it to the last ``write_message`` before the thread reads
    again, so the public protocol functions bound it.
    """
    by_thread: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for span in spans:
        if span["name"] in ("service.protocol.read", "service.protocol.write"):
            by_thread.setdefault((span["pid"], span["tid"]), []).append(span)
    out = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s["start"])
        arrived: Optional[int] = None
        last_write: Optional[int] = None
        for span in thread_spans + [None]:
            if span is None or span["name"] == "service.protocol.read":
                if arrived is not None and last_write is not None:
                    out.append(last_write - arrived)
                arrived = last_write = None
                if (span is not None and span["args"].get("op") == "evaluate_batch"
                        and span["args"].get("ops") == ops):
                    arrived = span["end"]
            elif arrived is not None:
                last_write = span["end"]
    return out
