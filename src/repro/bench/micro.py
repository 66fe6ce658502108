"""Microbenchmark lane: the repo's hot paths, measured every PR.

``repro bench-micro`` times the throughput surfaces the batch sweep and
fused decode (DESIGN.md §11) are accountable for, plus agent set-up, and
publishes them as a versioned ``BENCH_micro.json``:

* ``sim.*`` — placements/sec through the scalar :class:`Simulator` loop
  versus one :class:`BatchSimulator` sweep of
  :data:`~repro.sim.batch.SWEEP_MIN_LANES` placements, per model family,
  plus the derived ``sim.speedup.*`` ratios the acceptance gate reads: at
  the lane count where the sweep takes over, it must not lose to the
  scalar loop on any graph.  Each ratio is the median over
  ``5 * repeats`` interleaved rounds of that round's serial time over its
  sweep time.
* ``policy.updates_per_sec`` — steady-state engine minibatch updates
  (sample → evaluate → advantage → backprop) per second: the agent is built
  outside the timed region, so the lane times ``PlacementSearch.run()``
  alone.  Its minibatches of 10 are below
  :data:`~repro.sim.batch.SWEEP_MIN_LANES`, so they run the scalar loop.
* ``service.placements_per_sec`` — round-trip RPS through a local
  :class:`~repro.service.server.MeasurementServer`; a batch of
  :data:`~repro.sim.batch.SWEEP_MIN_LANES` fresh placements is one
  pool-side sweep.
* ``setup.pretrain_ms`` — one grouper warm-start
  (:func:`~repro.grouping.pretrain.pretrain_grouper`, 600 steps) on GNMT at
  64 groups, the largest share of an EAGLE agent's set-up; the op features
  and the METIS target are built outside the timed region.

Metrics are *higher-is-better* except latencies, named ``*_ms``, which are
lower-is-better.  The regression gate is one ratio rule in both
directions: a run fails against a committed baseline when any shared
metric is worse than the baseline by more than a factor
``1 / (1 - tolerance)`` — a throughput below ``baseline * (1 - tolerance)``
or a latency above ``baseline / (1 - tolerance)``.  The report's JSON is
written with sorted keys and a fixed ``format_version`` so diffs between
PRs are meaningful line-by-line; wall-clock timing is inherently machine-
dependent, so the gate ships a generous default tolerance and CI treats
the JSON artifact — not the absolute numbers — as the tracked trajectory.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..sim.batch import SWEEP_MIN_LANES

__all__ = [
    "FORMAT",
    "FORMAT_VERSION",
    "BENCH_MODELS",
    "run_micro_bench",
    "write_report",
    "load_report",
    "check_report",
]

FORMAT = "repro.bench.micro"
FORMAT_VERSION = 1

#: Model families timed by the ``sim.*`` metrics.
BENCH_MODELS = ("inception_v3", "gnmt", "bert")

#: The acceptance-gate metrics: sweep over scalar loop at
#: ``SWEEP_MIN_LANES`` placements, one per graph.
SPEEDUP_GATE_METRICS = tuple(f"sim.speedup.{model}" for model in BENCH_MODELS)

#: Interleaved serial/sweep rounds per ``repeats`` behind each gate ratio.
SPEEDUP_ROUNDS_PER_REPEAT = 5


def _lower_is_better(name: str) -> bool:
    """Latency lanes (``*_ms``) improve downwards; every other lane upwards."""
    return name.endswith("_ms")


def _best_time(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-N wall-clock seconds for one call of ``fn`` (min jitter)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _random_placements(rng: np.random.Generator, num_ops: int, devices: int, k: int):
    return [rng.integers(0, devices, size=num_ops) for _ in range(k)]


def _bench_simulators(repeats: int, seed: int) -> Dict[str, float]:
    from ..graph.models import build_benchmark
    from ..sim import BatchSimulator, Simulator, Topology

    batch = SWEEP_MIN_LANES
    metrics: Dict[str, float] = {}
    topo = Topology.default_4gpu()
    for model in BENCH_MODELS:
        graph = build_benchmark(model)
        sim = Simulator(graph, topo)
        batch_sim = BatchSimulator(sim)
        rng = np.random.default_rng(seed)
        placements = _random_placements(rng, graph.num_ops, topo.num_devices, batch)

        def serial():
            for p in placements:
                sim.simulate(p)

        def sweep():
            batch_sim.simulate_batch(placements)

        # Interleaved rounds: a burst of host contention then slows both
        # sides of a round's ratio, not only one side's repeats.  The gate
        # reads the median of the per-round ratios, which one noisy round
        # cannot move; the throughput lanes keep the best round of each side.
        serial_times, sweep_times = [], []
        for _ in range(SPEEDUP_ROUNDS_PER_REPEAT * repeats):
            serial_times.append(_best_time(serial, 1))
            sweep_times.append(_best_time(sweep, 1))
        ratios = [s / w for s, w in zip(serial_times, sweep_times)]
        metrics[f"sim.serial.{model}.placements_per_sec"] = batch / min(serial_times)
        metrics[f"sim.batch{batch}.{model}.placements_per_sec"] = batch / min(sweep_times)
        metrics[f"sim.speedup.{model}"] = float(np.median(ratios))
    return metrics


def _bench_policy_updates(repeats: int, seed: int) -> Dict[str, float]:
    from ..core import PlacementSearch, SearchConfig
    from ..graph.models import build_benchmark
    from ..sim import PlacementEnvironment, Topology, make_backend
    from .experiments import make_agent

    graph = build_benchmark("inception_v3")
    topo = Topology.default_4gpu()
    config = SearchConfig(minibatch_size=10, max_samples=40)
    updates = config.max_samples // config.minibatch_size

    best = float("inf")
    for _ in range(repeats):
        # Setup (grouper pretraining, parameter init) stays outside the
        # timed region: the lane measures steady-state updates only.
        env = PlacementEnvironment(graph, topo, seed=seed)
        agent = make_agent(
            "eagle", graph, env.num_devices,
            num_groups=32, placer_hidden=64, seed=seed, topology=topo,
        )
        backend = make_backend(env)
        search = PlacementSearch(agent, env, "ppo", config, backend=backend)
        try:
            start = time.perf_counter()
            search.run()
            best = min(best, time.perf_counter() - start)
        finally:
            backend.close()
    return {"policy.updates_per_sec": updates / best}


def _bench_service(batch: int, repeats: int, seed: int) -> Dict[str, float]:
    from ..graph.models import build_benchmark
    from ..service.client import RemoteBackend
    from ..service.server import MeasurementServer
    from ..sim import PlacementEnvironment, Topology

    graph = build_benchmark("inception_v3")
    topo = Topology.default_4gpu()
    server = MeasurementServer(
        PlacementEnvironment(graph, topo, seed=seed), workers=2
    ).start()
    try:
        client_env = PlacementEnvironment(graph, topo, seed=seed)
        backend = RemoteBackend(client_env, address=server.address)
        try:
            rng = np.random.default_rng(seed)
            best = float("inf")
            for _ in range(repeats):
                # Fresh placements each repeat: cache hits would time the
                # memo table, not the service round-trip.
                placements = _random_placements(
                    rng, graph.num_ops, topo.num_devices, batch
                )
                start = time.perf_counter()
                backend.evaluate_batch(placements)
                best = min(best, time.perf_counter() - start)
        finally:
            backend.close()
    finally:
        server.close()
    return {"service.placements_per_sec": batch / best}


def _bench_setup(repeats: int, seed: int) -> Dict[str, float]:
    from ..graph.models import build_benchmark
    from ..grouping import FeedForwardGrouper, OpFeatureExtractor
    from ..grouping.pretrain import pretrain_grouper, warm_start_assignment

    graph = build_benchmark("gnmt")
    features = OpFeatureExtractor(graph).features
    target = warm_start_assignment(graph, 64, seed=seed)

    def pretrain():
        grouper = FeedForwardGrouper(
            features.shape[1], 64, rng=np.random.default_rng(seed)
        )
        pretrain_grouper(grouper, features, target)

    return {"setup.pretrain_ms": _best_time(pretrain, repeats) * 1e3}


def run_micro_bench(
    *, batch: Optional[int] = None, repeats: int = 3, seed: int = 0
) -> Dict[str, Any]:
    """Time every lane and assemble the versioned report dict.

    ``batch`` sizes the service lane, by default
    :data:`~repro.sim.batch.SWEEP_MIN_LANES` so the server sweeps it; the
    ``sim.*`` lanes always time ``SWEEP_MIN_LANES`` placements.
    """
    if batch is None:
        batch = SWEEP_MIN_LANES
    metrics: Dict[str, float] = {}
    metrics.update(_bench_simulators(repeats, seed))
    metrics.update(_bench_policy_updates(repeats, seed))
    metrics.update(_bench_service(batch, repeats, seed))
    metrics.update(_bench_setup(repeats, seed))
    summary = [
        f"{name}: {value:,.1f}"
        for name, value in sorted(metrics.items())
    ]
    return {
        "format": FORMAT,
        "format_version": FORMAT_VERSION,
        "config": {"batch": batch, "repeats": repeats, "seed": seed},
        "metrics": {name: float(value) for name, value in metrics.items()},
        "summary": summary,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Serialise with sorted keys so PR-to-PR diffs are line-meaningful."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("format") != FORMAT:
        raise ValueError(f"{path!r} is not a {FORMAT} report")
    if report.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{path!r} has format_version {report.get('format_version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    return report


def check_report(
    report: Dict[str, Any],
    *,
    baseline_path: Optional[str] = None,
    tolerance: float = 0.5,
    min_speedup: Optional[float] = None,
) -> List[str]:
    """Gate checks; returns human-readable failures (empty = pass).

    A metric fails when it is worse than the baseline by more than a
    factor ``1 / (1 - tolerance)`` in its own direction (see
    :func:`_lower_is_better`); metrics present on only one side (added or
    retired lanes) are skipped rather than failed, letting the schema
    evolve without breaking the gate.
    """
    failures: List[str] = []
    metrics = report["metrics"]
    if min_speedup is not None:
        for name in SPEEDUP_GATE_METRICS:
            speedup = metrics.get(name)
            if speedup is None:
                failures.append(f"report lacks the {name} metric")
            elif speedup < min_speedup:
                failures.append(
                    f"{name} = {speedup:.2f}x is below the "
                    f"required {min_speedup:.2f}x"
                )
    if baseline_path is not None:
        baseline = load_report(baseline_path)["metrics"]
        keep = 1.0 - tolerance  # the share of baseline performance to keep
        for name in sorted(set(metrics) & set(baseline)):
            if _lower_is_better(name):
                bound = baseline[name] / keep if keep > 0 else float("inf")
                regressed, op = metrics[name] > bound, ">"
            else:
                bound = baseline[name] * keep
                regressed, op = metrics[name] < bound, "<"
            if regressed:
                failures.append(
                    f"{name} regressed: {metrics[name]:,.1f} {op} "
                    f"{bound:,.1f} (baseline {baseline[name]:,.1f}, "
                    f"{tolerance:.0%} tolerance)"
                )
    return failures
