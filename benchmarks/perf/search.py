"""The search workloads: one ``repro place``-style search on GNMT, repeated.

Each repeat builds what ``cmd_place`` builds (graph, 4-GPU environment,
agent, default in-process backend, ``SearchConfig``) and runs the search to
a fixed sample budget.  Repeats continue while another one fits in
``--seconds``, two at least.  Every repeat must return the same
``SearchResult``, so the k-th minibatches of all repeats are the same work,
and a minibatch's time is the mean of its repeats (``harness.mean_of_repeats``).
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from repro.bench.experiments import make_agent
from repro.core import PlacementSearch, SearchCallback, SearchConfig
from repro.graph.models import build_benchmark
from repro.sim import PlacementEnvironment, Topology, make_backend
from repro.sim.simulator import Simulator

from harness import Run, latency_metrics, mean_of_repeats, median, peak_rss_mb, search_layers
from tracing import Probes, SpanRecorder

#: Workload → agent kind, algorithm, sample budget (``--smoke``: 10) and
#: ``SearchResult.final_time`` at the seed commit, in seconds.
SEARCHES: Dict[str, Dict] = {
    "search-eagle-gnmt": {"agent": "eagle", "algorithm": "ppo", "samples": 40,
                          "final_time": 2.4083675048809754},
    "search-post-gnmt": {"agent": "post", "algorithm": "ppo_ce", "samples": 3000,
                         "final_time": 2.6503358893535847},
}

#: Agent and environment seed of every search.  A search's cost depends on
#: its trajectory: over seeds 0-9, Post's 3000 samples take 400 to 1000
#: simulations, so a run-dependent seed would swamp any real change.
SEARCH_SEED = 0

#: Fewest repeats per run.  Eagle's repeat takes 10-14 s, so a third one
#: would push its runs well past ``--seconds``.
MIN_REPEATS = 2

#: Share by which the best placement found may be slower than at the seed
#: commit: a faster search must not buy its speed with a worse placement.
QUALITY_BOUND = 0.01


class MinibatchTimer(SearchCallback):
    """Times each minibatch from ``on_batch_start`` to ``on_update``; under
    tracing the same interval is the ``core.minibatch`` span."""

    def __init__(self, recorder: Optional[SpanRecorder]) -> None:
        self.recorder = recorder
        self.latencies_ms: List[float] = []
        self._began = 0.0
        self._span = None

    def on_batch_start(self, engine, batch_index: int, batch_size: int) -> None:
        if self.recorder is not None:
            self._span = self.recorder.begin("core.minibatch")
        self._began = time.perf_counter()

    def on_update(self, engine, stats) -> None:
        self.latencies_ms.append((time.perf_counter() - self._began) * 1e3)
        if self.recorder is not None:
            self.recorder.end(self._span)


def _search(spec: Dict, samples: int, seed: int, recorder: Optional[SpanRecorder]) -> Dict:
    def span(name: str):
        return recorder.span(name) if recorder is not None else nullcontext()

    began = time.perf_counter()
    with span("graph.build"):
        graph = build_benchmark("gnmt")
    topology = Topology.default_4gpu(num_gpus=4, gpu_memory_bytes=int(9.5 * 2**30))
    env = PlacementEnvironment(graph, topology, seed=seed)
    with span("core.agent_init"):
        agent = make_agent(spec["agent"], graph, env.num_devices, num_groups=64,
                           placer_hidden=128, seed=seed, topology=topology)
    backend = make_backend(env, seed=seed)
    config = SearchConfig(max_samples=samples, entropy_coef=0.1, entropy_coef_final=0.01)
    search = PlacementSearch(agent, env, spec["algorithm"], config, backend=backend)
    setup_s = time.perf_counter() - began

    timer = MinibatchTimer(recorder)
    began = time.perf_counter()
    result = search.run(callbacks=[timer])
    run_s = time.perf_counter() - began
    backend.close()
    return {
        "graph": graph,
        "topology": topology,
        "result": result,
        "setup_s": setup_s,
        "run_s": run_s,
        "latencies_ms": timer.latencies_ms,
        "memo_hit_ratio": backend.stats()["hit_rate"],
        "invalid_ratio": env.num_oom / max(env.num_evaluations, 1),
    }


def _result_key(result) -> tuple:
    """The parts of a ``SearchResult`` two same-seed runs must share."""
    h = result.history
    return (
        result.best_time, result.final_time, result.num_samples, result.num_invalid,
        result.env_time, tuple(h.env_time), tuple(h.per_step_time),
        tuple(h.best_so_far), tuple(h.valid),
        None if result.best_placement is None else result.best_placement.tobytes(),
    )


def check_result(run: Run, result, samples: int, makespan: float) -> None:
    """The search spent its budget and reports its best placement's time;
    ``makespan`` is that placement simulated afresh."""
    run.check(result.num_samples == samples,
              f"search measured {result.num_samples} samples, budget {samples}")
    # final_time is the best placement run 1000 steps with 1% lognormal
    # step noise, so it sits within a fraction of a percent of the makespan.
    run.check(math.isfinite(result.final_time) and abs(result.final_time / makespan - 1) < 0.01,
              f"final time {result.final_time} disagrees with a fresh simulation {makespan}")


def check_quality(run: Run, final_time: float, recorded: float) -> None:
    """The search's best placement is at most ``QUALITY_BOUND`` slower than
    at the seed commit."""
    run.check(final_time <= recorded * (1 + QUALITY_BOUND),
              f"final time {final_time} is more than {QUALITY_BOUND:.0%} worse than "
              f"the seed commit's {recorded}")


def check_same_results(run: Run, results: List) -> None:
    """Every repeat, traced or not, returns the first repeat's result."""
    first = _result_key(results[0])
    for i, result in enumerate(results[1:], start=2):
        run.check(_result_key(result) == first,
                  f"repeat {i} returned a different SearchResult than repeat 1")


def check_phase_share(run: Run, share: float) -> None:
    run.check(share >= 0.95,
              f"phase spans cover {share:.1%} of a minibatch; the rest is unattributed")


def run_search(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Run:
    """``seed`` is unused: every search runs the trajectory of ``SEARCH_SEED``."""
    spec = SEARCHES[workload]
    samples = 10 if smoke else spec["samples"]
    run = Run(workload)
    recorder = SpanRecorder("search") if trace else None
    outcomes: List[Dict] = []
    began = time.perf_counter()
    longest = 0.0  # the longest repeat so far, to stop before overrunning ``seconds``
    while len(outcomes) < MIN_REPEATS or time.perf_counter() - began + longest <= seconds:
        started = time.perf_counter()
        # Under tracing the first repeat stays untraced: it is the
        # reference the tracing overhead is measured against.
        traced = recorder is not None and len(outcomes) > 0
        probes = Probes(recorder) if traced else None
        run.attempted += 1
        try:
            outcome = _search(spec, samples, SEARCH_SEED, recorder if traced else None)
        except Exception as exc:
            run.failed += 1
            run.failures.append(f"search raised {type(exc).__name__}: {exc}")
            break
        finally:
            if probes is not None:
                probes.remove()
        result = outcome["result"]
        if result.best_placement is None:
            run.check(False, "search found no valid placement")
        else:
            check_result(run, result, samples, Simulator(
                outcome["graph"], outcome["topology"]).simulate(result.best_placement).makespan)
        outcomes.append(outcome)
        longest = max(longest, time.perf_counter() - started)
    if not outcomes:
        return run
    check_same_results(run, [o["result"] for o in outcomes])
    if not smoke:
        check_quality(run, outcomes[0]["result"].final_time, spec["final_time"])

    if not trace:
        minibatch_ms = mean_of_repeats(o["latencies_ms"] for o in outcomes)
        run.metrics["setup_s"] = median(o["setup_s"] for o in outcomes)
        run.metrics["placements_per_s"] = samples / (sum(minibatch_ms) / 1e3)
        latency_metrics(run, [minibatch_ms])
        run.metrics["peak_rss_mb"] = peak_rss_mb()
        return run

    spans = recorder.dump()
    run.spans = spans
    run.process_names = {recorder.pid: "benchmark (search)"}
    run.metrics.update(search_layers(spans))
    last = outcomes[-1]
    run.metrics["core.best_step_ms"] = last["result"].final_time * 1e3
    run.metrics["sim.memo_hit_ratio"] = last["memo_hit_ratio"]
    run.metrics["sim.invalid_ratio"] = last["invalid_ratio"]
    run.metrics["trace.overhead_ratio"] = (
        median(o["run_s"] for o in outcomes[1:]) / outcomes[0]["run_s"])
    check_phase_share(run, run.metrics["core.phase_share"])
    run.not_entered = ("service.",)
    run.batches = sum(len(o["latencies_ms"]) for o in outcomes[1:])
    return run
