"""Unit tests of the benchmark harness: percentiles, spans, guards, schema."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fleet
import search
from harness import (
    ROOT, Run, load_benchmark, min_samples, percentile, per_root, result_line,
    search_layers, server_requests,
)
from tracing import Probes, SpanRecorder, chrome_trace, self_times, traced

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(id, start, end, parent=None, name="x", tid=1, pid=1, **args):
    return {"id": id, "parent": parent, "name": name, "pid": pid, "tid": tid,
            "start": start, "end": end, "args": args}


# --------------------------------------------------------------------------- #
# The percentile rule


def test_a_percentile_needs_ten_samples_beyond_it():
    assert min_samples(95) == 200
    assert min_samples(50) == 20
    assert percentile(list(range(199)), 95)[1] is False
    assert percentile(list(range(200)), 95)[1] is True
    assert percentile(list(range(19)), 50)[1] is False
    assert percentile(list(range(20)), 50)[1] is True


def test_percentile_interpolates_like_numpy():
    values = list(np.random.default_rng(0).lognormal(size=321))
    for p in (50, 95):
        assert percentile(values, p)[0] == pytest.approx(np.percentile(values, p), rel=1e-12)


def test_failures_count_as_infinitely_slow():
    assert percentile([1.0] * 190 + [math.inf] * 10, 95)[0] == math.inf
    assert percentile([1.0] * 199 + [math.inf], 95)[0] == 1.0
    assert percentile([math.inf] * 30, 50)[0] == math.inf
    assert percentile([2.0, math.inf, 1.0], 50)[0] == 2.0


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


# --------------------------------------------------------------------------- #
# Spans


def test_self_time_subtracts_children_only():
    spans = [span(1, 0, 100), span(2, 10, 30, parent=1), span(3, 40, 60, parent=1),
             span(4, 15, 20, parent=2), span(1, 0, 7, pid=2)]
    assert self_times(spans) == {(1, 1): 60, (1, 2): 15, (1, 3): 20, (1, 4): 5, (2, 1): 7}


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, 0, 100), span(2, 10, 50, parent=1, tid=2), span(3, 30, 70, parent=1, tid=3)]
    assert self_times(spans)[(1, 1)] == 40


def test_search_layers_sum_phases_per_minibatch():
    mb = [span(1, 0, 1000, name="core.minibatch"),
          span(2, 0, 100, parent=1, name="core.sample"),
          span(3, 100, 400, parent=1, name="sim.evaluate"),
          span(4, 150, 250, parent=3, name="sim.simulate"),
          span(5, 400, 990, parent=1, name="rl.update"),
          span(6, 400, 500, parent=5, name="rl.forward"),
          span(7, 500, 700, parent=5, name="nn.backward"),
          span(8, 700, 720, parent=5, name="nn.optim"),
          span(9, 720, 800, parent=5, name="rl.forward")]
    layers = search_layers(mb)
    assert layers["core.minibatch_ms"] == 1000 / 1e6
    assert layers["core.phase_share"] == pytest.approx(0.99)
    assert layers["rl.forward_ms"] == 180 / 1e6
    assert layers["rl.forward_calls"] == 2
    assert layers["sim.simulate_calls"] == 1
    assert layers["grouping.pretrain_s"] == 0.0
    [batch] = per_root(mb, "core.minibatch")
    assert batch["self"] == 10
    assert sum(batch["totals"][n] for n in ("core.sample", "sim.evaluate", "rl.update")) == 990


def test_server_requests_run_from_request_read_to_last_reply():
    spans = [span(1, 0, 100, name="service.protocol.read", op="evaluate_batch", ops=7),
             span(2, 120, 150, name="service.protocol.write"),
             span(3, 260, 300, name="service.protocol.write"),
             span(4, 400, 900, name="service.protocol.read", op="evaluate_batch", ops=7),
             span(5, 950, 980, name="service.protocol.write"),
             span(6, 0, 5, name="service.protocol.read", tid=2, op="hello"),
             span(7, 5, 9, name="service.protocol.write", tid=2),
             span(8, 10, 20, name="service.protocol.read", tid=2, op="evaluate_batch", ops=3),
             span(9, 20, 60, name="service.protocol.write", tid=2)]
    assert sorted(server_requests(spans, ops=7)) == [80, 200]
    assert server_requests(spans, ops=3) == [40]


def test_a_subclass_calling_super_records_one_span():
    recorder = SpanRecorder("test")

    class Base:
        def work(self):
            return "done"

    class Child(Base):
        def work(self):
            return super().work()

    Base.work = traced(recorder, "work", Base.work)
    Child.work = traced(recorder, "work", Child.work)
    outer = traced(recorder, "outer", lambda: Child().work())
    assert outer() == "done"
    by_name = {s["name"]: s for s in recorder.dump()}
    assert len(recorder.spans) == 2
    assert by_name["work"]["parent"] == by_name["outer"]["id"]


def test_probes_wrap_and_restore_public_calls():
    from repro.graph.models import build_chain
    from repro.service.pool import WorkerPool
    from repro.sim import Topology
    from repro.sim.simulator import Simulator

    original = Simulator.__dict__["simulate"]
    recorder = SpanRecorder("test")
    probes = Probes(recorder)
    try:
        assert Simulator.__dict__["simulate"] is not original
        graph = build_chain(length=4)
        Simulator(graph, Topology.default_4gpu()).simulate(np.ones(graph.num_ops, dtype=np.int64))
        pool = WorkerPool(1)
        try:
            assert pool.submit(lambda: 7).result(timeout=10) == 7
        finally:
            pool.shutdown()
    finally:
        probes.remove()
    assert Simulator.__dict__["simulate"] is original
    names = [s["name"] for s in recorder.dump()]
    assert {"sim.simulate", "service.pool.queue_wait", "service.pool.task"} <= set(names)


def test_chrome_trace_carries_ids_parents_and_self_times():
    spans = [span(1, 0, 2000, name="core.minibatch"), span(2, 500, 1500, parent=1, name="rl.update")]
    trace = json.loads(json.dumps(chrome_trace(spans, {1: "benchmark"})))
    meta, outer, inner = trace["traceEvents"]
    assert meta["ph"] == "M" and meta["args"]["name"] == "benchmark"
    assert (outer["name"], outer["ts"], outer["dur"]) == ("core.minibatch", 0.0, 2.0)
    assert outer["args"]["self_us"] == 1.0
    assert inner["args"]["parent"] == outer["args"]["id"] == "1:1"


# --------------------------------------------------------------------------- #
# Guards, each tripped by doctored input


def _result(times=(3.0, 2.0), samples=2):
    from repro.core.engine import SearchHistory, SearchResult

    history = SearchHistory()
    best = math.inf
    for t in times:
        best = min(best, t)
        history.record(5.0, t, best, True)
    return SearchResult(np.zeros(4, dtype=np.int64), best, best, history, samples, 0, 10.0, "ppo")


def test_repeats_must_return_the_same_result():
    run = Run("w")
    search.check_same_results(run, [_result(), _result()])
    assert run.correct
    search.check_same_results(run, [_result(), _result(times=(3.0, 2.0000001))])
    assert not run.correct


def test_result_must_spend_its_budget_and_match_a_fresh_simulation():
    run = Run("w")
    search.check_result(run, _result(), samples=2, makespan=2.001)
    assert run.correct
    search.check_result(run, _result(), samples=3, makespan=2.0)
    assert len(run.failures) == 1
    search.check_result(run, _result(), samples=2, makespan=2.1)
    assert len(run.failures) == 2


def test_best_placement_must_not_be_worse_than_at_the_seed_commit():
    run = Run("w")
    search.check_quality(run, final_time=2.0, recorded=2.0)
    search.check_quality(run, final_time=2.0199, recorded=2.0)
    search.check_quality(run, final_time=1.5, recorded=2.0)
    assert run.correct
    search.check_quality(run, final_time=2.0201, recorded=2.0)
    assert not run.correct


def test_phase_spans_must_cover_the_minibatch():
    run = Run("w")
    search.check_phase_share(run, 0.99)
    assert run.correct
    search.check_phase_share(run, 0.94)
    assert not run.correct


def test_fleet_timed_phase_must_be_one_memo_population():
    before = {"memo_hits": 5.0, "memo_misses": 10.0, "simulations": 10.0}
    misses_only = {"memo_hits": 5.0, "memo_misses": 30.0, "simulations": 30.0}
    one_hit = {"memo_hits": 6.0, "memo_misses": 30.0, "simulations": 30.0}
    hits_only = {"memo_hits": 25.0, "memo_misses": 10.0, "simulations": 10.0}
    run = Run("w")
    fleet.check_memo_hit_ratio(run, fleet.memo_hit_ratio(before, misses_only), 0.0)
    fleet.check_memo_hit_ratio(run, fleet.memo_hit_ratio(before, hits_only), 1.0)
    assert run.correct
    fleet.check_memo_hit_ratio(run, fleet.memo_hit_ratio(before, one_hit), 0.0)
    assert len(run.failures) == 1
    fleet.check_memo_hit_ratio(run, fleet.memo_hit_ratio(one_hit, {**one_hit, "memo_hits": 9.0,
                                                                   "memo_misses": 31.0}), 1.0)
    assert len(run.failures) == 2


def test_fleet_answers_and_simulations_are_checked():
    run = Run("w")
    fleet.check_answers(run, "gnmt", [1.0, math.inf], [1.0, math.inf])
    fleet.check_duplicates(run, 20.0, 20)
    assert run.correct
    fleet.check_answers(run, "gnmt", [1.0, 2.0], [1.0, 2.5])
    fleet.check_duplicates(run, 21.0, 20)
    assert len(run.failures) == 2


def test_result_line_carries_exactly_the_declared_metrics():
    benchmark = load_benchmark()
    run = Run("w")
    run.metrics = {m["name"]: 1.0 for m in benchmark["end_to_end"]}
    line = result_line(run, False, benchmark)
    assert line["correct"] and set(line["metrics"]) == set(run.metrics)
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())

    del run.metrics["setup_s"]
    assert not result_line(run, False, benchmark)["correct"]

    run = Run("w")
    run.metrics = {m["name"]: 1.0 for m in benchmark["end_to_end"]}
    run.metrics["made_up_ms"] = 1.0
    assert not result_line(run, False, benchmark)["correct"]

    run = Run("w")
    run.metrics = {m["name"]: 1.0 for m in benchmark["per_layer"]
                   if not m["name"].startswith("service.")}
    run.not_entered = ("service.",)
    line = result_line(run, True, benchmark)
    assert line["correct"]
    assert line["metrics"]["service.router.hop_ms"]["value"] == 0.0


# --------------------------------------------------------------------------- #
# BENCHMARK.json


def test_benchmark_json_follows_the_schema():
    benchmark = load_benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["command"] == ["python3", "benchmarks/perf/run.py"]
    assert benchmark["paths"] == ["benchmarks/perf"]
    assert (ROOT / benchmark["paths"][0]).is_dir()
    assert isinstance(benchmark["run_seconds"], int) and 1 <= benchmark["run_seconds"] <= 60
    assert 2 <= len(benchmark["workloads"]) <= 8
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in benchmark[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fleet-miss", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


# --------------------------------------------------------------------------- #
# Every workload end to end (--smoke)


def _run(workload: str, trace: int, tmp_path: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/perf/run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace), "--smoke",
         "--trace-out", str(tmp_path / f"{workload}.json")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.smoke
def test_every_declared_metric_is_measured_by_some_workload(tmp_path):
    benchmark = load_benchmark()
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    measured = set()
    for workload in [w["name"] for w in benchmark["workloads"]]:
        # The eagle search's untraced path is the post search's.
        if workload != "search-eagle-gnmt":
            line = _run(workload, 0, tmp_path)
            assert line["correct"] and set(line["metrics"]) == end_to_end
            assert all(m["value"] > 0 for m in line["metrics"].values())
        line = _run(workload, 1, tmp_path)
        assert line["correct"] and set(line["metrics"]) == set(per_layer)
        measured |= {name for name, m in line["metrics"].items() if m["value"] != 0}
        trace = json.loads((tmp_path / f"{workload}.json").read_text())
        assert any(event["ph"] == "X" for event in trace["traceEvents"])
    timings = {name for name, unit in per_layer.items() if unit in ("s", "ms", "us")}
    assert timings <= measured
