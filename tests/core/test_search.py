"""Tests for the placement search loop and predefined placements."""

import numpy as np
import pytest

from repro.core import (
    PlacementSearch,
    PostAgent,
    SearchConfig,
    human_expert_placement,
    single_gpu_placement,
)
from repro.core.search import SearchHistory
from repro.sim import PlacementEnvironment, Topology


@pytest.fixture
def env(layered_graph, topology):
    return PlacementEnvironment(layered_graph, topology, seed=0, setup_time=1.0)


@pytest.fixture
def agent(layered_graph, topology):
    return PostAgent(layered_graph, topology.num_devices, num_groups=6, seed=0)


class TestSearch:
    def test_respects_sample_budget(self, agent, env):
        cfg = SearchConfig(max_samples=25, minibatch_size=10)
        res = PlacementSearch(agent, env, "ppo", cfg).run()
        assert res.num_samples == 25
        assert len(res.history) == 25

    def test_respects_env_time_budget(self, agent, env):
        cfg = SearchConfig(max_samples=10_000, minibatch_size=5, max_env_time=30.0)
        res = PlacementSearch(agent, env, "ppo", cfg).run()
        assert res.num_samples < 10_000
        assert res.env_time >= 30.0

    def test_best_placement_is_best_seen(self, agent, env):
        cfg = SearchConfig(max_samples=20, minibatch_size=10)
        res = PlacementSearch(agent, env, "ppo", cfg).run()
        assert res.best_placement is not None
        valid_times = [t for t, v in zip(res.history.per_step_time, res.history.valid) if v]
        assert res.best_time == pytest.approx(min(valid_times))

    def test_best_so_far_monotone(self, agent, env):
        cfg = SearchConfig(max_samples=30, minibatch_size=10)
        res = PlacementSearch(agent, env, "ppo", cfg).run()
        best = np.array(res.history.best_so_far)
        assert np.all(np.diff(best) <= 1e-12)

    def test_final_evaluation_close_to_best(self, agent, env):
        cfg = SearchConfig(max_samples=20, minibatch_size=10)
        res = PlacementSearch(agent, env, "ppo", cfg).run()
        assert res.final_time == pytest.approx(res.best_time, rel=0.05)

    def test_all_algorithms_run(self, layered_graph, topology):
        for algo in ("reinforce", "ppo", "ppo_ce"):
            env = PlacementEnvironment(layered_graph, topology, seed=0)
            agent = PostAgent(layered_graph, topology.num_devices, num_groups=6, seed=0)
            res = PlacementSearch(agent, env, algo, SearchConfig(max_samples=20)).run()
            assert res.algorithm == algo
            assert np.isfinite(res.best_time)

    def test_adaptive_failure_time(self, agent, env):
        search = PlacementSearch(agent, env, "ppo", SearchConfig(max_samples=10))
        assert search._failure_time() == 60.0  # before any valid sample
        search._worst_valid = 3.0
        assert search._failure_time() == 6.0

    def test_explicit_failure_time(self, agent, env):
        cfg = SearchConfig(max_samples=10, failure_time=42.0)
        search = PlacementSearch(agent, env, "ppo", cfg)
        assert search._failure_time() == 42.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(max_samples=0)
        with pytest.raises(ValueError):
            SearchConfig(minibatch_size=0)


class TestSearchHistory:
    def test_time_to_best(self):
        h = SearchHistory()
        h.record(10.0, 5.0, 5.0, True)
        h.record(20.0, 2.0, 2.0, True)
        h.record(30.0, 3.0, 2.0, True)
        assert h.time_to_best() == 20.0

    def test_time_to_best_empty(self):
        assert np.isnan(SearchHistory().time_to_best())

    def test_time_to_best_all_invalid(self):
        # A run that never found a valid placement has no finite best:
        # there is no meaningful "time to best", so the metric is NaN.
        h = SearchHistory()
        h.record(1.0, float("inf"), float("inf"), False)
        h.record(2.0, float("inf"), float("inf"), False)
        assert np.isnan(h.time_to_best())

    def test_time_to_best_single_sample(self):
        h = SearchHistory()
        h.record(5.0, 1.0, 1.0, True)
        assert h.time_to_best() == 5.0

    def test_time_to_best_late_improvement_within_tolerance(self):
        # An early sample within tolerance of the final best wins.
        h = SearchHistory()
        h.record(10.0, 1.004, 1.004, True)
        h.record(20.0, 1.0, 1.0, True)
        assert h.time_to_best(tolerance=1.005) == 10.0
        assert h.time_to_best(tolerance=1.001) == 20.0

    def test_num_invalid(self):
        h = SearchHistory()
        h.record(1.0, float("inf"), float("inf"), False)
        h.record(2.0, 1.0, 1.0, True)
        assert h.num_invalid == 1


class TestPredefined:
    def test_single_gpu_all_on_one_device(self, layered_graph, topology):
        p = single_gpu_placement(layered_graph, topology)
        assert np.all(p == topology.gpu_indices()[0])

    def test_single_gpu_index_selectable(self, layered_graph, topology):
        p = single_gpu_placement(layered_graph, topology, gpu=1)
        assert np.all(p == topology.gpu_indices()[1])

    def test_single_gpu_requires_gpu(self, layered_graph):
        from repro.sim.devices import DeviceSpec, LinkSpec, Topology as T

        cpu_only = T(
            [DeviceSpec("/cpu:0", "cpu", 1 << 34, 100.0, 1e-5)],
            default_link=LinkSpec(1e9, 1e-5),
        )
        with pytest.raises(ValueError):
            single_gpu_placement(layered_graph, cpu_only)

    def test_gnmt_expert_structure(self):
        from repro.graph.models import build_benchmark

        g = build_benchmark("gnmt", seq_len=6, batch_size=8, hidden=32, vocab=200)
        topo = Topology.default_4gpu()
        p = human_expert_placement(g, topo)
        gpus = topo.gpu_indices()
        # layers round-robin over the GPUs
        assert p[g.node("encoder/l1/step0").op_id] == gpus[1]
        assert p[g.node("decoder/l2/step0").op_id] == gpus[2]
        # softmax head colocated with the last decoder layer's GPU
        assert p[g.node("head/projection").op_id] == gpus[3]
        # embeddings on the CPU
        assert p[g.node("encoder/embedding").op_id] == topo.cpu_indices()[0]

    def test_inception_expert_is_single_gpu(self):
        from repro.graph.models import build_benchmark

        g = build_benchmark("inception_v3", image_size=75)
        topo = Topology.default_4gpu()
        assert np.all(human_expert_placement(g, topo) == topo.gpu_indices()[0])

    def test_unknown_model_falls_back(self, layered_graph):
        topo = Topology.default_4gpu()
        p = human_expert_placement(layered_graph, topo)
        assert np.all(p == topo.gpu_indices()[0])
