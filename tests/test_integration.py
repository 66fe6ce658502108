"""Integration tests: full pipelines across modules on scaled-down problems."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    EagleAgent,
    HierarchicalPlannerAgent,
    PlacementEnvironment,
    PlacementSearch,
    PostAgent,
    SearchConfig,
    human_expert_placement,
    single_gpu_placement,
)
from repro.graph.models import build_benchmark
from repro.sim import OutOfMemoryError, Topology


@pytest.fixture(scope="module")
def small_gnmt():
    return build_benchmark("gnmt", seq_len=8, batch_size=16, hidden=64, vocab=500, num_layers=2)


@pytest.fixture(scope="module")
def small_inception():
    return build_benchmark("inception_v3", image_size=99)


class TestEndToEndSearch:
    def test_eagle_full_pipeline(self, small_gnmt):
        env = PlacementEnvironment(small_gnmt, seed=0)
        agent = EagleAgent(
            small_gnmt, env.num_devices, num_groups=8, placer_hidden=16, seed=0
        )
        res = PlacementSearch(agent, env, "ppo", SearchConfig(max_samples=30)).run()
        assert np.isfinite(res.best_time)
        assert res.best_placement is not None
        # the returned placement reproduces the reported time
        check = env.final_evaluate(res.best_placement)
        assert check.valid
        assert check.per_step_time == pytest.approx(res.best_time, rel=0.05)

    def test_search_improves_over_early_samples(self, small_gnmt):
        env = PlacementEnvironment(small_gnmt, seed=1)
        agent = PostAgent(small_gnmt, env.num_devices, num_groups=8, seed=1)
        res = PlacementSearch(agent, env, "ppo_ce", SearchConfig(max_samples=120)).run()
        valid = [
            t for t, v in zip(res.history.per_step_time, res.history.valid) if v
        ]
        early = np.median(valid[:20])
        assert res.best_time < early, "search found nothing better than early median"

    def test_three_agents_comparable_interface(self, small_gnmt):
        env_args = dict(seed=0)
        results = {}
        for name, cls, algo in [
            ("eagle", EagleAgent, "ppo"),
            ("hp", HierarchicalPlannerAgent, "reinforce"),
        ]:
            env = PlacementEnvironment(small_gnmt, **env_args)
            agent = cls(small_gnmt, env.num_devices, num_groups=8, placer_hidden=16, seed=0)
            results[name] = PlacementSearch(agent, env, algo, SearchConfig(max_samples=20)).run()
        env = PlacementEnvironment(small_gnmt, **env_args)
        post = PostAgent(small_gnmt, env.num_devices, num_groups=8, seed=0)
        results["post"] = PlacementSearch(post, env, "ppo_ce", SearchConfig(max_samples=20)).run()
        assert all(np.isfinite(r.best_time) for r in results.values())

    def test_deterministic_given_seed(self, small_gnmt):
        def run():
            env = PlacementEnvironment(small_gnmt, seed=7)
            agent = PostAgent(small_gnmt, env.num_devices, num_groups=8, seed=7)
            return PlacementSearch(agent, env, "ppo", SearchConfig(max_samples=30)).run()

        a, b = run(), run()
        assert a.best_time == b.best_time
        assert np.array_equal(a.best_placement, b.best_placement)


class TestFusedPlacerGolden:
    """The fused seq2seq placer is results-neutral end to end: an EAGLE PPO
    search (grouper -> bridge -> attention-before placer, gradients flowing
    through all three) returns the same ``SearchResult`` and the same
    trained weights as one whose placer runs the per-step loop graph."""

    def _search(self, graph, fused):
        env = PlacementEnvironment(graph, seed=0)
        agent = EagleAgent(graph, env.num_devices, num_groups=8, placer_hidden=16, seed=0)
        for module in agent.placer.modules():
            if hasattr(module, "fused"):
                module.fused = fused
        result = PlacementSearch(agent, env, "ppo", SearchConfig(max_samples=30)).run()
        return result, agent

    def test_fused_and_loop_searches_are_equal(self, small_gnmt):
        fused, fused_agent = self._search(small_gnmt, True)
        loop, loop_agent = self._search(small_gnmt, False)
        assert replace(fused, best_placement=None) == replace(loop, best_placement=None)
        assert np.array_equal(fused.best_placement, loop.best_placement)
        for (name, a), b in zip(fused_agent.named_parameters(), loop_agent.parameters()):
            assert np.array_equal(a.data, b.data), name


class TestPaperScenarios:
    def test_inception_single_gpu_near_optimal(self, small_inception):
        """Scaled-down version of the paper's Inception finding: the single
        GPU placement is close to anything the RL agent discovers."""
        env = PlacementEnvironment(small_inception, seed=0)
        baseline = env.final_evaluate(single_gpu_placement(small_inception, env.topology))
        agent = PostAgent(small_inception, env.num_devices, num_groups=12, seed=0)
        res = PlacementSearch(agent, env, "ppo_ce", SearchConfig(max_samples=60)).run()
        assert res.best_time <= baseline.per_step_time * 1.15

    def test_full_gnmt_oom_pattern(self):
        """The real benchmark sizes reproduce Table IV's OOM column."""
        graph = build_benchmark("gnmt")
        topo = Topology.default_4gpu()
        env = PlacementEnvironment(graph, topo)
        with pytest.raises(OutOfMemoryError):
            env.simulator.simulate(single_gpu_placement(graph, topo))
        expert = env.final_evaluate(human_expert_placement(graph, topo))
        assert expert.valid

    def test_full_bert_oom_pattern(self):
        graph = build_benchmark("bert")
        topo = Topology.default_4gpu()
        env = PlacementEnvironment(graph, topo)
        with pytest.raises(OutOfMemoryError):
            env.simulator.simulate(single_gpu_placement(graph, topo))
        # expert falls back to single device => also OOM
        m = env.final_evaluate(human_expert_placement(graph, topo))
        assert not m.valid

    def test_state_dict_roundtrip_preserves_policy(self, small_gnmt):
        env = PlacementEnvironment(small_gnmt, seed=0)
        agent = EagleAgent(small_gnmt, env.num_devices, num_groups=8, placer_hidden=16, seed=0)
        state = agent.state_dict()
        p1 = agent.greedy_placement()
        fresh = EagleAgent(small_gnmt, env.num_devices, num_groups=8, placer_hidden=16, seed=0, warm_start=None)
        fresh.load_state_dict(state)
        p2 = fresh.greedy_placement()
        assert np.array_equal(p1, p2)


class TestPolicyTransfer:
    def test_state_dict_transfers_across_graphs(self):
        """Feature dims are graph-independent, so a policy trained on one
        model loads onto another with the same num_groups."""
        a = build_benchmark("gnmt", num_layers=2, seq_len=6, batch_size=8, hidden=32, vocab=200)
        b = build_benchmark("gnmt", num_layers=3, seq_len=8, batch_size=8, hidden=32, vocab=200)
        src = EagleAgent(a, 3, num_groups=8, placer_hidden=16, warm_start=None, seed=0)
        dst = EagleAgent(b, 3, num_groups=8, placer_hidden=16, warm_start=None, seed=1)
        dst.load_state_dict(src.state_dict())
        samples = dst.sample_placements(2)
        assert samples[0].op_placement.shape == (b.num_ops,)

    def test_transfer_across_model_families(self):
        inc = build_benchmark("inception_v3", image_size=75)
        nmt = build_benchmark("gnmt", num_layers=2, seq_len=6, batch_size=8, hidden=32, vocab=200)
        src = EagleAgent(inc, 3, num_groups=8, placer_hidden=16, warm_start=None, seed=0)
        dst = EagleAgent(nmt, 3, num_groups=8, placer_hidden=16, warm_start=None, seed=0)
        dst.load_state_dict(src.state_dict())
        env = PlacementEnvironment(nmt, Topology.default_4gpu(num_gpus=2))
        m = env.evaluate(dst.greedy_placement())
        assert m.valid or m.is_oom  # a well-formed placement either way
