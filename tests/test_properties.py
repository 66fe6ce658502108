"""Property-based tests (hypothesis) on the core data structures and
invariants: graph topology, simulator physics, partitioners, autograd,
and the fault-injection / retry-policy machinery."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.graph import OpGraph
from repro.graph.models import build_random_layered
from repro.graph.training import expand_training_graph
from repro.grouping import cut_cost, partition_kway
from repro.grouping.fluid import asyn_fluidc_assignment
from repro.nn import Tensor
from repro.rl import EMABaseline, reward_from_time
from repro.sim import (
    BatchSimulator,
    FaultPlan,
    MemoBackend,
    OutOfMemoryError,
    SerialBackend,
    Simulator,
    Topology,
)
from repro.sim.batch import SWEEP_MIN_LANES

from .reference import PerPlacementBackend, SideSpy

SETTINGS = dict(max_examples=25, deadline=None)

graph_strategy = st.builds(
    build_random_layered,
    num_layers=st.integers(2, 6),
    width=st.integers(2, 6),
    edge_prob=st.floats(0.2, 0.8),
    seed=st.integers(0, 10_000),
)


class TestGraphProperties:
    @given(graph=graph_strategy)
    @settings(**SETTINGS)
    def test_topological_order_is_permutation_respecting_edges(self, graph):
        order = graph.topological_order()
        assert sorted(order) == list(range(graph.num_ops))
        pos = {v: i for i, v in enumerate(order)}
        for s, d in graph.edges():
            assert pos[s] < pos[d]

    @given(graph=graph_strategy)
    @settings(**SETTINGS)
    def test_training_expansion_preserves_acyclicity(self, graph):
        expand_training_graph(graph).validate()

    @given(graph=graph_strategy)
    @settings(**SETTINGS)
    def test_coarsen_conserves_totals(self, graph):
        rng = np.random.default_rng(0)
        k = 4
        assignment = rng.integers(0, k, size=graph.num_ops)
        gg = graph.coarsen(assignment, num_groups=k)
        assert gg.group_flops.sum() == pytest.approx(graph.total_flops())
        assert int(gg.group_sizes.sum()) == graph.num_ops


class TestPartitionProperties:
    @given(graph=graph_strategy, k=st.integers(2, 8), seed=st.integers(0, 100))
    @settings(**SETTINGS)
    def test_partition_is_total_and_in_range(self, graph, k, seed):
        a = partition_kway(graph, k, seed=seed)
        assert a.shape == (graph.num_ops,)
        assert a.min() >= 0 and a.max() < k

    @given(graph=graph_strategy, k=st.integers(2, 6))
    @settings(**SETTINGS)
    def test_metis_cut_not_worse_than_random_mean(self, graph, k):
        # On tiny graphs a random assignment can degenerate to a single
        # group (cut 0) while a k-way partition must use k groups — only
        # compare when the graph comfortably exceeds k groups.  The random
        # baseline must be *balanced* like the partitioner's output: on small
        # dense graphs an unconstrained random assignment can luck into a
        # lopsided split whose cut no balance-respecting partition can match.
        assume(graph.num_ops >= 4 * k)
        metis = cut_cost(graph, partition_kway(graph, k))
        rng = np.random.default_rng(0)

        def balanced_random_cut() -> float:
            assignment = np.empty(graph.num_ops, dtype=np.int64)
            for group, chunk in enumerate(np.array_split(rng.permutation(graph.num_ops), k)):
                assignment[chunk] = group
            return cut_cost(graph, assignment)

        random_cuts = [balanced_random_cut() for _ in range(5)]
        assert metis <= np.mean(random_cuts) * 1.05

    @given(graph=graph_strategy, k=st.integers(2, 6), seed=st.integers(0, 50))
    @settings(**SETTINGS)
    def test_fluid_is_total_and_in_range(self, graph, k, seed):
        a = asyn_fluidc_assignment(graph, k, seed=seed, use_networkx=False)
        assert a.shape == (graph.num_ops,)
        assert a.min() >= 0


class TestSimulatorProperties:
    @given(graph=graph_strategy, seed=st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_makespan_bounds(self, graph, seed):
        """Any valid placement's makespan lies between the critical-path
        lower bound and the total serial work on the slowest device."""
        topo = Topology.default_4gpu(num_gpus=2)
        sim = Simulator(graph, topo)
        rng = np.random.default_rng(seed)
        p = rng.integers(0, topo.num_devices, size=graph.num_ops)
        try:
            bd = sim.simulate(p)
        except OutOfMemoryError:
            assume(False)
        assert bd.makespan >= sim.lower_bound() * 0.999
        assert bd.makespan >= bd.device_busy.max() * 0.999

    @given(graph=graph_strategy, seed=st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_memory_accounting_conserved(self, graph, seed):
        """Total resident bytes are placement-invariant (just redistributed)."""
        topo = Topology.default_4gpu(num_gpus=2)
        sim = Simulator(graph, topo)
        rng = np.random.default_rng(seed)
        p1 = rng.integers(0, topo.num_devices, size=graph.num_ops)
        p2 = rng.integers(0, topo.num_devices, size=graph.num_ops)
        assert sim.memory_usage(p1).sum() == pytest.approx(sim.memory_usage(p2).sum())

    @given(graph=graph_strategy)
    @settings(**SETTINGS)
    def test_single_device_has_no_cross_traffic(self, graph):
        """All ops on the CPU (the only device every op can run on) must
        incur zero communication."""
        topo = Topology.default_4gpu(num_gpus=2)
        sim = Simulator(graph, topo)
        bd = sim.simulate(np.zeros(graph.num_ops, dtype=np.int64))
        assert bd.comm_bytes == 0.0


@st.composite
def colocated_graph_strategy(draw):
    """A chain whose ops fall into random colocation groups, some cpu-only,
    so leaders and members disagree about the CPU in every mix."""
    n = draw(st.integers(1, 12))
    groups = draw(st.lists(st.sampled_from([None, "a", "b", "c"]), min_size=n, max_size=n))
    cpu_only = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    graph = OpGraph("colocated")
    for i in range(n):
        graph.add_op(f"op{i}", "MatMul", (4,), flops=1e3, cpu_only=cpu_only[i],
                     colocation_group=groups[i], inputs=[f"op{i - 1}"] if i else ())
    return graph


class TestNormalizationProperties:
    @given(graph=colocated_graph_strategy(), seed=st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_normalize_is_a_fixed_point(self, graph, seed):
        sim = Simulator(graph, Topology.default_4gpu(num_gpus=3))
        p = np.random.default_rng(seed).integers(0, sim.num_devices, size=graph.num_ops)
        once = sim.normalize_placement(p)
        assert np.array_equal(sim.normalize_placement(once), once)
        assert np.array_equal(BatchSimulator(sim).normalize_batch([p])[0], once)
        # Cpu-only ops run on the CPU; every other member runs with its leader.
        assert (once[sim._cpu_only] == sim._cpu_idx).all()
        groups = {}
        for node in graph.nodes():
            if node.colocation_group is not None:
                groups.setdefault(node.colocation_group, []).append(node.op_id)
        for leader, *members in groups.values():
            followers = [m for m in members if not sim._cpu_only[m]]
            assert (once[followers] == once[leader]).all()


class TestBatchSimulatorProperties:
    """The vectorized sweep is bit-for-bit the scalar loop, on *generated*
    graphs and topologies — not just the benchmark graphs the golden suite
    pins (``tests/sim/test_batch_simulator.py``)."""

    @given(
        graph=graph_strategy,
        num_gpus=st.integers(1, 4),
        seed=st.integers(0, 1000),
        k=st.integers(1, 8),
    )
    @settings(**SETTINGS)
    def test_batch_equals_scalar_bit_for_bit(self, graph, num_gpus, seed, k):
        topo = Topology.default_4gpu(num_gpus=num_gpus)
        sim = Simulator(graph, topo)
        batch = BatchSimulator(sim)
        rng = np.random.default_rng(seed)
        placements = [
            rng.integers(0, topo.num_devices, size=graph.num_ops) for _ in range(k)
        ]
        result = batch.simulate_batch(placements)
        for i, p in enumerate(placements):
            try:
                bd = sim.simulate(p)
            except OutOfMemoryError as exc:
                assert result.step_times[i] == float("inf")
                assert result.oom_details[i] == exc.overcommitted
            else:
                assert result.step_times[i] == bd.makespan
                assert result.critical_op[i] == bd.critical_op
                assert np.array_equal(result.device_busy[i], bd.device_busy)

    @given(graph=graph_strategy, seed=st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_lower_bound_bounds_every_feasible_lane(self, graph, seed):
        """``lower_bound() <= step_time()`` for any feasible placement."""
        topo = Topology.default_4gpu(num_gpus=2)
        sim = Simulator(graph, topo)
        batch = BatchSimulator(sim)
        rng = np.random.default_rng(seed)
        placements = [
            rng.integers(0, topo.num_devices, size=graph.num_ops) for _ in range(6)
        ]
        times = batch.step_times(placements)
        finite = times[np.isfinite(times)]
        assume(finite.size)
        assert np.all(sim.lower_bound() <= finite)


class TestRewardProperties:
    @given(times=st.lists(st.floats(0.001, 100.0), min_size=1, max_size=30))
    @settings(**SETTINGS)
    def test_reward_order_reversed(self, times):
        rewards = [reward_from_time(t) for t in times]
        assert np.argmax(rewards) == np.argmin(times)

    @given(
        rewards=st.lists(st.floats(-10, 10), min_size=1, max_size=50),
        decay=st.floats(0.1, 0.99),
    )
    @settings(**SETTINGS)
    def test_ema_stays_within_observed_range(self, rewards, decay):
        b = EMABaseline(decay=decay)
        b.update(rewards)
        assert min(rewards) - 1e-9 <= b.value <= max(rewards) + 1e-9


fault_plan_strategy = st.builds(
    FaultPlan,
    crash_rate=st.floats(0.0, 0.45),
    straggler_rate=st.floats(0.0, 0.45),
    corruption_rate=st.floats(0.0, 0.45),
    seed=st.integers(0, 10_000),
)


class TestFaultPolicyProperties:
    """For any seeded FaultPlan: a search with retries enabled terminates,
    never surfaces a corrupted (non-finite / non-positive) best time, and
    the fault accounting balances exactly."""

    def _run(
        self, plan, inner=SerialBackend, minibatch_size=8, num_groups=4,
        num_layers=4, width=3,
    ):
        from repro.core import EvaluationPolicy, PlacementSearch, PostAgent, SearchConfig
        from repro.sim import FaultInjectingBackend, PlacementEnvironment

        graph = build_random_layered(num_layers=num_layers, width=width, seed=11)
        topo = Topology.default_4gpu(num_gpus=2)
        env = PlacementEnvironment(graph, topo, seed=0, setup_time=1.0)
        agent = PostAgent(graph, topo.num_devices, num_groups=num_groups, seed=0)
        config = SearchConfig(max_samples=2 * minibatch_size, minibatch_size=minibatch_size)
        backend = FaultInjectingBackend(inner(env), plan)
        # max_step_time below the plan's outlier scale makes corruption
        # detection complete, so backend and engine accounting must agree.
        policy = EvaluationPolicy(max_retries=3, max_step_time=60.0)
        result = PlacementSearch(
            agent, env, "ppo", config, backend=backend, policy=policy
        ).run()
        return result, backend

    @given(plan=fault_plan_strategy)
    @settings(max_examples=10, deadline=None)
    def test_search_terminates_with_balanced_accounting(self, plan):
        result, backend = self._run(plan)
        # terminated with the full sample budget: quarantine, never abort
        assert result.num_samples == 16
        # the loop invariant of the retry policy
        assert result.num_faults == result.num_retries + result.num_quarantined
        # detection is complete under these bands, so every injected crash or
        # corruption was observed by the engine (no policy timeout => injected
        # stragglers never become faults)
        assert backend.faults_injected == result.num_faults
        assert result.num_retries <= result.num_faults
        assert result.num_quarantined <= result.num_samples

    @given(plan=fault_plan_strategy)
    @settings(max_examples=10, deadline=None)
    def test_best_time_is_never_garbage(self, plan):
        result, _ = self._run(plan)
        if any(result.history.valid):
            assert np.isfinite(result.best_time) and result.best_time > 0
        else:  # every sample quarantined or invalid — best is honestly +inf
            assert result.best_time == float("inf")
        # corrupted values must never have been folded into the history
        finite = [t for t in result.history.per_step_time if np.isfinite(t)]
        assert all(0 < t <= 60.0 for t in finite)

    @given(plan=fault_plan_strategy)
    @settings(max_examples=10, deadline=None)
    def test_vectorized_batches_preserve_fault_accounting(self, plan):
        """FaultInjectingBackend over a MemoBackend whose minibatches of
        SWEEP_MIN_LANES placements prepare_batch sweeps (then commits per
        placement) keeps the accounting invariant and lands on the
        per-placement reference's exact numbers.  The 22-op graph at 16
        groups yields SWEEP_MIN_LANES distinct first placements, so the
        first minibatch sweeps."""
        sized = dict(
            minibatch_size=SWEEP_MIN_LANES, num_groups=16, num_layers=6, width=4
        )
        with pytest.MonkeyPatch.context() as mp:
            spy = SideSpy(mp)
            swept, backend_swept = self._run(plan, MemoBackend, **sized)
        assert spy.sweeps >= 1
        assert swept.num_faults == swept.num_retries + swept.num_quarantined
        assert backend_swept.faults_injected == swept.num_faults
        ref, backend_ref = self._run(plan, PerPlacementBackend, **sized)
        assert swept.best_time == ref.best_time
        assert swept.wall_time == ref.wall_time
        assert swept.history.per_step_time == ref.history.per_step_time
        assert (swept.num_faults, swept.num_retries, swept.num_quarantined) == (
            ref.num_faults,
            ref.num_retries,
            ref.num_quarantined,
        )
        # stats must agree on everything but the inner backends' own
        # counters (the memo's hits and misses).
        sv, ss = backend_swept.stats(), backend_ref.stats()
        shared = set(sv) & set(ss)
        assert {k: sv[k] for k in shared} == {k: ss[k] for k in shared}

    @given(plan=fault_plan_strategy)
    @settings(max_examples=5, deadline=None)
    def test_chaos_is_reproducible(self, plan):
        a, backend_a = self._run(plan)
        b, backend_b = self._run(plan)
        assert a.best_time == b.best_time
        assert a.wall_time == b.wall_time
        assert (a.num_faults, a.num_retries, a.num_quarantined) == (
            b.num_faults,
            b.num_retries,
            b.num_quarantined,
        )
        assert backend_a.stats() == backend_b.stats()


class TestAutogradProperties:
    @given(
        data=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
        seed=st.integers(0, 100),
    )
    @settings(**SETTINGS)
    def test_sum_rule(self, data, seed):
        """d/dx sum(f+g) == d/dx sum(f) + d/dx sum(g)."""
        x1 = Tensor(np.array(data), requires_grad=True)
        (x1.tanh() + x1.sigmoid()).sum().backward()
        x2 = Tensor(np.array(data), requires_grad=True)
        x2.tanh().sum().backward()
        g_tanh = x2.grad.copy()
        x3 = Tensor(np.array(data), requires_grad=True)
        x3.sigmoid().sum().backward()
        assert np.allclose(x1.grad, g_tanh + x3.grad, atol=1e-10)

    @given(st.lists(st.floats(-2, 2), min_size=6, max_size=6))
    @settings(**SETTINGS)
    def test_softmax_rows_normalised(self, data):
        from repro.nn.functional import softmax

        p = softmax(Tensor(np.array(data).reshape(2, 3)))
        assert np.allclose(p.data.sum(axis=1), 1.0)
        assert np.all(p.data >= 0)
