"""Tests for the decomposed search engine, its components, and the event layer.

The golden values below were captured from the pre-refactor monolithic
``PlacementSearch.run`` (serial, in-process evaluation) on this exact
scenario; the engine must reproduce them bit-for-bit with every backend.
"""

import hashlib

import numpy as np
import pytest

from repro.core import PostAgent, PlacementSearch, SearchConfig
from repro.core.engine import (
    BestTracker,
    BudgetTracker,
    EntropyAnnealer,
    EvaluationPolicy,
    RewardShaper,
    SearchEngine,
)
from repro.core.events import (
    CallbackList,
    HistoryRecorder,
    ProgressPrinter,
    SearchCallback,
)
from repro.graph.models import build_random_layered
from repro.sim import (
    FaultInjectingBackend,
    FaultPlan,
    Measurement,
    MemoBackend,
    PlacementEnvironment,
    SerialBackend,
    Topology,
)

# ---- golden scenario ------------------------------------------------------ #
GOLDEN = {
    "best_time": 0.011453786383283118,
    "final_time": 0.011423572930178927,
    "env_time": 41.571292693008985,
    "num_invalid": 0,
    "history_sha": "9c2a99d468837f04f8df83f47d46d42c55400408dbb13fcac9b74ee832ed6966",
    "placement_sha": "d3c91eb0849e98cd557810abaee2438eadbb318f24a9df3b042ad48970f36a5f",
}


def golden_scenario():
    graph = build_random_layered(num_layers=6, width=5, seed=7)
    topo = Topology.default_4gpu(num_gpus=2)
    env = PlacementEnvironment(graph, topo, seed=0, setup_time=1.0)
    agent = PostAgent(graph, topo.num_devices, num_groups=6, seed=0)
    config = SearchConfig(
        max_samples=30, minibatch_size=10, entropy_coef=0.1, entropy_coef_final=0.01
    )
    return graph, env, agent, config


def history_sha(history) -> str:
    d = hashlib.sha256()
    d.update(np.asarray(history.env_time, dtype=np.float64).tobytes())
    d.update(np.asarray(history.per_step_time, dtype=np.float64).tobytes())
    d.update(np.asarray(history.best_so_far, dtype=np.float64).tobytes())
    d.update(np.asarray(history.valid, dtype=np.bool_).tobytes())
    return d.hexdigest()


def assert_matches_golden(result):
    assert result.best_time == GOLDEN["best_time"]
    assert result.final_time == GOLDEN["final_time"]
    assert result.env_time == GOLDEN["env_time"]
    assert result.num_invalid == GOLDEN["num_invalid"]
    assert history_sha(result.history) == GOLDEN["history_sha"]
    placement_sha = hashlib.sha256(
        np.asarray(result.best_placement, dtype=np.int64).tobytes()
    ).hexdigest()
    assert placement_sha == GOLDEN["placement_sha"]


class TestGoldenReproduction:
    def test_default_backend_reproduces_prerefactor_result(self):
        _, env, agent, config = golden_scenario()
        result = PlacementSearch(agent, env, "ppo", config).run()
        assert_matches_golden(result)

    def test_serial_backend_explicit(self):
        _, env, agent, config = golden_scenario()
        result = PlacementSearch(agent, env, "ppo", config, backend=SerialBackend(env)).run()
        assert_matches_golden(result)

    def test_memo_backend_bit_for_bit(self):
        _, env, agent, config = golden_scenario()
        backend = MemoBackend(env)
        result = PlacementSearch(agent, env, "ppo", config, backend=backend).run()
        assert_matches_golden(result)
        assert backend.misses == len(backend)

    def test_engine_api_directly(self):
        _, env, agent, config = golden_scenario()
        result = SearchEngine(agent, env, "ppo", config).run()
        assert_matches_golden(result)

    def test_fault_wrapper_zero_rate_serial(self):
        _, env, agent, config = golden_scenario()
        backend = FaultInjectingBackend(SerialBackend(env), FaultPlan())
        assert_matches_golden(PlacementSearch(agent, env, "ppo", config, backend=backend).run())

    def test_fault_wrapper_zero_rate_memo(self):
        _, env, agent, config = golden_scenario()
        backend = FaultInjectingBackend(MemoBackend(env), FaultPlan())
        assert_matches_golden(PlacementSearch(agent, env, "ppo", config, backend=backend).run())

    def test_policy_path_without_faults_is_bit_for_bit(self):
        """The resilient per-placement path must be semantics-preserving:
        same commit order, same RNG stream, same golden result."""
        _, env, agent, config = golden_scenario()
        result = PlacementSearch(
            agent, env, "ppo", config,
            backend=FaultInjectingBackend(MemoBackend(env), FaultPlan()),
            policy=EvaluationPolicy(max_retries=3),
        ).run()
        assert_matches_golden(result)
        assert (result.num_faults, result.num_retries, result.num_quarantined) == (0, 0, 0)
        assert result.wall_time == 0.0


class TestMemoHitsAtScale:
    def test_standard_500_sample_run_hits_cache(self):
        graph = build_random_layered(num_layers=6, width=5, seed=7)
        topo = Topology.default_4gpu(num_gpus=2)
        env = PlacementEnvironment(graph, topo, seed=0, setup_time=1.0)
        agent = PostAgent(graph, topo.num_devices, num_groups=6, seed=0)
        config = SearchConfig(max_samples=500, entropy_coef=0.1, entropy_coef_final=0.01)
        backend = MemoBackend(env)
        result = PlacementSearch(agent, env, "ppo", config, backend=backend).run()
        assert result.num_samples == 500
        assert backend.hits > 0
        assert backend.hits + backend.misses == 500
        # the environment clock is charged for every sample, hits included
        assert env.num_evaluations == 500


class RecordingCallback(SearchCallback):
    def __init__(self):
        self.events = []

    def on_search_start(self, engine):
        self.events.append("start")

    def on_batch_start(self, engine, batch_index, batch_size):
        self.events.append(("batch", batch_index, batch_size))

    def on_measurement(self, engine, sample, measurement):
        self.events.append(("measure", engine.num_samples, engine.env_time))

    def on_best(self, engine, placement, per_step_time):
        self.events.append(("best", per_step_time))

    def on_fault(self, engine, placement, fault):
        self.events.append(("fault", fault.kind))

    def on_retry(self, engine, placement, attempt, fault):
        self.events.append(("retry", attempt))

    def on_quarantine(self, engine, placement, fault):
        self.events.append(("quarantine", fault.kind))

    def on_update(self, engine, stats):
        self.events.append(("update", engine.num_samples))

    def on_search_end(self, engine, result):
        self.events.append(("end", result.num_samples))


class TestEventLayer:
    def run_small(self, callbacks=(), max_samples=20, minibatch=10):
        _, env, agent, _ = golden_scenario()
        config = SearchConfig(max_samples=max_samples, minibatch_size=minibatch)
        search = PlacementSearch(agent, env, "ppo", config, callbacks=callbacks)
        return search.run()

    def test_event_sequence(self):
        cb = RecordingCallback()
        result = self.run_small(callbacks=[cb])
        kinds = [e if isinstance(e, str) else e[0] for e in cb.events]
        assert kinds[0] == "start" and kinds[-1] == "end"
        assert kinds.count("batch") == 2 and kinds.count("update") == 2
        assert kinds.count("measure") == 20
        assert cb.events[-1] == ("end", result.num_samples)
        # batch events carry index and size
        assert ("batch", 0, 10) in cb.events and ("batch", 1, 10) in cb.events

    def test_measurement_env_time_is_monotone_and_exact(self):
        cb = RecordingCallback()
        result = self.run_small(callbacks=[cb])
        times = [e[2] for e in cb.events if e[0] == "measure"]
        assert times == sorted(times)
        assert times == result.history.env_time
        assert times[-1] == result.env_time

    def test_on_best_fires_with_decreasing_times(self):
        cb = RecordingCallback()
        self.run_small(callbacks=[cb])
        bests = [e[1] for e in cb.events if e[0] == "best"]
        assert bests  # at least one improvement on a valid run
        assert bests == sorted(bests, reverse=True)
        assert all(np.isfinite(b) for b in bests)

    def test_history_recording_is_an_observer(self):
        from repro.core.search import SearchHistory

        mirror = SearchHistory()
        result = self.run_small(callbacks=[HistoryRecorder(mirror)])
        assert mirror.env_time == result.history.env_time
        assert mirror.best_so_far == result.history.best_so_far

    def test_progress_printer_interval(self, capsys):
        self.run_small(callbacks=[ProgressPrinter(interval=10, total=20)])
        lines = [ln for ln in capsys.readouterr().out.splitlines() if "samples" in ln]
        assert len(lines) == 2
        assert "10/20 samples" in lines[0] and "20/20 samples" in lines[1]

    def test_progress_printer_coarse_interval_no_double_fire(self, capsys):
        self.run_small(callbacks=[ProgressPrinter(interval=15, total=20)])
        lines = [ln for ln in capsys.readouterr().out.splitlines() if "samples" in ln]
        assert len(lines) == 1 and "20/20" in lines[0]

    def test_callback_list_dispatch(self):
        a, b = RecordingCallback(), RecordingCallback()
        cl = CallbackList([a])
        cl.add(b)
        cl.on_search_start(None)
        assert a.events == ["start"] and b.events == ["start"]
        assert len(cl) == 2


def chaos_search(
    *,
    backend_kind="serial",
    plan=None,
    policy=None,
    max_samples=30,
    env_seed=0,
    agent_seed=0,
    callbacks=(),
):
    """Run the golden scenario under fault injection; returns (result, backend)."""
    graph = build_random_layered(num_layers=6, width=5, seed=7)
    topo = Topology.default_4gpu(num_gpus=2)
    env = PlacementEnvironment(graph, topo, seed=env_seed, setup_time=1.0)
    agent = PostAgent(graph, topo.num_devices, num_groups=6, seed=agent_seed)
    config = SearchConfig(max_samples=max_samples, minibatch_size=10)
    inner = SerialBackend(env) if backend_kind == "serial" else MemoBackend(env)
    backend = FaultInjectingBackend(inner, plan or FaultPlan.chaos(0.3, seed=123))
    policy = policy or EvaluationPolicy(max_retries=2, max_step_time=60.0)
    try:
        result = PlacementSearch(
            agent, env, "ppo", config, backend=backend, policy=policy, callbacks=callbacks
        ).run()
    finally:
        backend.close()
    return result, backend


class TestEventOrdering:
    """The documented event protocol: on_search_start → (on_batch_start →
    on_measurement* → on_update)* → on_search_end, with fault-family events
    interleaved only between a batch start and its update."""

    def collect(self, **kwargs):
        cb = RecordingCallback()
        result, _ = chaos_search(callbacks=[cb], **kwargs)
        return cb.events, result

    def test_protocol_under_chaos(self):
        events, result = self.collect()
        kinds = [e if isinstance(e, str) else e[0] for e in events]
        assert kinds[0] == "start" and kinds[-1] == "end"
        assert kinds.count("start") == 1 and kinds.count("end") == 1
        # faults occurred (the run would be vacuous otherwise)
        assert kinds.count("fault") == result.num_faults > 0
        assert kinds.count("retry") == result.num_retries
        assert kinds.count("quarantine") == result.num_quarantined

        in_batch = False
        measures_in_batch = 0
        for kind in kinds[1:-1]:
            if kind == "batch":
                assert not in_batch, "nested batch"
                in_batch, measures_in_batch = True, 0
            elif kind == "update":
                assert in_batch and measures_in_batch > 0
                in_batch = False
            elif kind in ("measure", "best", "fault", "retry", "quarantine"):
                assert in_batch, f"{kind} outside a batch"
                if kind == "measure":
                    measures_in_batch += 1
            else:  # pragma: no cover - defensive
                pytest.fail(f"unexpected event {kind}")
        assert not in_batch

    def test_every_retry_and_quarantine_is_preceded_by_its_fault(self):
        events, _ = self.collect()
        pending_faults = 0
        for e in events:
            kind = e if isinstance(e, str) else e[0]
            if kind == "fault":
                pending_faults += 1
            elif kind in ("retry", "quarantine"):
                assert pending_faults > 0, f"{kind} without a preceding fault"
                pending_faults -= 1
        assert pending_faults == 0  # every fault was resolved one way or the other

    def test_faultless_run_emits_no_fault_events(self):
        events, result = self.collect(plan=FaultPlan())
        kinds = {e if isinstance(e, str) else e[0] for e in events}
        assert kinds.isdisjoint({"fault", "retry", "quarantine"})
        assert result.num_faults == 0


@pytest.mark.slow
class TestChaosRuns:
    """Acceptance: a seeded chaos run (fault_rate=0.3, stragglers +
    corruption) over every backend completes, quarantines rather than
    aborts, and its counters reproduce exactly under the same seed."""

    @pytest.mark.parametrize("backend_kind", ["serial", "memo"])
    def test_chaos_run_completes_and_reproduces(self, backend_kind):
        def fingerprint():
            result, backend = chaos_search(backend_kind=backend_kind)
            assert result.num_samples == 30  # survived to the full budget
            assert result.num_faults == result.num_retries + result.num_quarantined
            assert result.num_faults > 0
            assert backend.faults_injected == result.num_faults  # no timeout configured
            assert np.isfinite(result.best_time) and result.best_time > 0
            return (
                result.best_time,
                result.env_time,
                result.wall_time,
                result.num_faults,
                result.num_retries,
                result.num_quarantined,
                backend.crashes_injected,
                backend.stragglers_injected,
                backend.corruptions_injected,
            )

        assert fingerprint() == fingerprint()

    def test_zero_retries_quarantines_every_fault(self):
        result, _ = chaos_search(policy=EvaluationPolicy(max_retries=0, max_step_time=60.0))
        assert result.num_retries == 0
        assert result.num_quarantined == result.num_faults > 0
        # quarantined samples are recorded as failed, not dropped
        assert result.num_samples == 30
        assert result.num_invalid >= result.num_quarantined

    def test_timeout_turns_stragglers_into_faults(self):
        plan = FaultPlan(straggler_rate=1.0, straggler_delay=50.0, seed=3)
        lenient = EvaluationPolicy(max_retries=2, timeout=None)
        strict = EvaluationPolicy(max_retries=2, timeout=1e-3)
        r_lenient, b_lenient = chaos_search(plan=plan, policy=lenient, max_samples=10)
        r_strict, _ = chaos_search(plan=plan, policy=strict, max_samples=10)
        assert r_lenient.num_faults == 0 and b_lenient.wall_time > 0
        assert r_strict.num_faults > 0
        assert r_strict.num_faults == r_strict.num_retries + r_strict.num_quarantined

    def test_soak_high_fault_rate_long_run(self):
        """Soak: heavy chaos over a longer budget still degrades gracefully."""
        result, backend = chaos_search(
            plan=FaultPlan.chaos(0.5, seed=7),
            policy=EvaluationPolicy(max_retries=3, max_step_time=60.0),
            backend_kind="memo",
            max_samples=150,
        )
        assert result.num_samples == 150
        assert result.num_faults == result.num_retries + result.num_quarantined
        assert backend.faults_injected == result.num_faults
        assert result.num_quarantined > 0  # at 0.5³⁺¹ per placement, some must die
        assert np.isfinite(result.best_time)
        # the history never recorded a corrupted (finite-but-garbage) time
        finite_times = [t for t in result.history.per_step_time if np.isfinite(t)]
        assert all(0 < t < 60.0 for t in finite_times)


class TestComponents:
    def test_budget_tracker(self):
        b = BudgetTracker(max_samples=100, max_env_time=50.0)
        assert not b.exhausted(99, 0.0)
        assert b.exhausted(100, 0.0)
        assert b.exhausted(0, 50.0)
        assert b.next_batch_size(10, 95) == 5
        assert b.progress(25) == 0.25

    def test_best_tracker_observe_and_failure_time(self):
        t = BestTracker()
        assert t.failure_time() == 60.0
        valid = Measurement(per_step_time=3.0, valid=True, env_time_charged=1.0)
        assert t.observe(np.array([0, 1]), valid) is True
        assert t.best_time == 3.0 and t.failure_time() == 6.0
        worse = Measurement(per_step_time=5.0, valid=True, env_time_charged=1.0)
        assert t.observe(np.array([1, 1]), worse) is False
        assert t.worst_valid == 5.0 and t.failure_time() == 10.0
        oom = Measurement(per_step_time=float("inf"), valid=False, env_time_charged=1.0)
        assert t.observe(np.array([1, 0]), oom) is False
        assert list(t.best_placement) == [0, 1]

    def test_best_tracker_explicit_failure_time(self):
        t = BestTracker(explicit_failure_time=42.0)
        t.worst_valid = 100.0
        assert t.failure_time() == 42.0

    def test_best_tracker_copies_placement(self):
        t = BestTracker()
        p = np.array([0, 1])
        t.observe(p, Measurement(1.0, True, 1.0))
        p[0] = 9
        assert list(t.best_placement) == [0, 1]

    def test_reward_shaper_uses_adaptive_failure_time(self):
        t = BestTracker()
        shaper = RewardShaper(t)
        oom = Measurement(float("inf"), False, 1.0)
        assert shaper.shape(oom) == pytest.approx(-np.sqrt(60.0))
        t.observe(np.array([0]), Measurement(4.0, True, 1.0))
        assert shaper.shape(oom) == pytest.approx(-np.sqrt(8.0))
        assert shaper.shape(Measurement(4.0, True, 1.0)) == pytest.approx(-2.0)

    def test_evaluation_policy_validation(self):
        with pytest.raises(ValueError):
            EvaluationPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            EvaluationPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            EvaluationPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            EvaluationPolicy(max_step_time=-1.0)
        with pytest.raises(ValueError):
            EvaluationPolicy(outlier_factor=1.0)

    def test_evaluation_policy_backoff_is_exponential(self):
        p = EvaluationPolicy(backoff_base=2.0, backoff_factor=3.0)
        assert [p.backoff(k) for k in range(4)] == [2.0, 6.0, 18.0, 54.0]

    def test_evaluation_policy_corruption_detection(self):
        p = EvaluationPolicy(max_step_time=100.0, outlier_factor=10.0)

        def reason(t, reference=0.0):
            return p.corruption_reason(Measurement(t, True, 1.0), reference)

        assert reason(0.5) is None
        assert "non-finite" in reason(float("nan"))
        assert "non-finite" in reason(float("inf"))
        assert "non-positive" in reason(-1.0)
        assert "non-positive" in reason(0.0)
        assert "absolute band" in reason(500.0)
        assert "worst valid" in reason(50.0, reference=1.0)
        assert reason(50.0, reference=40.0) is None  # within the relative band
        # an OOM is an honest failure, never corruption
        oom = Measurement(float("inf"), False, 1.0)
        assert p.corruption_reason(oom) is None

    def test_evaluation_policy_bands_can_be_disabled(self):
        p = EvaluationPolicy(max_step_time=None, outlier_factor=None, reject_nonfinite=False)
        assert p.corruption_reason(Measurement(float("nan"), True, 1.0)) is None
        assert p.corruption_reason(Measurement(1e9, True, 1.0), reference=1.0) is None

    def test_entropy_annealer(self):
        a = EntropyAnnealer(0.1)
        assert a.coef(0.0) == a.coef(1.0) == 0.1
        a = EntropyAnnealer(0.1, 0.01)
        assert a.coef(0.0) == pytest.approx(0.1)
        assert a.coef(1.0) == pytest.approx(0.01)
        assert a.coef(0.5) == pytest.approx(0.055)

    def test_facade_compat_attributes(self):
        _, env, agent, config = golden_scenario()
        search = PlacementSearch(agent, env, "ppo", config)
        assert search._failure_time() == 60.0
        search._worst_valid = 3.0
        assert search._failure_time() == 6.0
        assert search.environment is env
        assert search.agent is agent
        assert isinstance(search.backend, SerialBackend)
