"""Tests for the pluggable evaluation backends."""

import numpy as np
import pytest

from repro.sim import (
    MemoBackend,
    PlacementEnvironment,
    SerialBackend,
    Topology,
    make_backend,
)
from repro.sim import BatchSimulator, Simulator
from repro.sim.backends import _placement_key
from repro.sim.batch import SWEEP_MIN_LANES
from repro.sim.environment import RawOutcome, raw_outcome

from ..reference import PerPlacementBackend, SideSpy


def _env(graph, topology, **kwargs):
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("setup_time", 1.0)
    return PlacementEnvironment(graph, topology, **kwargs)


def _random_placements(graph, topology, n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, topology.num_devices, size=graph.num_ops, dtype=np.int64)
        for _ in range(n)
    ]


def _tiny_gpu_topology():
    """2 GPUs so small that most placements OOM."""
    return Topology.default_4gpu(num_gpus=2, gpu_memory_bytes=1 << 10)


class TestRawCommitSplit:
    def test_evaluate_equals_raw_plus_commit(self, layered_graph, topology):
        a = _env(layered_graph, topology)
        b = _env(layered_graph, topology)
        placements = _random_placements(layered_graph, topology, 8)
        for p in placements:
            ma = a.evaluate(p)
            mb = b.commit(b.simulate_raw(p))
            assert ma.per_step_time == mb.per_step_time
            assert ma.env_time_charged == mb.env_time_charged
        assert a.env_time == b.env_time
        assert a.num_evaluations == b.num_evaluations

    def test_raw_outcome_is_deterministic_and_chargeless(self, layered_graph, topology):
        env = _env(layered_graph, topology)
        p = _random_placements(layered_graph, topology, 1)[0]
        raw1 = env.simulate_raw(p)
        raw2 = env.simulate_raw(p)
        assert raw1.base_time == raw2.base_time
        assert env.env_time == 0.0 and env.num_evaluations == 0

    def test_commit_twice_draws_fresh_noise(self, layered_graph, topology):
        env = _env(layered_graph, topology, noise_std=0.05)
        p = _random_placements(layered_graph, topology, 1)[0]
        raw = env.simulate_raw(p)
        m1, m2 = env.commit(raw), env.commit(raw)
        assert m1.per_step_time != m2.per_step_time
        assert m1.env_time_charged == m2.env_time_charged
        assert env.num_evaluations == 2

    def test_oom_raw_outcome(self, layered_graph):
        env = _env(layered_graph, _tiny_gpu_topology())
        p = np.full(layered_graph.num_ops, env.topology.gpu_indices()[0], dtype=np.int64)
        raw = env.simulate_raw(p)
        assert raw.is_oom and raw.oom_detail
        m = env.commit(raw)
        assert not m.valid and m.env_time_charged == env.oom_time_charge
        assert env.num_oom == 1

    def test_without_breakdown_strips_trace(self, layered_graph, topology):
        env = _env(layered_graph, topology)
        p = _random_placements(layered_graph, topology, 1)[0]
        raw = env.simulate_raw(p, with_breakdown=True)
        assert raw.breakdown is not None
        stripped = raw.without_breakdown()
        assert stripped.breakdown is None and stripped.base_time == raw.base_time

    def test_dead_cache_dict_is_gone(self, layered_graph, topology):
        assert not hasattr(_env(layered_graph, topology), "_cache")


class TestSerialBackend:
    def test_matches_direct_evaluation(self, layered_graph, topology):
        direct = _env(layered_graph, topology)
        backend = SerialBackend(_env(layered_graph, topology))
        placements = _random_placements(layered_graph, topology, 10)
        expected = [direct.evaluate(p) for p in placements]
        got = backend.evaluate_batch(placements)
        assert [m.per_step_time for m in got] == [m.per_step_time for m in expected]
        assert backend.environment.env_time == direct.env_time


def _mixed_oom_topology():
    """2 GPUs small enough that about half of random placements OOM."""
    return Topology.default_4gpu(num_gpus=2, gpu_memory_bytes=3 << 20)


class TestSweepRule:
    """``BatchSimulator.raw_outcomes`` sweeps from ``SWEEP_MIN_LANES``
    placements and runs the scalar loop below; every in-process evaluator
    goes through it and stays ``==`` per-placement evaluation on both sides."""

    # Both sides of the threshold, plus 15 and 16 (the threshold's sides
    # before it was re-measured), which must now stay on the scalar side.
    SIDES = sorted({15, 16, SWEEP_MIN_LANES - 1, SWEEP_MIN_LANES})

    @pytest.mark.parametrize("lanes", SIDES)
    def test_raw_outcomes_pick_a_side(self, layered_graph, lanes, monkeypatch):
        sim = Simulator(layered_graph, _mixed_oom_topology())
        placements = _random_placements(layered_graph, sim.topology, lanes)
        expected = [raw_outcome(sim, p) for p in placements]
        assert any(r.is_oom for r in expected) and not all(r.is_oom for r in expected)
        batch = BatchSimulator(sim)
        spy = SideSpy(monkeypatch)
        assert batch.raw_outcomes(placements) == expected
        swept = lanes >= SWEEP_MIN_LANES
        assert (spy.sweeps, spy.scalar) == ((1, 0) if swept else (0, lanes))
        # The sweep's tables are built by the first sweep, never before.
        assert (batch._wire is not None) == swept

    @pytest.mark.parametrize("lanes", SIDES)
    @pytest.mark.parametrize("kind", ["serial", "memo"])
    def test_backend_equals_per_placement_reference(
        self, layered_graph, kind, lanes, monkeypatch
    ):
        topology = _mixed_oom_topology()
        placements = _random_placements(layered_graph, topology, lanes)
        reference = PerPlacementBackend(_env(layered_graph, topology, noise_std=0.05))
        expected = reference.evaluate_batch(placements)
        cls = SerialBackend if kind == "serial" else MemoBackend
        backend = cls(_env(layered_graph, topology, noise_std=0.05))
        spy = SideSpy(monkeypatch)
        got = backend.evaluate_batch(placements)
        assert [m.per_step_time for m in got] == [m.per_step_time for m in expected]
        assert [m.env_time_charged for m in got] == [m.env_time_charged for m in expected]
        assert [m.oom_detail for m in got] == [m.oom_detail for m in expected]
        assert backend.environment.env_time == reference.environment.env_time
        assert backend.environment.num_oom == reference.environment.num_oom
        swept = lanes >= SWEEP_MIN_LANES
        assert (spy.sweeps, spy.scalar) == ((1, 0) if swept else (0, lanes))

    @pytest.mark.parametrize("lanes", SIDES)
    def test_memo_prepare_batch_warms_only_a_sweep(
        self, layered_graph, topology, lanes, monkeypatch
    ):
        backend = MemoBackend(_env(layered_graph, topology))
        placements = _random_placements(layered_graph, topology, lanes)
        spy = SideSpy(monkeypatch)
        backend.prepare_batch(placements + placements[:3])  # repeats dedupe
        swept = lanes >= SWEEP_MIN_LANES
        assert len(backend) == (lanes if swept else 0)
        assert (spy.sweeps, spy.scalar) == ((1, 0) if swept else (0, 0))
        assert backend.hits == backend.misses == 0  # a hint, not an evaluation


class TestMemoBackend:
    def test_hit_and_miss_counting(self, layered_graph, topology):
        backend = MemoBackend(_env(layered_graph, topology))
        p, q = _random_placements(layered_graph, topology, 2)
        backend.evaluate_batch([p, q, p, p, q])
        assert backend.misses == 2
        assert backend.hits == 3
        assert backend.hit_rate == pytest.approx(0.6)
        assert len(backend) == 2

    def test_results_identical_to_serial(self, layered_graph, topology):
        serial = SerialBackend(_env(layered_graph, topology))
        memo = MemoBackend(_env(layered_graph, topology))
        placements = _random_placements(layered_graph, topology, 6)
        batch = placements + placements  # second half hits the cache
        ms = serial.evaluate_batch(batch)
        mm = memo.evaluate_batch(batch)
        assert [m.per_step_time for m in mm] == [m.per_step_time for m in ms]
        assert memo.environment.env_time == serial.environment.env_time
        assert memo.hits == 6

    def test_hits_still_charge_clock_and_draw_noise(self, layered_graph, topology):
        env = _env(layered_graph, topology, noise_std=0.05)
        backend = MemoBackend(env)
        p = _random_placements(layered_graph, topology, 1)[0]
        m1, m2 = backend.evaluate_batch([p, p])
        assert backend.hits == 1
        assert m1.per_step_time != m2.per_step_time  # fresh noise on the hit
        assert env.env_time == pytest.approx(m1.env_time_charged + m2.env_time_charged)
        assert env.num_evaluations == 2

    def test_oom_outcome_is_cached(self, layered_graph):
        env = _env(layered_graph, _tiny_gpu_topology())
        backend = MemoBackend(env)
        p = np.full(layered_graph.num_ops, env.topology.gpu_indices()[0], dtype=np.int64)
        m1, m2 = backend.evaluate_batch([p, p])
        assert backend.hits == 1 and backend.misses == 1
        assert not m1.valid and not m2.valid
        assert m2.oom_detail == m1.oom_detail
        # the hit is still charged and counted as an OOM evaluation
        assert env.num_oom == 2
        assert env.env_time == pytest.approx(2 * env.oom_time_charge)

    def test_lru_eviction(self, layered_graph, topology):
        backend = MemoBackend(_env(layered_graph, topology), max_entries=2)
        a, b, c = _random_placements(layered_graph, topology, 3)
        backend.evaluate_batch([a, b, c])  # a evicted
        assert len(backend) == 2
        backend.evaluate_batch([a])
        assert backend.misses == 4 and backend.hits == 0

    def test_lru_eviction_within_a_batch(self, layered_graph, topology):
        """A hit evicted by the same batch's inserts still measures."""
        backend = MemoBackend(_env(layered_graph, topology), max_entries=2)
        reference = PerPlacementBackend(_env(layered_graph, topology))
        a, b, c, d = _random_placements(layered_graph, topology, 4)
        for batch in ([a, b], [a, c, d]):  # c evicts b, then d evicts a
            got = backend.evaluate_batch(batch)
            want = reference.evaluate_batch(batch)
            assert [m.per_step_time for m in got] == [m.per_step_time for m in want]
        assert (backend.hits, backend.misses) == (1, 4)
        assert len(backend) == 2

    def test_invalid_max_entries_rejected(self, layered_graph, topology):
        with pytest.raises(ValueError):
            MemoBackend(_env(layered_graph, topology), max_entries=0)

    def test_stats(self, layered_graph, topology):
        backend = MemoBackend(_env(layered_graph, topology))
        p = _random_placements(layered_graph, topology, 1)[0]
        backend.evaluate_batch([p, p])
        assert backend.stats() == {"hits": 1.0, "misses": 1.0, "hit_rate": 0.5, "entries": 1.0}


class TestMakeBackend:
    def test_selection(self, layered_graph, topology):
        env = _env(layered_graph, topology)
        assert isinstance(make_backend(env), MemoBackend)
        assert isinstance(make_backend(env, cache=False), SerialBackend)


class TestFaultWrapperGoldenEquivalence:
    """A zero-rate FaultInjectingBackend must be invisible: bit-for-bit the
    wrapped backend's measurements, clock, and search result."""

    def _backend_pair(self, kind, layered_graph, topology):
        from repro.sim import FaultInjectingBackend, FaultPlan

        env_plain, env_wrapped = _env(layered_graph, topology), _env(layered_graph, topology)
        if kind == "serial":
            plain, inner = SerialBackend(env_plain), SerialBackend(env_wrapped)
        else:
            plain, inner = MemoBackend(env_plain), MemoBackend(env_wrapped)
        return plain, FaultInjectingBackend(inner, FaultPlan())

    @pytest.mark.parametrize("kind", ["serial", "memo"])
    def test_measurement_stream_identical(self, kind, layered_graph, topology):
        plain, wrapped = self._backend_pair(kind, layered_graph, topology)
        placements = _random_placements(layered_graph, topology, 8)
        try:
            expected = plain.evaluate_batch(placements)
            got = wrapped.evaluate_batch(placements)
        finally:
            plain.close()
            wrapped.close()
        assert [m.per_step_time for m in got] == [m.per_step_time for m in expected]
        assert [m.env_time_charged for m in got] == [m.env_time_charged for m in expected]
        assert wrapped.environment.env_time == plain.environment.env_time
        assert wrapped.faults_injected == 0 and wrapped.wall_time == 0.0

    @pytest.mark.parametrize("kind", ["serial", "memo"])
    def test_search_result_identical(self, kind, layered_graph, topology):
        from repro.core import PlacementSearch, SearchConfig

        def run(wrap):
            plain, wrapped = self._backend_pair(kind, layered_graph, topology)
            backend = wrapped if wrap else plain
            agent_env = backend.environment
            from repro.core import PostAgent

            agent = PostAgent(layered_graph, topology.num_devices, num_groups=6, seed=0)
            config = SearchConfig(max_samples=20, minibatch_size=10)
            result = PlacementSearch(agent, agent_env, "ppo", config, backend=backend).run()
            plain.close()
            wrapped.close()
            return result

        a, b = run(wrap=False), run(wrap=True)
        assert a.best_time == b.best_time
        assert a.env_time == b.env_time
        assert a.history.per_step_time == b.history.per_step_time
        assert a.history.env_time == b.history.env_time
        np.testing.assert_array_equal(a.best_placement, b.best_placement)
        assert (b.num_faults, b.num_retries, b.num_quarantined) == (0, 0, 0)


class TestRawOutcomePickling:
    def test_roundtrip(self):
        import pickle

        raw = RawOutcome(0.25)
        assert pickle.loads(pickle.dumps(raw)) == raw
        oom = RawOutcome(None, oom_detail={1: (2.0, 1.0)})
        assert pickle.loads(pickle.dumps(oom)).is_oom


class TestMemoPersistence:
    def test_save_load_roundtrip_serves_hits(self, layered_graph, topology, tmp_path):
        writer = MemoBackend(_env(layered_graph, topology))
        placements = _random_placements(layered_graph, topology, 5)
        writer.evaluate_batch(placements)
        path = str(tmp_path / "memo.json")
        writer.save(path)

        reader = MemoBackend(_env(layered_graph, topology, seed=9))
        assert reader.load(path) == 5
        reader.evaluate_batch(placements)
        assert reader.hits == 5 and reader.misses == 0
        # loaded raws are the exact simulator outcomes, not approximations
        for p in placements:
            assert reader.lookup(p) == writer.lookup(p)

    def test_oom_entries_survive_the_roundtrip(self, layered_graph, tmp_path):
        topology = _tiny_gpu_topology()
        writer = MemoBackend(_env(layered_graph, topology))
        p = np.full(layered_graph.num_ops, topology.gpu_indices()[0], dtype=np.int64)
        writer.evaluate_batch([p])
        path = str(tmp_path / "memo.json")
        writer.save(path)

        reader = MemoBackend(_env(layered_graph, topology))
        reader.load(path)
        raw = reader.lookup(p)
        assert raw.is_oom and raw.oom_detail == writer.lookup(p).oom_detail

    def test_load_refuses_fingerprint_mismatch(self, layered_graph, topology, tmp_path):
        from repro.graph.models import build_random_layered

        writer = MemoBackend(_env(layered_graph, topology))
        writer.evaluate_batch(_random_placements(layered_graph, topology, 2))
        path = str(tmp_path / "memo.json")
        writer.save(path)

        other_graph = build_random_layered(num_layers=6, width=5, seed=8)
        reader = MemoBackend(_env(other_graph, topology))
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            reader.load(path)
        assert len(reader) == 0  # nothing leaked in

    def test_load_refuses_unknown_format_version(self, layered_graph, topology, tmp_path):
        import json

        path = tmp_path / "memo.json"
        path.write_text(json.dumps({"format_version": 999, "entries": []}))
        with pytest.raises(ValueError, match="format version"):
            MemoBackend(_env(layered_graph, topology)).load(str(path))

    def test_load_honours_max_entries(self, layered_graph, topology, tmp_path):
        writer = MemoBackend(_env(layered_graph, topology))
        writer.evaluate_batch(_random_placements(layered_graph, topology, 6))
        path = str(tmp_path / "memo.json")
        writer.save(path)

        reader = MemoBackend(_env(layered_graph, topology), max_entries=3)
        reader.load(path)
        assert len(reader) == 3

    def test_corrupt_entries_load_nothing_and_keep_held_ones(
        self, layered_graph, topology, tmp_path
    ):
        import json

        writer = MemoBackend(_env(layered_graph, topology))
        fresh = _random_placements(layered_graph, topology, 2, seed=1)
        writer.evaluate_batch(fresh)
        path = tmp_path / "memo.json"
        writer.save(str(path))
        payload = json.loads(path.read_text())
        payload["entries"].append(["not-hex", 0.1, None])
        path.write_text(json.dumps(payload))

        reader = MemoBackend(_env(layered_graph, topology))
        held = _random_placements(layered_graph, topology, 3)
        reader.evaluate_batch(held)
        with pytest.warns(RuntimeWarning, match="corrupt entries"):
            assert reader.load(str(path)) == 0
        assert len(reader) == 3
        assert all(reader.lookup(p) is not None for p in held)
        assert all(reader.lookup(p) is None for p in fresh)


class TestPlacementKey:
    """Memo keys are one byte per op, yet exact: no two distinct
    placements share a key, and keys from the old int64 encoding only
    miss."""

    def test_compact_and_wide_encodings(self):
        p = np.array([0, 3, 255, 1], dtype=np.int64)
        assert _placement_key(p) == b"\x00" + bytes([0, 3, 255, 1])
        assert _placement_key(p.tolist()) == _placement_key(p)
        wide = np.array([0, 3, 256, 1], dtype=np.int64)
        assert _placement_key(wide) == b"\x01" + wide.tobytes()
        assert _placement_key([-1, 0]) == b"\x01" + np.array([-1, 0]).tobytes()

    def test_no_collision_across_encodings_or_lengths(self):
        # The int64 bytes of [257] are the uint8 bytes of [1, 1, 0, ...];
        # the tag byte keeps the two keys apart.
        short = np.array([257], dtype=np.int64)
        long = np.frombuffer(short.tobytes(), dtype=np.uint8).astype(np.int64)
        assert _placement_key(short) != _placement_key(long)
        assert _placement_key([257, 0]) != _placement_key([1, 0])

    def test_out_of_range_device_still_raises_after_a_hit(self, layered_graph, topology):
        memo = MemoBackend(_env(layered_graph, topology))
        p = np.zeros(layered_graph.num_ops, dtype=np.int64)
        p[-1] = 1
        memo.evaluate_batch([p])
        assert memo.misses == 1
        bad = p.copy()
        bad[-1] = 257  # 257 & 0xff == 1
        with pytest.raises(ValueError, match="out of range"):
            memo.evaluate_batch([bad])
        memo.evaluate_batch([p])
        assert (memo.hits, memo.misses) == (1, 2)

    def test_save_load_at_version_two_and_refuse_version_one(
        self, layered_graph, topology, tmp_path
    ):
        import json

        assert MemoBackend._PERSIST_VERSION == 2
        writer = MemoBackend(_env(layered_graph, topology))
        placements = _random_placements(layered_graph, topology, 4)
        writer.evaluate_batch(placements)
        path = tmp_path / "memo.json"
        writer.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 2
        assert all(len(bytes.fromhex(e[0])) == layered_graph.num_ops + 1
                   for e in payload["entries"])

        reader = MemoBackend(_env(layered_graph, topology))
        assert reader.load(str(path)) == 4
        reader.evaluate_batch(placements)
        assert (reader.hits, reader.misses) == (4, 0)

        payload["format_version"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version 1"):
            MemoBackend(_env(layered_graph, topology)).load(str(path))

    def test_old_int64_keys_in_a_state_dict_only_miss(self, layered_graph, topology):
        """A checkpoint written before the compact keys holds 8n-byte keys:
        it still loads, and its entries are never served for a placement."""
        placements = _random_placements(layered_graph, topology, 3)
        stale = {
            "entries": [[np.asarray(p, dtype=np.int64).tobytes().hex(), 123.0, None]
                        for p in placements],
            "hits": 5,
            "misses": 3,
        }
        memo = MemoBackend(_env(layered_graph, topology))
        memo.load_state_dict(stale)
        assert len(memo) == 3 and (memo.hits, memo.misses) == (5, 3)
        fresh = MemoBackend(_env(layered_graph, topology)).evaluate_batch(placements)
        got = memo.evaluate_batch(placements)
        assert (memo.hits, memo.misses) == (5, 6)
        assert [m.per_step_time for m in got] == [m.per_step_time for m in fresh]
        assert all(m.per_step_time != 123.0 for m in got)
