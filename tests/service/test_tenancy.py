"""Tenant spaces: spec round-trips, registry LRU/eviction, durability, quotas."""

import json
import os

import numpy as np
import pytest

from repro.graph.models.random_graphs import build_random_layered
from repro.service.tenancy import (
    SpaceLoading,
    SpaceRegistry,
    SpaceSpec,
    TenantSpace,
)
from repro.sim import Topology
from repro.sim.backends import _placement_key
from repro.sim.cost_model import CostModel


def _spec(seed=0):
    graph = build_random_layered(num_layers=3, width=3, seed=seed)
    return SpaceSpec(graph, Topology.default_4gpu(num_gpus=2), CostModel())


class TestSpaceSpec:
    def test_roundtrip_is_fingerprint_exact(self):
        spec = _spec(seed=5)
        rebuilt = SpaceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.fingerprint == spec.fingerprint

    def test_from_environment_matches_env_fingerprint(self):
        spec = _spec(seed=1)
        env = spec.build_environment(seed=42)
        lifted = SpaceSpec.from_environment(env)
        assert lifted.fingerprint == spec.fingerprint

    def test_claimed_fingerprint_mismatch_refused(self):
        data = _spec(seed=2).to_dict()
        data["fingerprint"] = "0" * 64
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            SpaceSpec.from_dict(data)

    def test_unknown_format_version_refused(self):
        data = _spec().to_dict()
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            SpaceSpec.from_dict(data)

    def test_server_seed_does_not_change_raw_outcomes(self):
        spec = _spec(seed=3)
        placement = np.zeros(spec.graph.num_ops, dtype=np.int64)
        raw_a = spec.build_environment(seed=0).simulate_raw(placement)
        raw_b = spec.build_environment(seed=777).simulate_raw(placement)
        assert raw_a.base_time == raw_b.base_time


class TestTenantSpaceQuota:
    def test_quota_rejects_over_inflight(self):
        space = TenantSpace(_spec(), quota=2)
        assert space.try_acquire(2)
        assert not space.try_acquire(1)
        assert space.quota_rejections == 1
        space.release(2)
        assert space.try_acquire(1)

    def test_release_clamps_at_zero(self):
        space = TenantSpace(_spec())
        space.release(5)
        assert space.inflight == 0

    def test_stats_shape(self):
        space = TenantSpace(_spec())
        stats = space.stats()
        assert stats["fingerprint"] == space.fingerprint
        for key in ("sessions", "simulations", "memo_entries", "memo_hits",
                    "inflight", "quota_rejections"):
            assert isinstance(stats[key], float)


class TestRegistryResidency:
    def test_add_is_idempotent_per_fingerprint(self):
        reg = SpaceRegistry()
        a = reg.add(_spec(seed=0), now=0.0)
        b = reg.add(_spec(seed=0), now=1.0)
        assert a is b
        assert len(reg) == 1

    def test_lru_eviction_prefers_least_recent(self):
        reg = SpaceRegistry(max_spaces=2)
        first = reg.add(_spec(seed=0), now=0.0)
        reg.add(_spec(seed=1), now=1.0)
        reg.get(first.fingerprint, now=2.0)  # touch: seed=1 is now LRU
        reg.add(_spec(seed=2), now=3.0)
        assert len(reg) == 2
        assert first.fingerprint in reg
        assert reg.num_evictions == 1

    def test_busy_space_is_not_evicted(self):
        reg = SpaceRegistry(max_spaces=1)
        busy = reg.add(_spec(seed=0), now=0.0)
        busy.try_acquire(1)
        reg.add(_spec(seed=1), now=1.0)
        # the budget holds, but the victim must be the *idle* space — a
        # space with in-flight work is never evicted, even as LRU
        assert len(reg) == 1
        assert busy.fingerprint in reg
        busy.release(1)

    def test_get_with_non_string_fingerprint(self):
        reg = SpaceRegistry()
        assert reg.get(None, now=0.0) is None
        assert reg.get_or_load(12345, now=0.0) is None


class TestRegistryDurability:
    def test_spec_persisted_and_lazily_loaded(self, tmp_path):
        spec = _spec(seed=4)
        reg = SpaceRegistry(spaces_dir=str(tmp_path))
        reg.add(spec, now=0.0)
        assert os.path.exists(tmp_path / f"{spec.fingerprint}.space.json")

        fresh = SpaceRegistry(spaces_dir=str(tmp_path))
        assert spec.fingerprint not in fresh
        space = fresh.get_or_load(spec.fingerprint, now=0.0)
        assert space is not None
        assert space.fingerprint == spec.fingerprint
        assert fresh.num_lazy_loads == 1

    def test_loading_guard_raises_space_loading(self, tmp_path):
        spec = _spec(seed=5)
        reg = SpaceRegistry(spaces_dir=str(tmp_path))
        reg.add(spec, now=0.0)
        fresh = SpaceRegistry(spaces_dir=str(tmp_path))
        fresh._loading.add(spec.fingerprint)  # simulate a concurrent load
        with pytest.raises(SpaceLoading):
            fresh.get_or_load(spec.fingerprint, now=0.0)

    def test_state_survives_eviction_and_reload(self, tmp_path):
        spec = _spec(seed=6)
        reg = SpaceRegistry(spaces_dir=str(tmp_path))
        space = reg.add(spec, now=0.0)
        placement = np.zeros(spec.graph.num_ops, dtype=np.int64)
        raw = space.environment.simulate_raw(placement)
        space.memo.insert(_placement_key(placement), raw)
        session = space.sessions.create(0.0)
        assert reg.evict(spec.fingerprint)

        reloaded = reg.get_or_load(spec.fingerprint, now=1.0)
        assert reloaded is not None
        assert reloaded is not space
        assert len(reloaded.memo) == 1
        assert reloaded.memo.lookup(_placement_key(placement)) is not None
        assert reloaded.sessions.resume(session.id, 1.0) is not None

    def test_session_ids_never_reissued_after_restart(self, tmp_path):
        """The registry's restored session counter keeps a restarted server
        from handing a new client an id an old client still resumes."""
        spec = _spec(seed=7)
        reg = SpaceRegistry(spaces_dir=str(tmp_path))
        space = reg.add(spec, now=0.0)
        old = space.sessions.create(0.0)
        reg.persist(space)

        fresh = SpaceRegistry(spaces_dir=str(tmp_path))
        restored = fresh.get_or_load(spec.fingerprint, now=0.0)
        new = restored.sessions.create(0.0)
        assert new.id != old.id

    def test_torn_state_file_is_tolerated(self, tmp_path):
        spec = _spec(seed=8)
        reg = SpaceRegistry(spaces_dir=str(tmp_path))
        reg.add(spec, now=0.0)
        reg.evict(spec.fingerprint)
        state_path = tmp_path / f"{spec.fingerprint}.state.json"
        state_path.write_text('{"torn')
        space = reg.get_or_load(spec.fingerprint, now=1.0)
        assert space is not None  # spec loads; state loss = warm-cache loss

    def test_foreign_state_fingerprint_refused(self):
        space = TenantSpace(_spec(seed=9))
        other = TenantSpace(_spec(seed=10))
        state = other.state_dict()
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            space.load_state(state, now=0.0)

    def test_corrupt_spec_file_returns_unknown(self, tmp_path):
        spec = _spec(seed=11)
        reg = SpaceRegistry(spaces_dir=str(tmp_path))
        spec_path = tmp_path / f"{spec.fingerprint}.space.json"
        spec_path.write_text("not json")
        assert reg.get_or_load(spec.fingerprint, now=0.0) is None
