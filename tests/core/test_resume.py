"""Crash-safe checkpoint/resume: golden bit-for-bit equivalence tests.

The contract under test (DESIGN.md failure-mode matrix): a search that is
killed between policy updates and resumed from its last engine checkpoint
must land on the *exact* :class:`~repro.core.engine.SearchResult` of the
uninterrupted same-seed run — best placement, reward trace, and
fault/retry/quarantine counters included.  Crashes are simulated
in-process by a callback that raises after N updates; the subprocess
SIGKILL variant lives in ``tests/test_chaos.py`` (slow lane).
"""

import numpy as np
import pytest

from repro.core import EvaluationPolicy, PlacementSearch, PostAgent, SearchConfig
from repro.core.checkpoint import (
    CheckpointCallback,
    CheckpointCorruptError,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.core.events import SearchCallback
from repro.sim import FaultPlan, PlacementEnvironment, make_backend
from repro.sim.batch import SWEEP_MIN_LANES

from ..reference import SideSpy


class _SimulatedCrash(Exception):
    """Stands in for SIGKILL: unwinds the search loop mid-run."""


class _CrashAfter(SearchCallback):
    def __init__(self, updates: int) -> None:
        self.updates = updates
        self._seen = 0

    def on_update(self, engine, stats) -> None:
        self._seen += 1
        if self._seen >= self.updates:
            raise _SimulatedCrash()


def _make_search(
    layered_graph, topology, *, chaos: bool = False, minibatch_size: int = 10,
    num_groups: int = 6,
):
    env = PlacementEnvironment(layered_graph, topology, seed=0)
    agent = PostAgent(layered_graph, topology.num_devices, num_groups=num_groups, seed=0)
    config = SearchConfig(
        max_samples=40, minibatch_size=minibatch_size,
        entropy_coef=0.1, entropy_coef_final=0.01,
    )
    plan = policy = None
    if chaos:
        plan = FaultPlan(crash_rate=0.08, straggler_rate=0.05,
                         corruption_rate=0.05, seed=0)
        policy = EvaluationPolicy(max_retries=2)
    backend = make_backend(env, fault_plan=plan)
    return PlacementSearch(agent, env, "ppo", config, backend=backend, policy=policy)


def _assert_same_result(a, b):
    assert np.array_equal(a.best_placement, b.best_placement)
    assert a.best_time == b.best_time
    assert a.final_time == b.final_time
    assert a.num_samples == b.num_samples
    assert a.num_invalid == b.num_invalid
    assert a.env_time == b.env_time
    assert a.history.per_step_time == b.history.per_step_time
    assert a.history.best_so_far == b.history.best_so_far
    assert a.history.env_time == b.history.env_time
    assert a.history.valid == b.history.valid
    assert a.num_faults == b.num_faults
    assert a.num_retries == b.num_retries
    assert a.num_quarantined == b.num_quarantined
    assert a.wall_time == b.wall_time


class TestGoldenResume:
    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
    def test_crash_and_resume_is_bit_for_bit(
        self, layered_graph, topology, tmp_path, chaos
    ):
        path = str(tmp_path / "ckpt.npz")

        golden = _make_search(layered_graph, topology, chaos=chaos).run()

        crashed = _make_search(layered_graph, topology, chaos=chaos)
        with pytest.raises(_SimulatedCrash):
            crashed.run(callbacks=[CheckpointCallback(path), _CrashAfter(2)])

        ckpt = load_checkpoint(path)
        assert ckpt["meta"]["complete"] is False
        assert ckpt["meta"]["num_samples"] == 20

        resumed = _make_search(layered_graph, topology, chaos=chaos)
        restore_engine(resumed.engine, ckpt)
        assert resumed.engine.num_samples == 20
        result = resumed.run(callbacks=[CheckpointCallback(path)])

        _assert_same_result(result, golden)
        final = load_checkpoint(path)
        assert final["meta"]["complete"] is True
        assert final["meta"]["final_time"] == golden.final_time

    def test_every_checkpoint_is_a_valid_resume_point(
        self, layered_graph, topology, tmp_path
    ):
        """Resuming from *any* update boundary reaches the same result."""
        golden = _make_search(layered_graph, topology).run()
        for updates in (1, 3):
            path = str(tmp_path / f"u{updates}.npz")
            crashed = _make_search(layered_graph, topology)
            with pytest.raises(_SimulatedCrash):
                crashed.run(callbacks=[CheckpointCallback(path), _CrashAfter(updates)])
            resumed = _make_search(layered_graph, topology)
            restore_engine(resumed.engine, load_checkpoint(path))
            _assert_same_result(resumed.run(), golden)

    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
    def test_swept_minibatches_resume_bit_for_bit(
        self, layered_graph, topology, tmp_path, chaos, monkeypatch
    ):
        """Minibatches of SWEEP_MIN_LANES placements are swept (by
        evaluate_batch, or by prepare_batch on the policy path) and still
        commit per placement, so a crash-and-resume lands on the
        uninterrupted run's exact result."""
        sized = dict(chaos=chaos, minibatch_size=SWEEP_MIN_LANES, num_groups=12)
        path = str(tmp_path / "ckpt.npz")
        spy = SideSpy(monkeypatch)
        golden = _make_search(layered_graph, topology, **sized).run()
        assert spy.sweeps >= 1

        crashed = _make_search(layered_graph, topology, **sized)
        with pytest.raises(_SimulatedCrash):
            crashed.run(callbacks=[CheckpointCallback(path), _CrashAfter(1)])
        ckpt = load_checkpoint(path)
        assert ckpt["meta"]["num_samples"] == SWEEP_MIN_LANES

        resumed = _make_search(layered_graph, topology, **sized)
        restore_engine(resumed.engine, ckpt)
        _assert_same_result(resumed.run(), golden)


class TestCheckpointCallback:
    def test_save_cadence(self, layered_graph, topology, tmp_path):
        path = str(tmp_path / "c.npz")
        cb = CheckpointCallback(path, every=2)
        _make_search(layered_graph, topology).run(callbacks=[cb])
        # 4 updates at every=2 → 2 mid-run saves, plus the complete save.
        assert cb.saves == 3

    def test_extra_meta_round_trips(self, layered_graph, topology, tmp_path):
        path = str(tmp_path / "c.npz")
        cb = CheckpointCallback(path, extra_meta={"cli": {"seed": 7}})
        _make_search(layered_graph, topology).run(callbacks=[cb])
        assert load_checkpoint(path)["meta"]["cli"] == {"seed": 7}

    def test_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointCallback(str(tmp_path / "c.npz"), every=0)


class TestCheckpointIntegrity:
    def _checkpoint(self, layered_graph, topology, tmp_path) -> str:
        path = str(tmp_path / "c.npz")
        search = _make_search(layered_graph, topology)
        with pytest.raises(_SimulatedCrash):
            search.run(callbacks=[CheckpointCallback(path), _CrashAfter(1)])
        return path

    def test_flipped_byte_detected(self, layered_graph, topology, tmp_path):
        path = self._checkpoint(layered_graph, topology, tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_truncation_detected(self, layered_graph, topology, tmp_path):
        path = self._checkpoint(layered_graph, topology, tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_result_only_checkpoint_cannot_resume(
        self, layered_graph, topology, tmp_path
    ):
        path = str(tmp_path / "c.npz")
        search = _make_search(layered_graph, topology)
        result = search.run()
        save_checkpoint(path, search.agent, result)  # no engine snapshot
        fresh = _make_search(layered_graph, topology)
        with pytest.raises(ValueError, match="no engine state"):
            restore_engine(fresh.engine, load_checkpoint(path))

    def test_shape_mismatch_rejected(self, layered_graph, topology, tmp_path):
        path = self._checkpoint(layered_graph, topology, tmp_path)
        env = PlacementEnvironment(layered_graph, topology, seed=0)
        other = PostAgent(layered_graph, topology.num_devices, num_groups=7, seed=0)
        search = PlacementSearch(other, env, "ppo", SearchConfig(max_samples=40))
        with pytest.raises(ValueError, match="shape mismatch"):
            restore_engine(search.engine, load_checkpoint(path))
