"""Loopback tests for the measurement service (`repro.service`).

Everything runs against a real `MeasurementServer` on 127.0.0.1:0 — the
wire, threading and shutdown paths are the ones production uses, just on
the loopback interface.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro import (
    EvaluationPolicy,
    MeasurementServer,
    PlacementEnvironment,
    PlacementSearch,
    PostAgent,
    RemoteBackend,
    SearchConfig,
    SerialBackend,
)
from repro.core.events import SearchCallback
from repro.graph.models import build_random_layered
from repro.service import protocol
from repro.service.protocol import HandshakeError, ProtocolError
from repro.sim import EvaluationFault, Topology
from repro.sim.batch import SWEEP_MIN_LANES
from repro.sim.environment import RawOutcome

from ..reference import PerPlacementBackend, SideSpy


def _graph():
    return build_random_layered(num_layers=6, width=5, seed=7)


def _env(seed=0, graph=None, topology=None):
    return PlacementEnvironment(
        graph if graph is not None else _graph(),
        topology if topology is not None else Topology.default_4gpu(num_gpus=2),
        seed=seed,
    )


def _placements(env, n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, env.num_devices, size=env.graph.num_ops, dtype=np.int64)
        for _ in range(n)
    ]


@pytest.fixture
def server():
    srv = MeasurementServer(_env(seed=99), port=0, workers=2).start()
    yield srv
    srv.close()


# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_raw_outcome_roundtrip(self):
        ok = RawOutcome(0.0123)
        assert protocol.decode_raw(protocol.encode_raw(ok)) == ok
        oom = RawOutcome(None, oom_detail={1: (2.0, 1.5)})
        back = protocol.decode_raw(protocol.encode_raw(oom))
        assert back.base_time is None and back.oom_detail == {1: (2.0, 1.5)}

    def test_encoded_raw_is_plain_json(self):
        encoded = protocol.encode_raw(RawOutcome(1.0, oom_detail={0: (1.0, 0.5)}))
        assert json.loads(json.dumps(encoded)) == encoded

    def test_decode_placement_validates_shape(self):
        with pytest.raises(ProtocolError, match="flat list of 4"):
            protocol.decode_placement([0, 1], num_ops=4)
        out = protocol.decode_placement([0, 1, 0, 1], num_ops=4)
        assert out.dtype == np.int64 and out.tolist() == [0, 1, 0, 1]

    def test_decode_raw_rejects_junk(self):
        with pytest.raises(ProtocolError):
            protocol.decode_raw({"nope": 1})
        with pytest.raises(ProtocolError):
            protocol.decode_raw(None)


# ---------------------------------------------------------------------- #
class TestGoldenEquivalence:
    def test_evaluate_batch_matches_serial_backend(self, server):
        remote_env, local_env = _env(seed=3), _env(seed=3)
        remote = RemoteBackend(remote_env, server.address, timeout=10.0)
        serial = SerialBackend(local_env)
        placements = _placements(remote_env, 8, seed=1)
        try:
            got = remote.evaluate_batch(placements)
        finally:
            remote.close()
        want = serial.evaluate_batch(placements)
        assert [m.per_step_time for m in got] == [m.per_step_time for m in want]
        assert [m.valid for m in got] == [m.valid for m in want]
        # noise + clock charged from the *local* env, identically to serial
        assert remote_env.env_time == local_env.env_time
        assert remote_env.num_evaluations == local_env.num_evaluations

    @pytest.mark.parametrize("lanes", [SWEEP_MIN_LANES - 1, SWEEP_MIN_LANES])
    def test_sweep_rule_matches_per_placement_reference(self, server, lanes, monkeypatch):
        """A batch's misses run one pool task each below SWEEP_MIN_LANES
        and one swept chunk from it; both sides land == per-placement
        evaluation."""
        remote_env = _env(seed=3)
        reference = PerPlacementBackend(_env(seed=3))
        placements = _placements(remote_env, lanes, seed=5)
        want = reference.evaluate_batch(placements)
        spy = SideSpy(monkeypatch)
        with RemoteBackend(remote_env, server.address, timeout=10.0) as remote:
            got = remote.evaluate_batch(placements)
        assert [m.per_step_time for m in got] == [m.per_step_time for m in want]
        assert [m.env_time_charged for m in got] == [m.env_time_charged for m in want]
        assert remote_env.env_time == reference.environment.env_time
        swept = lanes >= SWEEP_MIN_LANES
        assert (spy.sweeps, spy.scalar) == ((1, 0) if swept else (0, lanes))
        stats = server.stats()
        assert stats["simulations"] == lanes
        assert stats["batch_lanes"] == (lanes if swept else 0)

    def test_oom_raw_survives_the_wire(self):
        tiny = Topology.default_4gpu(num_gpus=2, gpu_memory_bytes=1 << 10)
        with MeasurementServer(
            _env(seed=0, topology=tiny), port=0, workers=1
        ) as srv:
            srv.start()
            remote_env, local_env = (
                _env(seed=5, topology=tiny),
                _env(seed=5, topology=tiny),
            )
            gpu = tiny.gpu_indices()[0]
            p = np.full(remote_env.graph.num_ops, gpu, dtype=np.int64)
            with RemoteBackend(remote_env, srv.address, timeout=10.0) as remote:
                (got,) = remote.evaluate_batch([p])
            (want,) = SerialBackend(local_env).evaluate_batch([p])
            assert not got.valid and not want.valid
            assert got.per_step_time == want.per_step_time

    def test_search_is_bit_for_bit_identical_to_local(self, server):
        def run(backend_for, policy=None):
            env = _env(seed=11)
            agent = PostAgent(env.graph, env.num_devices, num_groups=4, seed=11)
            config = SearchConfig(max_samples=12, minibatch_size=6)
            backend = backend_for(env)
            try:
                return PlacementSearch(
                    agent, env, "ppo", config, backend=backend, policy=policy
                ).run()
            finally:
                backend.close()

        # The remote run uses the resilient policy path (per-placement
        # evaluation + prepare_batch prefetch); the golden run is the plain
        # serial fast path.  Identical seeds must give identical results.
        remote = run(
            lambda env: RemoteBackend(env, server.address, timeout=10.0),
            policy=EvaluationPolicy(max_retries=2),
        )
        golden = run(SerialBackend)
        assert remote.best_time == golden.best_time
        assert remote.final_time == golden.final_time
        assert np.array_equal(remote.best_placement, golden.best_placement)
        assert remote.history.per_step_time == golden.history.per_step_time
        assert remote.history.env_time == golden.history.env_time
        assert remote.num_faults == 0

    def test_prepare_batch_prefetches_one_rpc(self, server):
        env = _env(seed=2)
        placements = _placements(env, 5, seed=4)
        with RemoteBackend(env, server.address, timeout=10.0) as remote:
            remote.prepare_batch(placements)
            assert remote.num_rpc_batches == 1
            for p in placements:
                remote.evaluate_batch([p])
            assert remote.num_prefetch_hits == len(placements)
            assert remote.num_rpc_batches == 1  # no extra round trips

    def test_duplicate_placements_fetched_once(self, server):
        env = _env(seed=2)
        p = _placements(env, 1, seed=8)[0]
        with RemoteBackend(env, server.address, timeout=10.0) as remote:
            measurements = remote.evaluate_batch([p, p, p])
            assert remote.num_requests == 1  # deduped client-side
        # still three *distinct* committed measurements (independent noise)
        assert len({m.per_step_time for m in measurements}) == 3


# ---------------------------------------------------------------------- #
class TestSharedCache:
    def test_concurrent_clients_share_the_memo_cache(self, server):
        placements = _placements(_env(), 6, seed=3)
        barrier = threading.Barrier(2)
        errors = []

        def client(seed):
            try:
                env = _env(seed=seed)
                with RemoteBackend(env, server.address, timeout=10.0) as remote:
                    barrier.wait(timeout=10.0)
                    remote.evaluate_batch(placements)
                    remote.evaluate_batch(placements)  # round 2: all hits
            except Exception as exc:  # surface into the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(s,)) for s in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        stats = server.stats()
        # 6 unique placements, 24 requests over two rounds per client.
        # Round-1 lookups may *race* (both clients miss the same placement
        # before either insert lands), so the only deterministic bounds
        # are: every round-2 request hits, and at least one client's
        # round-1 misses populated the shared table.
        assert stats["memo_hits"] >= 12.0
        assert 6.0 <= stats["memo_misses"] <= 12.0
        assert stats["memo_hits"] + stats["memo_misses"] == 24.0

    def test_stats_rpc_reports_cache_and_service_counters(self, server):
        env = _env(seed=1)
        with RemoteBackend(env, server.address, timeout=10.0) as remote:
            remote.evaluate_batch(_placements(env, 3, seed=0))
            stats = remote.remote_stats()
        assert stats["memo_misses"] == 3.0
        assert stats["memo_hits"] == 0.0
        assert stats["workers"] == 2.0
        assert stats["repro_service_connections_total"] >= 1.0
        assert stats["repro_service_requests_total"] >= 1.0


# ---------------------------------------------------------------------- #
class TestFaultTranslation:
    def test_connection_refused_is_a_crash_fault(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        env = _env()
        backend = RemoteBackend(env, f"127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(EvaluationFault) as ei:
            backend.evaluate_batch(_placements(env, 1))
        assert ei.value.kind == "crash"
        assert env.num_evaluations == 0  # nothing committed

    def test_server_killed_mid_session_surfaces_as_fault(self, server):
        env = _env(seed=6)
        remote = RemoteBackend(env, server.address, timeout=5.0)
        remote.evaluate_batch(_placements(env, 2, seed=1))  # healthy first
        clock_before = env.env_time
        server.close()
        with pytest.raises(EvaluationFault) as ei:
            remote.evaluate_batch(_placements(env, 2, seed=2))
        assert ei.value.kind in ("crash", "straggler")
        # the half-finished batch committed nothing: clock untouched
        assert env.env_time == clock_before
        remote.close()

    def test_search_quarantines_when_server_dies(self, server):
        """A killed server must degrade the search, not hang or abort it."""
        env = _env(seed=13)
        agent = PostAgent(env.graph, env.num_devices, num_groups=4, seed=13)
        config = SearchConfig(max_samples=12, minibatch_size=6)
        backend = RemoteBackend(env, server.address, timeout=2.0)
        policy = EvaluationPolicy(max_retries=1, backoff_base=0.1)

        class Killer(SearchCallback):
            def __init__(self):
                self.fired = False

            def on_measurement(self, engine, sample, measurement):
                if not self.fired and engine.num_samples >= 3:
                    self.fired = True
                    server.close()

        search = PlacementSearch(
            agent, env, "ppo", config,
            backend=backend, policy=policy, callbacks=[Killer()],
        )
        try:
            result = search.run()
        finally:
            backend.close()
        assert result.num_quarantined > 0
        assert result.num_faults == result.num_retries + result.num_quarantined
        # every sample after the kill was quarantined, none hung the search
        assert result.num_samples == config.max_samples


# ---------------------------------------------------------------------- #
class TestHandshake:
    def test_protocol_version_mismatch_rejected(self, server, monkeypatch):
        # A client whose whole version *range* is above the server's must
        # be refused — negotiation only bridges overlapping ranges.
        from repro.service import client as client_mod

        monkeypatch.setattr(client_mod, "PROTOCOL_VERSION", 999)
        monkeypatch.setattr(client_mod, "MIN_PROTOCOL_VERSION", 999)
        with pytest.raises(HandshakeError, match="version mismatch"):
            RemoteBackend(_env(), server.address, timeout=5.0).evaluate_batch(
                _placements(_env(), 1)
            )

    def test_version_ranges_negotiate_down(self, server, monkeypatch):
        # A future client still speaking v1..v999 lands on the server's max.
        from repro.service import client as client_mod
        from repro.service.protocol import PROTOCOL_VERSION as SERVER_MAX

        monkeypatch.setattr(client_mod, "PROTOCOL_VERSION", 999)
        env = _env()
        with RemoteBackend(env, server.address, timeout=5.0) as remote:
            conn = remote._borrow()
            try:
                assert conn.version == SERVER_MAX
                assert isinstance(conn.session, str)
            finally:
                conn.close()

    def test_fingerprint_mismatch_rejected(self, server):
        other_graph = build_random_layered(num_layers=6, width=5, seed=8)
        env = _env(graph=other_graph)
        backend = RemoteBackend(env, server.address, timeout=5.0)
        with pytest.raises(HandshakeError, match="fingerprint mismatch"):
            backend.evaluate_batch(_placements(env, 1))

    def test_handshake_error_is_not_an_evaluation_fault(self):
        # misconfiguration must bypass the retry policy entirely
        assert not issubclass(HandshakeError, EvaluationFault)

    def test_first_message_must_be_hello(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        try:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            protocol.write_message(wfile, {"op": "stats"})
            reply = protocol.read_message(rfile)
            assert reply == {
                "ok": False,
                "error": "first message must be 'hello'",
                "kind": "protocol",
            }
            assert protocol.read_message(rfile) is None  # server hung up
        finally:
            sock.close()

    def test_unknown_op_keeps_session_alive(self, server):
        env = _env()
        with RemoteBackend(env, server.address, timeout=5.0) as remote:
            conn = remote._borrow()
            try:
                reply = conn.request({"op": "frobnicate"})
                assert reply["ok"] is False and "unknown op" in reply["error"]
                # the session survives a bad request
                assert conn.request({"op": "stats"})["ok"] is True
            finally:
                conn.close()


# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_shutdown_rpc_stops_the_server(self, server):
        env = _env()
        remote = RemoteBackend(env, server.address, timeout=5.0)
        remote.shutdown_server()
        remote.close()
        # the listener is gone: fresh connections now fail as faults
        fresh = RemoteBackend(env, server.address, timeout=2.0)
        with pytest.raises(EvaluationFault):
            fresh.evaluate_batch(_placements(env, 1))

    def test_close_is_idempotent(self, server):
        server.close()
        server.close()

    def test_backend_refuses_use_after_close(self, server):
        env = _env()
        remote = RemoteBackend(env, server.address, timeout=5.0)
        remote.close()
        with pytest.raises(RuntimeError, match="closed"):
            remote.evaluate_batch(_placements(env, 1))

    def test_memo_warm_start(self, tmp_path, server):
        env = _env(seed=1)
        placements = _placements(env, 4, seed=9)
        with RemoteBackend(env, server.address, timeout=10.0) as remote:
            remote.evaluate_batch(placements)
        path = str(tmp_path / "memo.json")
        server.memo.save(path)
        server.close()
        with MeasurementServer(_env(seed=50), port=0, workers=1, memo_path=path) as warm:
            warm.start()
            env2 = _env(seed=2)
            with RemoteBackend(env2, warm.address, timeout=10.0) as remote:
                remote.evaluate_batch(placements)
            assert warm.stats()["memo_hits"] == 4.0


# ---------------------------------------------------------------------- #
@pytest.mark.slow
class TestSoak:
    def test_many_concurrent_searches_stay_deterministic(self):
        """Four concurrent remote searches == four local serial searches."""
        with MeasurementServer(_env(seed=0), port=0, workers=4) as server:
            server.start()
            results = {}

            def run_remote(seed):
                env = _env(seed=seed)
                agent = PostAgent(env.graph, env.num_devices, num_groups=4, seed=seed)
                config = SearchConfig(max_samples=24, minibatch_size=8)
                with RemoteBackend(env, server.address, timeout=30.0) as backend:
                    results[seed] = PlacementSearch(
                        agent, env, "ppo", config,
                        backend=backend, policy=EvaluationPolicy(max_retries=2),
                    ).run()

            seeds = (0, 1, 2, 3)
            threads = [threading.Thread(target=run_remote, args=(s,)) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert set(results) == set(seeds)
            stats = server.stats()
            assert stats["memo_hits"] > 0  # the fleet actually amortised work

        for seed in seeds:
            env = _env(seed=seed)
            agent = PostAgent(env.graph, env.num_devices, num_groups=4, seed=seed)
            config = SearchConfig(max_samples=24, minibatch_size=8)
            golden = PlacementSearch(
                agent, env, "ppo", config, backend=SerialBackend(env)
            ).run()
            assert results[seed].best_time == golden.best_time
            assert results[seed].history.per_step_time == golden.history.per_step_time
