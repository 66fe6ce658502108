"""Multi-tenant server behaviour: adoption, codes, equivalence, metrics."""

import socket
import threading

import numpy as np
import pytest

from repro import MeasurementServer, PlacementEnvironment, RemoteBackend, SerialBackend
from repro.graph.models.random_graphs import build_random_layered
from repro.service import protocol
from repro.service.client import migrate_space_request
from repro.service.protocol import HandshakeError
from repro.service.tenancy import SpaceSpec
from repro.sim import Topology
from repro.sim.batch import SWEEP_MIN_LANES

from .test_service import _env, _placements


def _tenant_env(seed=0, graph_seed=11):
    graph = build_random_layered(num_layers=4, width=4, seed=graph_seed)
    return PlacementEnvironment(
        graph, Topology.default_4gpu(num_gpus=2), seed=seed
    )


@pytest.fixture
def server():
    srv = MeasurementServer(multi_tenant=True, port=0, workers=2).start()
    yield srv
    srv.close()


class TestSpaceAdoption:
    def test_offered_space_is_adopted(self, server):
        env = _tenant_env()
        backend = RemoteBackend(env, server.address, offer_space=True, timeout=10.0)
        try:
            results = backend.evaluate_batch(_placements(env, 4))
            assert len(results) == 4
            assert len(server.registry) == 1
        finally:
            backend.close()

    def test_unknown_fingerprint_without_offer_is_refused(self, server):
        env = _tenant_env()
        backend = RemoteBackend(env, server.address, timeout=10.0)
        with pytest.raises(HandshakeError, match="fingerprint mismatch") as exc:
            backend.evaluate_batch(_placements(env, 1))
        assert exc.value.code == "unknown_fingerprint"

    def test_single_tenant_server_refuses_foreign_space(self):
        srv = MeasurementServer(_env(seed=1), port=0, workers=2).start()
        try:
            env = _tenant_env()
            backend = RemoteBackend(env, srv.address, offer_space=True, timeout=10.0)
            with pytest.raises(HandshakeError) as exc:
                backend.evaluate_batch(_placements(env, 1))
            assert exc.value.code == "unknown_fingerprint"
        finally:
            srv.close()

    def test_many_tenants_coexist_with_isolated_memos(self, server):
        envs = [_tenant_env(graph_seed=s) for s in (21, 22, 23)]
        for env in envs:
            backend = RemoteBackend(env, server.address, offer_space=True, timeout=10.0)
            try:
                backend.evaluate_batch(_placements(env, 3))
                backend.evaluate_batch(_placements(env, 3))  # same → memo hits
            finally:
                backend.close()
        assert len(server.registry) == 3
        for space in server.registry.snapshot():
            stats = space.stats()
            assert stats["simulations"] == 3.0
            assert stats["memo_hits"] >= 3.0


class TestHandshakeCodes:
    def test_version_range_code(self, server):
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=10.0)
        try:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            protocol.write_message(wfile, {
                "op": "hello", "version": 999, "min_version": 999,
                "fingerprint": "irrelevant",
            })
            reply = protocol.read_message(rfile)
            assert not reply["ok"]
            assert reply["code"] == "version_range"
            assert "version mismatch" in reply["error"]
        finally:
            sock.close()

    def test_space_loading_code(self, server, tmp_path):
        env = _tenant_env()
        fingerprint = SpaceSpec.from_environment(env).fingerprint
        server.registry.spaces_dir = str(tmp_path)
        (tmp_path / f"{fingerprint}.space.json").write_text("{}")
        server.registry._loading.add(fingerprint)
        try:
            backend = RemoteBackend(env, server.address, timeout=10.0)
            with pytest.raises(HandshakeError, match="loading") as exc:
                backend.evaluate_batch(_placements(env, 1))
            assert exc.value.code == "space_loading"
        finally:
            server.registry._loading.discard(fingerprint)

    def test_space_loading_is_retried_until_it_clears(self, server, tmp_path):
        """A transient ``space_loading`` refusal rides the reconnect
        budget: once the loader finishes, the handshake succeeds and the
        client reports how many retries it spent waiting."""
        env = _tenant_env()
        fingerprint = SpaceSpec.from_environment(env).fingerprint
        server.registry.spaces_dir = str(tmp_path)
        spec_file = tmp_path / f"{fingerprint}.space.json"
        spec_file.write_text("{}")
        server.registry._loading.add(fingerprint)

        def finish_loading():
            spec_file.unlink()
            server.registry._loading.discard(fingerprint)

        timer = threading.Timer(0.2, finish_loading)
        timer.start()
        try:
            backend = RemoteBackend(
                env, server.address, offer_space=True, timeout=10.0,
                reconnect_attempts=8, backoff_base=0.05, backoff_jitter=0.0,
            )
            try:
                results = backend.evaluate_batch(_placements(env, 2))
                assert len(results) == 2
                assert backend.stats()["loading_retries"] >= 1.0
            finally:
                backend.close()
        finally:
            timer.cancel()
            server.registry._loading.discard(fingerprint)

    @pytest.mark.parametrize("sweep", [False, True])
    def test_concurrent_same_placement_simulates_once(self, sweep):
        """Singleflight: two clients racing batches that share placements
        must never simulate a placement twice — the memo dedupes landed
        results, the pending-simulation table dedupes in-flight ones.
        Whatever the interleaving, simulations == distinct placements.
        Each batch sits on one side of SWEEP_MIN_LANES, so its misses run
        one pool task each or one swept chunk."""
        server = MeasurementServer(multi_tenant=True, port=0, workers=2).start()
        env = _tenant_env()
        size = SWEEP_MIN_LANES if sweep else SWEEP_MIN_LANES - 1
        common = _placements(env, 3, seed=9)
        batch_a = _placements(env, size - 3, seed=2) + common
        batch_b = common + _placements(env, size - 3, seed=3)
        distinct = {
            np.asarray(p, dtype=np.int64).tobytes()
            for p in batch_a + batch_b
        }
        backends = [
            RemoteBackend(_tenant_env(), server.address,
                          offer_space=True, timeout=10.0)
            for _ in range(2)
        ]
        results = [None, None]
        threads = [
            threading.Thread(
                target=lambda i=i, batch=batch: results.__setitem__(
                    i, backends[i].evaluate_batch(batch)
                )
            )
            for i, batch in enumerate((batch_a, batch_b))
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results[0]) == len(batch_a)
            assert len(results[1]) == len(batch_b)
            assert server.num_simulations == len(distinct)
            assert server._pending_sims == {}
            # The first batch to reach the server misses on all of its lanes.
            if sweep:
                assert server.batch_lanes >= SWEEP_MIN_LANES
            else:
                assert server.batch_lanes == 0
            stats = server.registry.snapshot()[0].stats()
            assert stats["memo_entries"] == float(len(distinct))
        finally:
            for backend in backends:
                backend.close()
            server.close()

    def test_code_is_none_from_refusals_without_one(self):
        # a pre-v3 refusal (no "code" field) must surface code=None
        err = HandshakeError("refused")
        assert err.code is None


class TestGoldenEquivalence:
    def test_multi_tenant_remote_matches_serial(self, server):
        """The acceptance bar: a search against a multi-tenant server is
        bit-for-bit the same trajectory as a local SerialBackend run."""
        remote_env, local_env = _tenant_env(seed=3), _tenant_env(seed=3)
        remote = RemoteBackend(remote_env, server.address, offer_space=True, timeout=10.0)
        serial = SerialBackend(local_env)
        try:
            placements = _placements(remote_env, 8, seed=1)
            got = remote.evaluate_batch(placements)
            want = serial.evaluate_batch(placements)
            for g, w in zip(got, want):
                assert g.per_step_time == w.per_step_time
                assert g.valid == w.valid
            assert remote_env.env_time == local_env.env_time
        finally:
            remote.close()

    def test_batch_of_one_matches_serial(self, server):
        remote_env, local_env = _tenant_env(seed=4), _tenant_env(seed=4)
        remote = RemoteBackend(remote_env, server.address, offer_space=True, timeout=10.0)
        serial = SerialBackend(local_env)
        try:
            placement = _placements(remote_env, 1, seed=2)[0]
            [got] = remote.evaluate_batch([placement])
            [want] = serial.evaluate_batch([placement])
            assert got.per_step_time == want.per_step_time
            assert remote_env.env_time == local_env.env_time
            assert remote.stats()["rpc_batches"] == 1.0
        finally:
            remote.close()


class TestSpacesOp:
    def test_remote_spaces_lists_tenants(self, server):
        envs = [_tenant_env(graph_seed=s) for s in (31, 32)]
        backends = [
            RemoteBackend(env, server.address, offer_space=True, timeout=10.0)
            for env in envs
        ]
        try:
            backends[0].evaluate_batch(_placements(envs[0], 2))
            backends[1].evaluate_batch(_placements(envs[1], 2))
            spaces = backends[0].remote_spaces()
            assert len(spaces) == 2
            fingerprints = {space["fingerprint"] for space in spaces}
            for env in envs:
                assert SpaceSpec.from_environment(env).fingerprint in fingerprints
        finally:
            for backend in backends:
                backend.close()


class TestPerSpaceMetrics:
    def test_metrics_have_space_labels_and_single_type_lines(self, server):
        envs = [_tenant_env(graph_seed=s) for s in (41, 42)]
        for env in envs:
            backend = RemoteBackend(env, server.address, offer_space=True, timeout=10.0)
            try:
                backend.evaluate_batch(_placements(env, 2))
            finally:
                backend.close()
        text = server.render_metrics()
        lines = text.splitlines()
        # exactly one TYPE declaration per metric family
        type_lines = [l for l in lines if l.startswith("# TYPE ")]
        families = [l.split()[2] for l in type_lines]
        assert len(families) == len(set(families))
        assert all("{" not in family for family in families)
        # per-space series carry a space label with the fingerprint prefix
        for env in envs:
            fp12 = SpaceSpec.from_environment(env).fingerprint[:12]
            assert f'repro_space_simulations_total{{space="{fp12}"}} 2' in text
            assert f'repro_space_sessions{{space="{fp12}"}}' in text
        assert "repro_service_spaces_hosted 2" in text

    def test_single_tenant_metrics_still_render(self):
        srv = MeasurementServer(_env(seed=5), port=0, workers=2).start()
        try:
            text = srv.render_metrics()
            assert "repro_service_spaces_hosted 1" in text
            assert 'repro_space_sessions{space="' in text
        finally:
            srv.close()


class TestMigratePushTarget:
    def test_malformed_target_is_refused_before_draining(self, server):
        """A push to an undialable target answers a structured refusal on
        a connection that stays open, and the space keeps serving."""
        env = _tenant_env()
        backend = RemoteBackend(env, server.address, offer_space=True, timeout=10.0)
        try:
            backend.evaluate_batch(_placements(env, 2))
            host, port = server.address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10.0) as sock:
                rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
                for target in ("127.0.0.1:notaport", "127.0.0.1:"):
                    request = migrate_space_request(backend.fingerprint, target=target)
                    protocol.write_message(wfile, request)
                    reply = protocol.read_message(rfile)
                    assert reply is not None and reply["ok"] is False
                    assert reply["kind"] == "protocol"
                    assert "host:port" in reply["error"]
                protocol.write_message(wfile, {"op": "ping"})
                assert protocol.read_message(rfile)["state"] == "serving"
            assert backend.fingerprint in server.registry
            backend.evaluate_batch(_placements(env, 2, seed=1))
            assert backend.stats()["faults"] == 0.0
        finally:
            backend.close()
