"""Router tier: hash-ring determinism, routing, failover, admin stats,
live membership (join/leave), and space migration."""

import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MeasurementServer, RemoteBackend, SerialBackend
from repro.service import protocol
from repro.service.protocol import HandshakeError, ProtocolError
from repro.service.router import (
    RING_STATES,
    HashRing,
    RouterServer,
    _RouterHandler,
    fetch_router_membership,
    fetch_router_stats,
    router_admin,
)
from repro.service.tenancy import SpaceSpec

from .test_multitenant import _tenant_env
from .test_service import _env, _placements


@pytest.fixture
def fleet():
    servers = [
        MeasurementServer(multi_tenant=True, port=0, workers=2).start()
        for _ in range(2)
    ]
    router = RouterServer([s.address for s in servers]).start()
    yield servers, router
    router.close()
    for server in servers:
        server.close()


def _dead_address():
    """A host:port nothing listens on (reserved then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


class TestHashRing:
    BACKENDS = ["10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"]

    def test_lookup_is_deterministic_across_instances(self):
        a, b = HashRing(self.BACKENDS), HashRing(self.BACKENDS)
        for key in (f"fp{i}" for i in range(200)):
            assert a.lookup(key) == b.lookup(key)

    def test_ordered_walk_visits_every_backend_once(self):
        ring = HashRing(self.BACKENDS)
        walk = ring.ordered("some-fingerprint")
        assert sorted(walk) == sorted(self.BACKENDS)
        assert walk[0] == ring.lookup("some-fingerprint")

    def test_keys_spread_across_backends(self):
        ring = HashRing(self.BACKENDS)
        owners = {ring.lookup(f"fp{i}") for i in range(200)}
        assert owners == set(self.BACKENDS)

    def test_removing_a_backend_remaps_only_its_keys(self):
        full = HashRing(self.BACKENDS)
        smaller = HashRing(self.BACKENDS[:-1])
        keys = [f"fp{i}" for i in range(300)]
        moved = sum(
            1
            for k in keys
            if full.lookup(k) != smaller.lookup(k)
            and full.lookup(k) != self.BACKENDS[-1]
        )
        # consistent hashing: keys not owned by the removed backend stay put
        assert moved == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one backend"):
            HashRing([])
        with pytest.raises(ValueError, match="duplicate"):
            HashRing(["a:1", "a:1"])
        with pytest.raises(ValueError, match="replicas"):
            HashRing(["a:1"], replicas=0)
        with pytest.raises(ValueError, match="host:port"):
            HashRing(["no-port"])


@st.composite
def _random_rings(draw):
    """A small ring with random membership and random health states."""
    ports = sorted(draw(st.sets(st.integers(0, 4000), min_size=1, max_size=8)))
    backends = [f"10.0.0.1:{7000 + p}" for p in ports]
    ring = HashRing(backends, replicas=8)
    for backend in backends:
        ring.set_state(backend, draw(st.sampled_from(RING_STATES)))
    return ring


class TestRingMembership:
    BACKENDS = TestHashRing.BACKENDS

    def test_incremental_add_matches_rebuilt_ring(self):
        ring = HashRing(self.BACKENDS[:2])
        ring.add_backend(self.BACKENDS[2])
        fresh = HashRing(self.BACKENDS)
        for key in (f"fp{i}" for i in range(300)):
            assert ring.lookup(key) == fresh.lookup(key)
            assert ring.ordered(key) == fresh.ordered(key)

    def test_incremental_remove_matches_rebuilt_ring(self):
        ring = HashRing(self.BACKENDS)
        ring.remove_backend(self.BACKENDS[1])
        fresh = HashRing([self.BACKENDS[0], self.BACKENDS[2]])
        for key in (f"fp{i}" for i in range(300)):
            assert ring.lookup(key) == fresh.lookup(key)

    def test_add_remaps_about_one_over_n(self):
        ring = HashRing(self.BACKENDS[:2])
        keys = [f"fp{i}" for i in range(400)]
        before = {k: ring.lookup(k) for k in keys}
        ring.add_backend(self.BACKENDS[2])
        moved = [k for k in keys if ring.lookup(k) != before[k]]
        # every moved key moved ONTO the new backend (nothing reshuffles
        # between the survivors), and roughly 1/3 of the keyspace moved
        assert all(ring.lookup(k) == self.BACKENDS[2] for k in moved)
        assert 0 < len(moved) < len(keys) // 2

    def test_membership_validation(self):
        ring = HashRing(self.BACKENDS)
        with pytest.raises(ValueError, match="already in the ring"):
            ring.add_backend(self.BACKENDS[0])
        with pytest.raises(ValueError, match="host:port"):
            ring.add_backend("no-port")
        with pytest.raises(ValueError, match="unknown backend"):
            ring.remove_backend("10.9.9.9:1")
        small = HashRing(["a:1"])
        with pytest.raises(ValueError, match="last backend"):
            small.remove_backend("a:1")

    def test_down_backend_is_routed_around(self):
        ring = HashRing(self.BACKENDS)
        keys = [f"fp{i}" for i in range(200)]
        victim = ring.lookup(keys[0])
        assert ring.set_state(victim, "down") == "up"
        assert ring.state(victim) == "down"
        for key in keys:
            assert ring.lookup(key) != victim
        # suspect still takes traffic; recovery restores ownership
        assert ring.set_state(victim, "up") == "down"
        assert ring.lookup(keys[0]) == victim

    def test_state_validation(self):
        ring = HashRing(self.BACKENDS)
        with pytest.raises(ValueError, match="unknown ring state"):
            ring.set_state(self.BACKENDS[0], "zombie")
        with pytest.raises(ValueError, match="unknown backend"):
            ring.set_state("10.9.9.9:1", "down")

    @settings(max_examples=200, deadline=None)
    @given(ring=_random_rings(), key=st.text(min_size=1, max_size=32))
    def test_lookup_is_ordered_head(self, ring, key):
        """The satellite property: for any ring and any key, the failover
        walk's head IS the lookup answer, and the walk visits every
        backend exactly once (virtual-node collisions deduplicated)."""
        walk = ring.ordered(key)
        assert walk[0] == ring.lookup(key)
        assert sorted(walk) == sorted(ring.backends)


class TestRouting:
    def test_tenants_land_on_their_ring_owner(self, fleet):
        servers, router = fleet
        by_address = {s.address: s for s in servers}
        envs = [_tenant_env(graph_seed=s) for s in (51, 52, 53)]
        for env in envs:
            backend = RemoteBackend(env, router.address, offer_space=True, timeout=10.0)
            try:
                backend.evaluate_batch(_placements(env, 2))
            finally:
                backend.close()
            fingerprint = SpaceSpec.from_environment(env).fingerprint
            owner = by_address[router.ring.lookup(fingerprint)]
            assert fingerprint in owner.registry

    def test_results_through_router_match_serial(self, fleet):
        _, router = fleet
        remote_env, local_env = _tenant_env(seed=7), _tenant_env(seed=7)
        remote = RemoteBackend(remote_env, router.address, offer_space=True, timeout=10.0)
        serial = SerialBackend(local_env)
        try:
            placements = _placements(remote_env, 6, seed=3)
            got = remote.evaluate_batch(placements)
            want = serial.evaluate_batch(placements)
            assert [m.per_step_time for m in got] == [m.per_step_time for m in want]
            assert remote_env.env_time == local_env.env_time
        finally:
            remote.close()

    def test_handshake_refusal_is_forwarded_verbatim(self):
        # a single-tenant backend refuses a foreign space; the router must
        # surface the structured code, not fail over or mask it
        server = MeasurementServer(_env(seed=1), port=0, workers=1).start()
        router = RouterServer([server.address]).start()
        try:
            env = _tenant_env()
            backend = RemoteBackend(env, router.address, offer_space=True, timeout=10.0)
            with pytest.raises(HandshakeError) as exc:
                backend.evaluate_batch(_placements(env, 1))
            assert exc.value.code == "unknown_fingerprint"
        finally:
            router.close()
            server.close()


def _nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


class TestNoDelay:
    """Every service socket has Nagle off: a streamed multi-line reply
    must not wait on the peer's delayed ACK.  Checked by socket option,
    not by latency."""

    def test_every_socket_of_a_routed_rpc_sets_nodelay(self, fleet, monkeypatch):
        servers, router = fleet
        relayed = []
        pump = _RouterHandler._pump_both

        def recording_pump(handler, up_sock, up_rfile):
            relayed.append((handler.connection, up_sock))
            return pump(handler, up_sock, up_rfile)

        monkeypatch.setattr(_RouterHandler, "_pump_both", recording_pump)
        env = _tenant_env()
        backend = RemoteBackend(env, router.address, offer_space=True, timeout=10.0)
        try:
            backend.evaluate_batch(_placements(env, 3))
            # the pooled connection keeps every leg of the route open
            (conn,) = backend._idle
            assert _nodelay(conn.sock)
            ((client_leg, upstream_leg),) = relayed
            assert _nodelay(client_leg)
            assert _nodelay(upstream_leg)
            accepted = [c for s in servers for c in s._connections]
            assert accepted and all(_nodelay(c) for c in accepted)
        finally:
            backend.close()

    def test_round_trip_socket_sets_nodelay(self, fleet, monkeypatch):
        _, router = fleet
        seen = []
        dial = protocol.connect

        def recording_connect(address, timeout):
            sock = dial(address, timeout)
            seen.append(_nodelay(sock))
            return sock

        monkeypatch.setattr(protocol, "connect", recording_connect)
        assert protocol.round_trip(router.address, {"op": "stats"}, 5.0)["ok"]
        assert seen == [True]


class TestFailover:
    def test_dead_backend_is_walked_past(self):
        live = MeasurementServer(multi_tenant=True, port=0, workers=2).start()
        env = _tenant_env(graph_seed=61)
        fingerprint = SpaceSpec.from_environment(env).fingerprint
        # ring ownership depends on the ephemeral port strings, so draw
        # dead addresses until the tenant's ring owner IS the dead one —
        # otherwise the walk never needs to fail over
        while True:
            dead = _dead_address()
            if HashRing([dead, live.address]).lookup(fingerprint) == dead:
                break
        router = RouterServer([dead, live.address]).start()
        try:
            backend = RemoteBackend(env, router.address, offer_space=True, timeout=10.0)
            try:
                results = backend.evaluate_batch(_placements(env, 3))
                assert len(results) == 3
            finally:
                backend.close()
            stats = fetch_router_stats(router.address)
            # the fingerprint hashed to the dead backend and walked on
            assert stats["dial_failures"] + stats["failovers"] >= 1.0
            assert stats[f"routed[{live.address}]"] >= 1.0
        finally:
            router.close()
            live.close()

    def test_no_live_backend_answers_busy(self):
        router = RouterServer([_dead_address()]).start()
        try:
            env = _tenant_env(graph_seed=62)
            backend = RemoteBackend(env, router.address, offer_space=True, timeout=5.0)
            try:
                with pytest.raises(Exception) as exc:
                    backend.evaluate_batch(_placements(env, 1))
                assert "no live backend" in str(exc.value)
            finally:
                backend.close()
        finally:
            router.close()

    def test_search_survives_backend_death_mid_run(self):
        """Kill the owning backend between batches: the reconnect walks
        the ring to the survivor and the search continues (a fresh
        session — the router is stateless, the *client* owns recovery)."""
        servers = [
            MeasurementServer(multi_tenant=True, port=0, workers=2).start()
            for _ in range(2)
        ]
        router = RouterServer([s.address for s in servers]).start()
        by_address = {s.address: s for s in servers}
        try:
            env = _tenant_env(graph_seed=63)
            fingerprint = SpaceSpec.from_environment(env).fingerprint
            owner = by_address[router.ring.lookup(fingerprint)]
            backend = RemoteBackend(
                env, router.address, offer_space=True, timeout=10.0,
                reconnect_attempts=4, backoff_base=0.01, backoff_jitter=0.0,
            )
            try:
                first = backend.evaluate_batch(_placements(env, 2, seed=1))
                assert len(first) == 2
                owner.close()  # the tenant's home backend dies
                second = backend.evaluate_batch(_placements(env, 2, seed=2))
                assert len(second) == 2
                survivor = next(s for s in servers if s is not owner)
                assert fingerprint in survivor.registry
            finally:
                backend.close()
        finally:
            router.close()
            for server in servers:
                server.close()


class TestAdmin:
    def test_stats_op_answers_router_counters(self, fleet):
        servers, router = fleet
        stats = fetch_router_stats(router.address)
        assert stats["router"] == 1.0
        assert stats["backends"] == 2.0
        for server in servers:
            assert f"routed[{server.address}]" in stats

    def test_connections_are_counted(self, fleet):
        _, router = fleet
        before = fetch_router_stats(router.address)["connections"]
        after = fetch_router_stats(router.address)["connections"]
        assert after > before

    def test_first_message_must_be_hello_or_stats(self, fleet):
        _, router = fleet
        host, port = router.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=5.0)
        try:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            protocol.write_message(wfile, {"op": "evaluate_batch"})
            reply = protocol.read_message(rfile)
            assert not reply["ok"]
            assert "hello" in reply["error"]
        finally:
            sock.close()

    def test_stats_against_a_backend_address_fails_cleanly(self, fleet):
        servers, _ = fleet
        # a measurement server demands hello first — the helper must turn
        # its refusal into a ProtocolError, not a mystery KeyError
        with pytest.raises(ProtocolError, match="router stats failed"):
            fetch_router_stats(servers[0].address)

    def test_membership_op_reports_ring_and_states(self, fleet):
        servers, router = fleet
        membership = fetch_router_membership(router.address)
        assert membership["backends"] == [s.address for s in servers]
        assert membership["states"] == {s.address: "up" for s in servers}

    def test_unknown_admin_op_is_refused(self, fleet):
        _, router = fleet
        with pytest.raises(ProtocolError, match="hello"):
            router_admin(router.address, {"op": "evaluate_batch"}, timeout=5.0)


class TestLiveResize:
    def _populate(self, router_address, graph_seed, n=4):
        env = _tenant_env(graph_seed=graph_seed)
        backend = RemoteBackend(
            env, router_address, offer_space=True, timeout=10.0,
            backoff_base=0.01, backoff_jitter=0.0,
        )
        return env, backend, backend.evaluate_batch(_placements(env, n, seed=1))

    def test_join_then_leave_round_trips_membership(self, fleet):
        servers, router = fleet
        extra = MeasurementServer(multi_tenant=True, port=0, workers=2).start()
        try:
            reply = router_admin(
                router.address, {"op": "join", "backend": extra.address}
            )
            assert extra.address in reply["backends"]
            assert router.ring.state(extra.address) == "up"
            stats = fetch_router_stats(router.address)
            assert stats["joins"] == 1.0
            reply = router_admin(
                router.address, {"op": "leave", "backend": extra.address}
            )
            assert extra.address not in reply["backends"]
            assert fetch_router_stats(router.address)["leaves"] == 1.0
        finally:
            extra.close()

    def test_migrate_op_moves_space_between_backends(self, fleet):
        """The admin ``migrate`` op pushes one space to a chosen backend —
        memo and sessions arrive intact and the source keeps the space's
        counter history in :meth:`migrated_space_stats`."""
        servers, router = fleet
        by_address = {s.address: s for s in servers}
        env, backend, _ = self._populate(router.address, graph_seed=71)
        fingerprint = SpaceSpec.from_environment(env).fingerprint
        old_owner = by_address[router.ring.lookup(fingerprint)]
        target = next(s for s in servers if s is not old_owner)
        try:
            reply = router_admin(
                router.address,
                {"op": "migrate", "fingerprint": fingerprint,
                 "target": target.address},
            )
            assert reply["migrated"] is True
            assert fingerprint in target.registry
            assert fingerprint not in old_owner.registry
            # the old owner keeps the space's counter history
            remembered = old_owner.migrated_space_stats()[fingerprint]
            assert remembered["simulations"] >= 1.0
            adopted = next(
                s for s in target.registry.snapshot()
                if s.fingerprint == fingerprint
            )
            assert adopted.stats()["memo_entries"] >= 1.0
            assert fetch_router_stats(router.address)["migrations"] >= 1.0
        finally:
            backend.close()

    def test_leave_migrates_spaces_with_zero_duplicates(self, fleet):
        """Live downsize: ``leave`` pushes the departing backend's spaces
        to the new ring owners, and replaying the same placements costs
        zero new simulations anywhere in the fleet."""
        servers, router = fleet
        by_address = {s.address: s for s in servers}
        env, backend, first = self._populate(router.address, graph_seed=72)
        fingerprint = SpaceSpec.from_environment(env).fingerprint
        old_owner = by_address[router.ring.lookup(fingerprint)]
        survivor = next(s for s in servers if s is not old_owner)
        try:
            reply = router_admin(
                router.address, {"op": "leave", "backend": old_owner.address}
            )
            assert reply["migrations"] >= 1
            assert fingerprint in survivor.registry
            assert fingerprint not in old_owner.registry
            # the severed client reconnects through the router, lands on
            # the survivor, and replays entirely from the adopted memo
            backend.evaluate_batch(_placements(env, 4, seed=1))
            assert backend.stats()["reconnects"] >= 1.0
            # a fresh client with the same seed commits the same noise
            # stream — migrated memo makes the results bit-for-bit equal
            fresh = RemoteBackend(
                _tenant_env(graph_seed=72), router.address,
                offer_space=True, timeout=10.0,
            )
            try:
                again = fresh.evaluate_batch(_placements(env, 4, seed=1))
            finally:
                fresh.close()
            assert [m.per_step_time for m in again] == [
                m.per_step_time for m in first
            ]
            adopted = next(
                s for s in survivor.registry.snapshot()
                if s.fingerprint == fingerprint
            )
            assert adopted.stats()["simulations"] == 0.0
            assert adopted.stats()["memo_hits"] >= 8.0
        finally:
            backend.close()

    def test_migrate_refuses_unknown_target(self, fleet):
        _, router = fleet
        with pytest.raises(ProtocolError, match="unknown backend"):
            router_admin(
                router.address,
                {"op": "migrate", "fingerprint": "fp", "target": "10.9.9.9:1"},
            )

    def test_standby_apply_membership_never_migrates(self, fleet):
        servers, router = fleet
        standby = RouterServer([servers[0].address]).start()
        try:
            changed = standby.apply_membership(
                [s.address for s in servers],
                {servers[1].address: "suspect"},
            )
            assert changed
            assert standby.backends == [s.address for s in servers]
            assert standby.ring.state(servers[1].address) == "suspect"
            assert standby.stats()["migrations"] == 0.0
            with pytest.raises(ValueError, match="empty backend set"):
                standby.apply_membership([])
        finally:
            standby.close()
