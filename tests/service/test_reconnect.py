"""Session reconnect, replay and self-healing tests (protocol v2).

The properties under test, per DESIGN.md's failure-mode matrix:

* a client that loses its TCP connection mid-batch reconnects with seeded
  backoff, resumes its server-side session, and replays retained results —
  the batch completes with **zero duplicate simulations** (asserted
  against ``MeasurementServer.num_simulations``);
* the server answers explicit ``busy`` / ``deadline`` / ``draining``
  errors instead of hanging or queueing unboundedly, and the client
  translates each into the right :class:`EvaluationFault` kind;
* idle sessions are reaped, retained batches are bounded, and a stale
  batch id with different placements is never replayed (digest guard).
"""

import socket
import threading

import pytest

from repro import MeasurementServer, RemoteBackend, SerialBackend
from repro.service import protocol
from repro.service.sessions import SessionRegistry
from repro.sim import EvaluationFault

from .test_service import _env, _placements


@pytest.fixture
def server():
    srv = MeasurementServer(_env(seed=99), port=0, workers=2).start()
    yield srv
    srv.close()


def _backend(server, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("backoff_base", 0.0)  # keep tests instant
    return RemoteBackend(_env(seed=0), server.address, **kwargs)


class _RawClient:
    """A bare protocol speaker for poking the server directly."""

    def __init__(self, server, fingerprint=None):
        host, port = server.address.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=10.0)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")
        reply = self.request({
            "op": "hello",
            "version": protocol.PROTOCOL_VERSION,
            "min_version": protocol.PROTOCOL_VERSION,
            "fingerprint": fingerprint or server.fingerprint,
        })
        assert reply["ok"], reply
        self.session = reply["session"]

    def send(self, message):
        protocol.write_message(self.wfile, message)

    def recv(self):
        return protocol.read_message(self.rfile)

    def request(self, message):
        self.send(message)
        return self.recv()

    def submit_batch(self, placements, batch_id):
        reply = self.request({
            "op": "evaluate_batch",
            "placements": protocol.encode_placements(placements),
            "batch": batch_id,
        })
        assert reply["ok"], reply
        return [self.recv() for _ in placements]

    def close(self):
        self.sock.close()


# ---------------------------------------------------------------------- #
class TestSessionOps:
    def test_ping_reports_serving_then_draining(self, server):
        backend = _backend(server)
        try:
            assert backend.ping() == "serving"
            server.draining.set()
            assert backend.ping() == "draining"
        finally:
            backend.close()

    def test_resume_unknown_session_is_a_session_error(self, server):
        client = _RawClient(server)
        try:
            reply = client.request({"op": "resume", "session": "s999"})
            assert not reply["ok"]
            assert reply["kind"] == "session"
        finally:
            client.close()

    def test_resume_reattaches_another_connections_session(self, server):
        first = _RawClient(server)
        second = _RawClient(server)
        try:
            assert first.session != second.session
            reply = second.request({"op": "resume", "session": first.session})
            assert reply["ok"] and reply["session"] == first.session
            assert reply["retained"] == []
        finally:
            first.close()
            second.close()


class TestReplay:
    def test_same_batch_id_replays_without_resimulating(self, server):
        env = _env(seed=99)
        placements = _placements(env, 3, seed=1)
        client = _RawClient(server)
        try:
            results = client.submit_batch(placements, batch_id=0)
            assert all(r["ok"] and "raw" in r for r in results)
            baseline = server.num_simulations
            assert baseline == 3

            replayed = client.submit_batch(placements, batch_id=0)
            assert server.num_simulations == baseline  # zero duplicate work
            assert all(r.get("replayed") for r in replayed)
            by_ticket = lambda rs: {r["ticket"]: r["raw"] for r in rs}
            assert by_ticket(replayed) == by_ticket(results)
        finally:
            client.close()

    def test_replay_after_connection_drop_mid_stream(self, server):
        env = _env(seed=99)
        placements = _placements(env, 4, seed=2)
        first = _RawClient(server)
        # Submit, read the ticket reply, then vanish before any result.
        reply = first.request({
            "op": "evaluate_batch",
            "placements": protocol.encode_placements(placements),
            "batch": 7,
        })
        assert reply["ok"]
        session = first.session
        first.close()

        # Worker futures finish into the retained record regardless.
        done = threading.Event()
        for _ in range(200):
            if server.num_simulations >= 4:
                done.set()
                break
            threading.Event().wait(0.05)
        assert done.is_set()
        baseline = server.num_simulations

        second = _RawClient(server)
        try:
            resumed = second.request({"op": "resume", "session": session})
            assert resumed["ok"] and 7 in resumed["retained"]
            results = second.submit_batch(placements, batch_id=7)
            assert {r["ticket"] for r in results} == {0, 1, 2, 3}
            assert all(r["ok"] and "raw" in r for r in results)
            assert server.num_simulations == baseline  # nothing re-ran
        finally:
            second.close()

    def test_stale_batch_id_with_different_placements_is_not_replayed(self, server):
        env = _env(seed=99)
        client = _RawClient(server)
        try:
            client.submit_batch(_placements(env, 2, seed=3), batch_id=1)
            baseline = server.num_simulations
            # Same id, different content: the digest guard must re-evaluate.
            fresh = client.submit_batch(_placements(env, 2, seed=4), batch_id=1)
            assert not any(r.get("replayed") for r in fresh)
            assert server.num_simulations == baseline + 2
        finally:
            client.close()


# ---------------------------------------------------------------------- #
class TestBackendReconnect:
    def test_batch_survives_connection_drop_with_zero_duplicates(self, server):
        """The acceptance property: a RemoteBackend batch that loses TCP
        mid-flight completes after reconnecting, results identical to a
        serial run, with zero duplicate server-side simulations."""
        sleeps = []
        backend = _backend(
            server, reconnect_attempts=3,
            backoff_base=0.001, backoff_jitter=0.0, sleep=sleeps.append,
        )
        env = _env(seed=0)
        placements = _placements(env, 5, seed=5)
        try:
            conn = backend._borrow()  # handshakes; adopts the session
            original_recv = conn.recv
            state = {"calls": 0}

            def dropping_recv():
                state["calls"] += 1
                if state["calls"] == 2:  # tickets arrived; first result line
                    conn.sock.close()
                    raise ConnectionResetError("injected mid-stream drop")
                return original_recv()

            conn.recv = dropping_recv
            backend._release(conn)

            measurements = backend.evaluate_batch(placements)

            serial_env = _env(seed=0)
            expected = SerialBackend(serial_env).evaluate_batch(placements)
            assert [m.per_step_time for m in measurements] == [
                m.per_step_time for m in expected
            ]
            assert [m.env_time_charged for m in measurements] == [
                m.env_time_charged for m in expected
            ]
            assert backend.environment.env_time == serial_env.env_time
            assert server.num_simulations == 5  # at-most-once: no re-runs
            assert backend.num_session_resumes == 1
            assert backend.num_replayed >= 1
            assert sleeps == pytest.approx([0.001])  # one backoff, then re-dial
        finally:
            backend.close()

    def test_initial_dial_failure_faults_without_backoff(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        sleeps = []
        backend = RemoteBackend(
            _env(seed=0), f"127.0.0.1:{port}",
            timeout=5.0, reconnect_attempts=3, sleep=sleeps.append,
        )
        try:
            with pytest.raises(EvaluationFault) as excinfo:
                backend.evaluate_batch(_placements(_env(seed=0), 1))
            assert excinfo.value.kind == "crash"
            assert sleeps == []  # never-reachable servers skip the retry loop
        finally:
            backend.close()

    def test_reconnect_gives_up_after_attempts_with_growing_backoff(self):
        server = MeasurementServer(_env(seed=99), port=0, workers=1).start()
        sleeps = []
        backend = RemoteBackend(
            _env(seed=0), server.address,
            timeout=5.0, reconnect_attempts=3,
            backoff_base=0.001, backoff_factor=2.0, backoff_jitter=0.0,
            sleep=sleeps.append,
        )
        try:
            backend._release(backend._borrow())  # establish a pooled conn
            server.close()  # server dies; the pooled socket is now dead
            with pytest.raises(EvaluationFault) as excinfo:
                backend.evaluate_batch(_placements(_env(seed=0), 1))
            assert excinfo.value.kind == "crash"
            assert sleeps == pytest.approx([0.001, 0.002, 0.004])
        finally:
            backend.close()
            server.close()


# ---------------------------------------------------------------------- #
class TestBackpressureAndDeadlines:
    def _occupy_workers(self, server, count):
        """Park blocker tasks on the server's pool; returns the release."""
        release = threading.Event()
        started = [threading.Event() for _ in range(count)]

        def blocker(start):
            start.set()
            release.wait(30)

        for start in started:
            server._pool.submit(blocker, start)
        for start in started:
            assert start.wait(5)
        return release

    def test_busy_server_answers_busy_and_client_defers(self):
        server = MeasurementServer(
            _env(seed=99), port=0, workers=1, max_backlog=1
        ).start()
        backend = _backend(server)
        release = self._occupy_workers(server, 1)
        try:
            server._pool.submit(lambda: None)  # fill the 1-slot backlog
            with pytest.raises(EvaluationFault) as excinfo:
                backend.evaluate_batch(_placements(_env(seed=0), 1, seed=6))
            assert excinfo.value.kind == "straggler"
            assert "deferred" in str(excinfo.value)
        finally:
            release.set()
            backend.close()
            server.close()

    def test_request_deadline_answers_deadline_errors(self):
        server = MeasurementServer(
            _env(seed=99), port=0, workers=1, request_deadline=0.2
        ).start()
        backend = _backend(server)
        release = self._occupy_workers(server, 1)
        try:
            with pytest.raises(EvaluationFault) as excinfo:
                backend.evaluate_batch(_placements(_env(seed=0), 1, seed=7))
            assert excinfo.value.kind == "straggler"
        finally:
            release.set()
            backend.close()
            server.close()

    def test_draining_server_refuses_new_batches(self, server):
        backend = _backend(server)
        try:
            server.draining.set()
            with pytest.raises(EvaluationFault) as excinfo:
                backend.evaluate_batch(_placements(_env(seed=0), 1, seed=8))
            assert excinfo.value.kind == "crash"
            assert "draining" in str(excinfo.value)
        finally:
            backend.close()

    def test_drain_finishes_inflight_then_closes(self, server):
        backend = _backend(server)
        placements = _placements(_env(seed=0), 2, seed=9)
        results = backend.evaluate_batch(placements)  # warm the memo
        assert len(results) == 2
        backend.close()
        server.drain(timeout=10.0)
        with pytest.raises(EvaluationFault):
            _backend(server).evaluate_batch(placements)  # server is gone


# ---------------------------------------------------------------------- #
class TestSessionHousekeeping:
    def test_idle_sessions_are_reaped(self):
        registry = SessionRegistry(retention=2, idle_timeout=10.0)
        stale = registry.create(now=0.0)
        fresh = registry.create(now=0.0)
        fresh.touch(9.0)
        assert registry.reap(now=11.0) == [stale.id]
        assert registry.resume(stale.id, now=11.0) is None
        assert registry.resume(fresh.id, now=11.0) is fresh
        assert registry.num_reaped == 1

    def test_retention_bounds_batch_records(self):
        registry = SessionRegistry(retention=2, idle_timeout=10.0)
        session = registry.create(now=0.0)
        for batch_id in range(4):
            session.get_or_add(batch_id, 1, f"digest{batch_id}")
        assert session.retained_batches() == [2, 3]

    def test_server_reaps_via_housekeeping_clock(self):
        # A settable clock: the housekeeping thread reads it too, so it
        # must be stable between explicit advances.
        now = {"t": 0.0}
        server = MeasurementServer(
            _env(seed=99), port=0, workers=1,
            session_idle_timeout=5.0, clock=lambda: now["t"],
        )
        try:
            server.sessions.create(server.clock())  # at t=0
            assert len(server.sessions) == 1
            now["t"] = 1000.0
            server.sessions.reap(server.clock())  # what housekeeping runs
            assert len(server.sessions) == 0
        finally:
            server.close()

    def test_registry_validates_parameters(self):
        with pytest.raises(ValueError):
            SessionRegistry(retention=0)
        with pytest.raises(ValueError):
            SessionRegistry(idle_timeout=0.0)


# ---------------------------------------------------------------------- #
class TestMultiTenantRestart:
    """Durable spaces make a server *restart* replay-transparent: the new
    process lazily reloads the space from ``spaces_dir`` — sessions, memo
    and retained batches included — so a resumed client replays instead of
    re-simulating (the at-most-once guarantee, now across processes)."""

    def _spec(self):
        from repro.service.tenancy import SpaceSpec

        return SpaceSpec.from_environment(_env(seed=99))

    def test_restart_replays_batch_with_zero_duplicate_simulations(self, tmp_path):
        spec = self._spec()
        first = MeasurementServer(
            multi_tenant=True, spaces_dir=str(tmp_path),
            space_specs=[spec], port=0, workers=2,
        ).start()
        port = first.port
        placements = _placements(_env(seed=99), 3, seed=11)
        client = _RawClient(first)
        results = client.submit_batch(placements, batch_id=5)
        assert all(r["ok"] for r in results)
        assert first.num_simulations == 3
        session = client.session
        client.close()
        first.close()  # batch completion persisted the space's state

        second = MeasurementServer(
            multi_tenant=True, spaces_dir=str(tmp_path), port=port, workers=2,
        ).start()
        try:
            # hello with the persisted fingerprint lazily loads the space
            reattached = _RawClient(second, fingerprint=spec.fingerprint)
            try:
                resumed = reattached.request({"op": "resume", "session": session})
                assert resumed["ok"], resumed
                assert 5 in resumed["retained"]
                replayed = reattached.submit_batch(placements, batch_id=5)
                assert all(r.get("replayed") for r in replayed)
                assert second.num_simulations == 0  # nothing re-ran
                by_ticket = lambda rs: {r["ticket"]: r["raw"] for r in rs}
                assert by_ticket(replayed) == by_ticket(results)
            finally:
                reattached.close()
        finally:
            second.close()

    def test_backend_rides_out_a_durable_restart_via_the_memo(self, tmp_path):
        spec = self._spec()
        first = MeasurementServer(
            multi_tenant=True, spaces_dir=str(tmp_path),
            space_specs=[spec], port=0, workers=2,
        ).start()
        port = first.port
        env = _env(seed=0)
        placements = _placements(env, 3, seed=12)
        backend = RemoteBackend(
            env, first.address, timeout=10.0,
            reconnect_attempts=4, backoff_base=0.01, backoff_jitter=0.0,
        )
        serial = SerialBackend(_env(seed=0))
        try:
            got_rounds = [backend.evaluate_batch(placements)]
            first.close()
            second = MeasurementServer(
                multi_tenant=True, spaces_dir=str(tmp_path),
                port=port, workers=2,
            ).start()
            try:
                got_rounds.append(backend.evaluate_batch(placements))
                # the client-side commit RNG advances per round, so the
                # golden is a serial backend run through the same rounds
                want_rounds = [serial.evaluate_batch(placements) for _ in range(2)]
                for got, want in zip(got_rounds, want_rounds):
                    assert [m.per_step_time for m in got] == [
                        m.per_step_time for m in want
                    ]
                assert second.num_simulations == 0  # served from durable memo
                assert backend.num_reconnects >= 2
            finally:
                second.close()
        finally:
            backend.close()
