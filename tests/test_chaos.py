"""Process-level chaos tests (slow lane): SIGKILL and server restarts.

These drive the survivability story end to end with real processes and
real sockets — the in-process equivalents live in
``tests/core/test_resume.py`` and ``tests/service/test_reconnect.py``.
Run with ``pytest -m slow`` (CI has a dedicated kill-and-resume lane).
"""

import os
import signal
import socket
import subprocess
import sys
import time

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
)
from repro.core.checkpoint import load_checkpoint
from repro.core.events import SearchCallback
from repro.graph.models import build_random_layered
from repro.sim import Topology

pytestmark = pytest.mark.slow

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_place(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC
    return subprocess.run(
        [sys.executable, "-m", "repro", "place", "--model", "inception_v3",
         "--samples", "40", "--seed", "3", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


class TestSigkillResume:
    def test_sigkilled_search_resumes_bit_for_bit(self, tmp_path):
        """SIGKILL `repro place` mid-search; `--resume` must land on the
        uninterrupted run's exact SearchResult (ISSUE acceptance test)."""
        golden = _run_place(["--checkpoint", "golden.npz"], cwd=tmp_path)
        assert golden.returncode == 0, golden.stderr

        env = dict(os.environ)
        env["PYTHONPATH"] = _REPO_SRC
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "place", "--model", "inception_v3",
             "--samples", "40", "--seed", "3", "--checkpoint", "killed.npz"],
            cwd=tmp_path, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        killed_path = tmp_path / "killed.npz"
        deadline = time.time() + 120
        while time.time() < deadline:
            if killed_path.exists() and killed_path.stat().st_size > 0:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("mid-run checkpoint never appeared")
        time.sleep(0.2)  # let another update or two land mid-write
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        # The atomic writer guarantees the file is a complete snapshot.
        ckpt = load_checkpoint(str(killed_path))
        assert ckpt["meta"]["complete"] is False
        assert 0 < ckpt["meta"]["num_samples"] < 40

        # Resume with *conflicting* flags: the checkpoint's stored CLI
        # configuration must win over the resuming command line.
        resumed = _run_place(
            ["--resume", "killed.npz", "--seed", "999"], cwd=tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed from killed.npz" in resumed.stdout

        want = load_checkpoint(str(tmp_path / "golden.npz"))
        got = load_checkpoint(str(killed_path))
        assert got["meta"]["complete"] is True
        for key in ("best_time", "final_time", "num_samples", "num_invalid",
                    "env_time", "num_faults", "num_retries",
                    "num_quarantined", "wall_time"):
            assert got["meta"][key] == want["meta"][key], key
        assert np.array_equal(got["best_placement"], want["best_placement"])
        assert got["history"].per_step_time == want["history"].per_step_time

    def test_resume_of_complete_checkpoint_is_a_report(self, tmp_path):
        done = _run_place(["--checkpoint", "done.npz"], cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        again = _run_place(["--resume", "done.npz"], cwd=tmp_path)
        assert again.returncode == 0, again.stderr
        assert "already complete" in again.stdout


class _RestartServerMidSearch(SearchCallback):
    """Kills the measurement server after N updates, then restarts it on
    the same port — the client must ride out both the mid-batch break and
    the session loss on the restarted process."""

    def __init__(self, server, make_server, after_updates=2):
        self.server = server
        self.make_server = make_server
        self.after_updates = after_updates
        self.restarted = False
        self._updates = 0

    def on_update(self, engine, stats):
        self._updates += 1
        if self._updates == self.after_updates and not self.restarted:
            port = int(self.server.address.rsplit(":", 1)[1])
            self.server.close()  # drops every live connection mid-search
            self.server = self.make_server(port)
            self.restarted = True


class TestServerRestartMidSearch:
    def test_search_completes_across_a_server_restart(self):
        graph = build_random_layered(num_layers=6, width=5, seed=7)
        topo = Topology.default_4gpu(num_gpus=2)

        def make_server(port):
            return MeasurementServer(
                PlacementEnvironment(graph, topo, seed=99),
                port=port, workers=2,
            ).start()

        server = make_server(0)
        env = PlacementEnvironment(graph, topo, seed=0)
        backend = RemoteBackend(
            env, server.address, timeout=10.0,
            reconnect_attempts=5, backoff_base=0.05,
        )
        agent = PostAgent(graph, topo.num_devices, num_groups=6, seed=0)
        restarter = _RestartServerMidSearch(server, make_server)
        try:
            search = PlacementSearch(
                agent, env, "ppo", SearchConfig(max_samples=60),
                backend=backend, policy=EvaluationPolicy(max_retries=3),
            )
            result = search.run(callbacks=[restarter])
        finally:
            backend.close()
            restarter.server.close()
        assert restarter.restarted
        assert result.num_samples == 60
        assert np.isfinite(result.best_time)
        # The restart forced at least one re-dial (session was lost with
        # the old process; the backend adopted the new server's session).
        assert backend.num_reconnects >= 2


def _spawn_multi_tenant_serve(port, spaces_dir):
    """`repro serve --multi-tenant` as a real process; waits for the port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--model", "inception_v3",
         "--multi-tenant", "--spaces-dir", str(spaces_dir),
         "--port", str(port), "--service-workers", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 120
    while time.time() < deadline:
        if proc.poll() is not None:
            pytest.fail(f"serve exited early with {proc.returncode}")
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            return proc
        except OSError:
            time.sleep(0.1)
    proc.kill()
    pytest.fail("multi-tenant server never opened its port")


class _SigkillServerMidSearch(SearchCallback):
    """SIGKILLs the server *process* after N updates and respawns it on the
    same port with the same spaces_dir — no drain, no goodbye, exactly the
    crash the durability layer exists for."""

    def __init__(self, proc, port, spaces_dir, after_updates=2):
        self.proc = proc
        self.port = port
        self.spaces_dir = spaces_dir
        self.after_updates = after_updates
        self.killed = False
        self._updates = 0

    def on_update(self, engine, stats):
        self._updates += 1
        if self._updates == self.after_updates and not self.killed:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=30)
            self.proc = _spawn_multi_tenant_serve(self.port, self.spaces_dir)
            self.killed = True


class TestMultiTenantSigkill:
    def test_tenant_search_survives_sigkill_of_durable_server(self, tmp_path):
        """A client-offered tenant space must ride out a SIGKILL'd server:
        the respawned process lazily reloads the space (spec + memo +
        sessions) from spaces_dir and the search completes."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        proc = _spawn_multi_tenant_serve(port, tmp_path)

        graph = build_random_layered(num_layers=6, width=5, seed=17)
        topo = Topology.default_4gpu(num_gpus=2)
        env = PlacementEnvironment(graph, topo, seed=0)
        backend = RemoteBackend(
            env, f"127.0.0.1:{port}", offer_space=True, timeout=15.0,
            reconnect_attempts=8, backoff_base=0.25, backoff_jitter=0.0,
        )
        agent = PostAgent(graph, topo.num_devices, num_groups=6, seed=0)
        killer = _SigkillServerMidSearch(proc, port, tmp_path)
        try:
            search = PlacementSearch(
                agent, env, "ppo", SearchConfig(max_samples=60),
                backend=backend, policy=EvaluationPolicy(max_retries=3),
            )
            result = search.run(callbacks=[killer])
        finally:
            backend.close()
            killer.proc.kill()
            killer.proc.wait(timeout=30)
        assert killer.killed
        assert result.num_samples == 60
        assert np.isfinite(result.best_time)
        assert backend.num_reconnects >= 2


class _KillRingOwnerMidSearch(SearchCallback):
    """The elastic-fleet drill: after N updates, kill the backend that owns
    the tenant's space, `leave` it from the ring, and `join` a fresh
    replacement on the same shared spaces_dir.  The search thread runs the
    whole resize inside the callback, so the client's next RPC meets the
    already-rebalanced ring."""

    def __init__(self, servers, router, fingerprint, spaces_dir,
                 after_updates=2):
        self.servers = servers
        self.router = router
        self.fingerprint = fingerprint
        self.spaces_dir = spaces_dir
        self.after_updates = after_updates
        self.fired = False
        self._updates = 0

    def on_update(self, engine, stats):
        self._updates += 1
        if self._updates == self.after_updates and not self.fired:
            from repro.service.router import router_admin

            victim_address = self.router.ring.lookup(self.fingerprint)
            victim = next(
                s for s in self.servers if s.address == victim_address
            )
            victim.kill(timeout=30.0)
            router_admin(
                self.router.address,
                {"op": "leave", "backend": victim_address},
            )
            replacement = MeasurementServer(
                multi_tenant=True, port=0, workers=2,
                spaces_dir=self.spaces_dir,
            ).start()
            self.servers.append(replacement)
            router_admin(
                self.router.address,
                {"op": "join", "backend": replacement.address},
            )
            self.fired = True


class TestFleetFailoverGolden:
    """ISSUE acceptance: kill a backend mid-search, resize the ring, and
    the completed SearchResult is bit-for-bit the uninterrupted golden's
    (modulo the fault counters the chaos itself produced)."""

    def _fleet(self, tmp_path, tag):
        from repro.service.router import RouterServer

        spaces_dir = str(tmp_path / tag)
        servers = [
            MeasurementServer(
                multi_tenant=True, port=0, workers=2, spaces_dir=spaces_dir
            ).start()
            for _ in range(2)
        ]
        router = RouterServer([s.address for s in servers]).start()
        return servers, router, spaces_dir

    def _search(self, router_address, callbacks):
        graph = build_random_layered(num_layers=6, width=5, seed=23)
        topo = Topology.default_4gpu(num_gpus=2)
        env = PlacementEnvironment(graph, topo, seed=0)
        backend = RemoteBackend(
            env, router_address, offer_space=True, timeout=15.0,
            reconnect_attempts=8, backoff_base=0.25, backoff_jitter=0.0,
        )
        agent = PostAgent(graph, topo.num_devices, num_groups=6, seed=0)
        try:
            search = PlacementSearch(
                agent, env, "ppo", SearchConfig(max_samples=60),
                backend=backend, policy=EvaluationPolicy(max_retries=3),
            )
            return search.run(callbacks=callbacks)
        finally:
            backend.close()

    def test_search_result_is_golden_across_kill_and_resize(self, tmp_path):
        from repro.service.tenancy import SpaceSpec

        graph = build_random_layered(num_layers=6, width=5, seed=23)
        topo = Topology.default_4gpu(num_gpus=2)
        fingerprint = SpaceSpec.from_environment(
            PlacementEnvironment(graph, topo, seed=0)
        ).fingerprint

        servers, router, _ = self._fleet(tmp_path, "golden")
        try:
            golden = self._search(router.address, callbacks=[])
        finally:
            router.close()
            for server in servers:
                server.close()

        servers, router, spaces_dir = self._fleet(tmp_path, "chaos")
        chaos = _KillRingOwnerMidSearch(servers, router, fingerprint, spaces_dir)
        try:
            survived = self._search(router.address, callbacks=[chaos])
        finally:
            router.close()
            for server in servers:
                server.close()

        assert chaos.fired
        assert survived.num_samples == golden.num_samples == 60
        assert survived.best_time == golden.best_time
        assert survived.final_time == golden.final_time
        assert survived.num_invalid == golden.num_invalid
        assert survived.env_time == golden.env_time
        assert np.array_equal(survived.best_placement, golden.best_placement)
        assert survived.history.per_step_time == golden.history.per_step_time


class TestSigkillDuringMigration:
    """SIGKILL the migration *source* process while it pushes a space to a
    peer: every durable file in the shared spaces_dir must still parse as
    complete JSON — the atomic-rename discipline means a crash at any
    instant leaves either the old snapshot or the new one, never a torn
    write — and a respawned server must still serve the space."""

    def test_durable_state_never_half_written(self, tmp_path):
        import json

        from repro.service.client import migrate_space_request
        from repro.service.router import _backend_request

        ports = []
        for _ in range(2):
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            ports.append(probe.getsockname()[1])
            probe.close()
        port_a, port_b = ports
        proc_a = _spawn_multi_tenant_serve(port_a, tmp_path)
        proc_b = _spawn_multi_tenant_serve(port_b, tmp_path)

        graph = build_random_layered(num_layers=6, width=5, seed=29)
        topo = Topology.default_4gpu(num_gpus=2)
        env = PlacementEnvironment(graph, topo, seed=0)
        from repro.service.tenancy import SpaceSpec

        fingerprint = SpaceSpec.from_environment(env).fingerprint
        try:
            # populate a durable space on A (retained batches persist it)
            backend = RemoteBackend(
                env, f"127.0.0.1:{port_a}", offer_space=True, timeout=15.0,
            )
            try:
                rng = np.random.default_rng(5)
                for _ in range(4):
                    placements = [
                        rng.integers(0, topo.num_devices, env.graph.num_ops)
                        for _ in range(8)
                    ]
                    backend.evaluate_batch(placements)
            finally:
                backend.close()

            # fire the migration push and SIGKILL the source mid-flight
            request = migrate_space_request(
                fingerprint, target=f"127.0.0.1:{port_b}"
            )

            def push():
                try:
                    _backend_request(f"127.0.0.1:{port_a}", request, 15.0)
                except Exception:
                    pass  # the kill races the reply on purpose

            import threading

            pusher = threading.Thread(target=push)
            pusher.start()
            time.sleep(0.05)
            proc_a.send_signal(signal.SIGKILL)
            proc_a.wait(timeout=30)
            pusher.join(timeout=30)

            # every durable file is complete JSON, whatever the timing
            durable = sorted(tmp_path.glob("*.json"))
            assert durable, "expected durable space files"
            for path in durable:
                json.loads(path.read_text())

            # a respawn over the same dir still serves the space
            proc_a = _spawn_multi_tenant_serve(port_a, tmp_path)
            check = RemoteBackend(env, f"127.0.0.1:{port_a}", timeout=15.0)
            try:
                results = check.evaluate_batch(
                    [np.zeros(env.graph.num_ops, dtype=np.int64)]
                )
                assert len(results) == 1
            finally:
                check.close()
        finally:
            for proc in (proc_a, proc_b):
                proc.kill()
                proc.wait(timeout=30)
