"""The fleet workloads: closed-loop traffic from two clients to a fleet host.

The fleet (router plus two multi-tenant servers, default settings) runs in a
child process, ``fleet_host.py``.  This process holds the load: two clients,
one connection each, one per tenant (Inception-V3 and GNMT on the paper's
4-GPU machine), driven by one thread in turn.  A client sends its next
10-placement batch when the previous answer has arrived and the other
client's RPC has returned, so one RPC is in flight at a time: the two
tenants' simulations never contend for the host's interpreter lock, which
made each tenant's latency depend on how the other's RPCs happened to
overlap it.

``fleet-miss`` sends fresh placements only, so every RPC simulates.
``fleet-replay`` first sends a fixed set of batches, untimed, then cycles
them, so every timed RPC is a memo hit.

An untraced run sets up ``ROUNDS`` fleets one after another, each with an
empty memo, and sends each the same batches in the same order for an equal
share of ``--seconds``.  The k-th RPC of a client is then the same work in
every round, and its time is the mean of its rounds (``harness.mean_of_repeats``),
as a search minibatch's is the mean of its repeats.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.models import build_benchmark
from repro.service.client import RemoteBackend
from repro.service.tenancy import SpaceSpec
from repro.sim import PlacementEnvironment, Topology

from harness import (
    ROOT, Run, durations, in_window, latency_metrics, mean_of_repeats, median, server_requests,
)
from tracing import Probes, SpanRecorder, clock_ns

TENANTS = ("inception_v3", "gnmt")
BATCH = 10
#: Fleets per untraced run; ``setup_s`` is their median set-up.
ROUNDS = 3
#: Distinct batches each ``fleet-replay`` client sends before timing.  A hit
#: costs the same whichever batch it is, and the fill is paid every round.
FILL_BATCHES = 5
#: Every this many timed RPCs, a client checks the answer locally.
CHECK_EVERY = 50
#: RPCs per path in the traced run's router-hop side run.
HOP_RPCS = 50
#: Seconds to wait for any answer from the fleet host.
HOST_TIMEOUT = 120.0


class FleetHost:
    """The ``fleet_host.py`` child process and its line protocol."""

    def __init__(self, trace: bool, layout: "Layout") -> None:
        command = [sys.executable, str(Path(__file__).with_name("fleet_host.py")),
                   "--spread", ",".join(layout.tenants)]
        if layout.host_cpu is not None:
            command += ["--cpu", str(layout.host_cpu)]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.address = self._read()["address"]
        except BaseException:
            self.kill()
            raise

    def _read(self) -> Dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], HOST_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("fleet host exited or stopped answering")
        return json.loads(line)

    def ask(self, command: str) -> Dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> Dict:
        """Stop the host; its last answer (peak RSS, spans)."""
        try:
            return self.ask("quit")
        finally:
            try:
                self.proc.wait(timeout=HOST_TIMEOUT)
            finally:
                self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class Client:
    """One tenant's client: local environment, connection and RPC tally.

    The environment has no measurement noise, so a measured per-step time
    equals the fleet's raw base time and can be checked exactly.
    """

    def __init__(self, index: int, model: str, address: str, seed: int,
                 recorder: Optional[SpanRecorder]) -> None:
        self.rng = np.random.default_rng([seed, index])
        if recorder is not None:
            with recorder.span("graph.build"):
                graph = build_benchmark(model)
        else:
            graph = build_benchmark(model)
        self.env = PlacementEnvironment(graph, Topology.default_4gpu(), noise_std=0.0, seed=seed)
        self.backend = RemoteBackend(self.env, address, offer_space=True, pool_size=1,
                                     timeout=60.0, reconnect_seed=seed)
        self.backend.ping()  # dial and hand-shake now, inside set-up
        self.sent: set = set()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fresh_batch(self) -> List[np.ndarray]:
        return list(self.rng.integers(0, self.env.num_devices,
                                      size=(BATCH, self.env.graph.num_ops), dtype=np.int64))

    def rpc(self, batch: List[np.ndarray]) -> Tuple[Optional[List[float]], float]:
        """Per-step times of ``batch`` (None if the RPC failed) and the
        RPC's latency in ms (infinite if it failed)."""
        for placement in batch:
            self.sent.add(hashlib.sha1(placement.tobytes()).digest())
        self.attempted += 1
        began = time.perf_counter()
        try:
            measurements = self.backend.evaluate_batch(batch)
        except Exception as exc:  # any failure counts; the run then fails
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None, math.inf
        return [m.per_step_time for m in measurements], (time.perf_counter() - began) * 1e3

    def expected(self, batch: List[np.ndarray]) -> List[float]:
        """The same batch simulated locally."""
        raws = [self.env.simulate_raw(p) for p in batch]
        return [math.inf if raw.is_oom else raw.base_time for raw in raws]

    def close(self) -> None:
        self.backend.close()


class Layout(NamedTuple):
    """Where the fleet runs: the tenants' fingerprints, which the host gives
    distinct servers, and the core the host is pinned to."""

    tenants: List[str]
    host_cpu: Optional[int]

    @classmethod
    def claim(cls) -> "Layout":
        """Pin this process (the load) to one core and keep another for the
        host, when there are two: the load must not compete with the fleet
        for a core."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[0]})
        tenants = [SpaceSpec.from_environment(
            PlacementEnvironment(build_benchmark(model), Topology.default_4gpu())).fingerprint
            for model in TENANTS]
        return cls(tenants, cpus[1] if len(cpus) >= 2 else None)


class Deployment:
    """A fleet host plus its two clients; ``setup_s`` runs from the host's
    spawn until both clients have shaken hands."""

    def __init__(self, seed: int, trace: bool, recorder: Optional[SpanRecorder],
                 layout: Layout) -> None:
        began = time.perf_counter()
        self.host = FleetHost(trace, layout)
        self.clients: List[Client] = []
        self.final: Dict = {}
        try:
            for index, model in enumerate(TENANTS):
                self.clients.append(Client(index, model, self.host.address, seed, recorder))
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - began

    def close(self) -> None:
        try:
            for client in self.clients:
                client.close()
        finally:
            self.final = self.host.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _memo(stats: Dict) -> Dict[str, float]:
    spaces = stats["spaces"].values()
    return {name: sum(space[name] for space in spaces)
            for name in ("memo_hits", "memo_misses", "simulations")}


def memo_hit_ratio(before: Dict[str, float], after: Dict[str, float]) -> float:
    """Share of the fleet's memo lookups between two ``_memo`` snapshots that hit."""
    hits = after["memo_hits"] - before["memo_hits"]
    lookups = hits + after["memo_misses"] - before["memo_misses"]
    return hits / lookups if lookups else 0.0


def check_memo_hit_ratio(run: Run, ratio: float, want: float) -> None:
    """The timed phase measured one population: all misses or all hits."""
    run.check(ratio == want, f"server memo hit ratio in the timed phase is {ratio}, "
                             f"the workload needs exactly {want}")


def check_answers(run: Run, label: str, got: List[float], want: List[float]) -> None:
    run.check(got == want, f"{label}: the fleet answered {got}, expected {want}")


def check_duplicates(run: Run, simulations: float, distinct: int) -> None:
    run.check(simulations == distinct,
              f"fleet ran {simulations:.0f} simulations for {distinct} distinct placements")


def _traffic(run: Run, deployment: Deployment, seconds: float, replay: bool) -> Dict:
    """Fill (replay only), then the timed closed loop, then the checks."""
    clients = deployment.clients
    fills: List[List[List[np.ndarray]]] = []
    answers: List[List[Optional[List[float]]]] = []
    for client in clients:
        batches = [client.fresh_batch() for _ in range(FILL_BATCHES)] if replay else []
        fills.append(batches)
        answers.append([client.rpc(batch)[0] for batch in batches])

    latencies: List[List[float]] = [[] for _ in clients]
    checks: List[List] = [[] for _ in clients]
    placements = 0
    before = _memo(deployment.host.ask("stats"))
    start_ns = clock_ns()
    began = time.perf_counter()
    deadline = began + seconds
    sent = 0
    while time.perf_counter() < deadline:
        i, k = sent % len(clients), sent // len(clients)
        client = clients[i]
        batch = fills[i][k % FILL_BATCHES] if replay else client.fresh_batch()
        times, latency_ms = client.rpc(batch)
        latencies[i].append(latency_ms)
        if times is not None:
            placements += len(times)
            if replay:  # cheap, so every replayed answer is checked
                check_answers(run, client.env.graph.name, times, answers[i][k % FILL_BATCHES])
            if k % CHECK_EVERY == 0:
                checks[i].append((batch, times))
        sent += 1
    wall = time.perf_counter() - began
    end_ns = clock_ns()
    after = _memo(deployment.host.ask("stats"))

    for client, client_checks in zip(clients, checks):
        for batch, times in client_checks:
            check_answers(run, client.env.graph.name, times, client.expected(batch))
    hit_ratio = memo_hit_ratio(before, after)
    check_memo_hit_ratio(run, hit_ratio, 1.0 if replay else 0.0)
    return {
        "start_ns": start_ns,
        "end_ns": end_ns,
        "rpcs": sum(len(per_client) for per_client in latencies),
        "latencies_ms": latencies,
        "placements_per_s": placements / wall,
        "memo_hit_ratio": hit_ratio,
        "fills": fills,
    }


def _finish(run: Run, deployment: Deployment) -> Dict:
    """Fold client tallies into the run and check for duplicate simulations."""
    stats = deployment.host.ask("stats")
    simulations = _memo(stats)["simulations"]
    distinct = sum(len(client.sent) for client in deployment.clients)
    for client in deployment.clients:
        run.attempted += client.attempted
        run.failed += client.failed
        run.failures.extend(client.errors[:3])
    check_duplicates(run, simulations, distinct)
    client_stats = [client.backend.stats() for client in deployment.clients]
    return {
        "duplicates": simulations - distinct,
        "reconnects": sum(s["reconnects"] - 1 for s in client_stats),
        "faults": sum(s["faults"] for s in client_stats),
        "failovers": stats["router"].get("failovers", 0.0),
        "invalid_ratio": (sum(c.env.num_oom for c in deployment.clients)
                          / max(sum(c.env.num_evaluations for c in deployment.clients), 1)),
    }


def _router_hop(deployment: Deployment, client: Client, batch: List[np.ndarray],
                rpcs: int) -> float:
    """Median memo-hit RPC of ``client`` through the router minus the same
    RPC sent straight to the tenant's ring owner.

    Each path runs in blocks of consecutive RPCs, as the timed traffic
    does: alternating single RPCs across two connections changes when TCP
    acknowledges them and hides the transport floor on one path.
    """
    owner = deployment.host.ask(f"owner {client.backend.fingerprint}")["owner"]
    direct = RemoteBackend(client.env, owner, offer_space=True, pool_size=1, timeout=60.0)

    def block(backend: RemoteBackend) -> List[float]:
        times = []
        for _ in range(rpcs // 2):
            began = time.perf_counter()
            backend.evaluate_batch(batch)
            times.append((time.perf_counter() - began) * 1e3)
        return times

    try:
        routed, straight = [], []
        for _ in range(2):
            routed += block(client.backend)
            straight += block(direct)
    finally:
        direct.close()
    return median(routed) - median(straight)


def run_fleet(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Run:
    run = Run(workload)
    replay = workload == "fleet-replay"
    layout = Layout.claim()
    if not trace:
        rounds = 2 if smoke else ROUNDS
        setups: List[float] = []
        latencies: List[List[List[float]]] = []
        peak_rss: List[float] = []
        for _ in range(rounds):
            with Deployment(seed, False, None, layout) as deployment:
                setups.append(deployment.setup_s)
                latencies.append(_traffic(run, deployment, seconds / rounds, replay)
                                 ["latencies_ms"])
                _finish(run, deployment)
            peak_rss.append(deployment.final["peak_rss_mb"])
        per_client = [mean_of_repeats(client_rounds) for client_rounds in zip(*latencies)]
        rpcs = sum(len(client) for client in per_client)
        run.metrics["setup_s"] = median(setups)
        # One RPC is in flight at a time, so RPC time is the loop's time.
        run.metrics["placements_per_s"] = BATCH * rpcs / (sum(map(sum, per_client)) / 1e3)
        latency_metrics(run, per_client)
        run.metrics["peak_rss_mb"] = max(peak_rss)
        return run

    # Traced run: an untraced pass, then a traced one with the same inputs;
    # their throughputs give the tracing overhead.
    with Deployment(seed, False, None, layout) as deployment:
        reference = _traffic(run, deployment, seconds / 2, replay)
        _finish(run, deployment)
    recorder = SpanRecorder("benchmark (fleet clients)")
    probes = Probes(recorder)
    try:
        with Deployment(seed, True, recorder, layout) as deployment:
            traffic = _traffic(run, deployment, seconds / 2, replay)
            # RPC latencies are the slower tenant's, as ``batch_p50_ms`` is:
            # GNMT's hits pay a transport floor that Inception's do not.
            slower = max(range(len(TENANTS)),
                         key=lambda i: median(traffic["latencies_ms"][i]))
            client = deployment.clients[slower]
            if replay:
                hop_batch = traffic["fills"][slower][0]
            else:  # send one batch first, so that it is a memo hit
                hop_batch = client.fresh_batch()
                client.rpc(hop_batch)
            hop_ms = _router_hop(deployment, client, hop_batch, 5 if smoke else HOP_RPCS)
            tally = _finish(run, deployment)
    finally:
        probes.remove()

    mine = recorder.dump()
    host = deployment.final["spans"]
    run.spans = mine + host
    run.process_names = {recorder.pid: recorder.process, deployment.final["pid"]: "fleet host"}
    window = (traffic["start_ns"], traffic["end_ns"])
    host_window = in_window(host, *window)
    mine_window = in_window(mine, *window)
    rpcs = max(traffic["rpcs"], 1)
    simulate = durations(host_window, "sim.simulate")
    handle_ms = median(server_requests(host_window, client.env.graph.num_ops)) / 1e6
    rpc_ms = median(traffic["latencies_ms"][slower])
    writes = (len(durations(host_window, "service.protocol.write"))
              + len(durations(mine_window, "service.protocol.write")))
    run.metrics.update({
        "graph.build_s": median(durations(mine, "graph.build")) / 1e9,
        "sim.evaluate_ms": rpc_ms,
        "sim.simulate_calls": len(simulate) / rpcs,
        "sim.simulate_ms": median(simulate) / 1e6,
        "sim.memo_hit_ratio": traffic["memo_hit_ratio"],
        "sim.invalid_ratio": tally["invalid_ratio"],
        "service.server.handle_ms": handle_ms,
        "service.server.simulate_ms": sum(simulate) / rpcs / 1e6,
        "service.pool.queue_wait_ms":
            median(durations(host_window, "service.pool.queue_wait")) / 1e6,
        "service.tenancy.memo_lookup_us": median(durations(host_window, "sim.memo_lookup")) / 1e3,
        "service.protocol.decode_us":
            median(durations(host_window, "service.protocol.decode")) / 1e3,
        "service.protocol.encode_us":
            median(durations(host_window, "service.protocol.write")) / 1e3,
        "service.protocol.messages_per_rpc": writes / rpcs,
        "service.router.hop_ms": hop_ms,
        "service.transport.unattributed_ms": rpc_ms - handle_ms - hop_ms,
        "service.server.memo_hit_ratio": traffic["memo_hit_ratio"],
        "service.server.duplicate_simulations": tally["duplicates"],
        "service.client.reconnects": tally["reconnects"],
        "service.client.faults": tally["faults"],
        "service.router.failovers": tally["failovers"],
        "trace.overhead_ratio": reference["placements_per_s"] / traffic["placements_per_s"],
    })
    run.not_entered = ("grouping.", "core.", "rl.", "nn.")
    run.batches = traffic["rpcs"]
    return run
