"""Load generation against a router-fronted measurement fleet.

Drives many concurrent placement searches across *mixed tenants* — each
search is a worker thread owning a :class:`~repro.service.client.RemoteBackend`
for one tenant space — against a single router address, and reports fleet
throughput plus client-observed RPC latency percentiles in the
``BENCH_micro.json`` metric idiom (``loadgen.*`` names, higher is better
except the ``*_ms`` latency lanes).  Latency is split by population:
``miss_latency_*`` covers round 1, where every placement is new to its
tenant's memo, and ``hit_latency_*`` the replay rounds, where every
placement is a memo hit.  The committed ``BENCH_micro.json`` carries
these lanes, but the micro gate never compares them: a
``repro bench-micro`` report contains no ``loadgen.*`` lanes, and the
gate skips metrics present on one side only.

The harness doubles as a *correctness* probe for the multi-tenant stack:

* every worker replays its placement stream for ``rounds`` rounds, so
  round 1 populates each tenant's memo and later rounds must hit it —
  nonzero per-space memo hits prove cross-tenant cache *isolation*
  (a shared cache would alias fingerprints and under-count misses);
* :func:`check_fleet` compares the client-side count of *distinct*
  placements per tenant against the fleet's per-space simulation
  counters — equality proves **zero duplicate simulations** even under
  retries, concurrent sessions, and router failover.

:class:`LocalFleet` spins up N in-process multi-tenant servers behind a
:class:`~repro.service.router.RouterServer` for self-hosted runs (CI, the
``repro loadgen --self-hosted`` CLI); production runs point ``address`` at
a real fleet instead.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..graph.models.random_graphs import build_random_layered
from ..service.client import RemoteBackend
from ..service.router import RouterServer, fetch_router_stats, router_admin
from ..service.server import MeasurementServer
from ..service.tenancy import SpaceSpec
from ..sim.cost_model import CostModel
from ..sim.devices import Topology
from ..sim.faults import EvaluationFault
from .micro import FORMAT as MICRO_FORMAT
from .micro import FORMAT_VERSION as MICRO_FORMAT_VERSION
from .micro import load_report, write_report

__all__ = [
    "FORMAT",
    "FORMAT_VERSION",
    "make_tenant_specs",
    "LocalFleet",
    "make_chaos_resize",
    "run_loadgen",
    "check_fleet",
    "publish_to_bench",
]

FORMAT = "repro.bench.loadgen"
FORMAT_VERSION = 1

#: How many error strings the report retains verbatim (counters keep the
#: full tally; this only bounds report size).
_MAX_REPORTED_ERRORS = 20


def make_tenant_specs(
    count: int,
    *,
    num_layers: int = 3,
    width: int = 3,
    base_seed: int = 0,
) -> List[SpaceSpec]:
    """``count`` distinct tenant spaces (different random graphs).

    Graph seeds differ per tenant, so the fingerprints are distinct and
    the consistent-hash router spreads them across the fleet.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    topology = Topology.default_4gpu(num_gpus=2)
    cost_model = CostModel()
    specs = []
    for i in range(count):
        graph = build_random_layered(
            num_layers=num_layers, width=width, seed=base_seed + i
        )
        specs.append(SpaceSpec(graph, topology, cost_model))
    return specs


class LocalFleet:
    """N in-process multi-tenant servers behind one router.

    ``spaces_dir`` (optional) gives each server its own durability
    subdirectory, so a fleet restart replays rather than re-simulates.
    ``shared_spaces=True`` instead points every server at the *same*
    directory — ring routing keeps ownership exclusive, and a replacement
    server admitted after a crash (:meth:`kill_server` + :meth:`add_server`)
    can then adopt the victim's persisted spaces and replay instead of
    re-simulating.
    """

    def __init__(
        self,
        *,
        servers: int = 2,
        workers: int = 2,
        spaces_dir: Optional[str] = None,
        shared_spaces: bool = False,
        space_quota: Optional[int] = None,
        max_backlog: int = 4096,
    ) -> None:
        if servers < 1:
            raise ValueError("servers must be >= 1")
        if shared_spaces and spaces_dir is None:
            raise ValueError("shared_spaces requires spaces_dir")
        self._config = dict(
            workers=workers,
            spaces_dir=spaces_dir,
            shared_spaces=shared_spaces,
            space_quota=space_quota,
            max_backlog=max_backlog,
        )
        self._next_index = 0
        self.servers: List[MeasurementServer] = []
        #: Servers taken out by :meth:`kill_server` — kept so their
        #: in-memory counters still contribute to :meth:`space_stats`.
        self.dead: List[MeasurementServer] = []
        try:
            for _ in range(servers):
                self.servers.append(self._spawn_server())
            self.router = RouterServer(
                [server.address for server in self.servers]
            ).start()
        except BaseException:
            self.close()
            raise
        self.address = self.router.address

    def _spawn_server(self) -> MeasurementServer:
        spaces_dir = self._config["spaces_dir"]
        if spaces_dir and not self._config["shared_spaces"]:
            spaces_dir = f"{spaces_dir}/server{self._next_index}"
        self._next_index += 1
        return MeasurementServer(
            multi_tenant=True,
            workers=self._config["workers"],
            max_backlog=self._config["max_backlog"],
            spaces_dir=spaces_dir,
            space_quota=self._config["space_quota"],
        ).start()

    # -- live resize -----------------------------------------------------

    def add_server(self) -> MeasurementServer:
        """Start one more server (not yet in the ring — ``join`` it via
        the router's admin plane, e.g. :func:`repro.service.router_admin`)."""
        server = self._spawn_server()
        self.servers.append(server)
        return server

    def kill_server(self, address: str, *, timeout: float = 30.0) -> MeasurementServer:
        """Kill the server at ``address``: in-flight simulations land in
        durable batch records, then its sockets die mid-conversation (no
        goodbye to clients).  The carcass moves to :attr:`dead` so its
        counters keep counting in :meth:`space_stats`."""
        for server in self.servers:
            if server.address == address:
                break
        else:
            raise ValueError(f"no fleet server at {address}")
        server.kill(timeout=timeout)
        self.servers.remove(server)
        self.dead.append(server)
        return server

    def space_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-fingerprint stats summed across the fleet's servers.

        Dead servers and migrated-out spaces are included: their counter
        history (simulations, memo hits) is part of the fleet's total
        even though they no longer serve traffic.
        """
        merged: Dict[str, Dict[str, float]] = {}

        def fold(stats: Dict[str, Any]) -> None:
            into = merged.setdefault(stats["fingerprint"], {})
            for name, value in stats.items():
                if name == "fingerprint":
                    continue
                into[name] = into.get(name, 0.0) + float(value)

        for server in self.servers + self.dead:
            for space in server.registry.snapshot():
                fold(space.stats())
            for stats in server.migrated_space_stats().values():
                fold(stats)
        return merged

    def router_stats(self) -> Dict[str, float]:
        return fetch_router_stats(self.address)

    def close(self) -> None:
        router = getattr(self, "router", None)
        if router is not None:
            router.close()
            self.router = None
        for server in self.servers:
            server.close()
        self.servers = []
        for server in getattr(self, "dead", []):
            server.close()
        self.dead = []

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _SearchResult:
    """Mutable per-worker scratch, merged single-threaded afterwards."""

    __slots__ = (
        "miss_latencies_s",
        "hit_latencies_s",
        "failover_latencies_s",
        "placements",
        "fingerprint",
        "errors",
        "retries",
        "rpcs",
    )

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        #: Round-1 RPCs (memo misses) and replay-round RPCs (memo hits).
        self.miss_latencies_s: List[float] = []
        self.hit_latencies_s: List[float] = []
        #: Latencies of RPCs *begun after* the chaos hook fired — the
        #: population ``loadgen.failover_p99_ms`` is computed over.
        self.failover_latencies_s: List[float] = []
        self.placements: set = set()
        self.errors: List[str] = []
        self.retries = 0
        self.rpcs = 0


class _ChaosClock:
    """When (perf_counter time) the chaos hook finished, if it did."""

    __slots__ = ("fired_at",)

    def __init__(self) -> None:
        self.fired_at: Optional[float] = None


def _run_search(
    address: str,
    spec: SpaceSpec,
    result: _SearchResult,
    *,
    samples: int,
    batch: int,
    rounds: int,
    seed: int,
    timeout: float,
    max_retries: int,
    chaos_clock: Optional[_ChaosClock] = None,
) -> None:
    """One tenant search: a seeded placement stream, replayed ``rounds`` times."""
    rng = np.random.default_rng(seed)
    environment = spec.build_environment(seed=seed)
    num_ops = environment.graph.num_ops
    num_devices = environment.num_devices
    placements = [
        rng.integers(0, num_devices, size=num_ops, dtype=np.int64)
        for _ in range(samples)
    ]
    for placement in placements:
        result.placements.add(tuple(int(d) for d in placement))
    try:
        backend = RemoteBackend(
            environment,
            address,
            offer_space=True,
            pool_size=1,
            timeout=timeout,
            reconnect_seed=seed,
        )
    except Exception as exc:  # handshake/dial failure is a search error
        result.errors.append(f"connect: {exc}")
        return
    try:
        for round_index in range(rounds):
            lane = result.miss_latencies_s if round_index == 0 else result.hit_latencies_s
            for start in range(0, len(placements), batch):
                chunk = placements[start : start + batch]
                for attempt in range(max_retries + 1):
                    began = time.perf_counter()
                    try:
                        measurements = backend.evaluate_batch(chunk)
                    except EvaluationFault as exc:
                        if attempt == max_retries:
                            result.errors.append(f"evaluate: {exc}")
                            return
                        result.retries += 1
                        time.sleep(0.05 * (attempt + 1))
                        continue
                    except Exception as exc:
                        result.errors.append(f"evaluate: {exc}")
                        return
                    latency = time.perf_counter() - began
                    lane.append(latency)
                    if (
                        chaos_clock is not None
                        and chaos_clock.fired_at is not None
                        and began >= chaos_clock.fired_at
                    ):
                        result.failover_latencies_s.append(latency)
                    result.rpcs += 1
                    if len(measurements) != len(chunk):
                        result.errors.append(
                            f"short batch: {len(measurements)} != {len(chunk)}"
                        )
                        return
                    break
    finally:
        backend.close()


def make_chaos_resize(
    fleet: LocalFleet,
    *,
    fingerprint: Optional[str] = None,
    timeout: float = 30.0,
) -> Callable[[], Dict[str, Any]]:
    """A chaos hook for self-hosted runs: kill one backend, then resize.

    The returned callable (fed to :func:`run_loadgen`'s ``chaos``)
    executes the acceptance scenario in order:

    1. pick the victim — the ring owner of ``fingerprint`` when given
       (so the kill is guaranteed to orphan live tenant state), else the
       first fleet server;
    2. :meth:`LocalFleet.kill_server` it — in-flight simulations drain
       into durable batch records, then its sockets die mid-conversation;
    3. ``leave`` it via the router's admin plane — arcs repoint to
       survivors, which adopt the victim's spaces from the shared
       spaces-dir (the dead victim cannot push, so the durable format is
       the recovery path);
    4. start a replacement (:meth:`LocalFleet.add_server`) and ``join``
       it — ~1/N of the arcs remap onto it, with live spaces *pushed*
       from their (alive) previous owners.

    Requires the fleet to run with ``shared_spaces=True`` for the
    zero-duplicate guarantee to survive the hard kill.
    """

    def chaos() -> Dict[str, Any]:
        if fingerprint is not None:
            victim = fleet.router.ring.lookup(fingerprint)
        else:
            victim = fleet.servers[0].address
        fleet.kill_server(victim, timeout=timeout)
        router_admin(fleet.address, {"op": "leave", "backend": victim})
        replacement = fleet.add_server()
        router_admin(
            fleet.address, {"op": "join", "backend": replacement.address}
        )
        return {"victim": victim, "replacement": replacement.address}

    return chaos


def run_loadgen(
    address: str,
    specs: Sequence[SpaceSpec],
    *,
    searches: int = 64,
    samples: int = 16,
    batch: int = 8,
    rounds: int = 2,
    seed: int = 0,
    timeout: float = 60.0,
    max_retries: int = 5,
    chaos: Optional[Callable[[], Optional[Dict[str, Any]]]] = None,
    chaos_at_fraction: float = 0.25,
) -> Dict[str, Any]:
    """Drive ``searches`` concurrent mixed-tenant searches at ``address``.

    Search ``i`` belongs to tenant ``i % len(specs)`` and draws its
    placement stream from an ``i``-derived seed, so streams are disjoint
    across workers (w.h.p.) and the run is reproducible end to end.
    Returns a versioned report dict; see :func:`check_fleet` for the
    correctness gate and :func:`publish_to_bench` for BENCH publication.

    ``chaos`` (optional) is fired exactly once, from a side thread, after
    roughly ``chaos_at_fraction`` of the expected RPCs have completed —
    e.g. a kill-and-resize of the fleet under test.  Whatever dict it
    returns lands in the report under ``"chaos"``, and RPCs begun after
    it returns feed the ``loadgen.failover_p99_ms`` metric.
    """
    if not specs:
        raise ValueError("at least one tenant spec is required")
    if searches < 1:
        raise ValueError("searches must be >= 1")
    if not 0.0 <= chaos_at_fraction < 1.0:
        raise ValueError("chaos_at_fraction must be in [0, 1)")
    chaos_clock = _ChaosClock() if chaos is not None else None
    results: List[_SearchResult] = []
    threads: List[threading.Thread] = []
    for i in range(searches):
        spec = specs[i % len(specs)]
        result = _SearchResult(spec.fingerprint)
        results.append(result)
        threads.append(
            threading.Thread(
                target=_run_search,
                args=(address, spec, result),
                kwargs=dict(
                    samples=samples,
                    batch=batch,
                    rounds=rounds,
                    seed=seed * 100_003 + i,
                    timeout=timeout,
                    max_retries=max_retries,
                    chaos_clock=chaos_clock,
                ),
                daemon=True,
            )
        )

    chaos_info: Dict[str, Any] = {}
    done = threading.Event()

    def fire_chaos() -> None:
        batches_per_search = rounds * ((samples + batch - 1) // batch)
        threshold = chaos_at_fraction * searches * batches_per_search
        while not done.is_set():
            if sum(r.rpcs for r in results) >= threshold:
                break
            done.wait(0.01)
        if done.is_set():
            chaos_info["fired"] = False
            return
        info = chaos()
        chaos_clock.fired_at = time.perf_counter()
        chaos_info["fired"] = True
        if isinstance(info, dict):
            chaos_info.update(info)

    chaos_thread: Optional[threading.Thread] = None
    if chaos is not None:
        chaos_thread = threading.Thread(target=fire_chaos, daemon=True)

    began = time.perf_counter()
    for thread in threads:
        thread.start()
    if chaos_thread is not None:
        chaos_thread.start()
    for thread in threads:
        thread.join()
    done.set()
    if chaos_thread is not None:
        chaos_thread.join(timeout=60.0)
    elapsed = max(time.perf_counter() - began, 1e-9)

    errors = [err for r in results for err in r.errors]
    retries = sum(r.retries for r in results)
    rpcs = sum(r.rpcs for r in results)
    placements_done = sum(r.rpcs * batch for r in results)
    per_tenant: Dict[str, Dict[str, float]] = {}
    for r in results:
        into = per_tenant.setdefault(
            r.fingerprint, {"searches": 0.0, "placements_sent": 0.0}
        )
        into["searches"] += 1.0
        into["placements_sent"] += float(r.rpcs * batch)
    tenant_unique: Dict[str, set] = {}
    for r in results:
        tenant_unique.setdefault(r.fingerprint, set()).update(r.placements)
    for fingerprint, unique in tenant_unique.items():
        per_tenant[fingerprint]["unique_placements"] = float(len(unique))

    def percentile_ms(latencies: List[float], q: float) -> float:
        return float(np.percentile(latencies, q)) * 1e3 if latencies else 0.0

    misses = [lat for r in results for lat in r.miss_latencies_s]
    hits = [lat for r in results for lat in r.hit_latencies_s]
    metrics = {
        "loadgen.throughput_placements_per_sec": placements_done / elapsed,
        "loadgen.miss_latency_p50_ms": percentile_ms(misses, 50),
        "loadgen.miss_latency_p95_ms": percentile_ms(misses, 95),
        "loadgen.hit_latency_p50_ms": percentile_ms(hits, 50),
        "loadgen.hit_latency_p95_ms": percentile_ms(hits, 95),
        "loadgen.searches": float(searches),
        "loadgen.tenants": float(len(specs)),
        "loadgen.rpcs": float(rpcs),
        "loadgen.retries": float(retries),
        "loadgen.errors": float(len(errors)),
    }
    if chaos is not None:
        failover = [lat for r in results for lat in r.failover_latencies_s]
        metrics["loadgen.failover_p99_ms"] = percentile_ms(failover, 99)
        metrics["loadgen.failover_rpcs"] = float(len(failover))
    return {
        "format": FORMAT,
        "format_version": FORMAT_VERSION,
        "config": {
            "searches": searches,
            "samples": samples,
            "batch": batch,
            "rounds": rounds,
            "seed": seed,
            "tenants": len(specs),
        },
        "metrics": {name: float(value) for name, value in metrics.items()},
        "per_tenant": per_tenant,
        "tenant_fingerprints": [spec.fingerprint for spec in specs],
        "chaos": chaos_info,
        "elapsed_s": elapsed,
        "errors": errors[:_MAX_REPORTED_ERRORS],
        "summary": [
            f"{name}: {value:,.1f}" for name, value in sorted(metrics.items())
        ],
    }


def check_fleet(
    report: Dict[str, Any],
    space_stats: Dict[str, Dict[str, float]],
    *,
    expect_memo_hits: bool = True,
) -> List[str]:
    """Correctness gate over a loadgen run; returns failures (empty = pass).

    ``space_stats`` is the fleet's per-fingerprint view (see
    :meth:`LocalFleet.space_stats`).  Checks, per tenant: the space is
    hosted somewhere; server-side simulations equal the client-side
    distinct placement count (zero duplicate simulations); and — when
    ``expect_memo_hits`` (rounds >= 2) — the space's memo served hits,
    proving per-tenant cache isolation.
    """
    failures: List[str] = []
    if report.get("metrics", {}).get("loadgen.errors"):
        failures.append(
            f"{int(report['metrics']['loadgen.errors'])} search errors: "
            + "; ".join(report.get("errors", [])[:3])
        )
    for fingerprint in report.get("tenant_fingerprints", []):
        short = fingerprint[:12]
        stats = space_stats.get(fingerprint)
        tenant = report.get("per_tenant", {}).get(fingerprint, {})
        if stats is None:
            failures.append(f"tenant {short} is hosted by no server in the fleet")
            continue
        unique = tenant.get("unique_placements")
        simulations = stats.get("simulations")
        if unique is not None and simulations != unique:
            failures.append(
                f"tenant {short}: {simulations:.0f} simulations for "
                f"{unique:.0f} distinct placements (duplicates!)"
            )
        if expect_memo_hits and not stats.get("memo_hits"):
            failures.append(
                f"tenant {short}: zero memo hits — replay rounds missed the "
                "per-space cache"
            )
    return failures


def publish_to_bench(report: Dict[str, Any], path: str) -> Dict[str, Any]:
    """Merge ``loadgen.*`` metrics into the ``BENCH_micro.json`` at ``path``.

    The micro gate skips metrics absent from its baseline, so publishing
    extra lanes into the shared report is safe; an absent or foreign file
    is replaced by a fresh micro-format skeleton.  Returns the merged
    report (also written to ``path``).
    """
    try:
        merged = load_report(path)
    except (OSError, ValueError):
        merged = {
            "format": MICRO_FORMAT,
            "format_version": MICRO_FORMAT_VERSION,
            "config": {},
            "metrics": {},
            "summary": [],
        }
    metrics = dict(merged.get("metrics", {}))
    metrics.update(report["metrics"])
    merged["metrics"] = {name: float(value) for name, value in metrics.items()}
    merged.setdefault("config", {})["loadgen"] = dict(report.get("config", {}))
    merged["summary"] = [
        f"{name}: {value:,.1f}" for name, value in sorted(metrics.items())
    ]
    write_report(merged, path)
    return merged
