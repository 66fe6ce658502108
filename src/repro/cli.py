"""Command-line interface.

Subcommands::

    python -m repro info  --model gnmt                   # graph profile
    python -m repro eval  --model bert --placement expert
    python -m repro place --model gnmt --agent eagle --algorithm ppo \
                          --samples 300 --checkpoint out.npz
    python -m repro gantt --model inception_v3 --placement single_gpu
    python -m repro serve --model gnmt --port 7077       # measurement service
    python -m repro place --model gnmt --remote 127.0.0.1:7077
    python -m repro lint  src/repro tests examples       # static analysis

All commands run against the simulated 4-GPU environment (the paper's
machine); ``--gpus`` / ``--gpu-mem`` customise it.  ``serve`` exposes that
environment as a shared measurement service; ``place --remote`` submits
placements to one instead of simulating in-process (results are bit-for-bit
identical to a local run with the same seed).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

__all__ = ["main", "build_parser"]

#: ``place`` options that determine the search's result bit-for-bit.  They
#: are recorded in every engine checkpoint (under ``meta["cli"]``) and
#: restored by ``--resume`` so a resumed search continues the *original*
#: configuration even if the resuming command line differs.  Operational
#: flags (--remote, --metrics, --memo-path, ...) deliberately stay live.
_RESUME_KEYS = (
    "model", "agent", "algorithm", "samples", "groups", "hidden", "seed",
    "gpus", "gpu_mem", "no_cache",
    "fault_rate", "straggler_rate", "corruption_rate", "max_retries",
)


def _rate(value: str) -> float:
    """Argparse type: a probability in [0, 1]."""
    try:
        rate = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a rate in [0, 1], got {value}")
    return rate


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return n


def _nonnegative_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", default="inception_v3", choices=["inception_v3", "gnmt", "bert"])
        p.add_argument("--gpus", type=int, default=4, help="number of simulated GPUs")
        p.add_argument("--gpu-mem", type=float, default=9.5, help="usable GiB per GPU")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("info", help="print a graph profile")
    add_common(p)

    p = sub.add_parser("eval", help="evaluate a predefined placement")
    add_common(p)
    p.add_argument("--placement", default="single_gpu", choices=["single_gpu", "expert", "scotch"])

    p = sub.add_parser("place", help="run an RL placement search")
    add_common(p)
    p.add_argument("--agent", default="eagle", help="agent kind (see repro.bench.AGENT_KINDS)")
    p.add_argument("--algorithm", default="ppo", choices=["reinforce", "ppo", "ppo_ce", "ppo_value"])
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--groups", type=int, default=64)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--checkpoint", default=None, help="write an .npz checkpoint here")
    p.add_argument(
        "--checkpoint-every", type=_positive_int, default=1,
        help="with --checkpoint, write a crash-safe engine snapshot every N "
             "policy updates (atomic temp-then-rename; the final write marks "
             "the search complete)",
    )
    p.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume an interrupted search from an engine checkpoint written "
             "by --checkpoint: restores agent parameters, optimiser state, "
             "every RNG stream, the memo cache and fault/retry/quarantine "
             "counters, then continues to the original sample budget — "
             "bit-for-bit identical to the uninterrupted run",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable memoisation of repeated placements (the default backend "
             "caches the deterministic simulator outcome; noise and env-clock "
             "charges stay per-evaluation, so results are identical either way)",
    )
    p.add_argument(
        "--fault-rate", type=_rate, default=0.0,
        help="chaos testing: probability an evaluation crashes with an "
             "injected worker fault (seeded, reproducible)",
    )
    p.add_argument(
        "--straggler-rate", type=_rate, default=0.0,
        help="chaos testing: probability an evaluation straggles (simulated "
             "latency charged to the wall-clock channel)",
    )
    p.add_argument(
        "--corruption-rate", type=_rate, default=0.0,
        help="chaos testing: probability a measurement comes back corrupted "
             "(NaN / negative / outlier per-step time)",
    )
    p.add_argument(
        "--max-retries", type=_nonnegative_int, default=3,
        help="re-measure a faulted placement up to N times before "
             "quarantining it (used when any fault rate is non-zero)",
    )
    p.add_argument(
        "--remote", default=None, metavar="HOST:PORT",
        help="evaluate placements against a running `repro serve` instance "
             "instead of simulating in-process (takes precedence over "
             "--no-cache; network failures are retried and "
             "quarantined by the evaluation policy)",
    )
    p.add_argument(
        "--remote-timeout", type=float, default=30.0,
        help="per-request deadline in seconds for --remote",
    )
    p.add_argument(
        "--memo-path", default=None,
        help="persist the memo cache here: loaded before the search if the "
             "file exists (refused on graph/topology mismatch), saved after "
             "(requires the default cached backend)",
    )
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="stream search events to PATH as JSON-lines (one object per "
             "event) for live dashboards",
    )

    p = sub.add_parser("serve", help="run a shared measurement service")
    add_common(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_nonnegative_int, default=7077,
                   help="TCP port to listen on (0 picks a free port)")
    p.add_argument("--service-workers", type=_positive_int, default=4,
                   help="simulator worker threads serving evaluations")
    p.add_argument("--memo-path", default=None,
                   help="warm the shared raw-outcome cache from this file if "
                        "it exists, and save it back on shutdown")
    p.add_argument("--metrics-port", type=_nonnegative_int, default=None,
                   help="also serve Prometheus plaintext metrics over HTTP on "
                        "this port at /metrics (0 picks a free port)")
    p.add_argument("--request-deadline", type=float, default=None,
                   help="server-side seconds one request may wait on results "
                        "before unresolved tickets answer deadline errors")
    p.add_argument("--multi-tenant", action="store_true",
                   help="host many measurement spaces keyed by fingerprint: "
                        "the --model space is seeded first, and handshakes "
                        "offering a serialized space spec are adopted on "
                        "the fly")
    p.add_argument("--spaces-dir", default=None, metavar="DIR",
                   help="persist per-space specs + session/memo state here "
                        "so a restarted server replays instead of "
                        "re-simulating (also enables lazy spec loading)")
    p.add_argument("--space-budget", type=_positive_int, default=None,
                   metavar="N",
                   help="host at most N resident spaces; least-recently-used "
                        "idle spaces are persisted and evicted over budget")
    p.add_argument("--memo-budget", type=_positive_int, default=None,
                   metavar="N",
                   help="per-space raw-outcome cache cap (LRU entries)")
    p.add_argument("--space-quota", type=_positive_int, default=None,
                   metavar="N",
                   help="per-space in-flight simulation quota (fair "
                        "scheduling: one hot tenant cannot starve the rest)")

    p = sub.add_parser("route",
                       help="run a consistent-hash router over a server fleet")
    p.add_argument("--backends", required=True, metavar="HOST:PORT,...",
                   help="comma-separated backend server addresses; each "
                        "fingerprint consistently hashes to one of them")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_nonnegative_int, default=7070,
                   help="TCP port to listen on (0 picks a free port)")
    p.add_argument("--replicas", type=_positive_int, default=64,
                   help="virtual nodes per backend on the hash ring")
    p.add_argument("--dial-timeout", type=float, default=5.0,
                   help="seconds per backend dial before failing over along "
                        "the ring")
    p.add_argument("--standby", default=None, metavar="HOST:PORT",
                   help="run as a warm standby: mirror membership from this "
                        "primary router's admin plane and take over (start "
                        "health-probing the ring) when it stops answering")
    p.add_argument("--standby-interval", type=float, default=1.0,
                   help="seconds between standby membership polls")
    p.add_argument("--takeover-failures", type=_positive_int, default=3,
                   help="consecutive failed polls before the standby promotes")
    p.add_argument("--health-interval", type=float, default=0.0,
                   help="ping-probe every backend each N seconds, driving "
                        "ring membership up/suspect/down (0 disables)")
    p.add_argument("--probe-timeout", type=float, default=1.0,
                   help="deadline per health probe")
    p.add_argument("--fail-threshold", type=_positive_int, default=3,
                   help="consecutive probe failures marking a backend down")
    p.add_argument("--recover-threshold", type=_positive_int, default=1,
                   help="consecutive probe successes re-admitting a down "
                        "backend")

    p = sub.add_parser("fleet",
                       help="inspect or resize a router-fronted fleet live")
    fleet_sub = p.add_subparsers(dest="fleet_cmd", required=True)
    fp = fleet_sub.add_parser(
        "add", help="join a backend into the ring (~1/N of the hash arcs "
                    "remap onto it, migrating their tenant spaces)")
    fp.add_argument("backend", metavar="HOST:PORT")
    fp.add_argument("--router", required=True, metavar="HOST:PORT",
                    help="router admin address")
    fp = fleet_sub.add_parser(
        "remove", help="drop a backend from the ring, migrating its tenant "
                       "spaces to the surviving owners")
    fp.add_argument("backend", metavar="HOST:PORT")
    fp.add_argument("--router", required=True, metavar="HOST:PORT",
                    help="router admin address")
    fp = fleet_sub.add_parser(
        "status", help="print ring membership and per-backend health state")
    fp.add_argument("--router", required=True, metavar="HOST:PORT",
                    help="router admin address")

    p = sub.add_parser("loadgen",
                       help="drive concurrent mixed-tenant searches at a fleet")
    p.add_argument("--address", default=None, metavar="HOST:PORT",
                   help="router (or single server) to load; omit with "
                        "--self-hosted")
    p.add_argument("--self-hosted", action="store_true",
                   help="spin up an in-process fleet (N servers behind a "
                        "router) and aim the load at it")
    p.add_argument("--servers", type=_positive_int, default=2,
                   help="fleet size for --self-hosted")
    p.add_argument("--service-workers", type=_positive_int, default=2,
                   help="simulator workers per self-hosted server")
    p.add_argument("--spaces-dir", default=None, metavar="DIR",
                   help="durability directory for the self-hosted fleet")
    p.add_argument("--tenants", type=_positive_int, default=3,
                   help="distinct tenant spaces to mix (random graphs)")
    p.add_argument("--searches", type=_positive_int, default=64,
                   help="concurrent searches (threads); search i drives "
                        "tenant i %% --tenants")
    p.add_argument("--samples", type=_positive_int, default=16,
                   help="placements per search round")
    p.add_argument("--batch", type=_positive_int, default=8,
                   help="placements per evaluate_batch RPC")
    p.add_argument("--rounds", type=_positive_int, default=2,
                   help="times each search replays its placement stream "
                        "(round 2+ must hit the per-space memo)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=60.0,
                   help="client RPC timeout in seconds")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="merge loadgen.* metrics into this BENCH_micro-format "
                        "report (e.g. BENCH_micro.json)")
    p.add_argument("--check", action="store_true",
                   help="fail unless the fleet shows zero duplicate "
                        "simulations and nonzero per-space memo hits "
                        "(needs --self-hosted for fleet-side counters)")
    p.add_argument("--chaos-resize", action="store_true",
                   help="mid-run, kill one self-hosted backend, drop it from "
                        "the ring, and join a fresh replacement (needs "
                        "--self-hosted, --spaces-dir and --servers >= 2); "
                        "adds the loadgen.failover_p99_ms and "
                        "fleet.migrations lanes")

    p = sub.add_parser("bench-micro", help="run the microbenchmark lane")
    p.add_argument("--out", default="BENCH_micro.json", metavar="PATH",
                   help="write the versioned benchmark report here")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="compare against this committed BENCH_*.json and exit "
                        "non-zero if any tracked metric regressed beyond "
                        "--tolerance")
    p.add_argument("--tolerance", type=float, default=0.5,
                   help="allowed fractional slowdown vs the baseline before "
                        "the regression gate trips (default 0.5 = 50%%, "
                        "absorbing CI machine jitter)")
    p.add_argument("--min-speedup", type=float, default=None, metavar="X",
                   help="require the sweep of SWEEP_MIN_LANES placements to "
                        "be at least X times as fast as the scalar loop on "
                        "every benchmark graph (CI runs X=1: the sweep never "
                        "loses where it is used)")
    p.add_argument("--batch", type=_positive_int, default=None,
                   help="placements per service-lane batch (default "
                        "SWEEP_MIN_LANES, one server-side sweep)")
    p.add_argument("--repeats", type=_positive_int, default=3,
                   help="timing repeats per metric; the best is reported")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gantt", help="render a placement's execution timeline")
    add_common(p)
    p.add_argument("--placement", default="single_gpu", choices=["single_gpu", "expert", "scotch"])
    p.add_argument("--width", type=int, default=80)

    p = sub.add_parser("lint", help="run the repo's own static analysis")
    p.add_argument(
        "paths", nargs="*", default=["src/repro", "tests", "examples"],
        help="files or directories to lint (default: src/repro tests examples)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--fail-on", choices=["error", "warning"], default="warning",
        help="exit 1 at this severity or worse (default: warning, i.e. "
             "any finding fails)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue (id, severity, title, rationale) and exit",
    )
    p.add_argument(
        "--fix", action="store_true",
        help="apply available autofixes (atomic writes, bottom-up per "
             "file, to a fixpoint)",
    )
    p.add_argument(
        "--diff", action="store_true",
        help="with --fix: print the unified diffs the fixes would apply "
             "without writing any file",
    )

    return parser


def _make_env(args):
    from .graph.models import build_benchmark
    from .sim import PlacementEnvironment, Topology

    graph = build_benchmark(args.model)
    topo = Topology.default_4gpu(num_gpus=args.gpus, gpu_memory_bytes=int(args.gpu_mem * 2**30))
    return graph, PlacementEnvironment(graph, topo, seed=args.seed)


def _predefined(name: str, graph, env):
    from .core.heuristic_placement import scotch_style_placement
    from .core.predefined import human_expert_placement, single_gpu_placement

    if name == "single_gpu":
        return single_gpu_placement(graph, env.topology)
    if name == "expert":
        return human_expert_placement(graph, env.topology)
    return scotch_style_placement(graph, env.topology, env.simulator.cost_model)


def cmd_info(args) -> int:
    from .graph.serialization import graph_summary

    graph, env = _make_env(args)
    print(graph_summary(graph))
    caps = ", ".join(f"{d.name} ({d.memory_bytes / 2**30:.1f} GiB)" for d in env.topology.devices)
    print(f"environment: {caps}")
    return 0


def cmd_eval(args) -> int:
    from .sim import OutOfMemoryError

    graph, env = _make_env(args)
    placement = _predefined(args.placement, graph, env)
    try:
        bd = env.simulator.simulate(placement)
    except OutOfMemoryError as exc:
        print(f"{args.placement}: OOM — {exc}")
        return 1
    print(f"{args.placement}: {bd.makespan * 1000:.1f} ms/step")
    for dev, busy, mem in zip(env.topology.devices, bd.device_busy, bd.device_memory):
        print(f"  {dev.name:10s} busy {busy * 1000:8.1f} ms   resident {mem / 2**30:6.2f} GiB")
    print(f"  comm {bd.comm_bytes / 2**20:.1f} MiB/step, dispatch floor {bd.dispatch_total * 1000:.1f} ms")
    return 0


def cmd_place(args) -> int:
    import os

    from .bench.experiments import make_agent
    from .core import (
        EvaluationPolicy,
        MetricsExporter,
        PlacementSearch,
        ProgressPrinter,
        SearchConfig,
    )
    from .core.checkpoint import (
        CheckpointCallback,
        CheckpointCorruptError,
        load_checkpoint,
        restore_engine,
    )
    from .sim import FaultInjectingBackend, FaultPlan, MemoBackend, make_backend

    resume_state = None
    if args.resume:
        try:
            resume_state = load_checkpoint(args.resume)
        except CheckpointCorruptError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"error: cannot resume from {args.resume!r}: {exc}", file=sys.stderr)
            return 2
        cli_meta = resume_state["meta"].get("cli")
        if resume_state["engine"] is None or not cli_meta:
            print(f"error: {args.resume!r} is not a resumable engine checkpoint "
                  "(write one with `place --checkpoint PATH`)", file=sys.stderr)
            return 2
        if resume_state["meta"].get("complete"):
            best = resume_state["meta"].get("best_time")
            print(f"search already complete in {args.resume} "
                  f"(best {best * 1000:.1f} ms/step) — nothing to resume")
            return 0
        # The checkpoint's recorded configuration wins over the resuming
        # command line for everything result-determining.
        for key in _RESUME_KEYS:
            setattr(args, key, cli_meta[key])
        if not args.checkpoint:
            args.checkpoint = args.resume

    if args.memo_path and (args.remote or args.no_cache):
        print("error: --memo-path needs the default cached backend "
              "(no --remote/--no-cache)", file=sys.stderr)
        return 2

    graph, env = _make_env(args)
    agent = make_agent(
        args.agent, graph, env.num_devices,
        num_groups=args.groups, placer_hidden=args.hidden, seed=args.seed,
        topology=env.topology,
    )
    config = SearchConfig(max_samples=args.samples, entropy_coef=0.1, entropy_coef_final=0.01)
    plan = policy = None
    if args.fault_rate or args.straggler_rate or args.corruption_rate:
        plan = FaultPlan(
            crash_rate=args.fault_rate,
            straggler_rate=args.straggler_rate,
            corruption_rate=args.corruption_rate,
            seed=args.seed,
        )
        policy = EvaluationPolicy(max_retries=args.max_retries)
    if args.remote and policy is None:
        # Network failures must quarantine, not abort the search.
        policy = EvaluationPolicy(max_retries=args.max_retries)
    backend = make_backend(
        env, cache=not args.no_cache, fault_plan=plan,
        remote=args.remote, remote_timeout=args.remote_timeout,
    )
    # A fault plan wraps the backend; the memo and the remote client sit inside.
    inner = backend.inner if isinstance(backend, FaultInjectingBackend) else backend
    callbacks = [ProgressPrinter(interval=50, total=args.samples)]
    exporter = None
    if args.metrics:
        exporter = MetricsExporter(path=args.metrics)
        callbacks.append(exporter)
    if args.checkpoint:
        callbacks.append(CheckpointCallback(
            args.checkpoint,
            every=args.checkpoint_every,
            extra_meta={"cli": {key: getattr(args, key) for key in _RESUME_KEYS}},
        ))
    try:
        search = PlacementSearch(agent, env, args.algorithm, config,
                                 backend=backend, policy=policy)
        if resume_state is not None:
            restore_engine(search.engine, resume_state)
            print(f"resumed from {args.resume} at sample "
                  f"{search.engine.num_samples}/{args.samples}")
        # After the restore, which replaces the memo with the checkpoint's.
        if args.memo_path and isinstance(inner, MemoBackend) and os.path.exists(args.memo_path):
            loaded = inner.load(args.memo_path)
            print(f"memo cache: {loaded} raw outcomes loaded from {args.memo_path}")
        result = search.run(callbacks=callbacks)
        if args.remote:
            remote_stats = inner.remote_stats()
    finally:
        backend.close()
        if exporter is not None:
            exporter.close()
    print(f"best placement: {result.final_time * 1000:.1f} ms/step "
          f"({result.num_invalid}/{result.num_samples} invalid)")
    if isinstance(inner, MemoBackend) and inner.hits:
        print(f"  cache: {inner.hits} hits / {inner.misses} misses "
              f"({inner.hit_rate:.0%} of evaluations skipped the simulator)")
    if args.memo_path and isinstance(inner, MemoBackend):
        inner.save(args.memo_path)
        print(f"  memo cache: {len(inner)} raw outcomes saved to {args.memo_path}")
    if args.remote:
        hits = int(remote_stats.get("memo_hits", 0))
        misses = int(remote_stats.get("memo_misses", 0))
        rate = remote_stats.get("memo_hit_rate", 0.0)
        print(f"  remote cache: {hits} hits / {misses} misses on the server "
              f"({rate:.0%} shared across all its clients)")
    if policy is not None:
        print(f"  faults: {result.num_faults} observed, {result.num_retries} retried, "
              f"{result.num_quarantined} quarantined "
              f"({result.wall_time:.0f}s simulated wall-clock lost)")
    if args.metrics:
        print(f"  metrics: events streamed to {args.metrics}")
    if args.checkpoint:
        # CheckpointCallback.on_search_end already wrote the complete
        # checkpoint (atomically, with engine state for later resumes).
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_serve(args) -> int:
    import signal
    import threading

    from .service import MeasurementServer, MetricsHTTPServer

    graph, env = _make_env(args)
    server = MeasurementServer(
        env,
        host=args.host,
        port=args.port,
        workers=args.service_workers,
        memo_path=args.memo_path,
        request_deadline=args.request_deadline,
        multi_tenant=args.multi_tenant,
        spaces_dir=args.spaces_dir,
        max_spaces=args.space_budget,
        memo_budget=args.memo_budget,
        space_quota=args.space_quota,
    )
    metrics_http = None
    if args.metrics_port is not None:
        metrics_http = MetricsHTTPServer(
            server.render_metrics, host=args.host, port=args.metrics_port
        ).start()
    print(f"serving {args.model} ({graph.num_ops} ops, "
          f"{env.num_devices} devices) on {server.address} "
          f"with {args.service_workers} simulator workers")
    if args.multi_tenant:
        extras = []
        if args.spaces_dir:
            extras.append(f"persisting to {args.spaces_dir}")
        if args.space_budget:
            extras.append(f"budget {args.space_budget} spaces")
        detail = f" ({', '.join(extras)})" if extras else ""
        print(f"  multi-tenant: {len(server.registry)} space(s) resident, "
              f"offered specs adopted on handshake{detail}")
    print(f"  fingerprint {server.fingerprint[:16]}…  (clients must match)")
    if metrics_http is not None:
        print(f"  metrics: http://{metrics_http.address}/metrics")

    def _handle_sigterm(signum, frame):
        # Drain off the signal handler's frame: refuse new work, let
        # in-flight requests finish, then close — which unblocks
        # serve_forever below.  KeyboardInterrupt keeps the fast path.
        print("SIGTERM: draining (in-flight requests finish, new work refused)")
        threading.Thread(
            target=server.drain, kwargs={"timeout": 30.0}, daemon=True
        ).start()

    previous = signal.signal(signal.SIGTERM, _handle_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupted")
    finally:
        signal.signal(signal.SIGTERM, previous)
        if args.memo_path:
            server.memo.save(args.memo_path)
            print(f"memo cache: {len(server.memo)} raw outcomes saved to {args.memo_path}")
        server.close()
        if metrics_http is not None:
            metrics_http.close()
    return 0


def cmd_route(args) -> int:
    from .service.health import HealthMonitor, StandbyMirror
    from .service.router import RouterServer

    backends = [part.strip() for part in args.backends.split(",") if part.strip()]
    router = RouterServer(
        backends,
        host=args.host,
        port=args.port,
        replicas=args.replicas,
        dial_timeout=args.dial_timeout,
    )
    print(f"routing {len(backends)} backend(s) on {router.address} "
          f"({args.replicas} virtual nodes each)")
    for backend in backends:
        print(f"  backend {backend}")

    monitor = None
    mirror = None

    def start_monitor() -> None:
        nonlocal monitor
        if args.health_interval > 0 and monitor is None:
            monitor = HealthMonitor(
                router,
                interval=args.health_interval,
                probe_timeout=args.probe_timeout,
                fail_threshold=args.fail_threshold,
                recover_threshold=args.recover_threshold,
                on_membership=lambda address, old, new: print(
                    f"membership: {address} {old} -> {new}"
                ),
            ).start()
            print(f"health probes every {args.health_interval:g}s "
                  f"(down after {args.fail_threshold} failures)")

    if args.standby:
        def took_over(_mirror) -> None:
            print(f"primary {args.standby} unreachable; standby promoted")
            start_monitor()

        mirror = StandbyMirror(
            router,
            args.standby,
            interval=args.standby_interval,
            takeover_failures=args.takeover_failures,
            on_takeover=took_over,
        ).start()
        print(f"standby: mirroring membership from {args.standby}")
    else:
        start_monitor()
    try:
        router.serve_forever()
    except KeyboardInterrupt:
        print("interrupted")
    finally:
        if mirror is not None:
            mirror.close()
        if monitor is not None:
            monitor.close()
        router.close()
    return 0


def cmd_fleet(args) -> int:
    from .service.protocol import ProtocolError
    from .service.router import fetch_router_membership, router_admin

    try:
        if args.fleet_cmd == "add":
            reply = router_admin(
                args.router, {"op": "join", "backend": args.backend}
            )
            print(f"joined {args.backend}: "
                  f"{len(reply.get('backends', []))} backend(s) in the ring, "
                  f"{int(reply.get('migrations', 0))} space migration(s)")
        elif args.fleet_cmd == "remove":
            reply = router_admin(
                args.router, {"op": "leave", "backend": args.backend}
            )
            print(f"removed {args.backend}: "
                  f"{len(reply.get('backends', []))} backend(s) in the ring, "
                  f"{int(reply.get('migrations', 0))} space migration(s)")
        else:
            membership = fetch_router_membership(args.router)
            states = membership.get("states", {})
            print(f"{len(membership.get('backends', []))} backend(s) behind "
                  f"{args.router}")
            for backend in membership.get("backends", []):
                print(f"  {backend}  {states.get(backend, '?')}")
    except (OSError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_loadgen(args) -> int:
    from .bench.loadgen import (
        LocalFleet,
        check_fleet,
        make_chaos_resize,
        make_tenant_specs,
        publish_to_bench,
        run_loadgen,
    )

    if not args.self_hosted and not args.address:
        print("error: provide --address or use --self-hosted", file=sys.stderr)
        return 2
    if args.chaos_resize and (
        not args.self_hosted or not args.spaces_dir or args.servers < 2
    ):
        print("error: --chaos-resize needs --self-hosted, --spaces-dir and "
              "--servers >= 2", file=sys.stderr)
        return 2
    specs = make_tenant_specs(args.tenants, base_seed=args.seed)
    fleet = None
    try:
        if args.self_hosted:
            fleet = LocalFleet(
                servers=args.servers,
                workers=args.service_workers,
                spaces_dir=args.spaces_dir,
                shared_spaces=args.chaos_resize,
            )
            address = fleet.address
            print(f"self-hosted fleet: {args.servers} server(s) behind "
                  f"router {address}")
        else:
            address = args.address
        print(f"loadgen: {args.searches} concurrent searches x "
              f"{args.samples} placements x {args.rounds} round(s) over "
              f"{args.tenants} tenant space(s)")
        chaos = None
        if args.chaos_resize:
            chaos = make_chaos_resize(
                fleet, fingerprint=specs[0].fingerprint
            )
            print("chaos: will kill one backend mid-run and join a fresh "
                  "replacement")
        report = run_loadgen(
            address,
            specs,
            searches=args.searches,
            samples=args.samples,
            batch=args.batch,
            rounds=args.rounds,
            seed=args.seed,
            timeout=args.timeout,
            chaos=chaos,
        )
        if args.chaos_resize and fleet is not None:
            router_stats = fleet.router_stats()
            report["metrics"]["fleet.migrations"] = float(
                router_stats.get("migrations", 0.0)
            )
            info = report.get("chaos", {})
            if info.get("fired"):
                print(f"chaos fired: killed {info.get('victim')}, "
                      f"joined {info.get('replacement')}, "
                      f"{int(report['metrics']['fleet.migrations'])} space "
                      "migration(s)")
            else:
                print("warning: chaos hook never fired (run too short)",
                      file=sys.stderr)
        for line in report["summary"]:
            print(f"  {line}")
        failures = []
        if args.check:
            if fleet is None:
                failures.append(
                    "--check needs --self-hosted (fleet-side counters)"
                )
            else:
                failures = check_fleet(
                    report, fleet.space_stats(),
                    expect_memo_hits=args.rounds >= 2,
                )
        if args.out:
            publish_to_bench(report, args.out)
            print(f"loadgen metrics merged into {args.out}")
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        if not failures and not report["errors"]:
            print("loadgen clean: zero search errors"
                  + (", zero duplicate simulations, per-space memo hits "
                     "verified" if args.check and fleet is not None else ""))
        return 1 if failures or report["errors"] else 0
    finally:
        if fleet is not None:
            fleet.close()


def cmd_bench_micro(args) -> int:
    from .bench.micro import run_micro_bench, write_report, check_report

    report = run_micro_bench(
        batch=args.batch, repeats=args.repeats, seed=args.seed
    )
    write_report(report, args.out)
    print(f"benchmark report written to {args.out}")
    for line in report["summary"]:
        print(f"  {line}")
    failures = check_report(
        report,
        baseline_path=args.baseline,
        tolerance=args.tolerance,
        min_speedup=args.min_speedup,
    )
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_gantt(args) -> int:
    from .sim import OutOfMemoryError
    from .sim.trace import ascii_gantt

    graph, env = _make_env(args)
    placement = _predefined(args.placement, graph, env)
    try:
        bd = env.simulator.simulate(placement, record_trace=True)
    except OutOfMemoryError as exc:
        print(f"{args.placement}: OOM — {exc}")
        return 1
    print(ascii_gantt(graph, env.topology, placement, bd, width=args.width))
    return 0


def cmd_lint(args) -> int:
    from .analysis import (
        all_rules,
        fix_paths,
        lint_paths,
        render_diffs,
        render_fix_summary,
        render_json,
        render_text,
        write_fix_run,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id} [{rule.severity}] — {rule.title}")
            if rule.rationale:
                print(f"    {rule.rationale}")
        return 0
    if args.diff and not args.fix:
        print("error: --diff requires --fix", file=sys.stderr)
        return 2
    if args.fix:
        run = fix_paths(args.paths)
        result = run.result
        if result.files_scanned == 0:
            print(f"error: no Python files found under {' '.join(args.paths)}",
                  file=sys.stderr)
            return 2
        if not args.diff:
            write_fix_run(run)
        if args.format == "json":
            print(render_json(result, run))
        else:
            if args.diff:
                diffs = render_diffs(run)
                if diffs:
                    print(diffs, end="")
            print(render_fix_summary(run))
            print(render_text(result))
        failed = result.errors > 0 if args.fail_on == "error" else bool(result.findings)
        return 1 if failed else 0
    result = lint_paths(args.paths)
    if result.files_scanned == 0:
        print(f"error: no Python files found under {' '.join(args.paths)}",
              file=sys.stderr)
        return 2
    print(render_json(result) if args.format == "json" else render_text(result))
    failed = result.errors > 0 if args.fail_on == "error" else bool(result.findings)
    return 1 if failed else 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return {
        "info": cmd_info,
        "eval": cmd_eval,
        "place": cmd_place,
        "serve": cmd_serve,
        "route": cmd_route,
        "fleet": cmd_fleet,
        "loadgen": cmd_loadgen,
        "bench-micro": cmd_bench_micro,
        "gantt": cmd_gantt,
        "lint": cmd_lint,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
