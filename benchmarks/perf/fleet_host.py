"""The fleet host: a child process running ``LocalFleet(servers=2, workers=2)``.

``run.py`` starts one per fleet set-up so the fleet's memory and threads stay
out of the load generator's process.  The host prints one JSON line with the
router's address, then answers one JSON line per command on stdin:

``stats``
    per-space counters of every server and the router's counters;
``owner FINGERPRINT``
    the ring owner's address for a tenant;
``quit`` (or end of input)
    closes the fleet and answers with its peak RSS and, under ``--trace``,
    every span it recorded.

Run directly for a manual check: ``python benchmarks/perf/fleet_host.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true",
                        help="record spans around the fleet's public calls")
    parser.add_argument("--spread", default="", metavar="FINGERPRINT,...",
                        help="rebuild the fleet until these tenants have distinct ring owners")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the fleet to this core")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.bench.loadgen import LocalFleet

    from harness import peak_rss_mb
    from tracing import Probes, SpanRecorder

    recorder = SpanRecorder("fleet host") if args.trace else None
    probes = Probes(recorder) if recorder is not None else None
    tenants = [fp for fp in args.spread.split(",") if fp]
    # Servers listen on ephemeral ports and the ring hashes addresses, so
    # which server owns a tenant changes from fleet to fleet.  Tenants that
    # share an owner share its two workers, which couples their latencies;
    # pinning the layout keeps runs comparable.
    for _ in range(64):
        fleet = LocalFleet(servers=2, workers=2)
        if len({fleet.router.ring.lookup(fp) for fp in tenants}) == len(tenants):
            break
        fleet.close()
    else:
        raise RuntimeError("no fleet layout gave the tenants distinct owners")
    try:
        emit({"address": fleet.address})
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "stats":
                emit({"spaces": fleet.space_stats(), "router": fleet.router.stats()})
            elif command == "owner":
                emit({"owner": fleet.router.ring.lookup(arg)})
            elif command == "quit":
                break
            else:
                emit({"error": f"unknown command {command!r}"})
    finally:
        fleet.close()
        if probes is not None:
            probes.remove()
    emit({
        "peak_rss_mb": peak_rss_mb(),
        "pid": os.getpid(),
        "spans": recorder.dump() if recorder is not None else [],
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
