#!/usr/bin/env python3
"""Place a model on a custom device topology.

The library is not tied to the paper's 4×P100 box: this example builds an
asymmetric machine (one big-memory GPU, two small ones, a slow interconnect
to one of them) and shows how the discovered placement adapts — the
big-memory device absorbs the memory-heavy groups, and the slow-linked
device is avoided for chatty subgraphs.

Run:  python examples/custom_topology.py
"""

from repro import (
    EagleAgent,
    PlacementEnvironment,
    PlacementSearch,
    SearchConfig,
    make_backend,
)
from repro.graph.models import build_benchmark
from repro.sim.devices import DeviceSpec, LinkSpec, Topology

GB = 1 << 30


def build_custom_topology() -> Topology:
    devices = [
        DeviceSpec("/cpu:0", "cpu", 64 * GB, 200.0, 15e-6),
        DeviceSpec("/gpu:big", "gpu", 24 * GB, 5000.0, 40e-6),
        DeviceSpec("/gpu:small0", "gpu", 6 * GB, 3000.0, 40e-6),
        DeviceSpec("/gpu:small1", "gpu", 6 * GB, 3000.0, 40e-6),
    ]
    fast = LinkSpec(bandwidth_bytes_per_s=12e9, latency_s=40e-6)
    slow = LinkSpec(bandwidth_bytes_per_s=2e9, latency_s=200e-6)
    # small1 hangs off a slow link (e.g. a second PCIe switch).
    links = {}
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            links[(i, j)] = slow if 3 in (i, j) else fast
    return Topology(devices, default_link=fast, links=links)


def main() -> None:
    topo = build_custom_topology()
    print("Custom topology:")
    for d in topo.devices:
        print(
            f"  {d.name:12s} {d.kind:4s} {d.memory_bytes / GB:5.0f} GiB, "
            f"{d.effective_gflops:6.0f} GFLOPS"
        )

    graph = build_benchmark("gnmt", batch_size=128)
    print(f"\nPlacing {graph.name} ({graph.num_ops} ops)...")

    env = PlacementEnvironment(graph, topo, seed=0)
    agent = EagleAgent(graph, env.num_devices, num_groups=48, placer_hidden=64, seed=0)
    config = SearchConfig(max_samples=200, entropy_coef=0.1, entropy_coef_final=0.02)
    # The default backend memoises the deterministic simulation of repeated
    # placements; noise comes from the environment's own RNG stream, so the
    # result is identical to an uncached run on this seed.
    res = PlacementSearch(agent, env, "ppo", config, backend=make_backend(env)).run()
    print(f"Best placement: {res.final_time * 1000:.0f} ms/step")

    bd = env.simulator.simulate(res.best_placement)
    print("\nHow the placement used the machine:")
    for dev, busy, mem in zip(topo.devices, bd.device_busy, bd.device_memory):
        ops = int((res.best_placement == topo.device_index(dev.name)).sum())
        print(
            f"  {dev.name:12s} {ops:5d} ops   busy {busy * 1000:7.0f} ms   "
            f"resident {mem / GB:5.2f} GiB"
        )
    print(f"  cross-device traffic: {bd.comm_bytes / GB:.2f} GiB/step")


if __name__ == "__main__":
    main()
