"""Tests for the measurement-space fingerprints."""

from repro.graph import (
    cost_model_fingerprint,
    graph_fingerprint,
    placement_space_fingerprint,
    topology_fingerprint,
)
from repro.graph.models import build_benchmark, build_chain, build_random_layered
from repro.sim import CostModel, LinkSpec, Topology


def test_graph_fingerprint_is_stable_and_content_keyed():
    a = build_random_layered(num_layers=6, width=5, seed=7)
    b = build_random_layered(num_layers=6, width=5, seed=7)
    c = build_random_layered(num_layers=6, width=5, seed=8)
    assert graph_fingerprint(a) == graph_fingerprint(b)
    assert graph_fingerprint(a) != graph_fingerprint(c)
    assert len(graph_fingerprint(a)) == 64  # sha256 hex


def test_graph_fingerprint_sees_node_attributes():
    a = build_chain(length=4)
    b = build_chain(length=4)
    assert graph_fingerprint(a) == graph_fingerprint(b)
    b.node(1).flops += 1.0
    assert graph_fingerprint(a) != graph_fingerprint(b)


def test_topology_fingerprint_sees_devices_and_links():
    a = Topology.default_4gpu(num_gpus=2)
    b = Topology.default_4gpu(num_gpus=2)
    assert topology_fingerprint(a) == topology_fingerprint(b)
    assert topology_fingerprint(a) != topology_fingerprint(
        Topology.default_4gpu(num_gpus=4)
    )
    assert topology_fingerprint(a) != topology_fingerprint(
        Topology.default_4gpu(num_gpus=2, gpu_memory_bytes=1 << 30)
    )
    with_link = Topology(
        a.devices, a.default_link, links={(0, 1): LinkSpec(1e9, 1e-6)}
    )
    assert topology_fingerprint(a) != topology_fingerprint(with_link)


def test_placement_space_fingerprint_covers_all_inputs():
    graph = build_random_layered(num_layers=4, width=4, seed=3)
    topo = Topology.default_4gpu(num_gpus=2)
    base = placement_space_fingerprint(graph, topo, CostModel())
    assert base == placement_space_fingerprint(graph, topo, CostModel())
    other_graph = build_random_layered(num_layers=4, width=4, seed=4)
    assert base != placement_space_fingerprint(other_graph, topo, CostModel())
    other_topo = Topology.default_4gpu(num_gpus=3)
    assert base != placement_space_fingerprint(graph, other_topo, CostModel())
    other_cost = CostModel(gpu_dispatch=1e-3)
    assert base != placement_space_fingerprint(graph, topo, other_cost)
    # cost model optional: still deterministic, still graph/topology-keyed
    assert placement_space_fingerprint(graph, topo) == placement_space_fingerprint(
        graph, topo
    )
    assert placement_space_fingerprint(graph, topo) != base


def test_digests_are_pinned():
    """Persisted memo files and spaces are keyed by these digests: a change
    to either rendering orphans every one of them."""
    assert topology_fingerprint(Topology.default_4gpu()) == (
        "f92eddb88b35fabbb292501f46de472662751708072d2f4e31fdf1da6a07181b"
    )
    assert cost_model_fingerprint(CostModel()) == (
        "50ae8bf32c328cf2fdc36c0394c56c8f8d243e6bcf1228ac995fd5c5c3a33024"
    )
    two = Topology.default_4gpu(num_gpus=2)
    with_link = Topology(two.devices, two.default_link, links={(0, 1): LinkSpec(1e9, 1e-6)})
    assert topology_fingerprint(with_link) == (
        "e93b7991177e0b4551dc28f73c63ca5d3d77ae6fb1e687b956004221de8b525a"
    )
    gnmt, topo = build_benchmark("gnmt"), Topology.default_4gpu()
    assert placement_space_fingerprint(gnmt, topo, CostModel()) == (
        "6beee6b9e277ee6ecd234db7aed40238ba26cc42cb7e10c2ed833cecc13140f0"
    )
    assert placement_space_fingerprint(gnmt, topo) == (
        "f412272a83e53dfd352faaa1b84693fb614ab5977a609e1631d95b4cc76f9a71"
    )
