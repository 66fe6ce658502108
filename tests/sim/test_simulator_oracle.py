"""``Simulator.simulate`` runs on Python lists; the same loop on the numpy
tables, indexed element by element, is its oracle
(``tests/reference.py::reference_simulate``).  Every field of the returned
:class:`StepBreakdown` — trace included — and every OOM detail must be
``==`` the oracle's, never merely close."""

import numpy as np
import pytest

from repro.graph.models import build_benchmark
from repro.graph.opgraph import OpGraph
from repro.sim import BatchSimulator, OutOfMemoryError, Simulator, Topology
from repro.sim.devices import LinkSpec

from ..reference import reference_simulate

_ARRAY_FIELDS = ("device_busy", "device_memory", "op_start", "op_end")
_SCALAR_FIELDS = (
    "makespan", "comm_bytes", "comm_time", "critical_op", "dispatch_total",
    "transfers",
)


def _outcome(simulate, sim, placement, record_trace):
    try:
        return simulate(sim, placement, record_trace)
    except OutOfMemoryError as exc:
        return exc


def _assert_equal_outcomes(sim, placement, record_trace):
    new = _outcome(Simulator.simulate, sim, placement, record_trace)
    old = _outcome(reference_simulate, sim, placement, record_trace)
    if isinstance(old, OutOfMemoryError):
        assert isinstance(new, OutOfMemoryError)
        assert new.overcommitted == old.overcommitted
        assert str(new) == str(old)
        return old
    for name in _SCALAR_FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert a == b and type(a) is type(b), name
    for name in _ARRAY_FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    return old


def _random_placements(rng, num_ops, num_devices, count):
    return [rng.integers(0, num_devices, size=num_ops) for _ in range(count)]


@pytest.mark.parametrize("model", ["inception_v3", "gnmt", "bert"])
def test_benchmark_graphs_equal_the_oracle(model):
    graph = build_benchmark(model)
    sim = Simulator(graph, Topology.default_4gpu())
    rng = np.random.default_rng(20)
    for i, p in enumerate(_random_placements(rng, graph.num_ops, sim.num_devices, 12)):
        out = _assert_equal_outcomes(sim, p, record_trace=i % 3 != 0)
        if i % 3 != 0 and not isinstance(out, OutOfMemoryError):
            assert out.transfers  # a random split always ships tensors


def _colocated_graph():
    """Colocation groups led by ordinary ops, cpu-only members and
    standalone cpu-only ops, wired as a small diamond-of-chains."""
    g = OpGraph("colocated")
    g.add_op("ids", "Input", (64, 32), cpu_only=True)
    g.add_op("emb", "Gather", (64, 512), cpu_only=True, param_bytes=1 << 20, inputs=["ids"])
    prev = ["emb"]
    for layer in range(4):
        group = f"layer{layer}"
        g.add_op(f"w{layer}", "MatMul", (64, 512), flops=4e7, param_bytes=1 << 20,
                 colocation_group=group, inputs=prev)
        g.add_op(f"act{layer}", "Relu", (64, 512), flops=3e4,
                 colocation_group=group, inputs=[f"w{layer}"])
        g.add_op(f"stat{layer}", "Mean", (64,), cpu_only=True,
                 colocation_group=group, inputs=[f"act{layer}"])
        g.add_op(f"side{layer}", "MatMul", (64, 512), flops=2e7, inputs=prev)
        prev = [f"act{layer}", f"side{layer}", f"stat{layer}"]
    g.add_op("loss", "Sum", (1,), flops=1e3, inputs=prev)
    return g


def test_colocation_groups_and_cpu_only_ops_equal_the_oracle():
    graph = _colocated_graph()
    sim = Simulator(graph, Topology.default_4gpu(num_gpus=2))
    assert sim._colo_member.size and sim._cpu_only.any()
    rng = np.random.default_rng(3)
    for p in _random_placements(rng, graph.num_ops, sim.num_devices, 30):
        _assert_equal_outcomes(sim, p, record_trace=True)
        _assert_equal_outcomes(sim, p, record_trace=False)


def _asymmetric_topology(num_gpus=6):
    """A CPU plus ``num_gpus`` GPUs whose every ordered link has its own
    bandwidth and latency, so a -> b never equals b -> a; a few pairs keep
    the default link."""
    base = Topology.default_4gpu(num_gpus=num_gpus)
    d = base.num_devices
    links = {
        (a, b): LinkSpec(bandwidth_bytes_per_s=1e9 * (1 + a + 3 * b),
                         latency_s=1e-6 * (1 + 2 * a + 7 * b))
        for a in range(d) for b in range(d) if a != b and (a + b) % 5
    }
    return Topology(base.devices, default_link=base.default_link, links=links)


def _fan_out_graph(num_devices):
    """One producer per device, each read by two consumers on every other
    device (one transfer per destination, two readers), then one join."""
    g = OpGraph("fan-out")
    g.add_op("x", "Input", (64, 256))
    consumers = []
    for a in range(num_devices):
        g.add_op(f"p{a}", "MatMul", (64 << a, 256), flops=1e7 * (a + 1), inputs=["x"])
        for b in range(num_devices):
            if b != a:
                for k in range(2):
                    g.add_op(f"c{a}to{b}_{k}", "Relu", (64, 256), flops=3e4 * (k + 1),
                             inputs=[f"p{a}"])
                    consumers.append(f"c{a}to{b}_{k}")
    g.add_op("join", "AddN", (64, 256), flops=1e5, inputs=consumers)
    return g


def test_asymmetric_links_and_fan_out_equal_the_oracle():
    """The scalar loop reads its link tables destination-major; with every
    link one-way distinct, reading them (or a channel) the other way round
    moves the trace.  Producer ``p{a}`` sits on device ``a`` and its two
    readers on each other device, so every ordered channel carries traffic
    and each producer ships once per destination."""
    topo = _asymmetric_topology()
    d = topo.num_devices
    assert d > 5
    graph = _fan_out_graph(d)
    sim = Simulator(graph, topo)
    assert not np.array_equal(sim._latency, sim._latency.T)
    assert not np.array_equal(sim._inv_bw, sim._inv_bw.T)
    placement = np.zeros(graph.num_ops, dtype=np.int64)
    for node in graph.nodes():
        if node.name.startswith("p"):
            placement[node.op_id] = int(node.name[1:])
        elif node.name.startswith("c"):
            placement[node.op_id] = int(node.name.split("to")[1].split("_")[0])
    out = _assert_equal_outcomes(sim, placement, record_trace=True)
    for a in range(d):
        src = graph.node(f"p{a}").op_id
        shipped = sorted(dst for u, du, dst, *_ in out.transfers if u == src)
        assert shipped == [b for b in range(d) if b != a]
    rng = np.random.default_rng(11)
    for p in _random_placements(rng, graph.num_ops, d, 20):
        _assert_equal_outcomes(sim, p, record_trace=True)


def test_tiny_memory_oom_detail_equals_the_oracle():
    """GPUs too small for most splits: many placements raise, and the
    over-commit dicts (device -> (demanded, capacity)) must be equal."""
    graph = build_benchmark("inception_v3")
    topo = Topology.default_4gpu(num_gpus=3, gpu_memory_bytes=int(0.15 * 2**30))
    sim = Simulator(graph, topo)
    rng = np.random.default_rng(5)
    ooms = 0
    for p in _random_placements(rng, graph.num_ops, sim.num_devices, 12):
        ooms += isinstance(_assert_equal_outcomes(sim, p, record_trace=True), OutOfMemoryError)
    cpu_only = np.zeros(graph.num_ops, dtype=np.int64)
    assert not isinstance(_assert_equal_outcomes(sim, cpu_only, True), OutOfMemoryError)
    assert 0 < ooms < 12


def test_memory_is_charged_where_ops_run():
    """A colocation group led by a cpu-only op: the leader is pinned to the
    CPU and its member follows it there, so the group never splits and
    normalising is a fixed point.  Normalising once or three times (the
    oracle) then charges every op's memory where it is scheduled, as the
    batch sweep does."""
    g = OpGraph()
    g.add_op("emb", "Gather", (256, 256), cpu_only=True, colocation_group="x",
             param_bytes=1 << 24)
    g.add_op("upd", "MatMul", (256, 256), flops=1e6, colocation_group="x",
             param_bytes=1 << 24, inputs=["emb"])
    sim = Simulator(g, Topology.default_4gpu(num_gpus=2))
    placement = [1, 2]
    scheduled = sim.normalize_placement(placement)
    assert scheduled.tolist() == [0, 0]
    assert sim.normalize_placement(scheduled).tolist() == [0, 0]
    out = _assert_equal_outcomes(sim, placement, record_trace=True)
    expected = np.bincount(scheduled, weights=sim._op_memory, minlength=sim.num_devices)
    assert np.array_equal(out.device_memory, expected)
    assert np.array_equal(
        out.device_memory, BatchSimulator(sim).simulate_batch([placement]).device_memory[0]
    )
