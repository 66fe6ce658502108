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
    """A colocation group led by a cpu-only op: pinning moves the leader to
    the CPU after its member was snapped to the leader's requested device.
    The oracle normalised twice and charged the member's memory to the
    CPU; ``simulate`` normalises once and charges it to the device it is
    scheduled on, as the batch sweep always has."""
    g = OpGraph()
    g.add_op("emb", "Gather", (256, 256), cpu_only=True, colocation_group="x",
             param_bytes=1 << 24)
    g.add_op("upd", "MatMul", (256, 256), flops=1e6, colocation_group="x",
             param_bytes=1 << 24, inputs=["emb"])
    sim = Simulator(g, Topology.default_4gpu(num_gpus=2))
    placement = [1, 2]
    scheduled = sim.normalize_placement(placement)
    assert scheduled.tolist() == [0, 1]
    out = sim.simulate(placement, record_trace=True)
    old = reference_simulate(sim, placement, record_trace=True)
    assert out.makespan == old.makespan and out.transfers == old.transfers
    expected = np.bincount(scheduled, weights=sim._op_memory, minlength=sim.num_devices)
    assert np.array_equal(out.device_memory, expected)
    assert np.array_equal(
        out.device_memory, BatchSimulator(sim).simulate_batch([placement]).device_memory[0]
    )
    assert old.device_memory[1] == 0.0 < out.device_memory[1]
