"""Test oracles shared across suites: the scalar simulator's numpy-indexed
loop, a per-placement reference backend, a spy telling the batch
simulator's two sides apart, and the ``np.add.at`` group embedding."""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim import BatchSimulator, Simulator
from repro.sim.simulator import StepBreakdown


def reference_simulate(sim, placement, record_trace=False):
    """The scalar step simulation on the simulator's numpy tables, indexed
    element by element, with ``max`` calls and three normalisations.

    :meth:`Simulator.simulate` runs the same expressions in the same order
    on Python lists, so it must return a ``==`` :class:`StepBreakdown` (or
    raise an equal :class:`OutOfMemoryError`) on every input.
    """
    p = sim.normalize_placement(placement)
    sim.check_memory(p)

    n = sim.graph.num_ops
    finish = np.zeros(n)
    device_free = np.zeros(sim.num_devices)
    device_busy = np.zeros(sim.num_devices)
    channel_free: Dict[Tuple[int, int], float] = {}
    arrived: Dict[Tuple[int, int], float] = {}  # (src_op, dst_dev) -> arrival time
    comm_bytes = 0.0
    comm_time = 0.0
    critical_op = 0
    makespan = 0.0
    op_start = np.zeros(n) if record_trace else None
    transfers: Optional[List[Tuple[int, int, int, float, float, float]]] = (
        [] if record_trace else None
    )

    compute = sim._compute
    latency = sim._latency
    inv_bw = sim._inv_bw
    out_bytes = sim._out_bytes
    dispatch = sim._dispatch
    send_ovh = sim.cost_model.send_overhead
    recv_ovh = sim.cost_model.recv_overhead
    # Shared host dispatch channel, modelled as a throughput floor: the
    # executor must dispatch every op (and every Send) through one host
    # path, so the step can never finish faster than the total dispatch
    # cost.  See CostModel.gpu_dispatch.
    dispatch_total = float(dispatch[p].sum())

    for v in sim._topo:
        dv = p[v]
        ready = 0.0
        recv_cost = 0.0
        for u in sim._pred_of[v]:
            du = p[u]
            if du == dv:
                t = finish[u]
            else:
                key = (u, dv)
                t = arrived.get(key, -1.0)
                if t < 0.0:
                    # Send op on the producer's device timeline, then the
                    # wire; the Recv is charged to the consumer below.
                    chan = (du, dv)
                    send_start = max(finish[u], device_free[du], channel_free.get(chan, 0.0))
                    device_free[du] = send_start + send_ovh
                    device_busy[du] += send_ovh
                    dispatch_total += dispatch[du]
                    wire = latency[du, dv] + out_bytes[u] * inv_bw[du, dv]
                    t = send_start + send_ovh + wire
                    channel_free[chan] = t
                    arrived[key] = t
                    comm_bytes += out_bytes[u]
                    comm_time += wire
                    recv_cost += recv_ovh
                    if transfers is not None:
                        transfers.append(
                            (int(u), int(du), int(dv), float(send_start), float(t), float(out_bytes[u]))
                        )
            if t > ready:
                ready = t
        start = max(ready, device_free[dv])
        dur = compute[v, dv] + recv_cost
        end = start + dur
        finish[v] = end
        device_free[dv] = end
        device_busy[dv] += dur
        if op_start is not None:
            op_start[v] = start
        if end > makespan:
            makespan = end
            critical_op = v
    makespan = max(makespan, dispatch_total)

    return StepBreakdown(
        makespan=float(makespan),
        device_busy=device_busy,
        device_memory=sim.memory_usage(p),
        comm_bytes=float(comm_bytes),
        comm_time=float(comm_time),
        critical_op=int(critical_op),
        dispatch_total=float(dispatch_total),
        op_start=op_start,
        op_end=finish.copy() if record_trace else None,
        transfers=transfers,
    )


def reference_embed_with_adjacency(embedder, assignment):
    """:meth:`GroupEmbedder.embed_with_adjacency` with ``np.add.at``
    scatters: the type counts add each op's one-hot row, the
    communication matrix each cut edge's bytes, one element at a time.

    The embedder's bincounts add in the same input order, so its
    embedding and matrix must be ``==`` these on every input.
    """
    from repro.placement.embeddings import _log_scale

    a = np.asarray(assignment, dtype=np.int64)
    ex = embedder.extractor
    G = embedder.num_groups

    type_counts = np.zeros((G, ex.num_types))
    np.add.at(type_counts, a, ex.type_onehot)

    flops = np.bincount(a, weights=ex.flops, minlength=G)
    out_bytes = np.bincount(a, weights=ex.out_bytes, minlength=G)
    params = np.bincount(a, weights=ex.param_bytes, minlength=G)

    comm = np.zeros((G, G))
    if embedder._edge_src.size:
        gs, gd = a[embedder._edge_src], a[embedder._edge_dst]
        cross = gs != gd
        np.add.at(comm, (gs[cross], gd[cross]), embedder._edge_bytes[cross])

    scalars = np.column_stack([_log_scale(flops), _log_scale(out_bytes), _log_scale(params)])
    sizes = type_counts.sum(axis=1, keepdims=True)
    type_frac = type_counts / np.maximum(sizes, 1.0)
    parts = [type_frac, scalars]
    if embedder.include_adjacency:
        sym = comm + comm.T
        row_sum = sym.sum(axis=1, keepdims=True)
        parts.append(sym / np.maximum(row_sum, 1.0))
    return np.concatenate(parts, axis=1), comm


class PerPlacementBackend:
    """The reference evaluator: ``environment.evaluate`` on each placement,
    in order — no batching, no cache, no sweep."""

    def __init__(self, environment) -> None:
        self.environment = environment

    def evaluate_batch(self, placements):
        return [self.environment.evaluate(p) for p in placements]

    def close(self) -> None:
        pass

    def stats(self):
        return {"evaluations": float(self.environment.num_evaluations)}


class SideSpy:
    """Counts :class:`BatchSimulator` sweeps and scalar
    :meth:`Simulator.simulate` calls from the moment it is created.

    The counters are class-level patches, so they see every thread,
    including a measurement server's pool workers.
    """

    def __init__(self, monkeypatch) -> None:
        self.sweeps = 0
        self.scalar = 0
        lock = threading.Lock()
        sweep, simulate = BatchSimulator._sweep, Simulator.simulate

        def counted_sweep(batch, P, record_trace):
            with lock:
                self.sweeps += 1
            return sweep(batch, P, record_trace)

        def counted_simulate(sim, *args, **kwargs):
            with lock:
                self.scalar += 1
            return simulate(sim, *args, **kwargs)

        monkeypatch.setattr(BatchSimulator, "_sweep", counted_sweep)
        monkeypatch.setattr(Simulator, "simulate", counted_simulate)
