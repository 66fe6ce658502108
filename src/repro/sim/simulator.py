"""Discrete execution simulator: per-step time of a placement.

This is the RL environment's physics.  Given an :class:`OpGraph`, a placement
(op → device), a :class:`Topology` and a :class:`CostModel`, it computes the
makespan of one training step under a deterministic list-scheduling executor:

* every device runs its assigned ops serially, picking ready ops in
  topological priority order (the policy of TF's executor to first order);
* every ordered device pair is a serial transfer channel with latency and
  bandwidth; a producer's output tensor is shipped to a consuming device at
  most once per step (TF's send/recv dedup);
* a device whose resident bytes (params ×4 + activations ×2, see
  :class:`CostModel`) exceed its memory raises the same Out-Of-Memory outcome
  the paper's Table IV reports.

The scheduler is O(V + E) and its loop runs on Python lists and floats
built once per simulator, so one placement costs ~0.8 ms on Inception-V3
(821 ops), ~1.5 ms on BERT (1503 ops) and ~3.5 ms on GNMT (2029 ops)
(median of 15 rounds, one core of a 2-vCPU x86-64 container) — which is
what makes full RL training runs tractable in the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.opgraph import OpGraph
from .cost_model import CostModel
from .devices import Topology

__all__ = ["OutOfMemoryError", "StepBreakdown", "Simulator"]


class OutOfMemoryError(RuntimeError):
    """A device's memory capacity was exceeded by the placement.

    Carries the over-committed device indices and their demanded bytes.
    """

    def __init__(self, overcommitted: Dict[int, Tuple[float, float]]) -> None:
        self.overcommitted = overcommitted
        detail = ", ".join(
            f"device {d}: need {need / 2**30:.2f} GiB > cap {cap / 2**30:.2f} GiB"
            for d, (need, cap) in sorted(overcommitted.items())
        )
        super().__init__(f"placement out of memory ({detail})")


@dataclass
class StepBreakdown:
    """Result of simulating one training step.

    Attributes
    ----------
    makespan:
        Per-step time in seconds.
    device_busy:
        Seconds each device spent computing.
    device_memory:
        Resident bytes charged to each device.
    comm_bytes:
        Total bytes moved across devices.
    comm_time:
        Total transfer-channel busy time (sum over channels).
    critical_op:
        Id of the op that finishes last.
    dispatch_total:
        Total host dispatch cost; when it exceeds the event-driven
        makespan the step is launch-bound and ``makespan`` equals it.
    """

    makespan: float
    device_busy: np.ndarray
    device_memory: np.ndarray
    comm_bytes: float
    comm_time: float
    critical_op: int
    dispatch_total: float = 0.0
    #: present when simulate(..., record_trace=True): per-op start times,
    #: per-op end times, and the transfer list
    #: ``(src_op, src_dev, dst_dev, start, end, bytes)``.
    op_start: Optional[np.ndarray] = None
    op_end: Optional[np.ndarray] = None
    transfers: Optional[List[Tuple[int, int, int, float, float, float]]] = None


class Simulator:
    """Reusable simulator bound to one graph + topology + cost model.

    Precomputes everything placement-independent (topological order,
    flattened edges, per-op compute times on every device, per-op memory),
    so :meth:`simulate` is a single tight pass per placement.
    """

    def __init__(self, graph: OpGraph, topology: Topology, cost_model: Optional[CostModel] = None) -> None:
        self.graph = graph
        self.topology = topology
        self.cost_model = cost_model or CostModel()

        n = graph.num_ops
        self._topo = graph.topological_order()
        self._rank = np.empty(n, dtype=np.int64)
        self._rank[self._topo] = np.arange(n)

        # Edge lists grouped by destination, ordered by destination topo rank.
        self._pred_of: List[List[int]] = [graph.predecessors(i) for i in range(n)]
        nodes = list(graph.nodes())
        self._out_bytes = np.array([node.output.bytes for node in nodes], dtype=np.float64)
        self._cpu_only = np.array([node.cpu_only for node in nodes], dtype=bool)
        self._op_memory = np.array([self.cost_model.op_memory(node) for node in nodes])

        d = topology.num_devices
        self._compute = np.empty((n, d))
        for j, dev in enumerate(topology.devices):
            for i, node in enumerate(nodes):
                self._compute[i, j] = self.cost_model.op_time(node, dev)
        self._capacity = np.array([dev.memory_bytes for dev in topology.devices], dtype=np.float64)
        self._dispatch = np.array(
            [self.cost_model.dispatch_time(dev) for dev in topology.devices]
        )
        self._cpu_idx = topology.cpu_indices()[0] if topology.cpu_indices() else 0
        # Colocation groups: (leader_ids, member_ids) pairs so members can be
        # snapped to their leader's device in one fancy-indexing assignment.
        colo: Dict[str, List[int]] = {}
        for node in nodes:
            if node.colocation_group is not None:
                colo.setdefault(node.colocation_group, []).append(node.op_id)
        members = [ids for ids in colo.values() if len(ids) > 1]
        self._colo_leader = np.array([ids[0] for ids in members for _ in ids[1:]], dtype=np.int64)
        self._colo_member = np.array([m for ids in members for m in ids[1:]], dtype=np.int64)
        # Link parameters for every ordered device pair.
        self._latency = np.zeros((d, d))
        self._inv_bw = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                if a == b:
                    continue
                link = topology.link(a, b)
                self._latency[a, b] = link.latency_s
                self._inv_bw[a, b] = 1.0 / link.bandwidth_bytes_per_s
        # Python-native copies for the scalar loop in simulate(); the numpy
        # tables above stay for the batch sweep and lower_bound().
        self._compute_rows: List[List[float]] = self._compute.tolist()
        self._latency_rows: List[List[float]] = self._latency.tolist()
        self._inv_bw_rows: List[List[float]] = self._inv_bw.tolist()
        self._out_bytes_list: List[float] = self._out_bytes.tolist()
        self._dispatch_list: List[float] = self._dispatch.tolist()

    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return self.topology.num_devices

    def normalize_placement(self, placement: Sequence[int]) -> np.ndarray:
        """Validate a placement and pin cpu-only ops to the CPU device.

        Mirrors the paper's handling of GPU-incompatible ops (§IV-B): agents
        are free to emit any device, but ops like embedding lookups are
        executed on the CPU regardless.
        """
        p = np.asarray(placement, dtype=np.int64).copy()
        if p.shape != (self.graph.num_ops,):
            raise ValueError(f"placement must assign all {self.graph.num_ops} ops, got shape {p.shape}")
        if p.size and (p.min() < 0 or p.max() >= self.num_devices):
            raise ValueError(f"device index out of range [0, {self.num_devices})")
        # Colocation snap first, then the CPU pin: an op that is both
        # colocated and cpu-only must end on the CPU.
        if self._colo_member.size:
            p[self._colo_member] = p[self._colo_leader]
        p[self._cpu_only] = self._cpu_idx
        return p

    def memory_usage(self, placement: Sequence[int]) -> np.ndarray:
        """Resident bytes per device under ``placement`` (after pinning)."""
        return self._usage(self.normalize_placement(placement))

    def check_memory(self, placement: Sequence[int]) -> None:
        """Raise :class:`OutOfMemoryError` if any device is over-committed."""
        self._check_usage(self.memory_usage(placement))

    def _usage(self, p: np.ndarray) -> np.ndarray:
        return np.bincount(p, weights=self._op_memory, minlength=self.num_devices)

    def _check_usage(self, usage: np.ndarray) -> None:
        over = {
            int(d): (float(usage[d]), float(self._capacity[d]))
            for d in np.nonzero(usage > self._capacity)[0]
        }
        if over:
            raise OutOfMemoryError(over)

    # ------------------------------------------------------------------ #
    def simulate(self, placement: Sequence[int], record_trace: bool = False) -> StepBreakdown:
        """Simulate one training step; raises on OOM.

        With ``record_trace`` the result carries per-op start/end times and
        the transfer list for timeline export (:mod:`repro.sim.trace`).

        The executor processes ops in topological priority order.  For op
        ``v`` on device ``d``: each predecessor output on another device is
        shipped over the (src_dev → d) channel (serialised per channel,
        deduplicated per (producer, destination device)); ``v`` starts at
        ``max(device_free[d], latest arrival)``.

        The loop runs on Python lists and floats (the ``*_rows`` and
        ``*_list`` tables built in ``__init__``): element reads from numpy
        arrays cost far more than the arithmetic.  Every ``max`` is an
        ``if x > cur`` chain, which picks the same value because all times
        are finite and non-negative.  The placement is normalised once, and
        its memory is charged to the devices its ops are scheduled on.
        """
        p = self.normalize_placement(placement)
        usage = self._usage(p)
        self._check_usage(usage)
        pl = p.tolist()

        n = self.graph.num_ops
        d = self.num_devices
        finish = [0.0] * n
        device_free = [0.0] * d
        device_busy = [0.0] * d
        channel_free: Dict[Tuple[int, int], float] = {}
        arrived: Dict[Tuple[int, int], float] = {}  # (src_op, dst_dev) -> arrival time
        comm_bytes = 0.0
        comm_time = 0.0
        critical_op = 0
        makespan = 0.0
        op_start = [0.0] * n if record_trace else None
        transfers: Optional[List[Tuple[int, int, int, float, float, float]]] = (
            [] if record_trace else None
        )

        compute = self._compute_rows
        latency = self._latency_rows
        inv_bw = self._inv_bw_rows
        out_bytes = self._out_bytes_list
        dispatch = self._dispatch_list
        pred_of = self._pred_of
        send_ovh = self.cost_model.send_overhead
        recv_ovh = self.cost_model.recv_overhead
        # Shared host dispatch channel, modelled as a throughput floor: the
        # executor must dispatch every op (and every Send) through one host
        # path, so the step can never finish faster than the total dispatch
        # cost.  See CostModel.gpu_dispatch.  Summed by numpy, as the sweep
        # sums it: a Python loop would add in another order.
        dispatch_total = float(self._dispatch[p].sum())

        for v in self._topo:
            dv = pl[v]
            ready = 0.0
            recv_cost = 0.0
            for u in pred_of[v]:
                du = pl[u]
                if du == dv:
                    t = finish[u]
                else:
                    key = (u, dv)
                    t = arrived.get(key, -1.0)
                    if t < 0.0:
                        # Send op on the producer's device timeline, then the
                        # wire; the Recv is charged to the consumer below.
                        chan = (du, dv)
                        send_start = finish[u]
                        x = device_free[du]
                        if x > send_start:
                            send_start = x
                        x = channel_free.get(chan, 0.0)
                        if x > send_start:
                            send_start = x
                        device_free[du] = send_start + send_ovh
                        device_busy[du] += send_ovh
                        dispatch_total += dispatch[du]
                        wire = latency[du][dv] + out_bytes[u] * inv_bw[du][dv]
                        t = send_start + send_ovh + wire
                        channel_free[chan] = t
                        arrived[key] = t
                        comm_bytes += out_bytes[u]
                        comm_time += wire
                        recv_cost += recv_ovh
                        if transfers is not None:
                            transfers.append((u, du, dv, send_start, t, out_bytes[u]))
                if t > ready:
                    ready = t
            start = ready
            x = device_free[dv]
            if x > start:
                start = x
            dur = compute[v][dv] + recv_cost
            end = start + dur
            finish[v] = end
            device_free[dv] = end
            device_busy[dv] += dur
            if op_start is not None:
                op_start[v] = start
            if end > makespan:
                makespan = end
                critical_op = v
        if dispatch_total > makespan:
            makespan = dispatch_total

        return StepBreakdown(
            makespan=float(makespan),
            device_busy=np.array(device_busy),
            device_memory=usage,
            comm_bytes=float(comm_bytes),
            comm_time=float(comm_time),
            critical_op=int(critical_op),
            dispatch_total=float(dispatch_total),
            op_start=np.array(op_start) if op_start is not None else None,
            op_end=np.array(finish) if record_trace else None,
            transfers=transfers,
        )

    def step_time(self, placement: Sequence[int]) -> float:
        """Per-step time of ``placement`` in seconds (raises on OOM)."""
        return self.simulate(placement).makespan

    # ------------------------------------------------------------------ #
    def single_device_placement(self, device: int) -> np.ndarray:
        """All ops on ``device`` (cpu-only ops still pinned to CPU)."""
        return self.normalize_placement(np.full(self.graph.num_ops, device, dtype=np.int64))

    def lower_bound(self) -> float:
        """Loose lower bound: best-device compute of the critical path only.

        Useful for sanity-checking search results in tests.
        """
        n = self.graph.num_ops
        best = self._compute.min(axis=1)
        longest = np.zeros(n)
        for v in self._topo:
            preds = self._pred_of[v]
            longest[v] = best[v] + (max(longest[u] for u in preds) if preds else 0.0)
        return float(longest.max()) if n else 0.0
