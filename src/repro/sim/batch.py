"""Vectorized batch simulator: K placements per critical-path sweep.

:class:`BatchSimulator` evaluates a whole minibatch of placements in one
numpy pass.  The scalar :meth:`Simulator.simulate` loop walks the graph in
topological order and, per op, does a handful of float operations (maxima,
adds, one multiply per transfer).  Those operations are *independent across
placements*: the executor state — per-op finish times, per-device free
times, per-channel free times, per-(producer, destination-device) arrival
dedup — is private to each placement.  So the sweep keeps the same per-node
Python loop but carries every piece of state with a trailing lane axis of
size K: ``finish`` becomes ``(n, K)``, ``device_free`` becomes ``(d, K)``,
``channel_free`` becomes ``(d, d, K)``, and each scalar ``max``/``+``/``*``
becomes the identical elementwise numpy operation over the K lanes.

Because every lane performs *the same float operations in the same order*
as a scalar :meth:`Simulator.simulate` call on that placement, the batch
results are bit-for-bit identical to K independent scalar calls — not
merely close.  ``tests/sim/test_batch_simulator.py`` pins this with ``==``
(never ``allclose``) across the benchmark graphs, and hypothesis property
tests re-derive it on generated graphs and topologies.

The memory check is one scatter-add over a ``(K, n) -> (K, d)`` index map
(``np.add.at`` accumulates in element order, exactly like the scalar
``np.bincount``), so infeasible lanes are diagnosed with the same
over-commit detail the scalar path raises — they are excluded from the
sweep and reported per lane instead of raised.

The sweep pays off only from about 128 lanes: below that its per-op numpy
dispatch costs more than the scalar loop's plain float arithmetic on
Python lists.
:meth:`BatchSimulator.raw_outcomes` — the one method every evaluator calls —
therefore sweeps when a batch has at least :data:`SWEEP_MIN_LANES`
placements and runs the scalar loop otherwise.  Both sides give the same
outcomes, so the rule changes speed only.  DESIGN.md §11 has the measured
crossover.

What stays scalar: the *commit* half of an evaluation.  A
:class:`~repro.sim.environment.RawOutcome` is deterministic and cacheable;
measurement noise and environment-clock charges are drawn per evaluation in
submission order by :meth:`PlacementEnvironment.commit`.  Batch evaluation
therefore produces raw outcomes in bulk and commits them one by one — see
DESIGN.md §11 for why that ordering is load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .environment import RawOutcome, raw_outcome
from .simulator import Simulator

__all__ = ["BatchStepBreakdown", "BatchSimulator", "SWEEP_MIN_LANES"]

#: Smallest batch :meth:`BatchSimulator.raw_outcomes` sweeps; smaller
#: batches run the scalar loop, which is faster there (DESIGN.md §11).
SWEEP_MIN_LANES = 128

#: Per-lane out-of-memory detail: device -> (demanded bytes, capacity bytes).
OomDetail = Dict[int, Tuple[float, float]]


@dataclass
class BatchStepBreakdown:
    """Result of simulating one training step for K placements at once.

    Field ``i`` of every array describes ``placements[i]`` and is bit-for-bit
    equal to the corresponding :class:`~repro.sim.simulator.StepBreakdown`
    field of a scalar ``simulate`` call.  Out-of-memory lanes are not
    simulated (the scalar path raises before simulating): their
    ``step_times`` entry is ``+inf``, ``critical_op`` is ``-1``, the busy and
    comm fields are zero, and ``oom_details[i]`` carries the same
    over-commit dict :class:`~repro.sim.simulator.OutOfMemoryError` would.
    """

    step_times: np.ndarray  # (K,) makespan seconds; +inf on OOM lanes
    device_busy: np.ndarray  # (K, d) seconds each device computed
    device_memory: np.ndarray  # (K, d) resident bytes per device
    comm_bytes: np.ndarray  # (K,) bytes moved across devices
    comm_time: np.ndarray  # (K,) transfer-channel busy seconds
    critical_op: np.ndarray  # (K,) op finishing last; -1 on OOM lanes
    dispatch_total: np.ndarray  # (K,) host dispatch floor
    oom_details: Tuple[Optional[OomDetail], ...]
    #: present when simulate_batch(..., record_trace=True): per-op start and
    #: end times, ``(K, n)``.  Transfer lists stay scalar-only — use
    #: :meth:`Simulator.simulate` for timeline export of a single placement.
    op_start: Optional[np.ndarray] = None
    op_end: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.step_times.shape[0])

    def raw_outcomes(self) -> List[RawOutcome]:
        """The lanes as cacheable :class:`RawOutcome` objects, in order."""
        outs: List[RawOutcome] = []
        for i in range(len(self)):
            detail = self.oom_details[i]
            if detail is not None:
                outs.append(RawOutcome(None, oom_detail=detail))
            else:
                outs.append(RawOutcome(float(self.step_times[i])))
        return outs


class BatchSimulator:
    """Evaluates K placements per sweep, bit-for-bit equal to the scalar path.

    Wraps an existing :class:`Simulator` and reuses all of its
    placement-independent precomputation (topological order, per-op compute
    table, link parameters).  One instance is reusable across batches of any
    size, including K=1.  The sweep's own tables are built on the first
    sweep, so an instance that only ever runs the scalar side costs nothing.
    """

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._multi_consumer: Optional[np.ndarray] = None
        self._wire: Optional[np.ndarray] = None

    def _sweep_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(wire, multi_consumer)``, built on first use."""
        if self._wire is None:
            sim = self.simulator
            # How many consumers read each producer's output.  A producer
            # with a single consumer can never hit the per-(producer,
            # device) arrival dedup, so its lanes skip the arrival table.
            succ_count = np.zeros(sim.graph.num_ops, dtype=np.int64)
            for preds in sim._pred_of:
                for u in preds:
                    succ_count[u] += 1
            self._multi_consumer = succ_count > 1
            # Per-producer wire cost for every ordered device pair,
            # latency + bytes / bandwidth — the same two placement-
            # independent float operations the scalar loop performs per
            # transfer, hoisted out of the sweep.  (n, d, d) float64.
            self._wire = (
                sim._latency[None, :, :]
                + sim._out_bytes[:, None, None] * sim._inv_bw[None, :, :]
            )
        return self._wire, self._multi_consumer

    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return self.simulator.num_devices

    @property
    def num_ops(self) -> int:
        return self.simulator.graph.num_ops

    def normalize_batch(self, placements: Sequence[Sequence[int]]) -> np.ndarray:
        """Validate a ``(K, n)`` placement batch; colocation-snap and CPU-pin.

        Row semantics match :meth:`Simulator.normalize_placement` exactly.
        """
        sim = self.simulator
        n = self.num_ops
        P = np.asarray(placements, dtype=np.int64)
        if P.ndim == 1 and P.size == 0:
            P = P.reshape(0, n)
        if P.ndim != 2 or P.shape[1] != n:
            raise ValueError(
                f"placement batch must be (K, {n}), got shape {P.shape}"
            )
        if P.size and (P.min() < 0 or P.max() >= self.num_devices):
            raise ValueError(f"device index out of range [0, {self.num_devices})")
        P = P.copy()
        P[:, sim._cpu_only] = sim._cpu_idx
        if sim._colo_member.size:
            P[:, sim._colo_member] = P[:, sim._colo_leader]
        return P

    def memory_usage_batch(self, P: np.ndarray) -> np.ndarray:
        """Resident bytes per device, ``(K, d)``, for a normalized batch.

        One ``np.add.at`` scatter-add over the ``(K, n) -> (K, d)`` index
        map; ``ufunc.at`` accumulates in element order, which is the same
        per-device addition order as the scalar path's ``np.bincount``.
        """
        sim = self.simulator
        K, n = P.shape
        usage = np.zeros((K, self.num_devices))
        if K and n:
            np.add.at(usage, (np.arange(K)[:, None], P), sim._op_memory)
        return usage

    def check_memory_batch(
        self, P: np.ndarray, usage: Optional[np.ndarray] = None
    ) -> List[Optional[OomDetail]]:
        """Per-lane over-commit detail (None for feasible lanes)."""
        sim = self.simulator
        if usage is None:
            usage = self.memory_usage_batch(P)
        over = usage > sim._capacity
        details: List[Optional[OomDetail]] = []
        for k in range(P.shape[0]):
            if over[k].any():
                details.append(
                    {
                        int(d): (float(usage[k, d]), float(sim._capacity[d]))
                        for d in np.nonzero(over[k])[0]
                    }
                )
            else:
                details.append(None)
        return details

    # ------------------------------------------------------------------ #
    def simulate_batch(
        self, placements: Sequence[Sequence[int]], record_trace: bool = False
    ) -> BatchStepBreakdown:
        """Simulate one training step for every placement in one sweep.

        Returns a :class:`BatchStepBreakdown` whose ``step_times`` field is
        the ``(K,)`` per-step-time vector; OOM lanes carry ``+inf`` and
        their over-commit detail instead of raising.
        """
        P = self.normalize_batch(placements)
        K = P.shape[0]
        d = self.num_devices
        n = self.num_ops
        usage = self.memory_usage_batch(P)
        oom_details = self.check_memory_batch(P, usage)
        feasible = np.array([detail is None for detail in oom_details], dtype=bool)

        step_times = np.full(K, np.inf)
        device_busy = np.zeros((K, d))
        comm_bytes = np.zeros(K)
        comm_time = np.zeros(K)
        critical_op = np.full(K, -1, dtype=np.int64)
        dispatch_total = np.zeros(K)
        op_start = np.zeros((K, n)) if record_trace else None
        op_end = np.zeros((K, n)) if record_trace else None

        lanes = np.nonzero(feasible)[0]
        if lanes.size:
            sweep = self._sweep(P[lanes], record_trace)
            step_times[lanes] = sweep["makespan"]
            device_busy[lanes] = sweep["device_busy"]
            comm_bytes[lanes] = sweep["comm_bytes"]
            comm_time[lanes] = sweep["comm_time"]
            critical_op[lanes] = sweep["critical_op"]
            dispatch_total[lanes] = sweep["dispatch_total"]
            if record_trace:
                op_start[lanes] = sweep["op_start"]
                op_end[lanes] = sweep["op_end"]

        return BatchStepBreakdown(
            step_times=step_times,
            device_busy=device_busy,
            device_memory=usage,
            comm_bytes=comm_bytes,
            comm_time=comm_time,
            critical_op=critical_op,
            dispatch_total=dispatch_total,
            oom_details=tuple(oom_details),
            op_start=op_start,
            op_end=op_end,
        )

    def step_times(self, placements: Sequence[Sequence[int]]) -> np.ndarray:
        """The ``(K,)`` per-step-time vector (``+inf`` on OOM lanes)."""
        return self.simulate_batch(placements).step_times

    def raw_outcomes(self, placements: Sequence[Sequence[int]]) -> List[RawOutcome]:
        """Deterministic outcomes for a batch, ready for per-placement commit.

        Sweeps when the batch has at least :data:`SWEEP_MIN_LANES`
        placements and runs the scalar loop otherwise; the outcomes are
        the same either way.
        """
        if len(placements) >= SWEEP_MIN_LANES:
            return self.simulate_batch(placements).raw_outcomes()
        return [raw_outcome(self.simulator, p) for p in placements]

    # ------------------------------------------------------------------ #
    def _sweep(self, P: np.ndarray, record_trace: bool) -> Dict[str, np.ndarray]:
        """The vectorized critical-path sweep over M feasible lanes.

        Lane-for-lane this performs the same float operations, in the same
        order, as the scalar :meth:`Simulator.simulate` loop — read the two
        side by side; every line here has a scalar counterpart.
        """
        sim = self.simulator
        M, n = P.shape
        d = self.num_devices
        all_lanes = np.arange(M)
        # Contiguous per-op rows: PT[v] is the lane vector of op v's device.
        PT = np.ascontiguousarray(P.T)

        finish = np.zeros((n, M))
        device_free = np.zeros((d, M))
        device_busy = np.zeros((M, d))
        channel_free = np.zeros((d, d, M))
        # (producer -> (d, M) arrival times), allocated lazily for producers
        # with more than one consumer; -1 marks "not yet shipped", exactly
        # like the scalar path's arrived.get(key, -1.0).
        arrived: Dict[int, np.ndarray] = {}
        comm_bytes = np.zeros(M)
        comm_time = np.zeros(M)
        op_start = np.zeros((M, n)) if record_trace else None

        compute = sim._compute
        wire_table, multi = self._sweep_tables()
        out_bytes = sim._out_bytes
        dispatch = sim._dispatch
        send_ovh = sim.cost_model.send_overhead
        recv_ovh = sim.cost_model.recv_overhead
        # Row-wise sum over the contiguous axis pairwise-reduces each row
        # exactly like the scalar float(dispatch[p].sum()).
        dispatch_total = dispatch[P].sum(axis=1)

        for v in sim._topo:
            pv = PT[v]
            # ready = max over predecessors of the dependency-satisfied time:
            # the producer's finish on the same device, its (deduplicated)
            # arrival otherwise.  An arrival is >= the producer's finish, so
            # folding finish[u] into the max for cross lanes too changes
            # nothing — it saves assembling a merged per-lane vector.
            ready: Optional[np.ndarray] = None
            recv_cost: Optional[np.ndarray] = None
            for u in sim._pred_of[v]:
                fu = finish[u]
                if ready is None:
                    ready = fu.copy()
                else:
                    np.maximum(ready, fu, out=ready)
                pu = PT[u]
                nkc = (pu != pv).nonzero()[0]
                if nkc.size == 0:
                    continue
                pvc = pv[nkc]
                if multi[u]:
                    arr_u = arrived.get(u)
                    if arr_u is None:
                        arr_u = np.full((d, M), -1.0)
                        arrived[u] = arr_u
                    t_cross = arr_u[pvc, nkc]
                    fresh = t_cross < 0.0
                    nk = nkc[fresh]
                    send = nk.size > 0
                    if send:
                        du = pu[nk]
                        dvk = pvc[fresh]
                else:
                    arr_u = None
                    nk = nkc
                    du = pu[nkc]
                    dvk = pvc
                    send = True
                if send:
                    # Send op on the producer's device timeline, then the
                    # wire; the Recv is charged to the consumer below.
                    send_start = np.maximum(
                        np.maximum(fu[nk], device_free[du, nk]),
                        channel_free[du, dvk, nk],
                    )
                    freed = send_start + send_ovh
                    device_free[du, nk] = freed
                    device_busy[nk, du] += send_ovh
                    dispatch_total[nk] += dispatch[du]
                    wire = wire_table[u][du, dvk]
                    t_new = freed + wire
                    channel_free[du, dvk, nk] = t_new
                    comm_bytes[nk] += out_bytes[u]
                    comm_time[nk] += wire
                    if recv_cost is None:
                        recv_cost = np.zeros(M)
                    recv_cost[nk] += recv_ovh
                    if arr_u is not None:
                        arr_u[dvk, nk] = t_new
                        t_cross[fresh] = t_new
                    else:
                        t_cross = t_new
                ready[nkc] = np.maximum(ready[nkc], t_cross)
            dfv = device_free[pv, all_lanes]
            if ready is None:
                start = dfv
            else:
                np.maximum(ready, dfv, out=ready)
                start = ready
            cv = compute[v][pv]
            dur = cv if recv_cost is None else cv + recv_cost
            end = start + dur
            finish[v] = end
            device_free[pv, all_lanes] = end
            device_busy[all_lanes, pv] += dur
            if op_start is not None:
                op_start[:, v] = start
        # The scalar loop tracks the running max with a strict ">" update,
        # so its critical op is the topo-earliest op attaining the maximum
        # finish time — exactly np.argmax's first-occurrence rule over rows
        # ordered by topo rank.  max/argmax do no arithmetic, so computing
        # them once at the end is bit-identical to tracking in the loop.
        if n:
            topo = np.asarray(sim._topo, dtype=np.int64)
            ends = finish[topo]
            makespan = ends.max(axis=0)
            # ... with one rider: the scalar tracker starts at (0.0, op 0),
            # so a lane whose every op finishes at exactly 0.0 keeps op 0.
            critical_op = np.where(
                makespan > 0.0, topo[ends.argmax(axis=0)], 0
            ).astype(np.int64)
        else:
            makespan = np.zeros(M)
            critical_op = np.zeros(M, dtype=np.int64)
        np.maximum(makespan, dispatch_total, out=makespan)

        return {
            "makespan": makespan,
            "device_busy": device_busy,
            "comm_bytes": comm_bytes,
            "comm_time": comm_time,
            "critical_op": critical_op,
            "dispatch_total": dispatch_total,
            "op_start": op_start,
            "op_end": finish.T.copy() if record_trace else None,
        }
