"""Test oracles shared across suites: the scalar simulator's numpy-indexed
loop, a per-placement reference backend, a spy telling the batch
simulator's two sides apart, the ``np.add.at`` group embedding, and the
per-step autograd loop of ``repro.nn``'s LSTMs, Bahdanau attention and the
seq2seq placer's decode, with a spy telling it from the fused paths."""

from __future__ import annotations

import threading
from collections import defaultdict
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn import BahdanauAttention, Tensor, no_grad
from repro.nn import rnn
from repro.nn.functional import concatenate, softmax, stack
from repro.placement import seq2seq
from repro.placement.seq2seq import Seq2SeqPlacer, _logsumexp
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


# --------------------------------------------------------------------- #
# The per-step autograd loop of repro.nn and the seq2seq placer.
#
# Every fused path (``lstm_sweep``, ``BahdanauAttention.forward``,
# ``_decode_sweep`` and the raw-numpy sampling steps) promises outputs and
# gradients ``==`` to these functions.  They build one autograd node per
# tensor operation, in the order the fused backwards replay; keep every
# expression as it is, or the ``==`` suites compare against another graph.
# --------------------------------------------------------------------- #


def reference_zero_state(cell, batch):
    """The ``(h, c)`` zero start state of ``cell``'s loop."""
    z = Tensor(np.zeros((batch, cell.hidden_size)))
    return z, z


def _reference_gates(cell, gates, c):
    H = cell.hidden_size
    i = gates[..., 0 * H : 1 * H].sigmoid()
    f = gates[..., 1 * H : 2 * H].sigmoid()
    g = gates[..., 2 * H : 3 * H].tanh()
    o = gates[..., 3 * H : 4 * H].sigmoid()
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return h_next, c_next


def reference_cell(cell, x, state=None):
    """One tensor LSTM step of ``cell`` on ``x`` ``(B, input_size)``;
    returns ``(h, c)``."""
    if state is None:
        state = reference_zero_state(cell, x.shape[0])
    h, c = state
    gates = x @ cell.w_ih.T + h @ cell.w_hh.T + cell.bias
    return _reference_gates(cell, gates, c)


def reference_cell_precomputed(cell, x_proj, state):
    """One tensor LSTM step where ``x_proj = x @ w_ih.T`` was computed in
    bulk; returns ``(h, c)``."""
    h, c = state
    gates = x_proj + h @ cell.w_hh.T + cell.bias
    return _reference_gates(cell, gates, c)


def reference_lstm(lstm, x):
    """:class:`~repro.nn.LSTM` as a loop: the bulk input projection, then
    one tensor step per timestep (in reverse for a reverse LSTM).  Returns
    the stacked hidden states ``(T, B, H)``."""
    T, B = x.shape[0], x.shape[1]
    state = reference_zero_state(lstm.cell, B)
    proj = x.reshape(T * B, x.shape[2]) @ lstm.cell.w_ih.T
    proj = proj.reshape(T, B, 4 * lstm.hidden_size)
    order = range(T - 1, -1, -1) if lstm.reverse else range(T)
    outputs = [None] * T
    for t in order:
        state = reference_cell_precomputed(lstm.cell, proj[t], state)
        outputs[t] = state[0]
    return stack(outputs, axis=0)


def reference_bilstm(bilstm, x):
    """:class:`~repro.nn.BiLSTM` over two loop LSTMs."""
    return concatenate([reference_lstm(bilstm.fwd, x), reference_lstm(bilstm.bwd, x)], axis=2)


def reference_attend(attn, query, memory, memory_proj=None):
    """One tensor Bahdanau attention step for ``query`` ``(B, Q)``; returns
    ``(context (B, M), weights (T, B))``."""
    if memory_proj is None:
        memory_proj = attn.precompute(memory)
    q = attn.w_query(query)  # (B, A)
    scores = ((memory_proj + q).tanh() * attn.v).sum(axis=2)  # (T, B)
    weights = softmax(scores, axis=0)
    context = (memory * weights.reshape(weights.shape[0], weights.shape[1], 1)).sum(axis=0)
    return context, weights


def _reference_encode(placer, embeddings):
    if not isinstance(embeddings, Tensor):
        embeddings = Tensor(np.asarray(embeddings, dtype=np.float64))
    x = placer.input_proj(embeddings).tanh()
    enc_out = reference_bilstm(placer.encoder, x)
    return x, enc_out, placer.attn.precompute(enc_out)


def _reference_steps(placer, x, enc_out, memory_proj):
    """The placer's decode as a loop graph: ``step(i, prev_dev) -> logits``."""
    state = reference_zero_state(placer.decoder, x.shape[1])

    def step(i, prev_dev):
        nonlocal state
        dev_emb = placer.device_embedding[prev_dev]  # (B, E)
        if placer.attention == "before":
            context, _ = reference_attend(placer.attn, state[0], enc_out, memory_proj)
            inp = concatenate([x[i], dev_emb, context], axis=1)
            state = reference_cell(placer.decoder, inp, state)
            return placer.out_proj(state[0])
        state = reference_cell(placer.decoder, concatenate([x[i], dev_emb], axis=1), state)
        context, _ = reference_attend(placer.attn, state[0], enc_out, memory_proj)
        return placer.out_proj(concatenate([state[0], context], axis=1))

    return step


def reference_forward_logits(placer, embeddings, devices):
    """:meth:`Seq2SeqPlacer.forward_logits` as a loop graph over
    ``placer``'s parameters."""
    devices = np.asarray(devices, dtype=np.int64)
    G, B = embeddings.shape[0], embeddings.shape[1]
    x, enc_out, memory_proj = _reference_encode(placer, embeddings)
    prev_idx = np.empty((G, B), dtype=np.int64)
    prev_idx[0] = placer.num_devices  # start token
    prev_idx[1:] = devices[:, : G - 1].T
    step = _reference_steps(placer, x, enc_out, memory_proj)
    return stack([step(i, prev_idx[i]) for i in range(G)], axis=0)


def reference_sample(placer, embeddings, rng, greedy=False):
    """:meth:`Seq2SeqPlacer.sample` on the loop decode."""
    if isinstance(embeddings, Tensor):
        embeddings = embeddings.data
    embeddings = np.asarray(embeddings, dtype=np.float64)
    G, B = embeddings.shape[0], embeddings.shape[1]
    D = placer.num_devices
    with no_grad():
        step = _reference_steps(placer, *_reference_encode(placer, embeddings))
        prev_dev = np.full(B, D, dtype=np.int64)
        devices = np.empty((B, G), dtype=np.int64)
        logp = np.zeros((B, G))
        for i in range(G):
            step_logits = step(i, prev_dev).data
            lp = step_logits - _logsumexp(step_logits)
            if greedy:
                d = np.argmax(lp, axis=1)
            else:
                cdf = np.cumsum(np.exp(lp), axis=1)
                cdf[:, -1] = 1.0
                d = (rng.random((B, 1)) > cdf).sum(axis=1)
                d = np.minimum(d, D - 1)
            devices[:, i] = d
            logp[:, i] = lp[np.arange(B), d]
            prev_dev = d
    return devices, logp


def use_reference_decode(placer):
    """Make ``placer`` encode, decode and sample through the loop oracle:
    its ``forward_logits`` and ``sample`` become the reference functions
    (instance attributes; the class is untouched).  ``log_prob_and_entropy``,
    ``log_prob`` and ``entropy`` then run their loss head on the loop
    logits.  Returns ``placer``."""
    placer.forward_logits = partial(reference_forward_logits, placer)
    placer.sample = partial(reference_sample, placer)
    return placer


class FusedPathSpy:
    """Records which modules enter each fused path from the moment it is
    created: :func:`repro.nn.rnn.lstm_sweep` (by LSTM cell),
    ``_decode_sweep`` (by decoder cell), ``Seq2SeqPlacer._numpy_steps``
    (by placer) and ``BahdanauAttention.forward`` (by attention module).
    """

    def __init__(self, monkeypatch) -> None:
        self.entered = defaultdict(list)  # path name -> modules, in call order

        def spy(owner, name, module_arg):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                self.entered[name].append(args[module_arg])
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        spy(rnn, "lstm_sweep", 1)
        spy(seq2seq, "_decode_sweep", 3)
        spy(Seq2SeqPlacer, "_numpy_steps", 0)
        spy(BahdanauAttention, "forward", 0)

    def paths(self, module):
        """The fused paths that ``module`` or one of its submodules entered."""
        ids = {id(m) for m in module.modules()}
        return {name for name, owners in self.entered.items() if any(id(m) in ids for m in owners)}
