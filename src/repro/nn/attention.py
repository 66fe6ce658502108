"""Bahdanau (additive, content-based) attention.

The paper adopts "the mechanism proposed by Bahdanau et al.", computing a
context vector from the encoder outputs and the decoder's previous hidden
state (§III-C).  ``score(s, h_j) = v^T tanh(W_s s + W_h h_j)``.

:meth:`BahdanauAttention.forward_batched` scores *all* queries of a
teacher-forced decode against the memory in one broadcasted pass — one
``(T, G, B, A)`` score tensor instead of ``G`` per-step ``(T, B, A)``
passes.  Like :func:`repro.nn.rnn.lstm_sweep` it is a single custom
autograd node whose backward replays the per-step loop's exact gradient
closures so fused-vs-loop outputs *and* gradients stay equal (``==``);
``tests/nn/test_fused.py`` enforces this through the seq2seq decoder.

:func:`attend` and :func:`attend_backward` are one query's forward and
gradient replay in raw numpy; ``forward_batched`` and the seq2seq
placer's fused decode (:func:`repro.placement.seq2seq._decode_sweep`,
where each context feeds the next decoder input) share them.
"""

from __future__ import annotations

import numpy as np

from . import init
from .functional import softmax
from .module import Module, Parameter
from .layers import Linear
from .tensor import Tensor, is_grad_enabled

__all__ = ["BahdanauAttention", "attend", "attend_backward"]


def attend(
    query: np.ndarray, memory: np.ndarray, memory_proj: np.ndarray, w_query: np.ndarray, v: np.ndarray
) -> tuple:
    """Raw-numpy :meth:`BahdanauAttention.forward` for one ``(B, Q)`` query.

    The same expressions as the tensor path (``scores - max`` equals its
    ``scores + (-max)`` exactly).  Returns ``(context, cache)``; ``cache``
    is what :func:`attend_backward` needs.
    """
    T, B = memory.shape[0], memory.shape[1]
    tanh_pre = np.tanh(memory_proj + query @ w_query.T)
    scores = (tanh_pre * v).sum(axis=2)
    e = np.exp(scores - scores.max(axis=0, keepdims=True))
    ssum = e.sum(axis=0, keepdims=True)
    weights = e / ssum
    context = (memory * weights.reshape(T, B, 1)).sum(axis=0)
    return context, (tanh_pre, e, ssum, weights)


def attend_backward(g_context: np.ndarray, memory: np.ndarray, cache: tuple, v: np.ndarray) -> tuple:
    """Replay one :meth:`BahdanauAttention.forward` call's gradient closures.

    ``g_context`` is ``(B, M)``.  Returns the step's contributions
    ``(g_memory, g_memory_proj, g_v, g_q)``, where ``g_q`` is the gradient
    of the projected query ``query @ w_query.T``; callers reduce them across
    steps in the order the loop graph runs its closures.
    """
    tanh_pre, e, ssum, weights = cache
    T, B = weights.shape
    A = v.shape[0]
    g_mm = np.broadcast_to(np.expand_dims(g_context, 0), memory.shape)
    g_memory = g_mm * weights.reshape(T, B, 1)
    g_w = (g_mm * memory).sum(axis=(2,), keepdims=True).reshape(T, B)
    g_ssum = (-g_w * e / (ssum**2)).sum(axis=(0,), keepdims=True)
    g_e = g_w / ssum + np.broadcast_to(g_ssum, (T, B))
    g_mul = np.broadcast_to(np.expand_dims(g_e * e, 2), (T, B, A))
    g_v = (g_mul * tanh_pre).sum(axis=(0, 1))
    g_add = g_mul * v * (1.0 - tanh_pre**2)
    return g_memory, g_add, g_v, g_add.sum(axis=(0,))


class BahdanauAttention(Module):
    """Additive attention over a memory of encoder outputs.

    Parameters
    ----------
    query_size:
        Dimensionality of the decoder hidden state.
    memory_size:
        Dimensionality of each encoder output vector.
    attn_size:
        Dimensionality of the internal alignment space.
    """

    def __init__(self, query_size: int, memory_size: int, attn_size: int, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.w_query = Linear(query_size, attn_size, bias=False, rng=rng)
        self.w_memory = Linear(memory_size, attn_size, bias=True, rng=rng)
        self.v = Parameter(init.xavier_uniform((attn_size,), rng), name="v")
        self.memory_size = memory_size

    def precompute(self, memory: Tensor) -> Tensor:
        """Project the memory once per decode; memory is ``(T, B, memory_size)``."""
        return self.w_memory(memory)

    def forward(self, query: Tensor, memory: Tensor, memory_proj: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """Attend to ``memory`` with ``query``.

        Parameters
        ----------
        query:
            Decoder state, ``(B, query_size)``.
        memory:
            Encoder outputs, ``(T, B, memory_size)``.
        memory_proj:
            Optional output of :meth:`precompute` to avoid re-projecting the
            memory at every decoding step.

        Returns
        -------
        (context, weights):
            ``context`` is ``(B, memory_size)``; ``weights`` is ``(T, B)``.
        """
        if memory_proj is None:
            memory_proj = self.precompute(memory)
        q = self.w_query(query)  # (B, A)
        scores = ((memory_proj + q).tanh() * self.v).sum(axis=2)  # (T, B)
        weights = softmax(scores, axis=0)
        context = (memory * weights.reshape(weights.shape[0], weights.shape[1], 1)).sum(axis=0)
        return context, weights

    def forward_batched(
        self, queries: Tensor, memory: Tensor, memory_proj: Tensor | None = None
    ) -> Tensor:
        """Attend with a whole decode's queries at once.

        ``queries`` is ``(G, B, query_size)`` (e.g. every decoder hidden
        state of a teacher-forced pass); returns the contexts
        ``(G, B, memory_size)``.  Outputs and gradients are equal (``==``)
        to ``G`` independent :meth:`forward` calls: the forward computes
        the same elementwise/reduction expressions over one broadcasted
        ``(T, G, B, A)`` array (each ``(t, g, b)`` cell sees the identical
        float ops), and the backward replays the per-step closures in the
        order the loop graph runs them (steps in reverse order; the query
        projection's weight, which flows through a fresh per-step
        transpose node in the loop, in forward order).
        """
        if memory_proj is None:
            memory_proj = self.precompute(memory)
        w_query, v = self.w_query.weight, self.v
        G, B = queries.shape[0], queries.shape[1]
        mem = memory.data
        q_all = queries.data @ w_query.data.T  # (G, B, A): stacked GEMM,
        # row-for-row identical to the loop's per-step (B, Q) matmuls.
        pre = memory_proj.data[:, None] + q_all[None]  # (T, G, B, A)
        tanh_pre = np.tanh(pre)
        scores = (tanh_pre * v.data).sum(axis=3)  # (T, G, B)
        smax = scores.max(axis=0, keepdims=True)
        e = np.exp(scores - smax)
        ssum = e.sum(axis=0, keepdims=True)
        weights = e / ssum
        contexts = (mem[:, None] * weights[..., None]).sum(axis=0)  # (G, B, M)

        # ``queries`` goes last so the engine's DFS (which visits the last
        # parent first) descends the decoder subgraph before the encoder
        # chain hanging under ``memory_proj`` — that postorders the decoder
        # ahead of the encoder, so the encoder's closures *execute* first,
        # matching the per-step loop graph's closure order into shared
        # upstream tensors (e.g. the encoder input ``x``).
        parents = (memory, memory_proj, w_query, v, queries)
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(contexts)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            g_queries = np.zeros((G, B) + queries.shape[2:])
            g_memory = g_memory_proj = g_v = None
            wq_steps = [None] * G
            # The loop graph's closures for the shared parents run in
            # forward step order (the stack/logits chain visits step
            # subgraphs ascending), so contributions reduce ascending.
            for i in range(G):
                mem_step, g_add, v_step, g_q = attend_backward(
                    grad[i], mem, (tanh_pre[:, i], e[:, i], ssum[:, i], weights[:, i]), v.data
                )
                g_queries[i] += g_q @ w_query.data
                wq_steps[i] = (queries.data[i].T @ g_q).T
                if g_memory is None:
                    g_memory = mem_step.copy()
                    g_memory_proj = g_add.copy()
                    g_v = v_step.copy()
                else:
                    g_memory += mem_step
                    g_memory_proj += g_add
                    g_v += v_step
            if queries.requires_grad:
                queries._accumulate(g_queries)
            if memory.requires_grad:
                memory._accumulate(g_memory)
            if memory_proj.requires_grad:
                memory_proj._accumulate(g_memory_proj)
            if w_query.requires_grad:
                g_wq = wq_steps[0].copy()
                for i in range(1, G):
                    g_wq += wq_steps[i]
                w_query._accumulate(g_wq)
            if v.requires_grad:
                v._accumulate(g_v)

        return Tensor(contexts, requires_grad=True, _parents=parents, _backward=backward)
