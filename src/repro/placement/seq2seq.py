"""Sequence-to-sequence placer with Bahdanau attention (§III-C, Fig. 3a/4).

A bidirectional LSTM encoder reads the sequence of group embeddings; a
unidirectional LSTM decoder emits one device decision per group, conditioned
on the previous decision through a learned device embedding.  The attention
context can be combined **before** the decoder LSTM (EAGLE's choice, Fig. 4a)
or **after** it (Hierarchical Planner's choice, Fig. 4b):

* *before*: the LSTM input is ``[x_i ; context(h_{i-1})]`` and the logits
  are a projection of the new hidden state;
* *after*: the LSTM consumes ``x_i`` alone and the logits are a projection
  of ``[h_i ; context(h_i)]``.

All forward passes are batched over placements (time-major ``(G, B, D)``),
so a PPO minibatch is a single pass.

By default (``fused=True``) both attention modes run the decoder recurrence
without per-step autograd nodes.  Teacher forcing makes every decoder input known
upfront except the ``"before"`` context, which depends on the previous
hidden state; :func:`_decode_sweep` therefore runs the recurrence —
attention included — in raw numpy and backpropagates through it with a
hand-written BPTT that replays the loop graph's closures in its
accumulation order, so results stay bit-for-bit equal to the per-step loop
(``fused=False``, the test oracle).  Sampling runs the same raw-numpy step
code.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import BahdanauAttention, BiLSTM, LSTMCell, Linear, Module, Parameter, Tensor, init, no_grad
from ..nn.attention import attend, attend_backward
from ..nn.functional import concatenate, log_softmax, softmax, stack
from ..nn.rnn import gate_backward, gate_forward
from ..nn.tensor import is_grad_enabled

__all__ = ["Seq2SeqPlacer"]


def _lstm_step(cell: LSTMCell, parts, h: np.ndarray, c: np.ndarray):
    """One raw-numpy decoder step on the input ``concatenate(parts)``.

    The same expressions as :meth:`LSTMCell.forward` on the loop graph;
    returns ``(inp, h_next, c_next, gate_cache)``.
    """
    inp = np.concatenate(parts, axis=1)
    gates = inp @ cell.w_ih.data.T + h @ cell.w_hh.data.T + cell.bias.data
    return (inp,) + gate_forward(gates, c)


def _decode_sweep(
    x: Tensor,
    embedding: Parameter,
    prev_idx: np.ndarray,
    cell: LSTMCell,
    attention: Optional[Tuple[BahdanauAttention, Tensor, Tensor]] = None,
) -> Tensor:
    """Fused teacher-forced decoder: one autograd node for the whole decode.

    Per step the loop gathers the previous decision's embedding, concatenates
    it with ``x[i]`` — and, in ``"before"`` mode, with the attention context
    of the previous hidden state — projects through ``w_ih`` and runs one
    LSTM step.  Under teacher forcing every ``prev_idx`` row is known
    upfront, so the whole sweep fuses; the context still feeds the next
    LSTM input, so the forward keeps its recurrence in raw numpy.  The
    backward is a hand-written BPTT that replays the loop graph's exact
    closures — same expressions, same accumulation orders (reverse time for
    the step chains and for the ``w_ih``/embedding/attention contributions,
    ascending time for the recurrent weight's transpose nodes; ``h_{t-1}``
    sums its output, query and recurrence gradients in that order) — so
    outputs *and* gradients are equal (``==``) to the step-by-step path.

    ``x`` is ``(G, B, Hx)``; ``embedding`` is the ``(V, E)`` device-embedding
    table; ``prev_idx`` is ``(G, B)`` int64 (row ``i`` holds the device fed to
    step ``i``); ``attention`` is ``(attn, memory, memory_proj)`` for
    attention before the decoder, ``None`` for after.  Returns the stacked
    hidden states ``(G, B, H)``.
    """
    G, B, Hx = x.shape
    E = embedding.shape[1]
    H = cell.hidden_size
    w_ih, w_hh, bias = cell.w_ih, cell.w_hh, cell.bias
    emb = embedding.data
    attn_parents = ()
    if attention is not None:
        attn, memory, memory_proj = attention
        w_query, v = attn.w_query.weight, attn.v
        mem, mp = memory.data, memory_proj.data
        attn_parents = (memory, memory_proj, w_query, v)
    h = c = np.zeros((B, H))
    outputs = np.empty((G, B, H))
    cache = []
    for t in range(G):
        parts = [x.data[t], emb[prev_idx[t]]]
        attn_cache = None
        if attention is not None:
            context, attn_cache = attend(h, mem, mp, w_query.data, v.data)
            parts.append(context)
        inp, h_next, c, gate_cache = _lstm_step(cell, parts, h, c)
        cache.append((h, inp, attn_cache, gate_cache))
        h = outputs[t] = h_next

    # ``embedding`` goes last: the DFS visits the last parent first, and the
    # loop graph postorders each step's embedding gather under the step
    # subtree before reaching ``x``'s ancestors.
    parents = attn_parents + (w_ih, w_hh, bias, x, embedding)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(outputs)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        wi, w = w_ih.data, w_hh.data
        g_x = np.zeros((G, B, Hx))
        # Reverse-time sums, one per parent (``None`` until the first step).
        # Weight sums stay in the matmul's ``(in, out)`` layout: the loop's
        # transpose nodes flip each term, which flips the same floats.
        totals = dict.fromkeys((w_ih, bias, embedding) + attn_parents)
        transposed = {w_ih, w_hh, w_query} if attention is not None else {w_ih, w_hh}

        def add(parent, step):  # every ``step`` is a fresh array
            if totals[parent] is None:
                totals[parent] = step
            else:
                totals[parent] += step

        wh_steps = [None] * G
        g_h = g_c = None
        for t in range(G - 1, -1, -1):
            h_prev, inp, attn_cache, gate_cache = cache[t]
            if g_h is None:
                g_h = grad[t].copy()
            gg, g_c = gate_backward(g_h, g_c, gate_cache)
            add(bias, gg.sum(axis=0))
            wh_steps[t] = h_prev.T @ gg
            g_inp = gg @ wi
            g_x[t] += g_inp[:, :Hx]
            scat = np.zeros_like(emb)
            np.add.at(scat, prev_idx[t], g_inp[:, Hx : Hx + E])
            add(embedding, scat)
            add(w_ih, inp.T @ gg)
            if attention is not None:
                g_mem, g_mp, g_v, g_q = attend_backward(g_inp[:, Hx + E :], mem, attn_cache, v.data)
                add(memory, g_mem)
                add(memory_proj, g_mp)
                add(v, g_v)
                add(w_query, h_prev.T @ g_q)
            if t > 0:
                g_h = grad[t - 1].copy()
                if attention is not None:
                    g_h += g_q @ w_query.data
                g_h += gg @ w
        # The recurrent weight's transpose nodes close forward-in-time in
        # the loop graph (ascending, as in lstm_sweep).
        totals[w_hh] = wh_steps[0]
        for t in range(1, G):
            totals[w_hh] += wh_steps[t]
        totals[x] = g_x
        for parent, total in totals.items():
            if parent.requires_grad:
                parent._accumulate(total.T if parent in transposed else total)

    return Tensor(outputs, requires_grad=True, _parents=parents, _backward=backward)


class Seq2SeqPlacer(Module):
    """The seq2seq placement policy.

    Parameters
    ----------
    embed_dim:
        Dimensionality of a group embedding.
    num_devices:
        Size of the device vocabulary (the action space per group).
    hidden:
        LSTM hidden size (512 in the paper; smaller in the scaled benches).
    attention:
        ``"before"`` (EAGLE) or ``"after"`` (Hierarchical Planner).
    attn_size:
        Alignment-space width of the additive attention.
    device_embed_dim:
        Width of the learned embedding of the previous device decision.
    device_prior:
        Optional per-device initial logit offsets added to the output
        layer's bias (e.g. a negative value on the CPU so early samples
        prefer accelerators).  The bias remains trainable.
    fused:
        Use the fused hot paths (default): the encoder runs through
        :func:`~repro.nn.rnn.lstm_sweep`; teacher-forced decodes run the
        whole decoder recurrence — previous-device gather, ``"before"``
        attention context, concat, LSTM step — as one
        :func:`_decode_sweep` node with a hand-written BPTT backward
        (``"after"`` attention is batched over the known hidden states
        instead); and :meth:`sample` decodes in raw numpy through the same
        step code.  Outputs, samples and gradients are equal (``==``) to
        the step-by-step path, which ``fused=False`` keeps as the oracle —
        enforced by ``tests/nn/test_fused.py``.
    """

    def __init__(
        self,
        embed_dim: int,
        num_devices: int,
        hidden: int = 512,
        attention: str = "before",
        attn_size: Optional[int] = None,
        device_embed_dim: Optional[int] = None,
        device_prior: Optional[np.ndarray] = None,
        *,
        rng: np.random.Generator,
        fused: bool = True,
    ) -> None:
        super().__init__()
        if attention not in ("before", "after"):
            raise ValueError(f"attention must be 'before' or 'after', got {attention!r}")
        if hidden % 2:
            raise ValueError("hidden must be even (bidirectional encoder)")
        self.embed_dim = embed_dim
        self.num_devices = num_devices
        self.hidden = hidden
        self.attention = attention
        self.fused = fused
        attn_size = attn_size or hidden // 2
        device_embed_dim = device_embed_dim or max(8, hidden // 8)
        self.device_embed_dim = device_embed_dim

        self.input_proj = Linear(embed_dim, hidden, rng=rng)
        self.encoder = BiLSTM(hidden, hidden // 2, rng=rng, fused=fused)  # outputs (G, B, hidden)
        # +1 device id: the start-of-decode token.
        self.device_embedding = Parameter(
            init.xavier_normal((num_devices + 1, device_embed_dim), rng), name="device_embedding"
        )
        dec_in = hidden + device_embed_dim + (hidden if attention == "before" else 0)
        self.decoder = LSTMCell(dec_in, hidden, rng=rng)
        self.attn = BahdanauAttention(hidden, hidden, attn_size, rng=rng)
        out_in = hidden + (hidden if attention == "after" else 0)
        self.out_proj = Linear(out_in, num_devices, rng=rng)
        if device_prior is not None:
            prior = np.asarray(device_prior, dtype=np.float64)
            if prior.shape != (num_devices,):
                raise ValueError(f"device_prior must have shape ({num_devices},)")
            self.out_proj.bias.data += prior

    # ------------------------------------------------------------------ #
    def _encode(self, embeddings) -> Tuple[Tensor, Tensor]:
        """Project the inputs and run the encoder; returns ``(x, enc_out)``.

        ``embeddings`` may be a numpy array or a :class:`Tensor` (the EAGLE
        bridge feeds a differentiable tensor so placer gradients reach the
        grouper).
        """
        if not isinstance(embeddings, Tensor):
            embeddings = Tensor(np.asarray(embeddings, dtype=np.float64))
        x = self.input_proj(embeddings).tanh()
        enc_out, _ = self.encoder(x)
        return x, enc_out  # (G, B, hidden) each

    def _tensor_steps(self, x: Tensor, enc_out: Tensor, memory_proj: Tensor):
        """The per-step loop graph: ``step(i, prev_dev) -> logits Tensor``.

        This is the decode every fused path must equal (``fused=False``).
        """
        state = self.decoder.zero_state(x.shape[1])

        def step(i: int, prev_dev: np.ndarray) -> Tensor:
            nonlocal state
            dev_emb = self.device_embedding[prev_dev]  # (B, E)
            if self.attention == "before":
                context, _ = self.attn(state[0], enc_out, memory_proj)
                state = self.decoder(concatenate([x[i], dev_emb, context], axis=1), state)
                return self.out_proj(state[0])
            state = self.decoder(concatenate([x[i], dev_emb], axis=1), state)
            context, _ = self.attn(state[0], enc_out, memory_proj)
            return self.out_proj(concatenate([state[0], context], axis=1))

        return step

    def _numpy_steps(self, x: Tensor, enc_out: Tensor, memory_proj: Tensor):
        """The same decode in raw numpy (no graph): ``step(i, prev_dev) ->
        logits array``, through the step code :func:`_decode_sweep` runs."""
        x, mem, mp = x.data, enc_out.data, memory_proj.data
        w_query, v = self.attn.w_query.weight.data, self.attn.v.data
        emb = self.device_embedding.data
        w_out, b_out = self.out_proj.weight.data, self.out_proj.bias.data
        h = c = np.zeros((x.shape[1], self.hidden))

        def step(i: int, prev_dev: np.ndarray) -> np.ndarray:
            nonlocal h, c
            if self.attention == "before":
                context, _ = attend(h, mem, mp, w_query, v)
                _, h, c, _ = _lstm_step(self.decoder, [x[i], emb[prev_dev], context], h, c)
                out = h
            else:
                _, h, c, _ = _lstm_step(self.decoder, [x[i], emb[prev_dev]], h, c)
                context, _ = attend(h, mem, mp, w_query, v)
                out = np.concatenate([h, context], axis=1)
            return out @ w_out.T + b_out

        return step

    def forward_logits(self, embeddings: np.ndarray, devices: np.ndarray) -> Tensor:
        """Teacher-forced decode: differentiable logits ``(G, B, num_devices)``.

        ``embeddings`` is ``(G, B, embed_dim)``; ``devices`` is the sampled
        placement ``(B, G)`` whose prefix feeds each step's input.
        """
        devices = np.asarray(devices, dtype=np.int64)
        G, B = embeddings.shape[0], embeddings.shape[1]
        x, enc_out = self._encode(embeddings)
        memory_proj = self.attn.precompute(enc_out)
        prev_idx = np.empty((G, B), dtype=np.int64)
        prev_idx[0] = self.num_devices  # start token
        prev_idx[1:] = devices[:, : G - 1].T

        if not self.fused:
            step = self._tensor_steps(x, enc_out, memory_proj)
            return stack([step(i, prev_idx[i]) for i in range(G)], axis=0)
        # Teacher forcing makes every decoder input known upfront, so the
        # gather/attend/concat/project/LSTM chain fuses into one
        # _decode_sweep node ("after" attention runs as one batched-scores
        # node); only the per-step output projections stay as loop nodes.
        if self.attention == "before":
            hs = _decode_sweep(
                x, self.device_embedding, prev_idx, self.decoder, (self.attn, enc_out, memory_proj)
            )
            return stack([self.out_proj(hs[i]) for i in range(G)], axis=0)
        hs = _decode_sweep(x, self.device_embedding, prev_idx, self.decoder)
        contexts = self.attn.forward_batched(hs, enc_out, memory_proj)
        return stack(
            [self.out_proj(concatenate([hs[i], contexts[i]], axis=1)) for i in range(G)], axis=0
        )

    # ------------------------------------------------------------------ #
    def sample(
        self, embeddings: np.ndarray, rng: np.random.Generator, greedy: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample placements; returns ``(devices (B, G), log_probs (B, G))``
        — log-probs factored per decoding step.

        Runs without recording the autograd graph (sampling is cheap;
        gradients come from :meth:`log_prob` on the stored actions); the
        fused placer decodes in raw numpy, with results equal (``==``) to
        the loop's.
        """
        if isinstance(embeddings, Tensor):
            embeddings = embeddings.data
        embeddings = np.asarray(embeddings, dtype=np.float64)
        G, B = embeddings.shape[0], embeddings.shape[1]
        with no_grad():
            x, enc_out = self._encode(embeddings)
            memory_proj = self.attn.precompute(enc_out)
            if self.fused:
                step = self._numpy_steps(x, enc_out, memory_proj)
            else:
                tensor_step = self._tensor_steps(x, enc_out, memory_proj)
                step = lambda i, prev: tensor_step(i, prev).data  # noqa: E731
            prev_dev = np.full(B, self.num_devices, dtype=np.int64)
            devices = np.empty((B, G), dtype=np.int64)
            logp = np.zeros((B, G))
            for i in range(G):
                step_logits = step(i, prev_dev)
                lp = step_logits - _logsumexp(step_logits)
                if greedy:
                    d = np.argmax(lp, axis=1)
                else:
                    cdf = np.cumsum(np.exp(lp), axis=1)
                    cdf[:, -1] = 1.0
                    d = (rng.random((B, 1)) > cdf).sum(axis=1)
                    d = np.minimum(d, self.num_devices - 1)
                devices[:, i] = d
                logp[:, i] = lp[np.arange(B), d]
                prev_dev = d
        return devices, logp

    def log_prob(self, embeddings: np.ndarray, devices: np.ndarray) -> Tensor:
        """Differentiable factored log-probs, shape ``(B, G)``."""
        return self.log_prob_and_entropy(embeddings, devices)[0]

    def entropy(self, embeddings: np.ndarray, devices: np.ndarray) -> Tensor:
        """Mean per-step policy entropy along the sampled trajectories."""
        return self.log_prob_and_entropy(embeddings, devices)[1]

    def log_prob_and_entropy(self, embeddings: np.ndarray, devices: np.ndarray) -> Tuple[Tensor, Tensor]:
        """One teacher-forced decode yielding the factored log-probs
        ``(B, G)`` and the mean per-step entropy (a scalar)."""
        devices = np.asarray(devices, dtype=np.int64)
        logits = self.forward_logits(embeddings, devices)  # (G, B, D)
        logp = log_softmax(logits, axis=-1)
        G, B = devices.shape[1], devices.shape[0]
        onehot = np.zeros((G, B, self.num_devices))
        onehot[np.arange(G)[:, None], np.arange(B)[None, :], devices.T] = 1.0
        step_logp = (logp * Tensor(onehot)).sum(axis=2).transpose(1, 0)  # (B, G)
        p = softmax(logits, axis=-1)
        entropy = -(p * logp).sum(axis=-1).mean()
        return step_logp, entropy


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
