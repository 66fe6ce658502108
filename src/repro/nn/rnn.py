"""Recurrent layers: LSTM cell, unidirectional LSTM, bidirectional LSTM.

The seq2seq placer (§III-C) uses a bidirectional LSTM encoder and a
unidirectional LSTM decoder.  Sequences are laid out time-major,
``(T, B, input_size)``; the input projection for the whole sequence is done
with a single matmul so the per-step Python loop only carries the recurrent
part.

Fused sweep
-----------

:func:`lstm_sweep` collapses the remaining per-step Python loop into one
autograd node: the forward runs the recurrence in raw numpy (no per-step
graph bookkeeping) and the backward hand-replays, step by step in reverse
time, the exact closures the loop's autograd graph would have executed —
the same numpy expressions, in the same accumulation order.  Outputs and
gradients are therefore equal (``==``) to the step-by-step path, checked
against the loop oracle in ``tests/reference.py`` by the fused regression
suite (``tests/nn/test_fused.py``), including a finite-difference check.

:func:`gate_forward` and :func:`gate_backward` hold the one copy of the
raw-numpy LSTM gate step and its gradient replay; ``lstm_sweep`` and the
seq2seq placer's fused decoder both run on them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .functional import concatenate
from .module import Module, Parameter
from .tensor import Tensor, is_grad_enabled

__all__ = ["LSTMCell", "LSTM", "BiLSTM", "lstm_sweep", "gate_forward", "gate_backward"]


class LSTMCell(Module):
    """The weights of one LSTM step with the standard i/f/g/o gating; the
    step itself is :func:`gate_forward`.

    Gate order in the stacked weight matrices is ``[i, f, g, o]``.  The
    forget-gate bias is initialised to 1 (the usual trick for gradient flow
    through long sequences).
    """

    def __init__(self, input_size: int, hidden_size: int, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform((4 * hidden_size, input_size), rng), name="w_ih")
        self.w_hh = Parameter(init.orthogonal((4 * hidden_size, hidden_size), rng), name="w_hh")
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias, name="bias")


def gate_forward(gates: np.ndarray, c: np.ndarray) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """One raw-numpy LSTM step from the pre-activation ``gates`` ``(B, 4H)``.

    The same expressions, slice for slice, as the loop oracle's tensor
    step in ``tests/reference.py``.  Returns ``(h_next, c_next, cache)``; ``cache`` is what
    :func:`gate_backward` needs.
    """
    H = gates.shape[-1] // 4
    i = 1.0 / (1.0 + np.exp(-gates[:, 0 * H : 1 * H]))
    f = 1.0 / (1.0 + np.exp(-gates[:, 1 * H : 2 * H]))
    g = np.tanh(gates[:, 2 * H : 3 * H])
    o = 1.0 / (1.0 + np.exp(-gates[:, 3 * H : 4 * H]))
    c_next = f * c + i * g
    tanh_c = np.tanh(c_next)
    return o * tanh_c, c_next, (c, i, f, g, o, tanh_c)


def gate_backward(
    g_h: np.ndarray, g_c: Optional[np.ndarray], cache: tuple
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay one step's gate closures: ``g_h``/``g_c`` are the gradients of
    the step's ``h_next``/``c_next`` (``g_c`` is None on the last step).

    Returns the pre-activation gradient ``(B, 4H)`` and the gradient of the
    incoming cell state.  Each expression matches the autograd closure it
    replaces (sigmoid's ``g * out * (1 - out)``, left to right), and the
    gates are assembled by adding into a zero array the way four slice
    scatters would — that is what keeps the fused sweeps ``==`` the loop.
    """
    c_prev, i, f, g_gate, o, tanh_c = cache
    H = i.shape[-1]
    g_o = g_h * tanh_c
    g_tanh = g_h * o
    local = g_tanh * (1.0 - tanh_c**2)
    g_ctot = local if g_c is None else g_c + local
    g_f = g_ctot * c_prev
    gg = np.zeros((g_h.shape[0], 4 * H))
    gg[:, 0 * H : 1 * H] += (g_ctot * g_gate) * i * (1.0 - i)
    gg[:, 1 * H : 2 * H] += g_f * f * (1.0 - f)
    gg[:, 2 * H : 3 * H] += (g_ctot * i) * (1.0 - g_gate**2)
    gg[:, 3 * H : 4 * H] += g_o * o * (1.0 - o)
    return gg, g_ctot * f


def lstm_sweep(proj: Tensor, cell: LSTMCell, *, reverse: bool = False) -> Tensor:
    """Fused multi-timestep LSTM: one autograd node for the whole recurrence.

    ``proj`` is the bulk input projection ``(T, B, 4H)`` (``x @ w_ih.T``,
    still an ordinary autograd matmul so input gradients are unchanged);
    the recurrent sweep over time runs in raw numpy here, from a zero
    start state.  Returns the stacked hidden states ``(T, B, H)``.

    The backward closure replays, in reverse time order, exactly the
    gradient expressions the per-step autograd graph executes — e.g.
    sigmoid's ``g * out * (1 - out)`` with the same left-to-right
    association, the matmul-then-transpose form ``(h.T @ g).T`` for the
    recurrent weight, and per-gate gradients assembled by adding into a
    zero array the way four slice scatters would.  That is what makes
    fused-vs-loop equality exact rather than approximate.
    """
    H = cell.hidden_size
    w_hh, bias = cell.w_hh, cell.bias
    T, B = proj.shape[0], proj.shape[1]
    if T == 0:
        raise ValueError("lstm_sweep needs at least one timestep")
    order = list(range(T - 1, -1, -1) if reverse else range(T))
    w = w_hh.data
    w_T = w.T
    b = bias.data
    h = c = np.zeros((B, H))
    outputs = np.empty((T, B, H))
    # Per-step cache for the backward replay: (h_prev, gate cache), indexed
    # by sweep position k (not time t).
    cache = []
    for t in order:
        h_next, c_next, gate_cache = gate_forward(proj.data[t] + h @ w_T + b, c)
        cache.append((h, gate_cache))
        h, c = h_next, c_next
        outputs[t] = h

    parents = (proj, w_hh, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(outputs)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        g_proj = np.zeros((T, B, 4 * H))
        g_b = None
        g_h = g_c = None
        # w_hh contributions flow through a fresh per-step ``w_hh.T``
        # transpose node whose closure runs in *ascending* time order in
        # the loop graph (unlike the step chains, which close in reverse
        # time) — keep each step's gate gradient and reduce in that order
        # below, one product at a time.
        w_terms = [None] * T  # (h_prev, gate gradient) by time step
        for k in range(T - 1, -1, -1):
            t = order[k]
            h_prev, gate_cache = cache[k]
            if g_h is None:
                g_h = grad[t].copy()
            gg, g_c = gate_backward(g_h, g_c, gate_cache)
            g_proj[t] += gg
            b_step = gg.sum(axis=0)
            w_terms[t] = (h_prev, gg)
            if g_b is None:
                g_b = b_step.copy()
            else:
                g_b += b_step
            if k > 0:
                g_h = grad[order[k - 1]].copy()
                g_h += gg @ w
        if w_hh.requires_grad:
            # Summed in the ``(in, out)`` layout of ``h.T @ gg``: the loop's
            # transpose nodes flip each term, which flips the same floats.
            h_prev, gg = w_terms[0]
            g_w = h_prev.T @ gg
            w_step = np.empty_like(g_w)
            for h_prev, gg in w_terms[1:]:
                g_w += np.matmul(h_prev.T, gg, out=w_step)
            w_hh._accumulate(g_w.T)
        if bias.requires_grad:
            bias._accumulate(g_b)
        if proj.requires_grad:
            proj._accumulate(g_proj)

    return Tensor(outputs, requires_grad=True, _parents=parents, _backward=backward)


class LSTM(Module):
    """Unidirectional LSTM over a time-major sequence ``(T, B, input_size)``.

    Returns the stacked hidden states ``(T, B, hidden_size)``.  The
    recurrence runs through :func:`lstm_sweep`: one autograd node instead
    of ~12 per step, checked against the loop oracle in
    ``tests/reference.py``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        *,
        rng: np.random.Generator,
        reverse: bool = False,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.reverse = reverse

    def forward(self, x: Tensor) -> Tensor:
        T, B = x.shape[0], x.shape[1]
        # Bulk input projection: one (T*B, I) @ (I, 4H) matmul.
        proj = x.reshape(T * B, x.shape[2]) @ self.cell.w_ih.T
        proj = proj.reshape(T, B, 4 * self.hidden_size)
        return lstm_sweep(proj, self.cell, reverse=self.reverse)


class BiLSTM(Module):
    """Bidirectional LSTM: forward and backward passes, outputs concatenated.

    The output is ``(T, B, 2 * hidden_size)``.
    """

    def __init__(self, input_size: int, hidden_size: int, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.fwd = LSTM(input_size, hidden_size, rng=rng, reverse=False)
        self.bwd = LSTM(input_size, hidden_size, rng=rng, reverse=True)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor) -> Tensor:
        return concatenate([self.fwd(x), self.bwd(x)], axis=2)
