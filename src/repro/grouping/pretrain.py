"""Grouper warm-starting.

Training an op-wise grouping policy purely from placement rewards needs
thousands of measured placements (the paper trains for hours on its 4-GPU
machine).  To make CPU-scale sample budgets feasible, the learned grouper can
be *warm-started*: a brief supervised pretraining of its logits toward a
min-cut heuristic partition (METIS-style).  This is an initialisation — the
grouper remains fully trainable and is updated jointly with the placer by the
RL objective afterwards — and it is applied uniformly to every
learned-grouper agent (EAGLE and the Hierarchical Planner baseline alike), so
the paper's comparisons are unaffected.  The deviation is recorded in
DESIGN.md / EXPERIMENTS.md.

Each pretraining step is fused: one raw-numpy forward and a hand-written
backward of the grouper's ReLU MLP under the mean cross-entropy, with no
autograd graph.  The backward replays the autograd closures' numpy
expressions on the same operands and memory layouts, so every parameter,
gradient and the returned agreement are bit-for-bit ``==`` what
``cross_entropy(...).backward()`` + :func:`clip_grad_norm` + :class:`Adam`
produce (``tests/grouping/test_pretrain.py`` keeps that loop as the oracle).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..graph.opgraph import OpGraph
from ..nn import Adam, Linear, Tensor, clip_grad_norm
from ..nn.functional import one_hot
from .feedforward import FeedForwardGrouper
from .metis import partition_kway

__all__ = ["pretrain_grouper", "warm_start_assignment"]


def warm_start_assignment(graph: OpGraph, num_groups: int, seed: int = 0) -> np.ndarray:
    """The target partition used for warm-starting (min-cut heuristic)."""
    return partition_kway(graph, num_groups, seed=seed)


def pretrain_grouper(
    grouper: FeedForwardGrouper,
    features: np.ndarray,
    target: np.ndarray,
    *,
    steps: int = 600,
    lr: float = 0.01,
    max_grad_norm: float = 1.0,
) -> float:
    """Fit the grouper's logits to ``target`` by cross-entropy.

    Runs ``steps`` full-batch Adam steps; returns the final top-1 agreement
    with the target (a diagnostic — ~0.8–0.95 is the intended regime: close
    enough to start coherent, soft enough to keep exploring).

    Each step computes the cross-entropy gradient in raw numpy (the loss
    value itself is never needed), writes it to ``p.grad`` and then runs the
    shared :func:`clip_grad_norm` and :meth:`Adam.step`.  The result is
    ``==`` an autograd loop over ``cross_entropy(grouper.logits(x), target)``.
    Only ReLU networks are supported: any other activation raises
    ``ValueError`` rather than silently getting ReLU gradients.
    """
    target = np.asarray(target, dtype=np.int64)
    if target.shape != (features.shape[0],):
        raise ValueError("target must assign a group to every op")
    if target.min(initial=0) < 0 or target.max(initial=0) >= grouper.num_groups:
        raise ValueError("target group id out of range")
    if grouper.net.activation is not Tensor.relu:
        raise ValueError("pretrain_grouper supports ReLU groupers only")
    layers = grouper.net.layers
    x = Tensor(features).data
    n = target.shape[0]
    # The gradient reaching the log-softmax output is constant across steps:
    # d(-mean(logp[i, t_i]))/d logp = -(1/n) * onehot, and its row sums feed
    # the logsumexp branch.
    k = grouper.num_groups
    g_logp = np.full((n, k), -1.0 * (1.0 / n)) * one_hot(target, k)
    g_lse = -g_logp.sum(axis=(1,), keepdims=True)
    optimizer = Adam(grouper.parameters(), lr=lr)
    for _ in range(steps):
        optimizer.zero_grad()
        # g turns from the logits into exp(logits - max) and then into
        # d loss / d logits, in place.  ``a - b`` is ``a + (-b)`` in IEEE
        # arithmetic, and products and two-term sums commute exactly, so
        # these forms give the autograd graph's bits.
        acts, pre, g = _forward(layers, x)
        g -= g.max(axis=-1, keepdims=True)
        np.exp(g, out=g)
        g *= g_lse / g.sum(axis=-1, keepdims=True)
        g += g_logp
        _backward(layers, acts, pre, g)
        clip_grad_norm(optimizer.params, max_grad_norm)
        optimizer.step()
    pred = np.argmax(_forward(layers, x)[2], axis=1)
    return float((pred == target).mean())


def _forward(
    layers: Sequence[Linear], x: np.ndarray
) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Layer inputs, hidden pre-activations and logits of a ReLU MLP."""
    acts, pre = [x], []
    for layer in layers[:-1]:
        pre.append(_affine(layer, acts[-1]))
        acts.append(np.maximum(pre[-1], 0.0))
    return acts, pre, _affine(layers[-1], acts[-1])


def _affine(layer: Linear, x: np.ndarray) -> np.ndarray:
    """``x @ W.T + b``, the bias added in place (same values, one array)."""
    out = x @ layer.weight.data.T
    out += layer.bias.data
    return out


def _backward(
    layers: Sequence[Linear],
    acts: List[np.ndarray],
    pre: List[np.ndarray],
    g: np.ndarray,
) -> None:
    """Write each layer's gradient given ``g`` = d loss / d logits.

    Mirrors the autograd closures of ``x @ W.T + b`` and ``relu``: the
    weight gradient is the transpose of ``x.T @ g`` copied C-contiguous
    (the global-norm clip sums in memory order), the bias gradient is
    ``g.sum(axis=0)`` and the input gradient is ``g @ W``.
    """
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        layer.weight.grad = (acts[i].T @ g).T.copy()
        layer.bias.grad = g.sum(axis=(0,))
        if i:
            g = g @ layer.weight.data
            g *= pre[i - 1] > 0
