"""The grouper→placer bridge RNN — EAGLE's architectural contribution.

The paper (abstract, §I): "An extra RNN is introduced to transform parameters
of the grouper into inputs of the placer, linking the originally separated
parts together."

Concretely, the bridge consumes, per group, the concatenation of

* the grouper's *soft* group summary — the feature mass each group receives
  under the grouper's assignment probabilities, ``S = Pᵀ X / (Pᵀ 1 + 1)``,
  which is a differentiable function of the grouper parameters, and
* the *hard* group embedding of the actually-sampled assignment (type
  counts, sizes, adjacency — §III-C),

and transforms the sequence with an LSTM into the placer's input embeddings.
Because the soft path is differentiable, placer-side policy gradients reach
the grouper parameters directly, instead of only through the grouper's own
score-function term — this is what "links the originally separated parts
together".
"""

from __future__ import annotations


import numpy as np

from ..nn import LSTM, Module, Tensor

__all__ = ["GrouperPlacerBridge"]


class GrouperPlacerBridge(Module):
    """LSTM bridge from grouper outputs to placer inputs.

    Parameters
    ----------
    soft_dim:
        Width of the soft group-summary features (= op-feature dim).
    hard_dim:
        Width of the hard group embeddings.
    out_dim:
        Width of the placer-input embeddings the bridge emits.
    """

    def __init__(self, soft_dim: int, hard_dim: int, out_dim: int, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.soft_dim = soft_dim
        self.hard_dim = hard_dim
        self.out_dim = out_dim
        self.lstm = LSTM(soft_dim + hard_dim, out_dim, rng=rng)

    @staticmethod
    def soft_group_features(probs: Tensor, op_features: np.ndarray) -> Tensor:
        """Differentiable soft aggregation ``(num_groups, soft_dim)``.

        ``probs`` is the grouper's ``(num_ops, num_groups)`` assignment
        distribution; ``op_features`` the constant per-op feature matrix.
        """
        x = Tensor(np.asarray(op_features, dtype=np.float64))
        mass = probs.T @ x  # (G, F)
        counts = probs.sum(axis=0).reshape(-1, 1)  # (G, 1)
        return mass / (counts + 1.0)

    def forward(self, soft: Tensor, hard: np.ndarray) -> Tensor:
        """Produce placer inputs ``(G, B, out_dim)``.

        ``soft`` is shared across the batch (``(G, soft_dim)``); ``hard`` is
        the per-sample embedding batch ``(G, B, hard_dim)``.
        """
        hard = np.asarray(hard, dtype=np.float64)
        G, B = hard.shape[0], hard.shape[1]
        if soft.shape != (G, self.soft_dim):
            raise ValueError(f"soft features must be ({G}, {self.soft_dim}), got {soft.shape}")
        # Broadcast the soft path across the batch (gradients sum back).
        soft_b = soft.reshape(G, 1, self.soft_dim) * Tensor(np.ones((1, B, 1)))
        from ..nn.functional import concatenate

        x = concatenate([soft_b, Tensor(hard)], axis=2)
        out = self.lstm(x)
        return out
