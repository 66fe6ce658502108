"""The learned feed-forward grouper (§III-B, §IV-C).

A two-layer feed-forward network (64 hidden units in the paper) maps each
op's feature vector to logits over the ``num_groups`` groups; a grouping is
sampled op-wise from the resulting categoricals.  The grouper is trained
jointly with the placer by policy gradient: its log-probability of the
sampled assignment is part of the joint action log-probability.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..nn import FeedForward, Module, Tensor
from ..nn.functional import log_softmax, softmax
from ..graph.opgraph import OpGraph
from .base import Grouper
from .features import OpFeatureExtractor

__all__ = ["FeedForwardGrouper"]


class FeedForwardGrouper(Module, Grouper):
    """Trainable grouping policy.

    Parameters
    ----------
    feature_dim:
        Dimensionality of the per-op features.
    num_groups:
        Number of groups (256 in the paper's experiments).
    hidden:
        Hidden widths of the MLP (default ``(64,)``, the paper's setting).
    rng:
        Parameter-initialisation generator.
    """

    def __init__(
        self,
        feature_dim: int,
        num_groups: int,
        hidden: Sequence[int] = (64,),
        *,
        rng: np.random.Generator,
    ) -> None:
        Module.__init__(self)
        Grouper.__init__(self, num_groups)
        self.feature_dim = feature_dim
        self.net = FeedForward(feature_dim, list(hidden), num_groups, rng=rng)

    @property
    def is_learned(self) -> bool:
        return True

    # ------------------------------------------------------------------ #
    def logits(self, features: np.ndarray) -> Tensor:
        """Group logits, shape ``(num_ops, num_groups)``."""
        return self.net(Tensor(features))

    def probs(self, features: np.ndarray) -> Tensor:
        """Soft assignment probabilities (used by the bridge RNN)."""
        return softmax(self.logits(features), axis=-1)

    def sample(
        self, features: np.ndarray, batch: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``batch`` groupings.

        Returns ``(assignments, log_probs)`` with shapes ``(batch, num_ops)``
        each — the log-probs are factored per op (re-derived differentiably
        by :meth:`log_prob` during updates).
        """
        logits = self.logits(features).data
        logp = logits - _logsumexp(logits)
        p = np.exp(logp)
        n = p.shape[0]
        # Vectorised categorical sampling via inverse CDF.
        cdf = np.cumsum(p, axis=1)
        cdf[:, -1] = 1.0
        u = rng.random((batch, n, 1))
        assignments = (u > cdf[None, :, :]).sum(axis=2)
        assignments = np.minimum(assignments, self.num_groups - 1)
        lp = logp[np.arange(n)[None, :], assignments]
        return assignments.astype(np.int64), lp

    def log_prob(self, features: np.ndarray, assignments: np.ndarray) -> Tensor:
        """Differentiable factored log-probs, shape ``(B, num_ops)``."""
        assignments = np.asarray(assignments, dtype=np.int64)
        logp = log_softmax(self.logits(features), axis=-1)  # (n, G)
        return logp[np.arange(assignments.shape[1]), assignments]

    def entropy(self, features: np.ndarray) -> Tensor:
        """Mean per-op entropy of the grouping policy."""
        logits = self.logits(features)
        logp = log_softmax(logits, axis=-1)
        p = softmax(logits, axis=-1)
        return -(p * logp).sum(axis=-1).mean()

    # Grouper interface: greedy assignment (mode of the policy).
    def assign(self, graph: OpGraph, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        features = OpFeatureExtractor(graph).features
        if features.shape[1] != self.feature_dim:
            raise ValueError(
                f"feature dim mismatch: grouper built for {self.feature_dim}, graph has {features.shape[1]}"
            )
        return np.argmax(self.logits(features).data, axis=1).astype(np.int64)


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
