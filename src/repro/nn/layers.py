"""Basic layers: Linear, Embedding, Sequential, and the two-layer MLP used by
EAGLE's feed-forward grouper."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Embedding", "Sequential", "FeedForward"]


class Linear(Module):
    """Affine transform ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to add a learnable bias.
    rng:
        Generator for Xavier initialisation.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng), name="weight")
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_features,), rng), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Lookup table mapping integer indices to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, *, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.xavier_normal((num_embeddings, embedding_dim), rng), name="weight")

    def forward(self, indices) -> Tensor:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.min(initial=0) < 0 or idx.max(initial=0) >= self.num_embeddings:
            raise IndexError(f"embedding index out of range [0, {self.num_embeddings})")
        return self.weight[idx]

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
            self._layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, i: int) -> Module:
        return self._layers[i]


class FeedForward(Module):
    """Multi-layer perceptron with a configurable activation.

    EAGLE's grouper is ``FeedForward(feature_dim, [64], num_groups)`` — the
    "two-layer feed-forward neural network with 64 hidden units" of §IV-C.
    The final layer produces raw logits (no activation).
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        activation: Callable[[Tensor], Tensor] = Tensor.relu,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.activation = activation
        dims = [in_features, *hidden, out_features]
        self._layers: List[Linear] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layer = Linear(d_in, d_out, rng=rng)
            setattr(self, f"fc{i}", layer)
            self._layers.append(layer)

    @property
    def layers(self) -> Tuple[Linear, ...]:
        """The affine layers, input to output."""
        return tuple(self._layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers[:-1]:
            x = self.activation(layer(x))
        return self._layers[-1](x)
