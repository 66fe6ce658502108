"""Group embeddings — the placer's input representation (§III-C).

A group embedding has three parts, mirroring Hierarchical Planner: the
number of operations of each op type in the group, the (log-scaled) output
sizes, and the adjacency information of the group (its row of the group-level
communication matrix).  For the GCN placer the adjacency part is dropped from
the embedding, since the adjacency matrix is a separate input (§III-C).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.opgraph import OpGraph
from ..grouping.features import OpFeatureExtractor

__all__ = ["GroupEmbedder"]


class GroupEmbedder:
    """Aggregates op features into per-group embeddings.

    Parameters
    ----------
    extractor:
        The op-feature extractor of the graph being placed.
    num_groups:
        Number of groups the placer will see (fixed sequence length).
    include_adjacency:
        Append the normalised group-adjacency row (for the seq2seq placer);
        the GCN placer sets this to False and takes the matrix separately.
    """

    def __init__(self, extractor: OpFeatureExtractor, num_groups: int, include_adjacency: bool = True) -> None:
        self.extractor = extractor
        self.num_groups = num_groups
        self.include_adjacency = include_adjacency
        graph = extractor.graph
        self._edge_src, self._edge_dst = _edge_arrays(graph)
        self._edge_bytes = extractor.out_bytes[self._edge_src]

        self.base_dim = extractor.num_types + 3
        self.dim = self.base_dim + (num_groups if include_adjacency else 0)

    # ------------------------------------------------------------------ #
    def embed(self, assignment: np.ndarray) -> np.ndarray:
        """Embedding matrix ``(num_groups, dim)`` for one assignment."""
        emb, _ = self.embed_with_adjacency(assignment)
        return emb

    def embed_with_adjacency(self, assignment: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(embeddings, comm_matrix)``.

        ``comm_matrix`` is the symmetrised group-level communication-byte
        matrix (used directly by the GCN placer).
        """
        a = np.asarray(assignment, dtype=np.int64)
        ex = self.extractor
        G = self.num_groups

        # Bincounts over flattened (group, type) and (group, group) cells
        # add in input order, as ``np.add.at`` does, at a fraction of its
        # cost.
        T = ex.num_types
        type_counts = np.bincount(a * T + ex.type_index, minlength=G * T)
        type_counts = type_counts.reshape(G, T).astype(np.float64)

        flops = np.bincount(a, weights=ex.flops, minlength=G)
        out_bytes = np.bincount(a, weights=ex.out_bytes, minlength=G)
        params = np.bincount(a, weights=ex.param_bytes, minlength=G)

        gs, gd = a[self._edge_src], a[self._edge_dst]
        cross = gs != gd
        comm = np.bincount(
            gs[cross] * G + gd[cross], weights=self._edge_bytes[cross], minlength=G * G
        ).reshape(G, G)

        scalars = np.column_stack([_log_scale(flops), _log_scale(out_bytes), _log_scale(params)])
        sizes = type_counts.sum(axis=1, keepdims=True)
        type_frac = type_counts / np.maximum(sizes, 1.0)
        parts = [type_frac, scalars]
        if self.include_adjacency:
            sym = comm + comm.T
            row_sum = sym.sum(axis=1, keepdims=True)
            parts.append(sym / np.maximum(row_sum, 1.0))
        return np.concatenate(parts, axis=1), comm

    def embed_batch(self, assignments: np.ndarray) -> np.ndarray:
        """Time-major batch of embeddings, shape ``(num_groups, B, dim)``."""
        assignments = np.asarray(assignments, dtype=np.int64)
        out = np.empty((self.num_groups, assignments.shape[0], self.dim))
        for b in range(assignments.shape[0]):
            out[:, b, :] = self.embed(assignments[b])
        return out


def _edge_arrays(graph: OpGraph) -> Tuple[np.ndarray, np.ndarray]:
    src, dst = [], []
    for s, d in graph.edges():
        src.append(s)
        dst.append(d)
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def _log_scale(x: np.ndarray) -> np.ndarray:
    y = np.log1p(np.maximum(x, 0.0))
    m = y.max()
    return y / m if m > 0 else y
