"""Op-level feature extraction — the agent's view of the computational graph.

The paper reports reconstructing the state vectors fed to the RL agent "to
make the agent better understand the computational graph" (§I, §III).  The
feature vector per op is:

* a one-hot of the op type (over a fixed, shared vocabulary so agents
  transfer across graphs),
* log-scaled magnitudes: output bytes, FLOPs, parameter bytes,
* a cpu-only flag,
* structural features: normalised in/out degree and topological position,
* neighbourhood summary: mean type one-hot of predecessors and successors
  (the "adjacency information" of the group embeddings, §III-C),
* graph-positional coordinates: the first ``num_eigvecs`` non-trivial
  eigenvectors of the normalised graph Laplacian.  These give each op a
  smooth coordinate in the graph, so ops that are close in the DAG get
  similar features — without them, e.g. the unrolled LSTM cells of GNMT's
  four layers are *identical* to the feed-forward grouper (same type, same
  shape, same degrees) and no layer-coherent grouping can ever be learned.
  This is the load-bearing part of the paper's "reconstructed state
  vectors" (§I, §III).

Everything is vectorised into one ``(num_ops, dim)`` float matrix.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.opgraph import OpGraph

__all__ = ["OP_TYPE_VOCAB", "op_type_index", "OpFeatureExtractor"]

#: Fixed op-type vocabulary shared by all agents; unknown types map to the
#: trailing "other" bucket.
OP_TYPE_VOCAB: Tuple[str, ...] = (
    "Add",
    "ApplyAdam",
    "AvgPool",
    "BiasAdd",
    "Concat",
    "Conv2D",
    "CrossEntropy",
    "FusedBatchNorm",
    "Gather",
    "Gelu",
    "Input",
    "LSTMCell",
    "LayerNorm",
    "MatMul",
    "MaxPool",
    "Mul",
    "Relu",
    "Reshape",
    "Sigmoid",
    "Slice",
    "Softmax",
    "Tanh",
    "Transpose",
)
_TYPE_INDEX = {t: i for i, t in enumerate(OP_TYPE_VOCAB)}
_OTHER = len(OP_TYPE_VOCAB)


def op_type_index(op_type: str) -> int:
    """Index of ``op_type`` in the shared vocabulary ('other' bucket if unknown)."""
    return _TYPE_INDEX.get(op_type, _OTHER)


class OpFeatureExtractor:
    """Extracts the per-op feature matrix for a graph.

    The matrix and auxiliary structures are computed once per graph and
    cached on the instance; agents reuse the same extractor for the whole
    training run.
    """

    def __init__(self, graph: OpGraph, num_eigvecs: int = 8) -> None:
        self.graph = graph
        self.num_eigvecs = num_eigvecs
        n = graph.num_ops
        self.num_types = _OTHER + 1

        self.type_index = np.array(
            [op_type_index(node.op_type) for node in graph.nodes()], dtype=np.int64
        )
        self.type_onehot = np.zeros((n, self.num_types))
        self.type_onehot[np.arange(n), self.type_index] = 1.0

        out_bytes = np.array([node.output.bytes for node in graph.nodes()], dtype=np.float64)
        flops = np.array([node.flops for node in graph.nodes()], dtype=np.float64)
        params = np.array([node.param_bytes for node in graph.nodes()], dtype=np.float64)
        cpu_only = np.array([node.cpu_only for node in graph.nodes()], dtype=np.float64)
        self.out_bytes = out_bytes
        self.flops = flops
        self.param_bytes = params

        in_deg = np.array([len(graph.predecessors(i)) for i in range(n)], dtype=np.float64)
        out_deg = np.array([len(graph.successors(i)) for i in range(n)], dtype=np.float64)
        rank = np.empty(n)
        rank[graph.topological_order()] = np.linspace(0.0, 1.0, n) if n > 1 else 0.5

        # Neighbourhood type summaries (mean one-hot of preds / succs).
        pred_mean = np.zeros((n, self.num_types))
        succ_mean = np.zeros((n, self.num_types))
        for i in range(n):
            preds = graph.predecessors(i)
            if preds:
                pred_mean[i] = self.type_onehot[preds].mean(axis=0)
            succs = graph.successors(i)
            if succs:
                succ_mean[i] = self.type_onehot[succs].mean(axis=0)

        scalar = np.column_stack(
            [
                _log_scale(out_bytes),
                _log_scale(flops),
                _log_scale(params),
                cpu_only,
                in_deg / max(in_deg.max(), 1.0),
                out_deg / max(out_deg.max(), 1.0),
                rank,
            ]
        )
        positional = _laplacian_positional(graph, num_eigvecs)
        self.features = np.concatenate(
            [self.type_onehot, scalar, pred_mean, succ_mean, positional], axis=1
        )

    @property
    def dim(self) -> int:
        """Feature dimensionality."""
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.graph.num_ops


def _log_scale(x: np.ndarray) -> np.ndarray:
    """``log1p`` rescaled to roughly [0, 1] for stable optimisation."""
    y = np.log1p(x)
    m = y.max()
    return y / m if m > 0 else y


def _laplacian_positional(graph: OpGraph, k: int) -> np.ndarray:
    """First ``k`` non-trivial normalised-Laplacian eigenvectors, ``(n, k)``.

    Signs are fixed (each vector's largest-magnitude entry is positive) so
    the features are deterministic; isolated failure of the sparse solver
    falls back to zeros rather than aborting feature extraction.
    """
    n = graph.num_ops
    if k <= 0 or n == 0:
        return np.zeros((n, 0))
    k = min(k, max(n - 2, 0))
    if k == 0:
        return np.zeros((n, 0))
    try:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        rows, cols = [], []
        for s, d in graph.edges():
            rows += [s, d]
            cols += [d, s]
        data = np.ones(len(rows))
        adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        adj.sum_duplicates()
        adj.data[:] = 1.0
        deg = np.asarray(adj.sum(axis=1)).ravel()
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
        d_inv = sp.diags(inv_sqrt)
        lap = sp.eye(n) - d_inv @ adj @ d_inv
        v0 = np.linspace(1.0, 2.0, n)  # deterministic ARPACK start vector
        vals, vecs = spla.eigsh(lap, k=k + 1, sigma=-1e-3, which="LM", v0=v0)
        order = np.argsort(vals)
        vecs = vecs[:, order[1 : k + 1]]  # drop the trivial eigenvector
        # Deterministic signs.
        for j in range(vecs.shape[1]):
            i = np.argmax(np.abs(vecs[:, j]))
            if vecs[i, j] < 0:
                vecs[:, j] = -vecs[:, j]
        scale = np.abs(vecs).max(axis=0)
        vecs = vecs / np.maximum(scale, 1e-12)
        return vecs
    except Exception:
        return np.zeros((n, k))
