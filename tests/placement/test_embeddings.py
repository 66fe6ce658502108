"""Tests for group embedding aggregation."""

import numpy as np
import pytest

from repro.graph import OpGraph
from repro.graph.models import build_benchmark
from repro.grouping import MetisGrouper, OpFeatureExtractor
from repro.placement import GroupEmbedder

from ..reference import reference_embed_with_adjacency


@pytest.fixture
def setup(layered_graph):
    ex = OpFeatureExtractor(layered_graph)
    emb = GroupEmbedder(ex, num_groups=6)
    assignment = MetisGrouper(6).assign(layered_graph)
    return layered_graph, ex, emb, assignment


class TestGroupEmbedder:
    def test_shape_with_adjacency(self, setup):
        g, ex, emb, a = setup
        out = emb.embed(a)
        assert out.shape == (6, ex.num_types + 3 + 6)
        assert emb.dim == out.shape[1]

    def test_shape_without_adjacency(self, layered_graph):
        ex = OpFeatureExtractor(layered_graph)
        emb = GroupEmbedder(ex, 6, include_adjacency=False)
        assert emb.embed(MetisGrouper(6).assign(layered_graph)).shape == (6, ex.num_types + 3)

    def test_type_fractions_sum_to_one_for_nonempty(self, setup):
        g, ex, emb, a = setup
        out = emb.embed(a)
        frac = out[:, : ex.num_types]
        sizes = np.bincount(a, minlength=6)
        for gi in range(6):
            if sizes[gi]:
                assert frac[gi].sum() == pytest.approx(1.0)
            else:
                assert frac[gi].sum() == 0.0

    def test_empty_groups_zero_embedding(self, layered_graph):
        ex = OpFeatureExtractor(layered_graph)
        emb = GroupEmbedder(ex, 10)
        a = np.zeros(layered_graph.num_ops, dtype=np.int64)  # all in group 0
        out = emb.embed(a)
        assert np.allclose(out[1:, : ex.num_types + 3], 0.0)

    def test_comm_matrix_zero_diagonal(self, setup):
        g, ex, emb, a = setup
        _, comm = emb.embed_with_adjacency(a)
        assert np.allclose(np.diag(comm), 0.0)

    def test_comm_matrix_counts_cut_bytes(self, setup):
        from repro.grouping import cut_cost

        g, ex, emb, a = setup
        _, comm = emb.embed_with_adjacency(a)
        assert comm.sum() == pytest.approx(cut_cost(g, a))

    def test_batch_matches_single(self, setup, rng):
        g, ex, emb, a = setup
        a2 = rng.integers(0, 6, size=g.num_ops)
        batch = emb.embed_batch(np.stack([a, a2]))
        assert batch.shape == (6, 2, emb.dim)
        assert np.allclose(batch[:, 0], emb.embed(a))
        assert np.allclose(batch[:, 1], emb.embed(a2))

    def test_values_bounded(self, setup):
        _, _, emb, a = setup
        out = emb.embed(a)
        assert np.all(np.isfinite(out))
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-9


class TestAgainstTheAddAtOracle:
    """The bincount embedding is ``==`` the ``np.add.at`` one, not close."""

    @staticmethod
    def _assert_equal_to_oracle(emb, assignments):
        for a in assignments:
            got, got_comm = emb.embed_with_adjacency(a)
            want, want_comm = reference_embed_with_adjacency(emb, a)
            assert np.array_equal(got, want)
            assert np.array_equal(got_comm, want_comm)
        batch = emb.embed_batch(np.stack(assignments))
        for b, a in enumerate(assignments):
            assert np.array_equal(batch[:, b], reference_embed_with_adjacency(emb, a)[0])

    @pytest.mark.parametrize("include_adjacency", [True, False])
    def test_random_assignments(self, layered_graph, rng, include_adjacency):
        emb = GroupEmbedder(OpFeatureExtractor(layered_graph), 8, include_adjacency)
        n = layered_graph.num_ops
        self._assert_equal_to_oracle(emb, [rng.integers(0, 8, size=n) for _ in range(20)])

    def test_random_assignments_on_a_benchmark_graph(self, rng):
        graph = build_benchmark("inception_v3")
        emb = GroupEmbedder(OpFeatureExtractor(graph), 64)
        self._assert_equal_to_oracle(
            emb, [rng.integers(0, 64, size=graph.num_ops) for _ in range(5)]
        )

    def test_empty_groups(self, layered_graph, rng):
        emb = GroupEmbedder(OpFeatureExtractor(layered_graph), 10)
        n = layered_graph.num_ops
        self._assert_equal_to_oracle(emb, [
            np.zeros(n, dtype=np.int64),
            np.full(n, 9, dtype=np.int64),
            rng.choice([2, 7], size=n),
        ])

    def test_edgeless_graph(self, rng):
        graph = OpGraph("edgeless")
        for i, op_type in enumerate(["MatMul", "Relu", "Conv2D", "Relu", "Add"]):
            graph.add_op(f"op{i}", op_type, (4, 8 + i), flops=1e3 * (i + 1))
        emb = GroupEmbedder(OpFeatureExtractor(graph), 3)
        _, comm = emb.embed_with_adjacency(rng.integers(0, 3, size=5))
        assert not comm.any()
        self._assert_equal_to_oracle(emb, [rng.integers(0, 3, size=5) for _ in range(5)])
