"""Tests for Bahdanau attention.

The per-step attention lives in the loop oracle (``tests/reference.py``);
properties of one step's weights are checked there, the contexts on the
shipped :meth:`BahdanauAttention.forward`.
"""

import numpy as np
import pytest

from repro.nn import BahdanauAttention, Tensor

from tests.reference import reference_attend


@pytest.fixture
def attn(rng):
    return BahdanauAttention(query_size=6, memory_size=10, attn_size=8, rng=rng)


class TestBahdanauAttention:
    def test_output_shapes(self, attn, rng):
        memory = Tensor(rng.normal(size=(7, 3, 10)))
        queries = Tensor(rng.normal(size=(2, 3, 6)))
        assert attn(queries, memory).shape == (2, 3, 10)
        ctx, w = reference_attend(attn, queries[0], memory)
        assert ctx.shape == (3, 10)
        assert w.shape == (7, 3)

    def test_weights_normalised_over_time(self, attn, rng):
        memory = Tensor(rng.normal(size=(7, 3, 10)))
        query = Tensor(rng.normal(size=(3, 6)))
        _, w = reference_attend(attn, query, memory)
        assert np.allclose(w.data.sum(axis=0), 1.0)

    def test_context_is_convex_combination(self, attn, rng):
        memory = rng.normal(size=(5, 1, 10))
        query = rng.normal(size=(1, 6))
        ctx = attn(Tensor(query[None]), Tensor(memory))
        _, w = reference_attend(attn, Tensor(query), Tensor(memory))
        manual = (memory * w.data[:, :, None]).sum(axis=0)
        assert np.allclose(ctx.data[0], manual)

    def test_precompute_matches_direct(self, attn, rng):
        memory = Tensor(rng.normal(size=(5, 2, 10)))
        queries = Tensor(rng.normal(size=(3, 2, 6)))
        proj = attn.precompute(memory)
        ctx1 = attn(queries, memory)
        ctx2 = attn(queries, memory, proj)
        assert np.allclose(ctx1.data, ctx2.data)

    def test_gradients_reach_all_parameters(self, attn, rng):
        memory = Tensor(rng.normal(size=(5, 2, 10)))
        queries = Tensor(rng.normal(size=(1, 2, 6)), requires_grad=True)
        attn(queries, memory).sum().backward()
        assert queries.grad is not None
        assert attn.v.grad is not None
        assert attn.w_query.weight.grad is not None
        assert attn.w_memory.weight.grad is not None

    def test_attends_to_matching_position(self, rng):
        """A query aligned with one memory slot should put most weight there."""
        attn = BahdanauAttention(4, 4, 16, rng=rng)
        memory = np.zeros((3, 1, 4))
        memory[1, 0] = 5.0
        query = Tensor(np.full((1, 4), 5.0))
        _, w0 = reference_attend(attn, query, Tensor(memory))
        zero_q = Tensor(np.zeros((1, 4)))
        _, wz = reference_attend(attn, zero_q, Tensor(memory))
        # weights must react to the query (content-based addressing)
        assert not np.allclose(w0.data, wz.data)
