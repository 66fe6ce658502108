"""Tests for LSTMCell / LSTM / BiLSTM.

The tensor-level step lives in the loop oracle (``tests/reference.py``);
its step properties are checked there, the layers' on the shipped path.
"""

import numpy as np

from repro.nn import BiLSTM, LSTM, LSTMCell, Tensor

from tests.conftest import numeric_gradient
from tests.reference import reference_cell, reference_cell_precomputed, reference_zero_state


class TestLSTMCell:
    def test_state_shapes(self, rng):
        cell = LSTMCell(4, 8, rng=rng)
        h, c = reference_cell(cell, Tensor(np.ones((3, 4))))
        assert h.shape == (3, 8) and c.shape == (3, 8)

    def test_forget_bias_initialised_to_one(self, rng):
        cell = LSTMCell(4, 8, rng=rng)
        assert np.allclose(cell.bias.data[8:16], 1.0)
        assert np.allclose(cell.bias.data[:8], 0.0)

    def test_state_propagates(self, rng):
        cell = LSTMCell(4, 8, rng=rng)
        x = Tensor(rng.normal(size=(2, 4)))
        s1 = reference_cell(cell, x)
        s2 = reference_cell(cell, x, s1)
        assert not np.allclose(s1[0].data, s2[0].data)

    def test_precomputed_step_matches_forward(self, rng):
        cell = LSTMCell(4, 8, rng=rng)
        x = Tensor(rng.normal(size=(2, 4)))
        state = reference_zero_state(cell, 2)
        h1, c1 = reference_cell(cell, x, state)
        proj = x @ cell.w_ih.T
        h2, c2 = reference_cell_precomputed(cell, proj, state)
        assert np.allclose(h1.data, h2.data)
        assert np.allclose(c1.data, c2.data)

    def test_gradcheck_through_cell(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        x0 = rng.normal(size=6)

        def fn(flat):
            h, c = reference_cell(cell, Tensor(flat.reshape(2, 3)))
            return (h * h).sum().item()

        t = Tensor(x0.reshape(2, 3), requires_grad=True)
        h, _ = reference_cell(cell, t)
        (h * h).sum().backward()
        assert np.allclose(t.grad.ravel(), numeric_gradient(fn, x0), atol=1e-5)


class TestLSTM:
    def test_output_shape(self, rng):
        lstm = LSTM(4, 8, rng=rng)
        out = lstm(Tensor(np.ones((6, 2, 4))))
        assert out.shape == (6, 2, 8)

    def test_matches_stepwise_cell(self, rng):
        lstm = LSTM(4, 8, rng=rng)
        x = rng.normal(size=(5, 2, 4))
        out = lstm(Tensor(x))
        state = reference_zero_state(lstm.cell, 2)
        for t in range(5):
            state = reference_cell(lstm.cell, Tensor(x[t]), state)
            assert np.allclose(out.data[t], state[0].data, atol=1e-12)

    def test_gradients_reach_input_and_params(self, rng):
        lstm = LSTM(4, 8, rng=rng)
        x = Tensor(rng.normal(size=(5, 2, 4)), requires_grad=True)
        out = lstm(x)
        out.sum().backward()
        assert x.grad.shape == (5, 2, 4)
        assert lstm.cell.w_hh.grad is not None


class TestBiLSTM:
    def test_output_concatenates_directions(self, rng):
        bi = BiLSTM(4, 8, rng=rng)
        out = bi(Tensor(np.ones((6, 2, 4))))
        assert out.shape == (6, 2, 16)

    def test_halves_match_unidirectional(self, rng):
        bi = BiLSTM(4, 8, rng=rng)
        x = Tensor(rng.normal(size=(6, 2, 4)))
        out = bi(x)
        assert np.allclose(out.data[..., :8], bi.fwd(x).data)
        assert np.allclose(out.data[..., 8:], bi.bwd(x).data)

    def test_direction_weights_independent(self, rng):
        bi = BiLSTM(4, 8, rng=rng)
        assert not np.allclose(bi.fwd.cell.w_ih.data, bi.bwd.cell.w_ih.data)
