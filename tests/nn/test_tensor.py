"""Unit tests for the autograd engine: forward values and gradients."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, no_grad, is_grad_enabled
from repro.nn.tensor import concatenate, stack, _unbroadcast

from tests.conftest import numeric_gradient


class TestForward:
    def test_add_values(self):
        assert np.allclose((Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_scalar_broadcast(self):
        out = Tensor(np.ones((2, 3))) * 2.0 + 1.0
        assert np.allclose(out.data, 3.0)

    def test_matmul_values(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_chained_ops(self):
        x = Tensor([[1.0, -2.0]])
        out = x.relu().sum()
        assert out.item() == 1.0

    def test_division(self):
        out = Tensor([6.0]) / Tensor([2.0])
        assert out.data[0] == 3.0

    def test_rsub_rdiv(self):
        x = Tensor([2.0])
        assert (10.0 - x).data[0] == 8.0
        assert (10.0 / x).data[0] == 5.0

    def test_pow(self):
        assert (Tensor([3.0]) ** 2).data[0] == 9.0

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([3.0]) ** Tensor([2.0])

    def test_int_data_preserved(self):
        t = Tensor(np.arange(3, dtype=np.int64))
        assert t.dtype == np.int64

    def test_float32_upcast(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float64

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_getitem(self):
        t = Tensor(np.arange(10.0))
        assert np.allclose(t[2:5].data, [2.0, 3.0, 4.0])

    def test_reshape_transpose(self, rng):
        a = rng.normal(size=(2, 6))
        t = Tensor(a).reshape(3, 4).transpose()
        assert t.shape == (4, 3)

    def test_comparisons_return_arrays(self):
        m = Tensor([1.0, 3.0]) > Tensor([2.0, 2.0])
        assert isinstance(m, np.ndarray)
        assert m.tolist() == [False, True]


class TestBackward:
    def test_add_mul_grads(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a * b + a).backward()
        assert a.grad[0] == pytest.approx(4.0)
        assert b.grad[0] == pytest.approx(2.0)

    def test_grad_accumulates_on_reuse(self):
        a = Tensor([1.0], requires_grad=True)
        (a + a + a).backward()
        assert a.grad[0] == pytest.approx(3.0)

    def test_broadcast_grad_shapes(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_backward_requires_scalar_without_seed(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_detached_raises(self):
        a = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_seeded_backward(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2).backward(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(a.grad, [2.0, 4.0, 6.0])

    @pytest.mark.parametrize(
        "builder",
        [
            lambda t: t.exp().sum(),
            lambda t: (t + 3.1).log().sum(),
            lambda t: (t + 3.1).sqrt().sum(),
            lambda t: t.tanh().sum(),
            lambda t: t.sigmoid().sum(),
            lambda t: t.relu().sum(),
            lambda t: t.clip(-0.5, 0.5).sum(),
            lambda t: (t**3).sum(),
            lambda t: t.mean(),
            lambda t: t.max(),
            lambda t: (t * t).sum(axis=0).sum(),
            lambda t: t.reshape(6).sum(),
            lambda t: t.transpose().sum(),
            lambda t: t[0].sum(),
        ],
    )
    def test_unary_gradcheck(self, builder, rng):
        x0 = rng.normal(size=6) * 0.4

        def fn(flat):
            t = Tensor(flat.reshape(2, 3), requires_grad=True)
            return builder(t).item()

        t = Tensor(x0.reshape(2, 3), requires_grad=True)
        builder(t).backward()
        assert np.allclose(t.grad.ravel(), numeric_gradient(fn, x0), atol=1e-5)

    def test_matmul_gradcheck(self, rng):
        x0 = rng.normal(size=12)

        def fn(flat):
            a = Tensor(flat[:6].reshape(2, 3))
            b = Tensor(flat[6:].reshape(3, 2))
            return (a @ b).tanh().sum().item()

        a = Tensor(x0[:6].reshape(2, 3), requires_grad=True)
        b = Tensor(x0[6:].reshape(3, 2), requires_grad=True)
        (a @ b).tanh().sum().backward()
        grad = np.concatenate([a.grad.ravel(), b.grad.ravel()])
        assert np.allclose(grad, numeric_gradient(fn, x0), atol=1e-5)

    def test_batched_matmul_gradient(self, rng):
        a = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (4, 2, 3)
        assert b.grad.shape == (4, 3, 5)

    def test_matvec_gradient(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=4), requires_grad=True)
        (a @ v).sum().backward()
        assert a.grad.shape == (3, 4)
        assert v.grad.shape == (4,)
        assert np.allclose(v.grad, a.data.sum(axis=0))

    def test_sum_keepdims_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=1, keepdims=True).sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.5, 0.5])

    def test_concatenate_gradients(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        (out * out).sum().backward()
        assert np.allclose(a.grad, 2 * a.data)
        assert np.allclose(b.grad, 2 * b.data)

    def test_stack_gradients(self, rng):
        parts = [Tensor(rng.normal(size=3), requires_grad=True) for _ in range(4)]
        stack(parts, axis=0).sum().backward()
        for p in parts:
            assert np.allclose(p.grad, 1.0)


class TestBackwardFreesGraph:
    """Backward consumes the graph it walks, as PyTorch does by default."""

    W = np.array([[0.3, -0.7], [1.1, 0.4]])
    X = np.array([0.5, -1.0])

    def _graph(self):
        w = Parameter(self.W.copy(), name="w")
        x = Tensor(self.X.copy(), requires_grad=True)
        pre = w @ x
        h = pre.tanh()  # used twice: freed only after both consumers ran
        sq = h * h
        loss = sq.sum() + h.sum()
        return w, x, [pre, h, sq, loss], loss

    def test_interior_nodes_hold_no_grad_closure_or_parents(self):
        _, _, interior, loss = self._graph()
        closures = [weakref.ref(node._backward) for node in interior]
        loss.backward()
        gc.collect()
        for node, closure in zip(interior, closures):
            assert node.grad is None
            assert node._parents == ()
            assert closure() is None  # the closure and what it captured are gone
            assert node.data is not None  # forward values stay readable

    def test_leaf_and_parameter_grads_are_kept(self):
        w, x, _, loss = self._graph()
        loss.backward()
        h = np.tanh(self.W @ self.X)
        g_pre = (2.0 * h + 1.0) * (1.0 - h**2)
        assert isinstance(w, Parameter)
        assert np.allclose(w.grad, np.outer(g_pre, self.X))
        assert np.allclose(x.grad, self.W.T @ g_pre)

    def test_second_backward_raises_and_leaves_grads_alone(self):
        w, x, interior, loss = self._graph()
        loss.backward()
        w_grad, x_grad = w.grad.copy(), x.grad.copy()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        h = interior[1]
        with pytest.raises(RuntimeError, match="freed"):
            (h * 2.0).sum().backward()  # a new graph over a freed node
        assert np.array_equal(w.grad, w_grad)
        assert np.array_equal(x.grad, x_grad)

    def test_a_leaf_root_keeps_its_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        a.backward(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(a.grad, [1.0, 2.0, 3.0])


class TestNoGrad:
    def test_no_grad_disables_recording(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        d = (a * 2).detach()
        assert not d.requires_grad


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_leading_axis_summed(self):
        g = np.ones((5, 2, 3))
        assert _unbroadcast(g, (2, 3)).shape == (2, 3)
        assert np.allclose(_unbroadcast(g, (2, 3)), 5.0)

    def test_kept_size_one_axis(self):
        g = np.ones((2, 3))
        out = _unbroadcast(g, (2, 1))
        assert out.shape == (2, 1)
        assert np.allclose(out, 3.0)
