"""Fused-vs-loop exact equality (``==``, never ``allclose``).

The fused hot paths — :func:`repro.nn.rnn.lstm_sweep`, batched Bahdanau
attention scores, and the :class:`Seq2SeqPlacer` fused teacher-forced
decode — promise outputs *and* gradients bit-for-bit equal to the
step-by-step loop graph, the oracle in ``tests/reference.py``.  These
tests pin that promise, a spy shows the oracle side never enters a fused
path, and finite-difference checks keep "fused equals loop" from
degrading into "fused equals an equally wrong loop".
"""

from functools import partial

import numpy as np
import pytest

from repro.nn import BahdanauAttention, BiLSTM, LSTM, Tensor
from repro.nn.functional import stack
from repro.nn.rnn import LSTMCell, lstm_sweep
from repro.placement.seq2seq import Seq2SeqPlacer

from tests.conftest import numeric_gradient
from tests.reference import (
    FusedPathSpy,
    reference_attend,
    reference_bilstm,
    reference_lstm,
    use_reference_decode,
)


def _loop_twin(module, oracle):
    """``module`` running its forward through the loop ``oracle``."""
    module.forward = partial(oracle, module)
    return module


def _lstm_pair(rng_seed, input_size=5, hidden=7, reverse=False):
    """Two LSTMs with identical weights, one fused and one step-by-step."""
    make = lambda: LSTM(  # noqa: E731
        input_size, hidden, rng=np.random.default_rng(rng_seed), reverse=reverse
    )
    return make(), _loop_twin(make(), reference_lstm)


def _lstm_gradcheck(lstm, rng):
    x0 = rng.normal(size=2 * 2 * 3)

    def fn(flat):
        out = lstm(Tensor(flat.reshape(2, 2, 3)))
        return (out * out).sum().item()

    t = Tensor(x0.reshape(2, 2, 3), requires_grad=True)
    out = lstm(t)
    (out * out).sum().backward()
    assert np.allclose(t.grad.ravel(), numeric_gradient(fn, x0), atol=1e-5)


class TestLSTMSweep:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("T,B", [(1, 1), (4, 3), (9, 2)])
    def test_forward_and_gradients_bit_for_bit(self, reverse, T, B):
        fused, loop = _lstm_pair(0, reverse=reverse)
        x = np.random.default_rng(1).normal(size=(T, B, 5))
        xa = Tensor(x.copy(), requires_grad=True)
        xb = Tensor(x.copy(), requires_grad=True)
        out_a = fused(xa)
        out_b = loop(xb)
        assert np.array_equal(out_a.data, out_b.data)

        w = np.random.default_rng(2).normal(size=out_a.shape)
        (out_a * Tensor(w)).sum().backward()
        (out_b * Tensor(w)).sum().backward()
        assert np.array_equal(xa.grad, xb.grad)
        for pa, pb in zip(fused.parameters(), loop.parameters()):
            assert np.array_equal(pa.grad, pb.grad), pa.name

    def test_sweep_rejects_empty_sequence(self, rng):
        cell = LSTMCell(4, 4, rng=rng)
        proj = Tensor(np.zeros((0, 2, 16)))
        with pytest.raises(ValueError, match="at least one timestep"):
            lstm_sweep(proj, cell)

    def test_gradcheck_against_finite_differences(self, rng):
        """The fused gradient is the true gradient, not just the loop's."""
        _lstm_gradcheck(LSTM(3, 4, rng=rng), rng)

    def test_oracle_gradcheck_against_finite_differences(self, rng):
        _lstm_gradcheck(_loop_twin(LSTM(3, 4, rng=rng), reference_lstm), rng)

    def test_bilstm_fused_matches_loop(self, rng):
        a = BiLSTM(4, 6, rng=np.random.default_rng(5))
        b = _loop_twin(BiLSTM(4, 6, rng=np.random.default_rng(5)), reference_bilstm)
        x = rng.normal(size=(5, 3, 4))
        xa = Tensor(x.copy(), requires_grad=True)
        xb = Tensor(x.copy(), requires_grad=True)
        out_a = a(xa)
        out_b = b(xb)
        assert np.array_equal(out_a.data, out_b.data)
        out_a.sum().backward()
        out_b.sum().backward()
        assert np.array_equal(xa.grad, xb.grad)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.grad, pb.grad), pa.name


class TestBatchedAttention:
    def _attn(self, seed):
        return BahdanauAttention(6, 8, 5, rng=np.random.default_rng(seed))

    def test_forward_and_gradients_match_per_step_calls(self):
        attn_a = self._attn(0)
        attn_b = self._attn(0)
        rng = np.random.default_rng(1)
        G, T, B = 4, 7, 3
        q = rng.normal(size=(G, B, 6))
        mem = rng.normal(size=(T, B, 8))
        qa = Tensor(q.copy(), requires_grad=True)
        qb = Tensor(q.copy(), requires_grad=True)
        ma = Tensor(mem.copy(), requires_grad=True)
        mb = Tensor(mem.copy(), requires_grad=True)

        mp_a = attn_a.precompute(ma)
        ctx_a = attn_a(qa, ma, mp_a)
        mp_b = attn_b.precompute(mb)
        steps = [reference_attend(attn_b, qb[i], mb, mp_b)[0] for i in range(G)]
        ctx_b = stack(steps, axis=0)
        assert np.array_equal(ctx_a.data, ctx_b.data)

        w = rng.normal(size=ctx_a.shape)
        (ctx_a * Tensor(w)).sum().backward()
        (ctx_b * Tensor(w)).sum().backward()
        assert np.array_equal(qa.grad, qb.grad)
        assert np.array_equal(ma.grad, mb.grad)
        for pa, pb in zip(attn_a.parameters(), attn_b.parameters()):
            assert np.array_equal(pa.grad, pb.grad), pa.name

    def test_weights_sum_to_one_implicitly(self, rng):
        """Each context is a convex combination of memory rows."""
        attn = self._attn(2)
        q = Tensor(rng.normal(size=(3, 2, 6)))
        mem = Tensor(np.ones((5, 2, 8)))
        ctx = attn(q, mem)
        assert np.allclose(ctx.data, 1.0)


def _placer_pair(seed, attention, hidden=12, **kw):
    """Two placers with identical weights: the shipped one and its twin
    that decodes and samples through the loop oracle."""
    make = lambda: Seq2SeqPlacer(  # noqa: E731
        embed_dim=6, num_devices=4, hidden=hidden, attention=attention,
        rng=np.random.default_rng(seed), **kw
    )
    return make(), use_reference_decode(make())


def _assert_decode_bit_for_bit(a, b, G, B, rng):
    """Log-probs, entropy, the input gradient and every parameter gradient
    of a PPO-shaped loss are ``==`` between placers ``a`` and ``b``."""
    emb = rng.normal(size=(G, B, 6))
    devices = rng.integers(0, 4, size=(B, G))
    ea = Tensor(emb.copy(), requires_grad=True)
    eb = Tensor(emb.copy(), requires_grad=True)

    lp_a, ent_a = a.log_prob_and_entropy(ea, devices)
    lp_b, ent_b = b.log_prob_and_entropy(eb, devices)
    assert np.array_equal(lp_a.data, lp_b.data)
    assert np.array_equal(ent_a.data, ent_b.data)

    # PPO-shaped loss: weighted log-probs plus an entropy bonus.
    w = Tensor(rng.normal(size=lp_a.shape))
    ((lp_a * w).sum() + ent_a * 0.37).backward()
    ((lp_b * w).sum() + ent_b * 0.37).backward()
    assert np.array_equal(ea.grad, eb.grad)
    for pa, pb in zip(a.parameters(), b.parameters()):
        ga, gb = pa.grad, pb.grad
        assert (ga is None) == (gb is None), pa.name
        if ga is not None:
            assert np.array_equal(ga, gb), pa.name


ATTENTION_MODES = ["after", "before"]


class TestSeq2SeqFusedDecode:
    """End-to-end through the decoder path: logits, log-probs, entropy and
    every parameter gradient equal between fused and loop graphs."""

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_log_prob_entropy_and_grads_bit_for_bit(self, attention, seed):
        a, b = _placer_pair(seed, attention)
        _assert_decode_bit_for_bit(a, b, 5, 3, np.random.default_rng(100 + seed))

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    def test_larger_decode_bit_for_bit(self, attention):
        """At a size where an accumulation-order slip cannot hide in a
        three-step sum."""
        a, b = _placer_pair(3, attention, hidden=32)
        _assert_decode_bit_for_bit(a, b, 16, 4, np.random.default_rng(103))

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    def test_benchmark_shape_bit_for_bit(self, attention):
        """At the repo benchmark's decode shape (64 groups, minibatch 10,
        hidden 128), where the decode's reused buffers hold every step and
        BLAS blocks its matmuls."""
        a, b = _placer_pair(4, attention, hidden=128)
        _assert_decode_bit_for_bit(a, b, 64, 10, np.random.default_rng(104))

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    def test_forward_logits_bit_for_bit(self, attention):
        a, b = _placer_pair(7, attention)
        rng = np.random.default_rng(8)
        emb = rng.normal(size=(6, 2, 6))
        devices = rng.integers(0, 4, size=(2, 6))
        la = a.forward_logits(emb, devices)
        lb = b.forward_logits(emb, devices)
        assert np.array_equal(la.data, lb.data)

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    def test_single_group_single_batch_edge(self, attention):
        a, b = _placer_pair(9, attention)
        _assert_decode_bit_for_bit(a, b, 1, 1, np.random.default_rng(10))

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    @pytest.mark.parametrize("greedy", [False, True])
    def test_sampling_identical_under_same_rng(self, attention, greedy):
        a, b = _placer_pair(11, attention)
        emb = np.random.default_rng(12).normal(size=(5, 4, 6))
        da, pa = a.sample(emb, np.random.default_rng(13), greedy=greedy)
        db, pb = b.sample(emb, np.random.default_rng(13), greedy=greedy)
        assert np.array_equal(da, db)
        assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    def test_fused_gradcheck_against_finite_differences(self, rng, attention):
        _input_gradcheck(_placer_pair(14, attention)[0], rng)

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    def test_oracle_gradcheck_against_finite_differences(self, rng, attention):
        _input_gradcheck(_placer_pair(14, attention)[1], rng)

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    def test_fused_parameter_gradcheck(self, attention):
        """Every placer parameter's fused gradient is the true gradient of
        the log-prob + entropy loss (spot-checked entries)."""
        _parameter_gradcheck(_placer_pair(16, attention)[0])

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    def test_oracle_parameter_gradcheck(self, attention):
        _parameter_gradcheck(_placer_pair(16, attention)[1])


def _input_gradcheck(placer, rng):
    G, B = 3, 2
    devices = np.random.default_rng(15).integers(0, 4, size=(B, G))
    x0 = rng.normal(size=G * B * 6)

    def fn(flat):
        lp = placer.log_prob(flat.reshape(G, B, 6), devices)
        return lp.sum().item()

    t = Tensor(x0.reshape(G, B, 6), requires_grad=True)
    placer.log_prob(t, devices).sum().backward()
    assert np.allclose(t.grad.ravel(), numeric_gradient(fn, x0), atol=1e-5)


def _parameter_gradcheck(placer):
    rng = np.random.default_rng(17)
    G, B = 3, 2
    emb = rng.normal(size=(G, B, 6))
    devices = rng.integers(0, 4, size=(B, G))

    def loss():
        lp, ent = placer.log_prob_and_entropy(emb, devices)
        return lp.sum() + ent * 0.5

    placer.zero_grad()
    loss().backward()
    for param in placer.parameters():
        flat = param.data.reshape(-1)
        for k in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            old = flat[k]
            flat[k] = old + 1e-6
            up = loss().item()
            flat[k] = old - 1e-6
            down = loss().item()
            flat[k] = old
            numeric = (up - down) / 2e-6
            assert np.isclose(param.grad.reshape(-1)[k], numeric, atol=1e-5), param.name


@pytest.mark.parametrize("attention", ATTENTION_MODES)
def test_oracle_never_enters_a_fused_path(monkeypatch, attention):
    """The loop twin runs none of the fused paths, and the shipped placer
    runs each one its attention mode uses — so the ``==`` suites above
    compare two different graphs, not the fused path with itself."""
    fused, loop = _placer_pair(18, attention)
    spy = FusedPathSpy(monkeypatch)
    rng = np.random.default_rng(19)
    emb = rng.normal(size=(4, 2, 6))
    devices = rng.integers(0, 4, size=(2, 4))
    for placer in (loop, fused):
        lp, ent = placer.log_prob_and_entropy(Tensor(emb, requires_grad=True), devices)
        (lp.sum() + ent).backward()
        placer.sample(emb, np.random.default_rng(20))
    assert spy.paths(loop) == set()
    expected = {"lstm_sweep", "_decode_sweep", "_numpy_steps"}
    if attention == "after":
        expected.add("forward")
    assert spy.paths(fused) == expected
