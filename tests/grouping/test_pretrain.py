"""The fused grouper pretraining step is ``==`` a generic-autograd loop.

``_autograd_pretrain`` is that training loop, the reference oracle: it
builds the cross-entropy graph every step and calls ``backward``.  Every
case trains two identically initialised groupers — one through the oracle,
one through :func:`pretrain_grouper` — and compares parameters, gradients
and the returned agreement with ``==`` (no tolerance).
"""

import numpy as np
import pytest

from repro.grouping import FeedForwardGrouper, OpFeatureExtractor
from repro.grouping.pretrain import pretrain_grouper, warm_start_assignment
from repro.nn import Adam, Tensor, clip_grad_norm
from repro.nn.functional import cross_entropy


def _autograd_pretrain(grouper, features, target, *, steps=600, lr=0.01, max_grad_norm=1.0):
    target = np.asarray(target, dtype=np.int64)
    if target.shape != (features.shape[0],):
        raise ValueError("target must assign a group to every op")
    if target.min(initial=0) < 0 or target.max(initial=0) >= grouper.num_groups:
        raise ValueError("target group id out of range")
    optimizer = Adam(grouper.parameters(), lr=lr)
    for _ in range(steps):
        optimizer.zero_grad()
        loss = cross_entropy(grouper.logits(features), target)
        loss.backward()
        clip_grad_norm(optimizer.params, max_grad_norm)
        optimizer.step()
    pred = np.argmax(grouper.logits(features).data, axis=1)
    return float((pred == target).mean())


def _twin_groupers(dim, num_groups, hidden, seed=3):
    return tuple(
        FeedForwardGrouper(dim, num_groups, hidden, rng=np.random.default_rng(seed))
        for _ in range(2)
    )


def _assert_matches_oracle(features, target, num_groups, hidden=(64,), **kwargs):
    oracle, fused = _twin_groupers(features.shape[1], num_groups, hidden)
    want = _autograd_pretrain(oracle, features, target, **kwargs)
    got = pretrain_grouper(fused, features, target, **kwargs)
    assert got == want
    for (name, p), (_, q) in zip(oracle.named_parameters(), fused.named_parameters()):
        assert np.array_equal(p.data, q.data), name
        assert np.array_equal(p.grad, q.grad), name
        assert p.grad.flags.c_contiguous == q.grad.flags.c_contiguous, name


@pytest.fixture
def layered(layered_graph):
    features = OpFeatureExtractor(layered_graph).features
    return features, warm_start_assignment(layered_graph, 4)


class _ClipSpy:
    """Records whether each ``clip_grad_norm`` call scaled the gradients."""

    def __init__(self):
        self.scaled = []

    def __call__(self, params, max_norm):
        norm = clip_grad_norm(params, max_norm)
        self.scaled.append(norm > max_norm)
        return norm


class TestOracleEquality:
    def test_default_hidden(self, layered):
        features, target = layered
        _assert_matches_oracle(features, target, 4)

    def test_two_hidden_layers(self, layered):
        features, target = layered
        _assert_matches_oracle(features, target, 4, hidden=(16, 8), steps=200)

    def test_single_step(self, layered):
        features, target = layered
        _assert_matches_oracle(features, target, 4, steps=1)

    @pytest.mark.parametrize("max_norm, scaled", [(1e-3, True), (1e6, False)])
    def test_clip_branches(self, layered, monkeypatch, max_norm, scaled):
        """A tiny bound scales every step's gradients, a huge one never
        does; both agree with the oracle."""
        import repro.grouping.pretrain as pretrain

        features, target = layered
        spy = _ClipSpy()
        monkeypatch.setattr(pretrain, "clip_grad_norm", spy)
        _assert_matches_oracle(features, target, 4, steps=20, max_grad_norm=max_norm)
        assert spy.scaled == [scaled] * 20

    def test_quick_gnmt_32_groups(self):
        from repro.bench.experiments import build_experiment_graph

        graph = build_experiment_graph("gnmt", scale="quick")
        features = OpFeatureExtractor(graph).features
        target = warm_start_assignment(graph, 32)
        _assert_matches_oracle(features, target, 32, steps=200)


class TestActivationGuard:
    def test_non_relu_grouper_is_refused(self, layered):
        features, target = layered
        grouper = FeedForwardGrouper(features.shape[1], 4, rng=np.random.default_rng(0))
        grouper.net.activation = Tensor.tanh
        with pytest.raises(ValueError, match="ReLU"):
            pretrain_grouper(grouper, features, target, steps=1)
