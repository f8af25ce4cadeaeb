"""Gradient-correctness tests for the autograd engine."""

import weakref

import numpy as np
import pytest

from repro.model.autograd import Tensor, concat, embedding_lookup, numerical_gradient, parameter
from repro.model.layers import gelu
from repro.model.loss import cross_entropy


def _check_gradient(fn, shape, seed=0, tolerance=1e-6):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    out = fn(x)
    out.backward()
    numeric = numerical_gradient(fn, Tensor(x.data.copy()))
    assert np.allclose(x.grad, numeric, atol=tolerance), (
        f"max error {np.abs(x.grad - numeric).max()}"
    )


class TestElementwiseGradients:
    def test_add_mul(self):
        _check_gradient(lambda t: ((t * 3.0) + (t * t)).sum(), (4, 3))

    def test_sub_div(self):
        _check_gradient(lambda t: ((t - 2.0) / (t * t + 5.0)).sum(), (3, 3))

    def test_pow(self):
        _check_gradient(lambda t: (t ** 3).sum(), (5,))

    def test_exp_log(self):
        _check_gradient(lambda t: ((t.exp() + 2.0).log()).sum(), (4,))

    def test_sqrt(self):
        _check_gradient(lambda t: ((t * t + 1.0).sqrt()).sum(), (4,))

    def test_tanh_relu_gelu(self):
        _check_gradient(lambda t: t.tanh().sum(), (6,))
        _check_gradient(lambda t: (t + 0.3).relu().sum(), (6,), seed=3)
        _check_gradient(lambda t: gelu(t).sum(), (6,), tolerance=1e-5)

    def test_neg(self):
        _check_gradient(lambda t: (-t * 2.0).sum(), (3, 2))


class TestBroadcastingGradients:
    def test_broadcast_add(self):
        rng = np.random.default_rng(1)
        bias = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)))
        out = (x + bias).sum()
        out.backward()
        assert bias.grad.shape == (1, 4)
        assert np.allclose(bias.grad, np.ones((1, 4)) * 3)

    def test_broadcast_mul_scalar_like(self):
        scale = Tensor(np.array([2.0]), requires_grad=True)
        x = Tensor(np.arange(6.0).reshape(2, 3))
        (x * scale).sum().backward()
        assert scale.grad.shape == (1,)
        assert np.isclose(scale.grad[0], x.data.sum())


class TestMatmulAndShapes:
    def test_matmul_gradients(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (a.matmul(b)).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)))

    def test_batched_matmul(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_transpose_reshape(self):
        _check_gradient(lambda t: (t.transpose(1, 0).reshape(12) * 2.0).sum(), (3, 4))

    def test_sum_axis_keepdims(self):
        _check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), (3, 4))

    def test_mean(self):
        _check_gradient(lambda t: t.mean(axis=-1, keepdims=True).sum(), (2, 5))


class TestSoftmaxAndMasking:
    def test_log_softmax_gradient(self):
        """The fused log-softmax + NLL op (no smoothing, no padding)."""
        targets = np.array([[3, 0, 4]])
        _check_gradient(lambda t: cross_entropy(t, targets, pad_id=-1).loss * 0.3,
                        (1, 3, 5))

    def test_dropout_train_and_eval(self):
        x = Tensor(np.ones((100,)), requires_grad=True)
        rng = np.random.default_rng(0)
        dropped = x.dropout(0.5, rng, training=True)
        assert (dropped.data == 0).any()
        same = x.dropout(0.5, rng, training=False)
        assert same is x


class TestStructuralOps:
    def test_embedding_lookup_scatter_add(self):
        weight = parameter(np.arange(12.0).reshape(4, 3))
        ids = np.array([[0, 1], [1, 3]])
        out = embedding_lookup(weight, ids)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        # Row 1 is used twice, rows 0 and 3 once, row 2 never.
        assert np.allclose(weight.grad[1], 2.0)
        assert np.allclose(weight.grad[2], 0.0)

    def test_concat_gradient_routing(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * np.arange(5.0)).sum().backward()
        assert np.allclose(a.grad, [[0, 1], [0, 1]])
        assert np.allclose(b.grad, [[2, 3, 4], [2, 3, 4]])

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).detach()
        z = (y * 3.0).sum()
        z.backward()
        assert x.grad is None

    def test_gradient_accumulates_across_backward_calls(self):
        x = parameter(np.ones(3))
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad, 5.0)

    def test_zero_grad(self):
        x = parameter(np.ones(3))
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_releases_gradients_of_finished_nodes(self):
        x = parameter(np.ones(3))
        released = []
        seen = {}

        def into_mid(g):
            seen["mid"] = weakref.ref(g)
            return g * 2.0

        def into_x(g):
            # ``mid``'s backward function has run: its gradient is gone.
            released.append(seen["mid"]() is None)
            return g * 1.0

        low = Tensor(np.ones(3))
        low._add_parent(x, into_x)
        mid = Tensor(np.ones(3))
        mid._add_parent(low, into_mid)
        top = Tensor(np.ones(3))
        top._add_parent(mid, lambda g: g * 1.0)
        top.backward(np.ones(3))
        assert released == [True]
        assert np.allclose(x.grad, 2.0)

    def test_diamond_graph_gradient(self):
        x = parameter(np.array([2.0]))
        y = x * 3.0
        z = (y * y + y).sum()
        z.backward()
        # dz/dx = (2*y + 1) * 3 = (12 + 1) * 3 = 39
        assert np.isclose(x.grad[0], 39.0)
