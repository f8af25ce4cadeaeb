"""The fused tape ops of the biased Linear, GELU and the log-softmax +
label-smoothed NLL loss."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.model.autograd import Tensor, inference_mode, numerical_gradient
from repro.model.layers import gelu, linear
from repro.model.loss import cross_entropy

GOLDEN = Path(__file__).parent / "golden" / "fused_kernels.npz"


def _loss_of(op, upstream):
    """``sum(op(inputs) * upstream)``: a scalar whose gradient is ``upstream``
    pulled back through ``op``."""
    return lambda tensors: (op(*tensors) * Tensor(upstream)).sum()


def _check_gradients(loss, arrays, atol=1e-6):
    """Every input's analytic gradient against central differences."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss(tensors).backward()
    for index, tensor in enumerate(tensors):
        def probe(x, index=index):
            inputs = [Tensor(a) for a in arrays]
            inputs[index] = x
            return loss(inputs)
        numeric = numerical_gradient(probe, Tensor(arrays[index].copy()))
        assert np.allclose(tensor.grad, numeric, atol=atol), (
            f"input {index}: max error {np.abs(tensor.grad - numeric).max()}")


def _smoothed_targets(rng, batch, length, vocab):
    """Targets in ``[1, vocab)`` with some padding (id 0) in two rows."""
    targets = rng.integers(1, vocab, size=(batch, length))
    targets[1, length - 2:] = 0
    targets[-1, -1] = 0
    return targets


class TestFiniteDifferences:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    def test_linear(self, bias):
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 6))]
        if bias:
            arrays.append(rng.normal(size=6))
        upstream = rng.normal(size=(2, 3, 6))
        _check_gradients(_loss_of(lambda x, w, b=None: linear(x, w, b), upstream),
                         arrays)

    def test_linear_on_a_matrix(self):
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)]
        upstream = rng.normal(size=(3, 2))
        _check_gradients(_loss_of(linear, upstream), arrays)

    def test_gelu(self):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=(2, 3, 4)) * 2.0]
        upstream = rng.normal(size=(2, 3, 4))
        _check_gradients(_loss_of(gelu, upstream), arrays, atol=1e-5)

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_smoothed_nll_with_padding(self, smoothing):
        rng = np.random.default_rng(4)
        targets = _smoothed_targets(rng, 3, 4, 7)
        arrays = [rng.normal(size=(3, 4, 7)) * 2.0]
        _check_gradients(
            lambda tensors: cross_entropy(tensors[0], targets, 0, smoothing).loss,
            arrays)

    def test_padded_positions_get_no_gradient(self):
        rng = np.random.default_rng(5)
        targets = _smoothed_targets(rng, 2, 4, 6)
        logits = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        cross_entropy(logits, targets, 0, 0.1).loss.backward()
        assert np.all(logits.grad[1, 2:] == 0.0)
        assert np.all(logits.grad[0] != 0.0)


def _golden(case):
    golden = np.load(GOLDEN)
    return {key[len(case) + 1:]: golden[key] for key in golden.files
            if key.startswith(case + "_")}


class TestComposedChainGolden:
    """The golden was written by the composed Tensor chains these ops
    replaced: ``x.matmul(W) + b``, ``Tensor.gelu`` and ``Tensor.log_softmax``
    times the smoothed target distribution, summed, negated and scaled, each
    with its tape backward."""

    @pytest.mark.parametrize("case", ["linear", "linear_nobias"])
    def test_linear(self, case):
        g = _golden(case)
        names = ("x", "weight", "bias") if "bias" in g else ("x", "weight")
        tensors = [Tensor(g[name].copy(), requires_grad=True) for name in names]
        out = linear(*tensors) if len(tensors) == 3 else linear(*tensors, None)
        (out * Tensor(g["upstream"])).sum().backward()
        assert np.array_equal(out.data, g["out"])
        for name, tensor in zip(names, tensors):
            assert np.array_equal(tensor.grad, g["d" + name]), name

    def test_gelu(self):
        g = _golden("gelu")
        x = Tensor(g["x"].copy(), requires_grad=True)
        out = gelu(x)
        (out * Tensor(g["upstream"])).sum().backward()
        assert np.array_equal(out.data, g["out"])
        assert np.array_equal(x.grad, g["dx"])

    def test_smoothed_nll(self):
        g = _golden("loss")
        logits = Tensor(g["logits"].copy(), requires_grad=True)
        result = cross_entropy(logits, g["targets"], int(g["pad_id"]),
                               float(g["smoothing"]))
        result.loss.backward()
        assert np.array_equal(result.loss.data, g["value"])
        assert np.array_equal(logits.grad, g["dlogits"])
        assert result.token_accuracy == float(g["accuracy"])


class TestNoTapeUnderInferenceMode:
    @pytest.mark.parametrize("op", ["linear", "gelu", "loss"])
    def test_no_parents(self, op):
        leaf = Tensor(np.ones((1, 2, 3)), requires_grad=True)
        weight = Tensor(np.ones(3), requires_grad=True)
        with inference_mode(np.float64):
            if op == "linear":
                out = linear(leaf, Tensor(np.eye(3), requires_grad=True), weight)
            elif op == "gelu":
                out = gelu(leaf)
            else:
                out = cross_entropy(leaf, np.array([[1, 2]]), 0, 0.1).loss
        assert out._parents == [] and not out.requires_grad


def _retained_bytes(forward):
    """Bytes still allocated after ``forward()`` while its result is held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = forward()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.requires_grad
    return retained


def test_loss_retains_at_most_the_probabilities_and_the_targets():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(4, 32, 256)), requires_grad=True)
    targets = rng.integers(1, 256, size=(4, 32))
    retained = _retained_bytes(
        lambda: cross_entropy(logits, targets, 0, 0.1).loss)
    per_loss = retained / logits.data.nbytes
    assert per_loss <= 2.1, f"{per_loss:.2f} logits-sized arrays"
