"""Tests for neural layers and multi-head attention."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.model.attention import (
    KVCache,
    MultiHeadAttention,
    attention_probs,
    causal_mask,
    combined_decoder_mask,
    padding_mask,
    scaled_dot_product_attention,
)
from repro.model.autograd import Tensor, numerical_gradient
from repro.model.config import ModelConfig
from repro.model.layers import (
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    PositionalEncoding,
    sinusoidal_positions,
)
from repro.model.transformer import Seq2SeqTransformer

GOLDEN = Path(__file__).parent / "golden" / "attention_chain.npz"


class TestLinearAndNorm:
    def test_linear_shapes(self):
        rng = np.random.default_rng(0)
        layer = Linear(8, 16, rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 16)

    def test_linear_without_bias(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 4, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_layernorm_normalises_last_axis(self):
        layer = LayerNorm(16)
        x = Tensor(np.random.default_rng(1).normal(3.0, 2.0, size=(4, 16)))
        out = layer(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_feedforward_shapes(self):
        rng = np.random.default_rng(2)
        ffn = FeedForward(8, 32, rng)
        out = ffn(Tensor(rng.normal(size=(2, 3, 8))))
        assert out.shape == (2, 3, 8)


class TestEmbeddingAndPositions:
    def test_embedding_lookup_shape(self):
        rng = np.random.default_rng(0)
        emb = Embedding(50, 8, rng)
        out = emb(np.array([[1, 2, 3]]))
        assert out.shape == (1, 3, 8)

    def test_sinusoidal_positions_properties(self):
        table = sinusoidal_positions(64, 16)
        assert table.shape == (64, 16)
        assert np.all(np.abs(table) <= 1.0)
        # Distinct positions get distinct encodings.
        assert not np.allclose(table[0], table[1])

    def test_positional_encoding_offset(self):
        pe = PositionalEncoding(32, 8)
        x = Tensor(np.zeros((1, 4, 8)))
        at_zero = pe(x, offset=0).data
        at_four = pe(x, offset=4).data
        assert not np.allclose(at_zero, at_four)

    def test_positional_encoding_overflow_raises(self):
        pe = PositionalEncoding(8, 4)
        with pytest.raises(ValueError):
            pe(Tensor(np.zeros((1, 16, 4))))


class TestModuleParameterCollection:
    def test_collects_nested_parameters(self):
        rng = np.random.default_rng(0)

        class Wrapper(Module):
            def __init__(self):
                self.inner = Linear(4, 4, rng)
                self.stack = [Linear(4, 4, rng), LayerNorm(4)]

        module = Wrapper()
        # inner (2) + stack linear (2) + layernorm (2)
        assert len(module.parameters()) == 6
        assert module.num_parameters() == 4 * 4 * 2 + 4 * 2 + 4 * 2

    def test_zero_grad_clears_all(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 3, rng)
        out = layer(Tensor(np.ones((1, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestMasks:
    def test_padding_mask_shape_and_content(self):
        ids = np.array([[5, 6, 0], [7, 0, 0]])
        mask = padding_mask(ids, pad_id=0)
        assert mask.shape == (2, 1, 1, 3)
        assert mask[0, 0, 0].tolist() == [False, False, True]

    def test_causal_mask_upper_triangle(self):
        mask = causal_mask(4)
        assert mask.shape == (1, 1, 4, 4)
        assert not mask[0, 0, 2, 1]
        assert mask[0, 0, 1, 2]

    def test_combined_decoder_mask(self):
        ids = np.array([[3, 4, 0]])
        mask = combined_decoder_mask(ids, pad_id=0)
        assert mask.shape == (1, 1, 3, 3)
        assert mask[0, 0, 0, 1]          # causal
        assert mask[0, 0, 2, 2].item() is np.True_ or mask[0, 0, 2, 2]  # padding


class TestMultiHeadAttention:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadAttention(16, 4, rng)
        x = Tensor(rng.normal(size=(2, 5, 16)))
        out = attn(x, x, x)
        assert out.shape == (2, 5, 16)

    def test_invalid_head_split_raises(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, np.random.default_rng(0))

    def test_masking_changes_output(self):
        rng = np.random.default_rng(1)
        attn = MultiHeadAttention(8, 2, rng)
        x = Tensor(rng.normal(size=(1, 4, 8)))
        unmasked = attn(x, x, x).data
        masked = attn(x, x, x, mask=causal_mask(4)).data
        assert not np.allclose(unmasked, masked)

    def test_cross_attention_different_lengths(self):
        rng = np.random.default_rng(2)
        attn = MultiHeadAttention(8, 2, rng)
        query = Tensor(rng.normal(size=(1, 3, 8)))
        memory = Tensor(rng.normal(size=(1, 7, 8)))
        out = attn(query, memory, memory)
        assert out.shape == (1, 3, 8)

    def test_kv_cache_incremental_matches_full(self):
        rng = np.random.default_rng(3)
        attn = MultiHeadAttention(8, 2, rng, dropout=0.0)
        sequence = Tensor(rng.normal(size=(1, 4, 8)))
        full = attn(sequence, sequence, sequence, mask=causal_mask(4)).data

        cache = KVCache()
        incremental = []
        for step in range(4):
            token = Tensor(sequence.data[:, step:step + 1, :])
            out = attn(token, token, token, cache=cache)
            incremental.append(out.data[:, 0, :])
        incremental = np.stack(incremental, axis=1)
        assert np.allclose(full, incremental, atol=1e-10)

    def test_kv_cache_length_grows(self):
        cache = KVCache()
        assert cache.length == 0
        cache.append(np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3, 4)))
        cache.append(np.zeros((1, 2, 2, 4)), np.zeros((1, 2, 2, 4)))
        assert cache.length == 5

    def test_gradients_flow_through_attention(self):
        rng = np.random.default_rng(4)
        attn = MultiHeadAttention(8, 2, rng)
        x = Tensor(rng.normal(size=(1, 3, 8)), requires_grad=True)
        attn(x, x, x).sum().backward()
        assert x.grad is not None
        assert attn.q_proj.weight.grad is not None


def _key_padding(batch, k_len, padded):
    """(batch, 1, 1, k_len) mask padding the last ``padded`` keys of row 1."""
    pad = np.zeros((batch, k_len), dtype=bool)
    pad[1, k_len - padded:] = True
    return pad[:, None, None, :]


def _decode_causal(q_len, k_len):
    """Causal mask for queries at the last ``q_len`` of ``k_len`` positions."""
    return np.triu(np.ones((q_len, k_len), dtype=bool), k=1 + k_len - q_len)[None, None]


class TestFusedAttentionOp:
    """``scaled_dot_product_attention``: the one tape op of attention."""

    @pytest.mark.parametrize("q_len,k_len,mask_kind", [
        (3, 5, "padding"),
        (4, 4, "causal"),
        (2, 5, "causal"),
        (4, 4, "causal+padding"),
        (3, 4, None),
    ], ids=["padding-cross", "causal", "causal-decode", "causal+padding",
            "unmasked-cross"])
    def test_qkv_gradients_match_finite_differences(self, q_len, k_len, mask_kind):
        rng = np.random.default_rng(q_len * 10 + k_len)
        batch, heads, dim = 2, 2, 3
        mask = None
        if mask_kind is not None and "padding" in mask_kind:
            mask = _key_padding(batch, k_len, 2)
        if mask_kind is not None and "causal" in mask_kind:
            causal = _decode_causal(q_len, k_len)
            mask = causal if mask is None else mask | causal
        arrays = [rng.normal(size=(batch, heads, q_len, dim)),
                  rng.normal(size=(batch, heads, k_len, dim)),
                  rng.normal(size=(batch, heads, k_len, dim))]
        upstream = rng.normal(size=(batch, heads, q_len, dim))
        scale = 1.0 / float(np.sqrt(dim))

        def loss(tensors):
            out = scaled_dot_product_attention(*tensors, mask, scale)
            return (out * Tensor(upstream)).sum()

        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        loss(tensors).backward()
        for index, tensor in enumerate(tensors):
            def probe(x, index=index):
                inputs = [Tensor(a) for a in arrays]
                inputs[index] = x
                return loss(inputs)
            numeric = numerical_gradient(probe, Tensor(arrays[index].copy()))
            assert np.allclose(tensor.grad, numeric, atol=1e-6), (
                f"{'qkv'[index]}: max error {np.abs(tensor.grad - numeric).max()}")

    def test_seeded_dropout_matches_its_mask_and_gradients(self):
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(1, 2, 4, 3)) for _ in range(3))
        upstream = rng.normal(size=(1, 2, 4, 3))
        rate, scale = 0.3, 1.0 / float(np.sqrt(3))
        mask = causal_mask(4)

        def loss(tensors, seed=11):
            out = scaled_dot_product_attention(
                *tensors, mask, scale, dropout=rate,
                rng=np.random.default_rng(seed), training=True)
            return out, (out * Tensor(upstream)).sum()

        out, _ = loss([Tensor(a) for a in (q, k, v)])
        keep = np.random.default_rng(11).random((1, 2, 4, 4)) >= rate
        expected = np.matmul(attention_probs(q, k, mask, scale) * keep / (1 - rate), v)
        assert np.allclose(out.data, expected, atol=1e-12)
        assert not np.array_equal(out.data, loss([Tensor(a) for a in (q, k, v)], 12)[0].data)
        # Evaluation (or rate 0) is the plain attention, with no draw.
        plain = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v), mask,
                                             scale, dropout=rate, training=False)
        assert np.array_equal(plain.data, np.matmul(attention_probs(q, k, mask, scale), v))

        tensors = [Tensor(a.copy(), requires_grad=True) for a in (q, k, v)]
        loss(tensors)[1].backward()
        for index, tensor in enumerate(tensors):
            def probe(x, index=index):
                inputs = [Tensor(a) for a in (q, k, v)]
                inputs[index] = x
                return loss(inputs)[1]
            numeric = numerical_gradient(probe, Tensor((q, k, v)[index].copy()))
            assert np.allclose(tensor.grad, numeric, atol=1e-6)

    @pytest.mark.parametrize("case", ["self", "cross"])
    def test_bitwise_equal_to_the_composed_chain_golden(self, case):
        """The golden was written by the composed Tensor chain this op
        replaced (matmul, ×scale, masked_fill, softmax, dropout with
        ``default_rng(99)``, matmul) and its tape backward."""
        golden = np.load(GOLDEN)
        g = {key[len(case) + 1:]: golden[key] for key in golden.files
             if key.startswith(case + "_")}
        rate = float(g["rate"])
        tensors = [Tensor(g[name].copy(), requires_grad=True) for name in "qkv"]
        scale = 1.0 / float(np.sqrt(g["q"].shape[-1]))
        out = scaled_dot_product_attention(*tensors, g["mask"], scale, dropout=rate,
                                           rng=np.random.default_rng(99),
                                           training=rate > 0.0)
        (out * Tensor(g["upstream"])).sum().backward()
        assert np.array_equal(out.data, g["out"])
        for name, tensor in zip("qkv", tensors):
            assert np.array_equal(tensor.grad, g["d" + name]), name

    def test_probability_rows_sum_to_one_and_masked_keys_get_zero(self):
        rng = np.random.default_rng(0)
        q, k = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 7, 5))
        mask = _key_padding(2, 7, 3)
        probs = attention_probs(q, k, mask, 0.5)
        assert np.allclose(probs.sum(axis=-1), 1.0)
        assert np.all(probs[1, :, :, -3:] == 0.0)

    def test_masked_keys_receive_no_gradient(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 5, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(2, 2, 5, 4)), requires_grad=True)
        mask = _key_padding(2, 5, 2)
        (scaled_dot_product_attention(q, k, v, mask, 0.5) * 2.0).sum().backward()
        for grad in (k.grad, v.grad):
            assert np.all(grad[1, :, -2:] == 0.0)
            assert np.any(grad[1, :, :-2] != 0.0)
        assert np.all(np.isfinite(q.grad))

    def test_no_tape_under_inference_mode(self):
        from repro.model.autograd import inference_mode
        weight = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with inference_mode(np.float64):
            out = scaled_dot_product_attention(weight, weight, weight, None, 1.0)
        assert out._parents == [] and not out.requires_grad


def test_forward_retains_at_most_one_and_a_half_score_arrays_per_attention():
    """The tape of a training forward keeps one float probability array and
    a bool dropout mask per attention module, not the six float
    ``(batch, heads, q_len, k_len)`` arrays of the composed chain."""
    length, heads = 256, 16
    config = ModelConfig(vocab_size=24, d_model=16, num_heads=heads,
                         num_encoder_layers=1, num_decoder_layers=1,
                         ffn_dim=32, dropout=0.1, max_positions=length + 8)
    model = Seq2SeqTransformer(config)
    rng = np.random.default_rng(0)
    source = rng.integers(1, config.vocab_size, size=(1, length))
    target = rng.integers(1, config.vocab_size, size=(1, length))
    modules = 3  # encoder self-attention, decoder self- and cross-attention
    score_bytes = heads * length * length * 8

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        logits = model.forward(source, target, pad_id=0,
                               rng=np.random.default_rng(1), training=True)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert logits.requires_grad
    per_module = retained / (modules * score_bytes)
    assert per_module <= 1.5, f"{per_module:.2f} score arrays per attention module"
