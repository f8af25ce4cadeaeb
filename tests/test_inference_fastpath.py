"""Differential tests: the no-tape inference fast path vs. the tape path.

The decode hot path now runs tape-free on raw-ndarray kernels
(:func:`repro.model.autograd.inference_mode`), with float32 compute by
default.  Correctness is locked in two tiers:

* **float64 fast path ≡ tape path, bitwise** — the fused kernels replicate
  the tape ops expression for expression, so under
  ``inference_mode(dtype=np.float64)`` every decode (greedy, beam,
  sequential, and the continuous batch every served request runs through)
  must produce *identical* token sequences to the tape-mode sequential
  decoders — and
  ``decode_step`` identical logits bit patterns — to ``tape_mode()``.
  Hypothesis drives random sources/beam settings over random-weight models;
  the real trained tiny model covers the production configuration.
* **float32 fast path agrees on argmax** — the default inference dtype
  trades ulps for speed; it must still select the same token sequences as
  the float64 reference across the differential suite.

Plus the mode/dtype plumbing itself: ops skip tape construction under
inference mode, constants follow the configured dtype (no silent float64
upcasts), and the dtype-cast weight caches invalidate when the optimiser or
checkpoint loader touches parameters in place.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.attention import KVCache
from repro.model.autograd import (
    Tensor,
    inference_mode,
    is_grad_enabled,
    tape_mode,
)
from repro.model.config import ModelConfig
from repro.model.decoding import BeamStrategy, GreedyStrategy
from repro.model.generation import (
    ContinuousDecoderLoop,
    beam_search_decode,
    greedy_decode,
)
from repro.model.layers import gelu, linear
from repro.model.transformer import Seq2SeqTransformer

from test_decoding_differential import continuous_decode

PAD, SOS, EOS = 0, 1, 2
VOCAB = 40


def _make_model(seed: int) -> Seq2SeqTransformer:
    config = ModelConfig(vocab_size=VOCAB, d_model=16, num_heads=2,
                         num_encoder_layers=1, num_decoder_layers=2,
                         ffn_dim=32, dropout=0.1, max_positions=64, seed=seed)
    return Seq2SeqTransformer(config)


@pytest.fixture(scope="module")
def models() -> dict[int, Seq2SeqTransformer]:
    """Random-weight models reused across hypothesis examples."""
    return {seed: _make_model(seed) for seed in (0, 1, 2)}


DECODE = dict(sos_id=SOS, eos_id=EOS, pad_id=PAD)


def continuous(model, sources, strategy, *, max_length, ids=DECODE):
    """Every source as one request of a uniform continuous batch."""
    return continuous_decode(model, [(source, strategy) for source in sources],
                             max_length=max_length, **ids)


def greedy_batch(model, sources, *, max_length, ids=DECODE):
    return continuous(model, sources, GreedyStrategy(), max_length=max_length,
                      ids=ids)


def beam_batch(model, sources, *, beam_size, max_length, length_penalty,
               ids=DECODE):
    return continuous(model, sources,
                      BeamStrategy(beam_size=beam_size,
                                   length_penalty=length_penalty),
                      max_length=max_length, ids=ids)


@st.composite
def source_batches(draw):
    return draw(st.lists(
        st.lists(st.integers(min_value=3, max_value=VOCAB - 1),
                 min_size=0, max_size=8),
        min_size=1, max_size=4))


# ----------------------------------------------- fp64 fast path ≡ tape path


@settings(max_examples=25, deadline=None)
@given(sources=source_batches(), seed=st.sampled_from([0, 1, 2]),
       max_length=st.integers(min_value=1, max_value=8))
def test_greedy_fp64_fast_path_matches_tape(models, sources, seed, max_length):
    model = models[seed]
    with tape_mode():
        expected = [greedy_decode(model, s, **DECODE, max_length=max_length)
                    for s in sources]
    with inference_mode(dtype=np.float64):
        assert [greedy_decode(model, s, **DECODE, max_length=max_length)
                for s in sources] == expected
        assert greedy_batch(model, sources, max_length=max_length) == expected


@settings(max_examples=25, deadline=None)
@given(sources=source_batches(), seed=st.sampled_from([0, 1, 2]),
       beam_size=st.integers(min_value=2, max_value=3),
       max_length=st.integers(min_value=1, max_value=6),
       length_penalty=st.sampled_from([0.0, 0.6]))
def test_beam_fp64_fast_path_matches_tape(models, sources, seed, beam_size,
                                          max_length, length_penalty):
    model = models[seed]
    kwargs = dict(beam_size=beam_size, max_length=max_length,
                  length_penalty=length_penalty)
    with tape_mode():
        expected = [beam_search_decode(model, s, **DECODE, **kwargs)
                    for s in sources]
    with inference_mode(dtype=np.float64):
        assert [beam_search_decode(model, s, **DECODE, **kwargs)
                for s in sources] == expected
        assert beam_batch(model, sources, **kwargs) == expected


def test_decode_step_logits_are_bitwise_identical(models):
    """Not just the argmax: every logit bit must match at float64."""
    model = models[0]
    src = np.asarray([[5, 9, 3, 17], [4, PAD, PAD, PAD]], dtype=np.int64)

    def run_steps():
        memory = model.encode(src, PAD, training=False)
        state = model.start_decoding()
        logits = []
        current = np.full((2, 1), SOS, dtype=np.int64)
        for _ in range(5):
            step_logits = model.decode_step(current, memory, src, PAD, state)
            logits.append(step_logits)
            current = np.argmax(step_logits, axis=-1)[:, None].astype(np.int64)
        return memory.data, logits

    with tape_mode():
        tape_memory, tape_logits = run_steps()
    with inference_mode(dtype=np.float64):
        fast_memory, fast_logits = run_steps()

    assert np.array_equal(tape_memory, fast_memory)
    for tape_step, fast_step in zip(tape_logits, fast_logits):
        assert np.array_equal(tape_step, fast_step)
        assert fast_step.dtype == np.float64


def test_beam_reorder_exactness_through_kv_cache(models):
    """Beam pruning reorders preallocated cache rows in place; the float64
    fast path must still track the tape path exactly through many prunes."""
    model = models[1]
    sources = [[7, 8, 9, 10, 11], [12, 13], [14]]
    kwargs = dict(beam_size=4, max_length=12, length_penalty=0.6)
    with tape_mode():
        expected = [beam_search_decode(model, s, **DECODE, **kwargs)
                    for s in sources]
    with inference_mode(dtype=np.float64):
        assert beam_batch(model, sources, **kwargs) == expected


# -------------------------------------------------- fp32 argmax agreement


@settings(max_examples=20, deadline=None)
@given(sources=source_batches(), seed=st.sampled_from([0, 1, 2]),
       max_length=st.integers(min_value=1, max_value=8))
def test_greedy_fp32_agrees_on_argmax(models, sources, seed, max_length):
    """The default (float32) fast path selects the same token sequences."""
    model = models[seed]
    with tape_mode():
        expected = [greedy_decode(model, s, **DECODE, max_length=max_length)
                    for s in sources]
    assert greedy_batch(model, sources, max_length=max_length) == expected


def test_beam_fp32_agrees_on_token_sequences(models):
    model = models[2]
    sources = [[3, 4, 5, 6], [7, 8], [], [9]]
    kwargs = dict(beam_size=3, max_length=10, length_penalty=0.6)
    with tape_mode():
        expected = [beam_search_decode(model, s, **DECODE, **kwargs)
                    for s in sources]
    assert beam_batch(model, sources, **kwargs) == expected


def test_fp32_is_the_default_inference_dtype(models):
    """Without a pinned mode, decoding runs float32 caches end to end."""
    model = models[0]
    loop = ContinuousDecoderLoop(model, pad_id=PAD)
    loop.join([5, 6, 7])
    assert loop.state.cross_caches[0].keys.dtype == np.float32
    loop.step(np.full((1, 1), SOS, dtype=np.int64))
    assert loop.state.self_caches[0].keys.dtype == np.float32
    assert loop.state.cross_caches[0].keys.dtype == np.float32


# --------------------------------------------------------- real trained model


def test_real_model_fp64_fast_path_exact(tiny_model, pi_source):
    vocab = tiny_model.encoder.vocab
    encoded = [tiny_model.encoder.encode_source(pi_source)]
    kwargs = dict(sos_id=vocab.sos_id, eos_id=vocab.eos_id, pad_id=vocab.pad_id)
    with tape_mode():
        greedy_ref = [greedy_decode(tiny_model.model, ids, **kwargs,
                                    max_length=40) for ids in encoded]
        beam_ref = [beam_search_decode(tiny_model.model, ids, **kwargs,
                                       beam_size=3, max_length=30,
                                       length_penalty=0.6) for ids in encoded]
    with inference_mode(dtype=np.float64):
        assert greedy_batch(tiny_model.model, encoded, ids=kwargs,
                            max_length=40) == greedy_ref
        assert beam_batch(tiny_model.model, encoded, ids=kwargs, beam_size=3,
                          max_length=30, length_penalty=0.6) == beam_ref


def test_real_model_fp32_agrees_on_argmax(tiny_model, pi_source):
    vocab = tiny_model.encoder.vocab
    encoded = [tiny_model.encoder.encode_source(pi_source)]
    kwargs = dict(sos_id=vocab.sos_id, eos_id=vocab.eos_id, pad_id=vocab.pad_id)
    with tape_mode():
        greedy_ref = [greedy_decode(tiny_model.model, ids, **kwargs,
                                    max_length=40) for ids in encoded]
        beam_ref = [beam_search_decode(tiny_model.model, ids, **kwargs,
                                       beam_size=3, max_length=30,
                                       length_penalty=0.6) for ids in encoded]
    assert greedy_batch(tiny_model.model, encoded, ids=kwargs,
                        max_length=40) == greedy_ref
    assert beam_batch(tiny_model.model, encoded, ids=kwargs, beam_size=3,
                      max_length=30, length_penalty=0.6) == beam_ref


# ------------------------------------------------------- mode/dtype plumbing


def test_inference_mode_skips_tape_construction():
    weight = Tensor(np.ones((2, 2)), requires_grad=True)
    with inference_mode():
        assert not is_grad_enabled()
        out = gelu(linear(Tensor(np.ones((2, 2))), weight, None) + 1.0)
        assert out._parents == []
        assert not out.requires_grad
    assert is_grad_enabled()
    tracked = Tensor(np.ones((2, 2))).matmul(weight)
    assert tracked.requires_grad and tracked._parents


def test_constants_follow_the_configured_dtype():
    """Satellite: no silent float64 upcasts under a float32 policy."""
    outside = Tensor(3.0)
    assert outside.data.dtype == np.float64  # tape default unchanged
    with inference_mode():  # float32 policy
        x = Tensor(np.ones(4, dtype=np.float32))
        assert x.data.dtype == np.float32
        assert (x + 1.0).data.dtype == np.float32
        assert (x * 2.5).data.dtype == np.float32
        assert Tensor(3.0).data.dtype == np.float32
    with inference_mode(dtype=np.float64):
        assert Tensor(3.0).data.dtype == np.float64


def test_gradients_follow_the_tensor_dtype():
    with tape_mode(dtype=np.float32):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * x).sum().backward()
    assert x.grad.dtype == np.float32


def test_cast_cache_invalidates_on_in_place_update():
    from repro.model.layers import Linear, cast_param

    layer = Linear(3, 2, np.random.default_rng(0))
    first = cast_param(layer._cast_weight, layer.weight, np.float32)
    assert cast_param(layer._cast_weight, layer.weight, np.float32) is first
    layer.weight.data += 1.0
    layer.weight.mark_updated()
    refreshed = cast_param(layer._cast_weight, layer.weight, np.float32)
    assert refreshed is not first
    np.testing.assert_allclose(refreshed,
                               layer.weight.data.astype(np.float32))


def test_optimizer_step_invalidates_cast_caches():
    from repro.model.layers import Linear, cast_param
    from repro.model.optimizer import Adam

    layer = Linear(3, 2, np.random.default_rng(0))
    stale = cast_param(layer._cast_weight, layer.weight, np.float32)
    layer.weight.grad = np.ones_like(layer.weight.data)
    Adam([layer.weight]).step()
    fresh = cast_param(layer._cast_weight, layer.weight, np.float32)
    assert fresh is not stale
    np.testing.assert_allclose(fresh, layer.weight.data.astype(np.float32))


def test_training_still_works_after_inference(models):
    """A decode must not poison subsequent tape-based training."""
    model = _make_model(9)
    greedy_decode(model, [5, 6, 7], **DECODE, max_length=4)  # fast path
    src = np.asarray([[5, 6, 7]], dtype=np.int64)
    tgt = np.asarray([[SOS, 4]], dtype=np.int64)
    logits = model.forward(src, tgt, PAD, training=False)
    assert logits.data.dtype == np.float64
    loss = logits.sum()
    loss.backward()
    grads = [p.grad for p in model.parameters() if p.grad is not None]
    assert grads, "tape must be rebuilt outside inference mode"
    assert all(g.dtype == np.float64 for g in grads)


def test_set_default_inference_dtype_roundtrip():
    from repro.model.autograd import (
        default_inference_dtype,
        set_default_inference_dtype,
    )

    original = default_inference_dtype()
    try:
        set_default_inference_dtype(np.float64)
        assert default_inference_dtype() == np.dtype(np.float64)
        with inference_mode():
            assert Tensor(1.0).data.dtype == np.float64
        with pytest.raises(ValueError, match="float32 or float64"):
            set_default_inference_dtype(np.int32)
    finally:
        set_default_inference_dtype(original)


def test_causal_mask_is_cached_and_read_only():
    from repro.model.attention import causal_mask, combined_decoder_mask

    first = causal_mask(5)
    assert causal_mask(5) is first
    assert not first.flags.writeable
    # Consumers OR it with padding masks into a fresh, writable array.
    combined = combined_decoder_mask(np.asarray([[3, 4, PAD, PAD, PAD]]), PAD)
    assert combined.flags.writeable
    assert combined[0, 0, 0, 2]  # padding masked
    assert combined[0, 0, 0, 1]  # future masked


def test_modes_nest_and_restore():
    assert is_grad_enabled()
    with inference_mode():
        with tape_mode():
            assert is_grad_enabled()
            assert Tensor(1.0).data.dtype == np.float64
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_stub_models_keep_working_under_the_default_mode():
    """Generation wraps model calls in inference mode; duck-typed stub models
    (the differential harness pattern) must be unaffected."""
    from types import SimpleNamespace

    class Stub:
        def encode(self, source_ids, pad_id, *, training=False):
            return source_ids

        def start_decoding(self):
            return SimpleNamespace(position=0, self_caches=[KVCache()],
                                   cross_caches=[])

        def decode_step(self, token_ids, memory, source_ids, pad_id, state):
            fed = token_ids[:, None, :, None].astype(np.float64)
            state.self_caches[0].append(fed, fed)
            positions = getattr(state, "positions", None)
            if positions is None:
                state.position += 1
                positions = np.full(source_ids.shape[0], state.position)
            else:
                positions += 1
            logits = np.zeros((source_ids.shape[0], 6))
            logits[np.arange(source_ids.shape[0]), 3 + positions % 2] = 1.0
            return logits

    assert greedy_decode(Stub(), [3, 4], **DECODE, max_length=4) == [4, 3, 4, 3]
    out = greedy_batch(Stub(), [[3, 4], [5]], max_length=4)
    assert out == [[4, 3, 4, 3], [4, 3, 4, 3]]
