"""Seeded-sampling determinism differentials.

The contract for :class:`SampleStrategy`: a seed fully determines the
generation.  Evidence, mirroring the greedy/beam differential harness:

* **sequential ≡ continuous** — per-row RNG streams depend only on the seed
  (never on batch composition), so a sampling request in the continuous
  batch (:class:`repro.serving.sched.InflightBatch`) is exact-match
  identical to per-source ``sample_decode`` (property-tested on the
  history-dependent KV-cache stub, then on the real tiny Transformer);
* **tape ≡ inference fast path** — at float64 the no-tape kernels are
  bitwise identical to the tape path, and token selection runs in float64
  off the logits, so the same seed yields the same tokens from the tape
  sequential sampler and from the continuous batch under
  ``inference_mode(dtype=np.float64)``;
* **different seeds diverge** — the seed is live, not decorative.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.autograd import inference_mode, tape_mode
from repro.model.decoding import (
    GreedyStrategy,
    SampleStrategy,
    _sample_from_order,
    _sample_token,
    _top_k_order,
    sample_decode,
)

from test_decoding_differential import (
    DECODE,
    HistoryStubModel,
    VOCAB,
    continuous_decode,
    ragged_batches,
)


def sample_batch(model, sources, *, max_length, on_tokens=None, ids=DECODE,
                 **params):
    """Every source as one sampling request of a uniform continuous batch."""
    strategy = SampleStrategy(**params)
    return continuous_decode(model, [(source, strategy) for source in sources],
                             max_length=max_length, on_tokens=on_tokens, **ids)


sampling_params = st.fixed_dictionaries({
    "temperature": st.sampled_from([0.5, 1.0, 1.7]),
    "top_k": st.sampled_from([0, 1, 3, VOCAB]),
    "top_p": st.sampled_from([0.3, 0.9, 1.0]),
    "seed": st.integers(min_value=0, max_value=2**31),
})


# ----------------------------------------------------- stub-model properties


@settings(max_examples=60, deadline=None)
@given(sources=ragged_batches(), params=sampling_params)
def test_batched_sampling_equals_sequential_on_stub(sources, params):
    batched = sample_batch(HistoryStubModel(), sources, max_length=10, **params)
    sequential = [sample_decode(HistoryStubModel(), source, **DECODE,
                                max_length=10, **params)
                  for source in sources]
    assert batched == sequential


@settings(max_examples=30, deadline=None)
@given(sources=ragged_batches(), seed=st.integers(min_value=0, max_value=999))
def test_top_k_one_is_greedy(sources, seed):
    """top_k=1 collapses sampling onto the argmax path (ties included:
    both rank by ascending token id)."""
    sampled = sample_batch(HistoryStubModel(), sources, max_length=10, top_k=1,
                           seed=seed)
    greedy = continuous_decode(HistoryStubModel(),
                               [(source, GreedyStrategy()) for source in sources],
                               max_length=10)
    assert sampled == greedy


@settings(max_examples=200, deadline=None)
@given(logits=st.lists(st.sampled_from([-3.0, -0.0, 0.0, 0.25, 1.5, 1.5 + 2**-40]),
                       min_size=1, max_size=40),
       top_k=st.integers(min_value=0, max_value=45),
       temperature=st.sampled_from([0.5, 1.0, 1.7]),
       top_p=st.sampled_from([0.3, 0.9, 1.0]),
       seed=st.integers(min_value=0, max_value=2**31))
def test_partial_top_k_order_matches_the_full_stable_sort(logits, top_k,
                                                          temperature, top_p,
                                                          seed):
    """The row state's ``argpartition`` order agrees with the sequential
    oracle's full stable argsort in its first ``top_k`` ids, ties included,
    and so draws the same token from the same seed."""
    z = np.asarray(logits) / temperature
    order = _top_k_order(z, top_k)
    full = np.argsort(-z, kind="stable")
    kept = top_k if 0 < top_k < z.size else z.size
    assert np.array_equal(order[:kept], full[:kept])
    row = _sample_from_order(z, order, top_k=top_k, top_p=top_p,
                             rng=np.random.default_rng(seed))
    oracle = _sample_token(np.asarray(logits), temperature=temperature,
                           top_k=top_k, top_p=top_p,
                           rng=np.random.default_rng(seed), eos_id=2)
    assert row == oracle


def test_same_seed_reproduces_and_different_seeds_diverge():
    sources = [[3, 4, 5, 6], [7, 8, 9], [10, 11, 3, 4, 5]]
    model = lambda: HistoryStubModel(never_eos=True)  # noqa: E731
    first = sample_batch(model(), sources, max_length=16, seed=123)
    again = sample_batch(model(), sources, max_length=16, seed=123)
    other = sample_batch(model(), sources, max_length=16, seed=124)
    assert first == again
    assert first != other


def test_on_token_streams_exactly_the_emitted_tokens():
    source = [3, 4, 5, 6]
    streamed: list[int] = []
    out = sample_decode(HistoryStubModel(never_eos=True), source, **DECODE,
                        max_length=8, seed=5, on_token=streamed.append)
    assert streamed == out and len(out) == 8

    batch_streamed: list[list[int]] = [[], []]
    outs = sample_batch(HistoryStubModel(never_eos=True), [source, [7, 8]],
                        max_length=4, seed=5,
                        on_tokens=[stream.append for stream in batch_streamed])
    assert batch_streamed == outs


# ------------------------------------------------------- real-model evidence


@pytest.fixture(scope="module")
def sample_setup(tiny_model, small_dataset):
    sources = [ex.source_code for ex in small_dataset.splits.test[:3]]
    encoded = [tiny_model._encode_for_inference(source, None)
               for source in sources]
    vocab = tiny_model.encoder.vocab
    ids = dict(sos_id=vocab.sos_id, eos_id=vocab.eos_id, pad_id=vocab.pad_id)
    return tiny_model.model, encoded, ids


def test_real_model_batched_sampling_equals_sequential(sample_setup):
    model, encoded, ids = sample_setup
    params = dict(temperature=0.8, top_k=8, seed=42, max_length=24)
    batched = sample_batch(model, encoded, ids=ids, **params)
    sequential = [sample_decode(model, source, **ids, **params)
                  for source in encoded]
    assert batched == sequential
    assert any(batched)  # the differential must exercise actual tokens


def test_real_model_same_seed_bitwise_across_tape_and_inference(sample_setup):
    """Sequential tape_mode vs the continuous batch under
    inference_mode(float64): bitwise-equal logits feed a float64 sampler
    with the same RNG stream, so the tokens are identical."""
    model, encoded, ids = sample_setup
    params = dict(temperature=1.3, top_p=0.95, seed=7, max_length=16)
    with tape_mode():
        reference = [sample_decode(model, source, **ids, **params)
                     for source in encoded]
    with inference_mode(dtype=np.float64):
        fast = sample_batch(model, encoded, ids=ids, **params)
    assert fast == reference
    # Default (float32) inference runs the same seed deterministically too.
    assert sample_batch(model, encoded, ids=ids, **params) == \
        sample_batch(model, encoded, ids=ids, **params)


def test_real_model_different_seeds_diverge(sample_setup):
    model, encoded, ids = sample_setup
    outs = {seed: sample_batch(model, encoded, ids=ids, temperature=1.5,
                               seed=seed, max_length=24)
            for seed in range(4)}
    assert len({tuple(map(tuple, out)) for out in outs.values()}) > 1


def test_strategy_row_state_matches_functions(sample_setup):
    """SampleStrategy is a faithful wrapper over the sampling decoder, both
    through ``decode`` and through its continuous-batch row state."""
    model, encoded, ids = sample_setup
    strategy = SampleStrategy(temperature=0.8, top_k=8, seed=42)
    reference = [sample_decode(model, source, **ids, temperature=0.8, top_k=8,
                               seed=42, max_length=24) for source in encoded]
    assert [strategy.decode(model, source, **ids, max_length=24)
            for source in encoded] == reference
    assert sample_batch(model, encoded, ids=ids, temperature=0.8, top_k=8,
                        seed=42, max_length=24) == reference
