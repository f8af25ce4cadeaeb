"""Greedy decoding in the continuous batch must equal sequential decoding.

Two layers of evidence:

* a deterministic **stub model** whose next-token rule depends only on the
  row's own (un-padded) source, step and previous token — this lets the
  property test steer directly into the awkward corners (ragged lengths,
  empty sources, EOS at step 0, sequences that never finish); and
* the **real tiny Transformer**, where equality additionally proves that the
  ragged source matrix plus the per-row cross-attention masks do not perturb
  the argmax path.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.decoding import GreedyStrategy
from repro.model.generation import greedy_decode

from test_decoding_differential import continuous_decode, scheduled_predictions

PAD, SOS, EOS = 0, 1, 2
VOCAB = 17


class StubModel:
    """Deterministic per-row decoder obeying the Seq2SeqTransformer decode API.

    ``decode_step`` computes each row's next token from that row's real
    (non-pad) source tokens, its step index (per-row ``positions`` in the
    continuous batch) and the previously fed token — nothing else — so the
    per-example and batched paths must agree exactly if the batching
    machinery is correct.
    """

    def __init__(self, vocab_size: int = VOCAB) -> None:
        self.vocab_size = vocab_size

    def encode(self, source_ids: np.ndarray, pad_id: int, *, training: bool = False):
        return source_ids  # decode_step reads src directly; no memory needed

    def start_decoding(self):
        return SimpleNamespace(position=0, self_caches=[], cross_caches=[])

    def decode_step(self, token_ids: np.ndarray, memory, source_ids: np.ndarray,
                    pad_id: int, state) -> np.ndarray:
        batch = source_ids.shape[0]
        positions = getattr(state, "positions", None)
        logits = np.zeros((batch, self.vocab_size))
        for row in range(batch):
            real = [int(t) for t in source_ids[row] if int(t) != pad_id]
            step = int(positions[row]) if positions is not None else state.position
            token = self._next_token(real, step, int(token_ids[row, 0]))
            logits[row, token] = 1.0
        if positions is not None:
            positions += 1
        else:
            state.position += 1
        return logits

    def _next_token(self, real_source: list[int], step: int, previous: int) -> int:
        if step == 0 and len(real_source) % 3 == 0:
            return EOS  # immediate-EOS corner: some rows finish on step one
        mix = len(real_source) * 13 + sum(real_source) * 7 + step * 5 + previous * 3
        return 3 + mix % (self.vocab_size - 3)  # never PAD/SOS/EOS mid-stream


def greedy_batch(model, sources, *, max_length=400, pad_id=PAD, sos_id=SOS,
                 eos_id=EOS):
    """Every source as one greedy request of a uniform continuous batch."""
    return continuous_decode(model, [(ids, GreedyStrategy()) for ids in sources],
                             max_length=max_length, sos_id=sos_id,
                             eos_id=eos_id, pad_id=pad_id)


source_lists = st.lists(
    st.lists(st.integers(min_value=3, max_value=VOCAB - 1), min_size=0, max_size=12),
    min_size=0, max_size=9,
)


@settings(max_examples=60, deadline=None)
@given(sources=source_lists, max_length=st.integers(min_value=1, max_value=12))
def test_stub_batch_matches_sequential(sources, max_length):
    model = StubModel()
    expected = [greedy_decode(model, ids, sos_id=SOS, eos_id=EOS, pad_id=PAD,
                              max_length=max_length) for ids in sources]
    batched = greedy_batch(model, sources, max_length=max_length)
    assert batched == expected


def test_stub_corner_batch():
    """One batch holding every corner at once: empty, immediate-EOS, ragged."""
    model = StubModel()
    sources = [
        [],                      # empty source -> []
        [3, 4, 5],               # len % 3 == 0 -> EOS at step 0 -> []
        [7],
        [8, 9, 10, 11, 12, 13, 14, 15],
        [3, 4, 5, 6],
    ]
    batched = greedy_batch(model, sources, max_length=10)
    expected = [greedy_decode(model, ids, sos_id=SOS, eos_id=EOS, pad_id=PAD,
                              max_length=10) for ids in sources]
    assert batched == expected
    assert batched[0] == [] and batched[1] == []
    # Unfinished rows are capped at max_length.
    assert all(len(out) <= 10 for out in batched)


def test_empty_batch_and_all_empty_sources():
    model = StubModel()
    assert greedy_batch(model, []) == []
    assert greedy_batch(model, [[], []]) == [[], []]
    assert greedy_decode(model, [], sos_id=SOS, eos_id=EOS, pad_id=PAD) == []


def test_beam_search_empty_source_generates_nothing(tiny_model):
    """Beam decoding shares greedy's empty-source contract (no crash)."""
    from repro.model.generation import beam_search_decode

    vocab = tiny_model.encoder.vocab
    assert beam_search_decode(tiny_model.model, [], sos_id=vocab.sos_id,
                              eos_id=vocab.eos_id, pad_id=vocab.pad_id,
                              beam_size=3, max_length=10) == []


# --------------------------------------------------------------- real model


@pytest.fixture(scope="module")
def ragged_sources(small_dataset, pi_source):
    programs = [ex.source_code for ex in small_dataset.splits.test[:5]]
    return programs + [pi_source, "", programs[0]]


def test_real_model_batch_matches_sequential(tiny_model, ragged_sources):
    vocab = tiny_model.encoder.vocab
    encoded = [tiny_model.encoder.encode_source(src) for src in ragged_sources]
    expected = [greedy_decode(tiny_model.model, ids, sos_id=vocab.sos_id,
                              eos_id=vocab.eos_id, pad_id=vocab.pad_id,
                              max_length=60) for ids in encoded]
    batched = greedy_batch(tiny_model.model, encoded, sos_id=vocab.sos_id,
                           eos_id=vocab.eos_id, pad_id=vocab.pad_id,
                           max_length=60)
    assert batched == expected


def test_pipeline_batch_predictions_match(tiny_model, ragged_sources):
    """Greedy requests through the scheduler are per-example identical to
    ``predict_code``."""
    batched = scheduled_predictions(tiny_model, ragged_sources,
                                    GreedyStrategy(), max_length=60)
    for source, result in zip(ragged_sources, batched):
        single = tiny_model.predict_code(source, max_length=60)
        assert result.generated_tokens == single.generated_tokens
        assert result.generated_code == single.generated_code
        assert result.suggestions == single.suggestions
