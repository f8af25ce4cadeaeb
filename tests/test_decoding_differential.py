"""Differential decoding harness: continuous batching ≡ sequential decoding.

The paper's headline numbers are produced with beam search, and every
served decode runs through the continuous batch
(:class:`repro.serving.sched.InflightBatch` over
:class:`repro.model.generation.ContinuousDecoderLoop`), so each request's
tokens there must be *exact-match* identical to the sequential reference
decoders (:func:`greedy_decode`, :func:`beam_search_decode`,
:func:`sample_decode`) — not approximately, not up to tie-breaking.  Three
layers of evidence:

* a **history-dependent stub model** whose next-token logits are a
  deterministic, tie-rich function of the row's own (un-padded) source, its
  own step and the *full fed-token history accumulated through a real
  KVCache*.  Because the history lives in the cache, the continuous path
  only matches if :meth:`ContinuousDecoderLoop.reorder_rows` gathers cache
  rows correctly through every pruning step and joins/retires leave no
  residue — and because the logits take small integer values, exact score
  ties abound, hammering the explicit candidate ordering;
* **degenerate stubs** steering into the corners: every row emits EOS at
  step 0, no row ever emits EOS (``max_length`` truncation mid-beam), and
  fully uniform logits (every candidate tied, so the output is decided by
  the documented ordering alone);
* the **real tiny Transformer**, where equality additionally proves that the
  ragged source matrix, the per-row cross-attention masks and the repeated
  per-beam memory rows do not perturb the selected hypotheses.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.attention import KVCache
from repro.model.decoding import BeamStrategy, GreedyStrategy, SampleStrategy
from repro.model.generation import beam_search_decode, greedy_decode
from repro.serving.sched import InflightBatch

PAD, SOS, EOS = 0, 1, 2
VOCAB = 13


class HistoryStubModel:
    """Deterministic decoder whose state lives in a real KV cache.

    ``decode_step`` appends the fed tokens to ``state.self_caches[0]`` (with
    the real cache layout: ``(rows, heads, steps, head_dim)``) and computes
    each row's logits from that row's non-pad source tokens, its step index
    and the *sum of every token ever fed to the row* — so a mis-gathered
    cache row after beam pruning changes the logits and breaks the
    differential immediately.  Logits take values in a small integer set,
    which makes exact score ties the common case rather than the corner one.

    Both decode protocols are spoken: the sequential decoders' scalar
    ``state.position``, and the per-row ``positions`` a
    :class:`ContinuousDecoderLoop` keeps — each row reads its *own* position,
    exactly how the real transformer's ragged decode path reads the
    positional table, so a row that joined at global step 40 computes the
    same logits it would have computed alone at step 0.
    """

    def __init__(self, vocab_size: int = VOCAB, *, eos_at_step0: bool = False,
                 never_eos: bool = False, uniform: bool = False) -> None:
        self.vocab_size = vocab_size
        self.eos_at_step0 = eos_at_step0
        self.never_eos = never_eos
        self.uniform = uniform

    def encode(self, source_ids: np.ndarray, pad_id: int, *, training: bool = False):
        return source_ids  # decode_step reads src directly; no memory needed

    def start_decoding(self):
        return SimpleNamespace(position=0, self_caches=[KVCache()], cross_caches=[])

    def decode_step(self, token_ids: np.ndarray, memory, source_ids: np.ndarray,
                    pad_id: int, state) -> np.ndarray:
        fed = token_ids[:, None, :, None].astype(np.float64)
        keys, _ = state.self_caches[0].append(fed, fed)
        history = keys[:, 0, :, 0].sum(axis=1)  # ragged zero tails drop out
        positions = getattr(state, "positions", None)
        batch = source_ids.shape[0]
        logits = np.full((batch, self.vocab_size), -100.0)
        for row in range(batch):
            pos = int(positions[row]) if positions is not None else state.position
            logits[row, 3:] = self._row_logits(source_ids[row], pad_id,
                                               int(history[row]), pos)
            if self.eos_at_step0 and pos == 0:
                logits[row, EOS] = 100.0
            elif not self.never_eos:
                logits[row, EOS] = logits[row, 3:].max() - float(
                    (int(history[row]) + pos) % 3)
        if positions is not None:
            positions += token_ids.shape[1]
        else:
            state.position += 1
        return logits

    def _row_logits(self, source_row: np.ndarray, pad_id: int, history: int,
                    step: int) -> np.ndarray:
        if self.uniform:
            return np.zeros(self.vocab_size - 3)
        real = [int(t) for t in source_row if int(t) != pad_id]
        mix = len(real) * 3 + sum(real) + history * 5 + step * 2
        return np.array([(mix + v) % 4 for v in range(3, self.vocab_size)],
                        dtype=np.float64)


DECODE = dict(sos_id=SOS, eos_id=EOS, pad_id=PAD)


class _Work:
    future = None


def continuous_decode(model, jobs, *, arrivals=None, max_rows=None,
                      max_length, on_tokens=None, sos_id=SOS, eos_id=EOS,
                      pad_id=PAD):
    """Drive an :class:`InflightBatch` by hand, the way the scheduler does.

    Job ``i`` — a ``(source_ids, strategy)`` pair — becomes eligible at
    global step ``arrivals[i]`` (default: all at step 0) and joins FIFO as
    soon as its rows fit ``max_rows`` (default: everything fits).  A request
    wider than ``max_rows`` joins alone once the batch has drained, and an
    empty source is answered with an empty generation without joining —
    both exactly the scheduler's admission rules.  ``on_tokens[i]`` (if
    given) is job ``i``'s streaming callback.
    """
    arrivals = arrivals or [0] * len(jobs)
    on_tokens = on_tokens or [None] * len(jobs)
    batch = InflightBatch(model, sos_id=sos_id, eos_id=eos_id, pad_id=pad_id)
    pending = list(range(len(jobs)))
    states: list = [None] * len(jobs)
    step = 0
    while pending or batch.num_rows:
        while pending and arrivals[pending[0]] <= step:
            i = pending[0]
            source, strategy = jobs[i]
            state = strategy.row_state(sos_id=sos_id, eos_id=eos_id,
                                       max_length=max_length,
                                       on_token=on_tokens[i])
            if max_rows is not None and state.rows > batch.free_rows(max_rows) \
                    and (state.rows <= max_rows or batch.num_rows):
                break
            pending.pop(0)
            states[i] = state
            if source:
                batch.add(_Work(), state, source)
        if batch.num_rows:
            batch.step()
        step += 1
        assert step < 10_000, "continuous_decode did not converge"
    return [state.result() if source else []
            for state, (source, _) in zip(states, jobs)]


def scheduled_predictions(mpirical, sources, strategy, *, max_length):
    """Serve ``sources`` through a real :class:`ContinuousScheduler` over
    ``mpirical`` (encode → continuous batch → package), in submit order."""
    from repro.serving.sched import (ContinuousScheduler, SchedulerPolicy,
                                     SchedWork)

    entry = SimpleNamespace(identity="tiny@0", ensure_loaded=lambda: mpirical)
    with ContinuousScheduler(policy=SchedulerPolicy(max_rows=8)) as sched:
        futures = [sched.submit(SchedWork(source_code=source, xsbt=None,
                                          tokens=None, strategy=strategy,
                                          entry=entry, max_length=max_length))
                   for source in sources]
        return [future.result(timeout=120) for future in futures]


def continuous_beam(model, sources, *, beam_size, max_length,
                    length_penalty=0.6, max_rows=None):
    """Every source as one beam request of a uniform continuous batch."""
    strategy = BeamStrategy(beam_size=beam_size, length_penalty=length_penalty)
    return continuous_decode(model, [(source, strategy) for source in sources],
                             max_rows=max_rows, max_length=max_length)


def sequential_beam(model_factory, sources, **kwargs):
    return [beam_search_decode(model_factory(), source, **kwargs)
            for source in sources]


@st.composite
def ragged_batches(draw):
    """Ragged source batches with empties and deliberate duplicates."""
    sources = draw(st.lists(
        st.lists(st.integers(min_value=3, max_value=VOCAB - 1),
                 min_size=0, max_size=8),
        min_size=0, max_size=7))
    if sources and draw(st.booleans()):
        sources.append(list(draw(st.sampled_from(sources))))
    return sources


# ------------------------------------------------------- property: beam ≡ beam


@settings(max_examples=60, deadline=None)
@given(sources=ragged_batches(),
       beam_size=st.integers(min_value=2, max_value=4),
       max_length=st.integers(min_value=1, max_value=10),
       length_penalty=st.sampled_from([0.0, 0.6, 1.0]))
def test_batched_beam_matches_sequential(sources, beam_size, max_length,
                                         length_penalty):
    """Ragged beam requests sharing a two-request continuous batch."""
    kwargs = dict(beam_size=beam_size, max_length=max_length,
                  length_penalty=length_penalty)
    expected = sequential_beam(HistoryStubModel, sources, **DECODE, **kwargs)
    batched = continuous_beam(HistoryStubModel(), sources,
                              max_rows=2 * beam_size, **kwargs)
    assert batched == expected


@settings(max_examples=40, deadline=None)
@given(sources=ragged_batches(), max_length=st.integers(min_value=1, max_value=10),
       length_penalty=st.sampled_from([0.0, 0.6]))
def test_beam_size_one_equals_greedy(sources, max_length, length_penalty):
    """beam_size=1 must delegate to greedy in both the continuous and the
    sequential paths."""
    via_beam = continuous_beam(HistoryStubModel(), sources, beam_size=1,
                               max_length=max_length,
                               length_penalty=length_penalty)
    via_greedy = continuous_decode(
        HistoryStubModel(), [(source, GreedyStrategy()) for source in sources],
        max_length=max_length)
    per_source = [greedy_decode(HistoryStubModel(), source, **DECODE,
                                max_length=max_length) for source in sources]
    assert via_beam == via_greedy == per_source
    assert [beam_search_decode(HistoryStubModel(), source, **DECODE,
                               beam_size=1, max_length=max_length,
                               length_penalty=length_penalty)
            for source in sources] == per_source


# ---------------------------------------------------- continuous-batch corners


def test_empty_source_inside_a_batch():
    sources = [[3, 4], [], [5, 6, 7], []]
    batched = continuous_beam(HistoryStubModel(), sources, beam_size=3,
                              max_length=8)
    assert batched[1] == [] and batched[3] == []
    assert batched == sequential_beam(HistoryStubModel, sources, **DECODE,
                                      beam_size=3, max_length=8)


def test_batch_of_one_and_empty_batch():
    assert continuous_beam(HistoryStubModel(), [], beam_size=3,
                           max_length=8) == []
    single = continuous_beam(HistoryStubModel(), [[4, 5, 6]], beam_size=3,
                             max_length=8)
    assert single == [beam_search_decode(HistoryStubModel(), [4, 5, 6], **DECODE,
                                         beam_size=3, max_length=8)]


def test_all_rows_eos_at_step_zero():
    sources = [[3], [4, 5], [6, 7, 8]]
    jobs = [(sources[0], GreedyStrategy()),
            (sources[1], BeamStrategy(beam_size=3)),
            (sources[2], SampleStrategy(seed=5))]
    batched = continuous_decode(HistoryStubModel(eos_at_step0=True), jobs,
                                max_length=8)
    assert batched == [[], [], []]
    assert batched == [strategy.decode(HistoryStubModel(eos_at_step0=True),
                                       source, **DECODE, max_length=8)
                       for source, strategy in jobs]


def test_max_length_truncates_mid_beam():
    """No hypothesis ever finishes: every beam is cut at exactly max_length."""
    kwargs = dict(beam_size=3, max_length=5, length_penalty=0.6)
    sources = [[3, 4, 5], [6], [7, 8, 9, 10]]
    batched = continuous_beam(HistoryStubModel(never_eos=True), sources,
                              **kwargs)
    assert all(len(out) == 5 for out in batched)
    assert EOS not in {token for out in batched for token in out}
    assert batched == sequential_beam(lambda: HistoryStubModel(never_eos=True),
                                      sources, **DECODE, **kwargs)


def test_tie_breaking_is_deterministic_across_runs():
    """Tie-rich logits, repeated runs on fresh models: bit-identical outputs."""
    sources = [[3, 4, 5], [6, 6], [7]]
    kwargs = dict(beam_size=4, max_length=7, length_penalty=0.6)
    runs = [continuous_beam(HistoryStubModel(), sources, **kwargs)
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    sequential_runs = [sequential_beam(HistoryStubModel, sources, **DECODE,
                                       **kwargs)
                       for _ in range(3)]
    assert sequential_runs[0] == sequential_runs[1] == runs[0]


def test_exact_ties_resolve_to_the_lowest_token_id():
    """Uniform logits make *every* candidate tie; the documented order
    (score desc, then token id asc, then parent rank asc) must fully decide
    the result: the best hypothesis repeats the lowest generatable token."""
    kwargs = dict(beam_size=3, max_length=4, length_penalty=0.0)
    model = HistoryStubModel(uniform=True, never_eos=True)
    out = beam_search_decode(model, [5, 6], **DECODE, **kwargs)
    assert out == [3, 3, 3, 3]
    batched = continuous_beam(HistoryStubModel(uniform=True, never_eos=True),
                              [[5, 6], [7]], **kwargs)
    assert batched == [[3, 3, 3, 3], [3, 3, 3, 3]]


# --------------------------------------------------------------- real model


@pytest.fixture(scope="module")
def beam_sources(small_dataset, pi_source):
    programs = [ex.source_code for ex in small_dataset.splits.test[:4]]
    return programs + [pi_source, "", programs[0]]


def _real_decode_ids(tiny_model):
    vocab = tiny_model.encoder.vocab
    return dict(sos_id=vocab.sos_id, eos_id=vocab.eos_id, pad_id=vocab.pad_id)


def test_real_model_beam_batch_matches_sequential(tiny_model, beam_sources):
    ids = _real_decode_ids(tiny_model)
    encoded = [tiny_model.encoder.encode_source(src) for src in beam_sources]
    kwargs = dict(beam_size=3, max_length=40, length_penalty=0.6)
    expected = [beam_search_decode(tiny_model.model, source, **ids, **kwargs)
                for source in encoded]
    strategy = BeamStrategy(beam_size=3, length_penalty=0.6)
    batched = continuous_decode(tiny_model.model,
                                [(source, strategy) for source in encoded],
                                max_length=40, **ids)
    assert batched == expected


def test_real_model_beam_batch_no_length_penalty(tiny_model, beam_sources):
    ids = _real_decode_ids(tiny_model)
    encoded = [tiny_model.encoder.encode_source(src) for src in beam_sources[:4]]
    expected = [beam_search_decode(tiny_model.model, source, **ids,
                                   beam_size=2, max_length=32,
                                   length_penalty=0.0)
                for source in encoded]
    strategy = BeamStrategy(beam_size=2, length_penalty=0.0)
    # Four beam-2 requests through a 4-row batch: two wait for retires.
    batched = continuous_decode(tiny_model.model,
                                [(source, strategy) for source in encoded],
                                max_rows=4, max_length=32, **ids)
    assert batched == expected


def test_pipeline_beam_batch_matches_per_example(tiny_model, beam_sources):
    """Beam requests through the threaded scheduler, packaged by the
    pipeline, ≡ per-example ``predict_code`` (tokens, code, suggestions)."""
    strategy = BeamStrategy(beam_size=3, length_penalty=0.6)
    batched = scheduled_predictions(tiny_model, beam_sources, strategy,
                                    max_length=40)
    for source, result in zip(beam_sources, batched):
        single = tiny_model.predict_code(source, strategy=strategy,
                                         max_length=40)
        assert result.generated_tokens == single.generated_tokens
        assert result.generated_code == single.generated_code
        assert result.suggestions == single.suggestions


# ---------------------------------------- continuous batching ≡ sequential

STRATEGY_POOL = [
    GreedyStrategy(),
    BeamStrategy(beam_size=2, length_penalty=0.6),
    BeamStrategy(beam_size=3, length_penalty=0.0),
    SampleStrategy(temperature=0.9, top_k=5, seed=17),
    SampleStrategy(temperature=1.1, top_p=0.8, seed=4),
]


@st.composite
def continuous_jobs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    jobs = [(draw(st.lists(st.integers(min_value=3, max_value=VOCAB - 1),
                           min_size=0, max_size=8)),
             draw(st.sampled_from(STRATEGY_POOL)))
            for _ in range(n)]
    arrivals = sorted(draw(st.integers(min_value=0, max_value=6))
                      for _ in range(n))
    return jobs, arrivals


@settings(max_examples=40, deadline=None)
@given(spec=continuous_jobs(),
       max_rows=st.integers(min_value=1, max_value=5),
       max_length=st.integers(min_value=1, max_value=9))
def test_continuous_matches_sequential_on_stub(spec, max_rows, max_length):
    """Staggered joins/retires under a row-capacity limit never perturb any
    request: every output equals its *sequential* decode bit-for-bit —
    empty sources (answered without joining) and beams wider than the
    whole batch (admitted alone once it drains) included."""
    jobs, arrivals = spec
    expected = [strategy.decode(HistoryStubModel(), source, **DECODE,
                                max_length=max_length)
                for source, strategy in jobs]
    got = continuous_decode(HistoryStubModel(), jobs, arrivals=arrivals,
                            max_rows=max_rows, max_length=max_length)
    assert got == expected


def test_continuous_retire_then_join_reuses_compacted_rows():
    """A joiner that lands in rows vacated by a retired request still decodes
    exactly its sequential output (the compaction left no residue)."""
    jobs = [([3, 4], GreedyStrategy()),
            ([5, 6, 7], BeamStrategy(beam_size=3, length_penalty=0.6)),
            ([8, 9], GreedyStrategy()),
            ([10, 4, 6], BeamStrategy(beam_size=2, length_penalty=0.0))]
    arrivals = [0, 0, 4, 6]  # late arrivals join after earlier retires
    expected = [strategy.decode(HistoryStubModel(), source, **DECODE,
                                max_length=6)
                for source, strategy in jobs]
    got = continuous_decode(HistoryStubModel(), jobs, arrivals=arrivals,
                            max_rows=4, max_length=6)
    assert got == expected


def test_continuous_never_eos_truncates_each_row_at_its_own_max_length():
    model_factory = lambda: HistoryStubModel(never_eos=True)
    jobs = [([3, 4, 5], GreedyStrategy()),
            ([6], BeamStrategy(beam_size=2, length_penalty=0.6)),
            ([7, 8], GreedyStrategy())]
    expected = [strategy.decode(model_factory(), source, **DECODE,
                                max_length=5)
                for source, strategy in jobs]
    got = continuous_decode(model_factory(), jobs, arrivals=[0, 1, 2],
                            max_rows=3, max_length=5)
    assert got == expected
    assert all(len(out) == 5 for out in got)


def test_continuous_real_model_mixed_strategies(tiny_model, beam_sources):
    """Real transformer: greedy, beam and seed-pinned sampling requests join
    a capacity-limited batch at staggered steps; every request's tokens are
    bitwise its sequential decode.  The empty program is answered without
    joining, and the beam-6 request — wider than the 5-row batch — is
    admitted alone once the batch has drained."""
    ids = _real_decode_ids(tiny_model)
    encoded = [tiny_model.encoder.encode_source(src) for src in beam_sources]
    strategies = [GreedyStrategy(),
                  BeamStrategy(beam_size=3, length_penalty=0.6),
                  SampleStrategy(temperature=0.8, top_k=8, seed=11),
                  BeamStrategy(beam_size=2, length_penalty=0.0),
                  GreedyStrategy(),
                  SampleStrategy(temperature=1.2, top_p=0.9, seed=3),
                  BeamStrategy(beam_size=6, length_penalty=0.6)]
    jobs = list(zip(encoded, strategies))
    expected = [strategy.decode(tiny_model.model, source, **ids, max_length=24)
                for source, strategy in jobs]
    got = continuous_decode(tiny_model.model, jobs,
                            arrivals=[2 * i for i in range(len(jobs))],
                            max_rows=5, max_length=24, **ids)
    assert got == expected
