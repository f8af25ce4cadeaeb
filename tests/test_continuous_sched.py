"""repro.serving.sched: the continuous-batching scheduler.

Three layers, mirroring the module's own layering:

* :class:`ContinuousDecoderLoop` structure — the memoised cross-attention
  mask is rebuilt (fresh identity) on *every* row-composition change, the
  regression behind iteration-level joins (a mask memo keyed on shape alone
  would serve row 2's padding to whoever occupies row 2 next);
* :class:`InflightBatch` semantics — slot offsets under mid-deck retires,
  misbehaving strategy states are contained as errors, finished slots come
  back unresolved;
* :class:`ContinuousScheduler` — futures contract, FIFO fill-to-capacity
  with the anti-starvation guard, drain-then-switch across models,
  backpressure, poison-and-recover, clean close; then the
  :class:`InferenceService` wiring (the scheduler is the one decode path:
  a beam wider than the batch decodes alone and exactly, a full admission
  queue answers 429 ``queue_full`` on every surface) and the router's
  pool-wide view.

The *exactness* of continuous decoding (staggered joins ≡ sequential,
bitwise) is pinned down in ``tests/test_decoding_differential.py``; these
tests pin down the scheduling machinery around it.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.model.attention import KVCache, padding_mask
from repro.model.decoding import (
    BeamStrategy,
    DecodingStrategy,
    GreedyRowState,
    GreedyStrategy,
    SampleStrategy,
)
from repro.model.generation import ContinuousDecoderLoop
from repro.serving import Metrics
from repro.serving.sched import (
    ContinuousScheduler,
    InflightBatch,
    QueueFullError,
    SchedulerPolicy,
    SchedWork,
)

PAD, SOS, EOS = 0, 1, 2
VOCAB = 12


# ------------------------------------------------------------------ stubs


class StubModel:
    """Deterministic dual-protocol decoder (scalar position or per-row
    ``positions``) whose state lives in a real KV cache.

    Logits are a function of the row's un-padded source, its own step index
    and its full fed-token history, so any cross-row leak or mis-compacted
    cache changes the output immediately.  A row reaches EOS after
    ``2 + sum(source) % 3`` steps — unless its source contains the token
    ``11``, which never ends (``max_length`` territory).
    """

    vocab_size = VOCAB

    def encode(self, source_ids, pad_id, *, training=False):
        return source_ids

    def start_decoding(self):
        return SimpleNamespace(position=0, self_caches=[KVCache()],
                               cross_caches=[])

    def decode_step(self, token_ids, memory, source_ids, pad_id, state):
        fed = token_ids[:, None, :, None].astype(np.float64)
        keys, _ = state.self_caches[0].append(fed, fed)
        history = keys[:, 0, :, 0].sum(axis=1)
        positions = getattr(state, "positions", None)
        batch = source_ids.shape[0]
        logits = np.full((batch, self.vocab_size), -50.0)
        for row in range(batch):
            pos = (int(positions[row]) if positions is not None
                   else state.position)
            real = [int(t) for t in source_ids[row] if int(t) != pad_id]
            mix = sum(real) + int(history[row]) * 3 + pos * 2
            for token in range(3, self.vocab_size):
                logits[row, token] = float((mix + token) % 5)
            if 11 not in real and pos >= 2 + sum(real) % 3:
                logits[row, EOS] = 99.0
        if positions is not None:
            positions += token_ids.shape[1]
        else:
            state.position += 1
        return logits


class StubPipeline:
    """Duck-typed stand-in for the MPI-RICAL pipeline the scheduler drives:
    sources are whitespace-separated token ids, packaging just pairs them."""

    def __init__(self, model=None) -> None:
        self.model = model or StubModel()
        self.encoder = SimpleNamespace(
            vocab=SimpleNamespace(pad_id=PAD, sos_id=SOS, eos_id=EOS))

    def encode_source_ids(self, source_code, xsbt=None, tokens=None):
        return [int(token) for token in source_code.split()]

    def package_prediction(self, source_code, generated_ids):
        return (source_code, tuple(generated_ids))


class StubEntry:
    def __init__(self, pipeline=None, identity="stub@0") -> None:
        self.pipeline = pipeline or StubPipeline()
        self.identity = identity

    def ensure_loaded(self):
        return self.pipeline


def make_work(source, strategy=None, *, entry=None, max_length=10, **kwargs):
    return SchedWork(source_code=source, xsbt=None, tokens=None,
                     strategy=strategy or GreedyStrategy(),
                     entry=entry or StubEntry(), max_length=max_length,
                     **kwargs)


def sequential(source, strategy=None, *, model=None, max_length=10):
    """The reference result ``package_prediction`` shape for ``source``."""
    strategy = strategy or GreedyStrategy()
    ids = strategy.decode(model or StubModel(),
                          [int(t) for t in source.split()],
                          sos_id=SOS, eos_id=EOS, pad_id=PAD,
                          max_length=max_length)
    return (source, tuple(ids))


class _Work:
    future = None


# ------------------------------------- loop: mask follows row composition


def test_memory_mask_is_rebuilt_on_every_row_composition_change():
    """Regression: the decode step memoises the cross-attention mask on the
    source matrix's identity, so the loop must hand it a *fresh* matrix and
    mask whenever rows join or retire — reusing either would serve a stale
    row's padding to whoever sits in that row next."""
    loop = ContinuousDecoderLoop(StubModel(), pad_id=PAD)
    loop.join([3, 4, 5])
    first_src, first_mask = loop.state.memory_mask_source, loop.state.memory_mask
    assert first_src is loop.src
    np.testing.assert_array_equal(first_mask, padding_mask(loop.src, PAD))

    loop.join([6])  # narrower source: row 1 is padded to width 3
    assert loop.state.memory_mask_source is not first_src
    assert loop.state.memory_mask is not first_mask
    np.testing.assert_array_equal(loop.state.memory_mask,
                                  padding_mask(loop.src, PAD))
    assert loop.src.shape == (2, 3)
    assert bool(loop.state.memory_mask[1].any())  # row 1's padding masked

    loop.retire(0)  # the wide row leaves; the matrix re-narrows
    assert loop.src.shape == (1, 1)
    assert not loop.state.memory_mask.any()
    assert loop.state.memory_mask_source is loop.src

    loop.retire(0)
    assert loop.state.memory_mask is None
    assert loop.state.memory_mask_source is None


def test_loop_rejects_empty_sources_and_bad_row_counts():
    loop = ContinuousDecoderLoop(StubModel(), pad_id=PAD)
    with pytest.raises(ValueError, match="empty source"):
        loop.join([])
    with pytest.raises(ValueError, match="rows must be"):
        loop.join([3], rows=0)
    with pytest.raises(RuntimeError, match="no live rows"):
        loop.step(np.zeros((0, 1), dtype=np.int64))
    loop.join([3, 4])
    with pytest.raises(ValueError, match="cannot retire"):
        loop.retire(1, rows=2)


# ------------------------------------------------- InflightBatch semantics


def test_slot_offsets_renumber_after_a_mid_deck_retire():
    batch = InflightBatch(StubModel(), sos_id=SOS, eos_id=EOS, pad_id=PAD)
    # sum(source) % 3 staggers the EOS steps: 4 finishes first (sum 4 -> 3
    # steps), the beam and the last greedy run longer.
    greedy_state = GreedyStrategy().row_state(sos_id=SOS, eos_id=EOS,
                                              max_length=10)
    beam_state = BeamStrategy(beam_size=2).row_state(sos_id=SOS, eos_id=EOS,
                                                     max_length=10)
    tail_state = GreedyStrategy().row_state(sos_id=SOS, eos_id=EOS,
                                            max_length=10)
    batch.add(_Work(), greedy_state, [4])
    batch.add(_Work(), beam_state, [3, 4])
    batch.add(_Work(), tail_state, [5, 6])
    assert [slot.start for slot in batch.slots] == [0, 1, 3]
    assert batch.num_rows == 4

    finished = []
    for _ in range(30):
        finished += batch.step()
        if not batch.num_rows:
            break
        # Offsets stay contiguous and row-aligned after every retire.
        offset = 0
        for slot in batch.slots:
            assert slot.start == offset
            offset += slot.state.rows
        assert offset == batch.num_rows == len(batch._feed)
    assert len(finished) == 3
    # Every request still matches its sequential decode.
    assert tuple(greedy_state.result()) == sequential("4")[1]
    assert tuple(beam_state.result()) == sequential(
        "3 4", BeamStrategy(beam_size=2))[1]
    assert tuple(tail_state.result()) == sequential("5 6")[1]


def test_step_returns_finished_slots_unresolved():
    batch = InflightBatch(StubModel(), sos_id=SOS, eos_id=EOS, pad_id=PAD)
    work = make_work("4")
    state = GreedyStrategy().row_state(sos_id=SOS, eos_id=EOS, max_length=10)
    batch.add(work, state, [4])
    finished = []
    while batch.num_rows:
        finished += batch.step()
    assert [slot.work for slot in finished] == [work]
    assert not work.future.done()  # resolution is the scheduler's job


class _WrongCountState(GreedyRowState):
    def advance(self, logits):
        return [3, 3], None  # two tokens for one row


class _EscapingParentsState(GreedyRowState):
    rows = 2

    def first_tokens(self):
        return [SOS, SOS]

    def advance(self, logits):
        return [3, 3], [0, 2]  # parent 2 is outside this block


def test_misbehaving_states_raise_instead_of_corrupting_neighbours():
    batch = InflightBatch(StubModel(), sos_id=SOS, eos_id=EOS, pad_id=PAD)
    batch.add(_Work(), _WrongCountState(sos_id=SOS, eos_id=EOS), [3])
    with pytest.raises(RuntimeError, match="fed 2 tokens"):
        batch.step()

    batch = InflightBatch(StubModel(), sos_id=SOS, eos_id=EOS, pad_id=PAD)
    batch.add(_Work(), _EscapingParentsState(sos_id=SOS, eos_id=EOS), [3, 4])
    with pytest.raises(RuntimeError, match="escaped the row block"):
        batch.step()


# ------------------------------------------------------- scheduler: futures


def test_scheduler_resolves_futures_to_sequential_results():
    jobs = [("3 4 5", GreedyStrategy()),
            ("6 7", BeamStrategy(beam_size=3, length_penalty=0.6)),
            ("8", SampleStrategy(temperature=0.9, top_k=4, seed=7)),
            ("9 10 3", GreedyStrategy())]
    with ContinuousScheduler(policy=SchedulerPolicy(max_rows=4)) as sched:
        futures = [sched.submit(make_work(source, strategy))
                   for source, strategy in jobs]
        results = [future.result(timeout=30) for future in futures]
    assert results == [sequential(source, strategy)
                       for source, strategy in jobs]


def test_scheduler_answers_empty_sources_without_decoding():
    with ContinuousScheduler() as sched:
        future = sched.submit(make_work(""))
        assert future.result(timeout=30) == ("", ())


def test_streaming_tokens_arrive_per_iteration():
    tokens: list[int] = []
    with ContinuousScheduler() as sched:
        future = sched.submit(make_work("3 4 5", on_token=tokens.append))
        result = future.result(timeout=30)
    assert tuple(tokens) == result[1] == sequential("3 4 5")[1]


class _NoRowStrategy(DecodingStrategy):
    name = "norow"

    def canonical(self) -> str:
        return "norow"


def test_unsupported_strategy_fails_alone_and_oversized_beam_decodes_alone():
    """An unsupported strategy fails its own future; a beam wider than the
    whole batch is admitted alone once the batch drains and decodes exactly
    its sequential result, and neither disturbs the requests around it."""
    beam4 = BeamStrategy(beam_size=4)
    with ContinuousScheduler(policy=SchedulerPolicy(max_rows=2)) as sched:
        unsupported = sched.submit(make_work("3", _NoRowStrategy()))
        before = sched.submit(make_work("5 6"))
        oversized = sched.submit(make_work("3 4 5", beam4))
        survivor = sched.submit(make_work("3 4"))
        with pytest.raises(NotImplementedError, match="continuous batching"):
            unsupported.result(timeout=30)
        assert oversized.result(timeout=30) == sequential("3 4 5", beam4)
        assert before.result(timeout=30) == sequential("5 6")
        assert survivor.result(timeout=30) == sequential("3 4")


def test_oversized_head_waits_for_an_empty_batch_then_joins_alone():
    """Unit-drive the admission pass: a beam wider than ``max_rows`` never
    joins a busy batch, and joins an empty one with nothing beside it."""
    sched = ContinuousScheduler(policy=SchedulerPolicy(max_rows=2))
    sched.close(wait=True)  # worker gone; we drive passes by hand
    sched._closed = False
    entry = StubEntry()
    wide = make_work("3", BeamStrategy(beam_size=3), entry=entry)
    sched._batch = SimpleNamespace(num_requests=1, num_rows=1)
    sched._identity = entry.identity
    sched._queue.extend([wide, make_work("4", entry=entry)])
    assert [w.source_code for w in _drain_pass(sched)] == ["4"]
    sched._batch = SimpleNamespace(num_requests=0, num_rows=0)
    sched._queue.append(make_work("5", entry=entry))
    assert _drain_pass(sched) == [wide]
    assert [w.source_code for w in sched._queue] == ["5"]


@pytest.mark.parametrize("bounds", [dict(max_rows=0), dict(max_queue=0),
                                    dict(starvation_limit=0)])
def test_policy_rejects_non_positive_bounds(bounds):
    with pytest.raises(ValueError, match=next(iter(bounds))):
        SchedulerPolicy(**bounds)


def test_submit_after_close_raises_and_close_drains_accepted_work():
    sched = ContinuousScheduler()
    futures = [sched.submit(make_work(f"{3 + n} 4")) for n in range(5)]
    sched.close(wait=True)
    assert all(future.done() for future in futures)
    assert [f.result() for f in futures] == [sequential(f"{3 + n} 4")
                                             for n in range(5)]
    with pytest.raises(RuntimeError, match="closed"):
        sched.submit(make_work("3"))


# -------------------------------------------------- scheduler: backpressure


class _GateModel(StubModel):
    """Blocks the worker inside its first decode step until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.gate = threading.Event()

    def decode_step(self, *args, **kwargs):
        self.entered.set()
        assert self.gate.wait(timeout=30)
        return super().decode_step(*args, **kwargs)


def test_queue_full_raises_while_the_worker_is_busy():
    model = _GateModel()
    entry = StubEntry(StubPipeline(model))
    sched = ContinuousScheduler(policy=SchedulerPolicy(max_rows=1,
                                                       max_queue=1))
    try:
        first = sched.submit(make_work("3 11", entry=entry))
        assert model.entered.wait(timeout=30)  # worker is mid-step
        queued = sched.submit(make_work("4", entry=entry))
        with pytest.raises(QueueFullError):
            sched.submit(make_work("5", entry=entry))
        model.gate.set()
        assert first.result(timeout=30) == sequential(
            "3 11", model=StubModel())
        assert queued.result(timeout=30) == sequential(
            "4", model=StubModel())
    finally:
        model.gate.set()
        sched.close()


# ----------------------------------------------- scheduler: poison/recover


class _BoomState(GreedyRowState):
    def advance(self, logits):
        if self.steps >= 1:
            raise RuntimeError("boom at step 2")
        self.steps += 1
        return [3], None


class _BoomStrategy(GreedyStrategy):
    def row_state(self, **kwargs):
        return _BoomState(**kwargs)


def test_failed_step_poisons_in_flight_requests_but_not_the_scheduler():
    model = _GateModel()
    entry = StubEntry(StubPipeline(model))
    with ContinuousScheduler(policy=SchedulerPolicy(max_rows=4)) as sched:
        boom = sched.submit(make_work("3", _BoomStrategy(), entry=entry))
        # The gate holds the worker inside boom's first step, so the
        # bystander is provably queued before the step that explodes —
        # a never-ending source keeps it in flight when boom fires.
        assert model.entered.wait(timeout=30)
        bystander = sched.submit(make_work("4 11", entry=entry,
                                           max_length=400))
        model.gate.set()
        with pytest.raises(RuntimeError, match="boom at step 2"):
            boom.result(timeout=30)
        with pytest.raises(RuntimeError, match="boom at step 2"):
            bystander.result(timeout=30)
        # The batch was rebuilt: later submissions decode normally.
        after = sched.submit(make_work("5 6", entry=entry))
        assert after.result(timeout=30) == sequential("5 6")


# ------------------------------------- scheduler: fairness and model switch


def _drain_pass(sched):
    with sched._cond:
        return sched._drain_admissible()


def test_head_starvation_guard_holds_rows_for_the_blocked_head():
    """Unit-drive the admission policy (worker stopped): a wide head is
    bypassed at most ``starvation_limit`` passes, then the queue freezes
    until the batch drains enough for it."""
    metrics = Metrics()
    sched = ContinuousScheduler(
        policy=SchedulerPolicy(max_rows=2, starvation_limit=3),
        metrics=metrics)
    sched.close(wait=True)  # worker gone; we drive passes by hand
    sched._closed = False   # reopen the queue for the hand-driven test
    entry = StubEntry()
    head = make_work("3", BeamStrategy(beam_size=2), entry=entry)
    # A busy batch leaves one free row, so the beam-2 head never fits.
    sched._batch = SimpleNamespace(num_requests=1, num_rows=1)
    sched._identity = entry.identity

    for bypass in range(3):
        sched._queue.clear()
        sched._queue.extend([head, make_work("4", entry=entry)])
        admitted = _drain_pass(sched)
        assert [work.source_code for work in admitted] == ["4"]
        assert sched._head_bypassed == bypass + 1
    assert not sched._head_starved

    # The limit is reached: nothing jumps the head any more.
    sched._queue.clear()
    sched._queue.extend([head, make_work("4", entry=entry)])
    assert _drain_pass(sched) == []
    assert sched._head_starved
    assert metrics.snapshot()["sched_starvation_total"] == 1
    assert _drain_pass(sched) == []  # starvation is recorded once, not per pass
    assert metrics.snapshot()["sched_starvation_total"] == 1

    # The batch drains; the head (and its follower) finally join.
    sched._batch = SimpleNamespace(num_requests=0, num_rows=0)
    admitted = _drain_pass(sched)
    assert admitted[0] is head
    assert not sched._head_starved and sched._head_bypassed == 0


def test_model_switch_drains_then_switches():
    entry_a = StubEntry(identity="model-a@0")
    entry_b = StubEntry(identity="model-b@0")
    with ContinuousScheduler(policy=SchedulerPolicy(max_rows=4)) as sched:
        futures = [sched.submit(make_work("3 11", entry=entry_a, max_length=6)),
                   sched.submit(make_work("4 5", entry=entry_b)),
                   sched.submit(make_work("6", entry=entry_a, max_length=6))]
        results = [future.result(timeout=30) for future in futures]
    assert results == [sequential("3 11", max_length=6),
                       sequential("4 5"),
                       sequential("6", max_length=6)]


def test_idle_waiting_for_retires_is_not_counted_as_starvation():
    """A head that waits only because the batch is full (nothing else could
    join either) must not trip the starvation guard."""
    sched = ContinuousScheduler(policy=SchedulerPolicy(max_rows=2,
                                                       starvation_limit=1))
    sched.close(wait=True)
    sched._closed = False
    entry = StubEntry()
    sched._batch = SimpleNamespace(num_requests=2, num_rows=2)  # no free rows
    sched._identity = entry.identity
    sched._queue.append(make_work("3", BeamStrategy(beam_size=2), entry=entry))
    for _ in range(5):
        assert _drain_pass(sched) == []
    assert sched._head_bypassed == 0 and not sched._head_starved


# -------------------------------------------------------- scheduler metrics


def test_scheduler_records_step_join_wait_and_batch_metrics():
    metrics = Metrics()
    with ContinuousScheduler(policy=SchedulerPolicy(max_rows=4),
                             metrics=metrics) as sched:
        futures = [sched.submit(make_work("3 4", GreedyStrategy())),
                   sched.submit(make_work("5", BeamStrategy(beam_size=2))),
                   sched.submit(make_work("6 7", GreedyStrategy()))]
        for future in futures:
            future.result(timeout=30)
    snapshot = metrics.snapshot()
    assert snapshot["sched_steps_total"] >= 1
    assert snapshot["sched_joins_total"] == 4  # 1 + 2 + 1 rows
    assert snapshot["sched_retires_total"] == 3
    assert snapshot["sched_occupancy_max"] <= 4
    assert snapshot["sched_occupancy_mean"] > 0
    assert snapshot["sched_queue_wait_window"] == 3
    assert snapshot["sched_queue_wait_ms_p95"] >= \
        snapshot["sched_queue_wait_ms_p50"] >= 0
    assert snapshot["sched_starvation_total"] == 0
    # Same-config join groups keep the batch dashboards populated.
    assert snapshot["batches_total"] >= 2
    assert "greedy" in snapshot["batches_by_config"]
    assert any(label.startswith("beam2")
               for label in snapshot["batches_by_config"])
    assert snapshot["decode_latency_window"] == 3


# ----------------------------------------------------- service integration


from repro.api import AdviseRequest  # noqa: E402  (section-local imports)
from repro.serving import InferenceService  # noqa: E402
from repro.serving.router import Router, RouterPolicy  # noqa: E402
from repro.serving.server import make_server  # noqa: E402

FAST = 40


@pytest.fixture(scope="module")
def continuous_service(tiny_model):
    with InferenceService(tiny_model, max_batch_size=4, cache_capacity=32,
                          max_length=FAST) as svc:
        yield svc


def test_service_defaults_to_continuous_and_exposes_sched_gauges(
        continuous_service, small_dataset):
    sources = [ex.source_code for ex in small_dataset.splits.test[:3]]
    futures = [continuous_service.advise_request_async(AdviseRequest(code=src))
               for src in sources]
    for future in futures:
        future.result(timeout=120)
    snapshot = continuous_service.metrics()
    assert snapshot["max_batch_size"] == 4
    assert "scheduler" not in snapshot and "max_wait_ms" not in snapshot
    assert snapshot["sched_steps_total"] >= 1
    assert snapshot["sched_joins_total"] >= 3
    assert snapshot["sched_retires_total"] >= 3
    assert snapshot["sched_occupancy_mean"] > 0
    assert snapshot["sched_queue_wait_ms_p95"] >= 0
    assert snapshot["sched_starvation_total"] == 0


def test_beam_wider_than_the_batch_equals_beam_search_decode(tiny_model,
                                                            small_dataset):
    """beam_size=16 (the API maximum) on a max_batch_size=8 service decodes
    alone at 16 rows through the scheduler, bitwise the sequential beam."""
    from repro.model.generation import beam_search_decode

    source = small_dataset.splits.test[4].source_code
    strategy = BeamStrategy(beam_size=16, length_penalty=0.6)
    with InferenceService(tiny_model, max_batch_size=8, cache_capacity=0,
                          max_length=FAST) as svc:
        served = svc.advise_request(AdviseRequest(code=source,
                                                  strategy=strategy),
                                    timeout=300)
        assert svc.metrics()["sched_occupancy_max"] == 16
    vocab = tiny_model.encoder.vocab
    ids = beam_search_decode(tiny_model.model,
                             tiny_model.encode_source_ids(source),
                             sos_id=vocab.sos_id, eos_id=vocab.eos_id,
                             pad_id=vocab.pad_id, beam_size=16,
                             max_length=FAST, length_penalty=0.6)
    expected = tiny_model.package_prediction(source, ids)
    assert served.generated_code == expected.generated_code


def test_full_queue_answers_429_queue_full_everywhere(tiny_model,
                                                     small_dataset,
                                                     monkeypatch):
    """A full admission queue is the contract's 429 ``queue_full`` (with
    Retry-After) on /v1/advise, the item envelope in a batch job, and the
    structured error chunk on a stream — never a silent second engine."""
    import json
    import urllib.error
    import urllib.request

    def full(work):
        raise QueueFullError("scheduler queue is full (1)")

    service = InferenceService(tiny_model, cache_capacity=0, max_length=FAST)
    monkeypatch.setattr(service.sched, "submit", full)
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://{host}:{port}"
    source = small_dataset.splits.test[7].source_code
    body = json.dumps({"code": source}).encode()
    try:
        request = urllib.request.Request(
            f"{url}/v1/advise", data=body,
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=60)
        assert caught.value.code == 429
        assert caught.value.headers["Retry-After"] == "1"
        assert json.loads(caught.value.read())["error"]["code"] == "queue_full"

        job = service.submit_job([AdviseRequest(code=source)])
        assert job.wait(timeout=60)
        (item,) = job.to_dict()["results"]
        assert item["status"] == "error"
        assert item["error"]["code"] == "queue_full"

        request = urllib.request.Request(
            f"{url}/v1/advise/stream", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as response:
            lines = [json.loads(line) for line in response.read().splitlines()]
        assert lines[-1]["type"] == "error"
        assert lines[-1]["error"]["code"] == "queue_full"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_stream_rides_the_shared_continuous_batch(continuous_service,
                                                  small_dataset):
    source = small_dataset.splits.test[5].source_code
    steps_before = continuous_service.metrics()["sched_steps_total"]
    chunks = list(continuous_service.advise_stream(
        AdviseRequest(code=source)))
    assert chunks[-1]["type"] == "final"
    tokens = [chunk for chunk in chunks[:-1] if chunk["type"] == "token"]
    blocking = continuous_service.advise_request(AdviseRequest(code=source),
                                                 timeout=120)
    generated = blocking.generated_code
    if generated:
        assert tokens  # a non-empty generation streamed token chunks
    # The stream decoded through the scheduler, not a dedicated decode.
    assert continuous_service.metrics()["sched_steps_total"] > steps_before


# ------------------------------------------------------------------- router


def test_router_aggregates_pool_sched_gauges(tiny_model, small_dataset):
    service = InferenceService(tiny_model, cache_capacity=16,
                               max_length=FAST)
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        service.advise_request(
            AdviseRequest(code=small_dataset.splits.test[6].source_code),
            timeout=120)
        router = Router(endpoints=[("w0", host, port)],
                        policy=RouterPolicy(health_interval=0.0))
        sched = router.metrics_body()["sched"]
        assert sched["workers_reporting"] == 1
        assert sched["workers_unreachable"] == 0
        assert sched["sched_steps_total"] >= 1
        assert sched["sched_joins_total"] >= 1
        assert sched["sched_retires_total"] >= 1
        assert sched["sched_occupancy_mean"] > 0
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_router_sched_view_counts_unreachable_workers():
    router = Router(endpoints=[("w0", "127.0.0.1", 1)],
                    policy=RouterPolicy(health_interval=0.0))
    sched = router.metrics_body()["sched"]
    assert sched["sched_steps_total"] == 0
    assert sched["workers_reporting"] == 0
    assert sched["workers_unreachable"] == 1
