"""Continuous batching: an iteration-level scheduler with KV-row join/retire.

This is the serving layer's one decode path.  Scheduling at *request*
granularity — form a batch, decode it to completion, only then start the
next — wastes most of the decoder under mixed workloads: a batch of one
long and seven short requests spends the tail decoding a single row while
seven slots sit idle and new arrivals queue behind the whole batch.

This module schedules at *iteration* granularity (the continuous batching
of Orca, Yu et al., OSDI 2022, and of production LLM servers since):
between any two decode steps, finished requests **retire** out of the
in-flight batch and queued requests **join** it, so the batch stays full
whenever there is work.  The machinery that makes a mid-decode join exact
— per-row KV-cache lengths, per-row decode positions, join-time
cross-attention population — lives in
:class:`repro.model.generation.ContinuousDecoderLoop`; per-request decoding
strategies (greedy / beam / seeded sampling) ride along as
:class:`repro.model.decoding.RowDecodeState` machines, each consuming its
own block of the batched logits.  A request's output is therefore bitwise
identical to its sequential decode regardless of what joins or retires
around it (``tests/test_decoding_differential.py`` pins the property down).

Layering:

* :class:`InflightBatch` — the deterministic, thread-free core: a set of
  row blocks over one :class:`ContinuousDecoderLoop`, advanced one
  iteration at a time.  Differential tests drive it directly.
* :class:`ContinuousScheduler` — the threaded front: a bounded admission
  queue, a worker that fills the batch to capacity between steps
  (fairness-guarded — see :class:`SchedulerPolicy`), and a
  :class:`~concurrent.futures.Future`-based ``submit`` that
  :class:`repro.serving.service.InferenceService` puts behind its
  cache/single-flight path.

Batches need not share one decoding strategy: each request carries its own
row state, so a beam-4 request and a greedy request decode in the same
iteration.  One thing binds a batch: the model.  All rows attend one set of
weights, so requests for a different ``name@revision`` wait until the batch
drains (drain-then-switch), with the same starvation guard as wide
requests.  A beam wider than the whole batch (``beam_size > max_rows``)
is admitted alone once the batch has drained and decodes at its own
``beam_size`` rows, so every beam the API accepts is served.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from ..model.decoding import DecodingStrategy, RowDecodeState
from ..model.generation import ContinuousDecoderLoop
from .metrics import Metrics

#: ``on_token`` callback: called with each emitted token id as the request's
#: rows decode (beam replays the winner at retirement).
OnToken = Callable[[int], None]


@dataclass(frozen=True)
class SchedulerPolicy:
    """Admission policy knobs for :class:`ContinuousScheduler`.

    ``max_rows`` caps the in-flight batch (a beam-``k`` request occupies
    ``k`` rows; a request wider than ``max_rows`` runs alone).
    ``max_queue`` bounds the admission queue — beyond it, ``submit`` raises
    :class:`QueueFullError` so callers shed load instead of growing an
    unbounded backlog.  ``starvation_limit`` is the fairness
    guard: FIFO order is relaxed so smaller requests may jump a queue head
    that does not fit the free rows (fill-to-capacity), but after the head
    has been bypassed in ``starvation_limit`` consecutive scheduling passes
    the queue stops admitting anything else until the head fits — a wide
    beam request or a different-model request is delayed, never starved.
    """

    max_rows: int = 8
    max_queue: int = 256
    starvation_limit: int = 16

    def __post_init__(self) -> None:
        if self.max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.starvation_limit < 1:
            raise ValueError(
                f"starvation_limit must be >= 1, got {self.starvation_limit}")


class QueueFullError(RuntimeError):
    """The admission queue is at ``SchedulerPolicy.max_queue``."""


@dataclass
class SchedWork:
    """One decode request as the scheduler sees it.

    The service layer has already parsed/lexed the buffer and resolved the
    registry entry; the scheduler encodes, decodes and packages.  ``entry``
    is duck-typed: anything with ``identity`` and ``ensure_loaded()``
    returning a pipeline (tests pass lightweight stubs).
    """

    source_code: str
    xsbt: str | None
    tokens: list[str] | None
    strategy: DecodingStrategy
    entry: Any
    max_length: int
    on_token: OnToken | None = None
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Stamped at batch join; decode latency is measured join → retire.
    decode_started: float | None = None


class _Slot:
    """One admitted request inside the batch: its row block + state machine."""

    __slots__ = ("work", "state", "start")

    def __init__(self, work: SchedWork, state: RowDecodeState, start: int) -> None:
        self.work = work
        self.state = state
        self.start = start


class InflightBatch:
    """The deterministic continuous-batching core (no threads, no queue).

    Owns one :class:`ContinuousDecoderLoop` plus the per-request strategy
    state machines, and exposes exactly three moves — :meth:`add` a request
    between steps, :meth:`step` one iteration, and (inside ``step``) retire
    whoever finished.  The scheduler wraps this in a thread; differential
    tests drive it directly with scripted arrival schedules.
    """

    def __init__(self, model, *, sos_id: int, eos_id: int, pad_id: int) -> None:
        self.loop = ContinuousDecoderLoop(model, pad_id=pad_id)
        self.sos_id = sos_id
        self.eos_id = eos_id
        self.slots: list[_Slot] = []
        #: The token each live row feeds at the next step, kept in row order.
        self._feed: list[int] = []

    # ------------------------------------------------------------------- api

    @property
    def num_rows(self) -> int:
        return self.loop.num_rows

    @property
    def num_requests(self) -> int:
        return len(self.slots)

    def free_rows(self, max_rows: int) -> int:
        return max_rows - self.num_rows

    def add(self, work: SchedWork, state: RowDecodeState,
            source_ids: list[int]) -> None:
        """Join ``work`` (occupying ``state.rows`` rows) to the batch.

        Must be called between steps.  An empty source never reaches here:
        the scheduler answers those immediately (the sequential decoders'
        contract — nothing to attend over means an empty generation).
        """
        start = self.loop.join(source_ids, rows=state.rows)
        self.slots.append(_Slot(work, state, start))
        self._feed.extend(state.first_tokens())

    def step(self) -> list[_Slot]:
        """One iteration for every live row; returns the slots that finished.

        Each slot's state machine consumes its block of the batched logits
        (the blocks are independent — the row-independence property every
        batched ≡ sequential differential pins down), then beam blocks are
        re-gathered and finished blocks compacted out of the KV caches.
        Finished slots are returned *unresolved*; the caller packages the
        result and resolves the future (keeping this core free of any
        serving-layer types).
        """
        if not self.slots:
            return []
        tokens = np.asarray(self._feed, dtype=np.int64)[:, None]
        logits = self.loop.step(tokens)
        parents = np.arange(self.num_rows)
        reorder = False
        feed: list[int] = []
        for slot in self.slots:
            block = logits[slot.start:slot.start + slot.state.rows]
            next_tokens, block_parents = slot.state.advance(block)
            if len(next_tokens) != slot.state.rows:
                raise RuntimeError(
                    f"strategy fed {len(next_tokens)} tokens for "
                    f"{slot.state.rows} rows")
            feed.extend(next_tokens)
            if block_parents is not None:
                block_parents = np.asarray(block_parents)
                if ((block_parents < 0)
                        | (block_parents >= slot.state.rows)).any():
                    raise RuntimeError("beam parents escaped the row block")
                parents[slot.start:slot.start + slot.state.rows] = (
                    slot.start + block_parents)
                reorder = True
        if reorder:
            self.loop.reorder_rows(parents)
        self._feed = feed
        return self._retire_finished()

    # ------------------------------------------------------------- internals

    def _retire_finished(self) -> list[_Slot]:
        """Compact every finished slot out of the loop, highest row first
        (so earlier blocks' offsets stay valid while removing), then
        re-number the survivors' offsets."""
        finished = [slot for slot in self.slots if slot.state.finished]
        for slot in sorted(finished, key=lambda s: s.start, reverse=True):
            self.loop.retire(slot.start, slot.state.rows)
            del self._feed[slot.start:slot.start + slot.state.rows]
        if finished:
            self.slots = [slot for slot in self.slots
                          if not slot.state.finished]
            offset = 0
            for slot in self.slots:
                slot.start = offset
                offset += slot.state.rows
        return finished


class ContinuousScheduler:
    """Threaded continuous-batching front: queue in, futures out.

    One worker thread loops *admit → step → resolve*: between iterations it
    fills the in-flight batch to ``policy.max_rows`` from the admission
    queue (FIFO with the fill-to-capacity / anti-starvation relaxation —
    see :class:`SchedulerPolicy`), runs one decode iteration, and resolves
    the futures of whatever finished.

    Error containment: a failed **join** (encode raised) fails that request
    alone; a failed **step** poisons the whole in-flight batch — every
    in-flight future gets the exception and the loop is rebuilt fresh —
    but queued requests are unaffected and service resumes on the next
    pass.  ``close(wait=True)`` drains queue and batch, then stops.
    """

    def __init__(self, *, policy: SchedulerPolicy | None = None,
                 metrics: Metrics | None = None) -> None:
        self.policy = policy or SchedulerPolicy()
        self.metrics = metrics if metrics is not None else Metrics()
        self._m = self.bind_metrics(self.metrics)
        self._queue: deque[SchedWork] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._batch: InflightBatch | None = None
        self._identity: str | None = None
        #: Consecutive scheduling passes the current queue head has been
        #: unable to join (capacity or model mismatch) while others could.
        self._head_bypassed = 0
        self._head_starved = False
        self._worker = threading.Thread(target=self._run,
                                        name="continuous-sched", daemon=True)
        self._worker.start()

    @staticmethod
    def bind_metrics(metrics: Metrics) -> SimpleNamespace:
        """This scheduler's instruments on ``metrics``.  A batch is one
        same-config join group; occupancy is the rows a step decoded;
        queue wait is submit → join and decode latency join → retire."""
        return SimpleNamespace(
            batch_sizes=metrics.labelled("batch_size_histogram",
                                         total="batches_total"),
            by_config=metrics.labelled("batches_by_config"),
            batch_size=metrics.window("batch_size"),
            decode_ms=metrics.window("decode_latency_ms"),
            steps=metrics.counter("sched_steps_total"),
            joins=metrics.counter("sched_joins_total"),
            retires=metrics.counter("sched_retires_total"),
            starvation=metrics.counter("sched_starvation_total"),
            occupancy=metrics.window("sched_occupancy"),
            queue_wait_ms=metrics.window("sched_queue_wait_ms"))

    # ------------------------------------------------------------------- api

    def submit(self, work: SchedWork) -> Future:
        """Enqueue ``work``; the future resolves to its ``PredictionResult``.

        Raises :class:`QueueFullError` at ``policy.max_queue`` queued
        requests (backpressure) and ``RuntimeError`` after :meth:`close`.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError(
                    "cannot submit to a closed ContinuousScheduler")
            if len(self._queue) >= self.policy.max_queue:
                raise QueueFullError(
                    f"scheduler queue is full ({self.policy.max_queue})")
            self._queue.append(work)
            self._cond.notify_all()
        return work.future

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting requests; already-accepted work is still served."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if wait:
            self._worker.join()

    def __enter__(self) -> "ContinuousScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- internals

    def _run(self) -> None:
        while True:
            with self._cond:
                while (not self._closed and not self._queue
                       and (self._batch is None
                            or not self._batch.num_requests)):
                    self._cond.wait()
                if (self._closed and not self._queue
                        and (self._batch is None
                             or not self._batch.num_requests)):
                    return
                admitted = list(self._drain_admissible())
            joins = 0
            joined_by_config: Counter[str] = Counter()
            for work in admitted:
                rows = self._admit(work)
                joins += rows
                if rows:
                    joined_by_config[work.strategy.canonical()] += 1
            m = self._m
            for label, size in joined_by_config.items():
                m.batch_sizes.inc(size)
                m.batch_size.record(size)
                m.by_config.inc((label, "batches"))
                m.by_config.inc((label, "requests"), size)
                m.by_config.inc((label, "batch_size_histogram", size))
            batch = self._batch
            if batch is None or not batch.num_requests:
                continue
            try:
                finished = batch.step()
            except Exception as exc:  # noqa: BLE001 — poison the batch, keep serving
                self._poison(exc)
                continue
            m.steps.inc()
            m.joins.inc(joins)
            m.retires.inc(len(finished))
            # Occupancy is the rows the step decoded (before retires).
            m.occupancy.record(batch.num_rows + sum(
                slot.state.rows for slot in finished))
            for slot in finished:
                self._resolve(slot)

    def _drain_admissible(self) -> list[SchedWork]:
        """Pop the queued requests this pass will try to join (lock held).

        FIFO with fill-to-capacity: the head joins if its rows fit (and its
        model matches the in-flight batch); otherwise later, smaller
        requests may jump ahead — until the head has been bypassed
        ``starvation_limit`` passes in a row, after which nothing jumps and
        free rows are held for it (drain-to-fit / drain-then-switch).  A
        request wider than ``max_rows`` fits only an empty batch, and then
        joins alone.

        Row need is conservatively ``strategy.row_state().rows`` — computed
        without touching the model, so it is safe under the lock.
        """
        if self._batch is None or not self._batch.num_requests:
            # An empty batch re-anchors on the head: its model becomes the
            # batch identity and bypass bookkeeping restarts.
            self._identity = None
            self._head_bypassed = 0
            self._head_starved = False
        free = self.policy.max_rows - (
            self._batch.num_rows if self._batch else 0)
        admitted: list[SchedWork] = []
        head_blocked = False
        index = 0
        while index < len(self._queue) and free > 0:
            work = self._queue[index]
            try:
                rows = self._rows_needed(work)
            except Exception:  # noqa: BLE001 — _admit re-raises it properly
                # Unsupported strategy: pop it; _admit fails its future
                # (outside the lock) with the real error.
                del self._queue[index]
                admitted.append(work)
                continue
            alone = (rows > self.policy.max_rows and not admitted
                     and free == self.policy.max_rows)
            fits = (rows <= free or alone) and (
                self._identity is None
                or work.entry.identity == self._identity)
            if fits:
                if self._identity is None:
                    self._identity = work.entry.identity
                del self._queue[index]
                admitted.append(work)
                free -= rows
                if index == 0:
                    self._head_bypassed = 0
                    self._head_starved = False
                continue
            if index == 0:
                head_blocked = True
                if self._head_bypassed >= self.policy.starvation_limit:
                    if not self._head_starved:
                        self._head_starved = True
                        self._m.starvation.inc()
                    # Hold every free row for the head: admit nothing past it.
                    break
            index += 1
        if head_blocked and (admitted or (self._batch is not None
                                          and self._batch.num_requests)):
            # Only count a bypass when the pass made progress without the
            # head — an idle wait for retires is not starvation.
            self._head_bypassed += 1
        return admitted

    def _rows_needed(self, work: SchedWork) -> int:
        """Rows ``work`` will occupy — computed without touching the model
        (safe under the lock).  Raises ``NotImplementedError`` for a
        strategy without a per-row state machine."""
        return work.strategy.row_state(sos_id=0, eos_id=0).rows

    def _admit(self, work: SchedWork) -> int:
        """Join one popped request to the batch; returns rows joined (0 on
        an immediate answer or a failed join)."""
        try:
            self._rows_needed(work)  # re-raises the pop reason, if any
            mpirical = work.entry.ensure_loaded()
            vocab = mpirical.encoder.vocab
            source_ids = mpirical.encode_source_ids(work.source_code,
                                                    work.xsbt, work.tokens)
            state = work.strategy.row_state(
                sos_id=vocab.sos_id, eos_id=vocab.eos_id,
                max_length=work.max_length, on_token=work.on_token)
            if self._batch is None:
                self._batch = InflightBatch(
                    mpirical.model, sos_id=vocab.sos_id,
                    eos_id=vocab.eos_id, pad_id=vocab.pad_id)
            self._m.queue_wait_ms.record(
                (time.monotonic() - work.enqueued_at) * 1000.0)
            if not source_ids:
                # Nothing to attend over — the sequential decoders answer
                # these with an empty generation without decoding at all.
                _set_result(work.future,
                            mpirical.package_prediction(work.source_code, []))
                return 0
        except Exception as exc:  # noqa: BLE001 — a bad request fails alone
            _set_exception(work.future, exc)
            return 0
        work.decode_started = time.monotonic()
        try:
            self._batch.add(work, state, source_ids)
        except Exception as exc:  # noqa: BLE001 — a torn join poisons the batch
            # join() encodes before mutating anything, so the only failures
            # landing here are invariant violations that may have left the
            # loop partially mutated — decoding on would corrupt *other*
            # requests' rows.  Contain: fail everything in flight, rebuild.
            _set_exception(work.future, exc)
            self._poison(exc)
            return 0
        return state.rows

    def _resolve(self, slot: _Slot) -> None:
        """Package a finished request's ids and resolve its future."""
        work = slot.work
        try:
            started = getattr(work, "decode_started", work.enqueued_at)
            self._m.decode_ms.record((time.monotonic() - started) * 1000.0)
            result = work.entry.ensure_loaded().package_prediction(
                work.source_code, slot.state.result())
        except Exception as exc:  # noqa: BLE001 — surfaced to the caller
            _set_exception(work.future, exc)
            return
        _set_result(work.future, result)

    def _poison(self, exc: Exception) -> None:
        """A decode step died: fail every in-flight request, rebuild fresh."""
        batch = self._batch
        self._batch = None
        with self._cond:
            self._identity = None
            self._head_bypassed = 0
            self._head_starved = False
        if batch is not None:
            for slot in batch.slots:
                _set_exception(slot.work.future, exc)


def _set_result(future: Future, result: Any) -> None:
    try:
        future.set_result(result)
    except InvalidStateError:
        pass  # caller cancelled; nothing to deliver


def _set_exception(future: Future, exc: Exception) -> None:
    try:
        future.set_exception(exc)
    except InvalidStateError:
        pass  # caller cancelled; nothing to deliver
