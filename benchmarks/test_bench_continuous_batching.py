"""Continuous batching — tokens/s and TTFT vs. a sequential FIFO engine.

The baseline any batching scheduler has to beat is the plain server loop:
one decode worker that takes requests in arrival order and runs each
through its sequential decoder, streaming its tokens as it goes.  Under
load every arrival queues behind the whole backlog, so time-to-first-token
grows with the queue while the decoder only ever computes one row.  The
continuous scheduler (:mod:`repro.serving.sched`) schedules at *iteration*
granularity — finished requests retire and queued requests join between
any two decode steps — so the batch stays full whenever there is work, and
a request's first token streams out as soon as its own first step runs.

Engine-to-engine comparison under one seeded Poisson arrival process of
mixed short/long requests (mostly uniquely-seeded sampling — the natural
"give me a different suggestion" traffic — plus greedy and beam, each
request on its own ``max_length`` budget):

* **tokens/s** — total generated tokens over the first-arrival → last-retire
  wall; the acceptance bar is >= 1.3x the sequential FIFO engine.
* **p95 TTFT** — time from a request's arrival to its first streamed token
  (beam search replays its winner at the end on both engines); the bar is
  *strictly lower* p95.

After a warm-up run of each engine, the two engines run :data:`REPEATS`
interleaved times on fresh copies of the workload; the gates apply to the
median per-repeat tokens/s ratio and to the median p95 TTFT of each engine,
so one noisy-neighbour blip on a shared runner spoils a repeat, not a gate.

Both engines must decode every request bitwise-identical to its sequential
reference (the property ``tests/test_decoding_differential.py`` pins down);
that assertion runs in every profile.  ``REPRO_BENCH_SMOKE=1`` (the CI smoke
step) swaps the session-scoped bench model for a tiny self-trained one and
asserts only exactness and plumbing — timing gates run in the regular
benchmark profiles only.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.model.decoding import (BeamStrategy, GreedyStrategy,
                                  SampleStrategy)
from repro.serving.sched import ContinuousScheduler, SchedulerPolicy, SchedWork
from repro.utils.textio import format_table

from .conftest import save_result, save_text

MAX_ROWS = 8
SEED = 23
#: Timed FIFO/continuous repeats (after one warm-up run of each engine).
REPEATS = 5


def smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE") == "1"


def workload_shape() -> tuple[int, tuple[int, ...], float]:
    """(num_requests, per-request max_length cycle, mean arrival gap s).

    The length cycle is what gives the workload its shape: short requests
    stuck behind long ones in the FIFO wait out the whole long decode,
    while the continuous scheduler packs every arrival into one full-width
    batch and retires each request at its own budget.
    """
    if smoke_mode():
        return 8, (8, 12, 16, 20), 0.005
    return 32, (24, 36, 48, 60, 72, 84, 96, 108), 0.005


@pytest.fixture(scope="module")
def bench_setup(request):
    """(model, sources): the shared bench model, or a tiny one under smoke."""
    if smoke_mode():
        from repro.corpus import MiningConfig, build_corpus
        from repro.dataset import build_dataset
        from repro.model.config import tiny_config
        from repro.mpirical import MPIRical

        corpus = build_corpus(MiningConfig(num_repositories=35, seed=101))
        dataset = build_dataset(corpus)
        config = tiny_config()
        config.training.max_steps_per_epoch = 8
        model = MPIRical.fit(dataset.splits.train[:40],
                             dataset.splits.validation[:8], config)
        sources = [ex.source_code for ex in dataset.splits.test[:8]]
    else:
        model = request.getfixturevalue("bench_model")
        dataset = request.getfixturevalue("bench_dataset")
        sources = [ex.source_code for ex in dataset.splits.test[:8]]
    return model, sources


class _PreEncodedPipeline:
    """The bench pipeline with encoding pinned to a precomputed table and
    packaging reduced to the raw ids, so the scheduler measures *decode*
    scheduling — not lexing or suggestion diffing — and results compare
    directly against the sequential references."""

    def __init__(self, mpirical, table: dict[str, list[int]]) -> None:
        self.model = mpirical.model
        self.encoder = mpirical.encoder
        self._table = table

    def encode_source_ids(self, source_code, xsbt=None, tokens=None):
        return self._table[source_code]

    def package_prediction(self, source_code, generated_ids):
        return list(generated_ids)


class _Request:
    """One workload item plus its measured timeline."""

    def __init__(self, key: str, ids: list[int], strategy, max_length: int):
        self.key = key
        self.ids = ids
        self.strategy = strategy
        self.max_length = max_length
        self.arrived: float = 0.0
        self.first_token: float | None = None
        self.completed: float = 0.0
        self.result: list[int] | None = None

    def on_token(self, _token: int) -> None:
        if self.first_token is None:
            self.first_token = time.perf_counter()

    def ttft(self) -> float:
        first = self.first_token if self.first_token is not None \
            else self.completed
        return first - self.arrived


def build_workload(model, sources) -> list[_Request]:
    """Mixed Poisson workload over all three strategy families.

    Most of the traffic is seeded sampling with a *unique seed per
    request* — the realistic way clients ask for diverse suggestions.  The
    continuous scheduler batches those requests together, because each row
    carries its own seeded state machine and row independence keeps the
    tokens bitwise-identical.  A greedy and a beam request ride along every
    eighth arrival, each request on its own decode budget from the length
    cycle."""
    num_requests, lengths, _ = workload_shape()
    encoded = {src: model._encode_for_inference(src, None) for src in sources}
    live = [src for src in sources if encoded[src]]
    requests = []
    for index in range(num_requests):
        source = live[index % len(live)]
        if index % 8 == 7:
            strategy = BeamStrategy(beam_size=2, length_penalty=0.6)
        elif index % 8 == 3:
            strategy = GreedyStrategy()
        else:
            strategy = SampleStrategy(temperature=0.8, seed=1000 + index)
        requests.append(_Request(f"r{index}", encoded[source], strategy,
                                 lengths[index % len(lengths)]))
    return requests


def arrival_gaps(count: int) -> list[float]:
    _, _, scale = workload_shape()
    rng = np.random.default_rng(SEED)
    return [float(gap) for gap in rng.exponential(scale, size=count)]


def run_continuous(model, requests: list[_Request]) -> float:
    pipeline = _PreEncodedPipeline(model, {r.key: r.ids for r in requests})
    entry = type("Entry", (), {"identity": "bench@0",
                               "ensure_loaded": lambda self: pipeline})()
    gaps = arrival_gaps(len(requests))
    futures = []
    with ContinuousScheduler(policy=SchedulerPolicy(max_rows=MAX_ROWS)) as sched:
        start = time.perf_counter()
        for request, gap in zip(requests, gaps):
            time.sleep(gap)
            request.arrived = time.perf_counter()
            work = SchedWork(source_code=request.key, xsbt=None, tokens=None,
                             strategy=request.strategy, entry=entry,
                             max_length=request.max_length,
                             on_token=request.on_token)
            futures.append(sched.submit(work))
        for request, future in zip(requests, futures):
            request.result = future.result(timeout=1200)
            request.completed = time.perf_counter()
    return time.perf_counter() - start


def run_sequential_fifo(model, requests: list[_Request]) -> float:
    """The baseline engine: one decode worker, arrivals served in order,
    each through its strategy's sequential decoder with its tokens streamed
    as they are emitted.  One worker matches the continuous scheduler's
    single decode thread, so the comparison isolates the *scheduling
    policy* (iteration-level join/retire vs one request at a time)."""
    vocab = model.encoder.vocab

    def decode(request: _Request) -> None:
        request.result = request.strategy.decode(
            model.model, request.ids, sos_id=vocab.sos_id,
            eos_id=vocab.eos_id, pad_id=vocab.pad_id,
            max_length=request.max_length, on_token=request.on_token)
        request.completed = time.perf_counter()

    gaps = arrival_gaps(len(requests))
    futures = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        start = time.perf_counter()
        for request, gap in zip(requests, gaps):
            time.sleep(gap)
            request.arrived = time.perf_counter()
            futures.append(worker.submit(decode, request))
        for future in futures:
            future.result(timeout=1200)
    return time.perf_counter() - start


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def test_continuous_batching_throughput_and_ttft(bench_setup):
    model, sources = bench_setup
    vocab = model.encoder.vocab

    # Sequential references: every request must decode bitwise-identically
    # through either engine (this is the acceptance-critical check and runs
    # in every profile, smoke included).
    expected = [request.strategy.decode(model.model, request.ids,
                                        sos_id=vocab.sos_id,
                                        eos_id=vocab.eos_id,
                                        pad_id=vocab.pad_id,
                                        max_length=request.max_length)
                for request in build_workload(model, sources)]
    assert len(expected) >= 8
    tokens = sum(len(ids) for ids in expected)

    def run(engine) -> tuple[float, float, float]:
        """(wall s, TTFT p50 s, TTFT p95 s) of one exact run of ``engine``
        on a fresh copy of the workload."""
        requests = build_workload(model, sources)
        seconds = engine(model, requests)
        assert [r.result for r in requests] == expected
        ttfts = [r.ttft() for r in requests]
        return seconds, percentile(ttfts, 0.50), percentile(ttfts, 0.95)

    # Warm-up, then interleaved repeats: host drift hits both engines of a
    # repeat alike.
    run(run_continuous)
    run(run_sequential_fifo)
    repeats = [(run(run_sequential_fifo), run(run_continuous))
               for _ in range(REPEATS)]
    repeat_speedups = [fifo[0] / cont[0] for fifo, cont in repeats]
    speedup = statistics.median(repeat_speedups)
    fifo_runs, continuous_runs = zip(*repeats)
    fifo_s, fifo_p50, fifo_p95 = map(statistics.median, zip(*fifo_runs))
    continuous_s, continuous_p50, continuous_p95 = map(
        statistics.median, zip(*continuous_runs))
    continuous_tps = tokens / continuous_s
    fifo_tps = tokens / fifo_s

    rows = [
        ["sequential FIFO (1 worker)", f"{fifo_s:.2f}", f"{fifo_tps:.1f}",
         f"{fifo_p50 * 1000:.0f}", f"{fifo_p95 * 1000:.0f}", "1.00x"],
        [f"continuous scheduler (rows={MAX_ROWS})", f"{continuous_s:.2f}",
         f"{continuous_tps:.1f}", f"{continuous_p50 * 1000:.0f}",
         f"{continuous_p95 * 1000:.0f}", f"{speedup:.2f}x"],
    ]
    table = format_table(
        ["Engine", "Wall s", "Tokens/s", "TTFT p50 ms", "TTFT p95 ms",
         "Speedup"], rows)
    print(f"\nContinuous batching — {len(expected)} Poisson arrivals, "
          f"{tokens} tokens, median of {REPEATS} repeats\n" + table)
    save_result("continuous_batching", {
        "requests": len(expected),
        "max_rows": MAX_ROWS,
        "smoke": smoke_mode(),
        "repeats": REPEATS,
        "generated_tokens": tokens,
        "fifo_seconds": fifo_s,
        "continuous_seconds": continuous_s,
        "fifo_tokens_per_s": fifo_tps,
        "continuous_tokens_per_s": continuous_tps,
        "fifo_ttft_p50_s": fifo_p50,
        "continuous_ttft_p50_s": continuous_p50,
        "fifo_ttft_p95_s": fifo_p95,
        "continuous_ttft_p95_s": continuous_p95,
        "speedup": speedup,
        "repeat_speedups": repeat_speedups,
    })
    save_text("continuous_batching", table)

    if not smoke_mode():
        assert speedup >= 1.3, (
            f"continuous batching must be >= 1.3x the sequential FIFO "
            f"engine, got {speedup:.2f}x")
        assert continuous_p95 < fifo_p95, (
            f"continuous p95 TTFT ({continuous_p95:.3f}s) must be strictly "
            f"below the sequential FIFO engine's ({fifo_p95:.3f}s)")


def test_streaming_first_token_beats_full_decode(bench_setup):
    """A single streamed greedy request's first token arrives well before the
    full decode completes — the per-iteration streaming contract."""
    model, sources = bench_setup
    pipeline = _PreEncodedPipeline(
        model, {src: model._encode_for_inference(src, None)
                for src in sources})
    source = next(src for src in sources
                  if pipeline.encode_source_ids(src))
    entry = type("Entry", (), {"identity": "bench@0",
                               "ensure_loaded": lambda self: pipeline})()
    stamps: list[float] = []
    done = threading.Event()
    with ContinuousScheduler(policy=SchedulerPolicy(max_rows=MAX_ROWS)) as sched:
        work = SchedWork(source_code=source, xsbt=None, tokens=None,
                         strategy=GreedyStrategy(), entry=entry,
                         max_length=workload_shape()[1][-1],
                         on_token=lambda _t: stamps.append(time.perf_counter()))
        start = time.perf_counter()
        future = sched.submit(work)
        future.add_done_callback(lambda _f: done.set())
        result = future.result(timeout=1200)
        assert done.wait(timeout=30)
        end = time.perf_counter()
    assert len(stamps) == len(result)
    if len(result) >= 4:
        # The first token streamed in the first quarter of the decode.
        assert stamps[0] - start < (end - start) * 0.5
