"""Decode throughput — the continuous batch vs. the sequential decoders.

The serving layer's reason to exist: one ``decode_step`` for every live row
amortises the per-step Python/kernel overhead that dominates at serving
sizes, so decoding eight programs together in one
:class:`repro.serving.sched.InflightBatch` should deliver a multiple of the
sequential decoder's tokens/sec on identical inputs — for every strategy
the service serves:

* **greedy** — eight rows against eight :func:`greedy_decode` calls;
* **beam-4** — a ``(8 × 4)``-row batch against :func:`beam_search_decode`,
  which runs one ``decode_step`` per live hypothesis per step;
* **seeded sampling** — eight seed-pinned rows against :func:`sample_decode`
  (the seed pins every token, so equality is bitwise, not statistical).

Every row's output must be exact-match identical to its sequential decode,
and the acceptance bar for each strategy is >= 2x tokens/s at 8 programs.

``REPRO_BENCH_SMOKE=1`` (the CI smoke step) swaps the session-scoped bench
model for a tiny self-trained one for the beam and sampling rows and asserts
only the exact-match equivalence there — the tiny model's decodes are too
short for a stable timing ratio, so their >= 2x gates run in the regular
benchmark profiles only.  The greedy row always decodes on the bench model
and always gates.

Also reports the end-to-end serving view: the same programs pushed through
:class:`InferenceService` concurrently (continuous batch + cache) versus a
sequential ``predict_code`` loop.
"""

from __future__ import annotations

import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.model.decoding import BeamStrategy, GreedyStrategy, SampleStrategy
from repro.serving.sched import InflightBatch
from repro.utils.textio import format_table

from .conftest import save_result, save_text

BATCH_SIZE = 8
MAX_LENGTH = 120
BEAM = BeamStrategy(beam_size=4, length_penalty=0.6)
SAMPLE = SampleStrategy(temperature=0.8, top_k=16, top_p=0.95, seed=1234)
#: Timed sequential/batched pairs per strategy (after one warm-up pair).
PAIRS = 5


def smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE") == "1"


def max_length() -> int:
    return 24 if smoke_mode() else 96


def _decode_inputs(bench_model, bench_dataset):
    sources = [ex.source_code for ex in bench_dataset.splits.test[:BATCH_SIZE]]
    encoded = [bench_model._encode_for_inference(src, None) for src in sources]
    return sources, encoded


@pytest.fixture(scope="module")
def smoke_setup(request):
    """(model, encoded sources): the shared bench model, or a tiny one
    under smoke."""
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
        return model, _decode_inputs(model, dataset)[1]
    model = request.getfixturevalue("bench_model")
    dataset = request.getfixturevalue("bench_dataset")
    return model, _decode_inputs(model, dataset)[1]


def continuous_decode(model, encoded, strategy, **decode_args):
    """Every program joins one :class:`InflightBatch` at step 0; step until
    the last row retires.  Returns the generated ids in input order."""
    vocab = model.encoder.vocab
    batch = InflightBatch(model.model, sos_id=vocab.sos_id,
                          eos_id=vocab.eos_id, pad_id=vocab.pad_id)
    states = [strategy.row_state(sos_id=vocab.sos_id, eos_id=vocab.eos_id,
                                 **decode_args) for _ in encoded]
    for state, ids in zip(states, encoded):
        if ids:
            batch.add(None, state, ids)
    while batch.num_rows:
        batch.step()
    return [state.result() if ids else [] for state, ids in zip(states, encoded)]


def measure(benchmark, model, encoded, strategy, *, name: str, label: str,
            max_length: int, gate: bool) -> None:
    """Time ``strategy`` sequentially and through the continuous batch in
    :data:`PAIRS` interleaved pairs, assert exact equality, save ``name``'s
    table and gate the median per-pair speedup at 2x."""
    assert len(encoded) >= BATCH_SIZE
    vocab = model.encoder.vocab
    ids = dict(sos_id=vocab.sos_id, eos_id=vocab.eos_id, pad_id=vocab.pad_id)

    def sequential():
        return [strategy.decode(model.model, source, **ids,
                                max_length=max_length)
                for source in encoded]

    def batched():
        return continuous_decode(model, encoded, strategy,
                                 max_length=max_length)

    # Warm-up (NumPy/BLAS first-call effects), then the acceptance-critical
    # exact-match check: every row selects the very same tokens as its
    # sequential decode.
    assert batched() == sequential()

    # Interleaved sequential/batched pairs, gated on the median per-pair
    # ratio: a noisy-neighbour blip on a shared runner spoils one pair, not
    # the gate, and host drift hits both sides of a pair alike (timing one
    # side entirely before the other let drift skew the ratio).
    def timed(fn):
        start = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - start

    pairs = []
    for index in range(PAIRS):
        sequential_out, sequential_s = timed(sequential)
        if index == 0:
            batched_out, batched_s = timed(lambda: benchmark.pedantic(
                batched, rounds=1, iterations=1))
        else:
            batched_out, batched_s = timed(batched)
        pairs.append((sequential_s, batched_s))
    speedup = statistics.median(seq / bat for seq, bat in pairs)
    sequential_s = statistics.median(seq for seq, _ in pairs)
    batched_s = statistics.median(bat for _, bat in pairs)

    tokens = sum(len(out) for out in sequential_out)
    sequential_tps = tokens / sequential_s
    batched_tps = tokens / batched_s

    rows = [
        [f"sequential {label}", f"{sequential_s:.2f}", f"{sequential_tps:.1f}",
         "1.00x"],
        [f"InflightBatch {label} (B={len(encoded)})", f"{batched_s:.2f}",
         f"{batched_tps:.1f}", f"{speedup:.2f}x"],
    ]
    table = format_table(["Decoder", "Wall s", "Tokens/s", "Speedup"], rows)
    print(f"\nDecode throughput — continuous batch vs sequential "
          f"{strategy.canonical()} ({tokens} tokens)\n" + table)
    save_result(name, {
        "batch_size": len(encoded),
        "strategy": strategy.to_dict(),
        "max_length": max_length,
        "smoke": smoke_mode(),
        "generated_tokens": tokens,
        "sequential_seconds": sequential_s,
        "batched_seconds": batched_s,
        "sequential_tokens_per_s": sequential_tps,
        "batched_tokens_per_s": batched_tps,
        "speedup": speedup,
        "pair_speedups": [seq / bat for seq, bat in pairs],
    })
    save_text(name, table)

    assert batched_out == sequential_out
    if gate:
        assert speedup >= 2.0, (
            f"continuous {label} decode must be >= 2x sequential, "
            f"got {speedup:.2f}x")


def test_batched_decode_throughput(benchmark, bench_model, bench_dataset):
    _, encoded = _decode_inputs(bench_model, bench_dataset)
    measure(benchmark, bench_model, encoded, GreedyStrategy(),
            name="serving_throughput", label="greedy",
            max_length=MAX_LENGTH, gate=True)


def test_batched_beam_throughput(benchmark, smoke_setup):
    model, encoded = smoke_setup
    measure(benchmark, model, encoded, BEAM, name="beam_throughput",
            label="beam-4", max_length=max_length(), gate=not smoke_mode())


def test_batched_sampling_throughput(benchmark, smoke_setup):
    model, encoded = smoke_setup
    measure(benchmark, model, encoded, SAMPLE, name="sampling_throughput",
            label="sampling", max_length=max_length(), gate=not smoke_mode())


def test_service_end_to_end_throughput(bench_model, bench_dataset):
    """Concurrent clients through the full service vs. a sequential loop."""
    from repro.api import AdviseRequest
    from repro.serving import InferenceService

    sources, _ = _decode_inputs(bench_model, bench_dataset)

    start = time.perf_counter()
    for src in sources:
        bench_model.predict_code(src, max_length=MAX_LENGTH)
    sequential_s = time.perf_counter() - start

    with InferenceService(bench_model, max_batch_size=BATCH_SIZE,
                          cache_capacity=64,
                          max_length=MAX_LENGTH) as service:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(sources)) as pool:
            served = list(pool.map(
                lambda s: service.advise_request(AdviseRequest(code=s),
                                                 timeout=600), sources))
        concurrent_s = time.perf_counter() - start
        # Re-advising the same buffers is nearly free (cache hits).
        start = time.perf_counter()
        for src in sources:
            service.advise_request(AdviseRequest(code=src), timeout=600)
        cached_s = time.perf_counter() - start
        snapshot = service.metrics()

    rows = [
        ["sequential predict_code", f"{sequential_s:.2f}", "1.00x"],
        ["InferenceService (concurrent)", f"{concurrent_s:.2f}",
         f"{sequential_s / concurrent_s:.2f}x"],
        ["InferenceService (cache hits)", f"{cached_s:.4f}",
         f"{sequential_s / cached_s:.0f}x"],
    ]
    table = format_table(["Path", "Wall s", "Speedup"], rows)
    print(f"\nServing end-to-end — {len(sources)} programs\n" + table)
    save_result("serving_end_to_end", {
        "programs": len(sources),
        "sequential_seconds": sequential_s,
        "concurrent_seconds": concurrent_s,
        "cached_seconds": cached_s,
        "metrics": snapshot,
    })
    save_text("serving_end_to_end", table)

    assert len(served) == len(sources)
    assert snapshot["cache_hits"] >= len(sources)   # second sweep all hit
    assert snapshot["errors_total"] == 0
    # The concurrent path should win comfortably (measured ~2.4x); the assert
    # only guards gross regression, with headroom for noisy shared runners.
    assert concurrent_s < sequential_s * 1.5
