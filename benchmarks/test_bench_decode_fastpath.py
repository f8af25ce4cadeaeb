"""Decode fast-path throughput — no-tape inference engine vs. the tape path.

PR 3's tentpole moves the decode hot path off the autograd tape: no tape or
backward-closure allocation, float32 compute with cached weight casts,
preallocated KV-cache buffers, and fused single-pass attention kernels.
This benchmark records the perf trajectory of exactly that switch: the
sequential reference decoders run over the same 8 programs once under
``tape_mode()`` (the training-grade reference path) and once on the default
inference fast path, for greedy and for beam search at beam 4.  The tape
path cannot drive the continuous batch (per-row positions need the no-tape
kernels), so the comparison is decoder for decoder on the sequential
oracles; ``benchmarks/test_bench_serving_throughput.py`` measures the
continuous batch on top.  The acceptance bar is fast path >= 2x tape-path
tokens/s for greedy over the 8 programs.

``REPRO_BENCH_SMOKE=1`` (the CI smoke step) swaps the session-scoped bench
model for a tiny self-trained one and asserts only correctness: the float64
fast path must be exact-match identical to the tape path and the float32
default must agree on every argmax token sequence.  The timing gate runs in
the regular benchmark profiles, where decodes are long enough to measure.

Results land in ``benchmarks/results/decode_fastpath.{json,txt}``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.model.autograd import inference_mode, tape_mode
from repro.model.generation import beam_search_decode, greedy_decode
from repro.utils.textio import format_table

from .conftest import save_result, save_text

BATCH_SIZE = 8
BEAM_SIZE = 4
LENGTH_PENALTY = 0.6


def smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE") == "1"


def max_length() -> int:
    return 24 if smoke_mode() else 96


@pytest.fixture(scope="module")
def decode_setup(request):
    """(model, encoded sources): shared bench model, or a tiny one under smoke."""
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
        sources = [ex.source_code for ex in dataset.splits.test[:BATCH_SIZE]]
    else:
        model = request.getfixturevalue("bench_model")
        dataset = request.getfixturevalue("bench_dataset")
        sources = [ex.source_code for ex in dataset.splits.test[:BATCH_SIZE]]
    assert len(sources) >= BATCH_SIZE
    encoded = [model._encode_for_inference(src, None) for src in sources]
    return model, encoded


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _best_of_two(fn):
    """Best-of-2 wall time: one noisy-neighbor blip must not gate CI."""
    out, first = _timed(fn)
    _, second = _timed(fn)
    return out, min(first, second)


def test_decode_fastpath_throughput(benchmark, decode_setup):
    model, encoded = decode_setup
    vocab = model.encoder.vocab
    ids = dict(sos_id=vocab.sos_id, eos_id=vocab.eos_id, pad_id=vocab.pad_id)
    greedy_args = dict(ids, max_length=max_length())
    beam_args = dict(ids, beam_size=BEAM_SIZE, max_length=max_length(),
                     length_penalty=LENGTH_PENALTY)

    def fast_greedy():
        return [greedy_decode(model.model, source, **greedy_args)
                for source in encoded]

    def fast_beam():
        return [beam_search_decode(model.model, source, **beam_args)
                for source in encoded]

    def tape_greedy():
        with tape_mode():
            return fast_greedy()

    def tape_beam():
        with tape_mode():
            return fast_beam()

    # Correctness first (also the warm-up): the float64 fast path is
    # exact-match identical to the tape path, and the float32 default agrees
    # on every argmax token sequence.
    greedy_ref = tape_greedy()
    beam_ref = tape_beam()
    with inference_mode(dtype=np.float64):
        assert fast_greedy() == greedy_ref
        assert fast_beam() == beam_ref
    assert fast_greedy() == greedy_ref
    assert fast_beam() == beam_ref

    _, tape_greedy_s = _best_of_two(tape_greedy)
    start = time.perf_counter()
    benchmark.pedantic(fast_greedy, rounds=1, iterations=1)
    fast_greedy_s = time.perf_counter() - start
    _, fast_greedy_retry = _best_of_two(fast_greedy)
    fast_greedy_s = min(fast_greedy_s, fast_greedy_retry)

    _, tape_beam_s = _best_of_two(tape_beam)
    _, fast_beam_s = _best_of_two(fast_beam)

    greedy_tokens = sum(len(out) for out in greedy_ref)
    beam_tokens = sum(len(out) for out in beam_ref)
    greedy_speedup = tape_greedy_s / fast_greedy_s
    beam_speedup = tape_beam_s / fast_beam_s

    def tps(tokens, seconds):
        return tokens / seconds if seconds else 0.0

    rows = [
        [f"greedy tape path ({len(encoded)} programs)", f"{tape_greedy_s:.3f}",
         f"{tps(greedy_tokens, tape_greedy_s):.1f}", "1.00x"],
        [f"greedy fast path ({len(encoded)} programs)", f"{fast_greedy_s:.3f}",
         f"{tps(greedy_tokens, fast_greedy_s):.1f}", f"{greedy_speedup:.2f}x"],
        [f"beam tape path ({len(encoded)} programs, K={BEAM_SIZE})", f"{tape_beam_s:.3f}",
         f"{tps(beam_tokens, tape_beam_s):.1f}", "1.00x"],
        [f"beam fast path ({len(encoded)} programs, K={BEAM_SIZE})", f"{fast_beam_s:.3f}",
         f"{tps(beam_tokens, fast_beam_s):.1f}", f"{beam_speedup:.2f}x"],
    ]
    table = format_table(["Decoder", "Wall s", "Tokens/s", "Speedup"], rows)
    print(f"\nDecode fast path — no-tape engine vs tape path "
          f"({greedy_tokens} greedy / {beam_tokens} beam tokens)\n" + table)
    save_result("decode_fastpath", {
        "batch_size": len(encoded),
        "beam_size": BEAM_SIZE,
        "length_penalty": LENGTH_PENALTY,
        "max_length": max_length(),
        "smoke": smoke_mode(),
        "greedy_tokens": greedy_tokens,
        "beam_tokens": beam_tokens,
        "greedy_tape_seconds": tape_greedy_s,
        "greedy_fast_seconds": fast_greedy_s,
        "greedy_tape_tokens_per_s": tps(greedy_tokens, tape_greedy_s),
        "greedy_fast_tokens_per_s": tps(greedy_tokens, fast_greedy_s),
        "greedy_speedup": greedy_speedup,
        "beam_tape_seconds": tape_beam_s,
        "beam_fast_seconds": fast_beam_s,
        "beam_tape_tokens_per_s": tps(beam_tokens, tape_beam_s),
        "beam_fast_tokens_per_s": tps(beam_tokens, fast_beam_s),
        "beam_speedup": beam_speedup,
    })
    save_text("decode_fastpath", table)

    if not smoke_mode():
        assert greedy_speedup >= 2.0, (
            f"fast-path greedy decode must be >= 2x the tape path over "
            f"{BATCH_SIZE} programs, got {greedy_speedup:.2f}x")
