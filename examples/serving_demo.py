"""Serving demo: concurrent clients, continuous batching, caching, live metrics.

Trains a small MPI-RICAL model, stands up an :class:`InferenceService`, and
fires three waves of traffic at it:

1. a **cold burst** of concurrent distinct programs — watch the continuous
   scheduler join them into shared decode steps (batch-size histogram > 1,
   ``sched_occupancy_mean`` > 1);
2. a **warm replay** of the same programs — every request is a cache hit and
   returns in microseconds;
3. a **reformatted replay** — cosmetically edited buffers (extra whitespace,
   comments) still hit, because the cache keys on the canonical xSBT + token
   form rather than the raw text;
4. a **beam wave** — the same programs re-advised with ``beam_size=4``: beam
   requests miss the greedy cache entries (the key includes the decoding
   strategy), decode as 4-row blocks of the same continuous batch, and show
   up separately in ``batches_by_config``;
5. a **sampling wave** — the v1 contract in action: ``AdviseRequest`` with a
   ``SampleStrategy`` (temperature/top-k with an explicit seed).  The same
   seed replays from cache; a different seed is a different cache identity;
6. a **streaming client** — ``InferenceService.advise_stream`` yields token
   chunks as the model decodes, then the final ``AdviseResponse`` (exactly
   what ``POST /v1/advise/stream`` sends as NDJSON lines);
7. a **model lifecycle wave** — a second checkpoint is saved (a "retrained"
   revision), registered in the :class:`repro.registry.ModelRegistry`, and
   the ``default`` alias is hot-swapped onto it while requests are in
   flight: every request drains on the revision it resolved to, nothing is
   dropped, and the old revision's cache entries can never answer post-swap
   traffic (the cache key embeds ``name@revision``).  An async batch job is
   then submitted and polled to completion — exactly what
   ``POST /v1/advise/batch`` + ``GET /v1/jobs/{id}`` do over HTTP;
8. a **durable-jobs wave** — a second service opens its job store over a
   registry root, so submissions land in an append-only WAL
   (``<root>/jobs/jobs.wal``).  The store is torn down mid-run (the stand-in
   for a SIGKILL) and reopened over the same WAL: the acknowledged job
   resumes idempotently — already-recorded items are restored, the rest are
   re-enqueued and answered from the advice cache — and reaches ``done``
   with every item resolved exactly once and no recycled job ids.

Run with:  PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.api import AdviseRequest
from repro.corpus import MiningConfig, build_corpus
from repro.dataset import build_dataset
from repro.model.config import tiny_config
from repro.model.decoding import BeamStrategy, SampleStrategy
from repro.mpirical import MPIRical
from repro.registry import ModelRegistry
from repro.serving import InferenceService


def train_demo_model() -> tuple[MPIRical, list[str]]:
    print("mining corpus + training a small demo model ...")
    corpus = build_corpus(MiningConfig(num_repositories=40, seed=7))
    dataset = build_dataset(corpus)
    config = tiny_config()
    config.training.max_steps_per_epoch = 12
    model = MPIRical.fit(dataset.splits.train[:48], dataset.splits.validation[:8],
                         config)
    programs = [ex.source_code for ex in dataset.splits.test[:8]]
    return model, programs


def main() -> None:
    model, programs = train_demo_model()
    max_length = 80
    registry = ModelRegistry(model, name="advisor-v1")

    with InferenceService(registry, max_batch_size=8, cache_capacity=128,
                          max_length=max_length) as service:
        def advise(code: str, **fields):
            return service.advise_request(AdviseRequest(code=code, **fields))

        print(f"\n--- wave 1: cold burst of {len(programs)} concurrent programs")
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(programs)) as pool:
            served = list(pool.map(advise, programs))
        sample = [item["rendered"] for item in served[0].advice]
        print(f"    {len(served)} responses in {time.perf_counter() - start:.2f}s; "
              f"sample advice: {sample!r}")

        print("\n--- wave 2: warm replay (identical buffers)")
        start = time.perf_counter()
        replayed = [advise(program) for program in programs]
        print(f"    all cached: {all(r.cached for r in replayed)}; "
              f"replay took {time.perf_counter() - start:.4f}s")

        print("\n--- wave 3: reformatted replay (whitespace + comments)")
        edited = [f"// reviewed, looks good\n{program}\n" for program in programs]
        reformatted = [advise(buffer) for buffer in edited]
        print(f"    all cached despite edits: {all(r.cached for r in reformatted)}")

        print("\n--- wave 4: beam burst (beam_size=4) over the same programs")
        beam = BeamStrategy(beam_size=4, length_penalty=0.6)
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(programs)) as pool:
            beamed = list(pool.map(
                lambda p: advise(p, strategy=beam), programs))
        print(f"    {len(beamed)} beam responses in "
              f"{time.perf_counter() - start:.2f}s; greedy cache entries "
              f"did not answer them: {not any(r.cached for r in beamed)}")
        replay = advise(programs[0], strategy=beam)
        print(f"    identical beam request replays from cache: {replay.cached}")

        print("\n--- wave 5: sampling wave (SampleStrategy, explicit seeds)")
        strategy = SampleStrategy(temperature=0.8, top_k=16, seed=7)
        requests = [AdviseRequest(code=program, strategy=strategy)
                    for program in programs]
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            sampled = list(pool.map(service.advise_request, requests))
        print(f"    {len(sampled)} sampled responses in "
              f"{time.perf_counter() - start:.2f}s "
              f"(strategy {strategy.canonical()!r})")
        replay = service.advise_request(requests[0])
        reseeded = service.advise_request(AdviseRequest(
            code=programs[0], strategy=strategy.with_seed(8)))
        print(f"    same seed replays from cache: {replay.cached}; "
              f"different seed is a fresh decode: {not reseeded.cached}")

        print("\n--- wave 6: streaming client (token chunks, then the result)")
        stream_request = AdviseRequest(
            code="int main(int argc, char **argv) {\n"
                 "    int streamed = 1;\n    return streamed;\n}\n")
        chunks = []
        for chunk in service.advise_stream(stream_request):
            if chunk["type"] == "token":
                chunks.append(chunk["token"])
            else:
                final = chunk["response"]
        print(f"    {len(chunks)} token chunks streamed before the final "
              f"result; first tokens: {chunks[:8]}")
        print(f"    final strategy={final['strategy']['name']} "
              f"cached={final['cached']}")

        print("\n--- wave 7: model lifecycle — save, register, hot-swap, batch job")
        workdir = Path(tempfile.mkdtemp(prefix="serving-demo-"))
        # "Retrain": clone the model through a checkpoint, nudge its weights,
        # and save the new revision — a stand-in for a real training run.
        retrained = MPIRical.load(model.save(workdir / "base"))
        first = retrained.model.parameters()[0]
        first.data[...] = first.data + 0.05
        first.mark_updated()
        checkpoint = retrained.save(workdir / "advisor-v2")
        entry = registry.register("advisor-v2", checkpoint)
        print(f"    saved + registered advisor-v2 "
              f"(revision {entry.revision}, lazy-loaded from {checkpoint})")

        with ThreadPoolExecutor(max_workers=len(programs)) as pool:
            inflight = [pool.submit(service.advise_request,
                                    AdviseRequest(code=p, model="default"))
                        for p in programs]
            previous, current = registry.swap("advisor-v2")
            drained = [f.result() for f in inflight]
        identities = sorted({r.model for r in drained})
        print(f"    hot-swapped {previous} -> {current} under traffic; "
              f"{len(drained)}/{len(programs)} in-flight requests drained "
              f"on {identities}")
        fresh = service.advise_request(
            AdviseRequest(code=programs[0], model="default"))
        print(f"    post-swap request served by {fresh.model}; "
              f"stale pre-swap cache hit: "
              f"{fresh.cache_key in {r.cache_key for r in served}}")

        job = service.jobs.submit(
            [AdviseRequest(code=p) for p in programs[:4]])
        print(f"    batch job {job.job_id} submitted "
              f"({job.to_dict()['total']} items); polling ...")
        while not job.wait(timeout=0.2):
            body = job.to_dict()
            print(f"      {body['status']}: {body['completed']}/{body['total']}")
        body = job.to_dict()
        ok = sum(1 for item in body["results"] if item["status"] == "ok")
        print(f"    job {body['job_id']} done: {ok}/{body['total']} items ok")

        print("\n--- /metrics snapshot (note batches_by_config, "
              "requests_by_model, registry)")
        print(json.dumps(service.metrics(), indent=2))

    print("\n--- wave 8: durable jobs — WAL, simulated crash, idempotent resume")
    registry_root = workdir / "durable"
    crashed = InferenceService(model, max_batch_size=8, cache_capacity=128,
                               max_length=max_length,
                               registry_root=registry_root)
    job = crashed.jobs.submit([AdviseRequest(code=p) for p in programs])
    print(f"    job {job.job_id} ({job.to_dict()['total']} items) fsynced to "
          f"{registry_root / 'jobs' / 'jobs.wal'}")
    # Tear the store down mid-run — the stand-in for a SIGKILL.  The bounded
    # close abandons whatever the worker has not recorded; the WAL is all
    # that survives into the next service.
    crashed.jobs.close(wait=True, timeout=0.05)
    interrupted = job.to_dict()
    print(f"    'crashed' mid-run at {interrupted['completed']}/"
          f"{interrupted['total']} items recorded")
    crashed.close()

    with InferenceService(model, max_batch_size=8, cache_capacity=128,
                          max_length=max_length,
                          registry_root=registry_root) as restarted:
        snapshot = restarted.jobs.snapshot()
        resumed = restarted.jobs.get(job.job_id)
        print(f"    reopened the WAL: {snapshot['restored_items']} item(s) "
              f"restored, {snapshot['resumed_jobs']} job(s) re-enqueued")
        assert resumed.wait(timeout=120)
        body = resumed.to_dict()
        ok = sum(1 for item in body["results"] if item["status"] == "ok")
        print(f"    job {body['job_id']} resumed to '{body['status']}': "
              f"{ok}/{body['total']} items ok, each resolved exactly once")
        next_job = restarted.jobs.submit([AdviseRequest(code=programs[0])])
        print(f"    ids never recycle: the next submission is {next_job.job_id}")
        assert next_job.wait(timeout=120)


if __name__ == "__main__":
    main()
