"""Hot-swap differential + cache revision isolation + batch job store.

The acceptance bar for the lifecycle redesign (ISSUE 5):

* concurrent advise traffic across a ``swap`` loses **zero** requests;
* every response echoes the ``model@revision`` that actually served it;
* post-swap responses never come from the pre-swap cache.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from repro.api import AdviseRequest, ApiError
from repro.mpirical import MPIRical
from repro.registry import ModelRegistry
from repro.serving import InferenceService, JobStore, LRUCache, canonical_cache_key


@pytest.fixture(scope="module")
def swap_pair(tiny_model, tmp_path_factory):
    """Two revisions of the tiny model: the original and a perturbed copy."""
    checkpoint = tiny_model.save(
        tmp_path_factory.mktemp("lifecycle") / "v1")
    variant = MPIRical.load(checkpoint)
    first = variant.model.parameters()[0]
    first.data[...] = first.data + 0.25
    first.mark_updated()
    assert variant.fingerprint() != tiny_model.fingerprint()
    return tiny_model, variant


# ------------------------------------------------------- hot-swap differential


def test_hot_swap_serves_every_request_and_never_a_stale_cache_entry(
        swap_pair, small_dataset):
    """The ISSUE 5 differential: swap the default alias mid-traffic."""
    v1, v2 = swap_pair
    id1, id2 = f"advisor-v1@{v1.fingerprint()}", f"advisor-v2@{v2.fingerprint()}"
    programs = [ex.source_code for ex in small_dataset.splits.test[:6]]

    registry = ModelRegistry(v1, name="advisor-v1")
    registry.register("advisor-v2", v2)
    with InferenceService(registry, max_batch_size=4,
                          cache_capacity=256,
                          max_length=48) as service:
        # Warm the cache on v1.  Requests reference the *alias*, so the swap
        # below re-routes them; the response echoes the resolved identity.
        pre = [service.advise_request(
            AdviseRequest(code=program, model="default"), timeout=120)
            for program in programs]
        assert {response.model for response in pre} == {id1}
        assert service.advise_request(
            AdviseRequest(code=programs[0], model="default"),
            timeout=120).cached

        # Background clients hammer the alias while the swap happens.
        responses, errors = [], []
        stop = threading.Event()

        def client(offset: int) -> None:
            index = offset
            while not stop.is_set():
                request = AdviseRequest(code=programs[index % len(programs)],
                                        model="default")
                try:
                    responses.append(service.advise_request(request,
                                                            timeout=120))
                except Exception as exc:  # pragma: no cover - regression only
                    errors.append(exc)
                index += 1

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.2)

        # A knot of requests submitted immediately before the flip: these are
        # the in-flight requests the swap must drain, not drop.
        inflight = [service.advise_request_async(
            AdviseRequest(code=program, model="default"))
            for program in programs]
        previous, current = registry.swap("advisor-v2")
        assert (previous, current) == (id1, id2)
        drained = [future.result(timeout=120) for future in inflight]

        time.sleep(0.2)
        stop.set()
        for thread in threads:
            thread.join()

        # Zero lost requests, and every response names the revision that
        # served it — nothing else.
        assert not errors
        assert len(drained) == len(programs)
        assert {response.model for response in drained} <= {id1, id2}
        assert {response.model for response in responses} <= {id1, id2}
        assert any(response.model == id2 for response in responses), \
            "no post-swap traffic reached the new revision"

        # After the swap the alias resolves to v2 for every buffer, and no
        # response is ever backed by a pre-swap cache entry: the revision is
        # part of the cache key, so the key sets cannot intersect.
        pre_keys = {response.cache_key for response in pre}
        post = [service.advise_request(
            AdviseRequest(code=program, model="default"), timeout=120)
            for program in programs]
        assert {response.model for response in post} == {id2}
        assert not pre_keys & {response.cache_key for response in post}
        assert not pre_keys & {response.cache_key for response in responses
                               if response.model == id2}

        # Requests that never name a model follow the alias too (their
        # cache key is the one of the v2 decode of the same buffer), while
        # their wire responses keep the v1.0 shape (no "model" key).
        unpinned = service.advise_request(AdviseRequest(code=programs[0]),
                                          timeout=120)
        assert unpinned.cache_key == post[0].cache_key
        assert unpinned.cache_key == canonical_cache_key(programs[0], model=id2)
        assert unpinned.model is None
        assert "model" not in unpinned.to_dict()

        # The old revision stays reachable by name for canaries/rollback.
        rollback = service.advise_request(
            AdviseRequest(code=programs[0], model="advisor-v1"), timeout=120)
        assert rollback.model == id1


def test_stream_across_swap_finishes_on_its_resolved_revision(swap_pair):
    """A stream that resolved before the flip completes on the old entry."""
    v1, v2 = swap_pair
    registry = ModelRegistry(v1, name="advisor-v1")
    registry.register("advisor-v2", v2)
    source = "int main(int argc, char **argv) {\n    int swapped = 1;\n" \
             "    return swapped;\n}\n"
    with InferenceService(registry, cache_capacity=16,
                          max_length=32) as service:
        stream = service.advise_stream(
            AdviseRequest(code=source, model="default"))
        first = next(stream)            # the decode is now in flight on v1
        registry.swap("advisor-v2")
        chunks = [first, *stream]
        final = chunks[-1]
        assert final["type"] == "final"
        assert final["response"]["model"] == f"advisor-v1@{v1.fingerprint()}"
        # A fresh stream resolves through the flipped alias.
        replay = list(service.advise_stream(
            AdviseRequest(code=source, model="default")))
        assert replay[-1]["response"]["model"] == \
            f"advisor-v2@{v2.fingerprint()}"
        assert replay[-1]["response"]["cached"] is False


# ------------------------------------------------- cache revision isolation


SOURCE = "int main() { int cache_isolation_probe = 3; return 0; }\n"


def test_cache_keys_embed_the_model_revision():
    """ISSUE 5 satellite: the regression that motivated the key change —
    same buffer, same strategy, different revision => different entry."""
    v1 = canonical_cache_key(SOURCE, model="advisor@aaaaaaaaaaaa")
    v2 = canonical_cache_key(SOURCE, model="advisor@bbbbbbbbbbbb")
    other = canonical_cache_key(SOURCE, model="other@aaaaaaaaaaaa")
    anonymous = canonical_cache_key(SOURCE)
    assert len({v1, v2, other, anonymous}) == 4

    # Simulated hot-swap over one LRU: everything cached under the old
    # revision is unreachable from the new one — zero stale hits.
    cache = LRUCache(8)
    cache.put(v1, "old-revision-result")
    assert cache.get(v2) is None
    assert cache.get(other) is None
    assert cache.stats().hits == 0


# ------------------------------------------------------------- job store unit


class _StubService:
    """advise_request_async stub: resolves by request content, no model."""

    def advise_request_async(self, request: AdviseRequest) -> Future:
        if request.model == "missing":
            raise ApiError.unknown_model("unknown model 'missing'")
        future: Future = Future()
        if "explode" in request.code:
            future.set_exception(RuntimeError("decoder exploded"))
        else:
            future.set_result(SimpleNamespace(
                to_dict=lambda code=request.code: {"generated_code": code}))
        return future


def test_job_store_envelopes_every_item_independently():
    store = JobStore(_StubService())
    try:
        job = store.submit([AdviseRequest(code="int a;"),
                            AdviseRequest(code="int explode;"),
                            AdviseRequest(code="int b;", model="missing")])
        assert job.job_id == "job-1"
        assert job.wait(timeout=30)
        body = job.to_dict()
        assert body["status"] == "done"
        assert body["total"] == body["completed"] == 3
        by_index = {item["index"]: item for item in body["results"]}
        assert by_index[0]["status"] == "ok"
        assert by_index[0]["response"] == {"generated_code": "int a;"}
        assert by_index[1]["status"] == "error"
        assert by_index[1]["error"]["code"] == "internal"
        assert by_index[2]["status"] == "error"
        assert by_index[2]["error"]["code"] == "unknown_model"
        assert store.get("job-1") is job
    finally:
        store.close()


def test_job_store_ids_are_sequential_and_finished_jobs_are_evicted():
    store = JobStore(_StubService(), max_jobs=2)
    try:
        jobs = []
        for i in range(3):
            job = store.submit([AdviseRequest(code=f"int x{i};")])
            # Only *finished* jobs are eviction candidates, so let each run
            # to completion before the next submission can push one out.
            assert job.wait(timeout=30)
            jobs.append(job)
        assert [job.job_id for job in jobs] == ["job-1", "job-2", "job-3"]
        # Capacity 2: the oldest finished job was evicted at submit time —
        # and because it *was* issued, polling it answers 410 expired, not
        # the never-existed 404.
        with pytest.raises(ApiError) as excinfo:
            store.get("job-1")
        assert excinfo.value.status == 410
        assert excinfo.value.code == "expired"
        with pytest.raises(ApiError) as excinfo:
            store.get("job-999")
        assert excinfo.value.status == 404
        assert store.get("job-3").to_dict()["status"] == "done"
    finally:
        store.close()


def test_job_store_rejects_empty_submissions_and_closes_cleanly():
    store = JobStore(_StubService())
    with pytest.raises(ApiError) as excinfo:
        store.submit([])
    assert excinfo.value.status == 400
    store.close()
    # A closed store is *unavailable* (503) — shutting down is not a 500.
    with pytest.raises(ApiError) as excinfo:
        store.submit([AdviseRequest(code="int late;")])
    assert excinfo.value.status == 503
    assert excinfo.value.code == "unavailable"
