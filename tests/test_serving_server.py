"""End-to-end HTTP serving smoke tests: /v1/advise, /healthz, /metrics, errors."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serving import InferenceService
from repro.serving.server import make_server


@pytest.fixture(scope="module")
def endpoint(tiny_model):
    service = InferenceService(tiny_model, max_batch_size=4,
                               cache_capacity=64,
                               max_length=60)
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.close()


def _post(url: str, payload: bytes, content_type: str = "application/json"):
    request = urllib.request.Request(url, data=payload,
                                     headers={"Content-Type": content_type})
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def test_advise_roundtrip_and_cache_hit(endpoint, pi_source):
    payload = json.dumps({"code": pi_source}).encode()
    status, body = _post(f"{endpoint}/v1/advise", payload)
    assert status == 200
    assert set(body) >= {"generated_code", "advice", "diagnostics", "cached",
                         "latency_ms", "cache_key"}
    for item in body["advice"]:
        assert set(item) >= {"function", "insert_after_line", "statement",
                             "confidence", "note", "rendered"}

    # The acceptance-criteria flow: the second identical request is a hit.
    status, again = _post(f"{endpoint}/v1/advise", payload)
    assert status == 200
    assert again["cached"] is True
    assert again["generated_code"] == body["generated_code"]
    assert again["cache_key"] == body["cache_key"]


def test_healthz_reports_registry_state(endpoint):
    status, body = _get(f"{endpoint}/healthz")
    assert status == 200
    assert body["status"] == "ok"
    # The registry state: a default alias identity and per-model entries.
    assert body["default"] == f"default@{body['models']['default']['revision']}"
    model = body["models"]["default"]
    assert model["loaded"] is True
    assert isinstance(model["revision"], str) and len(model["revision"]) == 12
    assert model["requests_served"] >= 0


def test_metrics_reflect_served_traffic(endpoint, pi_source):
    payload = json.dumps({"code": pi_source}).encode()
    _post(f"{endpoint}/v1/advise", payload)
    _post(f"{endpoint}/v1/advise", payload)    # guaranteed cache hit
    status, body = _get(f"{endpoint}/metrics")
    assert status == 200
    assert body["requests_total"] >= 2
    assert body["cache_hits"] >= 1
    assert "batch_size_histogram" in body
    assert body["cache"]["capacity"] == 64


def test_beam_request_roundtrip(endpoint, pi_source):
    """The beam strategy: beam_size/length_penalty are honoured, echoed in
    the response's strategy, and cached separately from the greedy entry."""
    greedy_payload = json.dumps({"code": pi_source}).encode()
    _, greedy_body = _post(f"{endpoint}/v1/advise", greedy_payload)

    beam = {"name": "beam", "beam_size": 2, "length_penalty": 0.6}
    payload = json.dumps({"code": pi_source, "strategy": beam}).encode()
    status, body = _post(f"{endpoint}/v1/advise", payload)
    assert status == 200
    assert body["strategy"] == beam
    assert body["cache_key"] != greedy_body["cache_key"]

    status, again = _post(f"{endpoint}/v1/advise", payload)
    assert status == 200
    assert again["cached"] is True
    assert again["generated_code"] == body["generated_code"]


def _error_body(excinfo) -> dict:
    """The structured envelope: {"error": {"code", "message", "field"}}."""
    body = json.loads(excinfo.value.read())
    envelope = body["error"]
    assert set(envelope) == {"code", "message", "field"}
    return envelope


@pytest.mark.parametrize("fields, status, fragment", [
    # Out-of-range values are 422 (semantically invalid)...
    ({"beam_size": 0}, 422, "beam_size"),
    ({"beam_size": 99}, 422, "beam_size"),
    ({"length_penalty": -1}, 422, "length_penalty"),
    # json.loads accepts these non-standard tokens; the server must not.
    ({"length_penalty": float("nan")}, 422, "length_penalty"),
    ({"length_penalty": float("inf")}, 422, "length_penalty"),
    # ... while type errors are 400 (malformed request).
    ({"beam_size": "four"}, 400, "beam_size"),
    ({"beam_size": True}, 400, "beam_size"),
    ({"length_penalty": "low"}, 400, "length_penalty"),
])
def test_bad_generation_fields_are_rejected(endpoint, pi_source, fields,
                                            status, fragment):
    payload = json.dumps({"code": pi_source,
                          "strategy": {"name": "beam", **fields}}).encode()
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/advise", payload)
    assert excinfo.value.code == status
    envelope = _error_body(excinfo)
    assert fragment in envelope["message"]
    assert envelope["field"] == fragment


@pytest.mark.parametrize("payload, fragment", [
    (b"this is not json", "invalid JSON"),
    (json.dumps({"wrong_field": 1}).encode(), "code"),
    (json.dumps({"code": "   "}).encode(), "code"),
])
def test_bad_requests_are_400(endpoint, payload, fragment):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/advise", payload)
    assert excinfo.value.code == 400
    envelope = _error_body(excinfo)
    assert envelope["code"] == "invalid_request"
    assert fragment in envelope["message"]


@pytest.mark.parametrize("path", ["/v1/advise/stream", "/v1/advise"])
@pytest.mark.parametrize("payload, status, field", [
    (b"not json at all", 400, None),
    (json.dumps({"code": ""}).encode(), 400, "code"),
    (json.dumps({"code": "int main() {}", "beam_size": 0}).encode(),
     422, "beam_size"),
])
def test_error_envelope_is_uniform_across_routes(endpoint, path, payload,
                                                 status, field):
    """The plain and streaming routes answer with the same structured
    envelope and the same 400/422 split, before any stream starts
    (beam_size=0 is sent in its v1 spelling, a strategy object)."""
    if b"beam_size" in payload:
        payload = json.dumps({"code": "int main() {}",
                              "strategy": {"name": "beam",
                                           "beam_size": 0}}).encode()
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}{path}", payload)
    assert excinfo.value.code == status
    envelope = _error_body(excinfo)
    assert envelope["field"] == field


# ------------------------------------------------------------------- v1 API


def test_v1_advise_roundtrip(endpoint, pi_source):
    """POST /v1/advise speaks the AdviseRequest/AdviseResponse contract."""
    payload = json.dumps({"code": pi_source,
                          "strategy": {"name": "beam", "beam_size": 2,
                                       "length_penalty": 0.6}}).encode()
    status, body = _post(f"{endpoint}/v1/advise", payload)
    assert status == 200
    assert body["api_version"] == "v1"
    assert set(body) >= {"generated_code", "advice", "diagnostics", "strategy",
                         "cached", "latency_ms", "cache_key"}
    assert body["strategy"] == {"name": "beam", "beam_size": 2,
                                "length_penalty": 0.6}


def test_v1_advise_rejects_unknown_fields(endpoint, pi_source):
    payload = json.dumps({"code": pi_source, "beam_size": 2}).encode()
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/advise", payload)
    assert excinfo.value.code == 400
    assert _error_body(excinfo)["field"] == "beam_size"


def test_v1_sample_strategy_is_served_and_cached_by_seed(endpoint, pi_source):
    def request(seed):
        payload = json.dumps({"code": pi_source,
                              "strategy": {"name": "sample", "temperature": 0.7,
                                           "seed": seed}}).encode()
        return _post(f"{endpoint}/v1/advise", payload)[1]

    first = request(11)
    again = request(11)
    other = request(12)
    assert again["cached"] is True
    assert again["generated_code"] == first["generated_code"]
    # A different seed is a different cache identity (it may or may not
    # generate different tokens on a tiny model, but it must not be served
    # the other seed's cache entry).
    assert other["cache_key"] != first["cache_key"]


def test_v1_stream_emits_incremental_chunks_then_final(endpoint, pi_source):
    """The acceptance bar: >= 2 incremental NDJSON token chunks arrive
    before the final result for a multi-token generation."""
    payload = json.dumps({"code": pi_source}).encode()
    request = urllib.request.Request(
        f"{endpoint}/v1/advise/stream", data=payload,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=120) as response:
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in response.read().splitlines()]
    assert len(lines) >= 3
    tokens, final = lines[:-1], lines[-1]
    assert final["type"] == "final"
    assert all(chunk["type"] == "token" for chunk in tokens)
    assert len(tokens) >= 2
    assert [chunk["index"] for chunk in tokens] == list(range(len(tokens)))
    # The streamed tokens are exactly the final generated token stream.
    body = final["response"]
    assert body["api_version"] == "v1"
    assert body["generated_code"]
    # A non-stream request for the same buffer shares the cache entry.
    status, direct = _post(f"{endpoint}/v1/advise", payload)
    assert status == 200
    assert direct["cache_key"] == body["cache_key"]
    assert direct["cached"] is True


def test_v1_stream_rejects_invalid_requests_with_envelope(endpoint):
    payload = json.dumps({"code": "int main() {}",
                          "strategy": {"name": "sample",
                                       "temperature": -1}}).encode()
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/advise/stream", payload)
    assert excinfo.value.code == 422
    assert _error_body(excinfo)["field"] == "temperature"


def test_unknown_paths_are_404(endpoint):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{endpoint}/nope")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/nope", b"{}")
    assert excinfo.value.code == 404
    # The pre-v1 route is retired: a valid old body gets the same 404.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/advise", json.dumps({"code": "int main() {}",
                                                "beam_size": 2}).encode())
    assert excinfo.value.code == 404
    assert _error_body(excinfo)["code"] == "not_found"


# ------------------------------------------------------- model lifecycle API


def test_metrics_report_registry_and_per_model_traffic(endpoint, pi_source):
    _post(f"{endpoint}/v1/advise", json.dumps({"code": pi_source}).encode())
    status, body = _get(f"{endpoint}/metrics")
    assert status == 200
    registry = body["registry"]
    assert registry["aliases"]["default"] == "default"
    assert [m["name"] for m in registry["models"]] == ["default"]
    assert registry["models"][0]["loaded"] is True
    # Every served request lands under its resolved name@revision label.
    assert body["requests_by_model"]
    assert all(label.startswith("default@")
               for label in body["requests_by_model"])
    assert sum(body["requests_by_model"].values()) >= 1


def test_v1_models_lists_the_registry(endpoint):
    status, body = _get(f"{endpoint}/v1/models")
    assert status == 200
    assert body["api_version"] == "v1"
    assert body["aliases"] == {"default": "default"}
    (model,) = body["models"]
    assert model["name"] == "default"
    assert body["default"] == f"default@{model['revision']}"
    assert model["source"] == "in-memory"


def test_v1_advise_with_model_reference_echoes_resolved_identity(endpoint,
                                                                 pi_source):
    """Pinning model= (even as the alias) adds the resolved name@revision to
    the response; omitting it keeps the v1.0 response shape exactly."""
    plain = json.dumps({"code": pi_source}).encode()
    status, body = _post(f"{endpoint}/v1/advise", plain)
    assert status == 200
    assert "model" not in body

    pinned = json.dumps({"code": pi_source, "model": "default"}).encode()
    status, with_model = _post(f"{endpoint}/v1/advise", pinned)
    assert status == 200
    assert with_model["model"].startswith("default@")
    # Same model, same strategy, same buffer: one cache identity regardless
    # of whether the request spelled the model out.
    assert with_model["cache_key"] == body["cache_key"]
    assert with_model["cached"] is True

    # The fully-pinned name@revision spelling resolves too.
    exact = json.dumps({"code": pi_source,
                        "model": with_model["model"]}).encode()
    status, exact_body = _post(f"{endpoint}/v1/advise", exact)
    assert status == 200
    assert exact_body["model"] == with_model["model"]


def test_v1_advise_unknown_model_is_422(endpoint, pi_source):
    payload = json.dumps({"code": pi_source, "model": "nope"}).encode()
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/advise", payload)
    assert excinfo.value.code == 422
    envelope = _error_body(excinfo)
    assert envelope["code"] == "unknown_model"
    assert envelope["field"] == "model"


def test_v1_advise_stale_revision_pin_is_422(endpoint, pi_source):
    payload = json.dumps({"code": pi_source,
                          "model": "default@000000000000"}).encode()
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/advise", payload)
    assert excinfo.value.code == 422
    assert _error_body(excinfo)["code"] == "unknown_model"


def test_model_load_and_swap_roundtrip(endpoint, tiny_model, tmp_path):
    """Register-and-load a checkpoint over HTTP, then atomically flip the
    default alias to it and back."""
    checkpoint = tiny_model.save(tmp_path / "lifecycle-ckpt")
    status, body = _post(
        f"{endpoint}/v1/models/lifecycle/load",
        json.dumps({"checkpoint": str(checkpoint)}).encode())
    assert status == 200
    assert body["model"]["name"] == "lifecycle"
    assert body["model"]["loaded"] is True
    # Same weights/config/vocab => same content-hash revision as the
    # in-memory registration of the very same pipeline.
    status, models = _get(f"{endpoint}/v1/models")
    by_name = {m["name"]: m for m in models["models"]}
    assert by_name["lifecycle"]["revision"] == by_name["default"]["revision"]

    status, swap = _post(f"{endpoint}/v1/models/lifecycle/swap", b"")
    assert status == 200
    assert swap["previous"].startswith("default@")
    assert swap["current"].startswith("lifecycle@")
    status, health = _get(f"{endpoint}/healthz")
    assert health["default"].startswith("lifecycle@")

    # Flip back so the module-scoped endpoint keeps its original default.
    status, swap = _post(f"{endpoint}/v1/models/default/swap",
                         json.dumps({"alias": "default"}).encode())
    assert status == 200
    assert swap["current"].startswith("default@")


def test_model_load_missing_checkpoint_is_422(endpoint):
    payload = json.dumps({"checkpoint": "/nonexistent/ckpt"}).encode()
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/models/ghost/load", payload)
    assert excinfo.value.code == 422
    assert _error_body(excinfo)["field"] == "checkpoint"


def test_swap_to_unknown_model_is_422(endpoint):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/models/missing/swap", b"")
    assert excinfo.value.code == 422
    assert _error_body(excinfo)["code"] == "unknown_model"


def test_batch_job_submit_and_poll(endpoint, pi_source):
    """POST /v1/advise/batch answers 202 + job id; polling reaches "done"
    with one ok envelope per item (and items share the interactive cache)."""
    import time

    items = [{"code": pi_source},
             {"code": pi_source, "strategy": {"name": "beam", "beam_size": 2}},
             {"code": pi_source, "model": "no-such-model"}]
    status, job = _post(f"{endpoint}/v1/advise/batch",
                        json.dumps({"items": items}).encode())
    assert status == 202
    assert job["status"] in ("queued", "running", "done")
    assert job["total"] == 3

    deadline = time.monotonic() + 120
    while job["status"] != "done" and time.monotonic() < deadline:
        time.sleep(0.05)
        _, job = _get(f"{endpoint}/v1/jobs/{job['job_id']}")
    assert job["status"] == "done"
    assert job["completed"] == 3
    by_index = {item["index"]: item for item in job["results"]}
    assert by_index[0]["status"] == "ok"
    assert by_index[0]["response"]["api_version"] == "v1"
    assert by_index[1]["status"] == "ok"
    assert by_index[1]["response"]["strategy"]["name"] == "beam"
    # The bad item failed alone, with the standard error envelope.
    assert by_index[2]["status"] == "error"
    assert by_index[2]["error"]["code"] == "unknown_model"


def test_batch_rejects_malformed_submissions_atomically(endpoint, pi_source):
    bad = {"items": [{"code": pi_source}, {"code": pi_source, "oops": 1}]}
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/advise/batch", json.dumps(bad).encode())
    assert excinfo.value.code == 400
    assert _error_body(excinfo)["field"] == "items[1].oops"

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{endpoint}/v1/advise/batch",
              json.dumps({"items": []}).encode())
    assert excinfo.value.code == 400


def test_unknown_job_is_404(endpoint):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{endpoint}/v1/jobs/job-999999")
    assert excinfo.value.code == 404


def test_concurrent_http_clients(endpoint, small_dataset):
    sources = [ex.source_code for ex in small_dataset.splits.test[:4]]
    results: dict[int, dict] = {}
    errors: list[Exception] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        try:
            payload = json.dumps({"code": sources[index]}).encode()
            status, body = _post(f"{endpoint}/v1/advise", payload)
            assert status == 200
            with lock:
                results[index] = body
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(sources))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == len(sources)
    for body in results.values():
        assert "generated_code" in body


# ----------------------------------------------------- durable job tier (HTTP)


def _post_headers(url: str, payload: dict, headers: dict):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **headers})
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def backpressure_endpoint(tiny_model):
    """A server whose job store is tight (queue of 2, one job per client) and
    *gated*: decodes only complete once the yielded gate opens, so unfinished
    backlog is deterministic."""
    from concurrent.futures import Future

    from repro.serving import JobPolicy, JobStore

    service = InferenceService(tiny_model, max_batch_size=4,
                               cache_capacity=16,
                               max_length=60)
    gate = threading.Event()

    class _GatedProxy:
        """Forwards decodes to the real service, but only after the gate."""

        def advise_request_async(self, request):
            future: Future = Future()

            def _run() -> None:
                gate.wait()
                try:
                    future.set_result(service.advise_request(request))
                except Exception as exc:  # noqa: BLE001 — delivered via future
                    future.set_exception(exc)

            threading.Thread(target=_run, daemon=True).start()
            return future

    store = JobStore(_GatedProxy(), policy=JobPolicy(
        max_queue=2, max_inflight_per_client=1, item_timeout=60.0),
        metrics=service.metrics_)
    with service._jobs_lock:
        service._jobs = store
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}", gate, store
    gate.set()
    server.shutdown()
    server.server_close()
    store.close(wait=True, timeout=10)
    service.close()


def test_http_backpressure_and_unavailable_envelopes(backpressure_endpoint,
                                                     pi_source):
    """429 queue_full / 429 quota_exceeded (X-Client-Id keyed) on the way up,
    503 unavailable once the store is closed — all as structured envelopes."""
    url, gate, store = backpressure_endpoint
    body = {"items": [{"code": pi_source}]}

    status, first = _post_headers(f"{url}/v1/advise/batch", body,
                                  {"X-Client-Id": "alice"})
    assert status == 202 and first["job_id"] == "job-1"

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_headers(f"{url}/v1/advise/batch", body, {"X-Client-Id": "alice"})
    assert excinfo.value.code == 429
    assert _error_body(excinfo)["code"] == "quota_exceeded"

    status, second = _post_headers(f"{url}/v1/advise/batch", body,
                                   {"X-Client-Id": "bob"})
    assert status == 202 and second["job_id"] == "job-2"

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_headers(f"{url}/v1/advise/batch", body, {"X-Client-Id": "carol"})
    assert excinfo.value.code == 429
    assert _error_body(excinfo)["code"] == "queue_full"

    # The rejections are observable at /metrics and /healthz.
    _, metrics = _get(f"{url}/metrics")
    assert metrics["jobs_rejected_total"] == 2
    assert metrics["jobs_rejected_by_reason"] == {"queue_full": 1,
                                                  "quota_exceeded": 1}
    assert metrics["jobs"]["backlog"] == 2
    _, health = _get(f"{url}/healthz")
    assert health["jobs"]["rejected_by_reason"]["quota_exceeded"] == 1

    # Open the gate, drain, close the store: submits now answer 503.
    gate.set()
    import time
    deadline = time.monotonic() + 120
    for job_id in ("job-1", "job-2"):
        job = {"status": ""}
        while job["status"] != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
            _, job = _get(f"{url}/v1/jobs/{job_id}")
        assert job["status"] == "done"

    _, health = _get(f"{url}/healthz")
    assert health["jobs"]["closed"] is False

    # Close just the job tier (what service shutdown does first): further
    # submits are a 503 unavailable, not a 500.
    assert store.close(wait=True, timeout=10) is True
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_headers(f"{url}/v1/advise/batch", body, {"X-Client-Id": "dave"})
    assert excinfo.value.code == 503
    assert _error_body(excinfo)["code"] == "unavailable"
    _, health = _get(f"{url}/healthz")
    assert health["jobs"]["closed"] is True


def test_http_expired_vs_unknown_job(tiny_model, pi_source):
    """A TTL-evicted job answers 410 expired; a never-issued id stays 404."""
    import time

    from repro.serving import JobPolicy

    service = InferenceService(tiny_model, max_batch_size=4,
                               cache_capacity=16,
                               max_length=60,
                               job_policy=JobPolicy(ttl_seconds=0.05))
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://{host}:{port}"
    try:
        status, job = _post(f"{url}/v1/advise/batch",
                            json.dumps({"items": [{"code": pi_source}]}).encode())
        assert status == 202
        deadline = time.monotonic() + 120
        while job["status"] != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
            _, job = _get(f"{url}/v1/jobs/{job['job_id']}")
        assert job["status"] == "done"
        time.sleep(0.15)

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{url}/v1/jobs/job-1")
        assert excinfo.value.code == 410
        assert _error_body(excinfo)["code"] == "expired"

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{url}/v1/jobs/job-42")
        assert excinfo.value.code == 404
        assert _error_body(excinfo)["code"] == "not_found"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_healthz_and_metrics_report_job_tier(endpoint):
    """An untouched job tier reports enabled: False (the probes must not
    create the store); metrics always carry the job counters."""
    _, health = _get(f"{endpoint}/healthz")
    assert "jobs" in health
    _, metrics = _get(f"{endpoint}/metrics")
    assert "jobs" in metrics
    assert {"jobs_submitted_total", "jobs_rejected_total",
            "jobs_rejected_by_reason",
            "jobs_dead_letter_total"} <= set(metrics)


# ------------------------------------------------------ robustness satellites


def test_client_id_is_validated_before_use_as_quota_key(endpoint, pi_source):
    """The quota key is adversarial input: an oversized or out-of-charset
    ``X-Client-Id`` is a 400 envelope *before* it touches the quota map or
    the WAL; a sane id still gets its own budget."""
    body = {"items": [{"code": pi_source}]}

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_headers(f"{endpoint}/v1/advise/batch", body,
                      {"X-Client-Id": "x" * 300})
    assert excinfo.value.code == 400
    error = _error_body(excinfo)
    assert error["code"] == "invalid_request"
    assert error["field"] == "X-Client-Id"

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_headers(f"{endpoint}/v1/advise/batch", body,
                      {"X-Client-Id": "spaces are not ok"})
    assert excinfo.value.code == 400
    assert _error_body(excinfo)["field"] == "X-Client-Id"

    # Dots, dashes, colons and @ are all in the allowed charset.
    status, job = _post_headers(f"{endpoint}/v1/advise/batch", body,
                                {"X-Client-Id": "ci-bot.eu:1@host"})
    assert status == 202 and job["job_id"]


def test_backpressure_rejections_carry_retry_after(backpressure_endpoint,
                                                   pi_source):
    """Every backpressure answer tells the client *when* to come back:
    429 quota/queue rejections and the closed-store 503 all carry a
    ``Retry-After`` header (whole seconds, RFC 9110)."""
    url, gate, store = backpressure_endpoint
    body = {"items": [{"code": pi_source}]}

    status, _ = _post_headers(f"{url}/v1/advise/batch", body,
                              {"X-Client-Id": "alice"})
    assert status == 202

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_headers(f"{url}/v1/advise/batch", body, {"X-Client-Id": "alice"})
    assert excinfo.value.code == 429
    assert _error_body(excinfo)["code"] == "quota_exceeded"
    assert excinfo.value.headers["Retry-After"] == "1"

    status, _ = _post_headers(f"{url}/v1/advise/batch", body,
                              {"X-Client-Id": "bob"})
    assert status == 202
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_headers(f"{url}/v1/advise/batch", body, {"X-Client-Id": "carol"})
    assert excinfo.value.code == 429
    assert _error_body(excinfo)["code"] == "queue_full"
    assert excinfo.value.headers["Retry-After"] == "1"

    # Drain and close the store: unavailable hints a longer pause.
    gate.set()
    assert store.close(wait=True, timeout=30) is True
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_headers(f"{url}/v1/advise/batch", body, {"X-Client-Id": "dave"})
    assert excinfo.value.code == 503
    assert _error_body(excinfo)["code"] == "unavailable"
    assert excinfo.value.headers["Retry-After"] == "2"


def test_drain_mode_stops_new_work_and_reports_pending(tiny_model, pi_source):
    """POST /admin/drain flips the worker into drain mode: /healthz answers
    503 with the pending count, new advise/stream/batch work gets a 503
    unavailable with Retry-After, and /metrics stays observable."""
    service = InferenceService(tiny_model, max_batch_size=4,
                               cache_capacity=16,
                               max_length=60)
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = f"http://{host}:{port}"
    try:
        payload = json.dumps({"code": pi_source}).encode()
        status, _ = _post(f"{url}/v1/advise", payload)
        assert status == 200

        status, drain = _post(f"{url}/admin/drain", b"")
        assert status == 200
        assert drain["draining"] is True and drain["pending"] == 0
        status, again = _post(f"{url}/admin/drain", b"")  # idempotent
        assert status == 200 and again["draining"] is True

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{url}/healthz")
        assert excinfo.value.code == 503
        health = json.loads(excinfo.value.read())
        assert health["status"] == "draining"
        assert health["draining"] is True and health["pending"] == 0

        for path in ("/v1/advise", "/v1/advise/stream"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{url}{path}", payload)
            assert excinfo.value.code == 503
            assert _error_body(excinfo)["code"] == "unavailable"
            assert excinfo.value.headers["Retry-After"] == "1"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{url}/v1/advise/batch",
                  json.dumps({"items": [{"code": pi_source}]}).encode())
        assert excinfo.value.code == 503

        status, metrics = _get(f"{url}/metrics")
        assert status == 200 and metrics["draining"] is True
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_probes_race_wal_replay_and_store_close_without_blocking(
        tiny_model, pi_source, tmp_path):
    """Liveness probes must stay cheap no matter what the job tier is doing:
    hammering /healthz + /metrics must never *create* the job store, and
    probes must keep answering promptly while the first submit replays the
    WAL, while the store closes, and while the worker drains."""
    import time

    service = InferenceService(tiny_model, max_batch_size=4,
                               cache_capacity=16,
                               max_length=60,
                               registry_root=str(tmp_path / "root"))
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = f"http://{host}:{port}"

    failures: list[str] = []
    probes = [0]
    stop = threading.Event()
    lock = threading.Lock()

    def probe_loop() -> None:
        while not stop.is_set():
            for path in ("/healthz", "/metrics"):
                started = time.monotonic()
                try:
                    with urllib.request.urlopen(f"{url}{path}",
                                                timeout=5) as response:
                        response.read()
                except urllib.error.HTTPError as exc:
                    exc.read()  # 503 while draining is fine — just answer
                except Exception as exc:  # noqa: BLE001 — a blocked probe
                    with lock:
                        failures.append(
                            f"{path}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    with lock:
                        probes[0] += 1
                elapsed = time.monotonic() - started
                if elapsed > 5.0:
                    with lock:
                        failures.append(f"{path} blocked {elapsed:.1f}s")

    threads = [threading.Thread(target=probe_loop) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        time.sleep(0.3)
        # Probes alone must not have opened the WAL.
        assert service.job_store() is None

        # First submit replays the WAL under live probe fire.
        status, job = _post(
            f"{url}/v1/advise/batch",
            json.dumps({"items": [{"code": pi_source}]}).encode())
        assert status == 202
        deadline = time.monotonic() + 120
        while job["status"] != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
            _, job = _get(f"{url}/v1/jobs/{job['job_id']}")
        assert job["status"] == "done"
        store = service.job_store()
        assert store is not None

        # Store close and drain mode, still under probe fire.
        assert store.close(wait=True, timeout=30) is True
        status, drained = _post(f"{url}/admin/drain", b"")
        assert status == 200 and drained["draining"] is True
        time.sleep(0.3)
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
        server.shutdown()
        server.server_close()
        service.close()
    assert not failures, failures
    assert probes[0] > 0
