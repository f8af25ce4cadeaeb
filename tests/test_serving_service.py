"""InferenceService: correctness vs. the direct assistant, caching, metrics."""

from __future__ import annotations

import pytest

from repro.api import AdviseRequest, ApiError, advice_items
from repro.model.decoding import BeamStrategy
from repro.mpirical import MPIAssistant
from repro.serving import InferenceService

#: Short decodes keep the serving tests fast; correctness is unaffected
#: because the direct-comparison path uses the same settings.
FAST = 60


@pytest.fixture(scope="module")
def service(tiny_model):
    with InferenceService(tiny_model, max_batch_size=4,
                          cache_capacity=64,
                          max_length=FAST) as svc:
        yield svc


@pytest.fixture(scope="module")
def direct_assistant(tiny_model):
    return MPIAssistant(tiny_model)


def _direct_advice(assistant, source, strategy=None):
    """The ``(generated_code, advice, diagnostics)`` a served response must
    carry: the direct session's, with the service's decode settings."""
    from repro.clang.parser import parse_source_with_diagnostics
    from repro.mpirical import build_advice_session

    from repro.xsbt.xsbt import xsbt_string

    unit, diagnostics = parse_source_with_diagnostics(source)
    result = assistant.mpirical.predict_code(source, xsbt_string(unit),
                                             strategy=strategy, max_length=FAST)
    session = build_advice_session(diagnostics, result)
    return (session.generated_code, advice_items(session),
            tuple(session.parse_diagnostics))


def _served(response):
    return response.generated_code, response.advice, response.diagnostics


def _advise(service, code, **fields):
    return service.advise_request(AdviseRequest(code=code, **fields),
                                  timeout=120)


def test_served_session_matches_direct_advise(service, direct_assistant, pi_source):
    served = _advise(service, pi_source)
    assert _served(served) == _direct_advice(direct_assistant, pi_source)
    assert served.latency_ms >= 0
    assert served.cache_key


def test_second_identical_request_hits_the_cache(service, pi_source):
    before = service.metrics()["cache_hits"]
    first = _advise(service, pi_source)
    again = _advise(service, pi_source)
    assert again.cached
    assert _served(again) == _served(first)
    assert service.metrics()["cache_hits"] >= before + 1


def test_reformatted_buffer_hits_the_cache(service, direct_assistant, pi_source):
    """Canonical keying: cosmetic edits must not cost another decode."""
    _advise(service, pi_source)
    reformatted = "// reviewed\n" + pi_source.replace("    ", "\t")
    served = _advise(service, reformatted)
    assert served.cached
    # The hit must be anchored to the *requesting* buffer: identical to what
    # a fresh advise on the reformatted text would produce.
    assert _served(served) == _direct_advice(direct_assistant, reformatted)


def test_cache_hits_reanchor_advice_to_the_requesting_buffer():
    """A layout-shifting edit moves suggestion anchors, not just cache keys."""
    from repro.mpirical.pipeline import PredictionResult
    from repro.serving.service import anchor_result

    generated = ("int main(int argc, char **argv) {\n"
                 "    MPI_Init(&argc, &argv);\n"
                 "    return 0;\n"
                 "}\n")
    original = "int main(int argc, char **argv) {\n    return 0;\n}\n"
    shifted = "// reviewed, looks good\n" + original   # same canonical form

    cached = PredictionResult(generated_code=generated, generated_tokens=[])
    anchor_original = anchor_result(original, cached).suggestions[0].insert_after_line
    anchor_shifted = anchor_result(shifted, cached).suggestions[0].insert_after_line
    assert anchor_shifted == anchor_original + 1


def test_concurrent_requests_are_batched_and_correct(service, direct_assistant,
                                                     small_dataset):
    sources = [ex.source_code for ex in small_dataset.splits.test[:6]]
    futures = [service.advise_request_async(AdviseRequest(code=src))
               for src in sources]
    served = [future.result(timeout=120) for future in futures]
    for source, response in zip(sources, served):
        assert _served(response) == _direct_advice(direct_assistant, source)

    snapshot = service.metrics()
    assert snapshot["batches_total"] >= 1
    assert snapshot["requests_total"] >= len(sources)
    assert sum(snapshot["batch_size_histogram"].values()) == snapshot["batches_total"]
    assert snapshot["latency_ms_p95"] >= snapshot["latency_ms_p50"] >= 0
    assert snapshot["cache"]["capacity"] == 64
    assert snapshot["errors_total"] == 0


def test_metrics_hit_rate_consistency(service):
    snapshot = service.metrics()
    assert snapshot["cache_hits"] + snapshot["cache_misses"] == snapshot["requests_total"]
    if snapshot["requests_total"]:
        expected = snapshot["cache_hits"] / snapshot["requests_total"]
        assert snapshot["cache_hit_rate"] == pytest.approx(expected)


def test_decode_latency_is_recorded_per_decoded_request(service):
    """Every cache miss rides exactly one batched decode, and that decode's
    wall time is sampled per request (``decode_latency_ms_*``); cache hits
    never add decode samples."""
    fresh = "int main() { int decode_latency_probe = 7; return decode_latency_probe; }"
    assert not _advise(service, fresh).cached  # guaranteed miss
    snapshot = service.metrics()
    assert snapshot["decode_latency_window"] == snapshot["cache_misses"] >= 1
    assert (snapshot["decode_latency_ms_p95"]
            >= snapshot["decode_latency_ms_p50"] > 0)
    # Decode time is part of (so bounded by) the end-to-end window max.
    assert snapshot["decode_latency_ms_p50"] <= snapshot["latency_ms_max"]
    before = snapshot["decode_latency_window"]
    assert _advise(service, fresh).cached  # warm replay
    assert service.metrics()["decode_latency_window"] == before


def test_beam_request_matches_direct_beam_predict(service, direct_assistant,
                                                  pi_source):
    """A beam strategy decodes through the batched beam path and matches a
    direct per-example beam predict bit-for-bit."""
    beam = BeamStrategy(beam_size=2, length_penalty=0.6)
    served = _advise(service, pi_source, strategy=beam)
    assert _served(served) == _direct_advice(direct_assistant, pi_source, beam)
    assert served.strategy == beam


def test_beam_and_greedy_requests_use_separate_cache_entries(service, pi_source):
    greedy = _advise(service, pi_source)
    beam = BeamStrategy(beam_size=3)
    beam_first = _advise(service, pi_source, strategy=beam)
    assert beam_first.cache_key != greedy.cache_key
    beam_again = _advise(service, pi_source, strategy=beam)
    assert beam_again.cached
    assert _served(beam_again) == _served(beam_first)


def test_metrics_report_batches_per_generation_config(service, pi_source,
                                                      small_dataset):
    source = small_dataset.splits.test[6].source_code
    _advise(service, source)                                  # greedy miss
    _advise(service, source, strategy=BeamStrategy(beam_size=2))  # beam miss
    snapshot = service.metrics()
    by_config = snapshot["batches_by_config"]
    assert "greedy" in by_config
    assert any(label.startswith("beam2") for label in by_config)
    assert sum(entry["batches"] for entry in by_config.values()) == \
        snapshot["batches_total"]


def test_per_config_metric_cardinality_is_bounded():
    """A client sweeping length penalties must not grow /metrics forever."""
    from repro.serving import Metrics

    metrics = Metrics()
    batches = metrics.labelled("batches_by_config")
    for n in range(Metrics.MAX_LABELS + 20):
        batches.inc((f"beam4:lp0.{n:04d}", "batches"))
    by_config = metrics.snapshot()["batches_by_config"]
    assert len(by_config) <= Metrics.MAX_LABELS + 1
    assert by_config["other"]["batches"] == 20
    # Already-known labels keep accumulating under their own key.
    batches.inc(("beam4:lp0.0000", "batches"))
    assert metrics.snapshot()["batches_by_config"]["beam4:lp0.0000"]["batches"] == 2


def test_invalid_generation_overrides_are_rejected(service, pi_source):
    with pytest.raises(ApiError, match="beam_size"):
        _advise(service, pi_source, strategy=BeamStrategy(beam_size=0))
    # Negative and non-finite penalties would poison the beam ranking and
    # the cache key.
    for penalty in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ApiError, match="length_penalty"):
            _advise(service, pi_source,
                    strategy=BeamStrategy(length_penalty=penalty))


def test_abandoned_stream_still_populates_the_cache(service):
    """A streaming client that disconnects mid-stream must not waste the
    decode: the worker caches the completed result, so a retry replays."""
    import time as time_module

    from repro.serving.cache import canonical_cache_key

    source = "int main() { int abandoned_stream_probe = 9; return 0; }"
    stream = service.advise_stream(AdviseRequest(code=source))
    first = next(stream)          # start the decode, take one chunk ...
    assert first["type"] in ("token", "final")
    del stream                    # ... then abandon the generator (disconnect)

    # The stream's greedy cache identity — keys embed the model@revision
    # that served the request, so derive it from the service's registry.
    key = canonical_cache_key(source,
                              model=service.registry.default_identity())
    deadline = time_module.time() + 60
    while time_module.time() < deadline and key not in service.cache:
        time_module.sleep(0.05)
    assert key in service.cache, \
        "decode result of an abandoned stream was discarded"
    assert _advise(service, source).cached


class _HeldSubmits:
    """Hold the scheduler's submits until :meth:`release`, so every decode
    submitted meanwhile is in flight at once and none finishes first."""

    def __init__(self, monkeypatch, service) -> None:
        self.works: list = []
        self._submit = service.sched.submit
        monkeypatch.setattr(service.sched, "submit",
                            lambda work: self.works.append(work) or work.future)

    def wait_for(self, count: int) -> None:
        import time as time_module

        deadline = time_module.monotonic() + 60
        while len(self.works) < count and time_module.monotonic() < deadline:
            time_module.sleep(0.01)
        assert len(self.works) == count

    def release(self) -> None:
        for work in self.works:
            self._submit(work)


def _consume_stream(service, request, into: list):
    import threading

    thread = threading.Thread(
        target=lambda: into.extend(service.advise_stream(request)))
    thread.start()
    return thread


def test_concurrent_streamed_misses_start_no_decode_thread(service,
                                                           monkeypatch):
    """A streamed miss rides the scheduler's callbacks on the one request
    path, not an OS thread of its own."""
    import threading

    held = _HeldSubmits(monkeypatch, service)
    streams = [[] for _ in range(3)]
    clients = [_consume_stream(service, AdviseRequest(
        code=f"int main() {{ int stream_thread_probe_{n} = {n}; return 0; }}"),
        chunks) for n, chunks in enumerate(streams)]
    try:
        held.wait_for(len(streams))  # every stream's decode is open
        names = [thread.name for thread in threading.enumerate()]
    finally:
        held.release()
        for client in clients:
            client.join(timeout=120)
    assert "advise-stream" not in names
    assert all(chunks[-1]["type"] == "final" for chunks in streams)


def test_stream_and_identical_call_in_flight_together(service,
                                                      direct_assistant,
                                                      monkeypatch):
    """A stream never follows another request's decode nor touches its
    single-flight entry: both decode, both answer the sequential
    reference, and afterwards no entry or lease is left behind."""
    body = "int main() { int stream_and_call = 11; return stream_and_call; }"
    request = AdviseRequest(code=body)
    held = _HeldSubmits(monkeypatch, service)
    call = service.advise_request_async(request)  # owns the in-flight entry
    chunks: list = []
    client = _consume_stream(service, request, chunks)
    try:
        held.wait_for(2)
    finally:
        held.release()
        client.join(timeout=120)
    reference = _direct_advice(direct_assistant, body)[0]
    response = call.result(timeout=120)
    final = chunks[-1]["response"]
    assert response.generated_code == final["generated_code"] == reference
    assert not response.cached and not final["cached"]
    assert service._inflight == {}
    assert service.registry.default_entry().leases == 0


def test_streamed_miss_and_hit_yield_the_same_token_chunks(service):
    request = AdviseRequest(
        code="int main() { int replayed_stream = 13; return replayed_stream; }")
    miss = list(service.advise_stream(request))
    hit = list(service.advise_stream(request))
    assert miss[-1]["response"]["cached"] is False
    assert hit[-1]["response"]["cached"] is True
    assert hit[:-1] == miss[:-1]
    assert len(miss) > 2  # token chunks were streamed, not just a final
    assert hit[-1]["response"]["generated_code"] == \
        miss[-1]["response"]["generated_code"]


def test_streamed_hit_yields_its_first_token_before_building_the_response(
        service, monkeypatch):
    """A hit's tokens are known at lookup: the stream sends the first one
    before ``_resolve`` anchors the advice and builds the response."""
    request = AdviseRequest(
        code="int main() { int first_token_probe = 17; return first_token_probe; }")
    assert len(list(service.advise_stream(request))) > 2  # populates the cache
    events = []
    resolve = service._resolve

    def recording(*args, **kwargs):
        events.append("resolve")
        return resolve(*args, **kwargs)

    monkeypatch.setattr(service, "_resolve", recording)
    stream = service.advise_stream(request)
    first = next(stream)
    events.append(first["type"])
    final = list(stream)[-1]
    assert final["response"]["cached"] is True
    assert events == ["token", "resolve"]


def test_streamed_hit_closed_after_its_first_token_still_counts(service):
    request = AdviseRequest(
        code="int main() { int closed_hit_probe = 19; return closed_hit_probe; }")
    assert len(list(service.advise_stream(request))) > 2  # populates the cache
    before = service.metrics()
    stream = service.advise_stream(request)
    assert next(stream)["type"] == "token"
    stream.close()
    after = service.metrics()
    assert after["requests_total"] == before["requests_total"] + 1
    assert after["cache_hits"] == before["cache_hits"] + 1


def test_each_served_request_counts_once(tiny_model, pi_source):
    """A miss, a hit, a stream and a job item: /healthz, /v1/models and
    /metrics ``requests_by_model`` all read 4 for the serving model."""
    import json
    import threading
    import time as time_module
    import urllib.request

    from repro.serving.server import make_server

    with InferenceService(tiny_model, cache_capacity=16,
                          max_length=FAST) as svc:
        server = make_server(svc, port=0, quiet=True)
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()

        def call(path, payload=None):
            data = json.dumps(payload).encode() if payload is not None else None
            request = urllib.request.Request(
                f"http://{host}:{port}{path}", data=data,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.read()

        try:
            call("/v1/advise", {"code": pi_source})  # miss
            call("/v1/advise", {"code": pi_source})  # hit
            call("/v1/advise/stream",
                 {"code": "int main() { int counted_stream = 1; return 0; }"})
            job = json.loads(call("/v1/advise/batch", {"items": [
                {"code": "int main() { int counted_job = 2; return 0; }"}]}))
            deadline = time_module.monotonic() + 120
            while job["status"] != "done" and time_module.monotonic() < deadline:
                time_module.sleep(0.05)
                job = json.loads(call(f"/v1/jobs/{job['job_id']}"))
            healthz = json.loads(call("/healthz"))
            models = json.loads(call("/v1/models"))
            metrics = json.loads(call("/metrics"))
        finally:
            server.shutdown()
            server.server_close()
        identity = svc.registry.default_identity()
    assert job["status"] == "done"
    assert healthz["models"]["default"]["requests_served"] == 4
    assert [model["requests_served"] for model in models["models"]] == [4]
    assert metrics["requests_by_model"] == {identity: 4}
    assert metrics["registry"]["models"][0]["requests_served"] == 4


def test_cache_disabled_service_always_decodes(tiny_model, pi_source):
    with InferenceService(tiny_model, max_batch_size=2,
                          cache_capacity=0, max_length=FAST) as svc:
        assert svc.cache is None
        first = _advise(svc, pi_source)
        second = _advise(svc, pi_source)
        assert not first.cached and not second.cached
        assert _served(first) == _served(second)
        assert svc.metrics()["cache"] == {"enabled": False}


def test_close_is_idempotent(tiny_model):
    svc = InferenceService(tiny_model, cache_capacity=4, max_length=FAST)
    svc.close()
    svc.close()


# ---------------------------------------------------------- one lex per request


@pytest.fixture
def lexes(monkeypatch):
    """Count the lexer runs per buffer text while the test runs."""
    from collections import Counter

    from repro.clang.lexer import Lexer

    counts: Counter = Counter()
    tokenize = Lexer.tokenize

    def counting(self):
        counts[self.source] += 1
        return tokenize(self)

    monkeypatch.setattr(Lexer, "tokenize", counting)
    return counts


@pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
def test_advise_lexes_the_body_once(service, lexes, cached):
    body = f"int main() {{ int lex_once_advise_{cached} = 3; return 0; }}"
    if cached:
        _advise(service, body)
        lexes.clear()
    assert _advise(service, body).cached is cached
    assert lexes[body] == 1


@pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
def test_advise_stream_lexes_the_body_once(service, lexes, cached):
    body = f"int main() {{ int lex_once_stream_{cached} = 5; return 0; }}"
    if cached:
        _advise(service, body)
        lexes.clear()
    chunks = list(service.advise_stream(AdviseRequest(code=body)))
    assert chunks[-1]["response"]["cached"] is cached
    assert lexes[body] == 1


def test_router_affinity_key_lexes_the_body_once(lexes):
    import json

    from repro.serving.router import Router

    body = "int main() { int lex_once_router = 7; return 0; }"
    raw = json.dumps({"code": body, "strategy": {"name": "greedy"}}).encode()
    Router._derive_affinity_key(raw)
    assert lexes[body] == 1
