"""InferenceService: correctness vs. the direct assistant, caching, metrics."""

from __future__ import annotations

import pytest

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


def _direct_session(assistant, source, strategy=None):
    # Mirror the service's decode settings so sessions are comparable.
    from repro.clang.parser import parse_source_with_diagnostics
    from repro.mpirical import build_advice_session

    from repro.xsbt.xsbt import xsbt_string

    unit, diagnostics = parse_source_with_diagnostics(source)
    result = assistant.mpirical.predict_code(source, xsbt_string(unit),
                                             strategy=strategy, max_length=FAST)
    return build_advice_session(diagnostics, result)


def test_served_session_matches_direct_advise(service, direct_assistant, pi_source):
    served = service.advise(pi_source, timeout=120)
    assert served.session == _direct_session(direct_assistant, pi_source)
    assert served.latency_ms >= 0
    assert served.cache_key


def test_second_identical_request_hits_the_cache(service, pi_source):
    before = service.metrics()["cache_hits"]
    first = service.advise(pi_source, timeout=120)
    again = service.advise(pi_source, timeout=120)
    assert again.cached
    assert again.session == first.session
    assert service.metrics()["cache_hits"] >= before + 1


def test_reformatted_buffer_hits_the_cache(service, direct_assistant, pi_source):
    """Canonical keying: cosmetic edits must not cost another decode."""
    service.advise(pi_source, timeout=120)
    reformatted = "// reviewed\n" + pi_source.replace("    ", "\t")
    served = service.advise(reformatted, timeout=120)
    assert served.cached
    # The hit must be anchored to the *requesting* buffer: identical to what
    # a fresh advise on the reformatted text would produce.
    assert served.session == _direct_session(direct_assistant, reformatted)


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
    futures = [service.advise_async(src) for src in sources]
    served = [future.result(timeout=120) for future in futures]
    for source, response in zip(sources, served):
        assert response.session == _direct_session(direct_assistant, source)

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
    assert not service.advise(fresh, timeout=120).cached  # guaranteed miss
    snapshot = service.metrics()
    assert snapshot["decode_latency_window"] == snapshot["cache_misses"] >= 1
    assert (snapshot["decode_latency_ms_p95"]
            >= snapshot["decode_latency_ms_p50"] > 0)
    # Decode time is part of (so bounded by) the end-to-end window max.
    assert snapshot["decode_latency_ms_p50"] <= snapshot["latency_ms_max"]
    before = snapshot["decode_latency_window"]
    assert service.advise(fresh, timeout=120).cached  # warm replay
    assert service.metrics()["decode_latency_window"] == before


def test_beam_request_matches_direct_beam_predict(service, direct_assistant,
                                                  pi_source):
    """A beam strategy decodes through the batched beam path and matches a
    direct per-example beam predict bit-for-bit."""
    beam = BeamStrategy(beam_size=2, length_penalty=0.6)
    served = service.advise(pi_source, strategy=beam, timeout=120)
    assert served.session == _direct_session(direct_assistant, pi_source, beam)
    assert served.strategy == beam


def test_beam_and_greedy_requests_use_separate_cache_entries(service, pi_source):
    greedy = service.advise(pi_source, timeout=120)
    beam = BeamStrategy(beam_size=3)
    beam_first = service.advise(pi_source, strategy=beam, timeout=120)
    assert beam_first.cache_key != greedy.cache_key
    beam_again = service.advise(pi_source, strategy=beam, timeout=120)
    assert beam_again.cached
    assert beam_again.session == beam_first.session


def test_metrics_report_batches_per_generation_config(service, pi_source,
                                                      small_dataset):
    source = small_dataset.splits.test[6].source_code
    service.advise(source, timeout=120)                 # greedy miss
    service.advise(source, strategy=BeamStrategy(beam_size=2),
                   timeout=120)                         # beam miss
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
    with pytest.raises(ValueError, match="beam_size"):
        service.advise(pi_source, strategy=BeamStrategy(beam_size=0),
                       timeout=120)
    # Negative and non-finite penalties would poison the beam ranking and
    # the cache key.
    for penalty in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="length_penalty"):
            service.advise(pi_source,
                           strategy=BeamStrategy(length_penalty=penalty),
                           timeout=120)


def test_abandoned_stream_still_populates_the_cache(service):
    """A streaming client that disconnects mid-stream must not waste the
    decode: the worker caches the completed result, so a retry replays."""
    import time as time_module

    from repro.api import AdviseRequest

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
    assert service.advise(source, timeout=120).cached


def test_cache_disabled_service_always_decodes(tiny_model, pi_source):
    with InferenceService(tiny_model, max_batch_size=2,
                          cache_capacity=0, max_length=FAST) as svc:
        assert svc.cache is None
        first = svc.advise(pi_source, timeout=120)
        second = svc.advise(pi_source, timeout=120)
        assert not first.cached and not second.cached
        assert first.session == second.session
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
        service.advise(body, timeout=120)
        lexes.clear()
    assert service.advise(body, timeout=120).cached is cached
    assert lexes[body] == 1


@pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
def test_advise_stream_lexes_the_body_once(service, lexes, cached):
    from repro.api import AdviseRequest

    body = f"int main() {{ int lex_once_stream_{cached} = 5; return 0; }}"
    if cached:
        service.advise(body, timeout=120)
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
