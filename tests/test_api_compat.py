"""Backward-compat shim regression: legacy surfaces behave bit-identically.

Satellite of ISSUE 4: the pre-v1 spellings — ``/advise`` bodies,
``predict_*(beam_size=, length_penalty=)``, ``service.advise(beam_size=)`` —
must keep producing byte-identical results while emitting a single
:class:`DeprecationWarning`, with the v1 strategy path as the one
implementation underneath.
"""

from __future__ import annotations

import warnings

import pytest

from repro.api import AdviseRequest
from repro.model.decoding import BeamStrategy, GreedyStrategy
from repro.model.generation import GenerationConfig
from repro.serving import InferenceService

FAST = GenerationConfig(max_length=60)


@pytest.fixture(scope="module")
def service(tiny_model):
    with InferenceService(tiny_model, max_batch_size=4,
                          cache_capacity=64, generation=FAST) as svc:
        yield svc


def _single_deprecation(caught) -> None:
    assert len([w for w in caught
                if issubclass(w.category, DeprecationWarning)]) == 1


# -------------------------------------------------------------- predict_*


def test_predict_legacy_kwargs_warn_once_and_match_strategy_path(tiny_model,
                                                                 pi_source):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        legacy = tiny_model.predict_code(pi_source, beam_size=2,
                                         length_penalty=0.6)
    _single_deprecation(caught)
    via_strategy = tiny_model.predict_code(
        pi_source, strategy=BeamStrategy(beam_size=2, length_penalty=0.6))
    assert legacy == via_strategy


def test_predict_generation_config_still_maps_onto_strategies(tiny_model,
                                                              pi_source):
    """The pre-strategy generation= spelling keeps working unwarned and is
    bitwise identical to the explicit strategy path (the acceptance bar:
    greedy and beam outputs unchanged by the refactor)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        greedy = tiny_model.predict_tokens(pi_source)
        beam = tiny_model.predict_tokens(
            pi_source, generation=GenerationConfig(max_length=400, beam_size=2,
                                                   length_penalty=0.6))
    assert greedy == tiny_model.predict_tokens(pi_source,
                                               strategy=GreedyStrategy())
    assert beam == tiny_model.predict_tokens(
        pi_source, strategy=BeamStrategy(beam_size=2, length_penalty=0.6))


def test_predict_rejects_mixing_legacy_kwargs_with_strategy(tiny_model,
                                                            pi_source):
    with pytest.raises(ValueError, match="not both"):
        tiny_model.predict_code(pi_source, strategy=GreedyStrategy(),
                                beam_size=2)


# ---------------------------------------------------------------- service


def test_service_legacy_kwargs_warn_once_and_share_the_v1_cache(service,
                                                                pi_source):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        legacy = service.advise(pi_source, beam_size=2, length_penalty=0.6,
                                timeout=120)
    _single_deprecation(caught)

    request = AdviseRequest(code=pi_source,
                            strategy=BeamStrategy(beam_size=2,
                                                  length_penalty=0.6))
    response = service.advise_request(request, timeout=120)
    # One cache identity: the v1 request is answered by the legacy decode.
    assert response.cached is True
    assert response.cache_key == legacy.cache_key
    assert response.generated_code == legacy.session.generated_code


def test_partial_legacy_overrides_merge_onto_the_service_default(tiny_model):
    """Pre-v1 semantics: beam_size= alone keeps the configured length
    penalty, length_penalty= alone keeps the configured beam size."""
    base = GenerationConfig(max_length=60, beam_size=3, length_penalty=0.7)
    with InferenceService(tiny_model, max_batch_size=2,
                          cache_capacity=8, generation=base) as svc:
        assert svc.legacy_strategy(4, None) == BeamStrategy(
            beam_size=4, length_penalty=0.7)
        assert svc.legacy_strategy(None, 0.9) == BeamStrategy(
            beam_size=3, length_penalty=0.9)
        assert svc.legacy_strategy(1, None) == GreedyStrategy()
        with pytest.raises(ValueError, match="beam_size"):
            svc.legacy_strategy(99, None)


def test_plain_service_advise_does_not_warn(service, pi_source):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        served = service.advise(pi_source, timeout=120)
    assert served.session.generated_code


def test_served_advice_keeps_the_legacy_generation_view(service, pi_source):
    served = service.advise(pi_source, strategy=BeamStrategy(beam_size=2),
                            timeout=120)
    assert served.generation.beam_size == 2
    assert served.generation.max_length == FAST.max_length
    assert served.strategy == BeamStrategy(beam_size=2)


def test_legacy_penalty_echo_survives_greedy_normalisation(service, pi_source):
    """Pre-v1 echo semantics: a greedy request with an explicit penalty
    echoes that penalty (the merged config), even though the penalty is
    normalised away for caching/batching."""
    from repro.serving.server import advice_payload

    served = service.advise_legacy_async(pi_source, None, 0.9).result(120)
    assert served.strategy == GreedyStrategy()          # the decode identity
    payload = advice_payload(served)
    assert payload["beam_size"] == 1
    assert payload["length_penalty"] == 0.9             # the faithful echo
    # ... and it shares the greedy cache entry (penalty only reranks beams).
    assert service.advise(pi_source, timeout=120).cache_key == served.cache_key


def test_legacy_http_payload_shape(service, pi_source):
    """advice_payload (the /advise body) keeps the exact pre-v1 key set and
    order — the byte-identical response surface of the shim."""
    from repro.serving.server import advice_payload

    served = service.advise(pi_source, timeout=120)
    payload = advice_payload(served)
    assert list(payload) == ["generated_code", "advice", "diagnostics",
                             "cached", "latency_ms", "cache_key",
                             "beam_size", "length_penalty"]
    for item in payload["advice"]:
        assert set(item) >= {"function", "insert_after_line", "statement",
                             "confidence", "note", "rendered"}
