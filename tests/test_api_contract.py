"""repro.api v1 contract: round-trips, strict validation, error envelope.

The property tests hold **every registered strategy** to the wire contract:
``AdviseRequest.from_dict(r.to_dict()) == r`` over randomly drawn valid
parameters, so a new strategy cannot register without a lossless
serialisation.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import (
    AdviseRequest,
    AdviseResponse,
    ApiError,
    strategy_matrix,
)
from repro.model.decoding import (
    MAX_BEAM_SIZE,
    BeamStrategy,
    GreedyStrategy,
    SampleStrategy,
    StrategyParamError,
    registered_strategies,
    strategy_from_dict,
)

CODE = "int main(int argc, char **argv) { return 0; }\n"

# Finite, non-degenerate floats for strategy knobs (the contract rejects
# NaN/inf separately).
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


def valid_strategies():
    """A hypothesis strategy drawing valid instances of every registered
    DecodingStrategy — the registry is the source of truth, so adding a
    strategy automatically adds it to the round-trip property."""
    assert set(registered_strategies()) == {"greedy", "beam", "sample"}
    return st.one_of(
        st.just(GreedyStrategy()),
        st.builds(BeamStrategy,
                  beam_size=st.integers(min_value=1, max_value=MAX_BEAM_SIZE),
                  length_penalty=finite.filter(lambda x: x >= 0)),
        st.builds(SampleStrategy,
                  temperature=finite.filter(lambda x: x > 0),
                  top_k=st.integers(min_value=0, max_value=64),
                  top_p=finite.filter(lambda x: 0 < x <= 1),
                  seed=st.integers(min_value=0, max_value=2**31)),
    )


# ------------------------------------------------------------- round-trips


@given(strategy=valid_strategies())
def test_every_registered_strategy_roundtrips_through_request_dict(strategy):
    request = AdviseRequest(code=CODE, strategy=strategy)
    assert AdviseRequest.from_dict(request.to_dict()) == request


@given(strategy=valid_strategies())
def test_strategy_wire_form_roundtrips(strategy):
    assert strategy_from_dict(strategy.to_dict()) == strategy


@given(strategy=valid_strategies())
def test_model_reference_roundtrips_and_stays_off_the_wire_when_absent(strategy):
    """v1.1: an explicit model reference round-trips; omitting it keeps the
    request dict byte-identical to v1.0 (no "model" key at all)."""
    plain = AdviseRequest(code=CODE, strategy=strategy)
    assert "model" not in plain.to_dict()
    assert AdviseRequest.from_dict(plain.to_dict()).model is None

    pinned = AdviseRequest(code=CODE, strategy=strategy,
                           model="advisor@abcdef012345")
    assert pinned.to_dict()["model"] == "advisor@abcdef012345"
    assert AdviseRequest.from_dict(pinned.to_dict()) == pinned


@pytest.mark.parametrize("model, status", [
    (7, 400),          # wrong type: malformed request
    ("   ", 400),      # empty reference: malformed request
])
def test_invalid_model_references_are_rejected(model, status):
    with pytest.raises(ApiError) as excinfo:
        AdviseRequest.from_dict({"code": CODE, "model": model})
    assert excinfo.value.status == status
    assert excinfo.value.field == "model"


def test_batch_parse_merges_defaults_and_is_atomic():
    from repro.api import MAX_BATCH_ITEMS, parse_batch_advise

    requests = parse_batch_advise({
        "model": "canary",
        "strategy": {"name": "beam", "beam_size": 2},
        "items": [{"code": CODE},
                  {"code": CODE, "strategy": "greedy", "model": "default"}],
    })
    assert requests[0].model == "canary"
    assert requests[0].strategy.to_dict()["name"] == "beam"
    assert requests[1].model == "default"
    assert requests[1].strategy.to_dict()["name"] == "greedy"

    with pytest.raises(ApiError) as excinfo:
        parse_batch_advise({"items": [{"code": CODE}, {"oops": 1}]})
    assert excinfo.value.status == 400
    assert excinfo.value.field.startswith("items[1]")

    too_many = {"items": [{"code": CODE}] * (MAX_BATCH_ITEMS + 1)}
    with pytest.raises(ApiError) as excinfo:
        parse_batch_advise(too_many)
    assert excinfo.value.status == 422


@given(strategy=valid_strategies())
def test_canonical_form_is_injective_over_drawn_params(strategy):
    """The canonical string embeds every parameter at full repr precision,
    so it reconstructs equality: equal canonicals <=> equal strategies."""
    twin = strategy_from_dict(strategy.to_dict())
    assert twin.canonical() == strategy.canonical()


@given(strategy=valid_strategies())
def test_response_roundtrips_through_dict(strategy):
    response = AdviseResponse(
        generated_code="int main() {}\n",
        advice=({"function": "MPI_Init", "insert_after_line": 1,
                 "statement": "MPI_Init(&argc, &argv);", "confidence": "high",
                 "note": "", "rendered": "[high] ..."},),
        diagnostics=("warning: something",),
        strategy=strategy,
        cached=True,
        latency_ms=1.25,
        cache_key="abc123",
    )
    assert AdviseResponse.from_dict(response.to_dict()) == response


def test_strategy_matrix_lists_every_registered_strategy():
    matrix = strategy_matrix()
    assert set(matrix) == set(registered_strategies())
    for name, defaults in matrix.items():
        assert defaults["name"] == name


# -------------------------------------------------------- strict validation


def test_unknown_top_level_field_is_rejected_by_name():
    with pytest.raises(ApiError) as excinfo:
        AdviseRequest.from_dict({"code": CODE, "beam_size": 4})
    assert excinfo.value.status == 400
    assert excinfo.value.field == "beam_size"


def test_unknown_strategy_parameter_is_rejected_by_name():
    with pytest.raises(ApiError) as excinfo:
        AdviseRequest.from_dict(
            {"code": CODE, "strategy": {"name": "greedy", "temperature": 1.0}})
    assert excinfo.value.status == 400
    assert excinfo.value.field == "temperature"


def test_missing_code_is_a_400():
    with pytest.raises(ApiError) as excinfo:
        AdviseRequest.from_dict({"strategy": "greedy"})
    assert excinfo.value.status == 400
    assert excinfo.value.field == "code"


def test_bare_strategy_name_string_is_accepted():
    request = AdviseRequest.from_dict({"code": CODE, "strategy": "sample"})
    assert request.strategy == SampleStrategy()


@pytest.mark.parametrize("params, status, field", [
    ({"name": "beam", "beam_size": 0}, 422, "beam_size"),
    ({"name": "beam", "beam_size": MAX_BEAM_SIZE + 1}, 422, "beam_size"),
    ({"name": "beam", "beam_size": 2.5}, 400, "beam_size"),
    ({"name": "beam", "length_penalty": float("nan")}, 422, "length_penalty"),
    ({"name": "beam", "length_penalty": -0.1}, 422, "length_penalty"),
    ({"name": "sample", "temperature": 0}, 422, "temperature"),
    ({"name": "sample", "temperature": float("inf")}, 422, "temperature"),
    ({"name": "sample", "top_k": -1}, 422, "top_k"),
    ({"name": "sample", "top_k": True}, 400, "top_k"),
    ({"name": "sample", "top_p": 0.0}, 422, "top_p"),
    ({"name": "sample", "top_p": 1.5}, 422, "top_p"),
    ({"name": "sample", "seed": -3}, 422, "seed"),
    ({"name": "sample", "seed": "lucky"}, 400, "seed"),
    ({"name": "nope"}, 400, "strategy.name"),
])
def test_invalid_strategy_params_carry_status_and_field(params, status, field):
    """NaN/inf/negative rejection lives in the one validate path: 422 for
    out-of-range values, 400 for type errors, always naming the field."""
    with pytest.raises(ApiError) as excinfo:
        AdviseRequest.from_dict({"code": CODE, "strategy": params})
    assert excinfo.value.status == status
    assert excinfo.value.field == field
    payload = excinfo.value.to_dict()
    assert set(payload["error"]) == {"code", "message", "field"}
    assert payload["error"]["field"] == field


def test_error_envelope_shape():
    error = ApiError.invalid_parameter('"x" out of range', field="x")
    assert error.to_dict() == {"error": {"code": "invalid_parameter",
                                         "message": '"x" out of range',
                                         "field": "x"}}


# ------------------------------------------------- normalisation invariants


def test_beam_size_one_normalises_to_greedy():
    assert BeamStrategy(beam_size=1, length_penalty=0.9).normalised() == \
        GreedyStrategy()
    assert BeamStrategy(beam_size=2).normalised() == BeamStrategy(beam_size=2)


def test_canonical_distinguishes_every_output_changing_parameter():
    a = SampleStrategy(temperature=0.7, seed=1)
    b = SampleStrategy(temperature=0.7, seed=2)
    c = SampleStrategy(temperature=0.7000001, seed=1)
    assert len({a.canonical(), b.canonical(), c.canonical()}) == 3
    # Two penalties that cache separately must never share a metrics label.
    assert BeamStrategy(beam_size=4, length_penalty=0.6).canonical() != \
        BeamStrategy(beam_size=4, length_penalty=0.6000001).canonical()


def test_int_and_float_spellings_share_one_canonical_identity():
    """JSON clients spell 1.0 as 1 freely; both spellings must hit the same
    cache entries and metric buckets (numeric fields coerce to float)."""
    assert BeamStrategy(beam_size=4, length_penalty=1) == \
        BeamStrategy(beam_size=4, length_penalty=1.0)
    assert strategy_from_dict({"name": "beam", "beam_size": 4,
                               "length_penalty": 1}).canonical() == \
        BeamStrategy(beam_size=4, length_penalty=1.0).canonical()
    assert strategy_from_dict({"name": "sample", "temperature": 2,
                               "top_p": 1}).canonical() == \
        SampleStrategy(temperature=2.0, top_p=1.0).canonical()
    # Coercion must not mask type errors: bools and strings still fail.
    with pytest.raises(ApiError):
        AdviseRequest.from_dict({"code": CODE,
                                 "strategy": {"name": "beam",
                                              "length_penalty": True}})


def test_status_split_keys_on_error_kind_not_message_text():
    """The 400/422 split reads StrategyParamError.kind, not message words —
    rewording a message cannot flip a status class."""
    with pytest.raises(StrategyParamError) as excinfo:
        strategy_from_dict({"name": "beam", "beam_size": "four"})
    assert excinfo.value.kind == "type"
    assert ApiError.from_strategy_error(excinfo.value).status == 400
    with pytest.raises(StrategyParamError) as excinfo:
        strategy_from_dict({"name": "beam", "beam_size": 99})
    assert excinfo.value.kind == "value"
    assert ApiError.from_strategy_error(excinfo.value).status == 422
    with pytest.raises(StrategyParamError) as excinfo:
        strategy_from_dict({"name": "beam", "nope": 1})
    assert excinfo.value.kind == "unknown"
    assert ApiError.from_strategy_error(excinfo.value).status == 400
