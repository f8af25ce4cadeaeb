"""repro.api — the versioned (v1) advising contract.

``repro.api.contract``  AdviseRequest / AdviseResponse / ApiError dataclasses
                        (strict ``from_dict`` validation, wire round-trips)

The decoding strategies the contract carries live in
:mod:`repro.model.decoding`; the serving implementation of the contract in
:mod:`repro.serving`.

Quick start
-----------
>>> from repro.api import AdviseRequest
>>> from repro.model.decoding import SampleStrategy
>>> request = AdviseRequest(code=my_c_source,
...                         strategy=SampleStrategy(temperature=0.8, seed=7))
>>> response = service.advise_request(request)   # an AdviseResponse
>>> response.to_dict()["strategy"]["name"]
'sample'
"""

from .contract import (
    API_VERSION,
    MAX_BATCH_ITEMS,
    AdviseRequest,
    AdviseResponse,
    ApiError,
    VerifyOptions,
    advice_items,
    parse_batch_advise,
    strategy_matrix,
)

__all__ = [
    "API_VERSION",
    "MAX_BATCH_ITEMS",
    "AdviseRequest",
    "AdviseResponse",
    "ApiError",
    "VerifyOptions",
    "advice_items",
    "parse_batch_advise",
    "strategy_matrix",
]
