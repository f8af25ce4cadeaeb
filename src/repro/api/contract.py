"""repro.api v1 — the typed request/response contract for advising.

One versioned contract is the way to ask for advice, in process or over
HTTP; a decode is a :class:`repro.model.decoding.DecodingStrategy` plus the
serving model's ``max_length``:

* :class:`AdviseRequest` — what a caller asks for: a source buffer plus a
  :class:`repro.model.decoding.DecodingStrategy` and (v1.1) an optional
  ``model`` reference — an alias, a registered name, or a fully pinned
  ``name@revision`` (see :mod:`repro.registry`).  A request that omits
  ``model`` is byte-identical to the v1.0 wire form and resolves through the
  registry's ``default`` alias.  ``from_dict`` is strict (unknown fields are
  rejected by name) and :meth:`AdviseRequest.validate` is the **single**
  place parameter validation happens, so the HTTP server and the in-process
  service cannot drift.
* :class:`AdviseResponse` — what comes back: the generated program, the
  anchored advice list, parse diagnostics, the canonical strategy the decode
  ran under, and the serving metadata (``cached``/``latency_ms``/
  ``cache_key``).
* :class:`ApiError` — the one error type every entry point raises for an
  invalid request, carrying the structured envelope
  (``{"error": {"code", "message", "field"}}``) and the HTTP status:
  **400** for malformed requests (wrong types, unknown fields, missing
  ``code``), **422** for well-formed requests whose parameter values are out
  of range (NaN/inf/negative knobs, oversized beams).

All three round-trip losslessly through ``to_dict``/``from_dict`` —
``tests/test_api_contract.py`` holds every registered strategy to
``AdviseRequest.from_dict(r.to_dict()) == r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Mapping

from ..model.decoding import (
    DecodingStrategy,
    GreedyStrategy,
    StrategyParamError,
    registered_strategies,
    strategy_from_dict,
)

API_VERSION = "v1"


class ApiError(Exception):
    """A structured, client-facing request error.

    ``code`` is a stable machine-readable slug, ``message`` the human
    explanation, ``field`` the offending request field (or None when the
    problem is the request as a whole), ``status`` the HTTP status the
    transport layer should answer with.  ``retry_after`` (seconds) is set on
    transient conditions — backpressure 429s and draining/shutdown 503s — and
    the HTTP layer surfaces it as a ``Retry-After`` header so well-behaved
    clients (and the pool router) back off instead of hammering.
    """

    def __init__(self, code: str, message: str, *, field: str | None = None,
                 status: int = 400, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field
        self.status = status
        self.retry_after = retry_after

    # ----------------------------------------------------------- builders

    @classmethod
    def invalid_request(cls, message: str, *, field: str | None = None) -> "ApiError":
        """A structurally malformed request (wrong shape or types): HTTP 400."""
        return cls("invalid_request", message, field=field, status=400)

    @classmethod
    def invalid_parameter(cls, message: str, *, field: str | None = None) -> "ApiError":
        """A well-formed request with an out-of-range value: HTTP 422."""
        return cls("invalid_parameter", message, field=field, status=422)

    @classmethod
    def unknown_model(cls, message: str) -> "ApiError":
        """A well-formed request naming a model the registry cannot resolve
        (unknown name/alias, or a pinned revision that was replaced): 422."""
        return cls("unknown_model", message, field="model", status=422)

    @classmethod
    def not_found(cls, message: str) -> "ApiError":
        return cls("not_found", message, status=404)

    @classmethod
    def internal(cls, message: str) -> "ApiError":
        return cls("internal", message, status=500)

    @classmethod
    def unavailable(cls, message: str, *,
                    retry_after: float = 2.0) -> "ApiError":
        """The server is shutting down (or a subsystem is closed): HTTP 503.

        Distinct from :meth:`internal` — a draining process is not a server
        bug, and a client seeing 503 should retry against a healthy replica
        rather than report an error.  Carries a ``Retry-After`` hint.
        """
        return cls("unavailable", message, status=503,
                   retry_after=retry_after)

    @classmethod
    def queue_full(cls, message: str, *,
                   retry_after: float = 1.0) -> "ApiError":
        """The bounded job queue is at capacity (backpressure): HTTP 429.

        Carries a ``Retry-After`` hint: the backlog drains on the order of a
        decode, so a short pause is usually enough.
        """
        return cls("queue_full", message, status=429, retry_after=retry_after)

    @classmethod
    def quota_exceeded(cls, message: str, *, field: str | None = None,
                       retry_after: float = 1.0) -> "ApiError":
        """One client holds too many in-flight jobs: HTTP 429."""
        return cls("quota_exceeded", message, field=field, status=429,
                   retry_after=retry_after)

    @classmethod
    def expired(cls, message: str) -> "ApiError":
        """A resource that existed but was evicted (TTL/capacity): HTTP 410.

        Tells clients "your job ran, but its results are gone" apart from
        :meth:`not_found`'s "no such job was ever issued".
        """
        return cls("expired", message, status=410)

    @classmethod
    def timeout(cls, message: str) -> "ApiError":
        """A decode exceeded its serving deadline: HTTP 504 semantics."""
        return cls("timeout", message, status=504)

    @classmethod
    def from_strategy_error(cls, exc: StrategyParamError) -> "ApiError":
        """Map a decoding-layer parameter error onto the envelope.

        The split keys on the error's machine-readable ``kind``: type and
        unknown-name failures are malformed requests (400); out-of-range
        values on a well-formed request are 422.
        """
        if exc.kind == "value":
            return cls.invalid_parameter(str(exc), field=exc.field)
        return cls.invalid_request(str(exc), field=exc.field)

    # ------------------------------------------------------ serialisation

    def to_dict(self) -> dict:
        """The wire envelope: ``{"error": {"code", "message", "field"}}``."""
        return {"error": {"code": self.code, "message": self.message,
                          "field": self.field}}


@dataclass(frozen=True)
class VerifyOptions:
    """The (v1.2) ``verify`` request block: simulate-and-rerank bounds.

    ``ranks`` is the simulated rank-count sweep every candidate must pass,
    ``timeout_ms`` the total wall-clock budget for the whole verification
    (reference capture plus every candidate), ``candidates`` how many decode
    hypotheses to consider (candidate 0 is always the normally-served
    result), ``tolerance`` the numerical equivalence threshold.  The wire
    form accepts ``"verify": true`` (all defaults) or an options object;
    omitting the field keeps the request — and the response shape —
    byte-identical to v1.1.
    """

    ranks: tuple[int, ...] = (1, 2, 4)
    timeout_ms: int = 2000
    candidates: int = 4
    tolerance: float = 1e-6

    #: Hard caps, shared with :mod:`repro.verify` — the sweep and candidate
    #: count multiply simulation cost.
    MAX_RANKS: ClassVar[int] = 8
    MAX_SWEEP: ClassVar[int] = 4
    MAX_CANDIDATES: ClassVar[int] = 8
    MAX_TIMEOUT_MS: ClassVar[int] = 30_000

    def validate(self) -> "VerifyOptions":
        import math

        if (not isinstance(self.ranks, tuple)
                or not all(isinstance(r, int) and not isinstance(r, bool)
                           for r in self.ranks)):
            raise ApiError.invalid_request(
                '"verify.ranks" must be a list of integers',
                field="verify.ranks")
        if not self.ranks or len(self.ranks) > self.MAX_SWEEP:
            raise ApiError.invalid_parameter(
                f'"verify.ranks" must hold 1..{self.MAX_SWEEP} rank counts',
                field="verify.ranks")
        for count in self.ranks:
            if not 1 <= count <= self.MAX_RANKS:
                raise ApiError.invalid_parameter(
                    f'"verify.ranks" entries must be in [1, {self.MAX_RANKS}]',
                    field="verify.ranks")
        if isinstance(self.timeout_ms, bool) or not isinstance(self.timeout_ms, int):
            raise ApiError.invalid_request(
                '"verify.timeout_ms" must be an integer',
                field="verify.timeout_ms")
        if not 1 <= self.timeout_ms <= self.MAX_TIMEOUT_MS:
            raise ApiError.invalid_parameter(
                f'"verify.timeout_ms" must be in [1, {self.MAX_TIMEOUT_MS}]',
                field="verify.timeout_ms")
        if isinstance(self.candidates, bool) or not isinstance(self.candidates, int):
            raise ApiError.invalid_request(
                '"verify.candidates" must be an integer',
                field="verify.candidates")
        if not 1 <= self.candidates <= self.MAX_CANDIDATES:
            raise ApiError.invalid_parameter(
                f'"verify.candidates" must be in [1, {self.MAX_CANDIDATES}]',
                field="verify.candidates")
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance,
                                                              (int, float)):
            raise ApiError.invalid_request(
                '"verify.tolerance" must be a number', field="verify.tolerance")
        if not math.isfinite(self.tolerance) or self.tolerance < 0:
            raise ApiError.invalid_parameter(
                '"verify.tolerance" must be finite and >= 0',
                field="verify.tolerance")
        return self

    def canonical(self) -> str:
        """Canonical form — the verification half of a verify-cache key."""
        ranks = ",".join(str(r) for r in self.ranks)
        return (f"ranks={ranks};timeout_ms={self.timeout_ms};"
                f"candidates={self.candidates};tolerance={float(self.tolerance)!r}")

    def to_dict(self) -> dict:
        return {"ranks": list(self.ranks), "timeout_ms": self.timeout_ms,
                "candidates": self.candidates, "tolerance": float(self.tolerance)}

    @classmethod
    def from_value(cls, value: Any) -> "VerifyOptions | None":
        """Parse the wire spellings: absent/false → None, true → defaults,
        object → explicit options (unknown keys rejected by name)."""
        if value is None or value is False:
            return None
        if value is True:
            return cls().validate()
        if not isinstance(value, Mapping):
            raise ApiError.invalid_request(
                '"verify" must be true, false, or an options object',
                field="verify")
        known = {"ranks", "timeout_ms", "candidates", "tolerance"}
        for key in value:
            if key not in known:
                raise ApiError.invalid_request(
                    f'unknown field "verify.{key}" (accepted: ranks, '
                    f'timeout_ms, candidates, tolerance)',
                    field=f"verify.{key}")
        ranks = value.get("ranks", [1, 2, 4])
        if not isinstance(ranks, list):
            raise ApiError.invalid_request(
                '"verify.ranks" must be a list of integers',
                field="verify.ranks")
        defaults = cls()
        return cls(
            ranks=tuple(ranks),
            timeout_ms=value.get("timeout_ms", defaults.timeout_ms),
            candidates=value.get("candidates", defaults.candidates),
            tolerance=value.get("tolerance", defaults.tolerance),
        ).validate()


@dataclass(frozen=True)
class AdviseRequest:
    """One advising request: a source buffer, a decoding strategy and an
    optional model reference (None = the registry's ``default`` alias)."""

    code: str
    strategy: DecodingStrategy = field(default_factory=GreedyStrategy)
    #: Alias, registered name, or pinned ``name@revision``.  Omitted (None)
    #: keeps the wire form — and the response shape — identical to v1.0.
    model: str | None = None
    #: v1.2 simulate-and-rerank options.  Omitted (None) keeps the wire
    #: form — and the response shape — identical to v1.1.
    verify: VerifyOptions | None = None

    # ----------------------------------------------------------- validation

    def validate(self) -> "AdviseRequest":
        """Raise :class:`ApiError` unless every field is usable; return self.

        This is the single validation point for *every* entry path (service,
        v1 HTTP routes, batch items), including the NaN/inf/negative
        parameter rejection — transports only translate the raised
        :class:`ApiError` into their envelope.
        """
        if not isinstance(self.code, str):
            raise ApiError.invalid_request('"code" must be a string',
                                           field="code")
        if not self.code.strip():
            raise ApiError.invalid_request('"code" must be non-empty C source',
                                           field="code")
        if self.model is not None:
            if not isinstance(self.model, str):
                raise ApiError.invalid_request(
                    '"model" must be a string (alias, name, or name@revision)',
                    field="model")
            if not self.model.strip():
                raise ApiError.invalid_request(
                    '"model" must be a non-empty model reference',
                    field="model")
        if not isinstance(self.strategy, DecodingStrategy):
            raise ApiError.invalid_request(
                '"strategy" must be a DecodingStrategy', field="strategy")
        try:
            self.strategy.validate()
        except StrategyParamError as exc:
            raise ApiError.from_strategy_error(exc) from exc
        if self.verify is not None:
            if not isinstance(self.verify, VerifyOptions):
                raise ApiError.invalid_request(
                    '"verify" must be true, false, or an options object',
                    field="verify")
            self.verify.validate()
        return self

    # -------------------------------------------------------- serialisation

    def to_dict(self) -> dict:
        payload = {"code": self.code, "strategy": self.strategy.to_dict()}
        if self.model is not None:
            payload["model"] = self.model
        if self.verify is not None:
            payload["verify"] = self.verify.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdviseRequest":
        """Strict v1 parsing: unknown top-level fields are rejected by name.

        ``strategy`` may be an object (``{"name": "beam", "beam_size": 4}``)
        or a bare strategy name string; absent means greedy.  ``model`` is an
        optional reference string; absent means the registry default.  The
        returned request has already passed :meth:`validate`.
        """
        if not isinstance(data, Mapping):
            raise ApiError.invalid_request("request body must be a JSON object")
        known = {"code", "strategy", "model", "verify"}
        for key in data:
            if key not in known:
                raise ApiError.invalid_request(
                    f'unknown field "{key}" (accepted: code, strategy, model, '
                    f'verify)',
                    field=str(key))
        if "code" not in data:
            raise ApiError.invalid_request('"code" is required', field="code")
        raw_strategy = data.get("strategy", "greedy")
        try:
            strategy = strategy_from_dict(raw_strategy)
        except StrategyParamError as exc:
            raise ApiError.from_strategy_error(exc) from exc
        except TypeError as exc:
            raise ApiError.invalid_request(
                f'invalid "strategy": {exc}', field="strategy") from exc
        return cls(code=data["code"], strategy=strategy,
                   model=data.get("model"),
                   verify=VerifyOptions.from_value(data.get("verify"))).validate()


@dataclass(frozen=True)
class AdviseResponse:
    """One advising response, transport-agnostic and losslessly serialisable.

    ``advice`` items are plain dicts (the rendered suggestion payloads of
    :func:`advice_items`); ``strategy`` is the wire form of the
    strategy the decode actually ran under (the service default when the
    request didn't pin one).
    """

    generated_code: str
    advice: tuple[dict, ...]
    diagnostics: tuple[str, ...]
    strategy: DecodingStrategy
    cached: bool = False
    latency_ms: float = 0.0
    cache_key: str = ""
    #: The resolved ``name@revision`` that served the request — present on
    #: the wire only when the request named a model, so requests that omit
    #: ``model`` keep the exact v1.0 response shape.
    model: str | None = None
    #: The v1.2 ``verification`` object
    #: (:meth:`repro.verify.VerificationReport.to_payload`) — present on the
    #: wire only when the request asked for verification, so requests that
    #: omit ``verify`` keep the exact v1.1 response shape.
    verification: dict | None = None
    api_version: str = API_VERSION

    def to_dict(self) -> dict:
        payload = {
            "api_version": self.api_version,
            "generated_code": self.generated_code,
            "advice": [dict(item) for item in self.advice],
            "diagnostics": list(self.diagnostics),
            "strategy": self.strategy.to_dict(),
            "cached": self.cached,
            "latency_ms": self.latency_ms,
            "cache_key": self.cache_key,
        }
        if self.model is not None:
            payload["model"] = self.model
        if self.verification is not None:
            payload["verification"] = dict(self.verification)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdviseResponse":
        try:
            strategy = strategy_from_dict(data["strategy"])
        except StrategyParamError as exc:
            raise ApiError.from_strategy_error(exc) from exc
        return cls(
            generated_code=data["generated_code"],
            advice=tuple(dict(item) for item in data["advice"]),
            diagnostics=tuple(data["diagnostics"]),
            strategy=strategy,
            cached=bool(data.get("cached", False)),
            latency_ms=float(data.get("latency_ms", 0.0)),
            cache_key=str(data.get("cache_key", "")),
            model=data.get("model"),
            verification=data.get("verification"),
            api_version=str(data.get("api_version", API_VERSION)),
        )


def advice_items(session) -> tuple[dict, ...]:
    """Serialise an :class:`repro.mpirical.AdviceSession`'s advice list.

    This is the one place the advice wire shape is defined; every v1 route
    (and :class:`AdviseResponse`) shares it.
    """
    from dataclasses import asdict

    return tuple(
        {
            **asdict(item.suggestion),
            "confidence": item.confidence,
            "note": item.note,
            "rendered": item.render(),
        }
        for item in session.advice
    )


#: Largest accepted ``POST /v1/advise/batch`` submission.  Bulk workloads
#: bigger than this should be split client-side; an unbounded list would let
#: one submission monopolise the job worker for minutes.
MAX_BATCH_ITEMS = 64


def parse_batch_advise(data: Mapping[str, Any]) -> list[AdviseRequest]:
    """Parse and validate a ``POST /v1/advise/batch`` submission.

    The body is ``{"items": [<AdviseRequest dict>, ...]}`` plus optional
    top-level ``model``, ``strategy`` and (v1.2) ``verify`` defaults merged
    into every item that does not set its own — a top-level ``verify`` turns
    the whole submission into an asynchronous batch audit.  Parsing is
    atomic: any malformed item rejects the whole submission (400/422 with
    the offending index in ``field``), so a job never holds half a workload.
    Serve-time failures (e.g. a model unloaded between submit and run) are
    *not* detected here — they become per-item error envelopes in the job
    results.
    """
    if not isinstance(data, Mapping):
        raise ApiError.invalid_request("request body must be a JSON object")
    known = {"items", "model", "strategy", "verify"}
    for key in data:
        if key not in known:
            raise ApiError.invalid_request(
                f'unknown field "{key}" (accepted: items, model, strategy, '
                f'verify)',
                field=str(key))
    items = data.get("items")
    if not isinstance(items, list) or not items:
        raise ApiError.invalid_request(
            '"items" must be a non-empty list of advise requests',
            field="items")
    if len(items) > MAX_BATCH_ITEMS:
        raise ApiError.invalid_parameter(
            f'"items" holds {len(items)} requests; the batch limit is '
            f'{MAX_BATCH_ITEMS}', field="items")
    defaults = {key: data[key] for key in ("model", "strategy", "verify")
                if key in data}
    requests = []
    for index, item in enumerate(items):
        if not isinstance(item, Mapping):
            raise ApiError.invalid_request(
                f"items[{index}] must be a JSON object",
                field=f"items[{index}]")
        merged = {**defaults, **item}
        try:
            requests.append(AdviseRequest.from_dict(merged))
        except ApiError as exc:
            raise ApiError(exc.code, f"items[{index}]: {exc.message}",
                           field=f"items[{index}]"
                                 + (f".{exc.field}" if exc.field else ""),
                           status=exc.status) from exc
    return requests


def strategy_matrix() -> dict[str, dict]:
    """Registered strategies and their default parameters (docs/clients)."""
    return {name: cls().to_dict() for name, cls in registered_strategies().items()}
