"""The InferenceService facade: cache → single-flight → continuous batch → model.

This is the serving layer's front door, and it speaks the **repro.api v1
contract**: requests are :class:`repro.api.AdviseRequest` values carrying a
pluggable :class:`repro.model.decoding.DecodingStrategy`, responses are
:class:`repro.api.AdviseResponse`.  A request travels through three
short-circuits before it is allowed to cost a model decode:

1. **LRU cache** — the buffer's canonical key (:mod:`repro.serving.cache`,
   which folds in the strategy's canonical serialized form) is looked up; a
   hit reuses the stored model output without touching the queue.  Because
   the key is layout-invariant while advice anchors are not, the cache stores
   the :class:`PredictionResult` (generated program), and line-anchored
   suggestions are re-derived against the requesting buffer on every response
   (:func:`anchor_result`).
2. **Single-flight coalescing** — if an *identical* request is already in
   flight, the new request subscribes to its future instead of decoding the
   same program twice.  Coalesced requests count as cache hits in the
   metrics: they skipped the model.
3. **Continuous batch** — genuine misses join the iteration-level
   scheduler (:mod:`repro.serving.sched`), so concurrent distinct requests
   share decoder steps whatever their strategy.  This is the one decode
   path: every greedy, beam and sampling decode — interactive, streamed or
   job item — runs through it.  A full admission queue answers the
   contract's 429 ``queue_full`` envelope.

Cache keys and the per-config batch metrics are both derived from the
**same canonical strategy string** (:meth:`DecodingStrategy.canonical`
after :meth:`normalised`), so no hand-maintained label function can drift
out of sync with the key.

Calls, streams and job items take this one path, and every request
resolves to one :class:`AdviseResponse`.  **Streaming**
(:meth:`InferenceService.advise_stream`) adds a per-token sink: a miss
joins the continuous batch and yields each generated token as it is
emitted, a cache hit replays its cached tokens instantly, and either ends
with the final response.  Streams bypass single-flight (a stream never
follows another request's decode, nor offers its own to follow) but still
read and populate the shared cache.

**Multi-model routing** (v1.1): the service fronts a
:class:`repro.registry.ModelRegistry` instead of one hard-wired model.  A
request's optional ``model`` reference (alias, name, or pinned
``name@revision``) resolves to a registry entry *before* anything else
happens; the resolved identity becomes part of the cache key and the
single-flight key, and the scheduler never mixes two models in one batch,
so two models — or two revisions of one model across a hot-swap — can never
share a cache entry, a coalesced decode or a batch.  Each decode holds a
**lease** on its entry for its whole life, which is what makes :meth:`repro.registry.ModelRegistry.swap`
safe under traffic: the alias flip is atomic, requests that already resolved
drain on the old revision, and the old entry unloads only after its last
lease returns.  Constructing the service from a bare pipeline still works —
it is registered as the registry's ``default`` model.

A decode is chosen only by its strategy (``GreedyStrategy()`` when a
request names none) and bounded only by an int ``max_length`` (the
service's ``max_length=``, else the serving model's own
:attr:`MPIRical.max_length`).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import replace
from functools import partial
from pathlib import Path
from queue import SimpleQueue
from threading import Lock
from types import SimpleNamespace
from typing import Callable, Iterator

from ..api import AdviseRequest, AdviseResponse, ApiError, advice_items
from ..clang.parser import parse_source_with_diagnostics
from ..model.decoding import DecodingStrategy
from ..mpirical.assistant import MPIAssistant, build_advice_session
from ..mpirical.pipeline import MPIRical, PredictionResult
from ..mpirical.suggestions import extract_suggestions
from ..registry import ModelEntry, ModelRegistry, RegistryError
from ..verify import Budget, VerificationReport, VerifyConfig, verify_candidates
from .cache import FrontEnd, LRUCache, canonical_cache_key, front_end
from .jobs import JobPolicy, JobStore
from .metrics import Metrics
from .sched import ContinuousScheduler, QueueFullError, SchedulerPolicy, SchedWork


def anchor_result(source_code: str, result: PredictionResult) -> PredictionResult:
    """Re-derive the advice anchors of ``result`` against ``source_code``.

    The cache key is layout-invariant (whitespace/comment edits keep the
    key), but :attr:`MPISuggestion.insert_after_line` is layout-*dependent* —
    a cached result's anchors refer to whichever buffer was decoded first.
    Suggestion extraction is a cheap line diff, so every response recomputes
    it against the requesting buffer; only the model decode is shared.
    """
    return PredictionResult(
        generated_code=result.generated_code,
        generated_tokens=result.generated_tokens,
        suggestions=extract_suggestions(source_code, result.generated_code),
    )


class InferenceService:
    """Concurrent advising facade over :class:`MPIRical` / :class:`MPIAssistant`.

    Parameters
    ----------
    model:
        A :class:`repro.registry.ModelRegistry`, or — the single-model
        shorthand — a trained :class:`MPIRical` pipeline / an
        :class:`MPIAssistant` wrapping one, which is registered as the
        registry's ``default`` model.
    max_batch_size:
        Rows in the continuous batch (``max_rows`` of
        :class:`repro.serving.sched.SchedulerPolicy`); a beam-``k`` request occupies ``k`` rows, and a beam
        wider than the batch decodes alone once the batch has drained.
    cache_capacity:
        LRU entries to keep; ``0`` disables caching (every request decodes).
        The cache is shared across models; keys embed ``name@revision``.
    max_length:
        Optional bound on generated tokens for every decode; ``None`` uses
        each model's own :attr:`MPIRical.max_length`.
    registry_root:
        Durable-state directory for the batch-job tier; the job WAL lives at
        ``<registry_root>/jobs/jobs.wal``.  Defaults to the registry's own
        ``root`` when it has one; ``None`` (and no registry root) keeps jobs
        in-memory only.
    job_policy:
        Backpressure/hygiene knobs for the job store
        (:class:`repro.serving.jobs.JobPolicy`); ``None`` uses the defaults.
    """

    def __init__(self, model: MPIRical | MPIAssistant | ModelRegistry, *,
                 max_batch_size: int = 8, cache_capacity: int = 256,
                 max_length: int | None = None,
                 registry_root: "str | Path | None" = None,
                 job_policy: JobPolicy | None = None) -> None:
        if isinstance(model, ModelRegistry):
            self.registry = model
        else:
            self.registry = ModelRegistry(model)
        if registry_root is None:
            registry_root = self.registry.root
        self._job_log_dir = (Path(registry_root) / "jobs"
                             if registry_root is not None else None)
        self._job_policy = job_policy
        self.max_length = max_length
        self.metrics_ = Metrics()
        self._m = self.bind_metrics(self.metrics_)
        # The job store opens lazily; its counters read zero until then.
        JobStore.bind_metrics(self.metrics_)
        self.cache = LRUCache(cache_capacity) if cache_capacity > 0 else None
        #: Verification results keyed by ``<decode cache key>|verify:<options>``
        #: — a repeat verified request replays both the decode *and* the
        #: simulation sweep from memory.  Skipped reports are never cached
        #: (a transient budget exhaustion must not stick).
        self.verify_cache = (LRUCache(cache_capacity)
                             if cache_capacity > 0 else None)
        self._inflight: dict[str, Future] = {}
        self._inflight_lock = Lock()
        self.sched = ContinuousScheduler(
            policy=SchedulerPolicy(max_rows=max_batch_size),
            metrics=self.metrics_)
        self._jobs = None
        self._jobs_lock = Lock()
        self._closed = False
        self._draining = False

    @staticmethod
    def bind_metrics(metrics: Metrics) -> SimpleNamespace:
        """The request-path instruments on ``metrics``.  Coalesced requests
        are cache hits (they skipped the model); verification has its own
        window because its cost is simulation-bound, not model-bound."""
        return SimpleNamespace(
            hits=metrics.counter("cache_hits"),
            misses=metrics.counter("cache_misses"),
            errors=metrics.counter("errors_total"),
            streams=metrics.counter("streams_total"),
            by_model=metrics.labelled("requests_by_model",
                                      total="requests_total"),
            latency_ms=metrics.window("latency_ms"),
            verdicts=metrics.labelled("verify_by_verdict",
                                      total="verify_total"),
            verify_ms=metrics.window("verify_latency_ms"))

    @property
    def jobs(self) -> JobStore:
        """The async batch-job store (:class:`repro.serving.jobs.JobStore`),
        created on first use and closed with the service.

        When the service has a durable root (``registry_root``, or the
        registry's own ``root``), first access opens the store *over its
        WAL* — replaying finished jobs and re-enqueueing unfinished ones —
        which is why server startup touches this property eagerly.  Access
        after :meth:`close` answers the contract's 503 ``unavailable``
        envelope: a shutting-down replica is not a server bug.
        """
        with self._jobs_lock:
            if self._jobs is None:
                if self._closed:
                    raise ApiError.unavailable(
                        "the service is shutting down; retry against a "
                        "healthy replica")
                self._jobs = JobStore(self, policy=self._job_policy,
                                      log_dir=self._job_log_dir,
                                      metrics=self.metrics_)
            return self._jobs

    def job_store(self) -> JobStore | None:
        """The job store if one has been created, else ``None`` — a
        peek that (unlike :attr:`jobs`) never opens the WAL or starts the
        worker thread; used by ``/metrics`` and ``/healthz``.

        Deliberately **lock-free**: the jobs lock is held for the whole WAL
        replay on first access and across the bounded job drain during
        :meth:`close`, and a liveness probe must never block behind either
        (a router health-checking a worker that is replaying a large WAL or
        draining would otherwise time it out and mark it dead).  The
        attribute is only ever written once, after the store is fully
        constructed, so the probe reads either ``None`` or a usable store.
        """
        return self._jobs

    def submit_job(self, requests: "list[AdviseRequest]", *,
                   client: str | None = None):
        """Queue one batch job (the ``POST /v1/advise/batch`` entry point).

        Refused with the 503 ``unavailable`` envelope while the service is
        draining — new work must land on a healthy replica — while job
        *polls* keep working so clients can collect what already ran.
        """
        self._require_not_draining()
        return self.jobs.submit(requests, client=client)

    # ---------------------------------------------------------------- drain

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> dict:
        """Stop accepting new work; in-flight work keeps running.

        The graceful half of a worker shutdown: after ``drain()`` every new
        advise/stream/job submission answers the 503 ``unavailable``
        envelope (with a ``Retry-After`` hint), while queued and in-flight
        decodes and running jobs finish normally.  The pool
        router calls this, stops routing to the worker, waits for
        :meth:`pending_work` to reach zero, and only then terminates the
        process — which is what makes a rolling restart lose nothing.

        Returns the drain status snapshot (also on ``/healthz``).
        """
        self._draining = True
        return {"draining": True, "pending": self.pending_work()}

    def pending_work(self) -> int:
        """Work still owed to callers: queued and in-flight decodes and
        unfinished jobs.  Zero means terminating the process drops
        nothing (streams are best-effort and excluded — a stream's client
        observes the cut and simply retries)."""
        with self._inflight_lock:
            inflight = len(self._inflight)
        # In-flight scheduler decodes are already counted via the
        # single-flight dict; only the admission queue adds new work.
        pending = inflight + self.sched.queue_depth()
        jobs = self.job_store()
        if jobs is not None:
            snapshot = jobs.snapshot()
            pending += snapshot["queued"] + snapshot["running"]
        return pending

    def _require_not_draining(self) -> None:
        if self._draining:
            raise ApiError.unavailable(
                "this replica is draining; retry against the pool",
                retry_after=1.0)

    @property
    def assistant(self) -> MPIAssistant:
        """The ``default`` model's advising facade (pre-registry callers)."""
        entry = self.registry.default_entry()
        if entry is None:
            raise RuntimeError("the registry has no default model")
        return entry.assistant()

    # ------------------------------------------------------------ v1 contract

    def advise_request(self, request: AdviseRequest, *,
                       timeout: float | None = None) -> AdviseResponse:
        """Serve one v1 :class:`AdviseRequest`, blocking until done.

        When the request carries a ``verify`` block, the response is taken
        through bounded synchronous verification on the calling thread
        (simulate-and-rerank; see :meth:`apply_verification`) before it is
        returned — the decode itself still rides the shared continuous batch.
        """
        response = self.advise_request_async(request).result(timeout)
        if request.verify is not None:
            response = self.apply_verification(request, response)
        return response

    def advise_request_async(self, request: AdviseRequest) -> Future:
        """Non-blocking :meth:`advise_request`; resolves to an
        :class:`AdviseResponse`.  Raises :class:`repro.api.ApiError`
        synchronously on an invalid request or an unresolvable ``model``
        reference (the registry is consulted *here*, so the alias an
        in-flight request resolved through can be re-pointed concurrently
        without affecting it)."""
        request.validate()
        return self._advise_async(request, self._resolve_entry(request.model))

    # -------------------------------------------------------- verification

    def apply_verification(self, request: AdviseRequest,
                           response: AdviseResponse) -> AdviseResponse:
        """Take a served response through simulate-and-rerank verification.

        Bounded and non-fatal by construction: one budget of the request's
        ``verify.timeout_ms`` starts here and covers the whole pass (the
        N-best decode, the serial reference and every candidate run, each
        simulation stopped at its share, with a reserve for the report), so
        the call returns within ``timeout_ms``.  Any internal failure (or an
        original program that does not simulate) degrades to
        ``verification: {"verified": "skipped", ...}``, and the normally
        served advice always survives.  When a runner-up candidate is the
        first to prove equivalent under simulation, the response's
        ``generated_code``/``advice`` are rebuilt from that winner
        (``reranked: true``).  Results are cached under the decode cache key
        plus the canonical options, so a repeat hit pays neither the decode
        nor the simulation sweep.
        """
        options = request.verify
        if options is None:
            return response
        start = time.perf_counter()
        budget = Budget.from_timeout(options.timeout_ms / 1000.0)
        verify_key = f"{response.cache_key}|verify:{options.canonical()}"
        if self.verify_cache is not None:
            hit = self.verify_cache.get(verify_key)
            if hit is not None:
                status, payload, generated_code, advice, diagnostics = hit
                self._record_verify(
                    (time.perf_counter() - start) * 1000.0, status)
                return replace(response, generated_code=generated_code,
                               advice=advice, diagnostics=diagnostics,
                               verification=dict(payload))
        try:
            report, candidates = self._run_verification(request, response,
                                                        options, budget=budget)
        except Exception as exc:  # noqa: BLE001 — verification never fails a request
            report = VerificationReport.skipped(
                f"verification error: {type(exc).__name__}: {exc}")
            candidates = []
        payload = report.to_payload()
        verified = response
        if report.reranked and report.winner_index < len(candidates):
            winner = candidates[report.winner_index]
            if isinstance(winner, PredictionResult):
                _, diagnostics = parse_source_with_diagnostics(request.code)
                session = build_advice_session(
                    diagnostics, anchor_result(request.code, winner))
                verified = replace(response,
                                   generated_code=session.generated_code,
                                   advice=advice_items(session),
                                   diagnostics=tuple(session.parse_diagnostics))
        verified = replace(verified, verification=payload)
        self._record_verify((time.perf_counter() - start) * 1000.0,
                            report.status)
        if report.status != "skipped" and self.verify_cache is not None:
            self.verify_cache.put(verify_key, (
                report.status, payload, verified.generated_code,
                verified.advice, verified.diagnostics))
        return verified

    def _run_verification(self, request: AdviseRequest,
                          response: AdviseResponse, options, *,
                          budget: Budget) -> tuple:
        """Decode extra candidates (when the strategy can supply them) and run
        the rank-sweep verification inside ``budget``; returns
        ``(report, candidates)``."""
        strategy = request.strategy.normalised()
        limit = min(options.candidates, strategy.nbest_limit())
        if limit > 1:
            entry = self._resolve_entry(request.model)
            mpirical = entry.ensure_loaded()
            entry.acquire()
            try:
                candidates = mpirical.predict_code_candidates(
                    request.code, strategy=strategy,
                    max_length=self._max_length(entry),
                    max_candidates=limit)
            finally:
                entry.release()
        else:
            # Single-candidate strategies reuse the served generation as-is;
            # no re-decode happens at all.
            candidates = [response.generated_code]
        config = VerifyConfig(
            ranks=tuple(options.ranks),
            tolerance=float(options.tolerance),
            timeout=options.timeout_ms / 1000.0,
            sim_timeout=min(5.0, options.timeout_ms / 1000.0),
        )
        return verify_candidates(request.code, candidates, config=config,
                                 budget=budget), candidates

    def advise_stream(self, request: AdviseRequest) -> Iterator[dict]:
        """Serve ``request`` as a stream of chunk dicts.

        Yields ``{"type": "token", "index": i, "token": "<code token>"}`` for
        each generated token, then exactly one
        ``{"type": "final", "response": <AdviseResponse dict>}``.  Greedy and
        sampling emit token chunks incrementally while the model decodes;
        beam search only knows its winning hypothesis at the end, so its
        chunks arrive just before the final result.

        The stream takes the one request path with a token sink: it reads
        and populates the shared LRU cache (a hit replays its cached tokens
        immediately), bypasses single-flight, and its decode joins the
        shared in-flight batch.  A full admission queue (429
        ``queue_full``) or a failed decode surfaces as an exception from the
        generator.

        Validation is eager — an invalid request raises here, at call time,
        not at the first ``next()`` (the HTTP layer relies on this to answer
        4xx before committing to a 200 stream).
        """
        request.validate()
        self._require_not_draining()
        return self._stream(request, self._resolve_entry(request.model))

    def _stream(self, request: AdviseRequest,
                entry: ModelEntry) -> Iterator[dict]:
        # Runs from the first next(): a full admission queue ends a started
        # stream like any failed decode.  The sink and the done-callback feed
        # one queue (token strings, a cache hit's deferred resolve, then the
        # response future); the decode caches its result whether or not this
        # generator is still read.
        chunks: SimpleQueue = SimpleQueue()
        self._advise_async(request, entry, on_token=chunks.put) \
            .add_done_callback(chunks.put)
        index = 0
        try:
            while not isinstance(item := chunks.get(), Future):
                if isinstance(item, str):
                    yield {"type": "token", "index": index, "token": item}
                    index += 1
                else:
                    item()  # resolves the future, which arrives next
        finally:
            # A hit's stream closed before its resolve still serves (and
            # counts) the request.
            while not chunks.empty():
                if callable(pending := chunks.get_nowait()):
                    pending()
        response = item.result()  # a failed decode raises here
        self._m.streams.inc()
        if request.verify is not None:
            # Streams never block on simulation; the explicit skip marker
            # tells the caller where the verified path lives.
            response = replace(response, verification=VerificationReport.skipped(
                "streaming responses are not verified; "
                "use POST /v1/advise").to_payload())
            self._record_verify(0.0, "skipped")
        yield {"type": "final", "response": response.to_dict()}

    def metrics(self) -> dict:
        """Operational snapshot: request metrics + cache stats + queue depth
        + registry state (loaded models, default alias, per-model counters)."""
        snapshot = self.metrics_.snapshot()
        requests = snapshot["requests_total"]
        snapshot["cache_hit_rate"] = (snapshot["cache_hits"] / requests
                                      if requests else 0.0)
        snapshot["cache"] = (self.cache.stats().as_dict() if self.cache is not None
                             else {"enabled": False})
        snapshot["queued_requests"] = self.sched.queue_depth()
        snapshot["max_batch_size"] = self.sched.policy.max_rows
        snapshot["registry"] = self.registry.snapshot(
            served=snapshot["requests_by_model"])
        snapshot["draining"] = self._draining
        jobs = self.job_store()
        snapshot["jobs"] = (jobs.snapshot() if jobs is not None
                            else {"enabled": False})
        return snapshot

    def requests_by_model(self) -> dict[str, int]:
        """Requests served per ``name@revision``: the one per-model request
        count, shown as ``requests_by_model`` on ``/metrics`` and as each
        model's ``requests_served`` in the registry views."""
        return self._m.by_model.counts()

    def close(self, *, job_drain_timeout: float | None = 5.0) -> None:
        """Drain queued requests and stop the scheduler (and job store).

        The job store closes *first* and with a **bounded** join (its items
        run through the scheduler, so the scheduler must outlive the drain) —
        one hung decode ends the wait after ``job_drain_timeout`` seconds
        instead of hanging server shutdown forever.  With durability on, the
        abandoned work is simply re-enqueued on the next open.
        """
        if not self._closed:
            # The closed flag flips under the jobs lock so a racing first
            # access of .jobs either sees it and refuses, or wins the race
            # and hands its store to this close.
            with self._jobs_lock:
                self._closed = True
                jobs = self._jobs
            if jobs is not None:
                jobs.close(wait=True, timeout=job_drain_timeout)
            self.sched.close(wait=True)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- internals

    def _max_length(self, entry: ModelEntry) -> int:
        """The decode bound: the service override, or the entry's own
        pipeline default."""
        if self.max_length is not None:
            return self.max_length
        return entry.ensure_loaded().max_length

    def _resolve_entry(self, model_spec: str | None) -> ModelEntry:
        """Resolve a request's ``model`` reference to a loaded registry entry.

        Translates :class:`repro.registry.RegistryError` into the contract's
        422 ``unknown_model`` envelope, and checkpoint-integrity failures
        during a lazy load into a 500 — a client cannot fix a corrupt
        checkpoint by changing its request.
        """
        try:
            return self.registry.resolve(model_spec)
        except RegistryError as exc:
            if exc.kind == "unknown":
                raise ApiError.unknown_model(str(exc)) from exc
            raise ApiError.internal(str(exc)) from exc

    def _advise_async(self, request: AdviseRequest, entry: ModelEntry, *,
                      on_token: Callable[[str | partial], None] | None = None
                      ) -> Future:
        """The one request path (cache → single-flight → scheduler); the
        future resolves to the request's :class:`AdviseResponse`.

        ``entry`` is the resolved registry entry.  The owner of a decode
        holds a lease on it from submit until the decode resolves, so a
        concurrent hot-swap drains behind queued work instead of dropping it.
        ``on_token`` is a stream's sink for generated token strings: a miss
        feeds it per decode iteration; a cache hit replays its cached tokens
        into it and then hands it the deferred resolve, which the stream
        runs after yielding them.
        """
        self._require_not_draining()
        start = time.perf_counter()
        response: Future = Future()
        strategy = request.strategy.normalised()
        front = front_end(request.code)
        key = canonical_cache_key(request.code, front.xsbt, tokens=front.tokens,
                                  strategy=strategy, model=entry.identity)
        resolve = partial(self._resolve, response, request, front.diagnostics,
                          start=start, key=key, strategy=strategy, entry=entry)

        def from_cache(hit: PredictionResult) -> Future:
            if on_token is None:
                resolve(hit, cached=True)
                return response
            for token in hit.generated_tokens:
                on_token(token)
            # A stream sends its tokens before its response is built: the
            # sink takes the resolve last and the stream runs it.
            on_token(partial(resolve, hit, cached=True))
            return response

        hit = self.cache.get(key) if self.cache is not None else None
        if hit is not None:
            return from_cache(hit)
        with self._inflight_lock:
            # A stream decodes for itself: it never follows another request's
            # decode (whose tokens it would miss) and never registers its own,
            # so every in-flight entry belongs to the request that drops it.
            inflight = self._inflight.get(key) if on_token is None else None
            owner = inflight is None
            if owner:
                # Re-check under the lock: an owner that completed between
                # our miss above and here has already populated the cache.
                # peek() keeps the hit/miss counters at one count per
                # request; resolution happens outside the lock.
                hit = self.cache.peek(key) if self.cache is not None else None
                if hit is None:
                    inflight = self._submit_sched(request.code, front, strategy,
                                                  entry, on_token)
                    if on_token is None:
                        self._inflight[key] = inflight
        if hit is not None:
            return from_cache(hit)

        def _on_done(decode: Future) -> None:
            error = decode.exception()
            if owner:
                # Populate the cache BEFORE dropping the in-flight entry, and
                # have would-be owners re-check the cache under the in-flight
                # lock, so a concurrent identical request finds one of the two.
                if error is None and self.cache is not None:
                    self.cache.put(key, decode.result())
                with self._inflight_lock:
                    if self._inflight.get(key) is decode:
                        del self._inflight[key]
                entry.release()
            if error is not None:
                self._m.errors.inc()
                response.set_exception(error)
            else:
                resolve(decode.result(), cached=not owner)

        inflight.add_done_callback(_on_done)
        return response

    def _resolve(self, response: Future, request: AdviseRequest,
                 diagnostics: list, result: PredictionResult, *, cached: bool,
                 start: float, key: str, strategy: DecodingStrategy,
                 entry: ModelEntry) -> None:
        """Build this request's :class:`AdviseResponse` (own anchors and
        diagnostics) and finish.

        A non-cached resolve is the owner of the decode, and the scheduler
        already extracted suggestions against this very buffer — only cache
        hits and coalesced followers (possibly layout-shifted buffers) re-anchor.
        """
        if cached:
            result = anchor_result(request.code, result)
        session = build_advice_session(diagnostics, result)
        latency_ms = (time.perf_counter() - start) * 1000.0
        self._record_request(entry, latency_ms, cached=cached)
        response.set_result(AdviseResponse(
            generated_code=session.generated_code,
            advice=advice_items(session),
            diagnostics=tuple(session.parse_diagnostics),
            strategy=strategy,
            cached=cached,
            latency_ms=latency_ms,
            cache_key=key,
            # Echo the resolved name@revision only when the request named a
            # model: requests omitting it keep the v1.0 response shape.
            model=entry.identity if request.model is not None else None,
        ))

    def _record_request(self, entry: ModelEntry, latency_ms: float, *,
                        cached: bool) -> None:
        self._m.by_model.inc(entry.identity)
        (self._m.hits if cached else self._m.misses).inc()
        self._m.latency_ms.record(latency_ms)

    def _record_verify(self, latency_ms: float, verdict: str) -> None:
        self._m.verify_ms.record(latency_ms)
        self._m.verdicts.inc(verdict)

    def _submit_sched(self, source_code: str, front: FrontEnd,
                      strategy: DecodingStrategy, entry: ModelEntry,
                      on_token: Callable[[str], None] | None = None) -> Future:
        """Lease ``entry`` and queue one decode on the continuous scheduler;
        returns its future.

        The buffer arrives parsed and lexed, and the lease (returned by the
        caller once the decode resolves, or here if the submit fails) pins
        the resolved entry, so a hot-swap mid-queue cannot reroute it.
        ``on_token`` receives each generated token string per iteration (the
        streaming path).  A full admission queue raises the contract's 429
        ``queue_full`` :class:`repro.api.ApiError`; a strategy without a
        per-row state machine fails its own future inside the scheduler.
        The decode wall time (join → retire) is recorded per request as
        ``decode_latency_ms_p50/p95`` in ``/metrics``.
        """
        entry.acquire()
        try:
            sink = None
            if on_token is not None:
                vocab = entry.ensure_loaded().encoder.vocab

                def sink(token_id: int) -> None:
                    for token in vocab.decode([token_id]):
                        on_token(token)

            return self.sched.submit(SchedWork(
                source_code=source_code, xsbt=front.xsbt, tokens=front.tokens,
                strategy=strategy, entry=entry,
                max_length=self._max_length(entry), on_token=sink))
        except BaseException as exc:
            entry.release()
            if isinstance(exc, QueueFullError):
                raise ApiError.queue_full(
                    f"{exc}; retry after the in-flight decodes drain") from exc
            raise
