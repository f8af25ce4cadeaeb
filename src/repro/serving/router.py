"""Self-healing HTTP router in front of a :class:`~repro.serving.pool.WorkerPool`.

The router speaks the exact ``server.py`` wire contract — clients point at
one address and cannot tell whether a single server or a fleet answers — and
adds the fleet semantics a single process cannot offer:

* **consistent-hash dispatch on the canonical cache key** — every advise
  request is keyed with the same :func:`repro.serving.cache.canonical_cache_key`
  the workers cache under (structure + identifiers + strategy + model), so
  byte-different but canonically-equal resubmissions land on the same
  worker and its per-process LRU behaves like one sharded fleet-wide cache;
* **health checking** — an active ``/healthz`` probe loop per worker plus
  passive failure accounting on the request path; unhealthy workers drop
  out of dispatch and return when a probe succeeds;
* **retry with jittered backoff** — idempotent requests (advise, streams
  before the first forwarded byte, GETs) that hit a dead or
  draining worker fail over to the next replica on the ring, up to a
  bounded attempt budget with jittered exponential backoff between tries;
* **circuit breaking** — K consecutive failures open a worker's breaker;
  dispatch then skips it without paying connect timeouts until a cooldown
  elapses and a half-open probe succeeds;
* **graceful drain** (``POST /admin/workers/{id}/drain``) — the router
  stops routing to the worker, tells it to drain, polls its pending work
  down to zero, then bounces it through the supervisor;
* **rolling alias swaps** (``POST /v1/models/{name}/swap``) — the swap is
  applied worker-by-worker; each worker's own swap loads the target before
  flipping and drains in-flight leases, so the fleet converges with zero
  dropped requests.

Batch jobs need one extra affordance: job state lives in exactly one
worker's WAL, so the router namespaces job ids (``job-3`` on worker ``w1``
is surfaced as ``w1-job-3``) and pins polls to the owning worker.  Submits
are routed to the least-loaded worker and retried only on *connect-phase*
failures — after the request is on the wire the worker may already have
fsynced the job, and a blind resubmit would double-enqueue it.

``--smoke-chaos`` is the CI fault-injection drill: boot a 3-worker pool
over a demo checkpoint, drive concurrent mixed traffic, SIGKILL one worker
mid-load, and assert **zero failed requests** and a pool back at full
strength, then perform a rolling swap under the same load with zero drops.

Run it::

    PYTHONPATH=src python -m repro.serving.router --replicas 3 \
        --checkpoint ckpt/ --pool-root /var/lib/mpirical-pool --port 8080
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Sequence

from ..api import ApiError
from .metrics import Metrics, RouterMetrics, merge
from .pool import WorkerPool, server_worker_command
from .sched import ContinuousScheduler
from .server import MAX_BODY_BYTES
from .service import InferenceService

__all__ = ["HashRing", "CircuitBreaker", "WorkerClient", "RouterPolicy",
           "Router", "RouterRequestHandler", "make_router", "main"]

#: Router-prefixed job ids: ``w<worker index>-<worker-local job id>``.
_POOL_JOB_ID = re.compile(r"^(w\d+)-(job-.+)$")


class ConnectFailure(OSError):
    """Connect-phase failure: the request never reached the worker.

    The distinction matters for non-idempotent routes — a connect failure is
    always safe to retry elsewhere, a failure after the bytes were sent is
    not (the worker may have durably accepted the work before dying).
    """


# --------------------------------------------------------------------------
# consistent hashing


class HashRing:
    """Consistent-hash ring with virtual nodes over stable worker ids.

    ``order(key)`` returns *every* worker, nearest first — the dispatch
    plan.  The first entry is the key's home shard; the rest are the
    failover order, which stays stable across calls so retries always walk
    the same sequence.  Virtual nodes (``replicas`` points per worker)
    smooth the shard sizes; with one point per worker a two-worker ring can
    degenerate to a 90/10 split.
    """

    def __init__(self, worker_ids: Sequence[str], *, replicas: int = 64) -> None:
        if not worker_ids:
            raise ValueError("hash ring needs at least one worker")
        if len(set(worker_ids)) != len(worker_ids):
            raise ValueError(f"duplicate worker ids: {list(worker_ids)}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.worker_ids = list(worker_ids)
        self._points = sorted(
            (self._hash(f"{worker_id}#{index}"), worker_id)
            for worker_id in worker_ids for index in range(replicas))
        self._hashes = [point for point, _ in self._points]

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")

    def order(self, key: str) -> list[str]:
        """All workers, ring-clockwise from ``key``'s position (distinct)."""
        start = bisect_right(self._hashes, self._hash(key))
        total = len(self._points)
        seen: set[str] = set()
        plan: list[str] = []
        for step in range(total):
            worker_id = self._points[(start + step) % total][1]
            if worker_id not in seen:
                seen.add(worker_id)
                plan.append(worker_id)
                if len(plan) == len(self.worker_ids):
                    break
        return plan


# --------------------------------------------------------------------------
# circuit breaker


class CircuitBreaker:
    """Closed → open after ``threshold`` consecutive failures → half-open.

    While open, :meth:`allow` answers False (dispatch skips the worker
    without paying a connect timeout).  After ``cooldown`` seconds exactly
    one caller is admitted as the half-open probe; its success closes the
    breaker, its failure re-opens it for another cooldown.
    """

    def __init__(self, *, threshold: int = 3, cooldown: float = 2.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be > 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._open_until: float | None = None
        self._probe_inflight = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._open_until is None:
                return "closed"
            return "half_open" if self._clock() >= self._open_until else "open"

    def allow(self) -> bool:
        with self._lock:
            if self._open_until is None:
                return True
            if self._clock() < self._open_until:
                return False
            # Half-open: exactly one probe at a time.
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._open_until = None
            self._probe_inflight = False

    def record_failure(self) -> bool:
        """Count one failure; True when this failure *newly* tripped it."""
        with self._lock:
            self._failures += 1
            self._probe_inflight = False
            newly = self._open_until is None and self._failures >= self.threshold
            if newly or (self._open_until is not None
                         and self._clock() >= self._open_until):
                self._open_until = self._clock() + self.cooldown
            return newly

    def force_open(self, seconds: float) -> None:
        """Open without counting — honours a worker's ``Retry-After`` hint."""
        with self._lock:
            self._open_until = max(self._open_until or 0.0,
                                   self._clock() + seconds)
            self._probe_inflight = False


# --------------------------------------------------------------------------
# policy and per-worker client state


@dataclass(frozen=True)
class RouterPolicy:
    """Every routing/retry/health knob in one place."""

    #: Total forward attempts per request (first try included).
    max_attempts: int = 3
    connect_timeout: float = 1.0
    read_timeout: float = 120.0
    #: Jittered exponential backoff between attempts, seconds.
    backoff_base: float = 0.05
    backoff_max: float = 0.5
    breaker_threshold: int = 3
    breaker_cooldown: float = 2.0
    #: Longest a worker ``Retry-After`` hint may force the breaker open.
    retry_after_cap: float = 5.0
    #: Active /healthz probe cadence; <= 0 disables the probe loop.
    health_interval: float = 0.25
    health_timeout: float = 2.0
    ring_replicas: int = 64
    #: Drain coordinator: how long to wait for a worker's pending work.
    drain_timeout: float = 30.0
    #: Rolling swap: how long to wait for an unreachable worker per step.
    swap_worker_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.connect_timeout <= 0 or self.read_timeout <= 0:
            raise ValueError("timeouts must be > 0")
        if self.backoff_base <= 0 or self.backoff_max < self.backoff_base:
            raise ValueError("backoff must satisfy 0 < base <= max")


class WorkerClient:
    """The router's view of one worker: address, health, breaker, load."""

    def __init__(self, worker_id: str, host: str, port: int, *,
                 policy: RouterPolicy) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.breaker = CircuitBreaker(threshold=policy.breaker_threshold,
                                      cooldown=policy.breaker_cooldown)
        #: Starts False — a worker is routable-preferred only once a probe
        #: (or a passively observed success) proves it up.  Dispatch still
        #: falls back to unproven workers when no healthy candidate exists,
        #: so a cold pool serves as soon as any worker boots.
        self.healthy = False
        #: Set by the drain coordinator; a draining worker takes no new work.
        self.draining = False
        self.last_error: str | None = None
        self._lock = threading.Lock()
        self._inflight = 0

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def routable(self) -> bool:
        return self.healthy and not self.draining

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def begin(self) -> None:
        with self._lock:
            self._inflight += 1

    def end(self) -> None:
        with self._lock:
            self._inflight -= 1

    def info(self) -> dict[str, Any]:
        return {
            "id": self.worker_id,
            "endpoint": self.endpoint,
            "healthy": self.healthy,
            "draining": self.draining,
            "breaker": self.breaker.state,
            "inflight": self.inflight,
            "last_error": self.last_error,
        }


class _Outcome:
    """One forward attempt's result, as dispatch classifies it."""

    def __init__(self, kind: str, *, status: int = 0,
                 headers: dict[str, str] | None = None,
                 body: bytes = b"", retry_after: float | None = None) -> None:
        self.kind = kind  # "response" | "retryable" | "streamed" | "stream_broken"
        self.status = status
        self.headers = headers or {}
        self.body = body
        self.retry_after = retry_after


class _StreamRelay:
    """Adapter the handler passes into dispatch for ``/v1/advise/stream``.

    Tracks whether the 200 status line has been forwarded: before that,
    an upstream failure is retryable; after, the response is committed and
    the relay can only end the (truncated) stream.
    """

    def __init__(self, handler: "RouterRequestHandler") -> None:
        self._handler = handler
        self.started = False

    def start(self, content_type: str) -> None:
        self._handler.send_response(200)
        self._handler.send_header("Content-Type", content_type)
        self._handler.send_header("Cache-Control", "no-cache")
        self._handler.end_headers()
        self.started = True

    def write(self, chunk: bytes) -> None:
        self._handler.wfile.write(chunk)
        self._handler.wfile.flush()


# --------------------------------------------------------------------------
# the router


def _idle_worker_metrics() -> dict[str, Any]:
    """What a worker that has served nothing reports in ``/metrics``."""
    metrics = Metrics()
    InferenceService.bind_metrics(metrics)
    ContinuousScheduler.bind_metrics(metrics)
    return metrics.snapshot()


class Router:
    """Dispatch, health, retries, drain and rolling swaps over the fleet.

    Built either over a live :class:`WorkerPool` (the supervisor integration
    enables drain-then-bounce and pool state in ``/healthz``) or over bare
    ``(worker_id, host, port)`` endpoints (the unit tests' stub workers).
    """

    def __init__(self, *, pool: WorkerPool | None = None,
                 endpoints: Sequence[tuple[str, str, int]] | None = None,
                 policy: RouterPolicy | None = None,
                 seed: int | None = None) -> None:
        if (pool is None) == (endpoints is None):
            raise ValueError("pass exactly one of pool= or endpoints=")
        self.pool = pool
        self.policy = policy or RouterPolicy()
        self.metrics = metrics = RouterMetrics()
        # Retries should absorb worker failures: under chaos retries_total
        # and failovers_total (answered by a later replica) move, and
        # exhausted_total (the router answered 502/503 itself) stays 0.
        self._m = SimpleNamespace(
            requests=metrics.counter("requests_total"),
            failovers=metrics.counter("failovers_total"),
            exhausted=metrics.counter("exhausted_total"),
            breaker_trips=metrics.counter("breaker_trips_total"),
            # Each skip is a connect timeout the router did not pay.
            breaker_skips=metrics.counter("breaker_skips_total"),
            probe_failures=metrics.counter("probe_failures_total"),
            forwards=metrics.labelled("forwards_by_worker"),
            latency_ms=metrics.window("latency_ms"))
        # Recorded by RouterMetrics.record_retry; bound here to read 0 early.
        metrics.labelled("failures_by_worker", total="retries_total")
        if pool is not None:
            endpoints = [(spec.worker_id, spec.host, spec.port)
                         for spec in pool.specs()]
        self._clients = [WorkerClient(worker_id, host, port, policy=self.policy)
                         for worker_id, host, port in endpoints]
        self._by_id = {client.worker_id: client for client in self._clients}
        self._ring = HashRing([client.worker_id for client in self._clients],
                              replicas=self.policy.ring_replicas)
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._rr = 0
        self._rr_lock = threading.Lock()
        #: Affinity keys are derived by parsing the request body (the same
        #: canonicalisation the workers' cache does); memoise per raw body
        #: so an IDE hammering one buffer pays the parse once.
        self._key_cache: OrderedDict[str, str] = OrderedDict()
        self._key_lock = threading.Lock()
        self._stop = threading.Event()
        self._prober: threading.Thread | None = None

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "Router":
        if self.policy.health_interval > 0 and self._prober is None:
            self._prober = threading.Thread(target=self._health_loop,
                                            name="router-health", daemon=True)
            self._prober.start()
        return self

    def close(self) -> None:
        self._stop.set()
        if self._prober is not None:
            self._prober.join(5.0)
            self._prober = None

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ inspection

    def client(self, worker_id: str) -> WorkerClient:
        client = self._by_id.get(worker_id)
        if client is None:
            raise ApiError.not_found(f"unknown worker {worker_id!r}")
        return client

    def clients(self) -> list[WorkerClient]:
        return list(self._clients)

    def health(self) -> tuple[int, dict[str, Any]]:
        """The router's own ``/healthz``: per-worker detail + pool state.

        ``status`` is ``"ok"`` only at full strength (every worker routable
        and, when supervised, every process alive) — the signal the chaos
        drill polls for recovery.  HTTP status stays 200 while *any* worker
        can take traffic; 503 means the router itself cannot serve.
        """
        workers = [client.info() for client in self._clients]
        pool_state = self.pool.snapshot() if self.pool is not None else None
        full_strength = all(worker["healthy"] and not worker["draining"]
                            for worker in workers)
        if pool_state is not None:
            full_strength = (full_strength
                             and pool_state["alive"] == pool_state["size"])
        any_routable = any(client.routable for client in self._clients)
        body = {
            "status": "ok" if full_strength else "degraded",
            "workers": workers,
            "pool": pool_state,
        }
        return (200 if any_routable else 503), body

    def metrics_body(self) -> dict[str, Any]:
        return {
            "router": self.metrics.snapshot(),
            "workers": [client.info() for client in self._clients],
            "pool": self.pool.snapshot() if self.pool is not None else None,
            **self._worker_views(),
        }

    def _worker_views(self) -> dict[str, dict[str, Any]]:
        """The pool-wide ``verify`` and ``sched`` views: the ``verify_*``
        and ``sched_*`` keys of the :func:`merge` of every worker's
        ``/metrics``.

        Best-effort by design: a worker that cannot answer ``/metrics``
        inside the health timeout is counted in ``workers_unreachable``
        rather than failing the router's own metrics route.  A fresh
        worker registry seeds the merge, so every key reads zero while no
        worker reports.
        """
        snapshots = [_idle_worker_metrics()]
        for client in self._clients:
            try:
                outcome = self._request(
                    client, "GET", "/metrics", None,
                    connect_timeout=self.policy.health_timeout,
                    read_timeout=self.policy.health_timeout)
                if outcome.status == 200:
                    snapshots.append(json.loads(outcome.body))
            except Exception:  # noqa: BLE001 — degraded workers stay countable
                pass
        merged = merge(snapshots)
        reporting = len(snapshots) - 1
        reach = {"workers_reporting": reporting,
                 "workers_unreachable": len(self._clients) - reporting}
        return {view: {**{key: value for key, value in merged.items()
                          if key.startswith(f"{view}_")}, **reach}
                for view in ("verify", "sched")}

    # ---------------------------------------------------------- dispatch core

    def affinity_key(self, raw_body: bytes) -> str:
        """The consistent-hash key for one advise body.

        Mirrors the workers' cache key (canonical xSBT + tokens + strategy +
        model), so requests that would share a worker-side cache entry land
        on the same worker.  Any parse/validation failure falls back to a
        digest of the raw bytes — the worker will reject the request with a
        proper envelope; the router only needs *a* stable shard for it.
        """
        digest = hashlib.sha256(raw_body).hexdigest()
        with self._key_lock:
            cached = self._key_cache.get(digest)
            if cached is not None:
                self._key_cache.move_to_end(digest)
                return cached
        try:
            key = self._derive_affinity_key(raw_body)
        except Exception:  # noqa: BLE001 — invalid bodies still need a shard
            key = digest
        with self._key_lock:
            self._key_cache[digest] = key
            while len(self._key_cache) > 256:
                self._key_cache.popitem(last=False)
        return key

    @staticmethod
    def _derive_affinity_key(raw_body: bytes) -> str:
        from ..model.decoding import strategy_from_dict
        from .cache import canonical_cache_key

        payload = json.loads(raw_body)
        code = payload["code"]
        if not isinstance(code, str):
            raise TypeError("code must be a string")
        model = payload.get("model")
        if not isinstance(model, str):
            model = None
        # A body without "strategy" is the v1 default, greedy.
        strategy = strategy_from_dict(payload.get("strategy", "greedy"))
        return canonical_cache_key(code, strategy=strategy, model=model)

    def plan(self, key: str) -> list[WorkerClient]:
        """Dispatch order for ``key``: ring order, draining workers removed,
        proven-healthy workers ahead of unproven ones."""
        ordered = [self._by_id[worker_id] for worker_id in self._ring.order(key)]
        routable = [client for client in ordered if not client.draining]
        return ([client for client in routable if client.healthy]
                + [client for client in routable if not client.healthy])

    def _request(self, client: WorkerClient, method: str, path: str,
                 body: bytes | None, headers: dict[str, str] | None = None, *,
                 connect_timeout: float | None = None,
                 read_timeout: float | None = None,
                 stream: "_StreamRelay | None" = None) -> _Outcome:
        """One raw HTTP attempt against one worker.

        Raises :class:`ConnectFailure` when the connection itself failed
        (nothing reached the worker) and OSError/HTTPException for failures
        after that.  A 503 comes back as a ``retryable`` outcome; everything
        else (including 4xx — the client's problem, identical on every
        replica) is terminal.
        """
        conn = HTTPConnection(client.host, client.port,
                              timeout=connect_timeout
                              or self.policy.connect_timeout)
        try:
            try:
                conn.connect()
            except OSError as exc:
                raise ConnectFailure(str(exc)) from exc
            conn.sock.settimeout(read_timeout or self.policy.read_timeout)
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            if stream is not None and response.status == 200:
                stream.start(response.getheader("Content-Type",
                                                "application/x-ndjson"))
                try:
                    while True:
                        chunk = response.readline()
                        if not chunk:
                            return _Outcome("streamed", status=200)
                        stream.write(chunk)
                except (OSError, HTTPException):
                    # Bytes are already on the wire: the response is
                    # committed, the client sees a truncated stream.
                    return _Outcome("stream_broken", status=200)
            payload = response.read()
            response_headers = {name: value
                                for name, value in response.getheaders()}
            if response.status == 503:
                retry_after = _parse_retry_after(
                    response_headers.get("Retry-After"))
                return _Outcome("retryable", status=503,
                                headers=response_headers, body=payload,
                                retry_after=retry_after)
            return _Outcome("response", status=response.status,
                            headers=response_headers, body=payload)
        finally:
            conn.close()

    def _forwarded(self, client: WorkerClient, started: float, *,
                   attempt: int) -> None:
        """One request answered by ``client`` on 0-based ``attempt``."""
        m = self._m
        m.requests.inc()
        m.forwards.inc(client.worker_id)
        m.latency_ms.record((time.monotonic() - started) * 1000.0)
        if attempt > 0:
            m.failovers.inc()

    def _exhausted(self) -> None:
        self._m.requests.inc()
        self._m.exhausted.inc()

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(self.policy.backoff_base * (2 ** (attempt - 1)),
                    self.policy.backoff_max)
        with self._rng_lock:
            jitter = 0.5 + self._rng.random() * 0.5
        time.sleep(delay * jitter)

    def _attempt_failed(self, client: WorkerClient, exc: Exception) -> None:
        client.healthy = False
        client.last_error = f"{type(exc).__name__}: {exc}"
        if client.breaker.record_failure():
            self._m.breaker_trips.inc()
        self.metrics.record_retry(client.worker_id)

    def dispatch(self, method: str, path: str, raw_body: bytes | None,
                 headers: dict[str, str] | None = None, *,
                 key: str | None = None,
                 stream: "_StreamRelay | None" = None) -> _Outcome:
        """Route one **idempotent** request: affinity + failover + breaker.

        Walks the ring plan for the key, skipping open breakers, retrying
        connection failures / timeouts / 503s on the next replica with
        jittered backoff, up to ``max_attempts`` actual attempts.  Streaming
        requests stop failing over once the first byte is on the wire.
        """
        if key is None:
            key = self.affinity_key(raw_body or b"")
        plan = self.plan(key)
        started = time.monotonic()
        attempts = 0
        last_retryable: _Outcome | None = None
        for client in plan:
            if attempts >= self.policy.max_attempts:
                break
            if not client.breaker.allow():
                self._m.breaker_skips.inc()
                continue
            if attempts:
                self._sleep_backoff(attempts)
            attempts += 1
            client.begin()
            try:
                outcome = self._request(client, method, path, raw_body,
                                        headers, stream=stream)
            except (OSError, HTTPException) as exc:
                self._attempt_failed(client, exc)
                continue
            finally:
                client.end()
            if outcome.kind == "retryable":
                # A deliberate 503 (draining / shedding) is not a crash:
                # honour the worker's Retry-After instead of counting it
                # toward the breaker threshold.
                if outcome.retry_after is not None:
                    client.breaker.force_open(min(outcome.retry_after,
                                                  self.policy.retry_after_cap))
                self.metrics.record_retry(client.worker_id)
                last_retryable = outcome
                continue
            if outcome.kind == "stream_broken":
                # Committed but truncated: terminal for this request, and a
                # real failure for the worker's health accounting.
                self._attempt_failed(client, OSError("stream broken mid-relay"))
                return outcome
            client.breaker.record_success()
            client.healthy = True
            self._forwarded(client, started, attempt=attempts - 1)
            return outcome
        self._exhausted()
        if last_retryable is not None:
            return last_retryable
        return _error_outcome(ApiError.unavailable(
            "no healthy worker could serve the request; the pool is healing",
            retry_after=1.0))

    def dispatch_pinned(self, client: WorkerClient, method: str, path: str,
                        raw_body: bytes | None,
                        headers: dict[str, str] | None = None) -> _Outcome:
        """Route a request that only one worker can answer (job polls).

        No failover — the job's WAL lives in this worker — so retries stay
        on the pinned worker, riding out a supervisor respawn.
        """
        started = time.monotonic()
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self._sleep_backoff(attempt)
            client.begin()
            try:
                outcome = self._request(client, method, path, raw_body, headers)
            except (OSError, HTTPException) as exc:
                self._attempt_failed(client, exc)
                continue
            finally:
                client.end()
            if outcome.kind == "retryable":
                continue
            client.breaker.record_success()
            client.healthy = True
            self._forwarded(client, started, attempt=0)
            return outcome
        self._exhausted()
        return _error_outcome(ApiError.unavailable(
            f"worker {client.worker_id} is restarting; its jobs resume from "
            f"the WAL — retry shortly", retry_after=2.0))

    def dispatch_submit(self, raw_body: bytes,
                        headers: dict[str, str] | None = None) -> _Outcome:
        """Route one batch-job submit (NOT idempotent: 202 = durably queued).

        Least-loaded routable worker first (round-robin tiebreak); fails
        over **only on connect-phase errors** — once the submit bytes are on
        the wire the worker may already have fsynced the job, and retrying
        elsewhere would enqueue it twice.  Post-connect failures answer 502
        so the caller decides whether to resubmit.
        """
        candidates = [client for client in self._clients if client.routable]
        if not candidates:
            candidates = [client for client in self._clients
                          if not client.draining]
        if not candidates:
            return _error_outcome(ApiError.unavailable(
                "every worker is draining; retry against the pool later",
                retry_after=2.0))
        with self._rr_lock:
            offset = self._rr
            self._rr += 1
        # Least in-flight wins; the round-robin rotation breaks the all-idle
        # tie so submits spread instead of piling onto worker zero.
        rotation = candidates[offset % len(candidates):] \
            + candidates[:offset % len(candidates)]
        rotation.sort(key=lambda client: client.inflight)
        started = time.monotonic()
        attempts = 0
        for client in rotation:
            if attempts >= self.policy.max_attempts:
                break
            if not client.breaker.allow():
                self._m.breaker_skips.inc()
                continue
            attempts += 1
            client.begin()
            try:
                outcome = self._request(client, "POST", "/v1/advise/batch",
                                        raw_body, headers)
            except ConnectFailure as exc:
                self._attempt_failed(client, exc)
                continue
            except (OSError, HTTPException) as exc:
                self._attempt_failed(client, exc)
                return _error_outcome(ApiError(
                    "bad_gateway",
                    f"worker {client.worker_id} failed after the submit was "
                    f"sent; the job may or may not be queued — poll before "
                    f"resubmitting", status=502, retry_after=1.0))
            finally:
                client.end()
            if outcome.kind == "retryable":
                if outcome.retry_after is not None:
                    client.breaker.force_open(min(outcome.retry_after,
                                                  self.policy.retry_after_cap))
                self.metrics.record_retry(client.worker_id)
                continue
            client.breaker.record_success()
            client.healthy = True
            self._forwarded(client, started, attempt=attempts - 1)
            if outcome.status == 202:
                outcome.body = _prefix_job_id(outcome.body, client.worker_id)
            return outcome
        self._exhausted()
        return _error_outcome(ApiError.unavailable(
            "no worker accepted the job submit; retry", retry_after=1.0))

    # -------------------------------------------------------------- admin ops

    def drain_worker(self, worker_id: str, *, restart: bool = True,
                     timeout: float | None = None) -> dict[str, Any]:
        """Graceful drain: stop routing, let leases finish, then bounce.

        1. mark the worker draining (dispatch stops immediately);
        2. flip the worker itself into drain mode (new direct work gets 503);
        3. poll the worker's pending count and the router's own in-flight
           counter down to zero (bounded by ``drain_timeout``);
        4. bounce it through the supervisor (fresh process, no backoff) —
           the health loop readmits it once its probe succeeds.
        """
        client = self.client(worker_id)
        client.draining = True
        acknowledged = False
        try:
            outcome = self._request(client, "POST", "/admin/drain", b"{}",
                                    {"Content-Type": "application/json"})
            acknowledged = outcome.status == 200
        except (OSError, HTTPException):
            pass  # already dead — nothing in it to drain
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.policy.drain_timeout)
        pending: int | None = None
        drained = not acknowledged
        while not drained and time.monotonic() < deadline:
            try:
                outcome = self._request(
                    client, "GET", "/healthz", None,
                    read_timeout=self.policy.health_timeout)
                body = json.loads(outcome.body) if outcome.body else {}
                pending = body.get("pending")
            except (OSError, HTTPException, json.JSONDecodeError):
                drained = True  # died mid-drain; the bounce recovers it
                break
            if not pending and client.inflight == 0:
                drained = True
                break
            time.sleep(0.1)
        restarted = False
        if restart and self.pool is not None:
            self.pool.restart(worker_id)
            restarted = True
            # Fresh process: reset the router-side verdicts and let the
            # health loop readmit it on its first successful probe.
            client.breaker.record_success()
            client.healthy = False
            client.draining = False
        return {"worker": worker_id, "acknowledged": acknowledged,
                "drained": drained, "pending": pending,
                "restarted": restarted,
                "draining": client.draining}

    def rolling_swap(self, name: str, alias: str = "default") -> dict[str, Any]:
        """Apply an alias swap worker-by-worker across the fleet.

        Sequential on purpose: at any instant at most one worker is inside
        its (lease-draining, load-before-flip) local swap, so the fleet
        always has replicas serving and no request is dropped.  A worker
        that is mid-restart is waited for (``swap_worker_timeout``) — a
        rolling swap must not silently skip a replica and leave the fleet
        serving two revisions.
        """
        payload = json.dumps({"alias": alias}).encode()
        results: list[dict[str, Any]] = []
        for client in self._clients:
            outcome = self._swap_one(client, name, payload)
            body = json.loads(outcome.body) if outcome.body else {}
            if outcome.status != 200:
                return {"status": outcome.status, "alias": alias, "name": name,
                        "failed_worker": client.worker_id,
                        "error": body.get("error",
                                          {"code": "unavailable",
                                           "message": "worker unreachable"}),
                        "workers": results, "converged": False}
            results.append({"worker": client.worker_id,
                            "previous": body.get("previous"),
                            "current": body.get("current")})
        currents = {worker["current"] for worker in results}
        return {"status": 200, "api_version": "v1", "alias": alias,
                "name": name, "workers": results,
                "converged": len(currents) == 1,
                "current": currents.pop() if len(currents) == 1 else None}

    def _swap_one(self, client: WorkerClient, name: str,
                  payload: bytes) -> _Outcome:
        deadline = time.monotonic() + self.policy.swap_worker_timeout
        while True:
            client.begin()
            try:
                return self._request(client, "POST",
                                     f"/v1/models/{name}/swap", payload,
                                     {"Content-Type": "application/json"})
            except (OSError, HTTPException) as exc:
                if time.monotonic() >= deadline:
                    return _error_outcome(ApiError.unavailable(
                        f"worker {client.worker_id} unreachable during "
                        f"rolling swap ({type(exc).__name__}); fleet swap "
                        f"incomplete", retry_after=2.0))
                time.sleep(0.2)
            finally:
                client.end()

    def fan_out(self, method: str, path: str, raw_body: bytes | None,
                headers: dict[str, str] | None = None) -> dict[str, Any]:
        """Apply one request to every worker (model load/registration).

        Stops at the first failure — a half-loaded fleet is reported, not
        papered over.
        """
        results: list[dict[str, Any]] = []
        for client in self._clients:
            try:
                outcome = self._request(client, method, path, raw_body, headers)
            except (OSError, HTTPException) as exc:
                return {"status": 503, "workers": results,
                        "failed_worker": client.worker_id,
                        "error": {"code": "unavailable",
                                  "message": f"{type(exc).__name__}: {exc}"}}
            body = json.loads(outcome.body) if outcome.body else {}
            if outcome.status != 200:
                return {"status": outcome.status, "workers": results,
                        "failed_worker": client.worker_id,
                        "error": body.get("error", body)}
            results.append({"worker": client.worker_id, **body})
        return {"status": 200, "api_version": "v1", "workers": results}

    # ------------------------------------------------------------ health loop

    def _health_loop(self) -> None:
        while not self._stop.wait(self.policy.health_interval):
            for client in self._clients:
                if self._stop.is_set():
                    return
                self.probe(client)

    def probe(self, client: WorkerClient) -> bool:
        """One active ``/healthz`` round-trip; updates the routable verdict."""
        try:
            outcome = self._request(client, "GET", "/healthz", None,
                                    connect_timeout=self.policy.health_timeout,
                                    read_timeout=self.policy.health_timeout)
        except (OSError, HTTPException) as exc:
            if client.healthy:
                client.last_error = f"probe: {type(exc).__name__}: {exc}"
            client.healthy = False
            self._m.probe_failures.inc()
            return False
        if outcome.status == 200:
            client.healthy = True
            client.last_error = None
            client.breaker.record_success()
            return True
        # 503 draining (or any non-200): the worker is up but must not take
        # fresh traffic; keep it out of dispatch without breaker penalties.
        client.healthy = False
        try:
            body = json.loads(outcome.body) if outcome.body else {}
        except json.JSONDecodeError:
            body = {}
        client.last_error = f"probe: status {outcome.status} " \
                            f"({body.get('status', 'unknown')})"
        return False

    def wait_full_strength(self, timeout: float) -> bool:
        """Block until every worker is routable (and alive, when pooled)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, body = self.health()
            if body["status"] == "ok":
                return True
            time.sleep(0.1)
        return False


def _parse_retry_after(value: str | None) -> float | None:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


def _error_outcome(error: ApiError) -> _Outcome:
    return _Outcome("response", status=error.status,
                    headers={"Content-Type": "application/json"},
                    body=json.dumps(error.to_dict()).encode(),
                    retry_after=error.retry_after)


def _prefix_job_id(body: bytes, worker_id: str) -> bytes:
    """Namespace a worker-local job id with its worker for pinned polls."""
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return body
    if isinstance(payload, dict) and isinstance(payload.get("job_id"), str):
        payload["job_id"] = f"{worker_id}-{payload['job_id']}"
        return json.dumps(payload).encode()
    return body


# --------------------------------------------------------------------------
# the HTTP front


class RouterRequestHandler(BaseHTTPRequestHandler):
    """The ``server.py`` wire contract, served by the fleet."""

    #: Set by :func:`make_router`.
    router: Router

    timeout = 60
    quiet = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    # ------------------------------------------------------------- endpoints

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        try:
            if self.path == "/healthz":
                status, body = self.router.health()
                self._send_json(status, body)
            elif self.path == "/metrics":
                self._send_json(200, self.router.metrics_body())
            elif self.path.startswith("/v1/jobs/"):
                self._get_job(self.path[len("/v1/jobs/"):])
            else:
                # Any other GET (/v1/models, future listings) is idempotent:
                # forward with the path itself as the affinity key.
                outcome = self.router.dispatch("GET", self.path, None,
                                               key=self.path)
                self._relay(outcome)
        except Exception as exc:  # noqa: BLE001 — requests must not kill the router
            self._send_error(_as_api_error(exc))

    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        try:
            raw = self._read_body()
            if raw is None:
                return
            headers = self._forward_headers()
            if self.path == "/v1/advise":
                self._relay(self.router.dispatch("POST", self.path, raw,
                                                 headers))
            elif self.path == "/v1/advise/stream":
                relay = _StreamRelay(self)
                outcome = self.router.dispatch("POST", self.path, raw,
                                               headers, stream=relay)
                if outcome.kind in ("streamed", "stream_broken"):
                    return  # bytes already relayed
                self._relay(outcome)
            elif self.path == "/v1/advise/batch":
                self._relay(self.router.dispatch_submit(raw, headers))
            elif (match := re.fullmatch(r"/v1/models/([^/]+)/swap", self.path)):
                self._post_swap(match.group(1), raw)
            elif re.fullmatch(r"/v1/models/[^/]+/load", self.path):
                result = self.router.fan_out("POST", self.path, raw, headers)
                status = result.pop("status")
                self._send_json(status, result)
            elif (match := re.fullmatch(r"/admin/workers/([^/]+)/drain",
                                        self.path)):
                self._send_json(200, {"api_version": "v1",
                                      **self.router.drain_worker(
                                          match.group(1))})
            else:
                self._send_error(
                    ApiError.not_found(f"unknown path {self.path!r}"))
        except Exception as exc:  # noqa: BLE001 — requests must not kill the router
            self._send_error(_as_api_error(exc))

    def _get_job(self, job_id: str) -> None:
        match = _POOL_JOB_ID.match(job_id)
        if match is None:
            raise ApiError.not_found(
                f"unknown job {job_id!r} (pool job ids look like w0-job-1)")
        worker_id, local_id = match.groups()
        client = self.router.client(worker_id)
        outcome = self.router.dispatch_pinned(client, "GET",
                                              f"/v1/jobs/{local_id}", None)
        if outcome.status == 200:
            outcome.body = _prefix_job_id(outcome.body, worker_id)
        self._relay(outcome)

    def _post_swap(self, name: str, raw: bytes) -> None:
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ApiError.invalid_request(f"invalid JSON body: {exc}") from exc
        alias = payload.get("alias", "default") if isinstance(payload, dict) \
            else "default"
        if not isinstance(alias, str) or not alias.strip():
            raise ApiError.invalid_request(
                '"alias" must be a non-empty alias name', field="alias")
        result = self.router.rolling_swap(name, alias)
        status = result.pop("status")
        self._send_json(status, result)

    # ------------------------------------------------------------- plumbing

    def _forward_headers(self) -> dict[str, str]:
        headers = {"Content-Type": self.headers.get("Content-Type",
                                                    "application/json")}
        client_id = self.headers.get("X-Client-Id")
        if client_id is not None:
            headers["X-Client-Id"] = client_id
        return headers

    def _read_body(self) -> bytes | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_error(ApiError.invalid_request(
                "missing or oversized Content-Length"))
            return None
        return self.rfile.read(length)

    def _relay(self, outcome: _Outcome) -> None:
        """Write a completed upstream response back to the client."""
        body = outcome.body
        self.send_response(outcome.status)
        self.send_header("Content-Type",
                         outcome.headers.get("Content-Type",
                                             "application/json"))
        self.send_header("Content-Length", str(len(body)))
        retry_after = outcome.headers.get("Retry-After")
        if retry_after is None and outcome.retry_after is not None:
            retry_after = str(max(1, int(-(-outcome.retry_after // 1))))
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, error: ApiError) -> None:
        self._send_json(error.status, error.to_dict(),
                        retry_after=error.retry_after)

    def _send_json(self, status: int, payload: dict, *,
                   retry_after: float | None = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(-(-retry_after // 1)))))
        self.end_headers()
        self.wfile.write(body)


def _as_api_error(exc: Exception) -> ApiError:
    if isinstance(exc, ApiError):
        return exc
    return ApiError.internal(f"{type(exc).__name__}: {exc}")


def make_router(router: Router, host: str = "127.0.0.1", port: int = 0, *,
                quiet: bool = False) -> ThreadingHTTPServer:
    """Build (but do not start) the router's HTTP front on ``host:port``."""
    handler = type("BoundRouterRequestHandler", (RouterRequestHandler,),
                   {"router": router, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


# --------------------------------------------------------------------------
# CLI + chaos smoke


# The CLI + chaos-smoke block below runs as its own untraced process (the
# CI "Chaos smoke test" step drives it end to end), so it is excluded from
# in-process coverage measurement.
def _boot_fleet(checkpoint: str, pool_root: str | Path, replicas: int, *,  # pragma: no cover
                host: str = "127.0.0.1",
                policy: RouterPolicy | None = None,
                restart_backoff_base: float = 0.25) -> tuple[WorkerPool, Router]:
    """Spawn the pool over ``checkpoint`` and a started router above it."""
    import os

    src_dir = str(Path(__file__).resolve().parents[2])
    env = {"PYTHONPATH": src_dir + os.pathsep + os.environ.get("PYTHONPATH", "")}
    pool = WorkerPool(replicas, server_worker_command(checkpoint),
                      root=pool_root, host=host,
                      restart_backoff_base=restart_backoff_base, env=env)
    pool.start()
    router = Router(pool=pool, policy=policy).start()
    return pool, router


def _run_smoke_chaos(args) -> int:  # pragma: no cover
    """The fault-injection drill CI runs (also: ``tests/test_worker_pool.py``).

    3 real workers over one demo checkpoint; concurrent mixed traffic
    (greedy and beam-4 v1 advise over a handful of distinct buffers);
    SIGKILL one worker mid-load; assert **zero** non-2xx among all issued
    requests and the pool back at full strength; then a rolling swap to a
    second registered name under the same load, again with zero failures.
    """
    import shutil
    import tempfile
    import urllib.error
    import urllib.request

    workdir = tempfile.mkdtemp(prefix="mpirical-smoke-chaos-")
    failures: list[str] = []
    pool = router = front = None
    try:
        checkpoint = args.checkpoint
        if not checkpoint:
            from .server import _demo_model
            checkpoint = str(Path(workdir) / "checkpoint")
            _demo_model(None).save(checkpoint)

        pool, router = _boot_fleet(checkpoint, Path(workdir) / "pool",
                                   replicas=3)
        front = make_router(router, port=0, quiet=True)
        host, port = front.server_address[:2]
        threading.Thread(target=front.serve_forever, daemon=True).start()
        base = f"http://{host}:{port}"

        if not router.wait_full_strength(120.0):
            failures.append(f"pool never reached full strength: "
                            f"{router.health()[1]}")
            return _chaos_report(failures, router)

        codes = [f"int main() {{ return {n}; }}\n" for n in range(8)]
        statuses: list[tuple[int, str]] = []
        statuses_lock = threading.Lock()
        done_count = [0]

        def fire(path: str, payload: dict) -> None:
            request = urllib.request.Request(
                f"{base}{path}", data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=120) as response:
                    status, note = response.status, ""
                    response.read()
            except urllib.error.HTTPError as exc:
                status, note = exc.code, exc.read().decode(errors="replace")
            except Exception as exc:  # noqa: BLE001 — a failure to record
                status, note = 599, f"{type(exc).__name__}: {exc}"
            with statuses_lock:
                statuses.append((status, note))
                done_count[0] += 1

        def traffic(thread_index: int, requests: int) -> None:
            for n in range(requests):
                code = codes[(thread_index + n) % len(codes)]
                strategy = ({"name": "beam", "beam_size": 4} if n % 3 == 2
                            else {"name": "greedy"})
                fire("/v1/advise", {"code": code, "strategy": strategy})

        def run_traffic(threads: int = 6, requests: int = 20) -> int:
            workers = [threading.Thread(target=traffic, args=(index, requests))
                       for index in range(threads)]
            for thread in workers:
                thread.start()
            return_after = threads * requests
            for thread in workers:
                thread.join()
            return return_after

        # ---- stage 1: SIGKILL one worker under load --------------------
        kill_after = 20
        killer_done = threading.Event()

        def killer() -> None:
            while done_count[0] < kill_after:
                time.sleep(0.01)
            pool.kill("w1")
            killer_done.set()

        threading.Thread(target=killer, daemon=True).start()
        total = run_traffic()
        killer_done.wait(10.0)
        bad = [entry for entry in statuses if not 200 <= entry[0] < 300]
        if bad:
            failures.append(f"stage 1: {len(bad)}/{total} requests failed "
                            f"after SIGKILL, e.g. {bad[:3]}")
        if not killer_done.is_set():
            failures.append("stage 1: traffic finished before the kill fired")
        if not router.wait_full_strength(60.0):
            failures.append(f"stage 1: pool never recovered after SIGKILL: "
                            f"{router.health()[1]}")

        # ---- stage 2: rolling swap under load --------------------------
        statuses.clear()
        done_count[0] = 0
        result = router.fan_out(
            "POST", "/v1/models/demo-next/load",
            json.dumps({"checkpoint": checkpoint}).encode(),
            {"Content-Type": "application/json"})
        if result["status"] != 200:
            failures.append(f"stage 2: fleet-wide model load failed: {result}")
            return _chaos_report(failures, router)
        swap_result: dict[str, Any] = {}

        def swapper() -> None:
            while done_count[0] < 15:
                time.sleep(0.01)
            swap_result.update(router.rolling_swap("demo-next"))

        swap_thread = threading.Thread(target=swapper, daemon=True)
        swap_thread.start()
        total = run_traffic()
        swap_thread.join(120.0)
        bad = [entry for entry in statuses if not 200 <= entry[0] < 300]
        if bad:
            failures.append(f"stage 2: {len(bad)}/{total} requests failed "
                            f"during rolling swap, e.g. {bad[:3]}")
        if swap_result.get("status") != 200 or not swap_result.get("converged"):
            failures.append(f"stage 2: rolling swap did not converge: "
                            f"{swap_result}")

        snapshot = router.metrics.snapshot()
        if snapshot["exhausted_total"]:
            failures.append(f"router exhausted its retry budget "
                            f"{snapshot['exhausted_total']} time(s)")
        if not failures:
            print(f"chaos smoke ok: SIGKILL of w1 under load lost 0 requests "
                  f"({snapshot['failovers_total']} failover(s), "
                  f"{snapshot['retries_total']} retrie(s)); pool healed to "
                  f"full strength; rolling swap to demo-next converged with "
                  f"0 drops")
    finally:
        if front is not None:
            front.shutdown()
            front.server_close()
        if router is not None:
            router.close()
        if pool is not None:
            pool.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return _chaos_report(failures, router)


def _chaos_report(failures: list[str], router: Router | None) -> int:  # pragma: no cover
    import sys as _sys

    if not failures:
        return 0
    for failure in failures:
        print(f"chaos smoke FAILED: {failure}", file=_sys.stderr)
    if router is not None:
        print(f"router metrics: {json.dumps(router.metrics.snapshot())}",
              file=_sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:  # pragma: no cover
    parser = argparse.ArgumentParser(
        description="Route MPI-RICAL advice across a self-healing worker "
                    "pool (stdlib only).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--replicas", type=int, default=3,
                        help="worker subprocess count")
    parser.add_argument("--checkpoint", default=None,
                        help="model directory saved via MPIRical.save(); "
                             "omitted = train a small demo model once and "
                             "share it across the fleet")
    parser.add_argument("--pool-root", default=None,
                        help="pool state directory (per-worker registry "
                             "roots and job WALs live under "
                             "<root>/workers/<id>)")
    parser.add_argument("--smoke-chaos", action="store_true",
                        help="fault-injection drill: 3 workers, concurrent "
                             "traffic, SIGKILL one, assert zero failures + "
                             "recovery + a clean rolling swap, exit")
    args = parser.parse_args(argv)

    if args.smoke_chaos:
        return _run_smoke_chaos(args)

    import shutil
    import tempfile

    workdir = None
    checkpoint = args.checkpoint
    pool_root = args.pool_root
    if not checkpoint or not pool_root:
        workdir = tempfile.mkdtemp(prefix="mpirical-pool-")
        if not checkpoint:
            from .server import _demo_model
            checkpoint = str(Path(workdir) / "checkpoint")
            _demo_model(None).save(checkpoint)
        if not pool_root:
            pool_root = str(Path(workdir) / "pool")

    pool, router = _boot_fleet(checkpoint, pool_root, args.replicas,
                               host=args.host)
    front = make_router(router, args.host, args.port)
    host, port = front.server_address[:2]
    print(f"routing MPI-RICAL advice on http://{host}:{port} across "
          f"{args.replicas} worker(s) (same API as server.py; plus "
          f"POST /admin/workers/<id>/drain, rolling /v1/models/<name>/swap)")
    try:
        front.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        front.shutdown()
        front.server_close()
        router.close()
        pool.stop()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
