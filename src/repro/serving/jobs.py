"""Durable async batch jobs: crash-safe queue with resume and backpressure.

``POST /v1/advise/batch`` is the offline/bulk counterpart of the interactive
``/v1/advise`` route: a client submits up to
:data:`repro.api.MAX_BATCH_ITEMS` requests at once, gets a job id back
immediately, and polls ``GET /v1/jobs/{id}`` until the job reports
``"done"``.  The :class:`JobStore` behind it is small but production-shaped:

* **durability** — when given a log directory (the registry root's
  ``jobs/``), every submit, per-item result and status transition is an
  append-only record in a JSONL WAL (:mod:`repro.serving.joblog`).  A
  restarted store replays the log: finished jobs come back poll-able with
  their results, unfinished jobs are **re-enqueued idempotently** — items
  whose envelopes were already recorded are never run again, and re-run
  items whose decode completed before the crash are answered from the
  service's advice cache via their canonical cache keys, so resume costs no
  duplicate decodes.  Job ids never recycle across restarts (the WAL
  carries a ``next_id`` watermark);
* **backpressure** — the unfinished backlog is bounded (429 ``queue_full``
  on overflow), each client key (the ``X-Client-Id`` header over HTTP) has
  an in-flight quota (429 ``quota_exceeded``), and a closed store answers
  503 ``unavailable`` instead of pretending shutdown is a server bug;
* **hygiene** — finished jobs are evicted by TTL and by capacity (oldest
  finished first; queued/running jobs are never evicted), and polling an
  evicted-but-real id answers 410 ``expired`` — distinguishable from the
  404 a never-issued id gets, because ids are sequential and the watermark
  survives restarts;
* **self-healing worker** — the single worker thread is supervised: an
  exception escaping a job run fails that job's remaining items with
  ``internal`` envelopes and keeps consuming the queue instead of wedging
  every later job at ``"queued"``.  Each item decode waits with a bounded
  timeout (a hung decode becomes a ``timeout`` error envelope, not a stuck
  worker), and items that repeatedly crash the process (poison inputs —
  their WAL ``attempt`` count crosses the limit without ever recording a
  result) are parked in a terminal ``dead_letter`` envelope on replay;
* **per-item envelopes** — every item independently resolves to
  ``{"status": "ok", "response": ...}``, ``{"status": "error", "error":
  ...}`` or ``{"status": "dead_letter", "error": ...}`` reusing the
  :class:`repro.api.ApiError` wire envelope — one item naming an unloaded
  model does not poison its siblings.

Job ids are sequential (``job-1``, ``job-2``, ...) — deterministic for the
golden contract tests, trivially greppable in logs, and the reason an
evicted id is provably "real" (its number is below the watermark).
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

from ..api import AdviseRequest, ApiError
from .joblog import JobLog
from .metrics import Metrics

if TYPE_CHECKING:  # pragma: no cover — typing only
    from .service import InferenceService

#: Job lifecycle states, in order.
QUEUED, RUNNING, DONE = "queued", "running", "done"

#: Item envelope statuses (``ok``/``error`` plus the poison terminal state).
DEAD_LETTER = "dead_letter"

#: The client-quota bucket for submissions that carry no client key.
ANONYMOUS_CLIENT = "anonymous"

#: Longest accepted client key (the ``X-Client-Id`` header).  The key is
#: used verbatim as a quota-map key, so without a bound a hostile client
#: minting a fresh multi-megabyte id per submit would grow server memory
#: (and the per-submit quota scan) without limit.
MAX_CLIENT_ID_LENGTH = 128

#: Accepted client-key charset: printable, log-safe, header-safe.
_CLIENT_ID = re.compile(r"^[A-Za-z0-9._:@-]+$")

_JOB_ID = re.compile(r"^job-([1-9]\d*)$")


def validate_client_id(client: str | None) -> str | None:
    """Validate a caller-supplied quota key before it becomes a map key.

    Returns the key unchanged (or None for anonymous callers).  Raises the
    400 :class:`repro.api.ApiError` envelope on an oversized or
    out-of-charset id — quota keys are adversarial input, and an unbounded
    id would inflate per-client quota-map cardinality (and WAL record size,
    since the key is persisted with every submit).
    """
    if client is None:
        return None
    if not isinstance(client, str):
        raise ApiError.invalid_request(
            "X-Client-Id must be a string", field="X-Client-Id")
    if len(client) > MAX_CLIENT_ID_LENGTH:
        raise ApiError.invalid_request(
            f"X-Client-Id is {len(client)} characters; the limit is "
            f"{MAX_CLIENT_ID_LENGTH}", field="X-Client-Id")
    if not _CLIENT_ID.match(client):
        raise ApiError.invalid_request(
            "X-Client-Id may only contain letters, digits and '._:@-'",
            field="X-Client-Id")
    return client


@dataclass(frozen=True)
class JobPolicy:
    """Backpressure and hygiene knobs for one :class:`JobStore`.

    The defaults are sized for the in-process/demo scale this repo serves;
    every field exists because "millions of users" traffic needs the bound,
    not because the happy path does.
    """

    #: Retained jobs (finished ones are evicted oldest-first beyond this).
    max_jobs: int = 64
    #: Unfinished (queued + running) backlog bound — submits beyond it get
    #: the typed 429 ``queue_full`` envelope instead of queueing unboundedly.
    max_queue: int = 16
    #: Unfinished jobs one client key may hold — 429 ``quota_exceeded``.
    max_inflight_per_client: int = 8
    #: Seconds a *finished* job stays poll-able; ``None`` disables TTL
    #: eviction (capacity eviction still applies).
    ttl_seconds: float | None = 900.0
    #: Seconds the worker waits for one item's decode before resolving it to
    #: a ``timeout`` error envelope and moving on (also what bounds
    #: :meth:`JobStore.close`'s drain).
    item_timeout: float = 120.0
    #: WAL ``attempt`` records an item may accrue without a result before
    #: replay parks it as ``dead_letter`` (a poison input that keeps killing
    #: the process must not be retried forever).
    max_attempts: int = 3

    def validate(self) -> "JobPolicy":
        if self.max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {self.max_jobs}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_inflight_per_client < 1:
            raise ValueError("max_inflight_per_client must be >= 1, got "
                             f"{self.max_inflight_per_client}")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {self.ttl_seconds}")
        if self.item_timeout <= 0:
            raise ValueError(f"item_timeout must be > 0, got {self.item_timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        return self


class Job:
    """One submitted batch: its requests, per-item envelopes and status."""

    def __init__(self, job_id: str, requests: list[AdviseRequest], *,
                 client: str | None = None,
                 submitted_at: float | None = None) -> None:
        self.job_id = job_id
        self.requests = requests
        self.client = client or ANONYMOUS_CLIENT
        self._lock = threading.Lock()
        self._status = QUEUED
        self._results: list[dict[str, Any] | None] = [None] * len(requests)
        self._completed = 0
        #: Times each item has been handed to the service without recording
        #: a result — restored from WAL ``attempt`` records on resume; the
        #: poison-input (dead-letter) counter.
        self.attempts: list[int] = [0] * len(requests)
        self.submitted_at = submitted_at if submitted_at is not None else time.time()
        self.finished_at: float | None = None
        self._done = threading.Event()

    # ------------------------------------------------------------- lifecycle

    def _mark_running(self) -> None:
        with self._lock:
            if self._status == QUEUED:
                self._status = RUNNING

    def _set_result(self, index: int, envelope: dict[str, Any]) -> bool:
        """Record ``envelope`` for item ``index``; first write wins.

        Returns True when this call newly resolved the item — replayed WAL
        records, a late decode completing after its timeout envelope, and
        the crash-supervisor's blanket fill can race, and exactly one of
        them may count (and be logged).
        """
        with self._lock:
            if self._results[index] is not None:
                return False
            self._results[index] = envelope
            self._completed += 1
            if self._completed == len(self._results):
                self._status = DONE
                self.finished_at = time.time()
                self._done.set()
            return True

    def _has_result(self, index: int) -> bool:
        with self._lock:
            return self._results[index] is not None

    # ------------------------------------------------------------- reporting

    @property
    def status(self) -> str:
        with self._lock:
            return self._status

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is done (True) or ``timeout`` expires."""
        return self._done.wait(timeout)

    def to_dict(self) -> dict[str, Any]:
        """The ``GET /v1/jobs/{id}`` body.

        ``results`` holds one envelope per *completed* item, each tagged with
        its submission ``index`` — a poll mid-run sees the finished prefix of
        the workload, a poll after ``"done"`` sees everything, and the key
        set is identical in both cases.
        """
        with self._lock:
            results = [dict(envelope, index=index)
                       for index, envelope in enumerate(self._results)
                       if envelope is not None]
            return {
                "api_version": "v1",
                "job_id": self.job_id,
                "status": self._status,
                "total": len(self._results),
                "completed": self._completed,
                "results": results,
            }


def _error_envelope(error: ApiError) -> dict[str, Any]:
    return {"status": "error", **error.to_dict()}


def _internal_envelope(exc: Exception) -> dict[str, Any]:
    return _error_envelope(ApiError.internal(f"{type(exc).__name__}: {exc}"))


class JobStore:
    """Bounded, durable job queue + supervised worker over an
    :class:`InferenceService`.

    ``log_dir`` enables the WAL (usually ``<registry root>/jobs/``); ``None``
    keeps the pre-durability in-memory behaviour — jobs die with the
    process, but every bound and envelope still applies.  ``max_jobs`` is
    kept as a shorthand for ``policy=JobPolicy(max_jobs=...)``.
    """

    def __init__(self, service: "InferenceService", *,
                 max_jobs: int | None = None,
                 policy: JobPolicy | None = None,
                 log_dir: str | Path | None = None,
                 metrics: Metrics | None = None) -> None:
        policy = policy or JobPolicy()
        if max_jobs is not None:
            policy = replace(policy, max_jobs=max_jobs)
        self.policy = policy.validate()
        self.service = service
        self.metrics = metrics if metrics is not None else Metrics()
        self._m = self.bind_metrics(self.metrics)
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._queue: list[Job] = []
        self._next_id = 1
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._evicted_total = 0
        self._resumed_jobs = 0
        self._restored_items = 0
        self._log = JobLog(log_dir) if log_dir is not None else None
        if self._log is not None:
            self._recover()
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="batch-jobs", daemon=True)
        self._worker.start()

    @staticmethod
    def bind_metrics(metrics: Metrics) -> SimpleNamespace:
        """This store's instruments on ``metrics``.  Rejections by reason
        are the signal to alarm on before clients see sustained 429s."""
        return SimpleNamespace(
            submitted=metrics.counter("jobs_submitted_total"),
            rejected=metrics.labelled("jobs_rejected_by_reason",
                                      total="jobs_rejected_total"),
            dead_letter=metrics.counter("jobs_dead_letter_total"))

    # ------------------------------------------------------------------- api

    @property
    def max_jobs(self) -> int:
        return self.policy.max_jobs

    def submit(self, requests: list[AdviseRequest], *,
               client: str | None = None) -> Job:
        """Queue one batch of already-validated requests; returns its job.

        ``client`` is the caller's quota key (the ``X-Client-Id`` header over
        HTTP; ``None`` shares the anonymous bucket).  Raises the typed
        :class:`repro.api.ApiError` envelopes on backpressure: 429
        ``queue_full`` when the unfinished backlog is at capacity, 429
        ``quota_exceeded`` when this client already holds its in-flight
        quota, 503 ``unavailable`` once the store is shutting down.  A job is
        fsynced to the WAL *before* its id is acknowledged — an acknowledged
        submit survives a crash.
        """
        if not requests:
            raise ApiError.invalid_request(
                '"items" must be a non-empty list of advise requests',
                field="items")
        client_key = validate_client_id(client) or ANONYMOUS_CLIENT
        with self._cond:
            if self._closed:
                raise ApiError.unavailable(
                    "the job store is shutting down; retry against a "
                    "healthy replica")
            self._evict_expired_locked()
            backlog = [job for job in self._jobs.values() if not job.finished]
            if len(backlog) >= self.policy.max_queue:
                self._reject_locked("queue_full")
                raise ApiError.queue_full(
                    f"the job queue is full ({len(backlog)} unfinished jobs, "
                    f"limit {self.policy.max_queue}); retry after polling "
                    f"existing jobs to completion")
            inflight = sum(1 for job in backlog if job.client == client_key)
            if inflight >= self.policy.max_inflight_per_client:
                self._reject_locked("quota_exceeded")
                raise ApiError.quota_exceeded(
                    f"client {client_key!r} already has {inflight} jobs in "
                    f"flight (limit {self.policy.max_inflight_per_client})")
            job = Job(f"job-{self._next_id}", list(requests), client=client)
            self._next_id += 1
            self._jobs[job.job_id] = job
            self._evict_finished_locked()
            self._log_append({
                "type": "submit", "id": job.job_id, "client": job.client,
                "ts": job.submitted_at,
                "requests": [request.to_dict() for request in job.requests],
            }, sync=True)
            self._queue.append(job)
            self._m.submitted.inc()
            self._cond.notify_all()
        return job

    def get(self, job_id: str) -> Job:
        """Look up a job: the job, 410 ``expired`` for an evicted-but-real
        id, 404 ``not_found`` for an id that was never issued."""
        with self._cond:
            self._evict_expired_locked()
            job = self._jobs.get(job_id)
            next_id = self._next_id
        if job is not None:
            return job
        match = _JOB_ID.match(job_id)
        if match is not None and int(match.group(1)) < next_id:
            raise ApiError.expired(
                f"job {job_id!r} expired: it ran, but its results were "
                f"evicted (TTL/capacity); submit the work again if needed")
        raise ApiError.not_found(f"unknown job {job_id!r}")

    def close(self, *, wait: bool = True, timeout: float | None = None) -> bool:
        """Stop accepting jobs; the worker drains the queue, then exits.

        ``wait=True`` joins the worker — **bounded** by ``timeout`` seconds
        when given, so one hung decode cannot hang server shutdown (the
        per-item timeout already bounds each wait; the join timeout is the
        belt to that suspender).  Returns True when the worker actually
        exited.  The WAL is closed either way: with durability on, whatever
        the abandoned worker would still have written is recovered from
        re-enqueue on the next open instead.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        drained = True
        if wait:
            self._worker.join(timeout)
            drained = not self._worker.is_alive()
        if self._log is not None:
            self._log.close()
        return drained

    # ------------------------------------------------------------- reporting

    def snapshot(self) -> dict[str, Any]:
        """Operational counters for ``/metrics`` and ``/healthz``."""
        rejected = self._m.rejected.counts()
        with self._lock:
            jobs = list(self._jobs.values())
            snapshot = {
                "enabled": True,
                "durable": self._log is not None,
                # Counts ids issued by earlier process lives too (the WAL).
                "last_job_id": self._next_id - 1,
                "retained": len(jobs),
                "evicted_total": self._evicted_total,
                "dead_letter_items_total": self._m.dead_letter.value,
                "resumed_jobs": self._resumed_jobs,
                "restored_items": self._restored_items,
                "rejected_total": sum(rejected.values()),
                "rejected_by_reason": rejected,
                "queue_capacity": self.policy.max_queue,
                "max_inflight_per_client": self.policy.max_inflight_per_client,
                "closed": self._closed,
            }
        counts = {QUEUED: 0, RUNNING: 0, DONE: 0}
        for job in jobs:
            counts[job.status] += 1
        snapshot["queued"] = counts[QUEUED]
        snapshot["running"] = counts[RUNNING]
        snapshot["done"] = counts[DONE]
        snapshot["backlog"] = counts[QUEUED] + counts[RUNNING]
        if self._log is not None:
            snapshot["wal_dropped_appends"] = self._log.dropped_appends
            snapshot["wal_torn_records"] = self._log.torn_records
            snapshot["wal_orphaned_tmp_removed"] = self._log.orphaned_tmp_removed
        return snapshot

    # -------------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Replay the WAL: restore finished jobs, re-enqueue unfinished ones.

        Idempotent by construction — items with a recorded envelope are
        restored, never re-run; items past the attempt limit are parked as
        ``dead_letter``; everything else goes back through the service,
        where the advice cache answers any decode that already completed.
        Ends with a compaction so the WAL holds current state only.
        """
        states: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        watermark = 1
        for record in self._log.replay():
            kind = record.get("type")
            job_id = record.get("id")
            if kind == "meta":
                watermark = max(watermark, int(record.get("next_id", 1)))
                continue
            if not isinstance(job_id, str):
                continue
            match = _JOB_ID.match(job_id)
            if match is None:
                continue
            watermark = max(watermark, int(match.group(1)) + 1)
            if kind == "submit":
                states[job_id] = {
                    "client": record.get("client"),
                    "ts": record.get("ts"),
                    "requests": record.get("requests", []),
                    "results": {}, "attempts": {}, "finished_at": None,
                }
                continue
            state = states.get(job_id)
            if state is None:
                continue  # records for a job whose submit was compacted away
            if kind == "item":
                state["results"][int(record["index"])] = record["envelope"]
            elif kind == "attempt":
                index = int(record["index"])
                state["attempts"][index] = state["attempts"].get(index, 0) + 1
            elif kind == "attempts":  # compaction summary form
                for index, count in record.get("counts", {}).items():
                    state["attempts"][int(index)] = int(count)
            elif kind == "status" and record.get("status") == DONE:
                state["finished_at"] = record.get("ts", time.time())
            elif kind == "evict":
                states.pop(job_id, None)
                self._evicted_total += 1
        self._next_id = watermark

        now = time.time()
        for job_id, state in states.items():
            job = self._restore_job(job_id, state)
            if job.finished:
                ttl = self.policy.ttl_seconds
                finished_at = job.finished_at or now
                if ttl is not None and now - finished_at > ttl:
                    self._evicted_total += 1
                    continue
                self._jobs[job_id] = job
            else:
                self._jobs[job_id] = job
                self._queue.append(job)
                self._resumed_jobs += 1
        self._evict_finished_locked()
        self._log.rewrite(self._compacted_records())

    def _restore_job(self, job_id: str, state: dict[str, Any]) -> Job:
        """One WAL job state back into a live :class:`Job`."""
        requests: list[AdviseRequest] = []
        broken: dict[int, dict[str, Any]] = {}
        for index, raw in enumerate(state["requests"]):
            try:
                requests.append(AdviseRequest.from_dict(raw))
            except Exception as exc:  # noqa: BLE001 — one item, one envelope
                requests.append(AdviseRequest(code="/* unreplayable */"))
                broken[index] = _error_envelope(ApiError.internal(
                    f"item could not be replayed from the job log: "
                    f"{type(exc).__name__}: {exc}"))
        job = Job(job_id, requests, client=state.get("client"),
                  submitted_at=state.get("ts"))
        for index in range(len(requests)):
            envelope = state["results"].get(index, broken.get(index))
            if envelope is not None:
                job._set_result(index, envelope)
                self._restored_items += 1
            job.attempts[index] = state["attempts"].get(index, 0)
        if job.finished and state.get("finished_at") is not None:
            job.finished_at = state["finished_at"]
        return job

    def _compacted_records(self) -> list[dict[str, Any]]:
        records: list[dict[str, Any]] = [{
            "type": "meta", "v": 1, "next_id": self._next_id,
        }]
        for job in self._jobs.values():
            body = job.to_dict()
            records.append({
                "type": "submit", "id": job.job_id, "client": job.client,
                "ts": job.submitted_at,
                "requests": [request.to_dict() for request in job.requests],
            })
            attempts = {str(i): n for i, n in enumerate(job.attempts) if n}
            if attempts:
                records.append({"type": "attempts", "id": job.job_id,
                                "counts": attempts})
            for item in body["results"]:
                envelope = {k: v for k, v in item.items() if k != "index"}
                records.append({"type": "item", "id": job.job_id,
                                "index": item["index"], "envelope": envelope})
            if body["status"] == DONE:
                records.append({"type": "status", "id": job.job_id,
                                "status": DONE,
                                "ts": job.finished_at or time.time()})
        return records

    # ------------------------------------------------------------- internals

    def _log_append(self, record: dict[str, Any], *, sync: bool = False) -> None:
        if self._log is not None:
            self._log.append(record, sync=sync)

    def _log_sync(self) -> None:
        if self._log is not None:
            self._log.sync()

    def _reject_locked(self, reason: str) -> None:
        self._m.rejected.inc(reason)

    def _evict_locked(self, job_id: str) -> None:
        del self._jobs[job_id]
        self._evicted_total += 1
        self._log_append({"type": "evict", "id": job_id})

    def _evict_finished_locked(self) -> None:
        """Drop the oldest finished jobs once over capacity (never live ones)."""
        while len(self._jobs) > self.policy.max_jobs:
            victim = next((job_id for job_id, job in self._jobs.items()
                           if job.finished), None)
            if victim is None:
                return  # everything retained is queued/running; keep it all
            self._evict_locked(victim)

    def _evict_expired_locked(self) -> None:
        """TTL sweep: drop finished jobs whose retention window lapsed."""
        ttl = self.policy.ttl_seconds
        if ttl is None:
            return
        now = time.time()
        victims = [job_id for job_id, job in self._jobs.items()
                   if job.finished
                   and now - (job.finished_at or job.submitted_at) > ttl]
        for job_id in victims:
            self._evict_locked(job_id)

    def _worker_loop(self) -> None:
        """The supervised consumer: one crashed job must not wedge the tier.

        Any exception escaping :meth:`_run_job` — historically that silently
        killed the lone worker thread and froze every later job at
        ``"queued"`` — now fails the in-flight job's remaining items with
        ``internal`` envelopes and the loop keeps consuming.
        """
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                job = self._queue.pop(0)
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 — supervise, don't die
                self._fail_remaining(job, exc)

    def _fail_remaining(self, job: Job, exc: Exception) -> None:
        """Crash fallback: resolve every unset item so the job terminates."""
        envelope = _internal_envelope(exc)
        for index in range(len(job.requests)):
            try:
                self._finish_item(job, index, dict(envelope))
            except Exception:  # noqa: BLE001 — the supervisor must survive
                pass
        self._log_sync()

    def _run_job(self, job: Job) -> None:
        """Fan the job's items into the service and wait for all of them.

        Items are submitted asynchronously up front so they join the
        continuous batch together; each finishes into its own envelope.  A
        request that fails validation or model resolution *at run time*
        (e.g. its pinned revision was swapped away after submit), or meets
        a full decode admission queue (429 ``queue_full``), becomes an
        error envelope, not a job failure.  Already-resolved
        items (a resumed job's restored results) are skipped; items whose
        attempt count crossed the poison limit are parked as
        ``dead_letter``; every other item waits at most
        ``policy.item_timeout`` seconds before resolving to a ``timeout``
        envelope so one hung decode cannot wedge the queue behind it.
        """
        job._mark_running()
        self._log_append({"type": "status", "id": job.job_id,
                          "status": RUNNING, "ts": time.time()})
        pending = []
        for index, request in enumerate(job.requests):
            if job._has_result(index):
                continue  # restored from the WAL — never re-run
            job.attempts[index] += 1
            if job.attempts[index] > self.policy.max_attempts:
                self._finish_item(job, index, {
                    "status": DEAD_LETTER,
                    **ApiError.internal(
                        f"item {index} crashed the worker "
                        f"{job.attempts[index] - 1} times and is dead-lettered"
                    ).to_dict(),
                })
                continue
            self._log_append({"type": "attempt", "id": job.job_id,
                              "index": index})
            try:
                future = self.service.advise_request_async(request)
            except ApiError as exc:
                self._finish_item(job, index, _error_envelope(exc))
                continue
            except Exception as exc:  # noqa: BLE001 — one item, one envelope
                self._finish_item(job, index, _internal_envelope(exc))
                continue
            pending.append((index, future))
        self._log_sync()
        for index, future in pending:
            try:
                response = future.result(timeout=self.policy.item_timeout)
                if job.requests[index].verify is not None:
                    # Batch audits verify off the request path: the decode
                    # already resolved, so the simulation sweep here costs
                    # only this job's wall-clock, never a live request's.
                    response = self.service.apply_verification(
                        job.requests[index], response)
                envelope = {"status": "ok", "response": response.to_dict()}
            except FutureTimeoutError:
                envelope = _error_envelope(ApiError.timeout(
                    f"item {index} did not decode within "
                    f"{self.policy.item_timeout:g}s"))
            except ApiError as exc:
                envelope = _error_envelope(exc)
            except Exception as exc:  # noqa: BLE001 — one item, one envelope
                envelope = _internal_envelope(exc)
            self._finish_item(job, index, envelope)
        self._log_sync()

    def _finish_item(self, job: Job, index: int,
                     envelope: dict[str, Any]) -> None:
        """Record one item envelope (first write wins) and log it."""
        if not job._set_result(index, envelope):
            return  # a late decode lost the race against its timeout envelope
        if envelope.get("status") == DEAD_LETTER:
            self._m.dead_letter.inc()
        self._log_append({"type": "item", "id": job.job_id, "index": index,
                          "envelope": envelope})
        if job.finished:
            self._log_append({"type": "status", "id": job.job_id,
                              "status": DONE, "ts": job.finished_at},
                             sync=True)
