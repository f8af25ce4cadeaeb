"""repro.serving — throughput-oriented serving layer over the MPI-RICAL model.

The seed pipeline answers one ``predict_code()`` call at a time; this package
turns it into a concurrent service:

``repro.serving.sched``     continuous batching (the one decode path):
                            an iteration-level scheduler where requests
                            join/retire the in-flight batch between decode
                            steps, with per-row strategy state and
                            bitwise-identical outputs
                            (:class:`ContinuousScheduler`,
                            :class:`InflightBatch`, :class:`SchedulerPolicy`)
``repro.serving.cache``     thread-safe LRU keyed on the canonical xSBT form
                            + decoding strategy + ``model@revision``
``repro.serving.metrics``   the one metrics model (:class:`Metrics`:
                            counters, labelled counters, windows) and the
                            router's :func:`merge` of worker snapshots
``repro.serving.service``   the :class:`InferenceService` facade (v1 contract,
                            one entry contract: :class:`repro.api.AdviseRequest`
                            in, :class:`repro.api.AdviseResponse` out, through
                            ``advise_request``/``advise_request_async`` or
                            streamed by ``advise_stream``; fronts a
                            :class:`repro.registry.ModelRegistry`)
``repro.serving.jobs``      durable async batch jobs (:class:`JobStore` +
                            :class:`JobPolicy`) behind ``POST
                            /v1/advise/batch`` / ``GET /v1/jobs/{id}``:
                            WAL-backed crash recovery, idempotent resume,
                            bounded queue + per-client quotas (429), TTL
                            eviction (410), dead-letter items
``repro.serving.joblog``    the append-only JSONL WAL (:class:`JobLog`)
                            under ``<registry root>/jobs/``
``repro.serving.server``    stdlib HTTP endpoint (/v1/advise,
                            /v1/advise/stream, /v1/advise/batch, /v1/jobs,
                            /v1/models [list/load/swap],
                            /healthz, /metrics, /admin/drain)
                            (import explicitly: ``repro.serving.server``)
``repro.serving.pool``      :class:`WorkerPool`: N supervised ``server.py``
                            subprocess replicas with restart backoff and
                            fault-injection hooks
                            (import explicitly: ``repro.serving.pool``)
``repro.serving.router``    self-healing front router over the pool —
                            consistent-hash dispatch on the canonical cache
                            key, health probes, retry/backoff + circuit
                            breaking, graceful drain, rolling alias swaps
                            (import explicitly: ``repro.serving.router``)

Quick start
-----------
>>> from repro.api import AdviseRequest
>>> from repro.serving import InferenceService
>>> service = InferenceService(mpirical, max_batch_size=8)
>>> response = service.advise_request(AdviseRequest(code=source_code))
>>> response.generated_code, response.advice, response.cached
>>> service.metrics()["cache_hit_rate"]
"""

from .cache import CacheStats, LRUCache, canonical_cache_key
from .joblog import JobLog
from .jobs import Job, JobPolicy, JobStore, validate_client_id
from .metrics import Metrics, RouterMetrics, percentile
from .sched import (
    ContinuousScheduler,
    InflightBatch,
    QueueFullError,
    SchedulerPolicy,
    SchedWork,
)
from .service import InferenceService

# NOTE: the HTTP layers (repro.serving.server, repro.serving.router) are
# intentionally not imported here so that `python -m repro.serving.server` /
# `... .router` does not double-import the module; use
# `from repro.serving.server import make_server`,
# `from repro.serving.pool import WorkerPool`,
# `from repro.serving.router import Router, make_router`.

__all__ = [
    "ContinuousScheduler",
    "InflightBatch",
    "QueueFullError",
    "SchedulerPolicy",
    "SchedWork",
    "CacheStats",
    "LRUCache",
    "canonical_cache_key",
    "Metrics",
    "RouterMetrics",
    "percentile",
    "InferenceService",
    "Job",
    "JobLog",
    "JobPolicy",
    "JobStore",
    "validate_client_id",
]
