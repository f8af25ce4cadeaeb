"""Request-level serving metrics: counters, batch-size histogram, latency quantiles.

Every number here answers a capacity question the ROADMAP's
"heavy traffic" north star raises: *is the continuous scheduler actually
batching* (batch-size histogram, per-step occupancy), *is the cache earning
its memory* (hit counters feed :meth:`ServingMetrics.snapshot` alongside
the cache's own stats), and *what latency are callers seeing* (p50/p95 over
a bounded window).

Latencies are kept in a fixed-size ring buffer, so the memory footprint is
constant no matter how long the server runs; quantiles are therefore over the
most recent ``window`` requests, which is what an operator dashboards anyway.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Any


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class ServingMetrics:
    """Thread-safe accumulator shared by the service facade and its workers."""

    def __init__(self, window: int = 1024) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._latencies_ms: deque[float] = deque(maxlen=window)
        #: Model-side decode latency per request (join → retire in the
        #: continuous batch) — isolates decoder speed from queueing,
        #: cache lookups and anchoring, so fast-path wins are observable at
        #: ``/metrics`` even when end-to-end latency is queue-dominated.
        self._decode_ms: deque[float] = deque(maxlen=window)
        self._batch_sizes: Counter[int] = Counter()
        #: Per generation-config batch-size histograms, keyed by the config
        #: label of each same-config join group (e.g. ``"greedy"``,
        #: ``"beam4:lp0.6"``).
        self._batch_sizes_by_config: dict[str, Counter[int]] = {}
        #: Per-model request counters keyed on ``name@revision`` — the
        #: registry-era view of where traffic lands, bounded by the same
        #: label-cardinality cap as the per-config histograms.
        self._requests_by_model: Counter[str] = Counter()
        #: Per-reason batch-job rejections (``queue_full`` /
        #: ``quota_exceeded``) — the backpressure signal an operator alarms
        #: on before clients start seeing sustained 429s.
        self._jobs_rejected: Counter[str] = Counter()
        #: Verification latency per verified request (simulate-and-rerank
        #: wall time, on top of the decode) — its own window because verify
        #: cost is simulation-bound, not model-bound.
        self._verify_ms: deque[float] = deque(maxlen=window)
        #: Per-verdict verification counters (``verified`` / ``failed`` /
        #: ``skipped``), capped like the per-config histograms so a buggy
        #: caller cannot grow label cardinality.
        self._verify_by_verdict: Counter[str] = Counter()
        #: Continuous-batching scheduler gauges: per-iteration batch
        #: occupancy (rows live during the step) and per-request admission
        #: wait (submit → join).  Occupancy says whether iteration-level
        #: scheduling is actually filling the batch; queue wait is what a
        #: request pays before its first decode step.
        self._sched_occupancy: deque[int] = deque(maxlen=window)
        self._sched_wait_ms: deque[float] = deque(maxlen=window)
        self.requests_total = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches_total = 0
        self.errors_total = 0
        self.streams_total = 0
        self.jobs_submitted_total = 0
        self.jobs_dead_letter_total = 0
        self.verify_total = 0
        self.sched_steps_total = 0
        self.sched_joins_total = 0
        self.sched_retires_total = 0
        self.sched_starvation_total = 0

    # ------------------------------------------------------------- recording

    def record_request(self, latency_ms: float, *, cached: bool,
                       model: str | None = None) -> None:
        """Record one completed request and its end-to-end latency.

        ``model`` is the resolved ``name@revision`` identity that served the
        request; label cardinality is capped like the per-config histograms
        (model *names* are operator-controlled, but a spec could in theory
        churn revisions — the cap keeps /metrics bounded regardless).
        """
        with self._lock:
            self.requests_total += 1
            if cached:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            self._latencies_ms.append(latency_ms)
            if model is not None:
                label = model
                if (label not in self._requests_by_model
                        and len(self._requests_by_model) >= self.MAX_CONFIG_LABELS):
                    label = "other"
                self._requests_by_model[label] += 1


    #: Cardinality bound for the per-config histograms: the label embeds the
    #: client-controlled length penalty, so without a cap a client sweeping
    #: penalties would grow server memory (and /metrics payloads) forever.
    MAX_CONFIG_LABELS = 32

    def record_batch(self, size: int, group: object = None) -> None:
        """Record one batch of ``size`` requests joining the decode together.

        ``group`` is the strategy's canonical label for the join group;
        ``None`` keeps only the aggregate histogram (pre-beam behaviour).
        Once :attr:`MAX_CONFIG_LABELS` distinct labels exist, further labels
        are lumped under ``"other"``.
        """
        with self._lock:
            self.batches_total += 1
            self._batch_sizes[size] += 1
            if group is not None:
                label = str(group)
                if (label not in self._batch_sizes_by_config
                        and len(self._batch_sizes_by_config) >= self.MAX_CONFIG_LABELS):
                    label = "other"
                self._batch_sizes_by_config.setdefault(label, Counter())[size] += 1

    def record_decode(self, latency_ms: float) -> None:
        """Record one request's model-side decode latency (join → retire)."""
        with self._lock:
            self._decode_ms.append(latency_ms)

    def record_stream(self) -> None:
        """Record one completed streaming request (also counted as a request
        via :meth:`record_request` — this tracks the streaming share)."""
        with self._lock:
            self.streams_total += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors_total += 1

    def record_job_submitted(self) -> None:
        """Record one accepted batch-job submission."""
        with self._lock:
            self.jobs_submitted_total += 1

    def record_job_rejected(self, reason: str) -> None:
        """Record one backpressure rejection (``queue_full`` etc.)."""
        with self._lock:
            self._jobs_rejected[reason] += 1

    def record_job_dead_letter(self) -> None:
        """Record one item parked in the ``dead_letter`` terminal state."""
        with self._lock:
            self.jobs_dead_letter_total += 1

    def record_sched_step(self, occupancy: int, *, joins: int = 0,
                          retires: int = 0) -> None:
        """Record one continuous-batching iteration.

        ``occupancy`` is the number of rows live during the decode step;
        ``joins``/``retires`` count the requests that entered / left the
        in-flight batch in the scheduling pass right before it.
        """
        with self._lock:
            self.sched_steps_total += 1
            self.sched_joins_total += joins
            self.sched_retires_total += retires
            self._sched_occupancy.append(occupancy)

    def record_sched_wait(self, wait_ms: float) -> None:
        """Record one request's admission wait (submit → batch join)."""
        with self._lock:
            self._sched_wait_ms.append(wait_ms)

    def record_sched_starvation(self) -> None:
        """Record one anti-starvation engagement: the queue head could not
        fit and has waited long enough that smaller requests stop jumping
        ahead of it."""
        with self._lock:
            self.sched_starvation_total += 1

    def record_verify(self, latency_ms: float, verdict: str) -> None:
        """Record one verification pass and its response-level verdict.

        ``verdict`` is the report status (``verified``/``failed``/
        ``skipped``); labels beyond :attr:`MAX_CONFIG_LABELS` lump under
        ``"other"`` like every other client-influenced label family.
        """
        with self._lock:
            self.verify_total += 1
            self._verify_ms.append(latency_ms)
            label = verdict
            if (label not in self._verify_by_verdict
                    and len(self._verify_by_verdict) >= self.MAX_CONFIG_LABELS):
                label = "other"
            self._verify_by_verdict[label] += 1

    # ------------------------------------------------------------- reporting

    def snapshot(self) -> dict[str, Any]:
        """A point-in-time dict of every metric (JSON-serialisable)."""
        with self._lock:
            latencies = list(self._latencies_ms)
            decode_latencies = list(self._decode_ms)
            batch_sizes = dict(sorted(self._batch_sizes.items()))
            by_config = {label: dict(sorted(counts.items()))
                         for label, counts in sorted(self._batch_sizes_by_config.items())}
            by_model = dict(sorted(self._requests_by_model.items()))
            requests = self.requests_total
            hits = self.cache_hits
            misses = self.cache_misses
            batches = self.batches_total
            errors = self.errors_total
            streams = self.streams_total
            jobs_submitted = self.jobs_submitted_total
            jobs_dead_letter = self.jobs_dead_letter_total
            jobs_rejected = dict(sorted(self._jobs_rejected.items()))
            verify_total = self.verify_total
            verify_latencies = list(self._verify_ms)
            verify_by_verdict = dict(sorted(self._verify_by_verdict.items()))
            sched_steps = self.sched_steps_total
            sched_joins = self.sched_joins_total
            sched_retires = self.sched_retires_total
            sched_starvation = self.sched_starvation_total
            sched_occupancy = list(self._sched_occupancy)
            sched_waits = list(self._sched_wait_ms)
        batched_requests = sum(size * count for size, count in batch_sizes.items())
        batches_by_config = {
            label: {
                "batches": sum(counts.values()),
                "requests": sum(size * count for size, count in counts.items()),
                "batch_size_histogram": counts,
            }
            for label, counts in by_config.items()
        }
        return {
            "requests_total": requests,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / requests if requests else 0.0,
            "errors_total": errors,
            "streams_total": streams,
            "jobs_submitted_total": jobs_submitted,
            "jobs_rejected_total": sum(jobs_rejected.values()),
            "jobs_rejected_by_reason": jobs_rejected,
            "jobs_dead_letter_total": jobs_dead_letter,
            "batches_total": batches,
            "batch_size_histogram": batch_sizes,
            "batches_by_config": batches_by_config,
            "requests_by_model": by_model,
            "mean_batch_size": batched_requests / batches if batches else 0.0,
            "latency_ms_p50": percentile(latencies, 0.50),
            "latency_ms_p95": percentile(latencies, 0.95),
            "latency_ms_max": max(latencies) if latencies else 0.0,
            "latency_window": len(latencies),
            "decode_latency_ms_p50": percentile(decode_latencies, 0.50),
            "decode_latency_ms_p95": percentile(decode_latencies, 0.95),
            "decode_latency_window": len(decode_latencies),
            "verify_total": verify_total,
            "verify_by_verdict": verify_by_verdict,
            "verify_latency_ms_p50": percentile(verify_latencies, 0.50),
            "verify_latency_ms_p95": percentile(verify_latencies, 0.95),
            "verify_latency_window": len(verify_latencies),
            "sched_steps_total": sched_steps,
            "sched_joins_total": sched_joins,
            "sched_retires_total": sched_retires,
            "sched_starvation_total": sched_starvation,
            "sched_occupancy_mean": (sum(sched_occupancy) / len(sched_occupancy)
                                     if sched_occupancy else 0.0),
            "sched_occupancy_max": max(sched_occupancy, default=0),
            "sched_queue_wait_ms_p50": percentile(sched_waits, 0.50),
            "sched_queue_wait_ms_p95": percentile(sched_waits, 0.95),
            "sched_queue_wait_window": len(sched_waits),
        }


class RouterMetrics:
    """Thread-safe counters for the pool router (:mod:`repro.serving.router`).

    Where :class:`ServingMetrics` answers "is the model layer keeping up",
    these answer the fleet-health questions the router's self-healing story
    hangs on: *are retries absorbing worker failures* (``retries_total`` vs
    ``exhausted_total`` — the first should move under chaos, the second
    should stay at zero), *which workers are taking traffic*
    (``forwards_by_worker``), and *how often is the breaker saving us from a
    dead endpoint* (``breaker_trips_total``, ``breaker_skips_total``).
    """

    def __init__(self, window: int = 1024) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._latencies_ms: deque[float] = deque(maxlen=window)
        self._forwards_by_worker: Counter[str] = Counter()
        self._failures_by_worker: Counter[str] = Counter()
        self.requests_total = 0
        #: Requests answered by a worker other than their first-choice ring
        #: replica — the failover count the chaos differential watches.
        self.failovers_total = 0
        self.retries_total = 0
        #: Requests that ran out of candidates/attempts and answered 502/503
        #: from the router itself.  Non-zero under single-worker loss means
        #: the retry budget is misconfigured.
        self.exhausted_total = 0
        self.breaker_trips_total = 0
        #: Dispatch decisions that skipped a worker because its breaker was
        #: open — each one is a connect timeout the router did not pay.
        self.breaker_skips_total = 0
        self.probe_failures_total = 0

    # ------------------------------------------------------------- recording

    def record_forward(self, worker: str, latency_ms: float, *,
                       attempt: int) -> None:
        """One request successfully answered by ``worker`` on ``attempt``
        (0-based; a non-zero attempt is a failover)."""
        with self._lock:
            self.requests_total += 1
            self._forwards_by_worker[worker] += 1
            self._latencies_ms.append(latency_ms)
            if attempt > 0:
                self.failovers_total += 1

    def record_retry(self, worker: str) -> None:
        """One failed attempt against ``worker`` that the router will retry
        (or has no candidates left for — see :meth:`record_exhausted`)."""
        with self._lock:
            self.retries_total += 1
            self._failures_by_worker[worker] += 1

    def record_exhausted(self) -> None:
        with self._lock:
            self.requests_total += 1
            self.exhausted_total += 1

    def record_breaker_trip(self) -> None:
        with self._lock:
            self.breaker_trips_total += 1

    def record_breaker_skip(self) -> None:
        with self._lock:
            self.breaker_skips_total += 1

    def record_probe_failure(self) -> None:
        with self._lock:
            self.probe_failures_total += 1

    # ------------------------------------------------------------- reporting

    def snapshot(self) -> dict[str, Any]:
        """A point-in-time dict of every router metric (JSON-serialisable)."""
        with self._lock:
            latencies = list(self._latencies_ms)
            return {
                "requests_total": self.requests_total,
                "failovers_total": self.failovers_total,
                "retries_total": self.retries_total,
                "exhausted_total": self.exhausted_total,
                "breaker_trips_total": self.breaker_trips_total,
                "breaker_skips_total": self.breaker_skips_total,
                "probe_failures_total": self.probe_failures_total,
                "forwards_by_worker": dict(sorted(
                    self._forwards_by_worker.items())),
                "failures_by_worker": dict(sorted(
                    self._failures_by_worker.items())),
                "latency_ms_p50": percentile(latencies, 0.50),
                "latency_ms_p95": percentile(latencies, 0.95),
                "latency_window": len(latencies),
            }
