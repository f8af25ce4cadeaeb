"""Pin the key set and JSON value types of the worker's and the router's
``/metrics`` bodies.

Dashboards and alerts read these keys by name, so a key that disappears or
changes type is a breaking change.  Types are JSON kinds (an int and a float
are both ``number``), which is what an HTTP reader sees.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.serving import InferenceService
from repro.serving.router import Router, RouterPolicy
from repro.serving.server import make_server

N, S, B, O = "number", "string", "bool", "object"

WORKER_KEYS = {
    # request path
    "requests_total": N, "cache_hits": N, "cache_misses": N,
    "cache_hit_rate": N, "errors_total": N, "streams_total": N,
    "requests_by_model": O,
    "latency_ms_p50": N, "latency_ms_p95": N, "latency_ms_max": N,
    "latency_ms_mean": N, "latency_window": N,
    # batch jobs
    "jobs_submitted_total": N, "jobs_rejected_total": N,
    "jobs_rejected_by_reason": O, "jobs_dead_letter_total": N,
    # continuous scheduler
    "batches_total": N, "batch_size_histogram": O, "batches_by_config": O,
    "batch_size_p50": N, "batch_size_p95": N, "batch_size_max": N,
    "batch_size_mean": N, "batch_size_window": N,
    "decode_latency_ms_p50": N, "decode_latency_ms_p95": N,
    "decode_latency_ms_max": N, "decode_latency_ms_mean": N,
    "decode_latency_window": N,
    "sched_steps_total": N, "sched_joins_total": N, "sched_retires_total": N,
    "sched_starvation_total": N,
    "sched_occupancy_p50": N, "sched_occupancy_p95": N,
    "sched_occupancy_max": N, "sched_occupancy_mean": N,
    "sched_occupancy_window": N,
    "sched_queue_wait_ms_p50": N, "sched_queue_wait_ms_p95": N,
    "sched_queue_wait_ms_max": N, "sched_queue_wait_ms_mean": N,
    "sched_queue_wait_window": N,
    # verification
    "verify_total": N, "verify_by_verdict": O,
    "verify_latency_ms_p50": N, "verify_latency_ms_p95": N,
    "verify_latency_ms_max": N, "verify_latency_ms_mean": N,
    "verify_latency_window": N,
    # service state outside the metrics registry
    "cache": O, "queued_requests": N, "max_batch_size": N, "registry": O,
    "draining": B, "jobs": O,
}

JOBS_KEYS = {
    "enabled": B, "durable": B, "last_job_id": N, "retained": N,
    "evicted_total": N, "dead_letter_items_total": N, "resumed_jobs": N,
    "restored_items": N, "rejected_total": N, "rejected_by_reason": O,
    "queue_capacity": N, "max_inflight_per_client": N, "closed": B,
    "queued": N, "running": N, "done": N, "backlog": N,
}

ROUTER_KEYS = {
    "requests_total": N, "failovers_total": N, "retries_total": N,
    "exhausted_total": N, "breaker_trips_total": N, "breaker_skips_total": N,
    "probe_failures_total": N, "forwards_by_worker": O,
    "failures_by_worker": O, "latency_ms_p50": N, "latency_ms_p95": N,
    "latency_ms_max": N, "latency_ms_mean": N, "latency_window": N,
}

REACH = {"workers_reporting": N, "workers_unreachable": N}

VERIFY_VIEW = {
    "verify_total": N, "verify_by_verdict": O,
    "verify_latency_ms_mean": N, "verify_latency_window": N, **REACH,
}

SCHED_VIEW = {
    "sched_steps_total": N, "sched_joins_total": N, "sched_retires_total": N,
    "sched_starvation_total": N, "sched_occupancy_mean": N,
    "sched_occupancy_window": N, "sched_queue_wait_ms_mean": N,
    "sched_queue_wait_window": N, **REACH,
}


def _kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return B
    if isinstance(value, (int, float)):
        return N
    if isinstance(value, str):
        return S
    return O if isinstance(value, dict) else "array"


def _shape(body: dict) -> dict:
    return {key: _kind(value) for key, value in body.items()}


@pytest.fixture(scope="module")
def worker(tiny_model, pi_source):
    service = InferenceService(tiny_model, max_batch_size=4,
                               cache_capacity=16, max_length=40)
    service.jobs  # open the job store, as `server.main` does at startup
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/advise",
        data=json.dumps({"code": pi_source}).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=120) as response:
        response.read()
    yield host, port
    server.shutdown()
    server.server_close()
    service.close()


def test_worker_metrics_schema(worker):
    host, port = worker
    with urllib.request.urlopen(f"http://{host}:{port}/metrics",
                                timeout=30) as response:
        body = json.loads(response.read())
    assert _shape(body) == WORKER_KEYS
    assert _shape(body["jobs"]) == JOBS_KEYS


def test_router_metrics_schema(worker):
    host, port = worker
    router = Router(endpoints=[("w0", host, port)],
                    policy=RouterPolicy(health_interval=0.0))
    body = json.loads(json.dumps(router.metrics_body()))
    assert _shape(body) == {"router": O, "workers": "array", "pool": "null",
                            "verify": O, "sched": O}
    assert _shape(body["router"]) == ROUTER_KEYS
    assert _shape(body["verify"]) == VERIFY_VIEW
    assert _shape(body["sched"]) == SCHED_VIEW


def test_merge_sums_counts_weights_means_and_drops_quantiles():
    from repro.serving.metrics import Metrics, merge

    snapshots = []
    for samples, verdicts in (([10.0, 30.0], ["verified"]),
                              ([40.0] * 6, ["failed", "failed"])):
        metrics = Metrics()
        window = metrics.window("verify_latency_ms")
        counter = metrics.labelled("verify_by_verdict", total="verify_total")
        for sample in samples:
            window.record(sample)
        for verdict in verdicts:
            counter.inc(verdict)
        snapshots.append(json.loads(json.dumps(metrics.snapshot())))
    merged = merge(snapshots)
    assert merged == {
        "verify_total": 3,
        "verify_by_verdict": {"verified": 1, "failed": 2},
        # (10 + 30 + 6 * 40) / 8 samples, not the mean of the two means.
        "verify_latency_ms_mean": 35.0,
        "verify_latency_window": 8,
    }
