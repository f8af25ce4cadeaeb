"""Verification wired through the serving stack: service, jobs, metrics,
streaming skip markers and the router's pool-wide verify view."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import AdviseRequest
from repro.serving import InferenceService
from repro.serving.jobs import JobStore
from repro.serving.metrics import Metrics
from repro.serving.router import Router, RouterPolicy
from repro.serving.server import make_server

FAST = 60

#: Parses and simulates cleanly — the reference side of verification.
RUNNABLE = """\
#include <stdio.h>
int main(int argc, char **argv) {
    int i;
    int verify_total = 0;
    for (i = 0; i < 7; i++) {
        verify_total = verify_total + i;
    }
    printf("total = %d\\n", verify_total);
    return 0;
}
"""

#: Its serial reference never finishes under simulation (a runaway rank).
RUNAWAY = RUNNABLE.replace("i < 7", "i >= 0").replace("verify_total",
                                                       "verify_runaway")

#: Misses a semicolon: reference capture must fail -> verification skipped.
UNPARSEABLE = "int main(int argc, char **argv) {\n    int x = 1\n    return x;\n}\n"


@pytest.fixture(scope="module")
def service(tiny_model):
    with InferenceService(tiny_model, max_batch_size=4,
                          cache_capacity=64, max_length=FAST) as svc:
        yield svc


def _verify_request(code: str, verify=True) -> AdviseRequest:
    return AdviseRequest.from_dict({"code": code, "verify": verify})


def test_response_without_verify_has_no_verification_key(service):
    response = service.advise_request(
        AdviseRequest.from_dict({"code": RUNNABLE}), timeout=120)
    assert response.verification is None
    assert "verification" not in response.to_dict()


def test_unparseable_original_yields_skipped_verification(service):
    before = service.metrics().get("verify_total", 0)
    response = service.advise_request(_verify_request(UNPARSEABLE),
                                      timeout=120)
    verification = response.verification
    assert verification["verified"] == "skipped"
    assert verification["reason"] == "original program does not parse cleanly"
    snapshot = service.metrics()
    assert snapshot["verify_total"] == before + 1
    assert snapshot["verify_by_verdict"]["skipped"] >= 1


def test_runnable_original_gets_a_full_verdict_set(service):
    response = service.advise_request(_verify_request(RUNNABLE), timeout=120)
    verification = response.verification
    # The tiny fixture model cannot produce an equivalent port, but the
    # verdict must be structured, not absent.
    assert verification["verified"] in (True, False)
    assert verification["winner"] == 0
    assert isinstance(verification["verdicts"], list)
    assert verification["verdicts"][0]["status"] in (
        "parse_error", "runtime_error", "deadlocked", "diverged")
    assert verification["wall_ms"] >= 0


def test_non_skipped_verification_is_cached_by_options(service):
    calls = []
    original = service._run_verification

    def counting(request, response, options, **kwargs):
        calls.append(options.canonical())
        return original(request, response, options, **kwargs)

    service._run_verification = counting
    try:
        code = RUNNABLE.replace("verify_total", "verify_cached")
        first = service.advise_request(_verify_request(code), timeout=120)
        again = service.advise_request(_verify_request(code), timeout=120)
        assert len(calls) == 1  # second request was a verify-cache hit
        assert again.verification == first.verification
        # Different options -> different verify-cache entry -> a fresh run.
        service.advise_request(_verify_request(code, {"ranks": [1]}),
                               timeout=120)
        assert len(calls) == 2
    finally:
        service._run_verification = original


def test_skipped_verification_is_never_cached(service):
    calls = []
    original = service._run_verification

    def counting(request, response, options, **kwargs):
        calls.append(1)
        return original(request, response, options, **kwargs)

    service._run_verification = counting
    try:
        code = UNPARSEABLE.replace("int x", "int y")
        for _ in range(2):
            response = service.advise_request(_verify_request(code),
                                              timeout=120)
            assert response.verification["verified"] == "skipped"
        assert len(calls) == 2  # both requests ran; neither wrote the cache
    finally:
        service._run_verification = original


def test_exhausted_budget_degrades_to_skipped(service):
    # A 1ms budget leaves no run for the serial reference (2M loop
    # iterations could not simulate in it anyway): the verification is
    # skipped before any simulation starts instead of stalling the request.
    heavy = RUNNABLE.replace("i < 7", "i < 2000000").replace(
        "verify_total", "verify_budget")
    response = service.advise_request(
        _verify_request(heavy, {"timeout_ms": 1}), timeout=120)
    verification = response.verification
    assert verification["verified"] == "skipped"
    assert verification["reason"] == ("verification budget exhausted before "
                                       "the serial reference ran")


def test_runaway_reference_returns_within_the_budget_and_leaks_nothing(service):
    # Decode once untimed: the verified requests below hit the decode cache,
    # and a skipped verification is never cached, so each one simulates.
    service.advise_request(AdviseRequest.from_dict({"code": RUNAWAY}),
                           timeout=120)
    baseline = threading.active_count()
    original = service.apply_verification
    latencies = []

    def timed(*args, **kwargs):
        started = time.monotonic()
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(time.monotonic() - started)

    service.apply_verification = timed
    try:
        for _ in range(5):
            response = service.advise_request(
                _verify_request(RUNAWAY, {"timeout_ms": 500}), timeout=120)
            assert response.verification["verified"] == "skipped"
            assert "runaway computation" in response.verification["reason"]
    finally:
        service.apply_verification = original
    assert len(latencies) == 5
    assert max(latencies) < 0.5
    # Leaked rank threads would slow every later request down.
    assert latencies[-1] < latencies[0] + 0.1
    assert threading.active_count() == baseline


def test_internal_verification_error_degrades_to_skipped(service):
    def exploding(request, response, options, **kwargs):
        raise RuntimeError("verification backend on fire")

    original = service._run_verification
    service._run_verification = exploding
    try:
        response = service.advise_request(
            _verify_request(RUNNABLE.replace("verify_total", "verify_boom")),
            timeout=120)
    finally:
        service._run_verification = original
    verification = response.verification
    assert verification["verified"] == "skipped"
    assert "RuntimeError" in verification["reason"]


def test_beam_request_verifies_multiple_candidates(service):
    request = AdviseRequest.from_dict({
        "code": RUNNABLE.replace("verify_total", "verify_beam"),
        "strategy": {"name": "beam", "beam_size": 2},
        "verify": {"candidates": 2},
    })
    response = service.advise_request(request, timeout=120)
    verification = response.verification
    if verification["verified"] == "skipped":  # budget ran out on slow CI
        assert verification["reason"]
    else:
        assert 1 <= len(verification["verdicts"]) <= 2
        assert verification["winner"] < 2


def test_stream_with_verify_attaches_the_skip_marker(service):
    chunks = list(service.advise_stream(
        _verify_request(RUNNABLE.replace("verify_total", "verify_stream"))))
    final = chunks[-1]["response"]
    assert final["verification"]["verified"] == "skipped"
    assert "POST /v1/advise" in final["verification"]["reason"]


def test_stream_without_verify_keeps_the_v11_shape(service):
    chunks = list(service.advise_stream(AdviseRequest.from_dict(
        {"code": RUNNABLE.replace("verify_total", "verify_plain")})))
    assert "verification" not in chunks[-1]["response"]


def test_job_items_with_verify_carry_verification(service):
    store = JobStore(service)
    try:
        job = store.submit([
            _verify_request(UNPARSEABLE.replace("int x", "int job_item")),
            AdviseRequest.from_dict({"code": "int job_plain;"}),
        ])
        assert job.wait(timeout=120)
        body = job.to_dict()
        by_index = {item["index"]: item for item in body["results"]}
        verified_item = by_index[0]["response"]
        assert verified_item["verification"]["verified"] == "skipped"
        assert "verification" not in by_index[1]["response"]
    finally:
        store.close()


# ------------------------------------------------------------------ metrics


def test_metrics_expose_verify_counters_and_latency():
    metrics = Metrics()
    record = InferenceService.bind_metrics(metrics)
    for latency_ms, verdict in ((12.0, "verified"), (18.0, "failed"),
                                (2.0, "skipped")):
        record.verify_ms.record(latency_ms)
        record.verdicts.inc(verdict)
    snapshot = metrics.snapshot()
    assert snapshot["verify_total"] == 3
    assert snapshot["verify_by_verdict"] == {
        "verified": 1, "failed": 1, "skipped": 1}
    assert snapshot["verify_latency_ms_p50"] == 12.0
    assert snapshot["verify_latency_ms_p95"] == 18.0


def test_verify_verdict_cardinality_is_capped():
    metrics = Metrics()
    verdicts = InferenceService.bind_metrics(metrics).verdicts
    for index in range(Metrics.MAX_LABELS + 10):
        verdicts.inc(f"verdict-{index}")
    by_verdict = metrics.snapshot()["verify_by_verdict"]
    assert len(by_verdict) <= Metrics.MAX_LABELS + 1
    assert by_verdict["other"] >= 10


# ------------------------------------------------------------------- router


def test_router_aggregates_worker_verify_counters(tiny_model):
    service = InferenceService(tiny_model, cache_capacity=16, max_length=FAST)
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        service.advise_request(_verify_request(UNPARSEABLE), timeout=120)
        router = Router(endpoints=[("w0", host, port)],
                        policy=RouterPolicy(health_interval=0.0))
        aggregated = router.metrics_body()["verify"]
        assert aggregated["workers_reporting"] == 1
        assert aggregated["workers_unreachable"] == 0
        assert aggregated["verify_total"] >= 1
        assert aggregated["verify_by_verdict"].get("skipped", 0) >= 1
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_router_verify_view_counts_unreachable_workers():
    router = Router(endpoints=[("w0", "127.0.0.1", 1)],
                    policy=RouterPolicy(health_interval=0.0))
    aggregated = router.metrics_body()["verify"]
    assert aggregated["verify_total"] == 0
    assert aggregated["workers_reporting"] == 0
    assert aggregated["workers_unreachable"] == 1
