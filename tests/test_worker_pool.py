"""Fault-injection harness for the worker pool and its self-healing router.

The fleet tests run the *real* :class:`repro.serving.pool.WorkerPool` and
:class:`repro.serving.router.Router` in-process, but spawn
``tests/chaos_worker.py`` stubs (same wire contract as ``server.py``,
millisecond responses, deliberate failure modes) as the worker subprocesses —
chaos here means real SIGKILLs against real processes under real concurrent
HTTP traffic, without paying a model decode per request.  The end-to-end
drill against full model servers is ``python -m repro.serving.router
--smoke-chaos`` (CI runs it too).

The headline invariants, straight from the pool's contract:

* killing any single worker mid-load loses **zero** accepted requests;
* the pool converges back to N healthy workers on its own;
* a rolling alias swap across the fleet drops zero requests.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serving.pool import WorkerPool, allocate_port
from repro.serving.router import (CircuitBreaker, HashRing, Router,
                                  RouterPolicy, make_router)

CHAOS_WORKER = Path(__file__).parent / "chaos_worker.py"


# --------------------------------------------------------------------------
# unit: consistent hashing


def test_hash_ring_orders_every_worker_distinctly():
    ring = HashRing(["w0", "w1", "w2"], replicas=64)
    plan = ring.order("some-cache-key")
    assert sorted(plan) == ["w0", "w1", "w2"]
    # The plan is deterministic: retries must walk the same sequence.
    assert ring.order("some-cache-key") == plan


def test_hash_ring_spreads_keys_and_keeps_them_stable():
    ring = HashRing(["w0", "w1", "w2"], replicas=64)
    first_choice = [ring.order(f"key-{n}")[0] for n in range(600)]
    counts = {worker: first_choice.count(worker) for worker in ("w0", "w1", "w2")}
    # Virtual nodes keep the shards roughly even; 5% is a loose floor that
    # still catches a degenerate (single-point) ring.
    assert all(count >= 30 for count in counts.values()), counts
    # A different ring over the same workers maps keys identically.
    again = HashRing(["w0", "w1", "w2"], replicas=64)
    assert [again.order(f"key-{n}")[0] for n in range(600)] == first_choice


def test_hash_ring_rejects_bad_configs():
    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing(["w0", "w0"])


# --------------------------------------------------------------------------
# unit: circuit breaker


def test_circuit_breaker_state_machine():
    clock = [0.0]
    breaker = CircuitBreaker(threshold=3, cooldown=2.0, clock=lambda: clock[0])
    assert breaker.state == "closed"
    assert breaker.allow()
    assert not breaker.record_failure()
    assert not breaker.record_failure()
    assert breaker.record_failure()  # newly tripped on the third
    assert breaker.state == "open"
    assert not breaker.allow()

    clock[0] = 2.5  # past the cooldown: half-open
    assert breaker.state == "half_open"
    assert breaker.allow()       # exactly one probe admitted
    assert not breaker.allow()   # concurrent caller is still rejected
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow()


def test_circuit_breaker_failed_probe_reopens():
    clock = [0.0]
    breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=lambda: clock[0])
    breaker.record_failure()
    clock[0] = 1.5
    assert breaker.allow()
    breaker.record_failure()  # probe failed: re-open for another cooldown
    assert not breaker.allow()
    clock[0] = 2.0  # 1.5 + 1.0 not yet elapsed
    assert not breaker.allow()
    clock[0] = 2.6
    assert breaker.allow()


def test_circuit_breaker_force_open_honours_retry_after():
    clock = [0.0]
    breaker = CircuitBreaker(threshold=3, cooldown=1.0, clock=lambda: clock[0])
    breaker.force_open(5.0)
    assert not breaker.allow()
    clock[0] = 4.9
    assert not breaker.allow()
    clock[0] = 5.1
    assert breaker.allow()


# --------------------------------------------------------------------------
# unit: affinity keys


def _bare_router() -> Router:
    return Router(endpoints=[("w0", "127.0.0.1", 1), ("w1", "127.0.0.1", 2),
                             ("w2", "127.0.0.1", 3)],
                  policy=RouterPolicy(health_interval=0.0))


def test_affinity_key_is_canonical_not_byte_identity():
    router = _bare_router()
    compact = json.dumps({"code": "int main() { return 0; }\n"}).encode()
    spaced = json.dumps({"code": "int  main( )  {  return 0 ;  }\n"}).encode()
    # Same canonical program (whitespace-only edit): same shard.
    assert router.affinity_key(compact) == router.affinity_key(spaced)
    other = json.dumps({"code": "int main() { return 42; }\n"}).encode()
    assert router.affinity_key(compact) != router.affinity_key(other)
    # A body without "strategy" is the v1 default, greedy: same shard.
    greedy = json.dumps({"code": "int main() { return 0; }\n",
                         "strategy": {"name": "greedy"}}).encode()
    assert router.affinity_key(compact) == router.affinity_key(greedy)


def test_affinity_key_falls_back_to_a_digest_for_garbage():
    router = _bare_router()
    assert router.affinity_key(b"not json") == router.affinity_key(b"not json")
    assert router.affinity_key(b"not json") != router.affinity_key(b"also not")
    # A well-formed body with a non-string code still gets a stable shard.
    weird = json.dumps({"code": 42}).encode()
    assert router.affinity_key(weird) == router.affinity_key(weird)


# --------------------------------------------------------------------------
# fleet fixtures


def _chaos_command(spec):
    return [sys.executable, str(CHAOS_WORKER), "--host", spec.host,
            "--port", str(spec.port), "--worker-id", spec.worker_id,
            "--registry-root", str(spec.registry_root)]


FLEET_POLICY = RouterPolicy(max_attempts=3, connect_timeout=1.0,
                            read_timeout=2.0, backoff_base=0.01,
                            backoff_max=0.05, breaker_threshold=3,
                            breaker_cooldown=0.3, health_interval=0.05,
                            health_timeout=1.0, drain_timeout=5.0,
                            swap_worker_timeout=10.0)


@pytest.fixture()
def fleet(tmp_path):
    """3 chaos-stub workers under the real supervisor + router + HTTP front."""
    pool = WorkerPool(3, _chaos_command, root=tmp_path / "pool",
                      restart_backoff_base=0.1, restart_backoff_max=1.0,
                      poll_interval=0.02)
    pool.start()
    router = Router(pool=pool, policy=FLEET_POLICY, seed=7).start()
    front = make_router(router, port=0, quiet=True)
    host, port = front.server_address[:2]
    threading.Thread(target=front.serve_forever, daemon=True).start()
    assert router.wait_full_strength(20.0), router.health()[1]
    try:
        yield pool, router, f"http://{host}:{port}"
    finally:
        front.shutdown()
        front.server_close()
        router.close()
        pool.stop()


def _post(base: str, path: str, payload: dict, timeout: float = 10.0):
    request = urllib.request.Request(
        f"{base}{path}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(base: str, path: str, timeout: float = 10.0):
    try:
        with urllib.request.urlopen(f"{base}{path}",
                                    timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _worker_base(pool: WorkerPool, worker_id: str) -> str:
    spec = {s.worker_id: s for s in pool.specs()}[worker_id]
    return spec.endpoint


def _worker_pid(pool: WorkerPool, worker_id: str) -> int:
    status, body = _get(_worker_base(pool, worker_id), "/healthz")
    assert status == 200, body
    return body["pid"]


# --------------------------------------------------------------------------
# fleet: supervision


def test_supervisor_respawns_a_sigkilled_worker(fleet):
    pool, router, _ = fleet
    old_pid = _worker_pid(pool, "w1")
    assert pool.kill("w1")
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        snapshot = pool.snapshot()
        if snapshot["alive"] == 3:
            workers = {w["id"]: w for w in snapshot["workers"]}
            if workers["w1"]["pid"] not in (None, old_pid):
                break
        time.sleep(0.05)
    snapshot = pool.snapshot()
    workers = {w["id"]: w for w in snapshot["workers"]}
    assert snapshot["alive"] == 3
    assert workers["w1"]["pid"] != old_pid
    assert workers["w1"]["restarts"] == 1
    assert workers["w1"]["last_exit_code"] is not None
    # Signal-kill exit codes surface as negative waitpid statuses.
    assert workers["w1"]["last_exit_code"] < 0
    assert router.wait_full_strength(15.0), router.health()[1]


def test_supervisor_backoff_is_exponential_and_capped(tmp_path):
    pool = WorkerPool(1, _chaos_command, root=tmp_path / "pool",
                      restart_backoff_base=0.2, restart_backoff_max=3.0,
                      stable_seconds=30.0)
    assert pool._backoff(1) == pytest.approx(0.2)
    assert pool._backoff(2) == pytest.approx(0.4)
    assert pool._backoff(3) == pytest.approx(0.8)
    assert pool._backoff(10) == pytest.approx(3.0)  # capped


# --------------------------------------------------------------------------
# fleet: routing


def test_affinity_routes_equal_keys_to_one_worker(fleet):
    _, _, base = fleet
    body = {"code": "int main() { return 7; }\n"}
    served_by = set()
    for _ in range(5):
        status, payload = _post(base, "/v1/advise", body)
        assert status == 200, payload
        served_by.add(payload["worker"])
    assert len(served_by) == 1
    # Distinct programs spread over the fleet.
    spread = set()
    for n in range(16):
        status, payload = _post(base, "/v1/advise",
                                {"code": f"int main() {{ return {n}; }}\n"})
        assert status == 200, payload
        spread.add(payload["worker"])
    assert len(spread) >= 2, spread


def test_retired_advise_is_404_and_never_forwarded(fleet):
    _, router, base = fleet
    code = "int main() { return 3; }\n"
    status, v1 = _post(base, "/v1/advise", {"code": code})
    assert status == 200 and v1["api_version"] == "v1"
    forwards = router.metrics.snapshot()["forwards_by_worker"]
    status, body = _post(base, "/advise", {"code": code, "beam_size": 2})
    assert status == 404
    assert body["error"]["code"] == "not_found"
    # The router answers the retired path itself: no worker saw it.
    assert router.metrics.snapshot()["forwards_by_worker"] == forwards


def test_chaos_kill_one_worker_loses_zero_requests(fleet):
    """The headline differential: SIGKILL any single worker under concurrent
    mixed traffic; every accepted request still answers 2xx; the pool
    converges back to full strength."""
    pool, router, base = fleet
    codes = [f"int main() {{ return {n}; }}\n" for n in range(6)]
    results: list[tuple[int, object]] = []
    results_lock = threading.Lock()
    done = [0]

    def traffic(index: int) -> None:
        for n in range(15):
            strategy = ({"name": "beam", "beam_size": 4} if n % 3 == 2
                        else {"name": "greedy"})
            status, payload = _post(base, "/v1/advise",
                                    {"code": codes[(index + n) % len(codes)],
                                     "strategy": strategy})
            with results_lock:
                results.append((status, payload))
                done[0] += 1

    def killer() -> None:
        while done[0] < 15:
            time.sleep(0.002)
        pool.kill("w0")

    threads = [threading.Thread(target=traffic, args=(i,)) for i in range(6)]
    kill_thread = threading.Thread(target=killer)
    kill_thread.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    kill_thread.join(10.0)

    bad = [entry for entry in results if entry[0] != 200]
    assert not bad, f"{len(bad)} failed request(s), e.g. {bad[:3]}"
    assert len(results) == 90
    assert router.wait_full_strength(15.0), router.health()[1]
    snapshot = router.metrics.snapshot()
    assert snapshot["exhausted_total"] == 0, snapshot


def test_wedged_worker_times_out_and_fails_over(fleet):
    """A wedged (alive but unresponsive) worker is the nastier failure mode:
    no connect error, just silence.  The per-attempt read timeout must cut
    it off and the request must still answer from another replica."""
    pool, router, base = fleet
    # Find a program whose home shard is the worker we are about to wedge.
    victim = router.plan(router.affinity_key(
        json.dumps({"code": "int main() { return 0; }\n"}).encode()))[0]
    code = None
    for n in range(64):
        candidate = f"int main() {{ return {n}; }}\n"
        key = router.affinity_key(json.dumps({"code": candidate}).encode())
        if router.plan(key)[0].worker_id == victim.worker_id:
            code = candidate
            break
    assert code is not None
    status, _ = _post(_worker_base(pool, victim.worker_id), "/chaos/wedge", {})
    assert status == 200
    try:
        started = time.monotonic()
        status, payload = _post(base, "/v1/advise", {"code": code},
                                timeout=30.0)
        elapsed = time.monotonic() - started
        assert status == 200, payload
        assert payload["worker"] != victim.worker_id
        # One read timeout (2s policy) + failover, not an unbounded hang.
        assert elapsed < 15.0
        assert router.metrics.snapshot()["failovers_total"] >= 1
    finally:
        _post(_worker_base(pool, victim.worker_id), "/chaos/unwedge", {})


class _LiveStub(BaseHTTPRequestHandler):
    """Minimal in-process worker for breaker unit tests."""

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_POST(self) -> None:  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        body = json.dumps({"worker": "live"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_breaker_trips_on_a_dead_worker_then_skips_it():
    """Passive failure accounting: a dead replica trips its breaker on the
    request path, and subsequent dispatches skip it without paying a
    connect attempt — while every request still answers via failover."""
    live = ThreadingHTTPServer(("127.0.0.1", 0), _LiveStub)
    live.daemon_threads = True
    threading.Thread(target=live.serve_forever, daemon=True).start()
    dead_port = allocate_port()  # bound-then-released: connect refused
    router = Router(endpoints=[("w0", "127.0.0.1", dead_port),
                               ("w1", "127.0.0.1", live.server_address[1])],
                    policy=RouterPolicy(max_attempts=3, connect_timeout=0.5,
                                        read_timeout=2.0, backoff_base=0.01,
                                        backoff_max=0.02, breaker_threshold=1,
                                        breaker_cooldown=60.0,
                                        health_interval=0.0))
    try:
        # A key homed on the dead worker (no probes: plan is ring order).
        key = next(k for k in (f"k{n}" for n in range(256))
                   if router.plan(k)[0].worker_id == "w0")
        outcome = router.dispatch("POST", "/v1/advise", b"{}", key=key)
        assert outcome.status == 200
        assert json.loads(outcome.body)["worker"] == "live"
        snapshot = router.metrics.snapshot()
        assert snapshot["breaker_trips_total"] == 1
        assert snapshot["failovers_total"] == 1
        assert snapshot["failures_by_worker"] == {"w0": 1}
        assert router.client("w0").breaker.state == "open"
        # Force both into the fallback tier so the plan leads with w0
        # again; its open breaker must be skipped, not retried.
        router.client("w1").healthy = False
        outcome = router.dispatch("POST", "/v1/advise", b"{}", key=key)
        assert outcome.status == 200
        snapshot = router.metrics.snapshot()
        assert snapshot["breaker_skips_total"] == 1
        assert snapshot["failures_by_worker"] == {"w0": 1}  # not retried
    finally:
        live.shutdown()
        live.server_close()


def test_exhausted_dispatch_answers_503_with_retry_after():
    dead = [allocate_port() for _ in range(2)]
    router = Router(endpoints=[("w0", "127.0.0.1", dead[0]),
                               ("w1", "127.0.0.1", dead[1])],
                    policy=RouterPolicy(max_attempts=2, connect_timeout=0.3,
                                        read_timeout=1.0, backoff_base=0.01,
                                        backoff_max=0.02,
                                        health_interval=0.0))
    outcome = router.dispatch("POST", "/v1/advise", b"{}", key="k")
    assert outcome.status == 503
    assert json.loads(outcome.body)["error"]["code"] == "unavailable"
    assert outcome.retry_after is not None
    assert router.metrics.snapshot()["exhausted_total"] == 1


class _SlowStub(_LiveStub):
    """A worker that takes 20 ms to answer every GET and POST."""

    def do_GET(self) -> None:  # noqa: N802
        time.sleep(0.02)
        self.do_POST()

    def do_POST(self) -> None:  # noqa: N802
        time.sleep(0.02)
        super().do_POST()


def test_pinned_and_submit_dispatches_record_their_latency():
    """Job polls and job submits land in the router's latency window with
    the time they took, not as zeros."""
    slow = ThreadingHTTPServer(("127.0.0.1", 0), _SlowStub)
    slow.daemon_threads = True
    threading.Thread(target=slow.serve_forever, daemon=True).start()
    router = Router(endpoints=[("w0", "127.0.0.1", slow.server_address[1])],
                    policy=RouterPolicy(health_interval=0.0))
    try:
        for _ in range(5):
            outcome = router.dispatch_pinned(router.client("w0"), "GET",
                                             "/v1/jobs/job-1", None)
            assert outcome.status == 200
        snapshot = router.metrics.snapshot()
        assert snapshot["latency_window"] == 5
        assert snapshot["latency_ms_p50"] >= 15.0
        outcome = router.dispatch_submit(b"{}")
        assert outcome.status == 200
        assert router.metrics.snapshot()["latency_ms_max"] >= 15.0
    finally:
        slow.shutdown()
        slow.server_close()


# --------------------------------------------------------------------------
# fleet: jobs


def test_job_submit_is_namespaced_and_polls_pin_to_the_owner(fleet):
    _, _, base = fleet
    status, job = _post(base, "/v1/advise/batch",
                        {"items": [{"code": "int main() { return 0; }\n"},
                                   {"code": "int main() { return 1; }\n"}]})
    assert status == 202, job
    assert job["job_id"].split("-", 1)[0] in ("w0", "w1", "w2")
    assert "-job-" in job["job_id"]
    status, polled = _get(base, f"/v1/jobs/{job['job_id']}")
    assert status == 200, polled
    assert polled["job_id"] == job["job_id"]  # re-prefixed on the way out
    assert polled["status"] == "done" and len(polled["results"]) == 2
    # The owning worker really holds the job (namespacing is not cosmetic).
    assert polled["worker"] == job["job_id"].split("-", 1)[0]


def test_unprefixed_or_unknown_job_ids_are_404(fleet):
    _, _, base = fleet
    status, body = _get(base, "/v1/jobs/job-1")
    assert status == 404 and body["error"]["code"] == "not_found"
    status, body = _get(base, "/v1/jobs/w9-job-1")
    assert status == 404
    status, body = _get(base, "/v1/jobs/w0-job-999")
    assert status == 404


# --------------------------------------------------------------------------
# fleet: drain + rolling swap


def test_drain_stops_routing_then_bounces_the_worker(fleet):
    pool, router, base = fleet
    old_pid = _worker_pid(pool, "w1")
    status, result = _post(base, "/admin/workers/w1/drain", {}, timeout=30.0)
    assert status == 200, result
    assert result["acknowledged"] and result["drained"] and result["restarted"]
    assert router.wait_full_strength(15.0), router.health()[1]
    assert _worker_pid(pool, "w1") != old_pid
    # Traffic flows throughout and after.
    for n in range(6):
        status, payload = _post(base, "/v1/advise",
                                {"code": f"int main() {{ return {n}; }}\n"})
        assert status == 200, payload


def test_rolling_swap_converges_with_zero_drops(fleet):
    pool, router, base = fleet
    status, loaded = _post(base, "/v1/models/alt/load", {}, timeout=30.0)
    assert status == 200, loaded
    assert len(loaded["workers"]) == 3

    results: list[tuple[int, object]] = []
    results_lock = threading.Lock()
    stop = threading.Event()

    def traffic() -> None:
        n = 0
        while not stop.is_set():
            status, payload = _post(base, "/v1/advise",
                                    {"code": f"int main() {{ return {n % 4}; }}\n"})
            with results_lock:
                results.append((status, payload))
            n += 1

    threads = [threading.Thread(target=traffic) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        status, swap = _post(base, "/v1/models/alt/swap", {}, timeout=60.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert status == 200, swap
    assert swap["converged"] and swap["current"] == "alt@stub1"
    assert [w["worker"] for w in swap["workers"]] == ["w0", "w1", "w2"]
    bad = [entry for entry in results if entry[0] != 200]
    assert not bad, f"{len(bad)} dropped request(s) during swap, e.g. {bad[:3]}"
    # Every replica now serves the swapped alias.
    status, models = _get(base, "/v1/models")
    assert status == 200 and models["default"] == "alt@stub1"


# --------------------------------------------------------------------------
# fleet: observability


def test_router_healthz_and_metrics_expose_the_fleet(fleet):
    pool, router, base = fleet
    status, health = _get(base, "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert {w["id"] for w in health["workers"]} == {"w0", "w1", "w2"}
    assert all(w["healthy"] and not w["draining"] for w in health["workers"])
    assert health["pool"]["alive"] == 3

    _post(base, "/v1/advise", {"code": "int main() { return 0; }\n"})
    status, metrics = _get(base, "/metrics")
    assert status == 200
    assert metrics["router"]["requests_total"] >= 1
    assert metrics["router"]["exhausted_total"] == 0
    assert sum(metrics["router"]["forwards_by_worker"].values()) >= 1


def test_streaming_relays_ndjson_through_the_router(fleet):
    _, _, base = fleet
    request = urllib.request.Request(
        f"{base}/v1/advise/stream",
        data=json.dumps({"code": "int main() { return 0; }\n"}).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        assert response.status == 200
        assert "x-ndjson" in response.headers.get("Content-Type", "")
        lines = [json.loads(line) for line in response.read().splitlines()
                 if line]
    assert lines[-1]["type"] == "final"
    assert any(line["type"] == "token" for line in lines)
