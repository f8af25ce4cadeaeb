"""Stdlib-only JSON HTTP endpoint over :class:`InferenceService`.

Endpoints
---------
``POST /v1/advise``
    Body is a v1 :class:`repro.api.AdviseRequest`:
    ``{"code": "<C source>", "strategy": {"name": "beam", "beam_size": 4}}``
    (``strategy`` optional — greedy by default; may also be a bare name
    string).  Responds with the full :class:`repro.api.AdviseResponse` JSON.
``POST /v1/advise/stream``
    Same body; responds with **NDJSON**: one
    ``{"type": "token", "index": n, "token": "<code token>"}`` line per
    generated token as the model emits it, then a single
    ``{"type": "final", "response": {...}}`` line with the full response.
    A failure after the 200 (a decode error, or a full admission queue) is
    one ``{"type": "error", "error": {...}}`` line carrying the same
    envelope the non-streaming route would answer.
``POST /v1/advise/batch``
    Async bulk advising: ``{"items": [<advise request>, ...]}`` (optional
    top-level ``model``/``strategy`` defaults) answers **202** with
    ``{"job_id": ..., "status": "queued", ...}`` immediately; the items run
    through the same continuous batch as interactive traffic.  The job tier is
    **durable** when the server has a ``--registry-root``: every submit is
    WAL-fsynced before the 202, and a restarted server resumes unfinished
    jobs.  Backpressure is typed: **429** ``queue_full`` when the unfinished
    backlog is at capacity, **429** ``quota_exceeded`` when the caller's
    ``X-Client-Id`` already holds its in-flight quota, **503**
    ``unavailable`` while shutting down.
``GET /v1/jobs/{id}``
    Poll a batch job: status, progress counters and one per-item envelope
    (``{"status": "ok", "response": ...}`` / ``{"status": "error", "error":
    ...}`` / ``{"status": "dead_letter", "error": ...}``) per completed
    item.  A finished job that was TTL/capacity-evicted answers **410**
    ``expired``; an id that was never issued answers **404**.
``GET /v1/models``
    The model registry: default alias, aliases, and every registered
    model's ``name``/``revision``/``loaded``/lease/request counters.
``POST /v1/models/{name}/load``
    Load (and warm up) a registered model, or register-and-load a new one
    from ``{"checkpoint": "<directory>"}``.
``POST /v1/models/{name}/swap``
    Atomically flip an alias (``{"alias": "default"}`` if omitted) to
    ``{name}``.  The target is loaded before the flip; requests in flight on
    the previous model drain on it — none are dropped — and the cache can
    never serve the old revision's entries afterwards because every cache
    key embeds ``model@revision``.
``GET /healthz``
    Liveness probe; 200 with ``{"status": "ok", ...}`` plus the registry
    state (default alias identity, per-model loaded/revision flags).
``GET /metrics``
    The :meth:`InferenceService.metrics` snapshot as JSON (includes
    ``requests_by_model`` and the registry snapshot).

Invalid requests get the structured envelope
``{"error": {"code", "message", "field"}}`` from every route: **400** for
malformed bodies (bad JSON, wrong types, unknown fields), **422** for
well-formed requests with out-of-range parameter values (NaN/inf/negative
knobs, oversized beams), and **429** ``queue_full`` (with ``Retry-After``)
when the decode admission queue is full.  Validation itself lives in
:meth:`repro.api.AdviseRequest.validate` — the server only translates the
raised :class:`repro.api.ApiError`.  Any other path, including the pre-v1
``POST /advise``, answers **404** ``not_found``; a pre-v1 body
``{"code", "beam_size": k, "length_penalty": p}`` is spelled
``{"code", "strategy": {"name": "beam", "beam_size": k, "length_penalty":
p}}`` on ``/v1/advise``.

The server is a :class:`http.server.ThreadingHTTPServer`: each connection
gets a thread, the threads converge on the service's continuous scheduler,
and the scheduler turns their concurrency into shared decode steps.  No
third-party web framework is required — the point is that the serving layer
runs anywhere the reproduction itself runs.

Run it::

    PYTHONPATH=src python -m repro.serving.server --port 8080

which trains a small demo model first (or loads ``--checkpoint DIR`` saved
via :meth:`MPIRical.save`).  ``--registry-root DIR`` makes the job tier
durable (the WAL lives at ``DIR/jobs/jobs.wal``; startup replays it and
resumes unfinished jobs).  ``--smoke`` starts the server on an ephemeral
port, exercises ``/v1/advise``, ``/v1/advise/stream``, ``/v1/models`` and
one ``/v1/advise/batch`` job against it, checks that the retired
``/advise`` answers 404 ``not_found``, asserts the responses (the call,
the stream's final chunk and the job items for one body carry one
``generated_code`` and ``advice``), and exits — the CI smoke test.
``--smoke-resume`` is the durability smoke: it starts a *subprocess* server
over a registry root, submits a batch, SIGKILLs the process mid-run,
restarts it over the same root, and asserts the job reaches ``"done"`` with
every item resolved and that job ids do not recycle.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..api import AdviseRequest, ApiError, parse_batch_advise
from ..model.checkpoints import CheckpointError
from ..registry import RegistryError
from ..utils.blas import blas_policy
from .jobs import JobStore, validate_client_id
from .service import InferenceService

#: Largest accepted request body; a source buffer bigger than this is a
#: client error, not a workload.
MAX_BODY_BYTES = 1 << 20

__all__ = ["AdviseRequestHandler", "make_server", "MAX_BODY_BYTES", "main"]


def _to_api_error(exc: Exception) -> ApiError:
    """Map any handler exception onto the structured error envelope.

    Registry resolution failures are client errors (422 unknown model /
    409 lifecycle conflict); checkpoint-integrity failures surface the
    :class:`CheckpointError` message (422 — the named artefact is unusable);
    everything else is a 500.
    """
    if isinstance(exc, ApiError):
        return exc
    if isinstance(exc, RegistryError):
        if exc.kind == "conflict":
            return ApiError("conflict", str(exc), status=409)
        return ApiError.unknown_model(str(exc))
    if isinstance(exc, CheckpointError):
        return ApiError.invalid_parameter(str(exc), field="checkpoint")
    return ApiError.internal(f"{type(exc).__name__}: {exc}")


class AdviseRequestHandler(BaseHTTPRequestHandler):
    """Routes the endpoints onto the shared :class:`InferenceService`."""

    #: Set by :func:`make_server`.
    service: InferenceService

    #: Socket timeout: a client that advertises a Content-Length but never
    #: sends the body must not strand its handler thread forever.
    timeout = 60

    # Tests and the smoke path don't want per-request access logging.
    quiet = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    # ------------------------------------------------------------- endpoints

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        try:
            if self.path == "/healthz":
                self._get_healthz()
            elif self.path == "/metrics":
                self._send_json(200, self.service.metrics())
            elif self.path == "/v1/models":
                self._send_json(200, {"api_version": "v1",
                                      **self.service.registry.snapshot(
                                          self.service.requests_by_model())})
            elif self.path.startswith("/v1/jobs/"):
                job_id = self.path[len("/v1/jobs/"):]
                self._send_json(200, self.service.jobs.get(job_id).to_dict())
            else:
                self._send_error(
                    ApiError.not_found(f"unknown path {self.path!r}"))
        except Exception as exc:  # noqa: BLE001 — a request must never kill the server
            self._send_error(_to_api_error(exc))

    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        routes = {
            "/v1/advise": self._post_advise_v1,
            "/v1/advise/stream": self._post_advise_stream,
            "/v1/advise/batch": self._post_advise_batch,
            "/admin/drain": self._post_drain,
        }
        handler = routes.get(self.path)
        allow_empty = self.path == "/admin/drain"  # the drain body is optional
        if handler is None:
            handler = self._model_route(self.path)
            allow_empty = True  # lifecycle bodies are optional
        if handler is None:
            self._send_error(ApiError.not_found(f"unknown path {self.path!r}"))
            return
        payload = self._read_json_body(allow_empty=allow_empty)
        if payload is None:
            return
        try:
            handler(payload)
        except Exception as exc:  # noqa: BLE001 — a request must never kill the server
            self._send_error(_to_api_error(exc))

    def _model_route(self, path: str):
        """Resolve ``/v1/models/{name}/load`` and ``.../swap`` to handlers."""
        parts = path.split("/")
        if len(parts) != 5 or parts[:3] != ["", "v1", "models"] or not parts[3]:
            return None
        name, action = parts[3], parts[4]
        if action == "load":
            return lambda payload: self._post_model_load(name, payload)
        if action == "swap":
            return lambda payload: self._post_model_swap(name, payload)
        return None

    def _get_healthz(self) -> None:
        registry = self.service.registry.snapshot(
            self.service.requests_by_model())
        jobs = self.service.job_store()
        draining = self.service.draining
        # A draining worker answers 503 so load balancers (and the pool
        # router) stop routing to it; the body still carries the pending
        # count the drain coordinator polls down to zero.
        self._send_json(503 if draining else 200, {
            "status": "draining" if draining else "ok",
            "draining": draining,
            "pending": self.service.pending_work() if draining else None,
            "default": registry["default"],
            "models": {model["name"]: {"revision": model["revision"],
                                       "loaded": model["loaded"],
                                       "requests_served": model["requests_served"]}
                       for model in registry["models"]},
            # The probe must not *create* the store (opening the WAL is a
            # side effect); an untouched job tier reports enabled: False.
            "jobs": jobs.snapshot() if jobs is not None else {"enabled": False},
        })

    def _post_advise_v1(self, payload: dict) -> None:
        request = AdviseRequest.from_dict(payload)
        response = self.service.advise_request(request)
        self._send_json(200, response.to_dict())

    def _post_advise_batch(self, payload: dict) -> None:
        """Async bulk advising: validate atomically, queue, answer 202.

        The ``X-Client-Id`` header is the quota key — callers that send one
        get their own in-flight budget; callers that don't share the
        anonymous bucket.  The 202 is only sent after the submit record is
        fsynced to the WAL (when durability is on), so an acknowledged job
        survives a crash.
        """
        requests = parse_batch_advise(payload)
        # The quota key is adversarial input: bound its length and charset
        # *before* it becomes a quota-map key or a WAL record field.
        client = validate_client_id(self.headers.get("X-Client-Id"))
        job = self.service.submit_job(requests, client=client)
        self._send_json(202, job.to_dict())

    def _post_model_load(self, name: str, payload: dict) -> None:
        """Load a registered model, or register-and-load from a checkpoint.

        ``{"checkpoint": "<dir>"}`` (re-)registers ``name`` from that
        directory first — the hot-deploy path for a freshly trained
        revision; an empty body loads (and warms up) what is already
        registered.  The response reports the loaded entry, revision
        included.
        """
        registry = self.service.registry
        checkpoint = payload.get("checkpoint")
        if checkpoint is not None:
            if not isinstance(checkpoint, str) or not checkpoint.strip():
                raise ApiError.invalid_request(
                    '"checkpoint" must be a checkpoint directory path',
                    field="checkpoint")
            try:
                registry.register(name, checkpoint)
            except ValueError as exc:  # invalid model name
                raise ApiError.invalid_request(str(exc), field="name") from exc
            except RegistryError as exc:  # missing checkpoint directory
                raise ApiError.invalid_parameter(
                    str(exc), field="checkpoint") from exc
        entry = registry.load(name, warm_up=True)
        self._send_json(200, {"api_version": "v1", "model": entry.info(
            self.service.requests_by_model())})

    def _post_model_swap(self, name: str, payload: dict) -> None:
        """Atomic alias flip onto ``name`` (drains in-flight, drops none)."""
        alias = payload.get("alias", "default")
        if not isinstance(alias, str) or not alias.strip():
            raise ApiError.invalid_request(
                '"alias" must be a non-empty alias name', field="alias")
        previous, current = self.service.registry.swap(name, alias=alias)
        self._send_json(200, {"api_version": "v1", "alias": alias,
                              "previous": previous, "current": current})

    def _post_drain(self, payload: dict) -> None:
        """Flip this worker into draining mode (idempotent).

        New advise/stream/job submissions answer 503 from here on;
        in-flight work finishes.  The response (and subsequent
        ``/healthz`` bodies) carries the remaining ``pending`` count the
        drain coordinator — the pool router, or an operator's curl loop —
        polls down to zero before terminating the process.
        """
        del payload  # no body fields yet; accepted for forward compatibility
        self._send_json(200, {"api_version": "v1", **self.service.drain()})

    def _post_advise_stream(self, payload: dict) -> None:
        """NDJSON streaming: one chunk per line, flushed as decoded.

        Validation failures raise before any byte is written (a clean
        400/422 envelope).  After the 200 status line is out, nothing may
        send headers again: a client disconnect mid-stream just ends the
        handler, and a decode failure becomes a structured
        ``{"type": "error", ...}`` line — best-effort, since the peer may
        already be gone.
        """
        request = AdviseRequest.from_dict(payload)  # may raise ApiError: 4xx
        stream = self.service.advise_stream(request)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        try:
            for chunk in stream:
                try:
                    self.wfile.write(json.dumps(chunk).encode() + b"\n")
                    self.wfile.flush()
                except OSError:
                    return  # client went away; stop consuming the stream
        except Exception as exc:  # noqa: BLE001 — decode failure mid-stream
            envelope = _to_api_error(exc).to_dict()
            try:
                self.wfile.write(json.dumps({"type": "error", **envelope})
                                 .encode() + b"\n")
            except OSError:
                pass  # peer already gone; nothing left to deliver

    # ------------------------------------------------------------- plumbing

    def _read_json_body(self, *, allow_empty: bool = False) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_error(ApiError.invalid_request(
                "missing or oversized Content-Length"))
            return None
        body = self.rfile.read(length)
        if not body and allow_empty:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            self._send_error(ApiError.invalid_request(f"invalid JSON body: {exc}"))
            return None
        if not isinstance(payload, dict):
            self._send_error(ApiError.invalid_request(
                "request body must be a JSON object"))
            return None
        return payload

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
            # Whole seconds, rounded up: RFC 9110 allows only delta-seconds.
            self.send_header("Retry-After", str(max(1, int(-(-retry_after // 1)))))
        self.end_headers()
        self.wfile.write(body)


def make_server(service: InferenceService, host: str = "127.0.0.1",
                port: int = 0, *, quiet: bool = False) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` — which is what the tests and the smoke mode
    use.
    """
    handler = type("BoundAdviseRequestHandler", (AdviseRequestHandler,),
                   {"service": service, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def _demo_model(checkpoint: str | None):
    """A trained :class:`MPIRical`: the checkpoint, or a fresh small model."""
    from ..mpirical.pipeline import MPIRical

    if checkpoint:
        return MPIRical.load(checkpoint)
    from ..corpus import MiningConfig, build_corpus
    from ..dataset import build_dataset
    from ..model.config import tiny_config

    print("no --checkpoint given; training a small demo model ...",
          file=sys.stderr)
    corpus = build_corpus(MiningConfig(num_repositories=35, seed=101))
    dataset = build_dataset(corpus)
    config = tiny_config()
    config.training.max_steps_per_epoch = 8
    return MPIRical.fit(dataset.splits.train[:40],
                        dataset.splits.validation[:8], config)


def _demo_service(checkpoint: str | None, *, max_batch_size: int,
                  cache_capacity: int,
                  registry_root: str | None = None) -> InferenceService:
    """A service over a checkpoint, or over a freshly trained small model."""
    return InferenceService(_demo_model(checkpoint),
                            max_batch_size=max_batch_size,
                            cache_capacity=cache_capacity,
                            registry_root=registry_root)


def _run_smoke(service: InferenceService) -> int:
    """Start the server and exercise every advise route, the model registry
    listing and one async batch-job round-trip."""
    import time
    import urllib.error
    import urllib.request

    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def post(path: str, payload: dict):
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def get(path: str):
        with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                    timeout=120) as response:
            return response.status, response.read()

    code = "int main() { return 0; }\n"
    failures: list[str] = []
    try:
        status, raw = post("/advise", {"code": code})
        body = json.loads(raw)
        if status != 404 or body.get("error", {}).get("code") != "not_found":
            failures.append(f"retired /advise: status={status} body={body}")
        status, raw = post("/v1/advise",
                           {"code": code, "strategy": {"name": "greedy"}})
        v1 = json.loads(raw)
        if status != 200 or v1.get("api_version") != "v1":
            failures.append(f"/v1/advise: status={status} body={v1}")
        status, raw = post("/v1/advise/stream", {"code": code})
        lines = [json.loads(line) for line in raw.splitlines() if line]
        if status != 200 or not lines or lines[-1].get("type") != "final":
            failures.append(f"/v1/advise/stream: status={status} lines={lines}")

        status, raw = get("/v1/models")
        models = json.loads(raw)
        if status != 200 or not models.get("models") or not models.get("default"):
            failures.append(f"/v1/models: status={status} body={models}")

        status, raw = post("/v1/advise/batch",
                           {"items": [{"code": code},
                                      {"code": code, "model": "default"}]})
        job = json.loads(raw)
        if status != 202 or not job.get("job_id"):
            failures.append(f"/v1/advise/batch: status={status} body={job}")
        else:
            deadline = time.monotonic() + 120
            while job["status"] != "done" and time.monotonic() < deadline:
                time.sleep(0.2)
                status, raw = get(f"/v1/jobs/{job['job_id']}")
                job = json.loads(raw)
            ok = [item for item in job.get("results", [])
                  if item.get("status") == "ok"]
            if job["status"] != "done" or len(ok) != job["total"]:
                failures.append(f"batch job round-trip: {job}")
            # One body, one answer: a call, a stream and a job item all
            # resolve through the same request path.
            answers = [v1, lines[-1].get("response", {}),
                       *(item["response"] for item in ok)]
            if len({json.dumps([answer.get("generated_code"),
                                answer.get("advice")])
                    for answer in answers}) != 1:
                failures.append(f"routes disagree on one body: {answers}")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    if failures:
        for failure in failures:
            print(f"smoke test FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"smoke test ok: /v1/advise, /v1/advise/stream, /v1/models "
          f"and a /v1/advise/batch job round-trip all answered with one "
          f"answer, /advise is 404 ({len(lines)} stream chunk(s), "
          f"job {job['job_id']} done)")
    return 0


def _run_smoke_resume(args) -> int:
    """The kill-and-resume smoke: durability must survive a SIGKILL.

    Runs the server as a *subprocess* over a registry root, submits a batch,
    SIGKILLs the process (no shutdown hooks — the WAL is all that's left),
    restarts it over the same root, and asserts the acknowledged job reaches
    ``"done"`` with every item resolved exactly once and that a fresh submit
    gets the *next* job id (ids never recycle across restarts).
    """
    import json as _json
    import os
    import shutil
    import signal
    import socket
    import subprocess
    import tempfile
    import time
    import urllib.error
    import urllib.request

    workdir = tempfile.mkdtemp(prefix="mpirical-smoke-resume-")
    checkpoint = args.checkpoint
    failures: list[str] = []
    proc = None
    try:
        if not checkpoint:
            checkpoint = os.path.join(workdir, "checkpoint")
            _demo_model(None).save(checkpoint)
        registry_root = os.path.join(workdir, "registry")

        # A fixed port the subprocess can rebind after the kill.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        base = f"http://127.0.0.1:{port}"

        src_dir = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "repro.serving.server",
               "--checkpoint", checkpoint, "--registry-root", registry_root,
               "--host", "127.0.0.1", "--port", str(port)]

        def start():
            return subprocess.Popen(cmd, env=env,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)

        def wait_healthy(deadline: float) -> bool:
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(f"{base}/healthz",
                                                timeout=5) as response:
                        if response.status == 200:
                            return True
                except (urllib.error.URLError, OSError):
                    time.sleep(0.3)
            return False

        def fetch(path: str, payload: dict | None = None,
                  headers: dict | None = None):
            request = urllib.request.Request(
                f"{base}{path}",
                data=_json.dumps(payload).encode() if payload is not None else None,
                headers={"Content-Type": "application/json", **(headers or {})})
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, _json.loads(response.read())

        proc = start()
        if not wait_healthy(time.monotonic() + 120):
            failures.append("first server never became healthy")
            return _smoke_resume_report(failures)

        code = "int main(int argc, char** argv) { return %d; }\n"
        status, job = fetch("/v1/advise/batch",
                            {"items": [{"code": code % n} for n in range(3)]})
        if status != 202 or job.get("job_id") != "job-1":
            failures.append(f"submit: status={status} body={job}")
            return _smoke_resume_report(failures)

        # SIGKILL mid-run: no atexit, no close() — the WAL alone must carry
        # the job across.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        proc = start()
        if not wait_healthy(time.monotonic() + 120):
            failures.append("restarted server never became healthy")
            return _smoke_resume_report(failures)

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, job = fetch("/v1/jobs/job-1")
            if status == 200 and job.get("status") == "done":
                break
            time.sleep(0.3)
        if job.get("status") != "done" or job.get("completed") != job.get("total"):
            failures.append(f"resumed job never finished: {job}")
        elif any(item.get("status") not in ("ok", "error", "dead_letter")
                 for item in job.get("results", [])):
            failures.append(f"resumed job has malformed item envelopes: {job}")

        status, second = fetch("/v1/advise/batch",
                               {"items": [{"code": code % 99}]})
        if status != 202 or second.get("job_id") != "job-2":
            failures.append(f"job ids recycled across restart: "
                            f"status={status} body={second}")
    finally:
        if proc is not None:
            proc.kill()
            proc.wait(timeout=30)
        shutil.rmtree(workdir, ignore_errors=True)
    return _smoke_resume_report(failures, job_id="job-1")


def _smoke_resume_report(failures: list[str], *, job_id: str = "") -> int:
    if failures:
        for failure in failures:
            print(f"kill-and-resume smoke FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"kill-and-resume smoke ok: {job_id} survived SIGKILL, resumed to "
          f"done, and ids did not recycle")
    return 0


@blas_policy()
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve MPI-RICAL advice over HTTP (stdlib only).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--checkpoint", default=None,
                        help="model directory saved via MPIRical.save(); "
                             "omitted = train a small demo model")
    parser.add_argument("--registry-root", default=None,
                        help="durable-state directory; enables the batch-job "
                             "WAL at <root>/jobs/jobs.wal and crash resume")
    parser.add_argument("--max-batch-size", type=int, default=8,
                        help="rows in the continuous decode batch; a wider "
                             "beam decodes alone once the batch drains")
    parser.add_argument("--cache-capacity", type=int, default=256)
    parser.add_argument("--smoke", action="store_true",
                        help="start, exercise every advise route, the model "
                             "listing and one batch job round-trip, exit")
    parser.add_argument("--smoke-resume", action="store_true",
                        help="durability smoke: subprocess server + submit + "
                             "SIGKILL + restart + poll the job to done, exit")
    args = parser.parse_args(argv)

    if args.smoke_resume:
        return _run_smoke_resume(args)

    service = _demo_service(args.checkpoint, max_batch_size=args.max_batch_size,
                            cache_capacity=args.cache_capacity,
                            registry_root=args.registry_root)
    if args.smoke:
        return _run_smoke(service)

    if args.registry_root is not None:
        # Eager recovery: opening the store replays the WAL and re-enqueues
        # unfinished jobs *now*, not on the first batch request.
        snapshot = service.jobs.snapshot()
        if snapshot["resumed_jobs"] or snapshot["retained"]:
            print(f"job WAL replayed: {snapshot['retained']} job(s) retained, "
                  f"{snapshot['resumed_jobs']} resumed, "
                  f"{snapshot['restored_items']} item result(s) restored",
                  file=sys.stderr)

    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"serving MPI-RICAL advice on http://{host}:{port} "
          f"(POST /v1/advise, /v1/advise/stream, /v1/advise/batch, "
          f"/v1/models/<name>/load|swap; "
          f"GET /v1/models, /v1/jobs/<id>, /healthz, /metrics)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
