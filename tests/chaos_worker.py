"""A stub worker speaking the ``server.py`` wire contract, built to be hurt.

``tests/test_worker_pool.py`` runs the real :class:`repro.serving.pool.WorkerPool`
and :class:`repro.serving.router.Router` in-process, but boots *these* as the
worker subprocesses instead of full model servers: they answer the same
endpoints (``/healthz``, ``/metrics``, ``/v1/advise``,
``/v1/advise/stream``, ``/v1/advise/batch`` + ``/v1/jobs/{id}``,
``/v1/models`` + per-model ``load``/``swap``, ``/admin/drain``) in
milliseconds, which keeps the chaos suite fast and deterministic, and they
expose deliberate failure modes on top:

``POST /chaos/wedge``
    Stop answering advise requests (hold them until unwedged) — the
    read-timeout / failover path, as distinct from a dead socket.
``POST /chaos/unwedge``
    Release held requests.

Advise responses carry ``worker`` (the ``--worker-id``) and ``pid`` so tests
can assert *which* replica answered and whether it was respawned.  This file
is intentionally under ``tests/`` (run by path, not imported): subprocess
code is invisible to coverage, so it must not live inside the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class ChaosState:
    """Mutable worker state the handler threads share."""

    def __init__(self, worker_id: str) -> None:
        self.worker_id = worker_id
        self.lock = threading.Lock()
        self.wedged = threading.Event()
        self.unwedged = threading.Event()
        self.unwedged.set()
        self.draining = False
        self.requests_served = 0
        self.jobs: dict[str, dict] = {}
        self.next_job = 0
        # Fake registry: one model behind the default alias, swappable.
        self.models = {"demo": "demo@stub1"}
        self.aliases = {"default": "demo"}


class ChaosWorkerHandler(BaseHTTPRequestHandler):
    state: ChaosState

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------ GET

    def do_GET(self) -> None:  # noqa: N802
        state = self.state
        if self.path == "/healthz":
            if state.draining:
                self._json(503, {"status": "draining", "draining": True,
                                 "pending": 0})
            else:
                self._json(200, {"status": "ok", "draining": False,
                                 "pending": None,
                                 "worker": state.worker_id,
                                 "pid": os.getpid()})
        elif self.path == "/metrics":
            with state.lock:
                served = state.requests_served
            self._json(200, {"requests_total": served,
                             "worker": state.worker_id})
        elif self.path == "/v1/models":
            with state.lock:
                default = state.models[state.aliases["default"]]
                models = [{"name": name, "revision": identity.split("@")[1],
                           "loaded": True, "requests_served": 0}
                          for name, identity in sorted(state.models.items())]
            self._json(200, {"api_version": "v1", "default": default,
                             "aliases": dict(state.aliases),
                             "models": models, "worker": state.worker_id})
        elif self.path.startswith("/v1/jobs/"):
            job_id = self.path[len("/v1/jobs/"):]
            with state.lock:
                job = state.jobs.get(job_id)
            if job is None:
                self._json(404, {"error": {"code": "not_found",
                                           "message": f"unknown job {job_id}",
                                           "field": None}})
            else:
                self._json(200, job)
        else:
            self._json(404, {"error": {"code": "not_found",
                                       "message": f"unknown path {self.path}",
                                       "field": None}})

    # ----------------------------------------------------------------- POST

    def do_POST(self) -> None:  # noqa: N802
        state = self.state
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            self._json(400, {"error": {"code": "invalid_request",
                                       "message": "invalid JSON",
                                       "field": None}})
            return
        if self.path == "/chaos/wedge":
            state.unwedged.clear()
            state.wedged.set()
            self._json(200, {"wedged": True})
        elif self.path == "/chaos/unwedge":
            state.wedged.clear()
            state.unwedged.set()
            self._json(200, {"wedged": False})
        elif self.path == "/admin/drain":
            state.draining = True
            self._json(200, {"api_version": "v1", "draining": True,
                             "pending": 0})
        elif self.path == "/v1/advise":
            self._advise(payload)
        elif self.path == "/v1/advise/stream":
            self._advise_stream(payload)
        elif self.path == "/v1/advise/batch":
            self._submit(payload)
        elif self.path.startswith("/v1/models/") and self.path.endswith("/swap"):
            self._swap(self.path.split("/")[3], payload)
        elif self.path.startswith("/v1/models/") and self.path.endswith("/load"):
            self._load(self.path.split("/")[3])
        else:
            self._json(404, {"error": {"code": "not_found",
                                       "message": f"unknown path {self.path}",
                                       "field": None}})

    # ------------------------------------------------------------- behaviour

    def _refuse_if_draining(self) -> bool:
        if self.state.draining:
            self._json(503, {"error": {"code": "unavailable",
                                       "message": "this replica is draining",
                                       "field": None}},
                       retry_after="1")
            return True
        return False

    def _hold_if_wedged(self) -> None:
        # A wedged worker accepts the connection but never answers — the
        # router must burn its read timeout, not a connect error.
        if self.state.wedged.is_set():
            self.state.unwedged.wait(timeout=120.0)

    def _advise(self, payload: dict) -> None:
        if self._refuse_if_draining():
            return
        self._hold_if_wedged()
        state = self.state
        with state.lock:
            state.requests_served += 1
            model = state.models[state.aliases["default"]]
        body = {
            "api_version": "v1",
            "generated_code": payload.get("code", ""),
            "advice": [],
            "diagnostics": [],
            "cached": False,
            "latency_ms": 0.1,
            "worker": state.worker_id,
            "pid": os.getpid(),
            "model": model,
            "strategy": payload.get("strategy", {"name": "greedy"}),
            "cache_key": "stub",
        }
        self._json(200, body)

    def _advise_stream(self, payload: dict) -> None:
        if self._refuse_if_draining():
            return
        self._hold_if_wedged()
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        for index, token in enumerate(["int", "main"]):
            self.wfile.write(json.dumps({"type": "token", "index": index,
                                         "token": token}).encode() + b"\n")
            self.wfile.flush()
        final = {"type": "final",
                 "response": {"api_version": "v1",
                              "generated_code": payload.get("code", ""),
                              "worker": self.state.worker_id,
                              "pid": os.getpid()}}
        self.wfile.write(json.dumps(final).encode() + b"\n")

    def _submit(self, payload: dict) -> None:
        if self._refuse_if_draining():
            return
        state = self.state
        items = payload.get("items") or []
        with state.lock:
            state.next_job += 1
            job_id = f"job-{state.next_job}"
            state.jobs[job_id] = {
                "api_version": "v1", "job_id": job_id, "status": "done",
                "total": len(items), "completed": len(items),
                "worker": state.worker_id,
                "results": [{"status": "ok",
                             "response": {"generated_code":
                                          item.get("code", "")}}
                            for item in items],
            }
        accepted = dict(state.jobs[job_id])
        accepted["status"] = "queued"
        accepted.pop("results")
        self._json(202, accepted)

    def _swap(self, name: str, payload: dict) -> None:
        state = self.state
        alias = payload.get("alias", "default")
        with state.lock:
            if name not in state.models:
                self._json(422, {"error": {"code": "unknown_model",
                                           "message": f"unknown model {name}",
                                           "field": None}})
                return
            previous = state.models.get(state.aliases.get(alias, ""), None)
            state.aliases[alias] = name
            current = state.models[name]
        self._json(200, {"api_version": "v1", "alias": alias,
                         "previous": previous, "current": current,
                         "worker": state.worker_id})

    def _load(self, name: str) -> None:
        state = self.state
        with state.lock:
            identity = state.models.setdefault(name, f"{name}@stub1")
        self._json(200, {"api_version": "v1",
                         "model": {"name": name,
                                   "revision": identity.split("@")[1],
                                   "loaded": True},
                         "worker": state.worker_id})

    # -------------------------------------------------------------- plumbing

    def _json(self, status: int, payload: dict,
              retry_after: str | None = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        self.end_headers()
        self.wfile.write(body)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--worker-id", default="w?")
    parser.add_argument("--registry-root", default=None)  # accepted, unused
    parser.add_argument("--start-delay", type=float, default=0.0,
                        help="sleep before binding (slow-boot simulation)")
    args = parser.parse_args(argv)
    if args.start_delay:
        time.sleep(args.start_delay)
    state = ChaosState(args.worker_id)
    handler = type("BoundChaosWorkerHandler", (ChaosWorkerHandler,),
                   {"state": state})
    server = ThreadingHTTPServer((args.host, args.port), handler)
    server.daemon_threads = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
