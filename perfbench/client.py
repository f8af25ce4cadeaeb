"""Minimal HTTP client for the v1 wire routes (one connection per request).

Every call returns an :class:`Outcome`; transport errors, timeouts, non-2xx
answers and malformed bodies are failures, never exceptions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException

#: Longest any single request may take before it counts as failed.
CLIENT_TIMEOUT = 120.0


@dataclass
class Outcome:
    ok: bool
    status: int = 0
    body: dict = field(default_factory=dict)
    error: str = ""
    #: Seconds from send to the complete answer.
    latency: float = 0.0
    #: Seconds from send to the first response line (first token for streams).
    first: float = 0.0
    #: Token chunks received (streams only).
    tokens: int = 0


class Client:
    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = CLIENT_TIMEOUT) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _open(self, method: str, path: str, payload: dict | None):
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        return conn, conn.getresponse()

    def call(self, method: str, path: str, payload: dict | None = None) -> Outcome:
        start = time.perf_counter()
        conn = None
        try:
            conn, response = self._open(method, path, payload)
            first = time.perf_counter() - start
            raw = response.read()
            latency = time.perf_counter() - start
            status = response.status
        except (OSError, HTTPException) as exc:
            return Outcome(False, error=f"{type(exc).__name__}: {exc}",
                           latency=time.perf_counter() - start)
        finally:
            if conn is not None:
                conn.close()
        try:
            body = json.loads(raw)
        except ValueError:
            return Outcome(False, status, error="malformed JSON body",
                           latency=latency, first=first)
        if not 200 <= status < 300 or not isinstance(body, dict):
            return Outcome(False, status, body if isinstance(body, dict) else {},
                           error=f"HTTP {status}", latency=latency, first=first)
        return Outcome(True, status, body, latency=latency, first=first)

    def advise(self, payload: dict) -> Outcome:
        outcome = self.call("POST", "/v1/advise", payload)
        if outcome.ok and "generated_code" not in outcome.body:
            outcome.ok, outcome.error = False, "response without generated_code"
        return outcome

    def stream(self, payload: dict) -> Outcome:
        """POST /v1/advise/stream; ``first`` is the time to the first token."""
        start = time.perf_counter()
        conn = None
        tokens = 0
        first = 0.0
        final = None
        try:
            conn, response = self._open("POST", "/v1/advise/stream", payload)
            if response.status != 200:
                response.read()
                return Outcome(False, response.status, error=f"HTTP {response.status}",
                               latency=time.perf_counter() - start)
            while True:
                line = response.readline()
                if not line:
                    break
                chunk = json.loads(line)
                kind = chunk.get("type")
                if kind == "token":
                    if not tokens:
                        first = time.perf_counter() - start
                    tokens += 1
                elif kind == "final":
                    final = chunk.get("response")
                else:
                    return Outcome(False, 200, error=f"stream chunk {chunk!r}",
                                   latency=time.perf_counter() - start)
        except (OSError, HTTPException, ValueError) as exc:
            return Outcome(False, error=f"{type(exc).__name__}: {exc}",
                           latency=time.perf_counter() - start)
        finally:
            if conn is not None:
                conn.close()
        latency = time.perf_counter() - start
        if not isinstance(final, dict) or "generated_code" not in final:
            return Outcome(False, 200, error="stream without a final response",
                           latency=latency)
        return Outcome(True, 200, final, latency=latency,
                       first=first if tokens else latency, tokens=tokens)
