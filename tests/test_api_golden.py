"""Golden-file contract smoke: boot the server, replay requests, diff JSON.

Each file under ``tests/golden/api_v1/`` is one case:
``{"request": {"path", "body", "method"?}, "expect": {...}}`` (``method``
defaults to POST; GET cases omit the body).  The harness boots the real HTTP
server on an ephemeral port, replays every golden request and diffs the
response against the checked-in expectation.  Model-dependent fields are
checked-in as the sentinel ``"<volatile>"`` and masked in the actual
response before the diff — everything else (status, envelope, echoed
strategy, key set and order) must match **exactly**, so any contract drift
shows up as a golden diff rather than a client breakage.

Cases run in sorted filename order against one shared server, which the
lifecycle cases lean on: ``batch_submit`` (alphabetically first) creates the
deterministic ``job-1`` that ``job_poll`` later polls —
``expect.poll_until_status`` re-issues the request until the response's
``status`` field reaches the given value, making the job body deterministic.

This is the CI "contract smoke" step (it also runs in tier-1).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.serving import InferenceService
from repro.serving.server import make_server

GOLDEN_DIR = Path(__file__).parent / "golden" / "api_v1"
VOLATILE = "<volatile>"

CASES = sorted(GOLDEN_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def endpoint(tiny_model):
    service = InferenceService(tiny_model, max_batch_size=4,
                               cache_capacity=64,
                               max_length=60)
    server = make_server(service, port=0, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.close()


def _replay(endpoint: str, spec: dict) -> tuple[int, bytes]:
    """Issue one golden request (POST with a JSON body, or a bare GET)."""
    url = f"{endpoint}{spec['path']}"
    if spec.get("method", "POST") == "GET":
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url, data=json.dumps(spec.get("body", {})).encode(),
            headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _masked(actual, expected):
    """``actual`` with every position golden marks ``"<volatile>"`` replaced
    by the sentinel, recursively — so the diff covers exactly the stable
    surface."""
    if expected == VOLATILE:
        return VOLATILE
    if isinstance(expected, dict) and isinstance(actual, dict):
        return {key: _masked(value, expected[key]) if key in expected else value
                for key, value in actual.items()}
    return actual


@pytest.mark.parametrize("case_path", CASES, ids=lambda p: p.stem)
def test_golden_api_v1(endpoint, case_path):
    case = json.loads(case_path.read_text())
    request, expect = case["request"], case["expect"]
    status, raw = _replay(endpoint, request)
    poll_status = expect.get("poll_until_status")
    if poll_status is not None:
        deadline = time.monotonic() + 120
        while (json.loads(raw).get("status") != poll_status
               and time.monotonic() < deadline):
            time.sleep(0.05)
            status, raw = _replay(endpoint, request)
    assert status == expect["status"], raw

    if "final_response" in expect:  # a streaming case: NDJSON lines
        lines = [json.loads(line) for line in raw.splitlines() if line]
        final = lines[-1]
        assert final["type"] == "final"
        tokens = lines[:-1]
        assert all(chunk["type"] == "token" for chunk in tokens)
        assert len(tokens) >= expect["min_token_chunks"]
        actual = _masked(final["response"], expect["final_response"])
        assert actual == expect["final_response"]
        # Key order is part of the contract too.
        assert list(actual) == list(expect["final_response"])
    else:
        body = json.loads(raw)
        actual = _masked(body, expect["response"])
        assert actual == expect["response"]
        assert list(actual) == list(expect["response"])


def test_golden_directory_covers_the_required_cases():
    """ISSUE 4 + 5 + 7 satellites: the advise strategies, two malformed
    bodies, the model-lifecycle surface (models/swap/batch/jobs/unknown-model)
    and the durable-job error envelopes (never-issued job id)."""
    stems = {path.stem for path in CASES}
    assert {"greedy", "beam", "sample", "stream"} <= stems
    assert {"models_list", "swap", "batch_submit", "job_poll",
            "job_unknown", "unknown_model"} <= stems
    assert len([s for s in stems if s.startswith("malformed")]) >= 2
    # PR 9: the v1.2 verification surface — one response carrying a full
    # verification object and one explicitly skipped.
    assert {"verify_advise", "verify_skipped"} <= stems
