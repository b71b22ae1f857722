"""The one HTTP front end in both roles: a shard and the router.

Every test here sends the same request to a shard's
:class:`~repro.serve.http.StcoServer` and to a
:class:`~repro.cluster.router.RouterServer` in front of it, so a
behaviour one role has and the other lacks fails here.
"""

import http.client
import json
import os
import socket
import subprocess
import sys
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.cluster import Router, RouterServer
from repro.obs import get_registry
from repro.serve import ServeClientError
from repro.serve.http import ROUTER, SHARD, TABLE

COUNTERS = {SHARD: "repro_http_requests_total",
            ROUTER: "repro_router_http_requests_total"}

#: Placeholder values for a template's ``{...}`` segments.
SAMPLES = {"{id}": "no-such-job", "{digest}": "ab" * 16}


@pytest.fixture
def front_ends(http_cluster):
    shards, _, server = http_cluster
    return {SHARD: shards[0].url, ROUTER: server.url}


def call(base: str, method: str, path: str, body: bytes | None = None):
    """``(status, headers, body bytes)`` for one request, errors
    included."""
    url = urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def error_of(headers: dict, body: bytes) -> str:
    assert headers["Content-Type"] == "application/json"
    return json.loads(body)["error"]


@pytest.mark.parametrize(
    "method,template,endpoint,only", TABLE,
    ids=[f"{method} {template}" for method, template, *_ in TABLE])
def test_route_table_entry_dispatches_on_its_roles_only(
        front_ends, method, template, endpoint, only):
    path = "/".join(SAMPLES.get(p, p) for p in template.split("/"))
    for role, base in front_ends.items():
        family = get_registry().counter(COUNTERS[role],
                                        labels=("method", "route"))
        before = family.labels(method=method, route=template).value
        # POSTs carry an empty body: a served route refuses it with
        # 400, so no request here changes any state.
        status, headers, body = call(base, method, path,
                                     b"" if method == "POST" else None)
        if only in (None, role):
            assert family.labels(method=method,
                                 route=template).value == before + 1
            if status >= 400:
                assert not error_of(headers, body).startswith(
                    "no such endpoint"), (role, status, body)
        else:
            assert status == 404, (role, body)
            assert error_of(headers, body) == \
                f"no such endpoint: {path}"


@pytest.mark.parametrize("window", ["nan", "inf", "-inf", "-5", "0",
                                    "abc", ""])
def test_metrics_window_must_be_finite_and_positive(front_ends, window):
    for role, base in front_ends.items():
        status, headers, body = call(base, "GET",
                                     f"/v1/metrics?window={window}")
        assert status == 400, (role, body)
        assert error_of(headers, body) == f"invalid window: {window!r}"


def test_stdlib_errors_answer_json(front_ends):
    for role, base in front_ends.items():
        status, headers, body = call(base, "DELETE", "/v1/runs")
        assert status == 501, role
        assert "DELETE" in error_of(headers, body)
        assert headers["Connection"] == "close"
        url = urlsplit(base)
        with socket.create_connection((url.hostname, url.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Long: "
                         + b"a" * 70000 + b"\r\n\r\n")
            raw = b""
            while chunk := sock.recv(4096):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 431"), (role, raw[:200])
        assert b"Content-Type: application/json" in head
        assert json.loads(body)["error"]


def test_router_forwards_a_shards_retry_after():
    class Draining:
        def predict(self, design, corner):
            raise ServeClientError(503, "draining",
                                   body={"error": "draining"},
                                   retry_after=1.0)

    router = Router({"a": "http://stub/a"},
                    client_factory=lambda url: Draining())
    with RouterServer(router) as server:
        status, headers, body = call(
            server.url, "POST", "/v1/predict",
            json.dumps({"design": "s298",
                        "corner": [0.85, -0.05, 0.9]}).encode())
    assert status == 503
    assert headers["Retry-After"] == "1"
    assert json.loads(body) == {"error": "draining"}


def test_serving_a_shard_does_not_import_the_cluster():
    """The front end maps cluster errors through the exceptions'
    ``http_reply``, so ``repro.serve`` needs nothing from
    ``repro.cluster``."""
    import repro
    src = str(Path(repro.__file__).parents[1])
    code = ("import sys, repro.serve; "
            "print([m for m in sys.modules if m.startswith('repro.cluster')])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
