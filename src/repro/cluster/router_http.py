"""Stdlib HTTP front end for a :class:`~repro.cluster.router.Router`.

The route table is the shard's (:data:`repro.serve.http.ROUTES`) with
two substitutions: the shard-internal ``POST /v1/cluster/peers`` is
replaced by the router-side membership endpoints ``GET /v1/cluster``
(topology) and ``POST /v1/cluster/join`` (a new shard announces
itself; the router extends the ring and re-pushes membership to
everyone). Everything else is surface-identical — ``repro submit
--url ROUTER`` works unchanged, including ``--follow``'s SSE stream,
which the router consumes from the owning shard and re-frames.

Error mapping adds two cluster cases to the shard's: a shard the
request *needs* being down → 503 with a ``Retry-After`` hint, and a
shard-side HTTP error → forwarded with its original status.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs.metrics import get_registry
from ..obs.trace import TRACEPARENT_HEADER, parse_traceparent
from ..serve.client import ServeClientError
from ..serve.http import _ApiError, _content_length, _route_label
from ..serve.jobs import UnknownJobError
from .router import Router, ShardUnavailable

__all__ = ["ROUTES", "RouterServer"]

_MAX_BODY_BYTES = 8 * 1024 * 1024

#: The router's route table; diffed against the shard's by the parity
#: test (see module docstring for the two deliberate substitutions).
ROUTES = (
    ("GET", "/healthz"),
    ("GET", "/v1/metrics"),
    ("GET", "/v1/slo"),
    ("GET", "/v1/workspace/stats"),
    ("GET", "/v1/cache/{digest}"),
    ("GET", "/v1/cluster"),
    ("POST", "/v1/cluster/join"),
    ("POST", "/v1/predict"),
    ("POST", "/v1/predict/batch"),
    ("POST", "/v1/runs"),
    ("GET", "/v1/runs"),
    ("GET", "/v1/runs/{id}"),
    ("GET", "/v1/runs/{id}/events"),
    ("GET", "/v1/runs/{id}/profile"),
    ("POST", "/v1/runs/{id}/cancel"),
)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-router/1"
    protocol_version = "HTTP/1.1"
    # As on a shard: no delayed-ACK wait for kept-alive cache reads.
    disable_nagle_algorithm = True

    @property
    def router(self) -> Router:
        return self.server.router

    def log_message(self, format, *args):   # noqa: A002 — stdlib name
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, payload: dict, status: int = 200,
              extra_headers: dict | None = None) -> None:
        body = json.dumps(payload, indent=1, sort_keys=True,
                          default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str,
                   content_type: str = "text/plain; charset=utf-8",
                   status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = _content_length(self)
        if length <= 0:
            raise _ApiError(400, "request body required")
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise _ApiError(413, "request body too large")
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _ApiError(400, f"body is not valid JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise _ApiError(400, "body must be a JSON object")
        return data

    def _dispatch(self, method: str) -> None:
        get_registry().counter(
            "repro_router_http_requests_total",
            "Router API requests by method and route template",
            labels=("method", "route")).labels(
                method=method,
                route=_route_label(self.path, ROUTES)).inc()
        try:
            self._route(method)
        except _ApiError as exc:
            self._send({"error": exc.message}, exc.status)
        except UnknownJobError as exc:
            self._send({"error": f"unknown job {exc.args[0]!r}"}, 404)
        except ShardUnavailable as exc:
            self._send({"error": str(exc), "shard": exc.shard}, 503,
                       extra_headers={"Retry-After": "2"})
        except ServeClientError as exc:
            # A shard answered with an error: forward it verbatim —
            # the router adds reach, not new failure semantics.
            self._send(exc.body if isinstance(exc.body, dict)
                       else {"error": exc.message}, exc.status)
        except Exception as exc:        # noqa: BLE001 — request boundary
            self._send({"error": f"internal error: {exc}"}, 500)

    def do_GET(self):                   # noqa: N802 — stdlib casing
        self._dispatch("GET")

    def do_POST(self):                  # noqa: N802 — stdlib casing
        self._dispatch("POST")

    # -- routing -----------------------------------------------------------
    def _route(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        router = self.router
        if method == "GET" and path == "/healthz":
            health = router.health()
            if health.get("health") == "unhealthy":
                return self._send(health, 503,
                                  extra_headers={"Retry-After": "5"})
            return self._send(health)
        if method == "GET" and parts == ["v1", "metrics"]:
            return self._metrics(query)
        if method == "GET" and parts == ["v1", "slo"]:
            return self._send(router.slo())
        if method == "GET" and parts == ["v1", "workspace", "stats"]:
            return self._send(router.workspace_stats())
        if parts[:2] == ["v1", "cache"] and len(parts) == 3:
            if method == "GET":
                return self._cache_entry(parts[2], query)
            raise _ApiError(404, f"no such endpoint: {path}")
        if parts[:2] == ["v1", "cluster"]:
            if method == "GET" and len(parts) == 2:
                return self._send(router.cluster_info())
            if method == "POST" and parts[2:] == ["join"]:
                return self._join()
            raise _ApiError(404, f"no such endpoint: {path}")
        if parts[:2] == ["v1", "predict"]:
            if method == "POST" and parts[2:] in ([], ["batch"]):
                return self._predict(batch=bool(parts[2:]))
            raise _ApiError(404, f"no such endpoint: {path}")
        if parts[:2] != ["v1", "runs"]:
            raise _ApiError(404, f"no such endpoint: {path}")
        rest = parts[2:]
        if not rest:
            if method == "POST":
                return self._submit()
            return self._send(router.jobs())
        job_id = rest[0]
        if method == "GET" and len(rest) == 1:
            return self._send(router.job(
                job_id, summary="view=summary" in query))
        if method == "GET" and rest[1:] == ["events"]:
            if "stream=1" in query.split("&"):
                return self._stream_events(job_id)
            return self._send(router.events(job_id))
        if method == "GET" and rest[1:] == ["profile"]:
            if "format=json" in query.split("&"):
                return self._send(router.profile(job_id,
                                                 format="json"))
            return self._send_text(router.profile(job_id))
        if method == "POST" and rest[1:] == ["cancel"]:
            return self._send(router.cancel(job_id))
        raise _ApiError(404, f"no such endpoint: {path}")

    # -- endpoints ---------------------------------------------------------
    def _metrics(self, query: str) -> None:
        params = query.split("&")
        window = next((p.partition("=")[2] for p in params
                       if p.startswith("window=")), None)
        if window is not None:
            try:
                window_s = float(window)
            except ValueError:
                raise _ApiError(400, f"invalid window: {window!r}") \
                    from None
            return self._send(self.router.metrics_window(window_s))
        if "format=json" in params:
            return self._send(self.router.metrics_json())
        return self._send_text(
            self.router.metrics_text(),
            content_type="text/plain; version=0.0.4; charset=utf-8")

    def _cache_entry(self, digest: str, query: str) -> None:
        tier = next((p.partition("=")[2] for p in query.split("&")
                     if p.startswith("tier=")), None)
        found = self.router.cache_entry(digest, tier)
        if found is None:
            raise _ApiError(404, f"no cache entry {digest!r} on any "
                                 f"shard")
        name, data = found
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("X-Repro-Tier", name)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _join(self) -> None:
        data = self._read_json()
        name = data.get("name")
        url = data.get("url")
        if not isinstance(name, str) or not name:
            raise _ApiError(400, "'name' must be a non-empty string")
        if not isinstance(url, str) or not url:
            raise _ApiError(400, "'url' must be a non-empty string")
        try:
            weight = float(data.get("weight", 1.0))
        except (TypeError, ValueError):
            raise _ApiError(400, "'weight' must be a number") from None
        if weight <= 0:
            raise _ApiError(400, "'weight' must be positive")
        self._send(self.router.add_shard(name, url, weight), 201)

    def _predict(self, batch: bool) -> None:
        data = self._read_json()
        design = data.get("design", "")
        if batch:
            corners = data.get("corners")
            if not isinstance(corners, list):
                raise _ApiError(400, "'corners' must be a list")
            return self._send(self.router.predict_batch(design,
                                                        corners))
        corner = data.get("corner")
        if not isinstance(corner, (list, tuple)):
            raise _ApiError(400, "'corner' must be a 3-number list")
        return self._send(self.router.predict(design, corner))

    def _submit(self) -> None:
        from ..api.config import ConfigError
        data = self._read_json()
        if "config" in data:
            config = data["config"]
            priority = data.get("priority", 0)
            force = bool(data.get("force", False))
            if not isinstance(config, dict):
                raise _ApiError(400, "'config' must be a JSON object")
            if not isinstance(priority, int) or isinstance(priority,
                                                           bool):
                raise _ApiError(400, "'priority' must be an integer")
        else:                            # bare config document
            config, priority, force = data, 0, False
        ctx = parse_traceparent(
            self.headers.get(TRACEPARENT_HEADER, ""))
        try:
            job = self.router.submit(config, priority=priority,
                                     force=force, trace=ctx)
        except ConfigError as exc:
            raise _ApiError(400, f"invalid config: {exc}") from None
        self._send(job, 202)

    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii")
                         + data + b"\r\n")
        self.wfile.flush()

    def _stream_events(self, job_id: str) -> None:
        """SSE passthrough: consume the owning shard's stream, re-frame
        each parsed event for our client. Locate errors surface before
        headers (clean 404/503). The shard's heartbeat comments are
        re-emitted so our client's idle timeout keeps getting fed, and
        a shard dying mid-stream surfaces as an ``error`` event rather
        than a silent hang-up."""
        stream = self.router.event_stream(job_id)   # may raise: pre-headers
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            ended, error = False, ""
            try:
                for item in stream:
                    if item["event"] == "heartbeat":
                        self._write_chunk(": heartbeat\n\n")
                        continue
                    data = json.dumps(item["data"], sort_keys=True,
                                      default=str)
                    self._write_chunk(f"event: {item['event']}\n"
                                      f"data: {data}\n\n")
                    if item["event"] == "end":
                        ended = True
            except Exception as exc:     # noqa: BLE001 — upstream died
                error = f"{type(exc).__name__}: {exc}"
            if not ended:
                payload = json.dumps(
                    {"error": error or "shard stream ended before a "
                                       "terminal state",
                     "job_id": job_id}, sort_keys=True)
                self._write_chunk(f"event: error\ndata: {payload}\n\n")
            self.wfile.write(b"0\r\n\r\n")   # chunked terminator
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass                         # our client hung up
        finally:
            self.close_connection = True


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class RouterServer:
    """Socket + thread lifecycle around the router handler (the
    cluster-side twin of :class:`~repro.serve.http.StcoServer`)."""

    def __init__(self, router: Router, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False):
        self.router = router
        self.httpd = _Server((host, port), _Handler)
        self.httpd.router = router
        self.httpd.verbose = verbose
        self.host = self.httpd.server_address[0]
        self.port = self.httpd.server_address[1]
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RouterServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever, name="router-http",
                daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.router.close()              # stop the series sampler

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()
