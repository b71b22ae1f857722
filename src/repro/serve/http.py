"""Stdlib JSON-over-HTTP front end for a shard or the cluster router.

No third-party dependencies: a ``ThreadingHTTPServer`` whose one
handler translates a small REST surface onto a *backend* — a
:class:`~repro.serve.pool.ServeService` behind :class:`StcoServer` (a
shard), or a :class:`~repro.cluster.router.Router` behind
:class:`~repro.cluster.router.RouterServer` (N shards that clients
cannot tell from one) —

======  ==========================  =====================================
POST    ``/v1/runs``                submit (body: a config document, or
                                    ``{"config": …, "priority": n,
                                    "force": bool}``) → 202 + job
GET     ``/v1/runs``                all job summaries
GET     ``/v1/runs/{id}``           one job, report included when done
GET     ``/v1/runs/{id}/events``    per-round progress snapshots;
                                    ``?stream=1`` upgrades to a live
                                    Server-Sent-Events stream (chunked)
POST    ``/v1/runs/{id}/cancel``    cancel (now if queued, next round
                                    if running)
GET     ``/v1/runs/{id}/profile``   execute-stage sampling profile —
                                    flamegraph collapsed-stack text by
                                    default, ``?format=json`` for the
                                    structured document
GET     ``/v1/workspace/stats``     workspace + live engine statistics
POST    ``/v1/predict``             tier-0 inference: ``{"design",
                                    "corner": [vdd, vth, cox]}`` →
                                    (power, delay, area) + per-objective
                                    epistemic uncertainty, microseconds
                                    from the served ensemble
POST    ``/v1/predict/batch``       ``{"design", "corners": [...]}`` —
                                    one stacked ensemble forward for
                                    every uncached corner
GET     ``/v1/metrics``             process metrics — Prometheus text
                                    by default, ``?format=json`` for
                                    the structured document,
                                    ``?window=SECONDS`` (finite, > 0)
                                    for deltas / rates / quantiles over
                                    the recorded series window
GET     ``/v1/slo``                 SLO rule evaluation (per-rule
                                    ok/warning/breach + burn rates)
GET     ``/v1/cache/{digest}``      one engine disk-cache entry as raw
                                    pickle bytes (``?tier=libraries``
                                    or ``results``; both tried when
                                    omitted) — the cluster peer-borrow
                                    primitive
POST    ``/v1/cluster/peers``       shard only: adopt a cluster
                                    membership document (``{"shards":
                                    {name: {url, weight}}}``) for peer
                                    borrowing
GET     ``/v1/cluster``             router only: ring topology
POST    ``/v1/cluster/join``        router only: a shard announces
                                    itself (``{"name", "url",
                                    "weight"}``) → 201
GET     ``/healthz``                liveness + SLO-derived ``health``
                                    (healthy/degraded/unhealthy),
                                    queue depth, job counts — HTTP 503
                                    when ``unhealthy`` so load
                                    balancers can eject the node
                                    without parsing the body
======  ==========================  =====================================

:data:`TABLE` is that surface: one match per request names both the
request counter's ``route`` label and the endpoint that answers it.
Both backends implement the methods the table names — ``health``,
``slo_report``, ``workspace_stats``, ``metrics_text`` /
``metrics_json`` / ``metrics_window``, ``cache_entry``, ``predict`` /
``predict_batch``, ``submit_run``, ``jobs``, ``job``, ``events``,
``event_stream``, ``profile``, ``cancel_run`` — plus their role's
membership endpoint.

The SSE stream emits one event per item of the backend's
``event_stream`` (a shard's carry ``id:``, the snapshot's index),
comment heartbeats while idle, and a final ``end`` event carrying the
terminal state; a stream that stops without one (a router's shard died
mid-stream) ends with an ``error`` event instead.

Error mapping: unknown paths/jobs → 404, malformed JSON or configs →
400; an exception that carries its own answer (``http_reply() ->
(status, body, headers)``: a draining service → 503, a shard the
router needs being down → 503, a shard's HTTP error → forwarded) gives
it, anything else is a 500. Every body — including errors the stdlib
server raises itself — is a JSON object. :class:`StcoServer` wraps
server-socket lifecycle: ``port=0`` binds an ephemeral port (tests),
:meth:`~StcoServer.start` serves on a daemon thread,
:meth:`~StcoServer.close` stops cleanly.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs.metrics import get_registry
from ..obs.trace import TRACEPARENT_HEADER, parse_traceparent

__all__ = ["ApiError", "ROUTER", "ROUTES", "SHARD", "StcoServer",
           "TABLE", "routes"]

_MAX_BODY_BYTES = 8 * 1024 * 1024

#: How long a kept-alive connection may sit between requests before its
#: handler thread closes it and ends. A client that finds its pooled
#: connection closed reopens it without spending a retry.
_IDLE_TIMEOUT_S = 120.0

SHARD, ROUTER = "shard", "router"

#: The route table: ``(method, template, endpoint, role)``. ``endpoint``
#: names what answers: the handler's ``_<endpoint>`` when there is one
#: (a body to read, a status or framing beyond JSON), else the backend
#: method of that name, called with the template's ``{...}`` values.
#: ``role`` marks a route only one role serves (``None``: both).
TABLE = (
    ("GET", "/healthz", "health", None),
    ("GET", "/v1/metrics", "metrics", None),
    ("GET", "/v1/slo", "slo_report", None),
    ("GET", "/v1/workspace/stats", "workspace_stats", None),
    ("GET", "/v1/cache/{digest}", "cache_entry", None),
    ("POST", "/v1/cluster/peers", "configure_peers", SHARD),
    ("GET", "/v1/cluster", "cluster_info", ROUTER),
    ("POST", "/v1/cluster/join", "add_shard", ROUTER),
    ("POST", "/v1/predict", "predict", None),
    ("POST", "/v1/predict/batch", "predict_batch", None),
    ("POST", "/v1/runs", "submit_run", None),
    ("GET", "/v1/runs", "jobs", None),
    ("GET", "/v1/runs/{id}", "job", None),
    ("GET", "/v1/runs/{id}/events", "events", None),
    ("GET", "/v1/runs/{id}/profile", "profile", None),
    ("POST", "/v1/runs/{id}/cancel", "cancel_run", None),
)


def routes(role: str) -> tuple:
    """The ``(method, template)`` pairs ``role`` serves."""
    return tuple((method, template)
                 for method, template, _, only in TABLE
                 if only in (None, role))


#: The shard's routes.
ROUTES = routes(SHARD)

#: The one label every path outside the role's routes counts under.
UNMATCHED_ROUTE = "unmatched"

#: Per role: the ``Server`` header and the request counter.
_IDENTITY = {
    SHARD: ("repro-serve/1", "repro_http_requests_total",
            "API requests by method and route template"),
    ROUTER: ("repro-router/1", "repro_router_http_requests_total",
             "Router API requests by method and route template"),
}


def _segments(path: str) -> list:
    return [p for p in path.split("/") if p]


_ROLE_TABLE = {role: [(method, _segments(template), template, endpoint)
                      for method, template, endpoint, only in TABLE
                      if only in (None, role)]
               for role in _IDENTITY}


def _match(role: str, method: str, parts: list) -> tuple:
    """``(label, endpoint, params)`` for a request. The label is the
    first template the path fits, whatever the method, so the request
    counter's cardinality is bounded by the table; ``endpoint`` is
    ``None`` unless the method matches too."""
    label = UNMATCHED_ROUTE
    for want, want_parts, template, endpoint in _ROLE_TABLE[role]:
        if len(want_parts) != len(parts) or not all(
                w == p or w.startswith("{")
                for w, p in zip(want_parts, parts)):
            continue
        if label == UNMATCHED_ROUTE:
            label = template
        if want == method:
            return label, endpoint, [p for w, p in zip(want_parts, parts)
                                     if w.startswith("{")]
    return label, None, []


class ApiError(Exception):
    """A request refused with ``status`` and ``{"error": message}``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message

    def http_reply(self) -> tuple:
        return self.status, {"error": self.message}, None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body leave in separate writes; with Nagle on, a
    # kept-alive client (peer cache reads) waits out a delayed ACK,
    # ~40 ms, on every request after its first.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------
    @property
    def server_version(self) -> str:
        return _IDENTITY[self.server.role][0]

    @property
    def backend(self):
        return self.server.backend

    def setup(self):
        super().setup()
        # The idle bound is the kernel's receive timeout, set once: a
        # read that waits that long for bytes (in practice, the wait for
        # the next request) sees end of input, and the handler closes
        # the connection as after a client hang-up. It never touches a
        # write, so an event stream is never cut. A Python-level socket
        # timeout would add a poll and a GIL round trip to every read,
        # which a request contending with a write execution pays for.
        seconds, fraction = divmod(_IDLE_TIMEOUT_S, 1.0)
        self.connection.setsockopt(
            socket.SOL_SOCKET, socket.SO_RCVTIMEO,
            struct.pack("ll", int(seconds), int(fraction * 1e6)))
        self.server.conns.add(self.connection)

    def finish(self):
        self.server.conns.discard(self.connection)
        super().finish()

    def log_message(self, format, *args):   # noqa: A002 — stdlib name
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_bytes(self, body: bytes, content_type: str,
                    status: int = 200,
                    extra_headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send(self, payload: dict, status: int = 200,
              extra_headers: dict | None = None) -> None:
        body = json.dumps(payload, indent=1, sort_keys=True,
                          default=str).encode("utf-8")
        self._send_bytes(body, "application/json", status,
                         extra_headers)

    def _send_text(self, text: str, content_type: str) -> None:
        self._send_bytes(text.encode("utf-8"), content_type)

    def send_error(self, code, message=None, explain=None):
        """Errors the stdlib server answers itself (an unsupported
        method, a malformed request line, oversized headers) keep the
        JSON contract. The request's body, if any, stays unread, so
        the connection closes after the answer."""
        self.log_error("code %d, message %s", code, message)
        self._send({"error": message or self.responses.get(
            code, ("error",))[0]}, code, {"Connection": "close"})

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # The body's extent is unknown: drop the connection after
            # the error, or its bytes would be parsed as the next
            # request.
            self.close_connection = True
            raise ApiError(400, "invalid Content-Length header") \
                from None
        if length <= 0:
            raise ApiError(400, "request body required")
        if length > _MAX_BODY_BYTES:
            # The body stays unread: drop the connection after the
            # error for the same reason.
            self.close_connection = True
            raise ApiError(413, "request body too large")
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"body is not valid JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise ApiError(400, "body must be a JSON object")
        return data

    def _dispatch(self, method: str) -> None:
        if self.server.closed:
            # A kept-alive connection outlives close(): drop it
            # unanswered, as a stopped server would, so its client
            # reconnects and finds the server gone.
            self.close_connection = True
            return
        path, _, raw_query = self.path.partition("?")
        parts = _segments(path)
        label, endpoint, params = _match(self.server.role, method, parts)
        _, counter, help_text = _IDENTITY[self.server.role]
        get_registry().counter(
            counter, help_text, labels=("method", "route")).labels(
                method=method, route=label).inc()
        self.query = {}
        for pair in raw_query.split("&"):
            key, _, value = pair.partition("=")
            self.query.setdefault(key, value)
        try:
            if endpoint is None:
                raise ApiError(404, "no such endpoint: "
                                    f"{path.rstrip('/') or '/'}")
            framed = getattr(self, f"_{endpoint}", None)
            if framed is not None:
                return framed(*params)
            return self._send(getattr(self.backend, endpoint)(*params))
        except Exception as exc:        # noqa: BLE001 — request boundary
            reply = getattr(exc, "http_reply", None)
            if reply is None:
                return self._send({"error": f"internal error: {exc}"},
                                  500)
            status, body, headers = reply()
            self._send(body, status, headers)

    def do_GET(self):                   # noqa: N802 — stdlib casing
        self._dispatch("GET")

    def do_POST(self):                  # noqa: N802 — stdlib casing
        self._dispatch("POST")

    # -- endpoints that need more than a JSON reply ------------------------
    def _health(self) -> None:
        health = self.backend.health()
        if health.get("health") == "unhealthy":
            # SLO-unhealthy nodes answer 503 (body intact) so a router
            # or LB can eject them on status alone.
            return self._send(health, 503,
                              extra_headers={"Retry-After": "5"})
        self._send(health)

    def _metrics(self) -> None:
        window = self.query.get("window")
        if window is not None:
            try:
                window_s = float(window)
            except ValueError:
                window_s = math.nan
            if not (math.isfinite(window_s) and window_s > 0):
                raise ApiError(400, f"invalid window: {window!r}")
            return self._send(self.backend.metrics_window(window_s))
        if self.query.get("format") == "json":
            return self._send(self.backend.metrics_json())
        self._send_text(self.backend.metrics_text(),
                        "text/plain; version=0.0.4; charset=utf-8")

    def _cache_entry(self, digest: str) -> None:
        tier = self.query.get("tier")
        found = self.backend.cache_entry(digest, tier)
        if found is None:
            where = f" in tier {tier!r}" if tier else ""
            raise ApiError(404, f"no cache entry {digest!r}{where}")
        name, data = found
        self._send_bytes(data, "application/octet-stream",
                         extra_headers={"X-Repro-Tier": name})

    def _configure_peers(self) -> None:
        members = self._read_json().get("shards")
        if not isinstance(members, dict) or not all(
                isinstance(m, dict) for m in members.values()):
            raise ApiError(400, "'shards' must be an object of "
                                "{name: {url, weight}}")
        self._send(self.backend.configure_peers(members))

    def _add_shard(self) -> None:
        data = self._read_json()
        name = data.get("name")
        url = data.get("url")
        if not isinstance(name, str) or not name:
            raise ApiError(400, "'name' must be a non-empty string")
        if not isinstance(url, str) or not url:
            raise ApiError(400, "'url' must be a non-empty string")
        try:
            weight = float(data.get("weight", 1.0))
        except (TypeError, ValueError):
            raise ApiError(400, "'weight' must be a number") from None
        if weight <= 0:
            raise ApiError(400, "'weight' must be positive")
        self._send(self.backend.add_shard(name, url, weight), 201)

    def _predict(self) -> None:
        data = self._read_json()
        self._send(self.backend.predict(data.get("design", ""),
                                        data.get("corner")))

    def _predict_batch(self) -> None:
        data = self._read_json()
        self._send(self.backend.predict_batch(data.get("design", ""),
                                              data.get("corners")))

    def _submit_run(self) -> None:
        from ..api.config import ConfigError
        data = self._read_json()
        if "config" in data:
            config = data["config"]
            priority = data.get("priority", 0)
            force = bool(data.get("force", False))
            if not isinstance(config, dict):
                raise ApiError(400, "'config' must be a JSON object")
            if not isinstance(priority, int) or isinstance(priority,
                                                           bool):
                raise ApiError(400, "'priority' must be an integer")
        else:                            # bare config document
            config, priority, force = data, 0, False
        trace = parse_traceparent(
            self.headers.get(TRACEPARENT_HEADER, ""))
        try:
            job = self.backend.submit_run(config, priority=priority,
                                          force=force, trace=trace)
        except ConfigError as exc:
            raise ApiError(400, f"invalid config: {exc}") from None
        self._send(job, 202)

    def _job(self, job_id: str) -> None:
        # The summary view has no config/report/events payload, so a
        # wait loop costs O(1) per poll, not O(rounds).
        self._send(self.backend.job(
            job_id, summary=self.query.get("view") == "summary"))

    def _profile(self, job_id: str) -> None:
        fmt = "json" if self.query.get("format") == "json" else "text"
        found = self.backend.profile(job_id, format=fmt)
        if fmt == "json":
            return self._send(found)
        if found is None:
            raise ApiError(404, f"job {job_id!r} has no profile "
                                "(profiling off, or not executed yet)")
        self._send_text(found, "text/plain; charset=utf-8")

    def _events(self, job_id: str) -> None:
        if self.query.get("stream") != "1":
            return self._send(self.backend.events(job_id))
        # A server without a heartbeat period of its own (the router's)
        # relays its backend's.
        heartbeat = self.server.sse_heartbeat_s
        paced = {} if heartbeat is None else {"heartbeat_s": heartbeat}
        # Locate errors surface here, before headers: a clean 404/503.
        self._stream(job_id, self.backend.event_stream(job_id, **paced))

    # -- Server-Sent Events ------------------------------------------------
    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii")
                         + data + b"\r\n")
        self.wfile.flush()

    def _stream(self, job_id: str, stream) -> None:
        """Server-Sent Events over manual chunked framing: one frame
        per ``{"event", "data"[, "id"]}`` item, a comment frame per
        ``heartbeat`` item (so proxies and clients can tell a quiet run
        from a dead socket), and an ``error`` event when the stream
        stops before its ``end`` event."""
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
                    head = f"id: {item['id']}\n" if "id" in item else ""
                    self._write_chunk(f"{head}event: {item['event']}\n"
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
            pass                         # client hung up mid-stream
        finally:
            self.close_connection = True


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    closed = False


class StcoServer:
    """Socket + thread lifecycle around the handler, serving
    ``service`` (a :class:`~repro.serve.pool.ServeService`) as a shard.

    ``port=0`` binds an OS-assigned ephemeral port (read it back from
    :attr:`port` / :attr:`url`). Usable as a context manager; serving
    happens on a daemon thread so :meth:`start` returns immediately.
    ``sse_heartbeat_s`` paces the idle heartbeats of event streams.
    """

    role = SHARD

    def __init__(self, service, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False,
                 sse_heartbeat_s: float = 10.0):
        self.service = service
        self.httpd = _Server((host, port), _Handler)
        self.httpd.backend = service
        self.httpd.role = self.role
        self.httpd.verbose = verbose
        self.httpd.sse_heartbeat_s = float(sse_heartbeat_s)
        self.httpd.conns = set()         # open connections, for close()
        self.host = self.httpd.server_address[0]
        self.port = self.httpd.server_address[1]
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "StcoServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name=f"{self.role}-http", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve (the CLI's foreground mode)."""
        self.httpd.serve_forever()

    def close(self, close_service: bool = False) -> None:
        self.httpd.closed = True
        self.httpd.shutdown()
        self.httpd.server_close()
        # A handler idling on a kept-alive socket reads EOF, one
        # streaming fails its next write: every handler thread ends.
        for conn in list(self.httpd.conns):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass                     # already gone
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if close_service:
            self.service.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()
