"""Stdlib JSON-over-HTTP front end for a :class:`ServeService`.

No third-party dependencies: a ``ThreadingHTTPServer`` whose handler
translates a small REST surface onto the service —

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
                                    ``?window=SECONDS`` for deltas /
                                    rates / quantiles over the recorded
                                    series window
GET     ``/v1/slo``                 SLO rule evaluation (per-rule
                                    ok/warning/breach + burn rates)
GET     ``/v1/cache/{digest}``      one engine disk-cache entry as raw
                                    pickle bytes (``?tier=libraries``
                                    or ``results``; both tried when
                                    omitted) — the cluster peer-borrow
                                    primitive
POST    ``/v1/cluster/peers``       adopt a cluster membership document
                                    (``{"shards": {name: {url,
                                    weight}}}``) for peer borrowing
GET     ``/healthz``                liveness + SLO-derived ``health``
                                    (healthy/degraded/unhealthy),
                                    queue depth, job counts — HTTP 503
                                    when ``unhealthy`` so load
                                    balancers can eject the shard
                                    without parsing the body
======  ==========================  =====================================

The SSE stream emits one ``progress`` event per persisted snapshot
(``id:`` is the event's index), ``profile`` / ``trace`` events for the
job's sampling profile and span tree, comment heartbeats while idle,
and a final ``end`` event carrying the terminal state. A coalesced
follower transparently streams its leader's events.

Error mapping: unknown paths/jobs → 404, malformed JSON or configs →
400, a draining service → 503; every body (including errors) is a JSON
object. :class:`StcoServer` wraps server-socket lifecycle: ``port=0``
binds an ephemeral port (tests), :meth:`start` serves on a daemon
thread, :meth:`close` stops cleanly.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs.metrics import get_registry
from ..obs.trace import TRACEPARENT_HEADER, parse_traceparent
from .jobs import JobState, UnknownJobError
from .pool import ServeService, ServiceClosed

__all__ = ["ROUTES", "StcoServer"]

_MAX_BODY_BYTES = 8 * 1024 * 1024

#: The shard's route table, one ``(method, template)`` per endpoint.
#: The cluster router mirrors this surface; the parity test diffs the
#: two tables, so a route added here without router support (or vice
#: versa) fails fast.
ROUTES = (
    ("GET", "/healthz"),
    ("GET", "/v1/metrics"),
    ("GET", "/v1/slo"),
    ("GET", "/v1/workspace/stats"),
    ("GET", "/v1/cache/{digest}"),
    ("POST", "/v1/cluster/peers"),
    ("POST", "/v1/predict"),
    ("POST", "/v1/predict/batch"),
    ("POST", "/v1/runs"),
    ("GET", "/v1/runs"),
    ("GET", "/v1/runs/{id}"),
    ("GET", "/v1/runs/{id}/events"),
    ("GET", "/v1/runs/{id}/profile"),
    ("POST", "/v1/runs/{id}/cancel"),
)


#: The one label every path outside the route table counts under.
UNMATCHED_ROUTE = "unmatched"


def _route_label(path: str, routes=ROUTES) -> str:
    """The route template ``path`` matches (``/v1/runs/{id}``,
    ``/v1/cache/{digest}``, ...), or :data:`UNMATCHED_ROUTE`, so the
    request counter's label cardinality is bounded by the table."""
    parts = [p for p in path.partition("?")[0].split("/") if p]
    for _, template in routes:
        want = [p for p in template.split("/") if p]
        if len(want) == len(parts) and all(
                w == p or w.startswith("{")
                for w, p in zip(want, parts)):
            return template
    return UNMATCHED_ROUTE


class _ApiError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _content_length(handler) -> int:
    """The request's declared body size; a malformed header is the
    client's error (400), not the server's."""
    try:
        return int(handler.headers.get("Content-Length") or 0)
    except ValueError:
        # The body's extent is unknown: drop the connection after the
        # error, or its bytes would be parsed as the next request.
        handler.close_connection = True
        raise _ApiError(400, "invalid Content-Length header") from None


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in separate writes; with Nagle on, a
    # kept-alive client (peer cache reads) waits out a delayed ACK,
    # ~40 ms, on every request after its first.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------
    @property
    def service(self) -> ServeService:
        return self.server.service

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

    def _read_json(self) -> dict:
        length = _content_length(self)
        if length <= 0:
            raise _ApiError(400, "request body required")
        if length > _MAX_BODY_BYTES:
            # The body stays unread: drop the connection after the
            # error or the leftover bytes would be parsed as the next
            # request on this keep-alive socket.
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
            "repro_http_requests_total",
            "API requests by method and route template",
            labels=("method", "route")).labels(
                method=method,
                route=_route_label(self.path)).inc()
        try:
            self._route(method)
        except _ApiError as exc:
            self._send({"error": exc.message}, exc.status)
        except UnknownJobError as exc:
            self._send({"error": f"unknown job {exc.args[0]!r}"}, 404)
        except ServiceClosed as exc:
            # The hint tells retrying clients when to come back.
            self._send({"error": str(exc)}, 503,
                       extra_headers={"Retry-After": "1"})
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
        if method == "GET" and path == "/healthz":
            health = self.service.health()
            if health.get("health") == "unhealthy":
                # SLO-unhealthy shards answer 503 (body intact) so a
                # router or LB can eject them on status alone.
                return self._send(health, 503,
                                  extra_headers={"Retry-After": "5"})
            return self._send(health)
        if method == "GET" and parts == ["v1", "metrics"]:
            return self._metrics(query)
        if method == "GET" and parts == ["v1", "slo"]:
            return self._send(self.service.slo_report())
        if parts[:2] == ["v1", "cache"] and len(parts) == 3:
            if method == "GET":
                return self._cache_entry(parts[2], query)
            raise _ApiError(404, f"no such endpoint: {path}")
        if parts[:2] == ["v1", "cluster"]:
            if method == "POST" and parts[2:] == ["peers"]:
                return self._configure_peers()
            raise _ApiError(404, f"no such endpoint: {path}")
        if parts[:2] == ["v1", "predict"]:
            if method == "POST" and parts[2:] in ([], ["batch"]):
                return self._predict(batch=bool(parts[2:]))
            raise _ApiError(404, f"no such endpoint: {path}")
        if parts[:2] != ["v1", "runs"] and parts[:2] != ["v1",
                                                         "workspace"]:
            raise _ApiError(404, f"no such endpoint: {path}")
        if parts[:2] == ["v1", "workspace"]:
            if method == "GET" and parts[2:] == ["stats"]:
                return self._send(self.service.workspace_stats())
            raise _ApiError(404, f"no such endpoint: {path}")
        # /v1/runs...
        rest = parts[2:]
        if not rest:
            if method == "POST":
                return self._submit()
            return self._send({"jobs": self.service.store.jobs()})
        job_id = rest[0]
        if method == "GET" and len(rest) == 1:
            if "view=summary" in query:
                # Light polling view: no config/report/events payload,
                # so a wait loop costs O(1) per poll, not O(rounds).
                return self._send(self.service.store.summary(job_id))
            return self._send(self.service.store.describe(job_id))
        if method == "GET" and rest[1:] == ["events"]:
            if "stream=1" in query.split("&"):
                return self._stream_events(job_id)
            return self._send(self.service.events(job_id))
        if method == "GET" and rest[1:] == ["profile"]:
            return self._profile(job_id, query)
        if method == "POST" and rest[1:] == ["cancel"]:
            cancelled = self.service.cancel(job_id)
            job = self.service.store.describe(job_id)
            return self._send({"job_id": job_id, "cancelled": cancelled,
                               "state": job["state"]})
        raise _ApiError(404, f"no such endpoint: {path}")

    # -- cluster -----------------------------------------------------------
    def _cache_entry(self, digest: str, query: str) -> None:
        tier = next((p.partition("=")[2] for p in query.split("&")
                     if p.startswith("tier=")), None)
        found = self.service.cache_entry(digest, tier)
        if found is None:
            where = f" in tier {tier!r}" if tier else ""
            raise _ApiError(404, f"no cache entry {digest!r}{where}")
        name, data = found
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("X-Repro-Tier", name)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    # -- tier-0 predict ----------------------------------------------------
    def _predict(self, batch: bool) -> None:
        from ..predict.service import PredictError
        data = self._read_json()
        try:
            if batch:
                return self._send(self.service.predict_batch(data))
            return self._send(self.service.predict(data))
        except PredictError as exc:
            raise _ApiError(exc.status, exc.message) from None

    def _configure_peers(self) -> None:
        data = self._read_json()
        members = data.get("shards")
        if not isinstance(members, dict) or not all(
                isinstance(m, dict) for m in members.values()):
            raise _ApiError(400, "'shards' must be an object of "
                                 "{name: {url, weight}}")
        self._send(self.service.configure_peers(members))

    # -- observability -----------------------------------------------------
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
            return self._send(
                self.service.recorder.window_report(window_s))
        registry = get_registry()
        if "format=json" in params:
            return self._send(registry.render_json())
        body = registry.render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _profile(self, job_id: str, query: str) -> None:
        from ..obs.prof import Profile
        found = self.service.profile(job_id)   # 404 if unknown
        if "format=json" in query.split("&"):
            return self._send(found)
        if found["profile"] is None:
            raise _ApiError(404, f"job {job_id!r} has no profile "
                                 "(profiling off, or not executed yet)")
        body = Profile.from_dict(found["profile"]) \
            .render_collapsed().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii")
                         + data + b"\r\n")
        self.wfile.flush()

    def _stream_events(self, job_id: str) -> None:
        """Server-Sent Events over manual chunked framing.

        ``events_since`` long-polls the store; each wake-up flushes the
        fresh snapshots as ``progress`` (or ``trace``) events. Idle
        timeouts emit comment heartbeats so proxies and clients can
        tell a quiet run from a dead socket.
        """
        store = self.service.store
        job = store.get(job_id)          # 404 before headers if unknown
        source = job.job_id
        if job.coalesced_with:
            try:
                store.get(job.coalesced_with)
                source = job.coalesced_with
            except UnknownJobError:
                pass                     # leader gone: own (empty) feed
        heartbeat = getattr(self.server, "sse_heartbeat_s", 10.0)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        index = 0
        try:
            while True:
                events, state = store.events_since(source, index,
                                                   timeout=heartbeat)
                for event in events:
                    kind = event.get("kind") \
                        if event.get("kind") in ("trace", "profile") \
                        else "progress"
                    data = json.dumps(event, sort_keys=True,
                                      default=str)
                    self._write_chunk(f"id: {index}\nevent: {kind}\n"
                                      f"data: {data}\n\n")
                    index += 1
                if state in JobState.TERMINAL:
                    final = json.dumps({"job_id": job_id,
                                        "source": source,
                                        "state": state},
                                       sort_keys=True)
                    self._write_chunk(f"event: end\ndata: {final}\n\n")
                    break
                if not events:
                    self._write_chunk(": heartbeat\n\n")
            self.wfile.write(b"0\r\n\r\n")   # chunked terminator
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass                         # client hung up mid-stream
        finally:
            self.close_connection = True

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
            job = self.service.submit(
                config, priority=priority, force=force,
                trace=ctx.to_dict() if ctx is not None else None)
        except ConfigError as exc:
            raise _ApiError(400, f"invalid config: {exc}") from None
        self._send({"job_id": job.job_id, "state": job.state,
                    "content_key": job.content_key,
                    "coalesced_with": job.coalesced_with,
                    "priority": job.priority}, 202)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class StcoServer:
    """Socket + thread lifecycle around the HTTP handler.

    ``port=0`` binds an OS-assigned ephemeral port (read it back from
    :attr:`port` / :attr:`url`). Usable as a context manager; serving
    happens on a daemon thread so :meth:`start` returns immediately.
    """

    def __init__(self, service: ServeService, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False,
                 sse_heartbeat_s: float = 10.0):
        self.service = service
        self.httpd = _Server((host, port), _Handler)
        self.httpd.service = service
        self.httpd.verbose = verbose
        self.httpd.sse_heartbeat_s = float(sse_heartbeat_s)
        self.host = self.httpd.server_address[0]
        self.port = self.httpd.server_address[1]
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "StcoServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever, name="serve-http",
                daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve (the ``repro serve`` CLI foreground mode)."""
        self.httpd.serve_forever()

    def close(self, close_service: bool = False) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if close_service:
            self.service.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()
