"""ServeClient: the thin client for the serve HTTP API.

Everything the server speaks is JSON, so the client is a dozen small
methods over one transport call, :meth:`ServeClient._send` — no
dependencies, usable from tests, examples and the ``repro submit`` CLI
alike. HTTP error responses raise :class:`ServeClientError` carrying
the decoded error body and status code; transport failures reach the
caller as ``OSError`` (refused, reset, timeout).

Every request rides a pool of kept-alive ``http.client`` connections
(a reused one the server has since closed is reopened once), so a
predict reader, a job poller or a peer borrowing one cache entry per
corner pays the TCP handshake once. An event stream gets a connection
of its own, closed when the stream ends. :meth:`ServeClient.close`
(or leaving a ``with`` block) closes the idle ones.

Transport failures are retried: connection failures get bounded
exponential backoff with jitter (a restarting shard or a mid-request
socket drop should not fail a whole submission), and a 503 answer
honors the server's ``Retry-After`` hint before backing off. Retries
are bounded (``retries`` attempts after the first) and off-able
(``retries=0``); non-transient HTTP errors never retry. Submissions
are content-keyed and coalesced server-side, so a retried POST is
idempotent — except ``force=True``, where a retry after an ambiguous
drop may execute twice (forced runs opt out of dedup by definition).
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from urllib.parse import urlsplit

from ..obs.trace import (TRACEPARENT_HEADER, current_context,
                         current_traceparent, mint_context,
                         trace_context)

__all__ = ["ServeClientError", "ServeClient", "WaitTimeout"]


class ServeClientError(RuntimeError):
    """The server answered with an HTTP error status."""

    def __init__(self, status: int, message: str, body=None,
                 retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.body = body                 # decoded JSON body, when any
        self.retry_after = retry_after   # server's Retry-After seconds

    @classmethod
    def from_response(cls, resp, data: bytes) -> "ServeClientError":
        """The error for an answered status >= 400: the decoded JSON
        body, its ``error`` message and the ``Retry-After`` seconds (an
        HTTP-date hint is ignored)."""
        try:
            retry_after = max(0.0, float(resp.getheader("Retry-After")))
        except (TypeError, ValueError):
            retry_after = None           # absent, or an HTTP date
        body, message = None, f"HTTP Error {resp.status}: {resp.reason}"
        try:
            body = json.loads(data)
            if isinstance(body, dict):
                message = body.get("error", message)
        except ValueError:               # not JSON, or not UTF-8
            pass
        return cls(resp.status, message, body=body,
                   retry_after=retry_after)

    def http_reply(self) -> tuple:
        """Forwarded verbatim by a proxy (the cluster router): status,
        body and the ``Retry-After`` hint."""
        body = self.body if isinstance(self.body, dict) \
            else {"error": self.message}
        hint = None if self.retry_after is None \
            else {"Retry-After": f"{self.retry_after:g}"}
        return self.status, body, hint


class WaitTimeout(TimeoutError):
    """A job outlived :meth:`ServeClient.wait` (not a socket timeout)."""


#: What a kept-alive connection raises when the server has closed it
#: since its last request: worth one more try on a fresh connection.
#: A timeout is not among them — a stalled server is not retried.
_STALE = (http.client.BadStatusLine, ConnectionResetError,
          BrokenPipeError)


class ServeClient:
    """Client for one serve endpoint (``http://host:port``).

    ``retries`` is the number of *re*-attempts after the first try;
    ``backoff_s`` the initial backoff, doubled per attempt up to
    ``backoff_max_s``, each sleep jittered to 50–100% of its nominal
    value so a fleet of clients never retries in lockstep.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0,
                 retries: int = 2, backoff_s: float = 0.2,
                 backoff_max_s: float = 5.0):
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme != "http":
            raise ValueError(f"ServeClient speaks http://, not "
                             f"{base_url!r}")
        self._host, self._port, self._prefix = \
            url.hostname, url.port, url.path
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._idle: list = []            # kept-alive connections
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle kept-alive connections (a later request
        reopens)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport ---------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        base = min(self.backoff_s * (2 ** attempt), self.backoff_max_s)
        return base * (0.5 + random.random() * 0.5)

    @staticmethod
    def _headers(extra: dict | None = None) -> dict:
        """Base headers for a hop, carrying this thread's trace
        context (:func:`repro.obs.trace.trace_context`) when one is
        active — escalations and peer borrows made deep inside a
        request propagate the caller's trace for free."""
        headers = dict(extra) if extra else {}
        traceparent = current_traceparent()
        if traceparent:
            headers[TRACEPARENT_HEADER] = traceparent
        return headers

    def _send(self, method: str, path: str, payload: dict | None = None,
              retry_503: bool = True, stream: bool = False):
        """One request under the retry policy: ``(response, body)``
        below status 400, else :class:`ServeClientError`; the last
        connection failure raises as ``OSError``. ``stream=True``
        returns a success unread, with its own connection in place of
        the body, for the caller to read and close."""
        body = (None if payload is None
                else json.dumps(payload).encode("utf-8"))
        headers = self._headers({"Content-Type": "application/json"})
        attempt = 0
        while True:
            try:
                resp, data = self._exchange(method, path, body, headers,
                                            stream)
            except OSError:
                if attempt >= self.retries:
                    raise
                time.sleep(self._backoff(attempt))
                attempt += 1
                continue
            if resp.status < 400:
                return resp, data
            error = ServeClientError.from_response(resp, data)
            if resp.status == 503 and retry_503 \
                    and attempt < self.retries:
                # The server said when to come back; otherwise use our
                # own (jittered) schedule.
                delay = (error.retry_after
                         if error.retry_after is not None
                         else self._backoff(attempt))
                time.sleep(min(delay, self.backoff_max_s))
                attempt += 1
                continue
            raise error

    def _exchange(self, method: str, path: str, body, headers: dict,
                  stream: bool = False, reuse: bool = True):
        """One attempt: the request on an idle kept-alive connection
        (or a new one), ``(response, body bytes)`` back. A reused
        connection the server has closed meanwhile is reopened once;
        any other failure (refused, reset, timeout) raises."""
        conn = None
        if reuse and not stream:
            with self._idle_lock:
                conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port,
                                              timeout=self.timeout_s)
        try:
            conn.request(method, self._prefix + path, body=body,
                         headers=headers)
            resp = conn.getresponse()
            if stream and resp.status < 400:
                return resp, conn        # a stream's own: never pooled
            data = resp.read()
        except _STALE:
            conn.close()
            if not reused:
                raise
            return self._exchange(method, path, body, headers,
                                  reuse=False)
        except BaseException:
            conn.close()
            raise
        if stream or resp.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return resp, data

    def _request(self, method: str, path: str,
                 payload: dict | None = None,
                 retry_503: bool = True) -> dict:
        return json.loads(self._send(method, path, payload,
                                     retry_503=retry_503)[1])

    # -- service introspection --------------------------------------------
    def health(self) -> dict:
        """The health document — even from an SLO-unhealthy service.

        ``/healthz`` answers 503 when health is ``unhealthy`` so load
        balancers can eject the shard without parsing anything; this
        client *does* want the body, so a 503 that carries a health
        document is returned, not raised (and never retried — the
        answer is the answer).
        """
        try:
            return self._request("GET", "/healthz", retry_503=False)
        except ServeClientError as exc:
            if exc.status == 503 and isinstance(exc.body, dict) \
                    and "health" in exc.body:
                return exc.body
            raise

    def workspace_stats(self) -> dict:
        return self._request("GET", "/v1/workspace/stats")

    def metrics(self, format: str = "text", window_s=None):
        """Scrape ``/v1/metrics``: Prometheus text (``format="text"``,
        returns ``str``) or the JSON document (``format="json"``).
        ``window_s`` returns the windowed report instead (deltas,
        rates and histogram quantiles over the last that-many
        seconds of recorded series — always JSON)."""
        if window_s is not None:
            return self._request("GET",
                                 f"/v1/metrics?window={window_s}")
        if format == "json":
            return self._request("GET", "/v1/metrics?format=json")
        return self._send("GET", "/v1/metrics")[1].decode("utf-8")

    def slo(self) -> dict:
        """Evaluate the service's SLO rules: per-rule state + rolled-up
        health."""
        return self._request("GET", "/v1/slo")

    def profile(self, job_id: str, format: str = "text"):
        """A job's execute-stage sampling profile: flamegraph
        collapsed-stack text (default) or the JSON document."""
        if format == "json":
            return self._request(
                "GET", f"/v1/runs/{job_id}/profile?format=json")
        return self._send("GET", f"/v1/runs/{job_id}/profile")[1] \
            .decode("utf-8")

    def cache_entry(self, digest: str, tier: str | None = None):
        """Fetch one engine disk-cache entry by content digest.

        Returns ``(tier, raw_pickle_bytes)`` or ``None`` when no shard
        tier holds the digest — the cluster peer-borrow primitive.
        Transport failures are retried like every other request; a 503
        (a draining peer) is not, and a non-404 error status raises
        :class:`ServeClientError`.
        """
        path = f"/v1/cache/{digest}"
        if tier is not None:
            path += f"?tier={tier}"
        try:
            resp, body = self._send("GET", path, retry_503=False)
        except ServeClientError as exc:
            if exc.status == 404:
                return None
            raise
        return resp.getheader("X-Repro-Tier") or tier or "", body

    # -- tier-0 inference --------------------------------------------------
    def predict(self, design: str, corner) -> dict:
        """One tier-0 prediction: ``corner`` is a ``(vdd, vth, cox)``
        triple (or :class:`~repro.engine.corners.Corner`). Returns the
        prediction document with its ``uncertainty`` block."""
        key = corner.key() if hasattr(corner, "key") else corner
        return self._request("POST", "/v1/predict",
                             {"design": design, "corner": list(key)})

    def predict_batch(self, design: str, corners) -> dict:
        """Batched tier-0 predictions — one stacked ensemble forward
        server-side for every corner not already cached."""
        keys = [c.key() if hasattr(c, "key") else c for c in corners]
        return self._request("POST", "/v1/predict/batch",
                             {"design": design,
                              "corners": [list(k) for k in keys]})

    # -- jobs --------------------------------------------------------------
    def submit(self, config, priority: int = 0,
               force: bool = False) -> dict:
        """Submit a config (StcoConfig, mapping, or path to JSON).

        When no trace context is active on this thread, one is minted
        for the hop — every submission starts a trace, so the shard's
        span tree always carries a trace id end-to-end.
        """
        from ..api.config import StcoConfig
        if not isinstance(config, (dict, StcoConfig)):
            config = StcoConfig.load(config)
        if isinstance(config, StcoConfig):
            config = config.to_dict()
        payload = {"config": config, "priority": priority,
                   "force": force}
        if current_context() is None:
            with trace_context(mint_context()):
                return self._request("POST", "/v1/runs", payload)
        return self._request("POST", "/v1/runs", payload)

    def jobs(self) -> list:
        return self._request("GET", "/v1/runs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/runs/{job_id}")

    def events(self, job_id: str, stream: bool = False,
               heartbeats: bool = False):
        """Progress snapshots for a job.

        ``stream=False`` (default): one request, returns the list
        recorded so far. ``stream=True``: returns a generator over the
        live SSE feed — each item is ``{"event": kind, "data": ...}``
        with ``data`` JSON-decoded; the stream ends after the ``end``
        event (terminal state). Heartbeat comments are filtered out
        unless ``heartbeats=True``, where they surface as
        ``{"event": "heartbeat", "data": None}`` items — proxies
        (the cluster router) re-emit them so *their* clients' idle
        timeouts keep getting fed.
        """
        if not stream:
            return self._request(
                "GET", f"/v1/runs/{job_id}/events")["events"]
        return self._event_stream(job_id, heartbeats=heartbeats)

    def _event_stream(self, job_id: str, heartbeats: bool = False):
        # Connect errors retry; a drop mid-stream does not (the caller
        # would see duplicated events).
        resp, conn = self._send(
            "GET", f"/v1/runs/{job_id}/events?stream=1", stream=True)
        # http.client decodes the chunked framing; we parse SSE lines.
        try:
            kind, data_lines = "message", []
            for raw in resp:
                line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
                if line.startswith(":"):
                    if heartbeats:       # comment frame: keep-alive
                        yield {"event": "heartbeat", "data": None}
                    continue
                if line.startswith("event:"):
                    kind = line[6:].strip()
                    continue
                if line.startswith("data:"):
                    data_lines.append(line[5:].strip())
                    continue
                if line == "" and data_lines:
                    payload = "\n".join(data_lines)
                    try:
                        payload = json.loads(payload)
                    except json.JSONDecodeError:
                        pass
                    yield {"event": kind, "data": payload}
                    if kind == "end":
                        return
                    kind, data_lines = "message", []
        finally:
            resp.close()
            conn.close()

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/runs/{job_id}/cancel")

    # -- conveniences ------------------------------------------------------
    def wait(self, job_id: str, timeout_s: float = 600.0,
             poll_s: float = 0.2) -> dict:
        """Poll until the job is terminal; returns the full job dict.

        Polling uses the summary view (no config/report/events bodies)
        so waiting on a long run stays O(1) per poll; the full record
        is fetched once, at the end.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            state = self._request(
                "GET", f"/v1/runs/{job_id}?view=summary")["state"]
            if state in ("succeeded", "failed", "cancelled"):
                return self.job(job_id)
            if time.monotonic() >= deadline:
                raise WaitTimeout(
                    f"job {job_id} still {state} after "
                    f"{timeout_s:.1f}s")
            time.sleep(poll_s)

    def run(self, config, priority: int = 0, force: bool = False,
            timeout_s: float = 600.0):
        """submit → wait → :class:`~repro.api.report.RunReport`.

        Raises ``RuntimeError`` unless the job succeeded.
        """
        from ..api.report import RunReport
        job = self.wait(self.submit(config, priority, force)["job_id"],
                        timeout_s)
        if job["state"] != "succeeded":
            raise RuntimeError(
                f"job {job['job_id']} {job['state']}: {job['error']}")
        return RunReport.from_dict(job["report"])
