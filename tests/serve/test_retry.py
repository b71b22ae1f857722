"""ServeClient transport resilience: bounded retry with exponential
backoff + jitter on transient failures, Retry-After honored on 503 —
plus the server side of that contract (``/healthz`` → 503 when the SLO
health is ``unhealthy``) and the one kept-alive connection pool every
request rides.

Retry-policy tests script ``ServeClient._exchange``, the one
per-attempt transport call (no sockets, no sleeps): each test scripts a
failure sequence and asserts exactly how many attempts and which delays
the client produced.
"""

import http.client
import json
import socket
import sys
import threading
import urllib.error

import pytest

import repro.serve.client as client_module
import repro.serve.http as serve_http
from repro.serve import ServeClient, StcoServer
from repro.serve.client import ServeClientError
from tests.serve.conftest import StubRunner, make_config


class FakeResponse:
    def __init__(self, status, headers=None):
        self.status = status
        self.reason = http.client.responses.get(status, "")
        self.headers = headers or {}

    def getheader(self, name, default=None):
        return self.headers.get(name, default)


def ok(payload):
    return FakeResponse(200), json.dumps(payload).encode("utf-8")


def http_error(code, body=None, retry_after=None):
    headers = {} if retry_after is None \
        else {"Retry-After": str(retry_after)}
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    return FakeResponse(code, headers), data


@pytest.fixture
def transport(monkeypatch):
    """Scripted ``_exchange``: pops one outcome per attempt (an
    exception to raise or a ``(response, body)`` answer), recording
    attempts + sleeps."""
    state = {"attempts": 0, "sleeps": [], "script": []}

    def fake_exchange(self, method, path, body, headers, stream=False,
                      reuse=True):
        state["attempts"] += 1
        step = state["script"].pop(0)
        if isinstance(step, BaseException):
            raise step
        return step

    class FakeTime:
        @staticmethod
        def sleep(seconds):
            state["sleeps"].append(seconds)

        monotonic = staticmethod(lambda: 0.0)

    monkeypatch.setattr(ServeClient, "_exchange", fake_exchange)
    monkeypatch.setattr(client_module, "time", FakeTime)
    return state


def refused():
    return ConnectionRefusedError(111, "refused")


class TestTransientRetry:
    def test_transient_failures_retry_then_succeed(self, transport):
        transport["script"] = [refused(), refused(), ok({"ok": True})]
        client = ServeClient("http://test", retries=2, backoff_s=0.2)
        assert client._request("GET", "/x") == {"ok": True}
        assert transport["attempts"] == 3
        # Exponential with 50–100% jitter: 0.2·2⁰ then 0.2·2¹.
        first, second = transport["sleeps"]
        assert 0.1 <= first <= 0.2
        assert 0.2 <= second <= 0.4

    def test_retries_are_bounded(self, transport):
        transport["script"] = [refused()] * 10
        client = ServeClient("http://test", retries=1)
        with pytest.raises(ConnectionRefusedError):
            client._request("GET", "/x")
        assert transport["attempts"] == 2    # first try + 1 retry

    def test_retries_zero_means_one_attempt(self, transport):
        transport["script"] = [refused()] * 10
        client = ServeClient("http://test", retries=0)
        with pytest.raises(OSError):
            client._request("GET", "/x")
        assert transport["attempts"] == 1
        assert transport["sleeps"] == []

    def test_structural_errors_never_retry(self, transport):
        transport["script"] = [http.client.LineTooLong("header line")]
        client = ServeClient("http://test", retries=5)
        with pytest.raises(http.client.HTTPException):
            client._request("GET", "/x")
        assert transport["attempts"] == 1

    def test_non_http_url_is_rejected_up_front(self):
        with pytest.raises(ValueError, match="http://"):
            ServeClient("ftp://test")

    def test_bare_connection_reset_retries(self, transport):
        transport["script"] = [ConnectionResetError(104, "reset"),
                               ok({"ok": True})]
        client = ServeClient("http://test", retries=2)
        assert client._request("GET", "/x") == {"ok": True}
        assert transport["attempts"] == 2

    def test_backoff_is_capped(self, transport):
        transport["script"] = [refused()] * 8 + [ok({"ok": True})]
        client = ServeClient("http://test", retries=8, backoff_s=0.2,
                             backoff_max_s=1.0)
        client._request("GET", "/x")
        assert all(s <= 1.0 for s in transport["sleeps"])


class TestHttp503:
    def test_retry_after_hint_is_honored(self, transport):
        transport["script"] = [
            http_error(503, {"error": "draining"}, retry_after=0.01),
            http_error(503, {"error": "draining"}, retry_after=0.01),
            ok({"ok": True})]
        client = ServeClient("http://test", retries=2, backoff_s=9.0)
        assert client._request("GET", "/x") == {"ok": True}
        # The server's schedule, not the client's 9-second backoff.
        assert transport["sleeps"] == [0.01, 0.01]

    def test_503_without_hint_uses_backoff(self, transport):
        transport["script"] = [http_error(503), ok({"ok": True})]
        client = ServeClient("http://test", retries=1, backoff_s=0.2)
        client._request("GET", "/x")
        (sleep,) = transport["sleeps"]
        assert 0.1 <= sleep <= 0.2

    def test_503_retries_exhaust_into_the_error(self, transport):
        transport["script"] = [
            http_error(503, {"error": "still down"},
                       retry_after=0.01)] * 3
        client = ServeClient("http://test", retries=2)
        with pytest.raises(ServeClientError) as err:
            client._request("GET", "/x")
        assert err.value.status == 503
        assert err.value.retry_after == 0.01
        assert err.value.message == "still down"
        assert transport["attempts"] == 3

    def test_non_503_http_errors_never_retry(self, transport):
        transport["script"] = [
            http_error(400, {"error": "bad config"})] * 5
        client = ServeClient("http://test", retries=5)
        with pytest.raises(ServeClientError) as err:
            client._request("GET", "/x")
        assert transport["attempts"] == 1
        assert err.value.status == 400
        assert err.value.message == "bad config"
        assert err.value.body == {"error": "bad config"}

    def test_http_date_retry_after_is_ignored(self, transport):
        transport["script"] = [
            http_error(503, retry_after="Wed, 21 Oct 2026"),
            ok({"ok": True})]
        client = ServeClient("http://test", retries=1, backoff_s=0.2)
        client._request("GET", "/x")
        (sleep,) = transport["sleeps"]      # fell back to own backoff
        assert 0.1 <= sleep <= 0.2

    def test_health_returns_the_503_document(self, transport):
        doc = {"health": "unhealthy", "slo_breaches": ["latency"]}
        transport["script"] = [http_error(503, doc)]
        client = ServeClient("http://test", retries=5)
        assert client.health() == doc
        assert transport["attempts"] == 1    # the answer IS the answer

    def test_health_without_a_document_still_raises(self, transport):
        transport["script"] = [http_error(503)] * 1
        client = ServeClient("http://test", retries=0)
        with pytest.raises(ServeClientError):
            client.health()

    def test_cache_entry_on_503_makes_one_attempt(self, transport):
        """A draining peer costs one request on the cold path, not
        Retry-After × retries."""
        transport["script"] = [
            http_error(503, {"error": "draining"}, retry_after=5)] * 3
        client = ServeClient("http://test", retries=2)
        with pytest.raises(ServeClientError) as err:
            client.cache_entry("ab" * 32, "result")
        assert err.value.status == 503
        assert transport["attempts"] == 1
        assert transport["sleeps"] == []

    def test_cache_entry_404_is_none(self, transport):
        transport["script"] = [http_error(404, {"error": "no entry"})]
        client = ServeClient("http://test", retries=2)
        assert client.cache_entry("ab" * 32) is None
        assert transport["attempts"] == 1


class TestHealthzGate:
    """Server side: an SLO-unhealthy shard answers 503 so a load
    balancer can eject it — with the health document still attached."""

    def test_unhealthy_service_healthz_is_503(self, make_service):
        import urllib.request
        service = make_service(StubRunner(), workers=1)
        real = service.health()
        assert real["health"] == "healthy"
        service.health = lambda: dict(real, health="unhealthy")
        with StcoServer(service) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/healthz",
                                       timeout=10)
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] == "5"
            body = json.loads(err.value.read().decode("utf-8"))
            assert body["health"] == "unhealthy"
            # The retrying client still gets the document, instantly.
            with ServeClient(server.url, retries=3) as client:
                assert client.health()["health"] == "unhealthy"

    def test_healthy_service_healthz_is_200(self, make_service):
        import urllib.request
        service = make_service(StubRunner(), workers=1)
        with StcoServer(service) as server:
            with urllib.request.urlopen(f"{server.url}/healthz",
                                        timeout=10) as resp:
                assert resp.status == 200

    def test_degraded_is_not_ejected(self, make_service):
        """Only ``unhealthy`` trips the 503 — a degraded shard still
        serves (ejecting on the warning level would flap)."""
        import urllib.request
        service = make_service(StubRunner(), workers=1)
        real = service.health()
        service.health = lambda: dict(real, health="degraded")
        with StcoServer(service) as server:
            with urllib.request.urlopen(f"{server.url}/healthz",
                                        timeout=10) as resp:
                assert resp.status == 200
                body = json.loads(resp.read().decode("utf-8"))
                assert body["health"] == "degraded"

    def test_submission_survives_a_restarting_shard(self, make_service,
                                                    tmp_path):
        """End-to-end retry: the first submit hits a dead port, the
        retry (same client call) lands on the live server."""
        service = make_service(StubRunner(), workers=1)
        flaky_calls = {"n": 0}
        original = ServeClient._exchange

        def flaky(self, *args, **kwargs):
            flaky_calls["n"] += 1
            if flaky_calls["n"] == 1:
                raise ConnectionRefusedError(111, "refused")
            return original(self, *args, **kwargs)

        with StcoServer(service) as server, \
                ServeClient(server.url, retries=2,
                            backoff_s=0.01) as client:
            ServeClient._exchange = flaky
            try:
                job = client.submit(make_config(seed=61))
            finally:
                ServeClient._exchange = original
            assert flaky_calls["n"] == 2
            assert client.wait(job["job_id"], timeout_s=10)["state"] \
                == "succeeded"


def count_connections(server) -> list:
    """Record every connection ``server`` accepts (its client
    address)."""
    accepted = []
    process = server.httpd.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        return process(request, client_address)

    server.httpd.process_request = counting
    return accepted


class TestOneConnection:
    """Every non-streaming request rides one kept-alive pool."""

    def test_submit_job_and_polls_share_one_connection(self,
                                                       make_service):
        service = make_service(StubRunner(), workers=1)
        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            accepted = count_connections(server)
            job_id = client.submit(make_config(seed=62))["job_id"]
            client.job(job_id)
            assert client.wait(job_id, timeout_s=10)["state"] \
                == "succeeded"
            client.events(job_id)
            assert len(accepted) == 1

    def test_event_stream_connection_never_returns_to_pool(
            self, make_service):
        service = make_service(StubRunner(), workers=1)
        streams = []
        original = ServeClient._exchange

        def spy(self, *args, **kwargs):
            answer = original(self, *args, **kwargs)
            if isinstance(answer[1], http.client.HTTPConnection):
                streams.append(answer[1])
            return answer

        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            job_id = client.submit(make_config(seed=63))["job_id"]
            (pooled,) = client._idle
            ServeClient._exchange = spy
            try:
                events = list(client.events(job_id, stream=True))
            finally:
                ServeClient._exchange = original
            assert events[-1]["event"] == "end"
            (stream_conn,) = streams
            assert client._idle == [pooled]
            assert stream_conn is not pooled
            assert stream_conn.sock is None      # closed with the stream

    def test_dropped_kept_alive_connection_is_reopened(self,
                                                      make_service):
        """A pooled connection that died since its last request costs
        no retry: ``retries=0`` still succeeds on a fresh one."""
        service = make_service(StubRunner(), workers=1)
        with StcoServer(service) as server, \
                ServeClient(server.url, retries=0) as client:
            client.health()
            (pooled,) = client._idle
            pooled.sock.shutdown(socket.SHUT_RDWR)
            assert client.health()["status"] == "ok"
            assert pooled not in client._idle

    def test_threads_sharing_one_client_share_its_pool(self,
                                                       make_service):
        """The router's pattern: request threads share one client.
        Every request answers, and no connection is pooled twice."""
        service = make_service(StubRunner(), workers=1)
        errors = []

        def hammer(client):
            try:
                for _ in range(25):
                    assert client.health()["status"] == "ok"
            except BaseException as exc:     # re-raised via errors
                errors.append(exc)

        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=hammer, args=(client,))
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert 1 <= len(client._idle) <= 8
            assert len(set(map(id, client._idle))) == len(client._idle)

    def test_closed_server_answers_no_kept_alive_request(self,
                                                         make_service):
        """Closing the server ends its idle kept-alive connections, so
        a client sees a restarting shard as down, not as the old
        process's lingering handler."""
        service = make_service(StubRunner(), workers=1)
        server = StcoServer(service).start()
        with ServeClient(server.url, retries=0) as client:
            client.health()
            server.close()
            with pytest.raises(ConnectionRefusedError):
                client.health()

    def test_closed_server_ends_its_idle_handler_threads(self,
                                                         make_service):
        """Each idle pooled connection parks one handler thread in a
        read, holding its socket; closing the server ends them."""
        service = make_service(StubRunner(), workers=1)
        before = set(threading.enumerate())
        server = StcoServer(service).start()
        with ServeClient(server.url) as client:
            client.health()
            handlers = [t for t in set(threading.enumerate()) - before
                        if t.name.endswith("(process_request_thread)")]
            assert len(handlers) == 1
            server.close()
            for t in handlers:
                t.join(timeout=1.0)
            assert not any(t.is_alive() for t in handlers)


class TestIdleTimeout:
    """A kept-alive connection idle past the timeout is reaped; a
    request in flight and an event stream are not."""

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(serve_http, "_IDLE_TIMEOUT_S", 0.2)

    def test_idle_handler_ends_and_client_reconnects(self, make_service):
        service = make_service(StubRunner(), workers=1)
        before = set(threading.enumerate())
        with StcoServer(service) as server, \
                ServeClient(server.url, retries=0) as client:
            client.health()
            (pooled,) = client._idle
            handlers = [t for t in set(threading.enumerate()) - before
                        if t.name.endswith("(process_request_thread)")]
            assert len(handlers) == 1
            handlers[0].join(timeout=5.0)
            # The server is still up; only the idle handler is gone.
            assert not handlers[0].is_alive()
            assert not server.httpd.conns
            # The reaped pooled connection is reopened, retry-free.
            assert client.health()["status"] == "ok"
            assert pooled not in client._idle

    def test_stream_quieter_than_the_timeout_is_not_cut(self,
                                                        make_service):
        runner = StubRunner(rounds=1)
        gate = runner.gate = threading.Event()
        service = make_service(runner, workers=1)
        with StcoServer(service, sse_heartbeat_s=5.0) as server, \
                ServeClient(server.url) as client:
            job_id = client.submit(make_config(seed=64))["job_id"]
            assert runner.started.wait(10)
            events = client.events(job_id, stream=True)
            threading.Timer(0.8, gate.set).start()   # 4 idle timeouts
            got = list(events)
        assert not any(e["event"] == "heartbeat" for e in got)
        assert got[-1]["event"] == "end"
        assert got[-1]["data"]["state"] == "succeeded"
