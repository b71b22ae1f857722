"""Observability through the serve stack: gauges agree with the store,
the metrics endpoint exports both formats, SSE streams live events,
every finished job carries a span tree whose serve stages sum exactly
to its ledger, SLO rules drive ``/healthz``, and the per-job profiler
accounts for the execute stage."""

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.obs.slo import SloRule
from repro.serve import ServeClient, ServeService, StcoServer
from repro.serve.jobs import JobState

from .conftest import StubRunner, make_config


@pytest.fixture
def scoped_registry():
    """A fresh registry for services constructed inside the test, so
    assertions see only this test's traffic."""
    registry = MetricsRegistry()
    with use_registry(registry):
        yield registry


class TestGaugesMatchStore:
    def test_queue_and_state_gauges_track_counts(self, tmp_path,
                                                 scoped_registry,
                                                 make_service):
        runner = StubRunner(rounds=2)
        gate = runner.gate = threading.Event()
        service = make_service(runner, workers=1)
        running = service.submit(make_config(seed=81))
        assert runner.started.wait(10)
        queued = [service.submit(make_config(seed=82 + i))
                  for i in range(3)]
        snap = scoped_registry.snapshot()   # collectors sample now
        counts = service.store.counts()
        assert snap["repro_serve_queue_depth"] == counts["queued"] == 3
        assert snap['repro_serve_jobs{state="running"}'] \
            == counts["running"] == 1
        gate.set()
        for job in [running] + queued:
            service.wait(job.job_id, timeout=10)
        snap = scoped_registry.snapshot()
        counts = service.store.counts()
        assert snap["repro_serve_queue_depth"] == counts["queued"] == 0
        assert snap['repro_serve_jobs{state="succeeded"}'] \
            == counts["succeeded"] == 4
        assert snap['repro_serve_jobs_total{outcome="succeeded"}'] == 4

    def test_coalescer_counters_match_ground_truth(self, scoped_registry,
                                                   make_service):
        runner = StubRunner(rounds=1)
        gate = runner.gate = threading.Event()
        service = make_service(runner, workers=1)
        cfg = make_config(seed=90)
        leader = service.submit(cfg)
        assert runner.started.wait(10)
        follower = service.submit(cfg)      # rides the in-flight leader
        gate.set()
        service.wait(leader.job_id, timeout=10)
        service.wait(follower.job_id, timeout=10)
        duplicate = service.submit(cfg)     # answered from the report
        assert duplicate.state == JobState.SUCCEEDED
        snap = scoped_registry.snapshot()
        truth = service.coalescer.counters
        for role in ("leaders", "followers", "duplicates"):
            series = f'repro_serve_coalescer_total{{role="{role[:-1]}"}}'
            assert snap[series] == truth[role]
        assert truth == {"leaders": 1, "followers": 1, "duplicates": 1}

    def test_collector_removed_on_close(self, tmp_path, scoped_registry):
        from repro.api import Workspace
        service = ServeService(Workspace(tmp_path / "ws"),
                               jobs_dir=tmp_path / "jobs", workers=1,
                               runner=StubRunner(rounds=1))
        assert len(scoped_registry._collectors) == 1
        service.close(timeout=5)
        assert scoped_registry._collectors == []


class TestMetricsEndpoint:
    def test_both_formats_and_request_counter(self, scoped_registry,
                                              make_service):
        runner = StubRunner(rounds=2)
        service = make_service(runner, workers=1)
        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            job = client.submit(make_config(seed=70).to_dict())
            client.wait(job["job_id"], timeout_s=10)
            text = client.metrics()
            assert "# TYPE repro_serve_jobs_total counter" in text
            assert 'repro_serve_jobs_total{outcome="succeeded"} 1' \
                in text
            assert "repro_serve_queue_depth 0" in text
            doc = client.metrics("json")
            families = doc["metrics"]
            assert families["repro_serve_jobs_total"]["type"] == "counter"
            requests = families["repro_http_requests_total"]["series"]
            routes = {tuple(sorted(s["labels"].items())): s["value"]
                      for s in requests}
            # Job ids collapse to a template: bounded cardinality.
            assert all("{id}" in dict(k)["route"]
                       for k in routes
                       if "/runs/" in dict(k)["route"])

    def test_content_type_is_prometheus_text(self, make_service):
        service = make_service(StubRunner(), workers=1)
        with StcoServer(service) as server:
            with urllib.request.urlopen(
                    f"{server.url}/v1/metrics", timeout=10) as resp:
                assert resp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4")
                assert b"# TYPE" in resp.read()


class TestSseStreaming:
    def test_stream_delivers_live_rounds_then_trace_then_end(
            self, make_service):
        runner = StubRunner(rounds=3, delay_s=0.05)
        service = make_service(runner, workers=1)
        with StcoServer(service, sse_heartbeat_s=0.2) as server, \
                ServeClient(server.url) as client:
            job_id = client.submit(make_config(seed=71).to_dict())[
                "job_id"]
            got = list(client.events(job_id, stream=True))
        kinds = [g["event"] for g in got]
        assert kinds == ["progress", "progress", "progress", "profile",
                         "trace", "end"]
        assert [g["data"]["round"] for g in got[:3]] == [1, 2, 3]
        assert got[-1]["data"]["state"] == JobState.SUCCEEDED
        assert got[-1]["data"]["job_id"] == job_id

    def test_follower_streams_its_leaders_feed(self, make_service):
        runner = StubRunner(rounds=2, delay_s=0.05)
        gate = runner.gate = threading.Event()
        service = make_service(runner, workers=1)
        with StcoServer(service, sse_heartbeat_s=0.2) as server, \
                ServeClient(server.url) as client:
            cfg = make_config(seed=72).to_dict()
            leader = client.submit(cfg)["job_id"]
            assert runner.started.wait(10)
            follower = client.submit(cfg)["job_id"]
            assert follower != leader
            gate.set()
            got = list(client.events(follower, stream=True))
        end = got[-1]["data"]
        assert end["source"] == leader
        assert [g["data"]["round"] for g in got
                if g["event"] == "progress"] == [1, 2]

    def test_stream_of_finished_job_replays_and_ends(self,
                                                     make_service):
        service = make_service(StubRunner(rounds=2), workers=1)
        with StcoServer(service, sse_heartbeat_s=0.2) as server, \
                ServeClient(server.url) as client:
            job_id = client.submit(make_config(seed=73).to_dict())[
                "job_id"]
            client.wait(job_id, timeout_s=10)
            got = list(client.events(job_id, stream=True))
        assert [g["event"] for g in got] == \
            ["progress", "progress", "profile", "trace", "end"]

    def test_unknown_job_404s_before_headers(self, make_service):
        service = make_service(StubRunner(), workers=1)
        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            from repro.serve import ServeClientError
            with pytest.raises(ServeClientError) as err:
                list(client.events("nope", stream=True))
            assert err.value.status == 404


class TestJobTrace:
    def test_trace_stages_sum_to_ledger_total(self, make_service):
        runner = StubRunner(rounds=2, delay_s=0.02)
        service = make_service(runner, workers=1)
        job = service.submit(make_config(seed=74))
        done = service.wait(job.job_id, timeout=10)
        trace = done.events[-1]
        assert trace["kind"] == "trace"
        tree = trace["trace"]
        assert tree["name"] == "serve.job"
        stages = {c["name"]: c["wall_s"] for c in tree["children"]}
        assert set(stages) == {"serve.queued", "serve.lock_wait",
                               "serve.execute"}
        assert sum(stages.values()) == pytest.approx(
            sum(done.ledger.values()), abs=1e-9)
        assert tree["attrs"]["state"] == JobState.SUCCEEDED

    def test_cancelled_job_still_records_its_trace(self, make_service):
        runner = StubRunner(rounds=50, delay_s=0.02)
        service = make_service(runner, workers=1)
        job = service.submit(make_config(seed=75))
        assert runner.started.wait(10)
        assert service.cancel(job.job_id)
        done = service.wait(job.job_id, timeout=10)
        assert done.state == JobState.CANCELLED
        trace = done.events[-1]
        assert trace["kind"] == "trace"
        assert trace["trace"]["attrs"]["state"] == JobState.CANCELLED
        assert trace["trace"]["error"] == "JobCancelled"

    def test_trace_survives_store_reload(self, tmp_path, make_service):
        from repro.serve.jobs import JobStore
        service = make_service(StubRunner(rounds=1), workers=1)
        job = service.submit(make_config(seed=76))
        service.wait(job.job_id, timeout=10)
        service.close(timeout=5)
        fresh = JobStore(tmp_path / "jobs")
        events = fresh.get(job.job_id).events
        assert events[-1]["kind"] == "trace"
        assert json.dumps(events[-1]["trace"])   # JSON-clean


def _open_sse(server, job_id, timeout=10.0):
    """A raw, deliberately primitive SSE consumer socket."""
    sock = socket.create_connection((server.host, server.port),
                                    timeout=timeout)
    sock.sendall((f"GET /v1/runs/{job_id}/events?stream=1 HTTP/1.1\r\n"
                  f"Host: {server.host}\r\n"
                  "Accept: text/event-stream\r\n\r\n").encode("ascii"))
    return sock


class TestSseUnderSlowConsumer:
    def test_heartbeats_keep_flowing_while_the_job_is_quiet(
            self, make_service):
        runner = StubRunner(rounds=1)
        gate = runner.gate = threading.Event()
        service = make_service(runner, workers=1)
        with StcoServer(service, sse_heartbeat_s=0.05) as server:
            job = service.submit(make_config(seed=60))
            assert runner.started.wait(10)
            sock = _open_sse(server, job.job_id)
            try:
                buf = b""
                deadline = time.monotonic() + 5
                while buf.count(b": heartbeat") < 3 \
                        and time.monotonic() < deadline:
                    buf += sock.recv(4096)
                # The run emitted nothing, yet the stream stayed alive.
                assert buf.count(b": heartbeat") >= 3
                assert b"event: progress" not in buf
            finally:
                gate.set()
                sock.close()
        done = service.wait(job.job_id, timeout=10)
        assert done.state == JobState.SUCCEEDED

    def test_slow_then_disconnecting_consumer_does_not_wedge(
            self, make_service):
        runner = StubRunner(rounds=40, delay_s=0.02)
        service = make_service(runner, workers=1)
        with StcoServer(service, sse_heartbeat_s=0.05) as server:
            job = service.submit(make_config(seed=61))
            assert runner.started.wait(10)
            sock = _open_sse(server, job.job_id)
            for _ in range(3):           # drain a trickle, slowly…
                sock.recv(64)
                time.sleep(0.05)
            sock.close()                 # …then hang up mid-run
            # The worker never blocks on the consumer: the job still
            # finishes, and the server keeps answering.
            done = service.wait(job.job_id, timeout=30)
            assert done.state == JobState.SUCCEEDED
            with ServeClient(server.url) as client:
                assert client.health()["status"] == "ok"
                replay = list(client.events(job.job_id, stream=True))
            assert replay[-1]["event"] == "end"
            assert replay[-1]["data"]["state"] == JobState.SUCCEEDED


class TestSloThroughServe:
    def test_injected_latency_breaches_then_recovers(
            self, scoped_registry, make_service):
        """ok → breach → ok across windows, visible in /healthz."""
        rule = SloRule(name="execute-latency", kind="latency",
                       series='repro_span_seconds{span="serve.execute"}',
                       objective=0.05, window_s=2.0)
        runner = StubRunner(rounds=1)
        service = make_service(runner, workers=1,
                               series_interval_s=0, slo_rules=[rule])
        rec = service.recorder
        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            rec.sample()
            service.wait(service.submit(make_config(seed=62)).job_id,
                         timeout=10)
            rec.sample()
            healthy = client.health()
            assert healthy["health"] == "healthy"
            assert healthy["slo_breaches"] == []
            assert client.slo()["health"] == "healthy"

            runner.delay_s = 0.2         # inject latency > objective
            service.wait(service.submit(make_config(seed=63)).job_id,
                         timeout=10)
            rec.sample()
            breached = client.slo()
            assert breached["health"] == "unhealthy"
            states = {r["name"]: r for r in breached["rules"]}
            assert states["execute-latency"]["state"] == "breach"
            assert states["execute-latency"]["value"] > 0.05
            assert states["execute-latency"]["burn_rate"] > 1.0
            degraded = client.health()
            assert degraded["health"] == "unhealthy"
            assert degraded["slo_breaches"] == ["execute-latency"]
            assert degraded["status"] == "ok"   # liveness unchanged

            time.sleep(2.1)              # the burst ages out of window
            rec.sample()
            time.sleep(0.05)
            rec.sample()
            recovered = client.slo()
            assert recovered["health"] == "healthy"
            assert recovered["rules"][0]["state"] == "ok"
            assert client.health()["health"] == "healthy"

    def test_slo_endpoint_reports_series_vitals(self, scoped_registry,
                                                make_service):
        service = make_service(StubRunner(), workers=1,
                               series_interval_s=0)
        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            report = client.slo()
            assert {r["name"] for r in report["rules"]} == {
                "execute-latency", "job-error-rate",
                "cache-hit-ratio", "queue-depth", "predict-drift"}
            assert report["series"]["interval_s"] == 0

    def test_default_rules_stay_quiet_under_stub_traffic(
            self, scoped_registry, make_service):
        service = make_service(StubRunner(rounds=2), workers=1,
                               series_interval_s=0)
        service.recorder.sample()
        for seed in (64, 65):
            service.wait(service.submit(make_config(seed=seed)).job_id,
                         timeout=10)
        service.recorder.sample()
        report = service.slo_report()
        assert report["health"] == "healthy"
        assert all(r["state"] == "ok" for r in report["rules"])


class TestSeriesRecorderThroughServe:
    def test_recorder_persists_history_under_the_workspace(
            self, scoped_registry, tmp_path, make_service):
        service = make_service(StubRunner(rounds=1), workers=1,
                               series_interval_s=0)
        service.wait(service.submit(make_config(seed=66)).job_id,
                     timeout=10)
        service.recorder.sample()
        path = (service.workspace.root / "obs" / "series"
                / "samples.jsonl")
        assert path.exists()
        sample = json.loads(path.read_text().splitlines()[-1])
        assert sample["values"][
            'repro_serve_jobs_total{outcome="succeeded"}'] == 1

    def test_metrics_window_query_over_http(self, scoped_registry,
                                            make_service):
        service = make_service(StubRunner(rounds=2), workers=1,
                               series_interval_s=0)
        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            service.recorder.sample()
            client.wait(client.submit(
                make_config(seed=67).to_dict())["job_id"],
                timeout_s=10)
            service.recorder.sample()
            report = client.metrics(window_s=60)
            assert report["samples"] == 2
            assert report["deltas"][
                'repro_serve_jobs_total{outcome="succeeded"}'] == 1
            exec_q = report["quantiles"][
                'repro_span_seconds{span="serve.execute"}']
            assert exec_q["p95"] > 0
            # Malformed window is a 400, not a 500.
            from repro.serve import ServeClientError
            with pytest.raises(ServeClientError) as err:
                client._request("GET", "/v1/metrics?window=soon")
            assert err.value.status == 400

    def test_recorder_stops_with_the_service(self, scoped_registry,
                                             tmp_path):
        from repro.api import Workspace
        service = ServeService(Workspace(tmp_path / "ws"),
                               jobs_dir=tmp_path / "jobs", workers=1,
                               runner=StubRunner(rounds=1),
                               series_interval_s=0.01)
        assert service.recorder.stats()["running"]
        service.close(timeout=5)
        assert not service.recorder.stats()["running"]


class TestJobProfile:
    def test_profile_event_attributes_execute_wall_time(
            self, make_service):
        runner = StubRunner(rounds=4, delay_s=0.03)
        service = make_service(runner, workers=1,
                               profile_interval_s=0.005)
        job = service.submit(make_config(seed=77))
        done = service.wait(job.job_id, timeout=10)
        found = service.profile(job.job_id)
        profile = found["profile"]
        assert profile is not None
        assert profile["samples"] >= 5
        assert profile["attributed_s"] >= 0.8 * profile["duration_s"]
        # The profiled window is the runner call inside the execute
        # span, so its duration cannot exceed the execute ledger.
        assert profile["duration_s"] <= \
            done.ledger["execution_s"] + 0.02
        assert any("conftest" in stack for stack in profile["stacks"])

    def test_profile_http_text_and_json(self, make_service):
        service = make_service(StubRunner(rounds=2, delay_s=0.02),
                               workers=1, profile_interval_s=0.005)
        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            job_id = client.submit(make_config(seed=78).to_dict())[
                "job_id"]
            client.wait(job_id, timeout_s=10)
            text = client.profile(job_id)
            for line in text.strip().splitlines():
                frames, _, weight = line.rpartition(" ")
                assert frames and int(weight) > 0
            doc = client.profile(job_id, format="json")
            assert doc["job_id"] == job_id
            assert doc["profile"]["samples"] >= 1

    def test_profiling_off_means_404_text_null_json(self,
                                                    make_service):
        service = make_service(StubRunner(rounds=1), workers=1,
                               profile_interval_s=0)
        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            job_id = client.submit(make_config(seed=79).to_dict())[
                "job_id"]
            client.wait(job_id, timeout_s=10)
            from repro.serve import ServeClientError
            with pytest.raises(ServeClientError) as err:
                client.profile(job_id)
            assert err.value.status == 404
            assert client.profile(job_id, format="json")[
                "profile"] is None

    def test_follower_reports_its_leaders_profile(self, make_service):
        runner = StubRunner(rounds=2, delay_s=0.02)
        gate = runner.gate = threading.Event()
        service = make_service(runner, workers=1,
                               profile_interval_s=0.005)
        cfg = make_config(seed=80)
        leader = service.submit(cfg)
        assert runner.started.wait(10)
        follower = service.submit(cfg)
        gate.set()
        service.wait(leader.job_id, timeout=10)
        service.wait(follower.job_id, timeout=10)
        found = service.profile(follower.job_id)
        assert found["source"] == leader.job_id
        assert found["profile"] is not None


class TestRealTierProfile:
    def test_profile_covers_a_real_jobs_execute_stage(
            self, serve_ws, warm_report, tmp_path):
        """Acceptance: ≥ 80% of a real job's execute-stage wall time
        lands in collapsed stacks."""
        service = ServeService(serve_ws, jobs_dir=tmp_path / "jobs",
                               workers=1, profile_interval_s=0.002)
        try:
            config = make_config(seed=23, optimizer="qlearning",
                                 iterations=8)
            job = service.submit(config)
            done = service.wait(job.job_id, timeout=300)
            assert done.state == JobState.SUCCEEDED
            profile = service.profile(job.job_id)["profile"]
            assert profile is not None
            execute_s = done.ledger["execution_s"]
            assert profile["attributed_s"] >= 0.8 * execute_s
            # Stacks point into the real pipeline, not just plumbing.
            joined = "\n".join(profile["stacks"])
            assert "runner" in joined or "driver" in joined \
                or "engine" in joined
        finally:
            service.close(timeout=10)
