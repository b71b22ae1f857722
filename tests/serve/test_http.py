"""HTTP front end + ServeClient round trips on an ephemeral port.

One module-scoped server (stub runner, real sockets) covers the API
surface and error mapping; ``TestRealHttpRoundTrip`` boots a second
server over the warm session workspace and drives a genuine run
end-to-end through :class:`ServeClient`.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import Workspace
from repro.serve import (JobState, ServeClient, ServeClientError,
                         ServeService, StcoServer)

from repro.obs import get_registry
from tests.serve.conftest import (StubRunner, make_config,
                                  post_with_content_length)

CFG = make_config().to_dict()


@pytest.fixture(scope="module")
def stub_stack(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve_http")
    runner = StubRunner()
    service = ServeService(Workspace(tmp / "ws"),
                           jobs_dir=tmp / "jobs", workers=2,
                           runner=runner)
    with StcoServer(service) as server, \
            ServeClient(server.url) as client:
        yield server, client, runner
    service.close(timeout=5)


@pytest.fixture(scope="module")
def client(stub_stack):
    return stub_stack[1]


class TestEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert "jobs" in health and "coalescer" in health

    def test_submit_wait_report(self, client):
        submitted = client.submit(CFG)
        assert submitted["state"] == JobState.SUBMITTED
        assert submitted["content_key"]
        job = client.wait(submitted["job_id"], timeout_s=10)
        assert job["state"] == JobState.SUCCEEDED
        assert job["report"]["best_reward"] == 3.0
        assert job["config"]["mode"] == "search"

    def test_events_endpoint(self, client):
        job_id = client.submit(make_config(seed=31))["job_id"]
        client.wait(job_id, timeout_s=10)
        events = client.events(job_id)
        assert [e["round"] for e in events
                if e.get("kind") not in ("trace", "profile")] == [1, 2, 3]
        # The worker appended its span tree as the final event.
        assert events[-1]["kind"] == "trace"
        assert events[-1]["trace"]["name"] == "serve.job"

    def test_summary_view_is_light(self, client):
        job_id = client.submit(make_config(seed=36))["job_id"]
        client.wait(job_id, timeout_s=10)
        summary = client._request("GET",
                                  f"/v1/runs/{job_id}?view=summary")
        assert summary["state"] == JobState.SUCCEEDED
        assert "report" not in summary and "config" not in summary
        # Count, not the payload: 3 progress rounds + the profile and
        # trace events.
        assert summary["events"] == 5

    def test_jobs_listing_is_light(self, client):
        job_id = client.submit(make_config(seed=32))["job_id"]
        client.wait(job_id, timeout_s=10)
        jobs = client.jobs()
        assert any(j["job_id"] == job_id for j in jobs)
        assert all("report" not in j and "config" not in j
                   for j in jobs)

    def test_coalesced_submission_reports_its_leader(self, client):
        config = make_config(seed=33)
        first = client.submit(config)
        second = client.submit(config)     # same key: follower or dup
        job = client.wait(second["job_id"], timeout_s=10)
        assert job["coalesced_with"] == first["job_id"]
        assert job["report"] == client.wait(first["job_id"],
                                            timeout_s=10)["report"]

    def test_cancel_endpoint(self, stub_stack):
        server, client, runner = stub_stack
        runner.rounds = 50
        runner.delay_s = 0.02
        try:
            job_id = client.submit(make_config(seed=34))["job_id"]
            assert runner.started.wait(10)
            result = client.cancel(job_id)
            assert result["cancelled"]
            assert client.wait(job_id,
                               timeout_s=10)["state"] == \
                JobState.CANCELLED
        finally:
            runner.rounds = 3
            runner.delay_s = 0.0

    def test_workspace_stats(self, client):
        stats = client.workspace_stats()
        assert "workspace" in stats and "engines" in stats
        assert "artifacts" in stats["workspace"]

    def test_bare_config_document_submission(self, stub_stack):
        server, client, _ = stub_stack
        body = json.dumps(make_config(seed=35).to_dict()).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/runs", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as resp:
            assert resp.status == 202
            payload = json.loads(resp.read())
        assert payload["job_id"]


class TestErrorMapping:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeClientError) as exc:
            client.job("doesnotexist")
        assert exc.value.status == 404

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServeClientError) as exc:
            client._request("GET", "/v1/nope")
        assert exc.value.status == 404

    def test_invalid_config_is_400(self, client):
        with pytest.raises(ServeClientError) as exc:
            client.submit({"mode": "warp"})
        assert exc.value.status == 400
        assert "mode" in exc.value.message

    @pytest.mark.parametrize("backend", ["bogus", "thread", "process:0"])
    def test_invalid_engine_backend_is_400(self, client, backend):
        config = dict(CFG, engine=dict(CFG["engine"], backend=backend))
        with pytest.raises(ServeClientError) as exc:
            client.submit(config)
        assert exc.value.status == 400
        assert "engine.backend" in exc.value.message

    def test_malformed_json_is_400(self, stub_stack):
        server, _, _ = stub_stack
        request = urllib.request.Request(
            f"{server.url}/v1/runs", data=b"{oops", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10)
        assert exc.value.code == 400
        exc.value.close()

    def test_empty_body_is_400(self, client):
        with pytest.raises(ServeClientError) as exc:
            client._request("POST", "/v1/runs")
        assert exc.value.status == 400

    def test_bad_content_length_is_400(self, stub_stack):
        server, _, _ = stub_stack
        status, body = post_with_content_length(server.url, "abc")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_non_integer_priority_is_400(self, client):
        with pytest.raises(ServeClientError) as exc:
            client._request("POST", "/v1/runs",
                            {"config": CFG, "priority": "high"})
        assert exc.value.status == 400
        assert "priority" in exc.value.message


class TestRouteLabels:
    def test_label_cardinality_is_bounded_by_the_route_table(
            self, stub_stack):
        server, _, _ = stub_stack
        family = get_registry().counter(
            "repro_http_requests_total", labels=("method", "route"))
        before = len(family.children())
        paths = ([f"/v1/cache/{i:040x}" for i in range(50)]
                 + [f"/wp-admin/x{i}" for i in range(50)])
        for path in paths:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(server.url + path, timeout=10)
            assert exc.value.code == 404
            exc.value.close()
        assert len(family.children()) - before <= 2
        routes = {labels["route"] for labels, _ in family.children()}
        assert "/v1/cache/{digest}" in routes
        assert "unmatched" in routes


class TestSubmitCli:
    def test_repro_submit_wait_round_trip(self, stub_stack, tmp_path,
                                          capsys):
        from repro.api.cli import main
        server, _, _ = stub_stack
        config_path = tmp_path / "cfg.json"
        make_config(seed=41).save(config_path)
        out_path = tmp_path / "job.json"
        code = main(["submit", str(config_path), "--url", server.url,
                     "--wait", "--out", str(out_path), "--quiet"])
        assert code == 0
        record = json.loads(out_path.read_text())
        assert record["state"] == JobState.SUCCEEDED
        assert record["report"]["best_reward"] == 3.0

    def test_repro_submit_fire_and_forget_prints_job_id(
            self, stub_stack, tmp_path, capsys):
        from repro.api.cli import main
        server, client, _ = stub_stack
        config_path = tmp_path / "cfg.json"
        make_config(seed=42).save(config_path)
        assert main(["submit", str(config_path), "--url",
                     server.url]) == 0
        job_id = capsys.readouterr().out.strip().splitlines()[-1]
        assert client.wait(job_id, timeout_s=10)["state"] == \
            JobState.SUCCEEDED


class TestRealHttpRoundTrip:
    def test_submit_poll_report_matches_direct_run(self, serve_ws,
                                                   warm_report,
                                                   tmp_path):
        service = ServeService(serve_ws, jobs_dir=tmp_path / "jobs",
                               workers=1)
        with StcoServer(service) as server, \
                ServeClient(server.url) as client:
            report = client.run(make_config(), timeout_s=300)
            # Same config, same (warm) workspace as the session
            # baseline: the service answer equals the library answer.
            assert report.best_reward == warm_report.best_reward
            assert report.best_corner == warm_report.best_corner
            job_id = client.jobs()[-1]["job_id"]
            assert client.events(job_id) or \
                client.job(job_id)["coalesced_with"]
        service.close(timeout=10)
