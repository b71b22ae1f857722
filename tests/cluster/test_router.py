"""Router semantics over live in-process shards.

Two real stub-backed :class:`~repro.serve.pool.ServeService` shards
behind real HTTP; the router under test speaks to them exactly as it
would to subprocess shards. See ``conftest.py`` for the one in-process
caveat (shared metrics registry).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster import Router, ShardUnavailable
from repro.serve import ServeClient
from repro.serve.http import ROUTER, SHARD, TABLE, routes
from repro.serve.jobs import UnknownJobError
from tests.serve.conftest import make_config, post_with_content_length


def config_for_shard(router, shard_name, seeds=range(64)):
    """A config whose route key lands on ``shard_name``."""
    for seed in seeds:
        config = make_config(seed=seed)
        if router.route(config)[1] == shard_name:
            return config
    raise AssertionError(f"no seed routed to {shard_name}")


def http_get(url):
    """(status, headers, decoded-JSON-or-text) without raising."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            body = resp.read().decode("utf-8")
            status, headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8")
        status, headers = exc.code, dict(exc.headers)
    try:
        return status, headers, json.loads(body)
    except json.JSONDecodeError:
        return status, headers, body


class TestRouting:
    def test_submit_routes_to_the_owning_shard(self, cluster):
        shards, router = cluster
        by_name = {s.name: s for s in shards}
        for name in by_name:
            config = config_for_shard(router, name)
            job = router.submit(config)
            assert job["shard"] == name
            assert len(job["route_key"]) == 32
            router_key, owner = router.route(config)
            assert (job["route_key"], job["shard"]) \
                == (router_key, owner)
            # The job exists on the owner and nowhere else.
            owner_ids = {j["job_id"]
                         for j in by_name[name].service.store.jobs()}
            assert job["job_id"] in owner_ids
            for other in shards:
                if other.name != name:
                    assert job["job_id"] not in {
                        j["job_id"] for j in other.service.store.jobs()}

    def test_duplicate_submissions_coalesce_globally(self, cluster):
        shards, router = cluster
        config = make_config(seed=7)
        first = router.submit(config)
        second = router.submit(config)
        assert first["shard"] == second["shard"]
        owner = next(s for s in shards if s.name == first["shard"])
        owner.service.wait(first["job_id"], timeout=10)
        owner.service.wait(second["job_id"], timeout=10)
        # Identical configs met in one queue: exactly one execution.
        assert len(owner.runner.calls) == 1

    def test_job_reads_follow_the_location(self, cluster):
        shards, router = cluster
        job = router.submit(make_config(seed=11))
        owner = next(s for s in shards if s.name == job["shard"])
        owner.service.wait(job["job_id"], timeout=10)
        doc = router.job(job["job_id"])
        assert doc["shard"] == job["shard"]
        assert doc["state"] == "succeeded"
        summary = router.job(job["job_id"], summary=True)
        assert summary["shard"] == job["shard"]
        assert "report" not in summary
        events = router.events(job["job_id"])
        assert events["shard"] == job["shard"]
        assert events["events"]

    def test_cold_location_cache_falls_back_to_fan_out(self, cluster):
        shards, router = cluster
        job = router.submit(make_config(seed=13))
        owner = next(s for s in shards if s.name == job["shard"])
        owner.service.wait(job["job_id"], timeout=10)
        # A freshly built router (e.g. after restart) has no location
        # cache; the probe must still find the job.
        with Router({s.name: s.url for s in shards},
                    timeout_s=10.0) as fresh:
            assert fresh.locate(job["job_id"]) == job["shard"]
            assert fresh.job(job["job_id"])["state"] == "succeeded"

    def test_unknown_job_is_a_404_not_a_shrug(self, cluster):
        _, router = cluster
        with pytest.raises(UnknownJobError):
            router.job("no-such-job")

    def test_jobs_fan_out_and_merge(self, cluster):
        shards, router = cluster
        submitted = {router.submit(make_config(seed=s))["job_id"]
                     for s in (21, 22, 23, 24)}
        for shard in shards:
            for job in shard.service.store.jobs():
                shard.service.wait(job["job_id"], timeout=10)
        merged = router.jobs()
        assert submitted <= {j["job_id"] for j in merged["jobs"]}
        assert merged["unreachable"] == []
        names = {j["shard"] for j in merged["jobs"]}
        assert names <= {s.name for s in shards}

    def test_cancel_routes_to_the_owner(self, cluster):
        shards, router = cluster
        gated = shards[0].runner
        gated.gate = threading.Event()
        config = config_for_shard(router, shards[0].name)
        job = router.submit(config)
        try:
            doc = router.cancel(job["job_id"])
            assert doc["shard"] == shards[0].name
            assert doc["state"] in ("cancelled", "running",
                                    "submitted")
        finally:
            gated.gate.set()


class TestDegradedCluster:
    def test_dead_shard_taints_health_and_slo(self, cluster):
        shards, router = cluster
        shards[0].server.close()
        health = router.health()
        assert health["health"] in ("unhealthy", "unreachable")
        assert health["shards"][shards[0].name]["health"] \
            == "unreachable"
        assert health["accepting"]          # the survivor still accepts
        slo = router.slo()
        assert slo["health"] == "unhealthy"
        assert slo["shards"][shards[0].name]["health"] == "unreachable"
        # Rules from the live shard still arrive, tagged.
        assert {r["shard"] for r in slo["rules"]} == {shards[1].name}

    def test_submit_to_a_dead_shard_raises_shard_unavailable(
            self, cluster):
        shards, router = cluster
        config = config_for_shard(router, shards[0].name)
        shards[0].server.close()
        with pytest.raises(ShardUnavailable) as err:
            router.submit(config)
        assert err.value.shard == shards[0].name

    def test_locate_with_a_dead_shard_is_503_not_404(self, cluster):
        """With a shard unreachable, "job not found" is indistinguishable
        from "job on the dead shard" — the honest answer is 503."""
        shards, router = cluster
        shards[0].server.close()
        with pytest.raises(ShardUnavailable):
            router.locate("never-submitted")


class TestAggregation:
    def test_health_merges_job_counts(self, cluster):
        shards, router = cluster
        job = router.submit(make_config(seed=31))
        owner = next(s for s in shards if s.name == job["shard"])
        owner.service.wait(job["job_id"], timeout=10)
        health = router.health()
        assert health["role"] == "router"
        assert set(health["shards"]) == {s.name for s in shards}
        assert sum(health["jobs"].values()) >= 1
        assert health["ring"]["members"] == {s.name: 1.0
                                             for s in shards}

    def test_metrics_merge_under_a_shard_label(self, cluster):
        shards, router = cluster
        job = router.submit(make_config(seed=33))
        owner = next(s for s in shards if s.name == job["shard"])
        owner.service.wait(job["job_id"], timeout=10)
        doc = router.metrics_json()
        assert doc["unreachable"] == []
        assert "repro_serve_jobs_total" in doc["metrics"]
        for family in doc["metrics"].values():
            for series in family["series"]:
                assert series["labels"]["shard"] in {
                    s.name for s in shards}
        text = router.metrics_text()
        assert 'shard="shard-0"' in text
        assert "# TYPE repro_serve_jobs_total counter" in text

    def test_workspace_stats_fan_out(self, cluster):
        shards, router = cluster
        doc = router.workspace_stats()
        assert set(doc["shards"]) == {s.name for s in shards}

    def test_cluster_info_shape(self, cluster):
        shards, router = cluster
        info = router.cluster_info()
        assert info["role"] == "router"
        assert set(info["shards"]) == {s.name for s in shards}
        assert info["ring"]["points"] == 64 * len(shards)


class TestMembership:
    def test_push_membership_wires_peers_everywhere(self, cluster):
        shards, router = cluster
        result = router.push_membership()
        assert set(result) == {s.name for s in shards}
        for shard in shards:
            assert shard.service.peers is not None
            assert shard.service.peers.peer_names == [
                other.name for other in shards
                if other.name != shard.name]

    def test_add_shard_extends_ring_and_repushes(self, cluster,
                                                 make_shards):
        shards, router = cluster
        third = make_shards(1)[0]
        result = router.add_shard(third.name, third.url)
        assert result["ring"]["members"][third.name] == 1.0
        assert len(router.ring) == 3
        # Everyone — old and new — adopted the 3-shard membership.
        for shard in shards + [third]:
            assert sorted(shard.service.peers.ring.members) \
                == sorted([s.name for s in shards] + [third.name])


class TestRouterHttp:
    def test_submit_and_read_through_http(self, http_cluster):
        shards, router, server = http_cluster
        with ServeClient(server.url, timeout_s=10) as client:
            job = client.submit(make_config(seed=41))
            assert job["shard"] in {s.name for s in shards}
            done = client.wait(job["job_id"], timeout_s=30)
            assert done["state"] == "succeeded"
            assert done["shard"] == job["shard"]
            assert client.job(job["job_id"])["report"]["best_reward"] == 3.0

    def test_bare_config_submission(self, http_cluster):
        _, _, server = http_cluster
        body = json.dumps(make_config(seed=42).to_dict()).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/runs", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as resp:
            assert resp.status == 202
            doc = json.loads(resp.read().decode("utf-8"))
        assert "route_key" in doc and "shard" in doc

    def test_event_stream_passthrough(self, http_cluster):
        shards, router, server = http_cluster
        with ServeClient(server.url, timeout_s=10) as client:
            job = client.submit(make_config(seed=43))
            events = list(client.events(job["job_id"], stream=True))
            assert events[-1]["event"] == "end"
            assert events[-1]["data"]["state"] == "succeeded"
            assert "progress" in {e["event"] for e in events}

    def test_cluster_topology_endpoint(self, http_cluster):
        shards, _, server = http_cluster
        status, _, doc = http_get(f"{server.url}/v1/cluster")
        assert status == 200
        assert set(doc["shards"]) == {s.name for s in shards}
        assert doc["ring"]["points"] == 64 * len(shards)

    def test_metrics_text_and_json(self, http_cluster):
        _, _, server = http_cluster
        status, headers, text = http_get(f"{server.url}/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_" in text
        status, _, doc = http_get(
            f"{server.url}/v1/metrics?format=json")
        assert status == 200
        assert "metrics" in doc

    def test_unknown_job_is_http_404(self, http_cluster):
        _, _, server = http_cluster
        status, _, doc = http_get(f"{server.url}/v1/runs/nope")
        assert status == 404
        assert "unknown job" in doc["error"]

    def test_dead_shard_is_http_503_with_retry_after(self,
                                                     http_cluster):
        shards, router, server = http_cluster
        config = config_for_shard(router, shards[0].name)
        shards[0].server.close()
        body = json.dumps({"config": config.to_dict()}).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/runs", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 503
        assert err.value.headers["Retry-After"] == "2"
        doc = json.loads(err.value.read().decode("utf-8"))
        assert doc["shard"] == shards[0].name

    def test_unhealthy_router_healthz_is_503(self, http_cluster,
                                             monkeypatch):
        _, router, server = http_cluster
        monkeypatch.setattr(
            router, "health",
            lambda: {"health": "unhealthy", "role": "router"})
        status, headers, doc = http_get(f"{server.url}/healthz")
        assert status == 503
        assert headers["Retry-After"] == "5"
        assert doc["health"] == "unhealthy"     # body still present
        # The client treats the 503-with-document as an answer.
        with ServeClient(server.url) as client:
            assert client.health()["health"] == "unhealthy"

    def test_shard_error_forwarded_verbatim(self, http_cluster):
        _, _, server = http_cluster
        status, _, doc = http_get(
            f"{server.url}/v1/runs/nope/profile?format=json")
        assert status == 404

    def test_join_validation(self, http_cluster):
        _, _, server = http_cluster
        for payload in ({"url": "http://x"}, {"name": "s"},
                        {"name": "s", "url": "http://x",
                         "weight": -1}):
            body = json.dumps(payload).encode()
            request = urllib.request.Request(
                f"{server.url}/v1/cluster/join", data=body,
                method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            err.value.close()
            assert err.value.code == 400

    def test_join_extends_the_cluster(self, http_cluster, make_shards):
        shards, router, server = http_cluster
        third = make_shards(1)[0]
        body = json.dumps({"name": third.name,
                           "url": third.url}).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/cluster/join", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as resp:
            assert resp.status == 201
        assert third.name in router.ring
        assert third.service.peers is not None


class TestRouterHttpHardening:
    def test_bad_content_length_is_400(self, http_cluster):
        _, _, server = http_cluster
        status, body = post_with_content_length(server.url, "abc")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_label_cardinality_is_bounded_by_the_route_table(
            self, http_cluster):
        from repro.obs import get_registry
        _, _, server = http_cluster
        family = get_registry().counter(
            "repro_router_http_requests_total", labels=("method", "route"))
        before = len(family.children())
        paths = ([f"/v1/cache/{i:040x}" for i in range(50)]
                 + [f"/wp-admin/x{i}" for i in range(50)])
        for path in paths:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(server.url + path, timeout=10)
            exc.value.close()
            assert exc.value.code == 404
        assert len(family.children()) - before <= 2
        routes = {labels["route"] for labels, _ in family.children()}
        assert {"/v1/cache/{digest}", "unmatched"} <= routes


class TestApiParity:
    """The acceptance criterion: the router exposes the same surface as
    a shard; the one route table marks only the membership swap."""

    def test_route_table_diff_is_exactly_the_membership_swap(self):
        shard, cluster_routes = set(routes(SHARD)), set(routes(ROUTER))
        assert shard - cluster_routes == {
            ("POST", "/v1/cluster/peers")}
        assert cluster_routes - shard == {
            ("GET", "/v1/cluster"), ("POST", "/v1/cluster/join")}

    def test_every_client_facing_shard_route_exists_on_the_router(
            self):
        assert {r for r in routes(SHARD)
                if r != ("POST", "/v1/cluster/peers")} \
            <= set(routes(ROUTER))

    def test_tables_are_well_formed(self):
        for method, path, _, role in TABLE:
            assert method in ("GET", "POST")
            assert path.startswith("/")
            assert role in (None, SHARD, ROUTER)
