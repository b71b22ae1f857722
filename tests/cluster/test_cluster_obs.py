"""Cluster-wide observability through the router.

Distributed traces stitched into one tree (router hop + shard stages
under a single trace id, serve stages still summing to the job
ledger), federated series/SLO windows over the shard-labeled merged
exposition, and the SSE proxy's liveness contract (heartbeats flow,
follower replay survives the hop, a dying shard surfaces an ``error``
event instead of a silent hang).
"""

import threading

import pytest

from repro.cluster import Router
from repro.obs.slo import shard_series
from repro.serve import ServeClient
from tests.serve.conftest import make_config

from .test_router import config_for_shard


def _trace_event(events):
    return next(e for e in reversed(events)
                if isinstance(e, dict) and e.get("kind") == "trace")


def _walk(tree):
    yield tree
    for child in tree.get("children", []):
        yield from _walk(child)


class TestStitchedTrace:
    def test_router_and_shard_spans_share_one_trace(self, cluster):
        shards, router = cluster
        job = router.submit(make_config(seed=61))
        owner = next(s for s in shards if s.name == job["shard"])
        done = owner.service.wait(job["job_id"], timeout=10)

        tree = _trace_event(router.events(job["job_id"])["events"])[
            "trace"]
        assert tree["name"] == "router.submit"
        assert tree["attrs"]["shard"] == job["shard"]
        serve_job = next(c for c in tree["children"]
                         if c["name"] == "serve.job")
        # One trace id end to end, parented across the hop.
        assert tree["trace_id"] and len(tree["trace_id"]) == 32
        assert serve_job["trace_id"] == tree["trace_id"]
        assert serve_job["parent_span_id"] == tree["span_id"]
        # Stitching wrapped the shard tree without touching it: the
        # serve stages still sum exactly to the job ledger.
        stages = {c["name"]: c["wall_s"]
                  for c in serve_job["children"]}
        assert set(stages) == {"serve.queued", "serve.lock_wait",
                               "serve.execute"}
        assert sum(stages.values()) == pytest.approx(
            sum(done.ledger.values()), abs=1e-9)

    def test_client_minted_context_parents_the_router_hop(
            self, http_cluster):
        """A ServeClient submit mints the trace context, so the
        router's hop span is a *child* in the client's trace — the
        whole cluster path hangs off the caller."""
        shards, router, server = http_cluster
        with ServeClient(server.url, timeout_s=10) as client:
            job = client.submit(make_config(seed=62))
            client.wait(job["job_id"], timeout_s=30)
            tree = _trace_event(client.events(job["job_id"]))["trace"]
            assert tree["name"] == "router.submit"
            assert tree["parent_span_id"]     # adopted the client context
            ids = {node["trace_id"] for node in _walk(tree)
                   if node.get("trace_id")}
            assert len(ids) == 1              # one trace id, every span

    def test_shard_keeps_its_own_trace_when_submitted_directly(
            self, cluster):
        """Bypassing the router (direct shard submit) still yields a
        complete single-shard trace — the shard mints its own root."""
        shards, _ = cluster
        shard = shards[0]
        with ServeClient(shard.url, timeout_s=10) as client:
            job = client.submit(make_config(seed=63))
            client.wait(job["job_id"], timeout_s=30)
            tree = _trace_event(client.events(job["job_id"]))["trace"]
            assert tree["name"] == "serve.job"
            assert tree["trace_id"] and len(tree["trace_id"]) == 32

    def test_graft_attaches_twin_at_its_parent_span(self):
        tree = {"name": "router.submit", "span_id": "aa",
                "children": [
                    {"name": "serve.job", "span_id": "bb",
                     "children": [
                         {"name": "serve.execute", "span_id": "cc",
                          "children": []}]}]}
        twin = {"name": "serve.job", "span_id": "dd",
                "parent_span_id": "cc", "children": []}
        Router._graft(tree, twin)
        execute = tree["children"][0]["children"][0]
        assert twin in execute["children"]
        # No matching parent: fall back to the root, never drop it.
        orphan = {"name": "serve.job", "span_id": "ee",
                  "parent_span_id": "zz", "children": []}
        Router._graft(tree, orphan)
        assert orphan in tree["children"]


class TestFederatedWindows:
    def test_window_report_covers_shard_labeled_series(self, cluster):
        shards, router = cluster
        router.recorder.sample()
        job = router.submit(make_config(seed=65))
        owner = next(s for s in shards if s.name == job["shard"])
        owner.service.wait(job["job_id"], timeout=10)
        router.recorder.sample()
        report = router.metrics_window(600)
        assert report["role"] == "router"
        assert report["samples"] == 2
        assert set(report["shards"]) == {s.name for s in shards}
        succeeded = shard_series(
            'repro_serve_jobs_total{outcome="succeeded"}',
            job["shard"])
        assert report["deltas"][succeeded] >= 1

    def test_slo_separates_shard_and_cluster_scopes(self, cluster):
        shards, router = cluster
        report = router.slo()
        assert report["role"] == "router"
        # Every merged rule is a live shard's, tagged with its name.
        assert {r["shard"] for r in report["rules"]} \
            == {s.name for s in shards}
        names = {r["name"] for r in report["cluster"]["rules"]}
        assert "predict-availability" in names
        for shard in shards:
            assert f"shard-execute-latency[{shard.name}]" in names
            assert f"shard-predict-drift[{shard.name}]" in names
        assert report["cluster"]["health"] == "healthy"

    def test_cluster_drift_rule_degrades_the_router(self, cluster,
                                                    monkeypatch):
        """A sustained out-of-distribution stream on one shard flips
        the *cluster* health to degraded — and only to degraded."""
        shards, router = cluster
        key = shard_series("repro_predict_drift", shards[0].name)
        base = router._federated_sample

        def drifting():
            values, buckets = base()
            values[key] = 7.5
            return values, buckets
        monkeypatch.setattr(router, "_federated_sample", drifting)
        monkeypatch.setattr(router.recorder, "source", drifting)
        router.recorder.sample()
        router.recorder.sample()
        report = router.slo()
        assert report["cluster"]["health"] == "degraded"
        assert report["health"] == "degraded"
        rule = next(r for r in report["cluster"]["rules"]
                    if r["name"]
                    == f"shard-predict-drift[{shards[0].name}]")
        assert rule["state"] == "breach"
        assert rule["severity"] == "degraded"


class TestSseProxy:
    def test_heartbeats_flow_while_a_job_is_gated(self, http_cluster):
        shards, router, server = http_cluster
        for shard in shards:
            shard.server.httpd.sse_heartbeat_s = 0.2
        gated = shards[0].runner
        gated.gate = threading.Event()
        with ServeClient(server.url, timeout_s=10) as client:
            job = client.submit(config_for_shard(router, shards[0].name))
            got = []

            def consume():
                for item in client.events(job["job_id"], stream=True,
                                          heartbeats=True):
                    got.append(item)
                    if item["event"] == "heartbeat":
                        gated.gate.set()     # saw liveness: let it finish

            worker = threading.Thread(target=consume, daemon=True)
            worker.start()
            worker.join(30)
            try:
                assert not worker.is_alive()
                kinds = [g["event"] for g in got]
                assert "heartbeat" in kinds
                assert got[-1]["event"] == "end"
                assert got[-1]["data"]["state"] == "succeeded"
            finally:
                gated.gate.set()

    def test_follower_replays_its_leaders_feed(self, http_cluster):
        shards, router, server = http_cluster
        for shard in shards:
            shard.runner.gate = threading.Event()
        with ServeClient(server.url, timeout_s=10) as client:
            config = make_config(seed=67)
            try:
                leader = client.submit(config)
                follower = client.submit(config)    # coalesces globally
            finally:
                for shard in shards:
                    shard.runner.gate.set()
            assert follower["job_id"] != leader["job_id"]
            got = list(client.events(follower["job_id"], stream=True))
            kinds = [g["event"] for g in got]
            assert "trace" in kinds           # the leader's full feed
            assert got[-1]["event"] == "end"
            assert got[-1]["data"]["source"] == leader["job_id"]
            assert got[-1]["data"]["state"] == "succeeded"

    def test_mid_stream_shard_death_is_an_error_event(
            self, http_cluster, monkeypatch):
        shards, router, server = http_cluster

        def dying_stream(job_id):
            yield {"event": "progress", "data": {"round": 1}}
            raise ConnectionResetError("shard went away")
        monkeypatch.setattr(router, "event_stream", dying_stream)
        with ServeClient(server.url, timeout_s=10) as client:
            got = list(client.events("j-doomed", stream=True))
            assert [g["event"] for g in got] == ["progress", "error"]
            assert "ConnectionResetError" in got[-1]["data"]["error"]
            assert got[-1]["data"]["job_id"] == "j-doomed"

    def test_upstream_eof_without_end_is_an_error_event(
            self, http_cluster, monkeypatch):
        """A stream that just stops (shard restarted, socket reset
        swallowed upstream) must not look like a clean finish."""
        shards, router, server = http_cluster

        def truncated_stream(job_id):
            yield {"event": "progress", "data": {"round": 1}}
        monkeypatch.setattr(router, "event_stream", truncated_stream)
        with ServeClient(server.url, timeout_s=10) as client:
            got = list(client.events("j-cut", stream=True))
            assert [g["event"] for g in got] == ["progress", "error"]
            assert "terminal state" in got[-1]["data"]["error"]
