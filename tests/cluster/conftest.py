"""Shared fixtures for the cluster-layer tests.

Router semantics are tested against *in-process* stub-backed shards
(two real :class:`~repro.serve.pool.ServeService` instances, each with
its own workspace and HTTP server) — fast, controllable, and exactly
the surface the router speaks. Note one in-process caveat: the obs
metrics registry is process-wide, so these shards share counters;
anything asserting per-shard metric *values* must use subprocess
shards (:class:`~repro.cluster.client.LocalCluster`) instead — here we
only assert the router's label plumbing.
"""

import pytest

from repro.api import Workspace
from repro.cluster import Router, RouterServer
from repro.serve import ServeService, StcoServer
from tests.serve.conftest import StubRunner, make_config

__all__ = ["StubRunner", "make_config"]


class ShardFixture:
    """One in-process shard: service + HTTP server + its stub runner."""

    def __init__(self, name, service, server, runner):
        self.name = name
        self.service = service
        self.server = server
        self.runner = runner

    @property
    def url(self):
        return self.server.url


@pytest.fixture
def make_shards(tmp_path):
    """Factory for N stub-backed shards on ephemeral ports."""
    created = []

    def factory(count: int = 2, runner_factory=StubRunner, **kwargs):
        shards = []
        for i in range(len(created), len(created) + count):
            name = f"shard-{i}"
            runner = runner_factory()
            service = ServeService(
                Workspace(tmp_path / name / "ws"),
                jobs_dir=tmp_path / name / "jobs",
                workers=2, runner=runner, shard_name=name, **kwargs)
            server = StcoServer(service).start()
            shard = ShardFixture(name, service, server, runner)
            created.append(shard)
            shards.append(shard)
        return shards

    yield factory
    for shard in created:
        shard.server.close()
        shard.service.close(timeout=5)


@pytest.fixture
def cluster(make_shards):
    """Two stub shards + a router over them (no router HTTP server)."""
    shards = make_shards(2)
    router = Router({s.name: s.url for s in shards}, timeout_s=10.0)
    yield shards, router
    router.close()


@pytest.fixture
def http_cluster(cluster):
    """The same two shards with the router behind real HTTP."""
    shards, router = cluster
    with RouterServer(router) as server:
        yield shards, router, server
