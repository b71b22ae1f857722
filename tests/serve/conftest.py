"""Shared fixtures for the serve-layer tests.

Two tiers:

* **stub tier** — ``stub_runner`` / ``make_service`` build services
  whose runner is a controllable fake (counts executions, emits
  progress, can block or fail on command), so queueing, coalescing,
  cancellation and recovery semantics are tested in milliseconds;
* **real tier** — one session workspace warmed by a single real
  :func:`repro.api.run` (same CI-scale configuration as the api tests),
  backing the end-to-end coalescing/HTTP tests.
"""

import http.client
import json
import threading
import time
from dataclasses import replace as _dc_replace
from urllib.parse import urlsplit

import pytest

from repro.api import StcoConfig, Workspace
from repro.api.report import RunReport
from repro.serve import ServeService
from tests.api.conftest import MODEL, SEARCH, TECH


def post_with_content_length(url: str, value: str):
    """POST /v1/runs declaring ``Content-Length: value``; returns
    (status, decoded JSON body)."""
    conn = http.client.HTTPConnection(urlsplit(url).netloc, timeout=10)
    try:
        conn.putrequest("POST", "/v1/runs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", value)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def make_config(**search_overrides) -> StcoConfig:
    """A CI-scale search config; vary ``seed=`` etc. for distinct keys."""
    return StcoConfig(mode="search", benchmark="s298", technology=TECH,
                      model=MODEL,
                      search=_dc_replace(SEARCH, **search_overrides))


class StubRunner:
    """Deterministic runner double: records calls, emits ``rounds``
    progress events (pausing ``delay_s`` before each), optionally
    blocking on ``gate`` after the first event or raising ``error``."""

    def __init__(self, rounds: int = 3, delay_s: float = 0.0,
                 error: Exception | None = None):
        self.rounds = rounds
        self.delay_s = delay_s
        self.error = error
        self.calls = []
        self.started = threading.Event()
        self.gate = None                 # set to an Event to block runs
        self._lock = threading.Lock()

    def __call__(self, config, workspace, progress_callback=None):
        with self._lock:
            self.calls.append(config)
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(10), "stub runner gate never opened"
        if self.error is not None:
            raise self.error
        for i in range(self.rounds):
            if self.delay_s:
                time.sleep(self.delay_s)
            if progress_callback is not None:
                progress_callback({"round": i + 1, "told": i + 1,
                                   "best_reward": float(i)})
        return RunReport(mode=config["mode"],
                         best_reward=float(self.rounds))


@pytest.fixture
def stub_runner():
    return StubRunner()


@pytest.fixture
def make_service(tmp_path):
    """Factory for stub-backed services on a throwaway workspace."""
    created = []

    def factory(runner, workers: int = 2, **kwargs) -> ServeService:
        service = ServeService(Workspace(tmp_path / "ws"),
                               jobs_dir=tmp_path / "jobs",
                               workers=workers, runner=runner, **kwargs)
        created.append(service)
        return service

    yield factory
    for service in created:
        service.close(timeout=5)


# -- real tier -------------------------------------------------------------

@pytest.fixture(scope="session")
def serve_ws(tmp_path_factory):
    return Workspace(tmp_path_factory.mktemp("serve_workspace"))


@pytest.fixture(scope="session")
def warm_report(serve_ws):
    """Train/characterize once; everything after runs against warm
    artifacts. Returns the baseline report of ``make_config()``."""
    from repro.api import run
    return run(make_config(), serve_ws)
