"""/v1/predict over HTTP: shard endpoints, client, and router fan-out."""

import pytest

from repro.cluster.router import Router
from repro.serve import (ServeClient, ServeClientError, ServeService,
                         StcoServer)
from repro.serve.http import ROUTES as SHARD_ROUTES

from .conftest import DESIGN

CORNER = (0.85, -0.05, 0.9)
OTHER = (1.05, 0.05, 1.1)


def test_routes_declare_both_predict_endpoints():
    assert ("POST", "/v1/predict") in SHARD_ROUTES
    assert ("POST", "/v1/predict/batch") in SHARD_ROUTES


@pytest.fixture(scope="module")
def served(predict_ws):
    service = ServeService(predict_ws, workers=1)
    server = StcoServer(service).start()
    with ServeClient(server.url) as client:
        yield client, server
    server.close()
    service.close(timeout=10)


class TestShardEndpoints:
    def test_predict_round_trip(self, served):
        client, _ = served
        doc = client.predict(DESIGN, CORNER)
        assert doc["prediction"]["power_w"] > 0
        assert doc["uncertainty"]["mean_std"] >= 0.0
        assert doc["model"]["fingerprint"]

    def test_second_identical_query_is_cached(self, served):
        client, _ = served
        client.predict(DESIGN, OTHER)
        assert client.predict(DESIGN, OTHER)["cached"] is True

    def test_batch_round_trip(self, served):
        client, _ = served
        doc = client.predict_batch(DESIGN, [CORNER, OTHER])
        assert doc["count"] == 2
        assert all("uncertainty" in p for p in doc["predictions"])

    def test_predicts_share_one_kept_alive_connection(self, served):
        _, server = served
        accepted = []
        process = server.httpd.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            return process(request, client_address)

        server.httpd.process_request = counting
        try:
            with ServeClient(server.url) as client:
                for i in range(20):
                    client.predict(DESIGN, (0.8 + 0.01 * i, -0.05, 0.9))
        finally:
            del server.httpd.process_request
        assert len(accepted) == 1

    def test_malformed_corner_is_400(self, served):
        client, _ = served
        with pytest.raises(ServeClientError) as exc:
            client._request("POST", "/v1/predict",
                            {"design": DESIGN, "corner": [1.0]})
        assert exc.value.status == 400

    def test_unknown_design_is_400(self, served):
        client, _ = served
        with pytest.raises(ServeClientError) as exc:
            client.predict("no-such-design", CORNER)
        assert exc.value.status == 400

    def test_empty_workspace_is_409(self, tmp_path):
        from repro.api import Workspace
        service = ServeService(Workspace(tmp_path / "ws"), workers=1)
        server = StcoServer(service).start()
        try:
            with ServeClient(server.url) as client, \
                    pytest.raises(ServeClientError) as exc:
                client.predict(DESIGN, CORNER)
            assert exc.value.status == 409
        finally:
            server.close()
            service.close(timeout=10)

    def test_predict_metrics_exported(self, served):
        client, _ = served
        client.predict(DESIGN, CORNER)
        client.predict(DESIGN, CORNER)
        text = client.metrics()
        assert "repro_predict_requests_total" in text
        hit_lines = [l for l in text.splitlines()
                     if l.startswith("repro_predict_cache_total")
                     and 'event="hit"' in l]
        assert hit_lines and float(hit_lines[0].rsplit(" ", 1)[1]) >= 1


class TestRouterFanOut:
    """Predict is stateless: the router answers from any shard holding
    a model, skipping 409s. Stub clients keep this test instant."""

    class _Lacking:
        def predict(self, design, corner):
            raise ServeClientError(409, "no servable model")

        def predict_batch(self, design, corners):
            raise ServeClientError(409, "no servable model")

    class _Serving:
        def __init__(self):
            self.calls = 0

        def predict(self, design, corner):
            self.calls += 1
            return {"design": design, "corner": list(corner),
                    "cached": False}

        def predict_batch(self, design, corners):
            self.calls += 1
            return {"design": design, "count": len(corners),
                    "predictions": []}

    class _Down:
        def predict(self, design, corner):
            raise ConnectionRefusedError("down")

        def predict_batch(self, design, corners):
            raise ConnectionRefusedError("down")

    def _router(self, clients):
        return Router({name: f"http://stub/{name}" for name in clients},
                      client_factory=lambda url: clients[
                          url.rsplit("/", 1)[1]])

    def test_skips_shards_without_a_model(self):
        serving = self._Serving()
        router = self._router({"a": self._Lacking(), "b": serving,
                               "c": self._Lacking()})
        doc = router.predict(DESIGN, CORNER)
        assert doc["shard"] == "b"
        assert serving.calls == 1
        assert router.predict_batch(DESIGN, [CORNER])["shard"] == "b"

    def test_identical_queries_prefer_the_same_shard(self):
        """Ring-preference routing keeps one shard's LRU hot."""
        a, b = self._Serving(), self._Serving()
        router = self._router({"a": a, "b": b})
        for _ in range(4):
            router.predict(DESIGN, CORNER)
        assert sorted((a.calls, b.calls)) == [0, 4]

    def test_all_shards_lacking_is_409(self):
        router = self._router({"a": self._Lacking(),
                               "b": self._Lacking()})
        with pytest.raises(ServeClientError) as exc:
            router.predict(DESIGN, CORNER)
        assert exc.value.status == 409

    def test_down_shard_falls_through_to_serving_one(self):
        serving = self._Serving()
        router = self._router({"a": self._Down(), "b": serving,
                               "c": self._Down()})
        assert router.predict(DESIGN, CORNER)["shard"] == "b"

    def test_all_down_is_shard_unavailable(self):
        from repro.cluster import ShardUnavailable
        router = self._router({"a": self._Down(), "b": self._Down()})
        with pytest.raises(ShardUnavailable):
            router.predict(DESIGN, CORNER)

    def test_non_409_shard_error_is_forwarded(self):
        class Erroring:
            def predict(self, design, corner):
                raise ServeClientError(400, "bad corner")

        router = self._router({"a": Erroring()})
        with pytest.raises(ServeClientError) as exc:
            router.predict(DESIGN, CORNER)
        assert exc.value.status == 400


class TestRouterHttp:
    def test_predict_through_router_server(self, predict_ws, tmp_path):
        """End to end: a real shard behind a real router, one of the
        two shards modelless — /v1/predict answers through the router
        with the shard recorded."""
        from repro.api import Workspace
        from repro.cluster import RouterServer
        lacking = ServeService(Workspace(tmp_path / "empty"), workers=1)
        lacking_srv = StcoServer(lacking).start()
        serving = ServeService(predict_ws, workers=1)
        serving_srv = StcoServer(serving).start()
        router = Router({"a": lacking_srv.url, "b": serving_srv.url},
                        timeout_s=10.0)
        try:
            with RouterServer(router) as rs:
                with ServeClient(rs.url) as client:
                    doc = client.predict(DESIGN, CORNER)
                    assert doc["shard"] == "b"
                    assert doc["prediction"]["delay_s"] > 0
                    batch = client.predict_batch(DESIGN, [CORNER, OTHER])
                    assert batch["count"] == 2
                    with pytest.raises(ServeClientError) as exc:
                        client._request("POST", "/v1/predict",
                                        {"design": DESIGN})
                    assert exc.value.status == 400
        finally:
            lacking_srv.close()
            lacking.close(timeout=10)
            serving_srv.close()
            serving.close(timeout=10)
