"""Tier-0 predict latency bench: /v1/predict vs the engine paths.

Boots a real :class:`~repro.serve.pool.ServeService` +
:class:`~repro.serve.http.StcoServer`, warms the workspace with one
harvesting engine run, and measures end-to-end request latency through
:class:`~repro.serve.client.ServeClient`, writing ``BENCH_predict.json``:

* ``cold_engine`` — the first run ever: SPICE characterization, GNN
  training, search, surrogate harvest + fit (this is also what
  registers the ensemble that /v1/predict serves);
* ``warm_coalesced`` — N identical engine requests inside the already
  characterized corner grid: every expensive artifact is cached and
  the N requests coalesce into one execution (per-request latency =
  wall / N) — the best the *engine* path can ever do;
* ``predict_single`` — repeated ``POST /v1/predict`` calls cycling a
  small corner set (so the LRU participates, as in production);
* ``predict_batch`` — ``POST /v1/predict/batch`` requests, each with
  its own large corner grid (so the LRU answers none of them): a single
  stacked ensemble forward each. The recorded wall is the median
  request's, so one slow request cannot decide the batch ratio.

Acceptance (machine-independent ratios):

* predict p50 ≥ 100× better than a cold engine run;
* predict p50 ≥ 10× better than a warm coalesced engine request;
* batched per-corner latency ≥ 5× better than single-request predicts.
"""

import json
import time
from pathlib import Path

from repro.api import (ModelConfig, SearchConfig, StcoConfig,
                       SurrogateConfig, TechnologyConfig, Workspace)
from repro.serve import ServeClient, ServeService, StcoServer
from repro.utils import print_table

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_predict.json"

TECH = TechnologyConfig(
    cells=("INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1"),
    train_corners=((1.0, 0.0, 1.0), (0.9, 0.05, 1.1)),
    test_corners=((0.95, 0.02, 1.05),),
    slews=(8e-9,), loads=(15e-15,), n_bisect=3, max_steps=200)

DESIGN = "s298"
COALESCED_CLIENTS = 8
SINGLE_REQUESTS = 40
BATCH_CORNERS = 64
BATCH_REQUESTS = 5

# The corner grid of the harvesting run; warm requests and predict
# queries stay inside it so every engine artifact is a cache hit.
VDD, VTH, COX = (0.85, 0.95, 1.05, 1.15), (-0.05, 0.05), (0.9, 1.1)


def _harvest_config() -> StcoConfig:
    return StcoConfig(
        mode="search", benchmark=DESIGN, technology=TECH,
        model=ModelConfig(epochs=10),
        search=SearchConfig(optimizer="random", seed=0, iterations=16,
                            vdd_scales=VDD, vth_shifts=VTH,
                            cox_scales=COX),
        surrogate=SurrogateConfig(harvest=True, persist_model=True,
                                  members=3, hidden=8, epochs=40,
                                  min_observations=4))


def _warm_config() -> StcoConfig:
    # A different sub-space of the same grid: a genuine new document
    # (so it executes once) whose every evaluation is already cached.
    return StcoConfig(
        mode="search", benchmark=DESIGN, technology=TECH,
        model=ModelConfig(epochs=10),
        search=SearchConfig(optimizer="anneal", seed=1, iterations=12,
                            vdd_scales=(0.95, 1.05),
                            vth_shifts=VTH, cox_scales=COX))


def _percentile(sorted_s, q):
    return sorted_s[min(int(q * len(sorted_s)), len(sorted_s) - 1)]


def test_predict_latency(tmp_path):
    workspace = Workspace(tmp_path / "ws")
    service = ServeService(workspace, workers=2)
    runs = {}
    try:
        with StcoServer(service) as server:
            client = ServeClient(server.url)

            # 1) Cold engine: the full pipeline, which also registers
            #    the ensemble the predict edge serves.
            t0 = time.perf_counter()
            client.run(_harvest_config(), timeout_s=1800)
            runs["cold_engine"] = {"wall_s": time.perf_counter() - t0,
                                   "requests": 1}

            # 2) Warm coalesced: N identical submissions, one warm
            #    execution answering all of them.
            t0 = time.perf_counter()
            ids = [client.submit(_warm_config())["job_id"]
                   for _ in range(COALESCED_CLIENTS)]
            jobs = [client.wait(i, timeout_s=1800, poll_s=0.05)
                    for i in ids]
            wall = time.perf_counter() - t0
            leaders = sum(1 for j in jobs if not j["coalesced_with"])
            runs["warm_coalesced"] = {"wall_s": wall,
                                      "requests": COALESCED_CLIENTS,
                                      "executions": leaders}
            assert all(j["state"] == "succeeded" for j in jobs)
            assert leaders == 1          # one execution, N answers

            # 3) Single predicts: cycle 8 corners so the LRU serves
            #    repeats, as it would under production query skew.
            corners = [(v, t, c) for v in VDD[:2] for t in VTH
                       for c in COX]
            client.predict(DESIGN, corners[0])     # load the model
            lat = []
            for i in range(SINGLE_REQUESTS):
                t0 = time.perf_counter()
                doc = client.predict(DESIGN, corners[i % len(corners)])
                lat.append(time.perf_counter() - t0)
                assert doc["uncertainty"]["mean_std"] >= 0.0
            lat.sort()
            runs["predict_single"] = {
                "wall_s": sum(lat), "requests": SINGLE_REQUESTS,
                "p50_s": _percentile(lat, 0.50),
                "p90_s": _percentile(lat, 0.90)}

            # 4) Batched requests, each over its own dense corner grid
            #    (a distinct Vth per request, none of the single-predict
            #    corners' ±0.05, so every corner is fresh).
            walls = []
            for j in range(BATCH_REQUESTS):
                grid = [(0.85 + 0.005 * i, -0.04 + 0.01 * j, 0.9)
                        for i in range(BATCH_CORNERS)]
                t0 = time.perf_counter()
                batch = client.predict_batch(DESIGN, grid)
                walls.append(time.perf_counter() - t0)
                assert batch["count"] == BATCH_CORNERS
                assert not any(e["cached"] for e in batch["predictions"])
            walls.sort()
            runs["predict_batch"] = {"wall_s": walls[len(walls) // 2],
                                     "requests": BATCH_CORNERS,
                                     "batch_walls_s": walls}
    finally:
        service.close(timeout=30)

    def per_request(name):
        return runs[name]["wall_s"] / runs[name]["requests"]

    p50 = runs["predict_single"]["p50_s"]
    speedups = {
        "predict_vs_cold": per_request("cold_engine") / max(p50, 1e-9),
        "predict_vs_warm_coalesced":
            per_request("warm_coalesced") / max(p50, 1e-9),
        "batch_vs_single_per_item":
            per_request("predict_single")
            / max(per_request("predict_batch"), 1e-9),
    }
    artifact = {
        "design": DESIGN,
        "clients": COALESCED_CLIENTS,
        "runs": runs,
        "per_request_s": {name: per_request(name) for name in runs},
        "predict_p50_s": p50,
        "predict_p90_s": runs["predict_single"]["p90_s"],
        "speedups": speedups,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=1))

    print()
    print_table(
        ["Regime", "Requests", "Wall(s)", "Per-req(s)", "vs p50(X)"],
        [[name, str(data["requests"]), f"{data['wall_s']:.3f}",
          f"{per_request(name):.6f}",
          f"{per_request(name) / max(p50, 1e-9):.1f}"]
         for name, data in runs.items()],
        title="Predict latency (tier-0 edge vs engine)")

    # Hard guarantees (the acceptance criteria).
    assert speedups["predict_vs_cold"] >= 100.0
    assert speedups["predict_vs_warm_coalesced"] >= 10.0
    assert speedups["batch_vs_single_per_item"] >= 5.0
