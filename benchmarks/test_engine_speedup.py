"""Engine speedup bench: cached vs uncached, serial vs parallel.

Runs the same ≥16-corner sweep through the evaluation engine in several
configurations and writes the measured trajectory to ``BENCH_engine.json``
at the repo root:

* ``serial_uncached`` — the seed-equivalent baseline (per-cell GNN
  characterization, one corner at a time);
* ``warm_cache`` — the same sweep again on the warm engine (zero
  re-characterizations, zero flows);
* ``parallel_uncached`` — multiprocessing backend (its win over serial
  is asserted only on multi-core machines; the artifact records the
  numbers either way);
* ``disk_warm`` — a *fresh* engine pointed at a persisted cache
  directory (the cross-campaign reuse path).
"""

import json
import time
from pathlib import Path

import pytest

from repro.charlib import (CharConfig, CharTrainConfig, Corner,
                           GNNLibraryBuilder, build_char_dataset,
                           train_char_model)
from repro.eda import build_benchmark
from repro.engine import (EngineConfig, EvaluationEngine, PPAWeights,
                          available_workers)
from repro.stco import DesignSpace
from repro.utils import print_table

CELLS = ("INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "XOR2_X1", "DFF_X1")
CFG = CharConfig(slews=(8e-9,), loads=(15e-15,), n_bisect=3, max_steps=200)
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: 4 × 2 × 2 = 16-corner sweep (the acceptance floor).
SWEEP = DesignSpace(vdd_scales=(0.85, 0.95, 1.05, 1.15),
                    vth_shifts=(-0.05, 0.05), cox_scales=(0.9, 1.1))


@pytest.fixture(scope="module")
def builder():
    dataset = build_char_dataset(
        "ltps", cells=CELLS,
        train_corners=[Corner(1.0, 0.0, 1.0), Corner(0.9, 0.05, 1.1)],
        test_corners=[Corner(0.95, 0.02, 1.05)],
        config=CFG)
    model = train_char_model(dataset,
                             train_config=CharTrainConfig(epochs=15))
    return GNNLibraryBuilder(model, dataset, cells=CELLS, config=CFG)


def _sweep(engine, netlist, corners):
    t0 = time.perf_counter()
    records = engine.evaluate_many(netlist, corners, PPAWeights())
    wall = time.perf_counter() - t0
    return records, {
        "wall_s": wall,
        "characterizations": engine.characterizations,
        "flow_evaluations": engine.flow_evaluations,
        "char_s": engine.stats()["timing_s"].get("characterization", 0.0),
    }


def test_engine_speedup_trajectory(builder, tmp_path):
    netlist = build_benchmark("s298")
    corners = SWEEP.points()
    assert len(corners) >= 16
    cpus = available_workers()
    runs = {}

    # 1) Seed-equivalent serial baseline, cold.
    serial = EvaluationEngine(builder, EngineConfig())
    reference, runs["serial_uncached"] = _sweep(serial, netlist, corners)

    # 2) Warm in-memory cache: the sweep again on the serial engine.
    serial.reset_counters()
    wrecords, runs["warm_cache"] = _sweep(serial, netlist, corners)
    assert all(r.cached for r in wrecords)
    assert runs["warm_cache"]["characterizations"] == 0
    assert runs["warm_cache"]["flow_evaluations"] == 0
    assert [r.reward for r in wrecords] == [r.reward for r in reference]

    # 3) Parallel backend, cold.
    workers = max(2, min(4, cpus))
    with EvaluationEngine(builder, EngineConfig(
            backend=f"process:{workers}")) as parallel:
        precords, runs["parallel_uncached"] = _sweep(parallel, netlist,
                                                     corners)
    runs["parallel_uncached"]["workers"] = workers
    assert [r.reward for r in precords] == [r.reward for r in reference]

    # 4) Cross-run persistence: fresh engine on a warmed disk cache.
    config = EngineConfig(cache_dir=tmp_path / "engine-cache")
    _sweep(EvaluationEngine(builder, config), netlist, corners)
    fresh = EvaluationEngine(builder, config)
    drecords, runs["disk_warm"] = _sweep(fresh, netlist, corners)
    assert runs["disk_warm"]["characterizations"] == 0
    assert [r.reward for r in drecords] == [r.reward for r in reference]

    speedups = {
        "warm_cache_vs_serial": (runs["serial_uncached"]["wall_s"]
                                 / max(runs["warm_cache"]["wall_s"], 1e-9)),
        "parallel_vs_serial": (runs["serial_uncached"]["wall_s"]
                               / max(runs["parallel_uncached"]["wall_s"],
                                     1e-9)),
        "disk_warm_vs_serial": (runs["serial_uncached"]["wall_s"]
                                / max(runs["disk_warm"]["wall_s"], 1e-9)),
    }
    artifact = {"design": netlist.name, "corners": len(corners),
                "cells": list(CELLS), "cpus": cpus,
                "runs": runs, "speedups": speedups}
    ARTIFACT.write_text(json.dumps(artifact, indent=1))

    print()
    print_table(
        ["Configuration", "Wall(s)", "Chars", "Flows", "Speedup(X)"],
        [[name,
          f"{data['wall_s']:.3f}",
          str(data["characterizations"]),
          str(data["flow_evaluations"]),
          f"{runs['serial_uncached']['wall_s'] / max(data['wall_s'], 1e-9):.2f}"]
         for name, data in runs.items()],
        title=f"Engine sweep: {len(corners)} corners x {len(CELLS)} cells "
              f"on {netlist.name} ({cpus} CPU)")

    # Hard guarantees, machine-independent:
    assert speedups["warm_cache_vs_serial"] > 5.0
    assert speedups["disk_warm_vs_serial"] > 5.0
    # Parallel beating serial needs actual cores — and on small shared
    # runners pool fork + payload shipping can eat the win for this
    # deliberately tiny sweep, so the strict assertion needs headroom.
    # The artifact records the honest number on every machine.
    if cpus >= 4:
        assert speedups["parallel_vs_serial"] > 1.0
    elif cpus >= 2:
        assert speedups["parallel_vs_serial"] > 0.8
