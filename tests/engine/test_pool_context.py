"""The builder reaches each process-pool worker once per pool.

A ``process:N`` engine hands its builder to the backend as the map's
context: a ``fork`` worker inherits it, a ``spawn`` worker unpickles it
once, and no task payload carries it. A backend shared by engines with
different builders restarts its pool, so every corner is characterized
by its own engine's builder.
"""

import io
import pickle
from dataclasses import replace

import pytest

from repro.charlib import (CellCharGCNConfig, CharTrainConfig,
                           GNNLibraryBuilder, train_char_model)
from repro.engine import (EngineConfig, EvaluationEngine,
                          ProcessPoolBackend, executor)

from .conftest import CELLS, FAST_CFG


class CountingBuilder:
    """A real builder that counts how often the parent pickles it."""

    pickles = 0

    def __init__(self, inner):
        self.inner = inner
        self.last_runtime_s = 0.0

    def __reduce__(self):
        CountingBuilder.pickles += 1
        return CountingBuilder, (self.inner,)

    def fingerprint(self):
        return self.inner.fingerprint()

    def build(self, corner):
        library = self.inner.build(corner)
        self.last_runtime_s = self.inner.last_runtime_s
        return library


def _fields(records):
    return [(r.corner.key(), r.reward, r.result.area_um2,
             r.result.min_period_s, r.result.total_power_w)
            for r in records]


def _libraries(engine, corners):
    """Each library's pickle without the memo: bytes that depend on its
    values only, not on which equal strings share one object (a library
    from a worker shares fewer of them)."""
    out = []
    for library in engine.libraries(corners):
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer)
        pickler.fast = True
        pickler.dump(library)
        out.append(buffer.getvalue())
    return out


@pytest.fixture
def counted(builder):
    CountingBuilder.pickles = 0
    return CountingBuilder(builder)


@pytest.mark.parametrize("start_method, pickles", [("fork", 0),
                                                    ("spawn", 2)])
def test_builder_pickled_at_most_once_per_worker(
        counted, netlist, small_space, monkeypatch, start_method, pickles):
    """Two sweeps and a library-only batch on one ``process:2`` pool
    pickle the builder once per worker under spawn, never under fork,
    and give the serial engine's records and libraries exactly."""
    monkeypatch.setattr(executor, "_START_METHOD", start_method)
    points = small_space.points()
    sweeps, library_only = (points[:3], points[3:]), points[:2]
    serial = EvaluationEngine(counted, EngineConfig())
    reference = [serial.evaluate_many(netlist, sweep) for sweep in sweeps]
    with EvaluationEngine(counted,
                          EngineConfig(backend="process:2")) as engine:
        records = [engine.evaluate_many(netlist, sweep) for sweep in sweeps]
        fresh = [replace(c, vdd_scale=1.2) for c in library_only]
        libraries = _libraries(engine, fresh)
        assert engine.characterizations == len(points) + len(fresh)
        assert CountingBuilder.pickles == pickles
        assert _libraries(engine, points) == _libraries(serial, points)
    assert [_fields(r) for r in records] == [_fields(r) for r in reference]
    assert libraries == _libraries(serial, fresh)


@pytest.fixture(scope="module")
def other_builder(trained):
    """The conftest builder's twin, initialised from another seed."""
    _, dataset = trained
    model = train_char_model(
        dataset, CellCharGCNConfig(metrics=tuple(dataset.metrics_present()),
                                   seed=1),
        CharTrainConfig(epochs=10))
    return GNNLibraryBuilder(model, dataset, cells=CELLS, config=FAST_CFG)


def test_shared_pool_runs_each_engines_own_builder(builder, other_builder,
                                                   netlist, small_space):
    """One backend instance behind two engines: each engine's corners
    are characterized by its own builder, on every switch."""
    assert builder.fingerprint() != other_builder.fingerprint()
    points = small_space.points()
    backend = ProcessPoolBackend(workers=2)
    try:
        engines = [EvaluationEngine(b, EngineConfig(backend=backend))
                   for b in (builder, other_builder, builder)]
        runs = [engine.evaluate_many(netlist, points[i:i + 3])
                for i, engine in zip((0, 0, 3), engines)]
    finally:
        backend.shutdown()
    twins = [EvaluationEngine(b, EngineConfig())
             for b in (builder, other_builder, builder)]
    reference = [twin.evaluate_many(netlist, points[i:i + 3])
                 for i, twin in zip((0, 0, 3), twins)]
    assert [_fields(r) for r in runs] == [_fields(r) for r in reference]
    assert ([r.reward for r in reference[0]]
            != [r.reward for r in reference[1]])


def test_context_key_restarts_the_pool():
    """A map under another context key gets a new pool; the same key
    reuses the running one."""
    backend = ProcessPoolBackend(workers=2)
    try:
        assert backend.map(_scale, [1, 2, 3], context=10,
                           context_key="a") == [10, 20, 30]
        first = backend._pool
        assert backend.map(_scale, [4, 5], context=10,
                           context_key="a") == [40, 50]
        assert backend._pool is first
        assert backend.map(_scale, [4, 5], context=3,
                           context_key="b") == [12, 15]
        assert backend._pool is not first
    finally:
        backend.shutdown()
    assert backend._pool is None


def _scale(factor, x):
    return factor * x
