"""Tests of the benchmark's own arithmetic: percentiles and the
sample-count rule, span self time, coverage, and uncovered wrappers.

Run with ``python3 -m pytest perfbench``.
"""

import json
import types
from pathlib import Path

import numpy as np
import pytest

import run
import speed
from stats import block_tail, percentile, summarize, tail_level
from tracer import Tracer, union_length


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- percentiles and the sample-count rule -------------------------------------
@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 99.9, 100])
def test_percentile_matches_numpy(q):
    rng = np.random.default_rng(3)
    data = list(rng.lognormal(size=257))
    assert percentile(data, q) == pytest.approx(np.percentile(data, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n, level", [
    (1, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tail_level(n) == level


def test_summarize_states_sample_count_and_tail():
    out = summarize(range(1, 101))
    assert out["n"] == 100
    assert out["p50"] == pytest.approx(50.5)
    assert out["tail_level"] == 90.0
    assert out["tail"] == pytest.approx(np.percentile(range(1, 101), 90))
    assert summarize([4.0])["tail"] is None


# -- spans ---------------------------------------------------------------------
def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_children():
    clock = FakeClock()
    t = Tracer(clock=clock)
    root = t.open("outer")            # 0 .. 10
    clock.now = 1.0
    a = t.open("inner")               # 1 .. 4
    clock.now = 2.0
    leaf = t.open("leaf")             # 2 .. 3
    clock.now = 3.0
    t.close(leaf)
    clock.now = 4.0
    t.close(a)
    clock.now = 6.0
    b = t.open("inner")               # 6 .. 8
    clock.now = 8.0
    t.close(b)
    clock.now = 10.0
    t.close(root)
    own = t.self_times()
    assert own[root] == pytest.approx(10 - 3 - 2)
    assert own[a] == pytest.approx(3 - 1)
    assert own[leaf] == pytest.approx(1.0)
    assert own[b] == pytest.approx(2.0)
    assert sum(own) == pytest.approx(10.0)
    assert t.coverage(0.0, 20.0) == pytest.approx(0.5)


def test_layer_time_counts_recursion_once():
    clock = FakeClock()
    t = Tracer(clock=clock)
    t.calls["tell"] = 2
    outer = t.open("tell")
    clock.now = 1.0
    inner = t.open("tell")            # e.g. super().tell() inside tell()
    clock.now = 3.0
    t.close(inner)
    clock.now = 4.0
    t.close(outer)
    layer = t.layers()["tell"]
    assert layer["s"] == pytest.approx(4.0)
    assert layer["self_s"] == pytest.approx(4.0)


# -- wrappers ------------------------------------------------------------------
def _module():
    mod = types.SimpleNamespace()
    mod.used = lambda x: x + 1
    mod.unused = lambda x: x - 1
    return mod


def test_uncalled_wrapper_is_uncovered_not_zero():
    mod = _module()
    t = Tracer()
    t.wrap(mod, "used", "layer.used")
    t.wrap(mod, "unused", "layer.unused")
    assert mod.used(1) == 2
    assert t.uncovered() == ["layer.unused"]
    layers = t.layers()
    assert "layer.unused" not in layers
    assert layers["layer.used"]["calls"] == 1


def test_wrapper_counts_results_and_uninstalls():
    class Base:
        def tell(self):
            return "base"

    class Child(Base):
        pass

    mod = _module()
    t = Tracer()
    t.wrap(mod, "used", "layer.used",
           lambda a, k, r: t.count("layer.sum", r))
    t.wrap(Child, "tell", "layer.tell", timed=False)
    mod.used(1)
    mod.used(4)
    assert Child().tell() == "base"
    assert t.counts["layer.sum"] == 7
    assert t.calls["layer.tell"] == 1
    assert not [s for s in t.spans if s[0] == "layer.tell"]
    t.uninstall()
    assert mod.used(1) == 2 and t.calls["layer.used"] == 2
    assert "tell" not in vars(Child)


# -- the declared metrics --------------------------------------------------------
def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((Path(run.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    import workloads
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)


def test_read_percentile_follows_the_sample_count_rule():
    import workloads
    for name, count in workloads.READS.items():
        block = workloads.READ_BLOCK[name]
        assert workloads.READ_TAIL[name] == tail_level(block)
        assert count % block == 0
    assert tail_level(1000) == workloads.READ_TAIL["serve_mixed"]


def test_block_tail_is_the_median_of_block_tails():
    calm = list(range(1, 201))
    data = calm + [x + 1000 for x in calm] + calm
    assert block_tail(data, 200) == pytest.approx(np.percentile(calm, 95))
    # a trailing partial block is left out
    assert block_tail(data + [1e6] * 150, 200) \
        == pytest.approx(np.percentile(calm, 95))
    with pytest.raises(ValueError):
        block_tail(range(150), 200)


# -- calibration -----------------------------------------------------------------
def test_scaled_time_uses_the_slices_around_it():
    ref = speed.REFERENCE_S
    sp = speed.Speedometer()
    sp.times = [0.0, 1.0, 2.0]
    sp.slices = [ref, 2 * ref, 2 * ref]
    # (0, 1): slices at 0 and 1, median 1.5 ref; after 2: the last one
    assert sp.scaled(0.0, 1.0) == pytest.approx(1 / 1.5)
    assert sp.scaled(0.5, 2.5) == pytest.approx(0.5 / 1.5 + 1.0 / 2 + 0.25)
    assert sp.scaled(-1.0, 0.0) == pytest.approx(1.0)
    off = speed.Speedometer(enabled=False)
    off.mark()
    assert off.slices == [] and off.scaled(1.0, 3.5) == 2.5


def test_slices_are_excluded_from_the_clock():
    sp = speed.Speedometer()
    sp.mark(repeats=3)
    with sp.ticking():
        pass
    assert len(sp.slices) == 3
    assert sp.excluded >= 3 * min(sp.slices)
    assert sp.times == sorted(sp.times)
