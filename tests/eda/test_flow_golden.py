"""Exact flow outputs: golden values, the table lookup, implement/sign-off
reuse and read-only libraries."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.charlib.liberty import TimingTable
from repro.eda import (analyze_timing, benchmark_names, build_benchmark,
                       evaluate_system, implement)

from .flow_fixtures import flow_outputs, libraries, make_library

GOLDEN = json.loads((Path(__file__).parent / "golden_flow.json")
                    .read_text())


@pytest.fixture(scope="module")
def libs():
    return libraries()


@pytest.fixture(scope="module")
def implementations():
    return {name: implement(build_benchmark(name))
            for name in benchmark_names()}


class TestGoldenFlow:
    @pytest.mark.parametrize("lib_name", ["quickstart", "multi_grid"])
    @pytest.mark.parametrize("design", benchmark_names())
    def test_outputs_match_golden(self, libs, implementations, lib_name,
                                  design):
        """Captured from the single-step flow; every field exact."""
        lib = libs[lib_name]
        impl = implementations[design]
        result = evaluate_system(build_benchmark(design), lib,
                                 implementation=impl.reused())
        timing = analyze_timing(impl.netlist, lib, impl.routing)
        assert flow_outputs(result, timing) == GOLDEN[lib_name][design]

    def test_without_implementation_matches_golden(self, libs):
        lib = libs["multi_grid"]
        result = evaluate_system(build_benchmark("s1196"), lib)
        expected = dict(GOLDEN["multi_grid"]["s1196"])
        del expected["critical_path"]
        assert flow_outputs(result) == expected


class TestImplementation:
    def test_input_not_mutated(self):
        netlist = build_benchmark("s526")
        before = {n: (i.cell, dict(i.pins)) for n, i in
                  netlist.instances.items()}
        implement(netlist)
        assert {n: (i.cell, dict(i.pins)) for n, i in
                netlist.instances.items()} == before

    def test_stage_seconds_reported_once(self, libs):
        netlist = build_benchmark("s298")
        impl = implement(netlist)
        built = evaluate_system(netlist, libs["quickstart"],
                                implementation=impl)
        reused = evaluate_system(netlist, libs["quickstart"],
                                 implementation=impl.reused())
        assert list(built.stage_runtimes_s) == list(
            reused.stage_runtimes_s) == ["synthesis", "placement",
                                         "routing", "sta", "power",
                                         "drc_lvs"]
        for stage in ("synthesis", "placement", "routing", "drc_lvs"):
            assert built.stage_runtimes_s[stage] > 0.0
            assert reused.stage_runtimes_s[stage] == 0.0
        assert built.stage_runtimes_s["sta"] >= impl.stage_runtimes_s["sta"]
        assert flow_outputs(built) == flow_outputs(reused)

    def test_one_implementation_many_libraries(self, libs):
        """Signing one implementation off per library equals a fresh
        flow per library."""
        netlist = build_benchmark("s820")
        impl = implement(netlist)
        for lib in libs.values():
            shared = evaluate_system(netlist, lib,
                                     implementation=impl.reused())
            assert flow_outputs(shared) == flow_outputs(
                evaluate_system(netlist, lib))


class TestReadOnlyLibrary:
    def test_flow_does_not_add_cells(self):
        """Black-box estimates live in the sign-off, not the library."""
        lib = make_library()
        names = lib.names()
        assert len(names) == 6
        result = evaluate_system(build_benchmark("s1196"), lib)
        assert lib.names() == names
        expected = dict(GOLDEN["quickstart"]["s1196"])
        del expected["critical_path"]
        assert flow_outputs(result) == expected
        # A second flow on the same library is unchanged as well.
        again = evaluate_system(build_benchmark("s1196"), lib)
        assert flow_outputs(again) == flow_outputs(result)
        assert lib.names() == names


def _reference_lookup(table, slew, load):
    """``TimingTable.lookup`` as first written, on NumPy scalars."""
    s = float(np.clip(slew, table.slews[0], table.slews[-1]))
    ld = float(np.clip(load, table.loads[0], table.loads[-1]))
    i = int(np.clip(np.searchsorted(table.slews, s) - 1, 0,
                    max(len(table.slews) - 2, 0)))
    j = int(np.clip(np.searchsorted(table.loads, ld) - 1, 0,
                    max(len(table.loads) - 2, 0)))
    if len(table.slews) == 1 and len(table.loads) == 1:
        return float(table.values[0, 0])
    if len(table.slews) == 1:
        return float(np.interp(ld, table.loads, table.values[0]))
    if len(table.loads) == 1:
        return float(np.interp(s, table.slews, table.values[:, 0]))
    s0, s1 = table.slews[i], table.slews[i + 1]
    l0, l1 = table.loads[j], table.loads[j + 1]
    fs = (s - s0) / (s1 - s0)
    fl = (ld - l0) / (l1 - l0)
    v = table.values
    return float(v[i, j] * (1 - fs) * (1 - fl)
                 + v[i + 1, j] * fs * (1 - fl)
                 + v[i, j + 1] * (1 - fs) * fl
                 + v[i + 1, j + 1] * fs * fl)


def _axis(rng, n):
    return sorted(rng.sample(range(1, 400), n))


def _probes(rng, axis):
    """Points inside the window, on every grid point, and clamped on
    both sides of it."""
    lo, hi = axis[0], axis[-1]
    span = max(hi - lo, 1.0)
    points = list(axis)
    points += [rng.uniform(lo, hi) for _ in range(12)]
    points += [lo - rng.uniform(0.0, span), hi + rng.uniform(0.0, span),
               lo - 1e-3, hi + 1e-3]
    return points


class TestLookup:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 4),
                                       (7, 7), (2, 2)])
    def test_bit_identical_to_reference(self, shape):
        rng = random.Random(sum(shape) * 31 + shape[0])
        for trial in range(5):
            slews = [x * 1e-10 for x in _axis(rng, shape[0])]
            loads = [x * 1e-16 for x in _axis(rng, shape[1])]
            values = [[rng.uniform(1e-9, 5e-8) for _ in loads]
                      for _ in slews]
            table = TimingTable(slews, loads, values)
            for s in _probes(rng, slews):
                for ld in _probes(rng, loads):
                    got = table.lookup(s, ld)
                    want = _reference_lookup(table, s, ld)
                    assert type(got) is float
                    assert got == want, (shape, s, ld)
