"""Tests for netlists, benchmark generators, and the evaluation flow."""

import numpy as np
import pytest

from repro.charlib import CharConfig, SpiceLibraryBuilder
from repro.eda import (PAPER_SYSTEM_EVAL_S, PAPER_TABLE1, PaperCosts,
                       GateNetlist, analyze_power, analyze_timing,
                       benchmark_names, build_benchmark, evaluate_system,
                       place, route, run_drc, run_lvs, synthesize,
                       table1_row, table1_rows)
from repro.engine.hashing import _netlist_digest, netlist_fingerprint

FAST_CFG = CharConfig(slews=(8e-9,), loads=(15e-15,), n_bisect=3,
                      max_steps=200)
LIB_CELLS = ("INV_X1", "INV_X2", "BUF_X2", "NAND2_X1", "NOR2_X1",
             "AND2_X1", "XOR2_X1", "MUX2_X1", "HA_X1", "FA_X1", "DFF_X1")


@pytest.fixture(scope="module")
def library():
    return SpiceLibraryBuilder("ltps", cells=LIB_CELLS,
                               config=FAST_CFG).build()


@pytest.fixture(scope="module")
def s298():
    return build_benchmark("s298")


class TestGateNetlist:
    def test_simple_construction(self):
        nl = GateNetlist("t")
        nl.add_input("a")
        nl.add_input("b")
        nl.add("g1", "NAND2_X1", a="a", b="b", y="n1")
        nl.add("g2", "INV_X1", a="n1", y="out")
        nl.add_output("out")
        assert nl.num_gates == 2
        assert nl.drivers()["n1"] == "g1"

    def test_duplicate_instance_rejected(self):
        nl = GateNetlist("t")
        nl.add("g1", "INV_X1", a="a", y="y")
        with pytest.raises(ValueError):
            nl.add("g1", "INV_X1", a="y", y="z")

    def test_unconnected_pin_rejected(self):
        nl = GateNetlist("t")
        with pytest.raises(ValueError):
            nl.add("g1", "NAND2_X1", a="a", y="y")

    def test_multiple_drivers_detected(self):
        nl = GateNetlist("t")
        nl.add("g1", "INV_X1", a="a", y="n")
        nl.add("g2", "INV_X1", a="b", y="n")
        with pytest.raises(ValueError):
            nl.drivers()

    def test_topological_order_respects_deps(self):
        nl = GateNetlist("t")
        nl.add("g2", "INV_X1", a="n1", y="n2")   # added out of order
        nl.add("g1", "INV_X1", a="a", y="n1")
        order = nl.topological_order()
        assert order.index("g1") < order.index("g2")

    def test_ff_cuts_loops(self):
        nl = GateNetlist("t")
        nl.add("ff", "DFF_X1", d="n2", clk="clk", q="q")
        nl.add("g1", "INV_X1", a="q", y="n2")
        assert len(nl.topological_order()) == 2

    def test_copy_independent(self, s298):
        c = s298.copy()
        c.add("extra", "INV_X1", a="pi0", y="extra_out")
        assert c.num_gates == s298.num_gates + 1


class TestBenchmarks:
    def test_ten_benchmarks(self):
        assert len(benchmark_names()) == 10

    @pytest.mark.parametrize("name,gates,flops", [
        ("s298", 119, 14), ("s386", 159, 6), ("s526", 193, 21)])
    def test_iscas_sizes(self, name, gates, flops):
        nl = build_benchmark(name)
        assert nl.num_gates == gates
        assert nl.num_flops == flops

    def test_mac16_structure(self):
        nl = build_benchmark("mac16")
        stats = nl.stats()
        assert stats["by_cell"].get("FA_X1", 0) > 100
        assert stats["by_cell"].get("AND2_X1", 0) == 256
        assert nl.num_flops == 32

    def test_mac32_bigger_than_mac16(self):
        assert build_benchmark("mac32").num_gates > \
            2 * build_benchmark("mac16").num_gates

    def test_riscv_cores_ordering(self):
        """darkriscv must be the largest design (Table I runtime ladder)."""
        sizes = {n: build_benchmark(n).num_gates
                 for n in ("s298", "mac16", "picorv32", "darkriscv")}
        assert sizes["darkriscv"] > sizes["picorv32"] > sizes["mac16"] \
            > sizes["s298"]

    def test_deterministic(self):
        a, b = build_benchmark("s386"), build_benchmark("s386")
        assert a.stats() == b.stats()

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            build_benchmark("s9999")

    @pytest.mark.parametrize("name", ["s298", "s1196", "mac16"])
    def test_netlists_are_legal(self, name):
        nl = build_benchmark(name)
        nl.topological_order()            # no combinational loops
        assert run_lvs(nl).clean          # no floating inputs


class TestFlowStages:
    def test_synthesis_buffers_high_fanout(self, s298):
        nl = s298.copy()
        res = synthesize(nl, max_fanout=4)
        for net, sinks in res.netlist.loads().items():
            if net == nl.clock:
                continue   # clock distribution is a separate tree
            assert len(sinks) <= 4, net

    @pytest.mark.parametrize("name", ["s298", "mac16"])
    def test_synthesis_leaves_the_shared_netlist_alone(self, name):
        shared = build_benchmark(name)
        digest = netlist_fingerprint(shared)
        before = {n: (i.cell, dict(i.pins))
                  for n, i in shared.instances.items()}
        res = synthesize(shared, max_fanout=4)
        assert res.netlist is not shared
        assert res.buffers_added + res.cells_upsized > 0
        assert build_benchmark(name) is shared
        assert {n: (i.cell, i.pins)
                for n, i in shared.instances.items()} == before
        # The memo is still the digest the netlist has.
        assert netlist_fingerprint(shared) == digest \
            == _netlist_digest(shared)[:16]

    def test_placement_keeps_the_fingerprint(self, s298):
        nl = s298.copy()
        digest = _netlist_digest(nl)
        place(nl)
        assert _netlist_digest(nl) == digest

    def test_placement_assigns_positions(self, s298):
        nl = s298.copy()
        res = place(nl)
        xs = [i.x for i in nl.instances.values()]
        assert all(x > 0 for x in xs)
        assert res.die_area_um2 > 0
        assert 0 < res.utilization <= 1.0

    def test_routing_wirelength_positive(self, s298):
        nl = s298.copy()
        place(nl)
        res = route(nl)
        assert res.total_wirelength_um > 0
        assert all(c >= 0 for c in res.net_cap.values())

    def test_sta_produces_positive_period(self, s298, library):
        nl = s298.copy()
        place(nl)
        r = route(nl)
        timing = analyze_timing(nl, library, r)
        assert timing.min_period_s > 0
        assert timing.fmax_hz > 0
        assert len(timing.critical_path) >= 1

    def test_power_positive_and_scales_with_freq(self, s298, library):
        nl = s298.copy()
        p1 = analyze_power(nl, library, 1e6)
        p2 = analyze_power(nl, library, 2e6)
        assert p2.dynamic_w > p1.dynamic_w
        assert p1.leakage_w == pytest.approx(p2.leakage_w)

    def test_drc_clean_after_place(self, s298):
        nl = s298.copy()
        place(nl)
        assert run_drc(nl).clean


class TestFullFlow:
    def test_evaluate_system(self, s298, library):
        res = evaluate_system(s298, library)
        assert res.gates >= s298.num_gates     # buffering may add cells
        assert res.area_um2 > 0
        assert res.fmax_hz > 0
        assert res.total_power_w > 0
        assert res.drc_violations == 0
        assert res.lvs_violations == 0
        assert set(res.stage_runtimes_s) == {
            "synthesis", "placement", "routing", "sta", "power", "drc_lvs"}

    def test_input_not_mutated(self, s298, library):
        before = s298.num_gates
        evaluate_system(s298, library)
        assert s298.num_gates == before

    def test_bigger_design_more_area(self, library):
        small = evaluate_system(build_benchmark("s298"), library)
        big = evaluate_system(build_benchmark("s1196"), library)
        assert big.area_um2 > small.area_um2

    def test_ppa_dict(self, s298, library):
        res = evaluate_system(s298, library)
        assert set(res.ppa()) == {"power_w", "performance_hz", "area_um2"}


class TestCostModel:
    def test_reproduces_table1_exactly(self):
        """Every published row must be reproduced within rounding."""
        for row in table1_rows():
            name = row["benchmark"]
            trad, ours, speedup = PAPER_TABLE1[name]
            assert row["traditional_s"] == pytest.approx(trad, abs=1.0)
            assert row["ours_s"] == pytest.approx(ours, abs=1.0)
            assert row["speedup"] == pytest.approx(speedup, abs=0.15)

    def test_speedup_range_matches_paper(self):
        speedups = [r["speedup"] for r in table1_rows()]
        assert min(speedups) == pytest.approx(1.9, abs=0.1)
        assert max(speedups) == pytest.approx(14.1, abs=0.1)

    def test_tcad_and_charlib_over_100x(self):
        costs = PaperCosts()
        assert costs.tcad_speedup() > 100
        assert costs.charlib_speedup() > 100

    def test_speedup_decreases_with_system_time(self):
        """The ladder: bigger designs -> system eval dominates -> smaller
        speedup (the paper's central observation)."""
        rows = {r["benchmark"]: r for r in table1_rows()}
        assert rows["s386"]["speedup"] > rows["mac32"]["speedup"] \
            > rows["darkriscv"]["speedup"]

    def test_custom_system_eval(self):
        row = table1_row("s298", system_eval_s=10.0)
        assert row["traditional_s"] == pytest.approx(10 + 2042.07)
