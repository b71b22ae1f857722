"""Batched characterization: golden rows, lockstep bisection and SPICE
work counters."""

import json
import math
from importlib import import_module
from pathlib import Path

import pytest

from repro.cells import get_cell
from repro.charlib import (CellCharacterizer, CharConfig, Corner,
                           technology_pair)
from repro.charlib.characterizer import bisect_lockstep
from repro.obs.metrics import get_registry

FAST_CFG = CharConfig(slews=(8e-9,), loads=(15e-15,), n_bisect=3,
                      max_steps=220)
GOLDEN = Path(__file__).with_name("golden_fast_rows.json")
# The module, not the ``repro.spice.transient`` function of the same name.
transient_mod = import_module("repro.spice.transient")


def row_doc(m) -> dict:
    return {"cell": m.cell, "metric": m.metric, "value": m.value,
            "technology": m.technology,
            "corner": [m.corner.vdd_scale, m.corner.vth_shift,
                       m.corner.cox_scale],
            "pin": m.pin, "output": m.output, "slew": m.slew,
            "load": m.load,
            "states": {p: list(v) for p, v in m.states.items()}}


class TestGoldenRows:
    """Rows recorded from the one-transient-at-a-time characterizer.
    Exact equality: any drift could flip a bisection's pass/fail."""

    @pytest.mark.parametrize("entry", json.loads(GOLDEN.read_text()),
                             ids=lambda e: e["cell"])
    def test_rows_exactly_equal(self, entry):
        rows = CellCharacterizer(get_cell(entry["cell"]),
                                 technology_pair("ltps"),
                                 Corner(*entry["corner"]),
                                 FAST_CFG).characterize()
        assert [row_doc(m) for m in rows] == entry["rows"]


def sequential_bisect(lo, hi, n_bisect, predicate):
    """The one-search-at-a-time bisection: check hi, then halve."""
    probes = [hi]
    if not predicate(hi):
        return math.nan, probes
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        probes.append(mid)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi, probes


PREDICATES = [
    lambda x: x >= 0.3,                          # monotone
    lambda x: math.sin(40.0 * x) > 0.0,          # non-monotone
    lambda x: int(x * 1e6) % 3 != 1,             # non-monotone, erratic
    lambda x: x > 5.0,                           # fails at hi
    lambda x: True,                              # always passes
    lambda x: x < 0.5 or x > 0.9,                # passes at hi, dips
]
BOUNDS = [(0.0, 1.0), (0.0, 1.0), (0.1, 0.9), (0.0, 1.0), (2.0, 3.0),
          (0.0, 1.0)]


class TestLockstepBisection:
    @pytest.mark.parametrize("n_bisect", [0, 1, 3, 7])
    def test_matches_sequential(self, n_bisect):
        rounds = []

        def evaluate(probes):
            rounds.append(probes)
            return [PREDICATES[i](x) for i, x in probes]

        found = bisect_lockstep(BOUNDS, n_bisect, evaluate)
        assert len(rounds) == max(n_bisect, 1)
        for i, ((lo, hi), pred) in enumerate(zip(BOUNDS, PREDICATES)):
            want, want_probes = sequential_bisect(lo, hi, n_bisect, pred)
            got_probes = [[x for j, x in probes if j == i]
                          for probes in rounds]
            if math.isnan(want):
                assert math.isnan(found[i])
                # Only the first round: the check at hi, plus the first
                # midpoint whose result is discarded.
                assert sorted(got_probes[0]) == sorted(
                    [hi] + ([0.5 * (lo + hi)] if n_bisect else []))
                assert not any(got_probes[1:])
            else:
                assert found[i] == want
                # Round 0 carries the check at hi and the first midpoint.
                flat = ([hi] + [x for x in got_probes[0] if x != hi]
                        + [x for r in got_probes[1:] for x in r])
                assert flat == want_probes

    def test_failed_check_leaves_after_first_round(self):
        calls = []

        def evaluate(probes):
            calls.append(len(probes))
            return [x <= 1.0 for _, x in probes]

        # Search 0 passes at hi (1.0); search 1 fails at hi (2.0).
        found = bisect_lockstep([(0.0, 1.0), (0.0, 2.0)], 4, evaluate)
        assert calls == [4, 1, 1, 1]
        assert found[0] == 0.0625 and math.isnan(found[1])

    def test_no_searches(self):
        assert bisect_lockstep([], 3, lambda probes: []) == []


class _Recorder:
    """A counter stand-in that records each increment."""

    def __init__(self, real):
        self.real, self.calls = real, []

    def inc(self, amount=1.0):
        self.calls.append(amount)
        self.real.inc(amount)


class TestSpiceCounters:
    NAMES = ("repro_spice_transients_total",
             "repro_spice_newton_iterations_total",
             "repro_spice_nonconverged_total")

    def test_deltas_over_one_characterize(self, monkeypatch):
        recorders = {}
        for attr in ("_M_TRANSIENTS", "_M_NEWTON", "_M_NONCONVERGED"):
            recorders[attr] = _Recorder(getattr(transient_mod, attr))
            monkeypatch.setattr(transient_mod, attr, recorders[attr])
        before = get_registry().snapshot()
        rows = CellCharacterizer(get_cell("DFF_X1"), technology_pair("ltps"),
                                 Corner(1.0, 0.0, 1.0),
                                 FAST_CFG).characterize()
        delta = get_registry().delta(before)
        transients, newton, nonconv = (delta.get(n, 0.0) for n in self.NAMES)
        # Round 0: 2 clk->q + 2 leakage + 3 checks + 5 first probes; then
        # 5 probes in each of the two remaining bisection rounds.
        assert transients == 12 + 5 * 2
        assert nonconv == 0
        # At least one iteration per step of every transient.
        assert newton >= transients * FAST_CFG.max_steps
        assert {m.metric for m in rows} >= {"min_setup", "min_hold",
                                            "min_pulse_width"}
        # One increment per batch, never per step or iteration.
        for rec in recorders.values():
            assert len(rec.calls) == FAST_CFG.n_bisect
