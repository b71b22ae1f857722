"""Batched characterization: golden rows, lockstep bisection, SPICE
work counters and cohorts (one cell at many corners, measured
together)."""

import hashlib
import json
import math
from collections import Counter
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import repro.charlib.characterizer as characterizer
from repro.cells import get_cell
from repro.charlib import (CellCharacterizer, CharConfig, Corner,
                           build_char_dataset, technology_pair)
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


def run_bisect(bounds, n_bisect, evaluate):
    """Drive the :func:`bisect_lockstep` generator with ``evaluate``."""
    search = bisect_lockstep(bounds, n_bisect)
    passed = None
    while True:
        try:
            probes = search.send(passed)
        except StopIteration as stop:
            return stop.value
        passed = evaluate(probes)


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

        found = run_bisect(BOUNDS, n_bisect, evaluate)
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
        found = run_bisect([(0.0, 1.0), (0.0, 2.0)], 4, evaluate)
        assert calls == [4, 1, 1, 1]
        assert found[0] == 0.0625 and math.isnan(found[1])

    def test_no_searches(self):
        assert run_bisect([], 3, lambda probes: []) == []


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


def record_batches(monkeypatch) -> list:
    """Every ``transient_batch`` call of the characterizer, as
    ``(cell, step counts, step sizes)``, one count and size per member."""
    calls = []
    real = characterizer.transient_batch

    def recording(circuits, t_stops, dts, *args, **kwargs):
        calls.append((circuits[0].title,
                      [int(np.ceil(t / d)) for t, d in zip(t_stops, dts)],
                      list(dts)))
        return real(circuits, t_stops, dts, *args, **kwargs)

    monkeypatch.setattr(characterizer, "transient_batch", recording)
    return calls


def lone_rows(cell, tech, corners, config):
    return [[row_doc(m) for m in CellCharacterizer(
        get_cell(cell), technology_pair(tech), corner, config).characterize()]
        for corner in corners]


COHORT_CORNERS = [Corner(1.0, 0.0, 1.0), Corner(0.85, 0.05, 1.1),
                  Corner(1.15, -0.05, 0.9)]


class TestCohort:
    """A cohort's rows are exactly each member's lone rows."""

    @pytest.mark.parametrize("tech", ["ltps", "cnt"])
    @pytest.mark.parametrize("cell", ["INV_X1", "XOR2_X1", "DFF_X1",
                                      "DLATCH_X1"])
    def test_rows_equal_lone_rows(self, tech, cell, monkeypatch):
        sequential = get_cell(cell).is_sequential
        # Two corners keep the sequential cells' lone runs short.
        corners = COHORT_CORNERS[:2] if sequential else COHORT_CORNERS
        want = lone_rows(cell, tech, corners, FAST_CFG)
        calls = record_batches(monkeypatch)
        members = CellCharacterizer.cohort(get_cell(cell),
                                           technology_pair(tech), corners,
                                           FAST_CFG)
        # Any member's first call measures the cohort; ask in reverse.
        got = {id(m): [row_doc(r) for r in m.characterize()]
               for m in reversed(members)}
        assert [got[id(m)] for m in members] == want
        assert len(calls) == (FAST_CFG.n_bisect if sequential else 1)
        # Every batch mixes the corners' step sizes, and the
        # combinational batch their step counts too.
        assert all(len(set(dts)) > 1 for _, _, dts in calls)
        if not sequential:
            assert len(set(calls[0][1])) > 1

    def test_members_ask_again(self, monkeypatch):
        members = CellCharacterizer.cohort(get_cell("INV_X1"),
                                           technology_pair("ltps"),
                                           COHORT_CORNERS[:2], FAST_CFG)
        calls = record_batches(monkeypatch)
        first = [row_doc(r) for r in members[0].characterize()]
        # A member that already took its rows measures again, alone; the
        # other member's rows are still waiting.
        assert [row_doc(r) for r in members[0].characterize()] == first
        second = [row_doc(r) for r in members[1].characterize()]
        assert [len(sizes) for _, sizes, _ in calls] == [4, 2]
        assert second == lone_rows("INV_X1", "ltps", COHORT_CORNERS[1:2],
                                   FAST_CFG)[0]


DATASET_CELLS = ("INV_X1", "DFF_X1")
TRAIN = [Corner(1.0, 0.0, 1.0), Corner(0.9, 0.05, 1.1)]
TEST = [Corner(1.05, -0.02, 0.95)]
COUNTERS = ("repro_spice_transients_total",
            "repro_spice_newton_iterations_total")


@pytest.fixture(scope="module")
def measured():
    """One dataset build with its SPICE counters and batches, beside the
    same (cell, corner) pairs characterized one at a time."""
    registry = get_registry()
    with pytest.MonkeyPatch.context() as mp:
        calls = record_batches(mp)
        before = registry.snapshot()
        dataset = build_char_dataset("ltps", cells=DATASET_CELLS,
                                     train_corners=TRAIN, test_corners=TEST,
                                     config=FAST_CFG, cache_dir=None)
        cohort = registry.delta(before)
    before = registry.snapshot()
    lone = {split: [row for corner in corners for cell in DATASET_CELLS
                    for row in lone_rows(cell, "ltps", [corner],
                                         FAST_CFG)[0]]
            for split, corners in (("train", TRAIN), ("test", TEST))}
    pairs = registry.delta(before)
    return dataset, calls, cohort, lone, pairs


class TestDatasetCohorts:
    def test_rows_in_split_corner_cell_order(self, measured):
        dataset, _, _, lone, _ = measured
        assert {split: [row_doc(m) for m in rows]
                for split, rows in dataset.rows.items()} == lone

    def test_spice_counters_equal_per_pair_sums(self, measured):
        _, _, cohort, _, pairs = measured
        for name in COUNTERS:
            assert cohort.get(name, 0.0) == pairs.get(name, 0.0) > 0

    def test_one_batch_per_round_whatever_the_corners(self, measured,
                                                      monkeypatch):
        _, calls, _, _, _ = measured
        rounds = {"INV_X1": 1, "DFF_X1": FAST_CFG.n_bisect}
        assert Counter(cell for cell, _, _ in calls) == rounds
        one = record_batches(monkeypatch)
        build_char_dataset("ltps", cells=DATASET_CELLS,
                           train_corners=TRAIN[:1], test_corners=[],
                           config=FAST_CFG, cache_dir=None)
        assert Counter(cell for cell, _, _ in one) == rounds
        # Round 0 of the three-corner build holds every corner's runs.
        sizes = {cell: len(steps) for cell, steps, _ in one[:2]}
        assert [len(steps) for _, steps, _ in calls[:2]] == [
            3 * sizes["INV_X1"], 3 * sizes["DFF_X1"]]


#: The quickstart document's technology (``examples/quickstart.json``).
QUICKSTART_CELLS = ("INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "XOR2_X1",
                    "DFF_X1")
QUICKSTART_TRAIN = [Corner(1.0, 0.0, 1.0), Corner(0.85, 0.05, 1.1),
                    Corner(1.15, -0.05, 0.9)]
QUICKSTART_TEST = [Corner(0.95, 0.02, 1.05)]
#: SHA-256 of the quickstart dataset's row documents as measured one
#: (cell, corner) at a time; cohorts must reproduce it bit for bit.
QUICKSTART_DIGEST = ("33c0a2e6bbc566b79f905d5523b37c50"
                     "ed9a303f5153b1db413c0a0c46e576cb")


def test_quickstart_dataset_digest(monkeypatch):
    calls = record_batches(monkeypatch)
    dataset = build_char_dataset(
        "ltps", cells=QUICKSTART_CELLS, train_corners=QUICKSTART_TRAIN,
        test_corners=QUICKSTART_TEST, config=FAST_CFG, cache_dir=None)
    docs = {split: [row_doc(m) for m in rows]
            for split, rows in dataset.rows.items()}
    digest = hashlib.sha256(
        json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert {s: len(r) for s, r in docs.items()} == {"train": 273,
                                                    "test": 91}
    assert digest == QUICKSTART_DIGEST
    # Five combinational cells in one round each, the DFF in n_bisect.
    assert len(calls) == 5 + FAST_CFG.n_bisect
