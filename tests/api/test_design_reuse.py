"""A design is built and fingerprinted once per process.

``build_benchmark`` hands every caller the same netlist object, so a
rerun must neither rebuild nor re-hash it, and no consumer may edit it.
"""

from dataclasses import replace

import pytest

from repro.api import SurrogateConfig, run
from repro.eda import benchmark_names, build_benchmark, implement
from repro.eda import benchmarks
from repro.engine import hashing, netlist_fingerprint


def _snapshot(netlist):
    """Everything a consumer could edit, with the digest recomputed
    (the memo would hide an edit that bypassed ``add``)."""
    return (hashing._netlist_digest(netlist), netlist_fingerprint(netlist),
            netlist.name, netlist.clock, list(netlist.primary_inputs),
            list(netlist.primary_outputs),
            {name: (inst.cell, dict(inst.pins), inst.x, inst.y)
             for name, inst in netlist.instances.items()})


@pytest.mark.parametrize("name", benchmark_names())
def test_run_implement_and_harvest_leave_the_design_untouched(
        name, base_config, workspace):
    netlist = build_benchmark(name)
    before = _snapshot(netlist)
    config = replace(base_config, benchmark=name,
                     surrogate=SurrogateConfig(harvest=True))
    report = run(config, workspace)
    assert report.design == name
    assert report.surrogate["store_rows"] > 0
    implement(netlist)
    assert build_benchmark(name) is netlist
    assert _snapshot(netlist) == before


def test_rerun_rebuilds_and_rehashes_nothing(base_config, workspace,
                                             monkeypatch):
    first = run(base_config, workspace)
    built, walked, digested = [], [], []
    for name, builder in list(benchmarks.BENCHMARKS.items()):
        monkeypatch.setitem(
            benchmarks.BENCHMARKS, name,
            lambda n=name, b=builder: built.append(n) or b())
    canonicalize = hashing.canonicalize

    def counting_canonicalize(obj):
        if isinstance(obj, dict) and "instances" in obj:
            walked.append(obj)
        return canonicalize(obj)

    monkeypatch.setattr(hashing, "canonicalize", counting_canonicalize)
    digest = hashing._netlist_digest
    monkeypatch.setattr(hashing, "_netlist_digest",
                        lambda nl: digested.append(nl) or digest(nl))

    second = run(base_config, workspace)
    assert (built, walked, digested) == ([], [], [])
    assert second.rewards == first.rewards
    assert second.engine_misses == 0

    # The counters do see a build, a digest and a netlist walk.
    benchmarks.BENCHMARKS["s298"]()
    netlist_fingerprint(build_benchmark("s298").copy())
    hashing.stable_hash({"instances": []})
    assert built == ["s298"]
    assert len(digested) == 1 and len(walked) == 1
