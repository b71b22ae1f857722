"""Build the template workspaces every run starts from a copy of.

``empty``
    A new workspace: the cold start.
``warm``
    The quickstart's characterization dataset and trained GNN, nothing
    else (its engine cache is emptied).
``serve``
    ``warm`` plus a harvested record store and the surrogate the predict
    edge serves, again with an empty engine cache.

Runs copy a template and never write back, so no run sees an earlier
run's engine cache or job store. Every workload's documents derive from
``quickstart.json``, a pinned copy of ``examples/quickstart.json``: the
benchmark's inputs and ``reference.json`` stay fixed when the example
changes, so two versions of the program are measured on the same work.
Usage::

    PYTHONPATH=src python3 perfbench/templates.py DEST   # build into DEST
    PYTHONPATH=src python3 perfbench/templates.py --reference

``--reference`` rewrites ``reference.json``: the GNN reward at every
corner of the quickstart grid, as the ``warm`` template scores them.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
QUICKSTART = json.loads((HERE / "quickstart.json").read_text())

#: Corner grid of the surrogate harvest (vdd, vth, cox).
HARVEST_GRID = ((0.85, 0.95, 1.05, 1.15), (-0.05, 0.05), (0.9, 1.1))


def harvest_document() -> dict:
    doc = copy.deepcopy(QUICKSTART)
    doc["search"].update(optimizer="random", seed=0, iterations=16,
                         vdd_scales=HARVEST_GRID[0],
                         vth_shifts=HARVEST_GRID[1],
                         cox_scales=HARVEST_GRID[2])
    doc["surrogate"] = {"harvest": True, "persist_model": True,
                        "members": 3, "hidden": 8, "epochs": 40,
                        "min_observations": 4}
    return doc


def _strip(root: Path) -> None:
    """Drop what a run leaves besides the artifacts a template keeps."""
    for name in ("engine", "reports", "serve", "obs"):
        shutil.rmtree(root / name, ignore_errors=True)


def build(dest: Path) -> None:
    from repro.api import Workspace, run
    Workspace(dest / "empty")
    warm = Workspace(dest / "warm")
    report = run(QUICKSTART, warm)
    if warm.counters["models_trained"] != 1:
        raise RuntimeError("warm template trained no model")
    print(f"warm template: best_reward {report.best_reward!r} at "
          f"{report.best_corner}", file=sys.stderr)
    _strip(warm.root)
    shutil.copytree(warm.root, dest / "serve")
    serve = Workspace(dest / "serve")
    report = run(harvest_document(), serve)
    if "model_fingerprint" not in report.surrogate:
        raise RuntimeError(f"serve template has no surrogate: "
                           f"{report.surrogate}")
    _strip(serve.root)


def reference(warm_root: Path) -> dict:
    """Reward at every corner of the quickstart grid."""
    from repro.api import StcoConfig, Workspace
    from repro.eda.benchmarks import build_benchmark
    cfg = StcoConfig.from_dict(QUICKSTART)
    engine = Workspace(warm_root).engine(cfg.technology, cfg.model,
                                         cfg.engine)
    netlist = build_benchmark(cfg.benchmark)
    corners = cfg.search.space().points()
    records = engine.evaluate_many(netlist, corners,
                                   cfg.search.ppa_weights())
    return {",".join(f"{v:g}" for v in r.corner.key()): r.reward
            for r in records}


if __name__ == "__main__":
    if sys.argv[1:] == ["--reference"]:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            build(Path(tmp))
            rewards = reference(Path(tmp) / "warm")
        (HERE / "reference.json").write_text(json.dumps(
            {"cold_stco": {"document": "quickstart.json",
                           "rewards": rewards}}, indent=1) + "\n")
    elif len(sys.argv) == 2:
        build(Path(sys.argv[1]))
    else:
        sys.exit(__doc__)
