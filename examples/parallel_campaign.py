"""Campaign quickstart: sweep scenarios through the evaluation engine.

Demonstrates the engine subsystem end to end, driven declaratively:

1. a :class:`repro.api.Workspace` builds (and caches) the
   characterization GNN — no copy-pasted training block;
2. a ``mode="campaign"`` :class:`repro.api.StcoConfig` sweeps
   (benchmark × agent × PPA-weights) scenarios through one shared
   engine — every scenario reuses the others' characterized corners;
3. the campaign checkpoints after every scenario and resumes instantly
   on a re-run;
4. the workspace's disk cache means re-running this script performs
   **zero** re-characterizations.

Run:  python examples/parallel_campaign.py
(add PYTHONPATH=src if the package is not installed;
 set REPRO_SMOKE=1 for a CI-sized run)
"""

import os

from repro.api import (EngineConfig, ModelConfig, ScenarioConfig,
                       SearchConfig, StcoConfig, TechnologyConfig,
                       Workspace, run)
from repro.engine import available_workers
from repro.utils import print_table

SMOKE = bool(os.environ.get("REPRO_SMOKE"))


def main():
    cells = (("INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1") if SMOKE else
             ("INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "XOR2_X1",
              "DFF_X1"))
    benchmarks = ["s298"] if SMOKE else ["s298", "s386", "s526"]
    agents = (("qlearning", "random") if SMOKE
              else ("qlearning", "random", "anneal"))
    weights_list = ((1.0, 1.0, 0.5),    # balanced
                    (2.0, 1.0, 0.5))    # power-conscious
    iterations = 4 if SMOKE else 8
    scenarios = tuple(
        ScenarioConfig(benchmark=b, agent=a, weights=w,
                       iterations=iterations)
        for b in benchmarks for a in agents for w in weights_list)

    workers = available_workers()
    config = StcoConfig(
        mode="campaign",
        technology=TechnologyConfig(
            cells=cells,
            train_corners=((1.0, 0.0, 1.0), (0.85, 0.05, 1.1),
                           (1.15, -0.05, 0.9)),
            test_corners=((0.95, 0.02, 1.05),),
            slews=(8e-9,), loads=(15e-15,),
            n_bisect=3, max_steps=200 if SMOKE else 220),
        model=ModelConfig(epochs=8 if SMOKE else 25),
        # One engine for the whole campaign: the design space is
        # prefetched up-front (parallel across CPUs when the machine has
        # them), and the workspace's persistent cache means the *next*
        # campaign starts warm.
        engine=EngineConfig(
            backend=f"process:{workers}" if workers > 1 else "serial"),
        search=SearchConfig(vdd_scales=(0.9, 1.0, 1.1),
                            vth_shifts=(-0.05, 0.05),
                            cox_scales=(0.9, 1.1)),
        scenarios=scenarios,
        checkpoint="campaign_ckpt.json",
        prefetch=True)

    print("1) Building the characterization dataset + GNN "
          "(workspace-cached)…")
    workspace = Workspace(".cache/workspace")

    print("2) Sweeping (benchmark x agent x weights) scenarios…")
    report = run(config, workspace)

    def label(s):
        weights_txt = ",".join(f"{w:g}" for w in s["weights"])
        return (f"{s['benchmark']}/{s['agent']}"
                f"(seed={s['seed']}, w={weights_txt})")

    rows = [[label(s["scenario"]),
             str(tuple(s["best_corner"])), f"{s['best_reward']:.3f}",
             str(s["evaluations"]),
             "resume" if s.get("resumed") else f"{s['runtime_s']:.2f}s"]
            for s in report.scenarios]
    engine_stats = report.cache_stats["engine"]
    print_table(["Scenario", "Best corner", "Reward", "Evals", "Time"],
                rows,
                title=f"Campaign: {len(scenarios)} scenarios, "
                      f"{engine_stats['characterizations']} "
                      f"characterizations, "
                      f"{report.resumed_scenarios} resumed")
    print(f"\nBest overall: corner {report.best_corner} "
          f"(reward {report.best_reward:.3f})")
    print("Re-run this script: scenarios resume from the checkpoint and "
          "the corner cache makes re-characterization count 0.")


if __name__ == "__main__":
    main()
