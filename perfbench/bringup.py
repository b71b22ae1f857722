"""One bring-up of an in-process workload, timed from outside by run.py:
a fresh interpreter imports the program and opens a workspace copy at
its start state (for ``warm_sweep``, with the dataset and GNN loaded into
an engine). This is what every invocation of the program pays before
its first run.

    PYTHONPATH=src python3 perfbench/bringup.py WORKLOAD WORKSPACE
"""

import sys

from templates import QUICKSTART


def main(workload: str, root: str) -> None:
    from repro.api import StcoConfig, Workspace
    ws = Workspace(root)
    if workload == "warm_sweep":
        cfg = StcoConfig.from_dict(QUICKSTART)
        ws.engine(cfg.technology, cfg.model, cfg.engine)
        if ws.counters["models_loaded"] != 1:
            sys.exit("warm template holds no trained model")


if __name__ == "__main__":
    main(*sys.argv[1:])
